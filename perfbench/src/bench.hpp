#pragma once

// Shared pieces of the whole-stack benchmark: the per-round result record,
// the span tracer, the timing SetView wrapper, and the statistics helpers.
//
// Two clocks appear everywhere. Simulated time (SimTime / Duration) is what
// the library's cost model charges; it is a pure function of the seed, so
// every "sim" metric repeats exactly. Wall-clock time (std::chrono) is what
// the host pays to run the simulation; only the wall metrics are noisy.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/set_view.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "store/object.hpp"

namespace perfbench {

using weakset::Duration;
using weakset::ObjectRef;
using weakset::SimTime;

/// What one round of a workload is asked to do.
struct RoundConfig {
  std::uint64_t seed = 1;
  /// Record spans (the traced run). Off in every end-to-end measurement.
  bool trace = false;
  /// Sharded executor worker count (sessions-sharded only; 0 = classic loop).
  std::uint32_t workers = 0;
  /// Planted fault for the checker self-test ("" = none). Each workload
  /// recognises its own names and corrupts its own model or outputs, never
  /// the program under test.
  std::string fault;
};

/// One span on the simulated clock, recorded by benchmark code around a call
/// into one layer. `wall_ns` is the host time the span took (setup spans are
/// instantaneous in simulated time, so only their wall time says anything).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation id shared by one request's spans
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t wall_ns = 0;
};

/// Span recorder. Disabled tracers return id 0 and record nothing, so call
/// sites need no branches; an enabled one keeps every span in memory until
/// the round ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::uint64_t begin(std::string name, std::string layer, SimTime at,
                      std::uint64_t parent = 0, std::uint64_t op = 0) {
    if (!enabled_) return 0;
    SpanRecord span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.op = op;
    span.name = std::move(name);
    span.layer = std::move(layer);
    span.start_ns = at.count_nanos();
    span.end_ns = span.start_ns;
    span.wall_ns = wall_now_ns();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void end(std::uint64_t id, SimTime at) {
    if (id == 0) return;
    SpanRecord& span = spans_[id - 1];
    span.end_ns = at.count_nanos();
    span.wall_ns = wall_now_ns() - span.wall_ns;
  }

  std::vector<SpanRecord> take() { return std::move(spans_); }

  [[nodiscard]] static std::int64_t wall_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

/// Everything one round reports. `sim` and `layer` hold only simulated-time
/// or count quantities, which must repeat exactly for a given seed; wall
/// quantities live in their own fields.
struct RoundResult {
  double setup_wall_s = 0.0;
  double run_wall_s = 0.0;
  /// Host-speed reference rate around the round (main.cpp).
  double reference_rate = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> sim;
  std::map<std::string, double> layer;
  /// Digest of the final membership of every collection.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t rpc_calls = 0;
  std::uint64_t allocs = 0;
  /// Failed output checks; a non-empty list fails the run.
  std::vector<std::string> errors;
  /// One-line observations printed for the first round of a run.
  std::vector<std::string> notes;
  std::vector<SpanRecord> spans;
};

// -- statistics ---------------------------------------------------------------

/// Quantile of `values` with linear interpolation between closest ranks
/// (numpy's default). 0 for an empty input.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double quantile_ns_as_ms(const std::vector<std::int64_t>& ns,
                                 double q) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (const std::int64_t v : ns) ms.push_back(static_cast<double>(v) / 1e6);
  return quantile(std::move(ms), q);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Quantile of a library histogram, interpolated linearly inside the log
/// bucket that holds the rank. The histogram's own percentile() answers with
/// bucket upper bounds, which would make a latency read identically across
/// seeds whenever it stays inside one bucket.
inline double histogram_quantile(const weakset::obs::Histogram* h, double q) {
  if (h == nullptr || h->count() == 0) return 0.0;
  const double target = q * static_cast<double>(h->count());
  double seen = 0.0;
  for (const auto& [lower, count] : h->nonzero_buckets()) {
    const double next = seen + static_cast<double>(count);
    if (next >= target) {
      const std::int64_t upper = weakset::obs::Histogram::bucket_upper(
          weakset::obs::Histogram::bucket_index(lower));
      const double lo = static_cast<double>(std::max(lower, h->min()));
      const double hi = static_cast<double>(std::min(upper, h->max()));
      const double frac =
          count == 0 ? 0.0 : (target - seen) / static_cast<double>(count);
      return lo + (std::max(hi, lo) - lo) * frac;
    }
    seen = next;
  }
  return static_cast<double>(h->max());
}

inline double hist_ms(const weakset::obs::MetricsRegistry& reg,
                      const char* name, double q) {
  return histogram_quantile(reg.histogram(name), q) / 1e6;
}

inline double hist_sum(const weakset::obs::MetricsRegistry& reg,
                       const char* name) {
  const weakset::obs::Histogram* h = reg.histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum());
}

inline double hist_count(const weakset::obs::MetricsRegistry& reg,
                         const char* name) {
  const weakset::obs::Histogram* h = reg.histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->count());
}

inline double hist_max(const weakset::obs::MetricsRegistry& reg,
                       const char* name) {
  const weakset::obs::Histogram* h = reg.histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->max());
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

inline double ms(Duration d) {
  return static_cast<double>(d.count_nanos()) / 1e6;
}

/// Order-sensitive 64-bit FNV-1a over a sequence of words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ull;
    }
  }
  void add_members(std::vector<ObjectRef> members) {
    std::sort(members.begin(), members.end());
    add(members.size());
    for (const ObjectRef ref : members) add(ref.id().raw());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Wall-clock stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Fills the layer metrics read from the library's own exported counters and
/// histograms. `writes` is the round's acknowledged membership writes, the
/// base of the per-write WAL ratios.
void fill_common_layers(RoundResult& result,
                        const weakset::obs::MetricsRegistry& reg,
                        double writes);

// -- traced store-client view -------------------------------------------------

/// A SetView that forwards to another and records a store-client span around
/// each membership read and payload fetch. `parent` points at the caller's
/// currently open span (the next()/iterate() call being served), so prefetch
/// batches issued during a call nest under it.
class TimingView final : public weakset::SetView {
 public:
  TimingView(weakset::SetView& inner, Tracer& tracer,
             const std::uint64_t& parent, const std::uint64_t& op)
      : inner_(inner), tracer_(tracer), parent_(parent), op_(op) {}

  weakset::Task<weakset::Result<std::vector<ObjectRef>>> read_members()
      override;
  [[nodiscard]] MembershipReadMode last_read_mode() const override {
    return inner_.last_read_mode();
  }
  weakset::Task<weakset::Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) override {
    return inner_.snapshot_atomic(std::move(on_cut));
  }
  weakset::Task<weakset::Result<void>> freeze() override {
    return inner_.freeze();
  }
  weakset::Task<void> unfreeze() override { return inner_.unfreeze(); }
  weakset::Task<weakset::Result<void>> pin_grow_only() override {
    return inner_.pin_grow_only();
  }
  weakset::Task<void> unpin_grow_only() override {
    return inner_.unpin_grow_only();
  }
  [[nodiscard]] bool is_reachable(ObjectRef ref) const override {
    return inner_.is_reachable(ref);
  }
  [[nodiscard]] std::optional<Duration> distance(
      ObjectRef ref) const override {
    return inner_.distance(ref);
  }
  weakset::Task<weakset::Result<weakset::VersionedValue>> fetch(
      ObjectRef ref) override;
  weakset::Task<std::vector<weakset::Result<weakset::VersionedValue>>>
  fetch_many(std::vector<ObjectRef> refs) override;
  [[nodiscard]] weakset::Simulator& sim() override { return inner_.sim(); }

 private:
  weakset::SetView& inner_;
  Tracer& tracer_;
  const std::uint64_t& parent_;
  const std::uint64_t& op_;
};

// -- workloads ----------------------------------------------------------------

RoundResult run_sessions(const RoundConfig& config);
RoundResult run_wan_drain(const RoundConfig& config);
RoundResult run_replicated_writes(const RoundConfig& config);

}  // namespace perfbench
