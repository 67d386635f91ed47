// wsbench: one process runs one workload for a given wall-clock budget and
// prints what it measured.
//
//   wsbench --workload NAME --seed N --seconds S --trace 0|1
//           [--fault NAME] [--trace-out FILE] [--rounds N] [--workers N]
//
// A run repeats whole rounds of the workload until the budget is spent. A
// round builds a fresh world from the seed, runs it, and checks its outputs;
// every round of a run is the same simulation, so the simulated metrics of
// all rounds must agree exactly (that is checked too). The first round is a
// warm-up: it counts towards attempted/failed operations but not towards the
// wall-clock medians.
//
// With --trace 1, untraced and traced rounds alternate: the traced ones
// record spans (written as Chrome trace-event JSON to --trace-out) and the
// per-layer metrics; the wall-clock gap between the two kinds is the tracing
// overhead.
//
// Output: human-readable lines, then one line "REPORT {json}" holding every
// metric; run.py turns that into the benchmark's result line.
// Exit status 1 when any output check failed, 2 on bad arguments.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifdef PERFBENCH_ALLOC_HOOK
#include "util/alloc_hook.hpp"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fault;
  std::string trace_out;
  /// Fixed round count instead of a time budget (self-test, identity check).
  int rounds = 0;
  /// sessions-sharded worker count; 0 = min(4, CPUs).
  std::uint32_t workers = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "wsbench: " << why << "\n"
            << "usage: wsbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--fault NAME] [--trace-out FILE] [--rounds N] "
               "[--workers N]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--fault") {
        args.fault = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--rounds") {
        args.rounds = std::stoi(value);
      } else if (flag == "--workers") {
        args.workers = static_cast<std::uint32_t>(std::stoul(value));
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::uint64_t allocs_now() {
#ifdef PERFBENCH_ALLOC_HOOK
  return weakset::alloc_hook::news();
#else
  return 0;
#endif
}

std::uint32_t sharded_workers() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, cpus));
}

RoundResult run_round(const Args& args, bool trace) {
  RoundConfig config;
  config.seed = args.seed;
  config.trace = trace;
  config.fault = args.fault;
  const std::uint64_t allocs_before = allocs_now();
  RoundResult result;
  if (args.workload == "sessions") {
    result = run_sessions(config);
  } else if (args.workload == "sessions-sharded") {
    config.workers = args.workers > 0 ? args.workers : sharded_workers();
    result = run_sessions(config);
  } else if (args.workload == "wan-drain") {
    result = run_wan_drain(config);
  } else if (args.workload == "replicated-writes") {
    result = run_replicated_writes(config);
  } else {
    usage("unknown workload " + args.workload);
  }
  result.allocs = allocs_now() - allocs_before;
  return result;
}

/// Peak resident set of this process image, in MiB. Read from VmHWM:
/// getrusage's ru_maxrss survives execve on Linux, so in a child of a larger
/// process it would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + json_number(v);
  }
  return out + "}";
}

// -- span analysis ------------------------------------------------------------

/// Self time of every span: its duration minus the part of it that the union
/// of its children's intervals (clipped to the span) covers.
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent != 0 && span.parent <= spans.size()) {
      children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

/// Layer metrics that only spans can give: next() self time (its span minus
/// the store-client child spans) and fetch_many latency at the view boundary.
void add_span_layers(const std::vector<SpanRecord>& spans,
                     std::map<std::string, double>& layer) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<std::int64_t> next_self;
  std::vector<std::int64_t> fetch_many;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "next") next_self.push_back(self[i]);
    if (spans[i].name == "fetch_many") {
      fetch_many.push_back(spans[i].end_ns - spans[i].start_ns);
    }
  }
  layer["core.next_self_p99_ms"] = quantile_ns_as_ms(next_self, 0.99);
  layer["store.client.fetch_many_p99_ms"] = quantile_ns_as_ms(fetch_many, 0.99);
}

void print_self_time_table(const std::string& workload,
                           const std::vector<SpanRecord>& spans) {
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t wall_ns = 0;
  };
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].layer];
    ++row.count;
    row.total_ns += spans[i].end_ns - spans[i].start_ns;
    row.self_ns += self[i];
    row.wall_ns += spans[i].wall_ns;
  }
  std::printf("per-layer self time, %s (simulated ms; wall ms of the spans)\n",
              workload.c_str());
  std::printf("  %-14s %8s %14s %14s %12s\n", "layer", "spans", "total_ms",
              "self_ms", "wall_ms");
  for (const auto& [layer, row] : rows) {
    std::printf("  %-14s %8" PRIu64 " %14.3f %14.3f %12.3f\n", layer.c_str(),
                row.count, static_cast<double>(row.total_ns) / 1e6,
                static_cast<double>(row.self_ns) / 1e6,
                static_cast<double>(row.wall_ns) / 1e6);
  }
}

/// Chrome trace-event JSON ("X" complete events, microseconds of simulated
/// time). One track per operation id.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"name\": " << json_string(s.name)
        << ", \"cat\": " << json_string(s.layer) << ", \"ph\": \"X\""
        << ", \"ts\": " << json_number(static_cast<double>(s.start_ns) / 1e3)
        << ", \"dur\": "
        << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"pid\": 1, \"tid\": " << s.op << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"wall_us\": "
        << json_number(static_cast<double>(s.wall_ns) / 1e3) << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// -- host-speed reference -----------------------------------------------------
//
// The host's speed drifts by tens of percent over seconds to minutes (shared
// cores), which moves every raw wall-clock rate with it. Before and after
// every round the benchmark times a fixed batch of its own work shaped like
// the simulator's hot path (a binary heap of timed events, an ordered map,
// small allocations) on the same thread. Dividing a round's rate by the
// reference rate around it cancels most of the drift; the library never
// runs this code, so a change to the library moves only the numerator.

std::uint64_t reference_unit() {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t acc = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heap;
  std::map<std::uint64_t, std::unique_ptr<std::uint64_t[]>> table;
  for (std::uint64_t i = 0; i < 2048; ++i) {
    heap.emplace_back(next() % 100000, i);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    table.emplace(next(), std::make_unique<std::uint64_t[]>(6));
  }
  while (!heap.empty()) {
    acc += heap.front().first;
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
  }
  for (const auto& [key, value] : table) acc += key ^ value[0];
  return acc;
}

/// Reference units per wall second, over a fixed batch of units.
double reference_rate() {
  constexpr int kUnits = 8;
  const Stopwatch clock;
  std::uint64_t sink = 0;
  for (int i = 0; i < kUnits; ++i) sink += reference_unit();
  const double seconds = clock.seconds();
  if (sink == 1) std::printf("\n");  // keeps the work observable
  return kUnits / seconds;
}

/// The nominal host speed rates are scaled to, in reference units per
/// second (roughly one 2.1 GHz x86-64 server core).
constexpr double kNominalReferenceRate = 1000.0;

/// Simulated results of two rounds of one run must agree exactly.
bool same_simulation(const RoundResult& a, const RoundResult& b) {
  return a.sim == b.sim && a.layer == b.layer && a.digest == b.digest &&
         a.attempted == b.attempted && a.failed == b.failed &&
         a.events == b.events && a.rpc_calls == b.rpc_calls;
}

/// Operations the round completed per wall second of its timed phase.
double rate(const RoundResult& r) {
  return ratio(static_cast<double>(r.attempted - r.failed), r.run_wall_s);
}

/// The host's speed around one round relative to the nominal speed: rates
/// are divided by it and durations multiplied, to state both at nominal speed.
double host_speed(const RoundResult& r) {
  return ratio(r.reference_rate, kNominalReferenceRate);
}

int run(const Args& args) {
  const Stopwatch budget;
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  RoundResult first;
  std::size_t round = 0;
  for (;; ++round) {
    // Round 0 warms up; trace mode then alternates untraced/traced rounds.
    const bool trace_this = args.trace && round % 2 == 1;
    const double reference_before = reference_rate();
    RoundResult r = run_round(args, trace_this);
    r.reference_rate = (reference_before + reference_rate()) / 2.0;
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) errors.push_back(e);
    std::printf("round %zu%s: setup %.6f s, run %.4f s, %.1f ops/s, "
                "reference %.1f units/s\n",
                round, trace_this ? " (traced)" : "", r.setup_wall_s,
                r.run_wall_s, rate(r), r.reference_rate);
    if (round == 0) {
      for (const std::string& note : r.notes) {
        std::printf("%s\n", note.c_str());
      }
      first = r;
    } else {
      // Tracing is passive: traced and untraced rounds simulate the same run.
      if (!same_simulation(first, r)) {
        errors.push_back("simulated results differ between rounds of one run");
      }
      // Past the comparison only the wall-clock fields and the first traced
      // round's spans are read; dropping the rest keeps memory flat.
      r.sim.clear();
      r.layer.clear();
      r.notes.clear();
      if (trace_this && !traced.empty()) r.spans.clear();
      (trace_this ? traced : untraced).push_back(std::move(r));
    }
    if (!errors.empty()) break;
    const bool enough_rounds =
        args.rounds > 0
            ? static_cast<int>(round + 1) >= args.rounds
            : budget.seconds() >= args.seconds &&
                  untraced.size() >= 1 && (!args.trace || !traced.empty());
    if (enough_rounds) break;
  }

  std::map<std::string, double> wall;
  std::vector<double> setups;
  std::vector<double> raw_setups;
  std::vector<double> rates;
  std::vector<double> ref_rates;
  std::vector<double> references;
  std::vector<const RoundResult*> timed;
  for (const RoundResult& r : untraced) timed.push_back(&r);
  if (timed.empty()) timed.push_back(&first);  // one round: only the warm-up
  for (const RoundResult* r : timed) {
    raw_setups.push_back(r->setup_wall_s);
    setups.push_back(r->setup_wall_s * host_speed(*r));
    rates.push_back(rate(*r));
    ref_rates.push_back(ratio(rate(*r), host_speed(*r)));
    references.push_back(r->reference_rate);
  }
  wall["setup_s"] = median(setups);
  wall["setup_wall_s"] = median(raw_setups);
  wall["ops_per_wall_s"] = median(rates);
  wall["ops_per_wall_s_q1"] = quantile(rates, 0.25);
  wall["ops_per_wall_s_q3"] = quantile(rates, 0.75);
  wall["ops_per_ref_s"] = median(ref_rates);
  wall["reference_units_per_s"] = median(references);
  wall["peak_rss_mb"] = peak_rss_mb();
  wall["rounds"] = static_cast<double>(round + 1);

  std::map<std::string, double> layer;
  if (args.trace && !traced.empty()) {
    const RoundResult& t = traced.front();
    layer = first.layer;  // every round simulates the same run
    add_span_layers(t.spans, layer);
    const double ops = static_cast<double>(t.attempted);
    layer["sim.events_per_op"] = ratio(static_cast<double>(t.events), ops);
    layer["net.rpcs_per_op"] = ratio(static_cast<double>(t.rpc_calls), ops);
    std::vector<double> ns_per_event;
    std::vector<double> ns_per_rpc;
    std::vector<double> allocs_per_op;
    for (const RoundResult& r : untraced) {
      ns_per_event.push_back(
          ratio(r.run_wall_s * 1e9, static_cast<double>(r.events)));
      ns_per_rpc.push_back(
          ratio(r.run_wall_s * 1e9, static_cast<double>(r.rpc_calls)));
      allocs_per_op.push_back(ratio(static_cast<double>(r.allocs),
                                    static_cast<double>(r.attempted)));
    }
    layer["sim.wall_ns_per_event"] = median(ns_per_event);
    layer["net.wall_ns_per_rpc"] = median(ns_per_rpc);
    layer["util.allocs_per_op"] = median(allocs_per_op);
    std::vector<double> traced_rates;
    for (const RoundResult& r : traced) {
      traced_rates.push_back(ratio(rate(r), host_speed(r)));
    }
    const double untraced_rate = median(ref_rates);
    layer["bench.trace_overhead_pct"] =
        untraced_rate > 0.0
            ? (1.0 - median(traced_rates) / untraced_rate) * 100.0
            : 0.0;
    print_self_time_table(args.workload, t.spans);
    if (!args.trace_out.empty()) {
      if (write_chrome_trace(args.trace_out, t.spans)) {
        std::printf("chrome trace: %s (%zu spans)\n", args.trace_out.c_str(),
                    t.spans.size());
      } else {
        errors.push_back("could not write the Chrome trace file");
      }
    }
  }

  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, first.digest);
  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    errs += (i ? ", " : "") + json_string(errors[i]);
  }
  errs += "]";
  std::printf(
      "REPORT {\"workload\": %s, \"seed\": %" PRIu64
      ", \"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"digest\": \"%s\", \"errors\": %s, \"wall\": %s, \"sim\": %s, "
      "\"layer\": %s}\n",
      json_string(args.workload).c_str(), args.seed,
      errors.empty() ? "true" : "false", attempted, failed, digest,
      errs.c_str(), json_map(wall).c_str(), json_map(first.sim).c_str(),
      json_map(layer).c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
