#pragma once

// HoardingSetView: disconnected operation for mobile clients.
//
// The paper's target environment includes "(possibly mobile) workstations"
// where "disconnecting a mobile client from the network while traveling is
// an induced failure, yet consistency of data may be sacrificed to gain
// high performance and high availability" (section 1.1). Hoarding is the
// Coda-style answer: while connected, hoard() captures the membership and
// every payload; while disconnected, membership reads and fetches are
// served entirely from the hoard, so iterators complete offline.
//
// The price is measurable inconsistency: the hoarded membership is frozen
// at hoard time, so mutations during the disconnection are invisible —
// offline runs may yield removed members (ghosts) and miss additions. The
// spec layer quantifies exactly that (tests/hoard_test.cpp).
//
// The hoard is a CachingSetView's cache: fetches, batched fetches,
// reachability and distance are the caching view's cache-through paths.
// Only hoard() and the membership fallback are the hoard's own.

#include <optional>
#include <vector>

#include "core/caching_view.hpp"

namespace weakset {

struct HoardStats {
  std::uint64_t stale_membership_serves = 0;  ///< offline membership reads
  std::uint64_t hoards = 0;                   ///< completed hoard() calls
};

class HoardingSetView final : public CachingSetView {
 public:
  explicit HoardingSetView(SetView& inner, CacheOptions cache_options = {})
      : CachingSetView(inner, cache_options) {}

  /// While connected: reads the membership and fetches every member into
  /// the hoard. Fails if the membership read fails; unreachable members are
  /// skipped (they simply won't be available offline).
  Task<Result<void>> hoard() {
    Result<std::vector<ObjectRef>> members = co_await inner().read_members();
    if (!members) co_return std::move(members).error();
    for (const ObjectRef ref : members.value()) {
      if (cache().contains(ref, now())) continue;
      Result<VersionedValue> value = co_await inner().fetch(ref);
      if (value) cache().put(ref, std::move(value).value(), now());
    }
    hoarded_membership_ = std::move(members).value();
    ++stats_.hoards;
    co_return Ok();
  }

  [[nodiscard]] bool has_hoard() const noexcept {
    return hoarded_membership_.has_value();
  }
  /// Hoard counters (the cache's own are at cache().stats()).
  [[nodiscard]] const HoardStats& stats() const noexcept { return stats_; }

  // -- SetView ---------------------------------------------------------------

  /// Live read while connected; the hoarded membership when the live read
  /// fails (the disconnection).
  Task<Result<std::vector<ObjectRef>>> read_members() override {
    Result<std::vector<ObjectRef>> live = co_await inner().read_members();
    if (live) {
      served_from_hoard_ = false;
      co_return live;
    }
    if (hoarded_membership_) {
      ++stats_.stale_membership_serves;
      served_from_hoard_ = true;
      co_return *hoarded_membership_;
    }
    served_from_hoard_ = false;
    co_return live;  // no hoard to fall back on: propagate the failure
  }

  [[nodiscard]] MembershipReadMode last_read_mode() const override {
    // A hoard serve ships the (locally) full hoarded membership; otherwise
    // report whatever the live inner read did.
    if (served_from_hoard_) return MembershipReadMode{1, 0};
    return inner().last_read_mode();
  }

 private:
  std::optional<std::vector<ObjectRef>> hoarded_membership_;
  HoardStats stats_;
  bool served_from_hoard_ = false;
};

}  // namespace weakset
