#pragma once

// CachingSetView: a SetView decorator that adds a client-side object cache.
//
// Fetches hit the cache first (no RPC on a fresh hit); misses fall through
// to the inner view and fill the cache. Crucially, a cached object counts
// as *reachable* even when its home is partitioned away — the client holds
// a copy, so the object is accessible in the paper's sense. This formalises
// the availability nuance of the dynamic-set prefetch buffer: iterators
// over a caching view keep yielding cached members through failures.
//
// The price is currency: a hit may serve an old version (bounded by the
// cache TTL). That trade is exactly the paper's "users are usually willing
// to tolerate some inconsistency for a gain in performance".
// HoardingSetView (hoard_view.hpp) derives from it, adding only the hoard.

#include "core/set_view.hpp"
#include "store/cache.hpp"

namespace weakset {

class CachingSetView : public SetView {
 public:
  CachingSetView(SetView& inner, CacheOptions options = {})
      : inner_(inner), sim_(inner.sim()), cache_(options) {}

  Task<Result<std::vector<ObjectRef>>> read_members() override {
    return inner_.read_members();
  }
  [[nodiscard]] MembershipReadMode last_read_mode() const override {
    return inner_.last_read_mode();
  }
  Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) override {
    return inner_.snapshot_atomic(std::move(on_cut));
  }
  Task<Result<void>> freeze() override { return inner_.freeze(); }
  Task<void> unfreeze() override { return inner_.unfreeze(); }
  Task<Result<void>> pin_grow_only() override {
    return inner_.pin_grow_only();
  }
  Task<void> unpin_grow_only() override { return inner_.unpin_grow_only(); }

  [[nodiscard]] bool is_reachable(ObjectRef ref) const override {
    // A cached copy is accessible regardless of the network.
    return cache_.contains(ref, now()) || inner_.is_reachable(ref);
  }

  [[nodiscard]] std::optional<Duration> distance(
      ObjectRef ref) const override {
    if (cache_.contains(ref, now())) return Duration::zero();  // local
    return inner_.distance(ref);
  }

  Task<Result<VersionedValue>> fetch(ObjectRef ref) override {
    if (auto hit = cache_.get(ref, now())) co_return std::move(*hit);
    Result<VersionedValue> value = co_await inner_.fetch(ref);
    if (value) cache_.put(ref, value.value(), now());
    co_return value;
  }

  Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs) override {
    // Serve hits locally, batch the misses through the inner view, and admit
    // every batch result — a prefetch window's worth of fetches warms the
    // cache in one go.
    std::vector<std::optional<Result<VersionedValue>>> slots(refs.size());
    std::vector<ObjectRef> misses;
    std::vector<std::size_t> miss_index;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (auto hit = cache_.get(refs[i], now())) {
        slots[i] = std::move(*hit);
      } else {
        misses.push_back(refs[i]);
        miss_index.push_back(i);
      }
    }
    if (!misses.empty()) {
      auto fetched = co_await inner_.fetch_many(std::move(misses));
      for (std::size_t j = 0; j < fetched.size(); ++j) {
        if (fetched[j]) {
          cache_.put(refs[miss_index[j]], fetched[j].value(), now());
        }
        slots[miss_index[j]] = std::move(fetched[j]);
      }
    }
    std::vector<Result<VersionedValue>> out;
    out.reserve(refs.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
    co_return out;
  }

  [[nodiscard]] Simulator& sim() override { return inner_.sim(); }

  [[nodiscard]] ObjectCache& cache() noexcept { return cache_; }
  [[nodiscard]] const CacheStats& stats() const noexcept {
    return cache_.stats();
  }

 protected:
  [[nodiscard]] SetView& inner() const noexcept { return inner_; }
  [[nodiscard]] SimTime now() const { return sim_.now(); }

 private:
  SetView& inner_;
  Simulator& sim_;
  mutable ObjectCache cache_;
};

}  // namespace weakset
