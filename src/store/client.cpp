#include "store/client.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <memory>
#include <unordered_map>
#include <utility>

#include "util/pool.hpp"

namespace weakset {

namespace {

/// Visits a fragment's hosts in the one order every path agrees on: the
/// primary, then its replicas.
template <typename Visit>
void for_each_host(const FragmentMeta& fragment, Visit visit) {
  visit(fragment.primary());
  for (const NodeId replica : fragment.replicas()) visit(replica);
}

std::vector<NodeId> fragment_hosts(const FragmentMeta& fragment) {
  std::vector<NodeId> hosts;
  hosts.reserve(1 + fragment.replicas().size());
  for_each_host(fragment, [&](NodeId host) { hosts.push_back(host); });
  return hosts;
}

/// One scatter-gather: spawn() starts a worker that awaits one call and
/// pushes its (index, result) onto a heap-shared arrival queue; gather()
/// collects them. The worker shares nothing but that queue (it is never a
/// member coroutine holding a client's `this`), so an abandoned gather
/// leaves no worker dereferencing a dead client or frame.
template <typename T>
class Scatter {
 public:
  explicit Scatter(Simulator& sim)
      : sim_(sim), arrivals_(std::make_shared<Queue>(sim)) {}

  void spawn(std::size_t index, Task<T> call) {
    sim_.spawn(deliver(std::move(call), index, arrivals_));
    ++spawned_;
  }

  /// Fills `slots[index]` as each worker answers, in arrival order, until
  /// every worker has or `enough(index)`, asked after each arrival, returns
  /// true. A gather aborted by the queue closing early (nothing closes it)
  /// fails every slot still empty instead of leaving it for the caller to
  /// dereference.
  template <typename Enough>
  Task<void> gather(std::vector<std::optional<T>>& slots, Enough enough) {
    for (std::size_t answered = 0; answered < spawned_; ++answered) {
      std::optional<Arrival> arrival = co_await arrivals_->pop();
      if (!arrival) {
        for (std::optional<T>& slot : slots) {
          if (!slot) slot = Failure{FailureKind::kCancelled, "gather aborted"};
        }
        co_return;
      }
      slots[arrival->first] = std::move(arrival->second);
      if (enough(arrival->first)) co_return;
    }
  }
  Task<void> gather(std::vector<std::optional<T>>& slots) {
    return gather(slots, [](std::size_t) { return false; });
  }

 private:
  using Arrival = std::pair<std::size_t, T>;
  using Queue = AsyncQueue<Arrival>;

  static Task<void> deliver(Task<T> call, std::size_t index,
                            std::shared_ptr<Queue> arrivals) {
    T result = co_await std::move(call);
    arrivals->push(Arrival{index, std::move(result)});
  }

  Simulator& sim_;
  std::shared_ptr<Queue> arrivals_;
  std::size_t spawned_ = 0;
};

/// Quorum fragment read: scatter to every host, gather replies in ARRIVAL
/// order so a small quorum completes as soon as the nearest hosts answer,
/// and return the freshest (highest version) of the first `quorum`
/// successes.
Task<Result<msg::SnapshotReply>> quorum_snapshot(
    RpcNetwork& net, NodeId from, std::vector<NodeId> hosts, MethodId method,
    CollectionId id, std::size_t quorum, std::optional<Duration> timeout) {
  // Capped at the host count; a quorum of 0 still needs one answer, as
  // there is no freshest of none.
  const std::size_t needed = std::clamp<std::size_t>(quorum, 1, hosts.size());
  Scatter<Result<msg::SnapshotReply>> scatter{net.sim()};
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    auto read = net.call_typed<msg::SnapshotReply>(
        from, hosts[h], method, msg::SnapshotRequest{id}, timeout);
    scatter.spawn(h, std::move(read));
  }
  std::vector<std::optional<Result<msg::SnapshotReply>>> replies(hosts.size());
  std::size_t successes = 0;
  std::size_t freshest = 0;
  const auto enough = [&](std::size_t h) {
    const Result<msg::SnapshotReply>& reply = *replies[h];
    if (!reply) return false;
    if (successes++ == 0 ||
        reply.value().version() > replies[freshest]->value().version()) {
      freshest = h;
    }
    return successes >= needed;
  };
  co_await scatter.gather(replies, enough);
  if (successes < needed) {
    co_return Failure{FailureKind::kUnreachable,
                      "quorum not reached: " + std::to_string(successes) +
                          "/" + std::to_string(needed)};
  }
  co_return std::move(*replies[freshest]).value();
}

/// A full-snapshot read in read_all's reply form: a DeltaReply with seq 0,
/// which is fine because only delta-path replies reach the cache.
Task<Result<msg::DeltaReply>> as_delta(Task<Result<msg::SnapshotReply>> read) {
  Result<msg::SnapshotReply> reply = co_await std::move(read);
  if (!reply) co_return std::move(reply).error();
  const std::uint64_t version = reply.value().version();
  co_return msg::DeltaReply::full_snapshot(
      std::move(reply).value().take_members(), version, 0);
}

}  // namespace

std::optional<NodeId> RepositoryClient::pick_read_host(
    const FragmentMeta& fragment) const {
  const Topology& topo = repo_.net().topology();
  if (options_.read_policy == ReadPolicy::kPrimaryOnly) {
    if (topo.can_communicate(node_, fragment.primary())) {
      return fragment.primary();
    }
    return std::nullopt;
  }
  // kNearest: cheapest reachable host; on a tie, the first considered.
  std::optional<NodeId> best;
  Duration best_latency = Duration::max();
  for_each_host(fragment, [&](NodeId host) {
    const auto latency = topo.path_latency(node_, host);
    if (latency && *latency < best_latency) {
      best = host;
      best_latency = *latency;
    }
  });
  return best;
}

Task<bool> RepositoryClient::heal_wrong_epoch(CollectionId id,
                                              const Failure& failure) {
  if (options_.directory == nullptr) co_return false;
  // The rejecting server's current directory epoch travels as decimal text
  // in the failure detail — the only structured use of Failure::detail
  // (failure.hpp). Unparseable detail degrades to 0, which the directory
  // treats as "force a lookup".
  const char* const end = failure.detail.data() + failure.detail.size();
  std::uint64_t current = 0;
  if (std::from_chars(failure.detail.data(), end, current).ptr != end) {
    current = 0;
  }
  metrics_.add("store.client.wrong_epoch_retries");
  co_return co_await options_.directory->refresh(id, current);
}

template <typename Attempt>
std::invoke_result_t<Attempt&> RepositoryClient::retry_wrong_epoch(
    CollectionId id, Attempt attempt) {
  auto result = co_await attempt();
  if (!result && result.error().kind == FailureKind::kWrongEpoch &&
      co_await heal_wrong_epoch(id, result.error())) {
    // A fragment moved under our cached directory: one more attempt against
    // the refreshed placement (a second wrong-epoch failure propagates).
    result = co_await attempt();
  }
  co_return result;
}

void RepositoryClient::count_fragment_read(const msg::DeltaReply& reply,
                                           bool cached) {
  const std::size_t entries = reply.entry_count();
  if (reply.is_delta()) {
    // Delta cache hit: the host shipped only the ops since our cursor.
    ++read_stats_.fragment_reads_delta;
    ++last_read_delta_;
    read_stats_.ops_shipped += entries;
    metrics_.add("store.client.delta_cache_hits");
    metrics_.add("store.client.fragment_reads_delta");
    metrics_.add("store.client.ops_shipped", entries);
    return;
  }
  ++read_stats_.fragment_reads_full;
  ++last_read_full_;
  read_stats_.members_shipped += entries;
  // On the cached path a full reply is a miss (first contact, host switch,
  // or truncated server log): the host resynced us with a snapshot.
  if (cached) metrics_.add("store.client.delta_cache_misses");
  metrics_.add("store.client.fragment_reads_full");
  metrics_.add("store.client.members_shipped", entries);
}

Task<Result<msg::SnapshotReply>> RepositoryClient::read_fragment(
    CollectionId id, std::size_t fragment) {
  const auto attempt = [this, id, fragment] {
    return read_fragment_once(id, fragment);
  };
  return retry_wrong_epoch(id, attempt);
}

Task<Result<msg::SnapshotReply>> RepositoryClient::read_fragment_once(
    CollectionId id, std::size_t fragment) {
  const FragmentMeta& frag = resolve(id).fragments().at(fragment);
  if (options_.read_policy == ReadPolicy::kQuorum) {
    // Never retried: a quorum read fails kUnreachable, not kWrongEpoch.
    co_return co_await quorum_snapshot(repo_.net(), node_, fragment_hosts(frag),
                                       methods_.snapshot, id, options_.quorum,
                                       options_.rpc_timeout);
  }
  const auto host = pick_read_host(frag);
  if (!host) {
    co_return Failure{FailureKind::kPartitioned,
                      "no reachable host for fragment"};
  }
  co_return co_await call<msg::SnapshotReply>(*host, methods_.snapshot,
                                              msg::SnapshotRequest{id});
}

const std::vector<ObjectRef>& RepositoryClient::absorb_delta(
    const CacheKey& key, msg::DeltaReply reply) {
  FragmentCacheEntry& entry = delta_cache_[key];
  if (reply.is_delta()) {
    // Replaying the host's ops over the previous materialisation reproduces
    // the host's member order exactly (MemberList is the same structure the
    // server mutates), so a delta-synced read and a full read of the same
    // host state return identical sequences. Ops at or below the entry's
    // cursor are skipped (cf. the server's coll.sync handler): overlapping
    // read_alls on one client send the same `since` cursor, and whichever
    // absorbs second would otherwise re-replay a prefix the entry already
    // applied — re-removing a member that was later re-added permutes the
    // cached order relative to the host.
    for (const CollectionOp& op : reply.ops()) {
      if (op.seq() <= entry.seq) continue;
      if (op.kind() == CollectionOp::Kind::kAdd) {
        entry.members.insert(op.ref());
      } else {
        entry.members.erase(op.ref());
      }
    }
    entry.seq = std::max(entry.seq, reply.seq());
    entry.version = std::max(entry.version, reply.version());
    VectorPool<CollectionOp>::release(std::move(reply).take_ops());
  } else {
    // A snapshot install is wholesale: members, version and cursor are one
    // consistent host state, even if an overlapping absorb left the entry
    // ahead of it (the next delta read simply catches up from here).
    entry.seq = reply.seq();
    entry.version = reply.version();
    entry.incarnation = reply.incarnation();
    entry.members.assign(std::move(reply).take_members());
  }
  return entry.members.members();
}

Task<Result<std::vector<ObjectRef>>> RepositoryClient::read_all(
    CollectionId id) {
  const auto attempt = [this, id] { return read_all_attempt(id); };
  return retry_wrong_epoch(id, attempt);
}

Task<Result<std::vector<ObjectRef>>> RepositoryClient::read_all_attempt(
    CollectionId id) {
  const CollectionMeta& meta = resolve(id);
  const std::size_t fragments = meta.fragment_count();
  Simulator& sim = repo_.sim();
  const SimTime start = sim.now();
  ++read_stats_.read_alls;
  metrics_.add("store.client.read_alls");
  last_read_full_ = 0;
  last_read_delta_ = 0;

  // Scatter: one worker per fragment, every per-fragment RPC (or quorum
  // sub-scatter, spawned from inside its fragment's worker) in flight at
  // once, so whole-set latency is the max of the fragment reads instead of
  // their sum.
  Scatter<Result<msg::DeltaReply>> scatter{sim};
  std::vector<std::optional<Result<msg::DeltaReply>>> slots(fragments);
  // Which host answers each delta-path fragment; invalid() marks fragments
  // read without the cache (full-only policies, unreachable fragments).
  std::vector<NodeId> delta_hosts(fragments, NodeId::invalid());
  for (std::size_t f = 0; f < fragments; ++f) {
    const FragmentMeta& frag = meta.fragments()[f];
    if (options_.read_policy == ReadPolicy::kQuorum) {
      auto read = quorum_snapshot(repo_.net(), node_, fragment_hosts(frag),
                                  methods_.snapshot, id, options_.quorum,
                                  options_.rpc_timeout);
      scatter.spawn(f, as_delta(std::move(read)));
      continue;
    }
    const auto host = pick_read_host(frag);
    if (!host) {
      slots[f] = Failure{FailureKind::kPartitioned,
                         "no reachable host for fragment"};
      continue;
    }
    if (!options_.delta_reads) {
      auto read = call<msg::SnapshotReply>(*host, methods_.snapshot,
                                           msg::SnapshotRequest{id});
      scatter.spawn(f, as_delta(std::move(read)));
      continue;
    }
    delta_hosts[f] = *host;
    const auto it = delta_cache_.find(CacheKey{id, f, *host});
    const bool cached = it != delta_cache_.end();
    const std::uint64_t since = cached ? it->second.seq : 0;
    const std::uint64_t incarnation = cached ? it->second.incarnation : 0;
    auto read = call<msg::DeltaReply>(
        *host, methods_.read_delta, msg::DeltaRequest{id, since, incarnation});
    scatter.spawn(f, std::move(read));
  }
  co_await scatter.gather(slots);

  // Deterministic assembly in fragment order. On failure, report the
  // lowest-index failing fragment (what the serial path reported) — after
  // the cache has absorbed whatever succeeded.
  std::vector<ObjectRef> members;
  std::optional<Failure> first_failure;
  for (std::size_t f = 0; f < fragments; ++f) {
    Result<msg::DeltaReply>& slot = *slots[f];
    if (!slot) {
      if (!first_failure) first_failure = std::move(slot).error();
      continue;
    }
    count_fragment_read(slot.value(), delta_hosts[f].valid());
    if (delta_hosts[f].valid()) {
      const std::vector<ObjectRef>& part = absorb_delta(
          CacheKey{id, f, delta_hosts[f]}, std::move(slot).value());
      members.insert(members.end(), part.begin(), part.end());
    } else {
      std::vector<ObjectRef> part = std::move(slot).value().take_members();
      members.insert(members.end(), part.begin(), part.end());
      VectorPool<ObjectRef>::release(std::move(part));
    }
  }
  read_stats_.read_all_time = read_stats_.read_all_time + (sim.now() - start);
  metrics_.record("store.client.read_all_latency_ns", sim.now() - start);
  if (first_failure) co_return std::move(*first_failure);
  co_return members;
}

Task<Result<std::vector<ObjectRef>>> RepositoryClient::snapshot_atomic(
    CollectionId id, std::function<void()> on_cut) {
  const SimTime start = repo_.sim().now();
  metrics_.add("store.client.snapshots_atomic");
  auto frozen = co_await freeze_all(id);
  if (!frozen) co_return std::move(frozen).error();
  // Read the primaries directly: they are frozen, so the union of fragment
  // reads is a consistent cut of the whole collection.
  std::vector<ObjectRef> members;
  std::optional<Failure> failure;
  for (const FragmentMeta& frag : resolve(id).fragments()) {
    auto reply = co_await call<msg::SnapshotReply>(
        frag.primary(), methods_.snapshot, msg::SnapshotRequest{id});
    if (!reply) {
      failure = std::move(reply).error();
      break;
    }
    auto part = std::move(reply).value().take_members();
    members.insert(members.end(), part.begin(), part.end());
  }
  // A complete cut with every fragment still frozen: this is the instant
  // the snapshot's value is the set's value.
  if (!failure && on_cut) on_cut();
  co_await unfreeze_all(id);
  metrics_.record("store.client.snapshot_atomic_latency_ns",
                  repo_.sim().now() - start);
  if (failure) co_return std::move(*failure);
  co_return members;
}

Task<Result<std::uint64_t>> RepositoryClient::total_size(CollectionId id) {
  // Folded onto the membership read path: one parallel fan-out (delta-cached
  // when enabled) instead of a second, serial per-fragment RPC loop.
  Result<std::vector<ObjectRef>> members = co_await read_all(id);
  if (!members) co_return std::move(members).error();
  co_return static_cast<std::uint64_t>(members.value().size());
}

Task<Result<bool>> RepositoryClient::mutate(CollectionId id, ObjectRef ref,
                                            msg::MembershipRequest::Op op) {
  const CollectionMeta& meta = resolve(id);
  if (meta.mode() != ReplicationMode::kOrSet) {
    const auto attempt = [this, id, ref, op] {
      return mutate_at_primary(id, ref, op);
    };
    co_return co_await retry_wrong_epoch(id, attempt);
  }
  // Multi-master fragment: any single reachable host commits the write
  // (anti-entropy converges the rest), so try hosts nearest-first, ties by
  // raw id, and a partition only blocks a client cut off from *every* host
  // — the availability the mode exists to buy (DESIGN.md decision 16).
  const Topology& topo = repo_.net().topology();
  std::vector<std::pair<Duration, NodeId>> hosts;
  for_each_host(meta.fragments()[meta.fragment_of(ref)], [&](NodeId host) {
    const auto latency = topo.path_latency(node_, host);
    if (latency) hosts.emplace_back(*latency, host);
  });
  std::sort(hosts.begin(), hosts.end());
  if (hosts.empty()) {
    co_return Failure{FailureKind::kPartitioned,
                      "no reachable host for fragment"};
  }
  for (std::size_t i = 0;; ++i) {
    auto reply = co_await call<msg::MembershipReply>(
        hosts[i].second, methods_.membership,
        msg::MembershipRequest{id, ref, op});
    if (reply) co_return reply.value().changed();
    if (i + 1 == hosts.size()) co_return std::move(reply).error();
    metrics_.add("store.client.orset_write_failovers");
  }
}

Task<Result<bool>> RepositoryClient::mutate_at_primary(
    CollectionId id, ObjectRef ref, msg::MembershipRequest::Op op) {
  const CollectionMeta& meta = resolve(id);
  const NodeId primary = meta.fragments()[meta.fragment_of(ref)].primary();
  auto reply = co_await call<msg::MembershipReply>(
      primary, methods_.membership, msg::MembershipRequest{id, ref, op});
  if (!reply) co_return std::move(reply).error();
  co_return reply.value().changed();
}

Task<std::vector<Result<VersionedValue>>> RepositoryClient::fetch_many(
    std::vector<ObjectRef> refs) {
  // Group the refs by home node, preserving each group's request order.
  std::vector<std::vector<std::size_t>> groups;  // group -> refs index
  std::unordered_map<NodeId, std::size_t> group_of;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const auto [it, inserted] =
        group_of.try_emplace(refs[i].home(), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // Scatter one batched RPC per home node; all nodes proceed in parallel.
  Scatter<Result<msg::FetchBatchReply>> scatter{repo_.sim()};
  metrics_.add("store.client.fetch_manys");
  metrics_.add("store.client.fetch_batch_rpcs", groups.size());
  metrics_.record_value("store.client.fetch_many_size",
                        static_cast<std::int64_t>(refs.size()));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<ObjectId> ids;
    ids.reserve(groups[g].size());
    for (const std::size_t i : groups[g]) ids.push_back(refs[i].id());
    auto batch = call<msg::FetchBatchReply>(
        refs[groups[g].front()].home(), methods_.fetch_batch,
        msg::FetchBatchRequest{std::move(ids)});
    scatter.spawn(g, std::move(batch));
  }
  std::vector<std::optional<Result<msg::FetchBatchReply>>> replies(
      groups.size());
  co_await scatter.gather(replies);

  // Spread each node's reply back over its refs (every ref is in exactly one
  // group, so each placeholder below is overwritten).
  std::vector<Result<VersionedValue>> out(refs.size(), Failure{});
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Result<msg::FetchBatchReply>& reply = *replies[g];
    const std::vector<std::size_t>& indices = groups[g];
    if (!reply) {
      // Transport failure: every ref homed at this node shares it.
      for (const std::size_t i : indices) out[i] = reply.error();
      continue;
    }
    auto results = std::move(reply).value().take_results();
    assert(results.size() == indices.size() &&
           "fetch_batch reply shape mismatch");
    for (std::size_t j = 0; j < indices.size(); ++j) {
      out[indices[j]] = std::move(results[j]);
    }
    VectorPool<Result<VersionedValue>>::release(std::move(results));
  }
  co_return out;
}

Task<Result<void>> RepositoryClient::set_locks(CollectionId id, Lock lock,
                                               bool take) {
  const CollectionMeta& meta = resolve(id);
  // Freezes are taken in canonical (ascending node id) order, which avoids
  // deadlock between clients freezing the same fragments concurrently. Pins
  // never block, so they and every release go in fragment order, each
  // primary read from the placement when its turn comes.
  std::vector<NodeId> ascending;
  if (lock == Lock::kFreeze && take) {
    ascending.reserve(meta.fragment_count());
    for (const FragmentMeta& frag : meta.fragments()) {
      ascending.push_back(frag.primary());
    }
    std::sort(ascending.begin(), ascending.end());
  }
  // Takes (`hold`) or releases the lock at the i-th primary in that order.
  const auto send = [&](std::size_t i, bool hold) {
    const NodeId primary =
        ascending.empty() ? meta.fragments()[i].primary() : ascending[i];
    if (lock == Lock::kPin) {
      return call<bool>(primary, methods_.pin, msg::PinRequest{id, hold});
    }
    return call<bool>(primary, methods_.freeze,
                      msg::FreezeRequest{id, token_, hold});
  };
  for (std::size_t i = 0; i < meta.fragment_count(); ++i) {
    Result<bool> reply = co_await send(i, take);
    // Releases are best effort: the server's freeze lease is the backstop.
    if (reply || !take) continue;
    // Roll back what we already hold, in the same order, then report.
    for (std::size_t j = 0; j < i; ++j) (void)co_await send(j, false);
    co_return std::move(reply).error();
  }
  co_return Ok();
}

}  // namespace weakset
