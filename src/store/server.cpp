#include "store/server.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <optional>
#include <utility>

#include "store/messages.hpp"
#include "util/log.hpp"
#include "util/pool.hpp"

namespace weakset {
namespace {

// Durable object names on the per-server SimDisk.
constexpr const char kWalFile[] = "wal";
constexpr const char kCheckpointFile[] = "checkpoint";

wal::WalRecord to_wal_record(CollectionId id, const CollectionOp& op,
                             std::uint64_t incarnation) {
  const bool remove = op.kind() == CollectionOp::Kind::kRemove;
  return wal::WalRecord{
      .collection = id.raw(),
      .kind = remove ? wal::WalRecord::kRemove : wal::WalRecord::kAdd,
      .object = op.ref().id().raw(),
      .home = op.ref().home().raw(),
      .seq = op.seq(),
      .incarnation = incarnation,
  };
}

CollectionOp to_collection_op(const wal::WalRecord& rec) {
  return CollectionOp{rec.kind == wal::WalRecord::kRemove
                          ? CollectionOp::Kind::kRemove
                          : CollectionOp::Kind::kAdd,
                      ObjectRef{ObjectId{rec.object}, NodeId{rec.home}},
                      rec.seq};
}

/// Migration marker record: `object` carries the peer node, `seq` the
/// directory epoch the marker belongs to (see wal.hpp).
wal::WalRecord migration_record(std::uint8_t kind, CollectionId id, NodeId peer,
                                std::uint64_t directory_epoch,
                                std::uint64_t incarnation) {
  return wal::WalRecord{
      .collection = id.raw(),
      .kind = kind,
      .object = peer.raw(),
      .seq = directory_epoch,
      .incarnation = incarnation,
  };
}

/// OR-Set dot-op record (ReplicationMode::kOrSet): `seq` carries the dot
/// counter and `origin` the minting replica — together the unique tag.
wal::WalRecord orset_wal_record(CollectionId id, const crdt::DotOp& op,
                                std::uint64_t incarnation) {
  const bool kill = op.kind() == crdt::DotOp::Kind::kKill;
  return wal::WalRecord{
      .collection = id.raw(),
      .kind = kill ? wal::WalRecord::kOrSetKill : wal::WalRecord::kOrSetInsert,
      .object = op.element().id().raw(),
      .home = op.element().home().raw(),
      .seq = op.dot().counter(),
      .incarnation = incarnation,
      .origin = op.dot().origin(),
  };
}

crdt::DotOp dot_op(bool kill, ObjectRef element, std::uint64_t origin,
                   std::uint64_t counter) {
  return crdt::DotOp{
      kill ? crdt::DotOp::Kind::kKill : crdt::DotOp::Kind::kInsert, element,
      crdt::Dot{origin, counter}};
}

msg::OrSetWireOp to_wire(const crdt::DotOp& op) {
  return msg::OrSetWireOp{op.kind() == crdt::DotOp::Kind::kKill
                              ? msg::OrSetWireOp::kKill
                              : msg::OrSetWireOp::kInsert,
                          op.element(), op.dot().origin(), op.dot().counter()};
}

crdt::DotOp from_wire(const msg::OrSetWireOp& op) {
  return dot_op(op.kind() == msg::OrSetWireOp::kKill, op.element(),
                op.origin(), op.counter());
}

wal::CollectionImage image_of(CollectionId id, const CollectionState& state) {
  wal::CollectionImage coll;
  coll.collection = id.raw();
  coll.incarnation = state.incarnation();
  coll.version = state.version();
  coll.last_seq = state.last_seq();
  coll.applied_seq = state.applied_seq();
  coll.members.reserve(state.size());
  for (const ObjectRef ref : state.members()) {
    coll.members.emplace_back(ref.id().raw(), ref.home().raw());
  }
  return coll;
}

/// Reinstates a checkpointed or streamed image: members, cursors and
/// incarnation verbatim (the op log restarts empty).
void restore_image(CollectionState& state, const wal::CollectionImage& image) {
  std::vector<ObjectRef> members;
  members.reserve(image.members.size());
  for (const auto& [object, home] : image.members) {
    members.emplace_back(ObjectId{object}, NodeId{home});
  }
  state.restore(std::move(members), image.version, image.last_seq,
                image.applied_seq, image.incarnation);
}

Failure wrong_epoch(std::uint64_t directory_epoch) {
  return Failure{FailureKind::kWrongEpoch, std::to_string(directory_epoch)};
}

Failure recovering() {
  return Failure{FailureKind::kUnreachable, "node recovering"};
}

Failure node_crashed() {
  return Failure{FailureKind::kNodeCrashed, "node crashed"};
}

Failure not_hosted() {
  return Failure{FailureKind::kNotFound, "collection not hosted"};
}

}  // namespace

// ---------------------------------------------------------------------------
// Anti-entropy (DESIGN.md decisions 9 and 16): one pull driver, push driver
// and serving path over each fragment's BoundedLog. A merge policy supplies
// every difference between the modes: op and message types, snapshot form,
// apply rule, stream check, RPC names, pull timeout and metric names.

/// Home-primary replication: replicas apply the contiguous prefix of the
/// primary's CollectionOp stream, or install a whole-membership snapshot when
/// their cursor — the CollectionState's (applied_seq, incarnation), which
/// checkpoints carry — falls off the primary's log or names another stream.
struct StoreServer::Contiguous {
  using Op = CollectionOp;
  using PullReply = msg::PullReply;
  using SyncRequest = msg::SyncRequest;
  static constexpr const char* kPullMethod = "coll.pull";
  static constexpr const char* kSyncMethod = "coll.sync";
  static constexpr const char* kPullRounds = "store.replica.pull_rounds";
  static constexpr const char* kPullFailures = "store.replica.pull_failures";
  static constexpr const char* kPullApplied = "store.replica.pull_ops_applied";
  static constexpr const char* kPushes = "store.server.pushes";
  static constexpr const char* kPushSyncs = "store.replica.push_syncs";
  static constexpr const char* kPushApplied = "store.replica.push_ops_applied";
  static constexpr const char* kPullsServed = "store.server.pulls_served";
  static constexpr const char* kOpsShipped = "store.server.pull_ops_shipped";

  static const BoundedLog<Op>& log(const Hosted& entry) {
    return entry.state.log();
  }
  static Cursor cursor(const Hosted& entry, NodeId /*peer*/) {
    return Cursor{entry.state.applied_seq(), entry.state.incarnation()};
  }
  static void advance(Hosted&, NodeId, const PullReply&) {}
  static constexpr int kPullTimeoutIntervals = 0;  // the RPC default
  static ObjectRef ref(const Op& op) { return op.ref(); }
  static bool hosts(const Hosted& /*entry*/) { return true; }
  /// A sync batch or ack on another incarnation's stream (amnesia on either
  /// side) does not continue ours: the batch is not applied, and the pusher
  /// gives up until pull anti-entropy snapshot-resyncs the replica.
  template <class Message>
  static bool same_stream(const Hosted& entry, const Message& message) {
    return message.incarnation() == entry.state.incarnation();
  }
  /// Applies the contiguous prefix past applied_seq. A gap (a push
  /// overtaken by loss, or a racing pull) stops it: the pusher or the next
  /// pull resends from applied_seq.
  static void apply(StoreServer& server, Hosted& entry,
                    const std::vector<Op>& ops, const char* applied) {
    for (const CollectionOp& op : ops) {
      if (op.seq() <= entry.state.applied_seq()) continue;
      if (op.seq() != entry.state.applied_seq() + 1) break;
      entry.state.apply(op);
      server.metrics_.add(applied);
    }
  }

  /// Serving side: members and cursor are read after the ship-cost delay,
  /// at the instant the reply leaves.
  static Task<Result<Payload>> serve_snapshot(StoreServer& server,
                                              CollectionId id,
                                              std::uint64_t epoch,
                                              const Hosted& entry) {
    Result<Hosted*> shipped = co_await server.ship(
        id, epoch, entry.state.size(), "store.server.pull_snapshots",
        "store.server.snapshot_members_shipped");
    if (!shipped) co_return std::move(shipped).error();
    const CollectionState& state = shipped.value()->state;
    co_return Payload{PullReply::snapshot(state.members(), state.version(),
                                          state.last_seq(),
                                          state.incarnation())};
  }
  static PullReply delta_reply(const Hosted& entry, std::vector<Op> ops) {
    return PullReply{std::move(ops), entry.state.incarnation()};
  }
  /// Puller side: install the membership wholesale and resume op by op
  /// from its seq. Nothing of it is in the WAL, so checkpoint soon: a crash
  /// must not set this replica all the way back.
  static void merge_snapshot(StoreServer& server, Hosted& entry,
                             PullReply& reply) {
    server.metrics_.add("store.replica.snapshot_installs");
    entry.state.install(std::move(reply).take_members(), reply.version(),
                        reply.seq());
    entry.state.set_incarnation(reply.incarnation());
    server.arm_checkpoint();
  }
  static SyncRequest sync_request(CollectionId id, const Hosted& entry,
                                  std::vector<Op> ops,
                                  std::uint64_t /*after_seq*/) {
    return SyncRequest{id, std::move(ops), entry.state.incarnation()};
  }
  static msg::SyncReply ack(const Hosted& entry, const SyncRequest& /*req*/) {
    return msg::SyncReply{entry.state.applied_seq(),
                          entry.state.incarnation()};
  }
};

/// OR-Set replication: each host logs only its *local* dot ops and pulls
/// every peer's log with a cursor of its own. Dot ops are idempotent, so they
/// apply in any order; a cursor the peer cannot serve gets its whole state,
/// merged with OrSet::join.
struct StoreServer::DotOps {
  using Op = msg::OrSetWireOp;
  using PullReply = msg::OrSetPullReply;
  using SyncRequest = msg::OrSetSyncRequest;
  static constexpr const char* kPullMethod = "orset.pull";
  static constexpr const char* kSyncMethod = "orset.sync";
  static constexpr const char* kPullRounds = "store.orset.pull_rounds";
  static constexpr const char* kPullFailures = "store.orset.pull_failures";
  static constexpr const char* kPullApplied = "store.orset.pull_ops_applied";
  static constexpr const char* kPushes = "store.orset.pushes";
  static constexpr const char* kPushSyncs = "store.orset.push_syncs";
  static constexpr const char* kPushApplied = "store.orset.push_ops_applied";
  static constexpr const char* kPullsServed = "store.orset.pulls_served";
  static constexpr const char* kOpsShipped = "store.orset.pull_entries_shipped";

  static const BoundedLog<Op>& log(const Hosted& entry) { return entry.dots; }
  static Cursor cursor(Hosted& entry, NodeId peer) {
    return entry.cursors[peer];
  }
  static void advance(Hosted& entry, NodeId peer, const PullReply& reply) {
    entry.cursors[peer] = Cursor{reply.end_seq(), reply.incarnation()};
  }
  /// Bounded: a partition cutting the link mid-pull drops the message, and
  /// fast-fail only covers dead-at-send paths — without this the loop would
  /// sit out the RPC default. 4x the interval leaves room for ship cost.
  static constexpr int kPullTimeoutIntervals = 4;
  static ObjectRef ref(const Op& op) { return op.element(); }
  /// Only a fragment created as an OR-Set holds dots.
  static bool hosts(const Hosted& entry) { return entry.orset != nullptr; }
  /// Dot ops apply anywhere, whatever stream they came from.
  template <class Message>
  static bool same_stream(const Hosted& /*entry*/, const Message& /*m*/) {
    return true;
  }
  static void apply(StoreServer& server, Hosted& entry,
                    const std::vector<Op>& ops, const char* applied) {
    for (const msg::OrSetWireOp& wire : ops) {
      const crdt::DotOp op = from_wire(wire);
      if (entry.orset->apply(op)) {
        server.orset_wal_append(entry, op);
        server.metrics_.add(applied);
      }
    }
  }

  /// Serving side: every live (element, dot) plus the dot context, captured
  /// before the ship-cost delay.
  static Task<Result<Payload>> serve_snapshot(StoreServer& server,
                                              CollectionId id,
                                              std::uint64_t epoch,
                                              const Hosted& entry) {
    const crdt::OrSet& set = *entry.orset;
    std::vector<Op> live;
    const std::vector<crdt::DotOp> exported = set.export_live();
    live.reserve(exported.size());
    for (const crdt::DotOp& op : exported) live.push_back(to_wire(op));
    std::vector<std::pair<std::uint64_t, std::uint64_t>> versions(
        set.context().vector().begin(), set.context().vector().end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cloud;
    cloud.reserve(set.context().cloud().size());
    for (const crdt::Dot dot : set.context().cloud()) {
      cloud.emplace_back(dot.origin(), dot.counter());
    }
    PullReply reply = PullReply::snapshot(
        std::move(live), std::move(versions), std::move(cloud),
        entry.dots.last_seq(), entry.state.incarnation());
    Result<Hosted*> shipped = co_await server.ship(
        id, epoch, reply.entry_count(), "store.orset.pull_snapshots",
        "store.orset.pull_entries_shipped");
    if (!shipped) co_return std::move(shipped).error();
    co_return Payload{std::move(reply)};
  }
  static PullReply delta_reply(const Hosted& entry, std::vector<Op> ops) {
    return PullReply::delta(std::move(ops), entry.dots.last_seq(),
                            entry.state.incarnation());
  }
  /// Puller side: join() expresses every state change as a dot op, which is
  /// WALed like any remote delivery.
  static void merge_snapshot(StoreServer& server, Hosted& entry,
                             PullReply& reply) {
    server.metrics_.add("store.orset.snapshot_joins");
    const crdt::DotContext context = crdt::DotContext::from_parts(
        reply.context_vector(), reply.context_cloud());
    std::vector<crdt::DotOp> live;
    live.reserve(reply.ops().size());
    for (const msg::OrSetWireOp& op : reply.ops()) {
      live.push_back(from_wire(op));
    }
    const std::vector<crdt::DotOp> applied = entry.orset->join(context, live);
    for (const crdt::DotOp& op : applied) server.orset_wal_append(entry, op);
    server.metrics_.add(kPullApplied, applied.size());
  }

  /// Push side: the seq range exists only to drive the pusher's ack cursor;
  /// the receiver applies everything and acks the last seq the batch
  /// covered (start_seq - 1 for an empty batch — nothing new).
  static SyncRequest sync_request(CollectionId id, const Hosted& /*entry*/,
                                  std::vector<Op> ops,
                                  std::uint64_t after_seq) {
    return SyncRequest{id, std::move(ops), after_seq + 1};
  }
  static msg::SyncReply ack(const Hosted& entry, const SyncRequest& req) {
    const std::uint64_t acked =
        req.start_seq() + req.ops().size() -
        (req.start_seq() == 0 && req.ops().empty() ? 0 : 1);
    return msg::SyncReply{acked, entry.state.incarnation()};
  }
};

template <class P>
Task<void> StoreServer::pull_loop(CollectionId id) {
  std::optional<Duration> timeout;  // unset: the RPC default
  if (P::kPullTimeoutIntervals > 0) {
    timeout = options_.pull_interval * P::kPullTimeoutIntervals;
  }
  for (;;) {
    co_await net_.sim().delay(options_.pull_interval);
    if (stopping_) co_return;
    if (!serving_) continue;  // recovering: resume pulling afterwards
    Hosted* entry = find_entry(id);
    if (entry == nullptr) co_return;  // unhosted; stop the daemon
    // Peers are only ever appended (add_orset_peer may run under a co_await
    // below): each round visits the ones known when it starts.
    const std::size_t peers = entry->pull_from.size();
    for (std::size_t i = 0; i < peers; ++i) {
      const NodeId peer = entry->pull_from[i];
      const Cursor cursor = P::cursor(*entry, peer);
      metrics_.add(P::kPullRounds);
      const std::uint64_t epoch = epoch_;
      auto reply = co_await net_.call_typed<typename P::PullReply>(
          node_, peer, P::kPullMethod,
          msg::PullRequest{id, cursor.after_seq, cursor.incarnation},
          timeout);
      if (epoch != epoch_) break;  // crashed meanwhile: this round is stale
      if (!reply) {
        metrics_.add(P::kPullFailures);
        continue;  // peer unreachable (partition): retry next round
      }
      typename P::PullReply& r = reply.value();
      if (r.is_snapshot()) {
        P::merge_snapshot(*this, *entry, r);
      } else {
        Result<Hosted*> applied =
            co_await apply_ops<P>(id, epoch, r.ops(), P::kPullApplied);
        if (!applied) break;
        entry = applied.value();
        VectorPool<typename P::Op>::release(std::move(r).take_ops());
      }
      P::advance(*entry, peer, r);
    }
  }
}

template <class P>
void StoreServer::trigger_pushes(CollectionId id) {
  if (!options_.push_replication || !serving_) return;
  Hosted& entry = hosted(id);
  for (Hosted::PushTarget& target : entry.push_targets) {
    if (!target.in_flight && target.acked_seq < P::log(entry).last_seq()) {
      target.in_flight = true;
      net_.sim().spawn(push_to<P>(id, target));
    }
  }
}

template <class P>
Task<void> StoreServer::push_to(CollectionId id, Hosted::PushTarget& target) {
  Hosted& entry = hosted(id);
  const BoundedLog<typename P::Op>& log = P::log(entry);
  const std::uint64_t epoch = epoch_;
  while (!stopping_ && target.acked_seq < log.last_seq()) {
    // Below the retained window: the target's next pull snapshots instead.
    if (!log.can_serve_since(target.acked_seq)) break;
    const std::uint64_t before = target.acked_seq;
    metrics_.add(P::kPushes);
    std::vector<typename P::Op> ops = VectorPool<typename P::Op>::acquire();
    log.slice(before, ops);
    auto reply = co_await net_.call_typed<msg::SyncReply>(
        node_, target.node, P::kSyncMethod,
        P::sync_request(id, entry, std::move(ops), before));
    // Amnesia crash during the push: the wipe already reset the target's
    // cursor and in_flight marker — touch nothing.
    if (epoch != epoch_) co_return;
    // Unreachable, or acked on another stream: give up until the next
    // mutation; pull anti-entropy repairs.
    if (!reply || !P::same_stream(entry, reply.value())) break;
    target.acked_seq = reply.value().applied_seq();
    if (target.acked_seq <= before) break;  // not advancing (gap?)
  }
  target.in_flight = false;
}

template <class P>
Task<Result<StoreServer::Hosted*>> StoreServer::apply_ops(
    CollectionId id, std::uint64_t epoch,
    const std::vector<typename P::Op>& ops, const char* applied) {
  const Hosted* backed = find_entry(id);
  if (backed != nullptr && backed->backing != nullptr && !ops.empty()) {
    // Block engine: page in the buckets the ops touch before applying.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> refs;
    refs.reserve(ops.size());
    for (const typename P::Op& op : ops) {
      refs.emplace_back(P::ref(op).id().raw(), P::ref(op).home().raw());
    }
    co_await engine_->fault_many(backed->backing->raw_id(), std::move(refs));
  }
  Result<Hosted*> entry = resolve(id, epoch, /*retired_fails=*/true);
  if (entry) P::apply(*this, *entry.value(), ops, applied);
  co_return entry;
}

template <class P>
Task<Result<Payload>> StoreServer::handle_pull(NodeId /*from*/,
                                                Payload request) {
  const auto req = payload_cast<msg::PullRequest>(std::move(request));
  auto guarded = co_await guard(req.id(), /*admit=*/false);
  if (!guarded) co_return std::move(guarded).error();
  const std::uint64_t epoch = guarded.value().epoch;
  const Hosted& entry = *guarded.value().entry;
  if (!P::hosts(entry)) co_return not_hosted();
  metrics_.add(P::kPullsServed);
  // A cursor from another incarnation (amnesia on either side) or outside
  // the retained window cannot catch up op by op: ship the whole state.
  const BoundedLog<typename P::Op>& log = P::log(entry);
  if (req.incarnation() != entry.state.incarnation() ||
      !log.can_serve_since(req.after_seq())) {
    co_return co_await P::serve_snapshot(*this, req.id(), epoch, entry);
  }
  std::vector<typename P::Op> ops = VectorPool<typename P::Op>::acquire();
  log.slice(req.after_seq(), ops);
  typename P::PullReply reply = P::delta_reply(entry, std::move(ops));
  Result<Hosted*> shipped = co_await ship(
      req.id(), epoch, reply.ops().size(), nullptr, P::kOpsShipped);
  if (!shipped) co_return std::move(shipped).error();
  co_return Payload{std::move(reply)};
}

template <class P>
Task<Result<Payload>> StoreServer::handle_sync(NodeId /*from*/,
                                                Payload request) {
  auto req = payload_cast<typename P::SyncRequest>(std::move(request));
  auto guarded = co_await guard(req.id(), /*admit=*/false);
  if (!guarded) co_return std::move(guarded).error();
  Hosted* entry = guarded.value().entry;
  if (!P::hosts(*entry)) co_return not_hosted();
  metrics_.add(P::kPushSyncs);
  // A batch on another stream is not applied: the ack carries our cursor.
  if (P::same_stream(*entry, req)) {
    Result<Hosted*> applied = co_await apply_ops<P>(
        req.id(), guarded.value().epoch, req.ops(), P::kPushApplied);
    if (!applied) co_return std::move(applied).error();
    entry = applied.value();
  }
  const msg::SyncReply ack = P::ack(*entry, req);
  VectorPool<typename P::Op>::release(std::move(req).take_ops());
  co_return Payload{ack};
}

void StoreServer::orset_wal_append(Hosted& entry, const crdt::DotOp& op) {
  if (!options_.durability.enabled || wal_suspended_) return;
  // No arm_checkpoint(): checkpoints cannot capture OR-Set state (the dot
  // context has no image form yet), so the WAL is the fragment's only
  // durable history and is never truncated while it is hosted here.
  last_wal_index_ = wal_->append(
      orset_wal_record(entry.state.id(), op, entry.state.incarnation()));
}

bool StoreServer::write_member(Hosted& entry, bool add, ObjectRef ref) {
  if (entry.orset == nullptr) {
    return add ? entry.state.add(ref) : entry.state.remove(ref);
  }
  // OR-Set multi-master write: apply locally (minting or killing dots) and
  // log the resulting ops for anti-entropy — no coordination with peers,
  // which is exactly why the write survives a partition.
  const std::vector<crdt::DotOp> ops =
      add ? entry.orset->add(ref) : entry.orset->remove(ref);
  for (const crdt::DotOp& op : ops) {
    entry.dots.append(to_wire(op));
    orset_wal_append(entry, op);
  }
  return !ops.empty();
}

StoreServer::StoreServer(RpcNetwork& net, NodeId node,
                         StoreServerOptions options)
    : net_(net),
      node_(node),
      options_(options),
      metrics_(obs::sink(options.metrics)),
      admission_(net.sim(), options.admission, metrics_) {
  if (options_.durability.enabled) {
    SimDiskOptions disk_options = options_.durability.disk;
    // Every server draws its own crash lottery: fork the configured seed by
    // node id so same-seed runs stay byte-identical but servers differ.
    disk_options.seed ^= 0x9e3779b97f4a7c15ull * (node_.raw() + 1);
    disk_ = std::make_unique<SimDisk>(net_.sim(), disk_options);
    wal_ = std::make_unique<wal::WalWriter>(net_.sim(), *disk_, kWalFile,
                                            options_.durability.fsync_interval,
                                            &metrics_);
    if (options_.durability.block.enabled) {
      engine_ = std::make_unique<block::BlockEngine>(
          net_.sim(), *disk_, options_.durability.block, metrics_);
      if (options_.durability.block.compaction_interval > Duration::zero()) {
        net_.sim().spawn(compaction_loop());
      }
    }
  }
  register_handlers();
}

void StoreServer::register_handlers() {
  // All handlers are registered up front (before any traffic), so the
  // RpcNetwork handler table never rehashes under a suspended coroutine.
  using Handler = Task<Result<Payload>> (StoreServer::*)(NodeId, Payload);
  const std::pair<const char*, Handler> handlers[] = {
      {"store.fetch", &StoreServer::handle_fetch},
      {"store.fetch_batch", &StoreServer::handle_fetch_batch},
      {"store.put", &StoreServer::handle_put},
      {"coll.snapshot", &StoreServer::handle_snapshot},
      {"coll.read_delta", &StoreServer::handle_read_delta},
      {"coll.membership", &StoreServer::handle_membership},
      {"coll.size", &StoreServer::handle_size},
      {"coll.freeze", &StoreServer::handle_freeze},
      {"coll.pin", &StoreServer::handle_pin},
      {Contiguous::kPullMethod, &StoreServer::handle_pull<Contiguous>},
      {DotOps::kPullMethod, &StoreServer::handle_pull<DotOps>},
      {DotOps::kSyncMethod, &StoreServer::handle_sync<DotOps>},
      {Contiguous::kSyncMethod, &StoreServer::handle_sync<Contiguous>},
  };
  for (const auto& [method, handler] : handlers) {
    net_.register_handler(
        node_, method, [this, handler](NodeId from, Payload request) {
          return (this->*handler)(from, std::move(request));
        });
  }
}

StoreServer::Hosted& StoreServer::emplace_entry(CollectionId id) {
  auto [it, inserted] = collections_.emplace(id, std::make_unique<Hosted>(id));
  assert(inserted && "collection already hosted here");
  it->second->unfrozen = std::make_unique<Gate>(net_.sim(), /*open=*/true);
  return *it->second;
}

CollectionState& StoreServer::host_primary(CollectionId id) {
  Hosted& entry = emplace_entry(id);
  entry.state.set_log_cap(options_.membership_log_cap);
  if (options_.durability.enabled) {
    // WAL hook: every logged op (mutation, replica apply) is appended.
    CollectionState* state = &entry.state;
    state->set_op_observer([this, state](const CollectionOp& op) {
      if (wal_suspended_) return;  // recovery replay: already on disk
      last_wal_index_ =
          wal_->append(to_wal_record(state->id(), op, state->incarnation()));
      arm_checkpoint();
    });
  }
  if (engine_ != nullptr) {
    // Block engine: the fragment's members live in its paged buckets.
    entry.backing = std::make_unique<BlockBacking>(*engine_, id);
    entry.state.set_backing(entry.backing.get());
  }
  return entry.state;
}

CollectionState& StoreServer::host_replica(CollectionId id, NodeId primary) {
  CollectionState& state = host_primary(id);
  Hosted& entry = hosted(id);
  entry.primary = primary;
  entry.pull_from.push_back(primary);
  net_.sim().spawn(pull_loop<Contiguous>(id));
  return state;
}

crdt::OrSet& StoreServer::host_orset(CollectionId id) {
  // Every OR-Set host is write-accepting: primary stays invalid, so crash
  // recovery treats the fragment as locally authoritative. No op observer:
  // OR-Set WAL appends are explicit, as remote dot ops are logged too.
  Hosted& entry = emplace_entry(id);
  entry.orset = std::make_unique<crdt::OrSet>(id);
  entry.orset->set_origin(
      crdt::make_origin(node_.raw(), entry.state.incarnation()));
  entry.dots.set_cap(options_.membership_log_cap);
  net_.sim().spawn(pull_loop<DotOps>(id));
  return *entry.orset;
}

void StoreServer::add_orset_peer(CollectionId id, NodeId peer) {
  Hosted& entry = hosted(id);
  assert(entry.orset != nullptr && "peer wiring requires OR-Set hosting");
  if (std::find(entry.pull_from.begin(), entry.pull_from.end(), peer) ==
      entry.pull_from.end()) {
    entry.pull_from.push_back(peer);
    if (options_.push_replication) entry.push_targets.emplace_back(peer);
  }
}

const crdt::OrSet* StoreServer::orset_state(CollectionId id) const {
  const Hosted* entry = find_entry(id);
  return entry == nullptr ? nullptr : entry->orset.get();
}

bool StoreServer::seed_orset_member(CollectionId id, ObjectRef ref) {
  Hosted& entry = hosted(id);
  assert(entry.orset != nullptr && "seeding requires OR-Set hosting");
  return write_member(entry, /*add=*/true, ref);
}

CollectionState* StoreServer::collection(CollectionId id) {
  Hosted* entry = find_entry(id);
  return entry == nullptr ? nullptr : &entry->state;
}

const CollectionState* StoreServer::collection(CollectionId id) const {
  const Hosted* entry = find_entry(id);
  return entry == nullptr ? nullptr : &entry->state;
}

StoreServer::Hosted& StoreServer::hosted(CollectionId id) {
  Hosted* entry = find_entry(id);
  assert(entry != nullptr);
  return *entry;
}

StoreServer::Hosted* StoreServer::find_entry(CollectionId id) const {
  const auto it = collections_.find(id);
  return it == collections_.end() ? nullptr : it->second.get();
}

Result<StoreServer::Hosted*> StoreServer::resolve(CollectionId id,
                                                  std::uint64_t epoch,
                                                  bool retired_fails) {
  if (epoch != epoch_) return node_crashed();
  Hosted* entry = find_entry(id);
  if (entry == nullptr) return not_hosted();
  if (retired_fails && entry->retired) return wrong_epoch(entry->retired_epoch);
  return entry;
}

Task<Result<StoreServer::Guarded>> StoreServer::guard(CollectionId id,
                                                      bool admit) {
  if (!serving_) co_return recovering();
  const std::uint64_t epoch = epoch_;
  AdmissionTicket ticket;
  if (admit && admission_.enabled()) {
    ticket = co_await admission_.admit(tenant_of(id));
    if (epoch != epoch_) co_return node_crashed();
    if (!ticket.admitted()) {
      co_return Failure{FailureKind::kOverloaded, "admission queue full"};
    }
  }
  co_await net_.sim().delay(options_.membership_latency);
  Result<Hosted*> entry = resolve(id, epoch, /*retired_fails=*/true);
  if (!entry) co_return std::move(entry).error();
  co_return Guarded{entry.value(), epoch, std::move(ticket)};
}

Task<Result<StoreServer::Hosted*>> StoreServer::ship(CollectionId id,
                                                     std::uint64_t epoch,
                                                     std::size_t entries,
                                                     const char* event,
                                                     const char* shipped) {
  const Duration cost =
      options_.membership_entry_cost * static_cast<std::int64_t>(entries);
  if (event != nullptr) metrics_.add(event);
  metrics_.add(shipped, entries);
  metrics_.add("store.server.ship_cost_ns",
               static_cast<std::uint64_t>(cost.count_nanos()));
  co_await net_.sim().delay(cost);
  co_return resolve(id, epoch, /*retired_fails=*/false);
}

// ---------------------------------------------------------------------------
// Live fragment migration (src/placement, DESIGN.md decision 12)

bool StoreServer::hosts_primary(CollectionId id) const {
  const Hosted* entry = find_entry(id);
  return entry != nullptr && !entry->primary.valid() && !entry->retired;
}

bool StoreServer::is_retired(CollectionId id) const {
  const Hosted* entry = find_entry(id);
  return entry != nullptr && entry->retired;
}

bool StoreServer::migration_blocked(CollectionId id) const {
  const Hosted* entry = find_entry(id);
  // OR-Set fragments are multi-master: there is no single authority to move,
  // so migration is meaningless (and permanently refused) for them.
  return entry == nullptr || entry->retired || entry->frozen_by != 0 ||
         entry->pin_count > 0 || !entry->deferred_removes.empty() ||
         entry->handoff_target.valid() || !entry->push_targets.empty() ||
         entry->orset != nullptr;
}

StoreServer::FragmentLoad StoreServer::fragment_load(CollectionId id) const {
  FragmentLoad load;
  const Hosted* entry = find_entry(id);
  if (entry == nullptr) return load;
  load.reads = entry->reads;
  load.ops = entry->ops;
  load.reads_by_node.assign(entry->reads_by_node.begin(),
                            entry->reads_by_node.end());
  return load;
}

wal::CollectionImage StoreServer::export_image(CollectionId id) const {
  const Hosted* entry = find_entry(id);
  assert(entry != nullptr && "exporting an unhosted fragment");
  return image_of(id, entry->state);
}

void StoreServer::log_migration_begin(CollectionId id, NodeId target) {
  if (!options_.durability.enabled) return;
  Hosted& entry = hosted(id);
  last_wal_index_ = wal_->append(
      migration_record(wal::WalRecord::kMigrationBegin, id, target,
                       /*directory_epoch=*/0, entry.state.incarnation()));
  arm_checkpoint();
}

void StoreServer::set_handoff(CollectionId id, NodeId target) {
  hosted(id).handoff_target = target;
}

void StoreServer::clear_handoff(CollectionId id) {
  if (Hosted* entry = find_entry(id)) {
    entry->handoff_target = NodeId::invalid();
  }
}

void StoreServer::retire_collection(CollectionId id, NodeId target,
                                    std::uint64_t directory_epoch) {
  Hosted& entry = hosted(id);
  assert(!entry.primary.valid() && "only fragment primaries migrate");
  entry.retired = true;
  entry.retired_epoch = directory_epoch;
  // Waiters on the freeze gate resume and hit the retired check; pins and
  // their deferred ghosts moved with the authority.
  release_locks(entry);
  if (options_.durability.enabled) {
    last_wal_index_ = wal_->append(
        migration_record(wal::WalRecord::kMigrationDone, id, target,
                         directory_epoch, entry.state.incarnation()));
    arm_checkpoint();  // the next checkpoint drops the tombstoned state
  }
  metrics_.add("placement.fragments_retired");
}

CollectionState& StoreServer::adopt_primary(CollectionId id,
                                            const wal::CollectionImage& image) {
  Hosted* entry = find_entry(id);
  if (entry == nullptr) {
    host_primary(id);
    entry = find_entry(id);
  }
  assert(!entry->primary.valid() && "cannot adopt over a replica");
  entry->retired = false;
  entry->retired_epoch = 0;
  entry->handoff_target = NodeId::invalid();
  // The adopted membership continues the source's op-sequence stream:
  // cursors and incarnation restore verbatim. Nothing goes through the WAL
  // (restore does not fire the op observer); the checkpoint the migration
  // engine writes right after this makes the adoption durable.
  restore_image(entry->state, image);
  metrics_.add("placement.fragments_adopted");
  return entry->state;
}

Task<bool> StoreServer::checkpoint_now() {
  if (!options_.durability.enabled) co_return true;
  co_return co_await write_checkpoint(epoch_);
}

// ---------------------------------------------------------------------------
// Handlers

Task<Result<Payload>> StoreServer::handle_fetch(NodeId /*from*/,
                                                 Payload request) {
  const auto req = payload_cast<msg::FetchRequest>(std::move(request));
  if (!serving_) co_return recovering();
  metrics_.add("store.server.fetches");
  co_await net_.sim().delay(options_.object_read_latency);
  const auto value = objects_.get(req.id());
  if (!value) {
    co_return Failure{FailureKind::kNotFound,
                      "object " + std::to_string(req.id().raw())};
  }
  co_return Payload{*value};
}

Task<Result<Payload>> StoreServer::handle_fetch_batch(NodeId /*from*/,
                                                       Payload request) {
  const auto req = payload_cast<msg::FetchBatchRequest>(std::move(request));
  if (!serving_) co_return recovering();
  metrics_.add("store.server.batch_fetches");
  metrics_.add("store.server.batch_objects", req.ids().size());
  metrics_.record_value("store.server.batch_size",
                        static_cast<std::int64_t>(req.ids().size()));
  // Overlapped disk reads: the first object pays the full read latency, each
  // further object only the incremental cost of another read in the queue.
  Duration cost = options_.object_read_latency;
  if (req.ids().size() > 1) {
    cost = cost + options_.batch_read_increment *
                      static_cast<std::int64_t>(req.ids().size() - 1);
  }
  co_await net_.sim().delay(cost);
  std::vector<Result<VersionedValue>> results =
      VectorPool<Result<VersionedValue>>::acquire();
  results.reserve(req.ids().size());
  for (const ObjectId id : req.ids()) {
    const auto value = objects_.get(id);
    if (value) {
      results.emplace_back(*value);
    } else {
      results.emplace_back(Failure{FailureKind::kNotFound,
                                   "object " + std::to_string(id.raw())});
    }
  }
  co_return Payload{msg::FetchBatchReply{std::move(results)}};
}

Task<Result<Payload>> StoreServer::handle_put(NodeId /*from*/,
                                               Payload request) {
  auto req = payload_cast<msg::PutRequest>(std::move(request));
  if (!serving_) co_return recovering();
  co_await net_.sim().delay(options_.object_write_latency);
  const ObjectId id = req.id();
  co_return Payload{objects_.put(id, std::move(req).take_data())};
}

Task<Result<Payload>> StoreServer::handle_snapshot(NodeId from,
                                                    Payload request) {
  const auto req = payload_cast<msg::SnapshotRequest>(std::move(request));
  auto guarded = co_await guard(req.id(), /*admit=*/true);
  if (!guarded) co_return std::move(guarded).error();
  Hosted* entry = guarded.value().entry;
  entry->count_read(from);
  // Shipping the whole membership costs per member — the cost delta reads
  // avoid. An OR-Set fragment serves this host's membership, which may lag
  // peers until anti-entropy quiesces: the trade the mode buys.
  Result<Hosted*> shipped = co_await ship(
      req.id(), guarded.value().epoch, entry->size(),
      "store.server.snapshot_reads", "store.server.snapshot_members_shipped");
  if (!shipped) co_return std::move(shipped).error();
  entry = shipped.value();
  co_return Payload{msg::SnapshotReply{entry->members(), entry->version()}};
}

Task<Result<Payload>> StoreServer::handle_read_delta(NodeId from,
                                                      Payload request) {
  const auto req = payload_cast<msg::DeltaRequest>(std::move(request));
  auto guarded = co_await guard(req.id(), /*admit=*/true);
  if (!guarded) co_return std::move(guarded).error();
  const std::uint64_t epoch = guarded.value().epoch;
  Hosted* entry = guarded.value().entry;
  entry->count_read(from);
  const CollectionState& state = entry->state;
  // Serve ops when the cursor names this fragment's op stream (an amnesia
  // recovery starts a new incarnation with unrelated seqs), is inside the
  // retained window — a cursor past last_seq means the reader followed a
  // fresher host here by mistake — *and* the delta is no larger than the
  // membership; otherwise resync the reader with a full snapshot. OR-Set
  // fragments have no single op stream (dots interleave from many origins):
  // their readers always resync, and `seq` is the version as a change hint.
  const bool can_delta = entry->orset == nullptr && req.since_seq() != 0 &&
                         req.since_incarnation() == state.incarnation() &&
                         state.log().can_serve_since(req.since_seq()) &&
                         state.last_seq() - req.since_seq() <= state.size();
  if (!can_delta) {
    Result<Hosted*> shipped = co_await ship(
        req.id(), epoch, entry->size(), "store.server.delta_resyncs",
        "store.server.snapshot_members_shipped");
    if (!shipped) co_return std::move(shipped).error();
    entry = shipped.value();
    const std::uint64_t version = entry->version();
    const std::uint64_t seq =
        entry->orset != nullptr ? version : entry->state.last_seq();
    std::vector<ObjectRef> members = VectorPool<ObjectRef>::acquire();
    if (entry->orset != nullptr) {
      members = entry->orset->members();
    } else {
      members.assign(state.members().begin(), state.members().end());
    }
    co_return Payload{msg::DeltaReply::full_snapshot(
        std::move(members), version, seq, entry->state.incarnation())};
  }
  // Slice the ops and the cursor they run up to at the same instant: a
  // mutation (or replica sync) landing during the shipping delay below would
  // otherwise advance last_seq past the ops actually shipped, and the client
  // — which stores the reply's seq as its cursor — would skip the missed ops
  // forever.
  const std::uint64_t version = state.version();
  const std::uint64_t last_seq = state.last_seq();
  const std::uint64_t incarnation = state.incarnation();
  std::vector<CollectionOp> ops = VectorPool<CollectionOp>::acquire();
  state.log().slice(req.since_seq(), ops);
  Result<Hosted*> shipped =
      co_await ship(req.id(), epoch, ops.size(), "store.server.delta_reads",
                    "store.server.delta_ops_shipped");
  if (!shipped) co_return std::move(shipped).error();
  co_return Payload{
      msg::DeltaReply::delta(std::move(ops), version, last_seq, incarnation)};
}

Task<Result<Payload>> StoreServer::handle_membership(NodeId /*from*/,
                                                      Payload request) {
  const auto req = payload_cast<msg::MembershipRequest>(std::move(request));
  auto guarded = co_await guard(req.id(), /*admit=*/true);
  if (!guarded) co_return std::move(guarded).error();
  const std::uint64_t epoch = guarded.value().epoch;
  Hosted& entry = *guarded.value().entry;
  if (entry.primary.valid()) {
    co_return Failure{FailureKind::kNotFound,
                      "replica does not accept mutations"};
  }
  ++entry.ops;
  // Honour an active freeze: mutators wait until the lock is released or its
  // lease expires (the RPC may time out meanwhile — the cost of strong
  // semantics the paper warns about). The epoch check catches an amnesia
  // crash, the retired check a migration committing while we queued.
  while (entry.frozen_by != 0) {
    co_await entry.unfrozen->wait();
    if (epoch != epoch_) co_return node_crashed();
  }
  if (entry.retired) co_return wrong_epoch(entry.retired_epoch);
  const bool is_add = req.op() == msg::MembershipRequest::Op::kAdd;
  const CollectionOp::Kind kind =
      is_add ? CollectionOp::Kind::kAdd : CollectionOp::Kind::kRemove;
  if (!is_add && entry.pin_count > 0) {
    // Grow-only pin active: the removal is accepted but deferred; the member
    // lingers as a "ghost" until the last pin is released (section 3.3).
    metrics_.add("store.server.mutations_deferred");
    entry.deferred_removes.push_back(req.ref());
    co_return Payload{
        msg::MembershipReply{entry.contains(req.ref()), entry.version()}};
  }
  if (entry.backing != nullptr) {
    // Block engine: page the member's bucket in (charging the extent read
    // and any evictions it forces) before the synchronous mutation below.
    co_await engine_->fault(entry.backing->raw_id(), req.ref().id().raw(),
                            req.ref().home().raw());
    Result<Hosted*> again = resolve(req.id(), epoch, /*retired_fails=*/true);
    if (!again) co_return std::move(again).error();
  }
  const bool changed = write_member(entry, is_add, req.ref());
  // The write just appended its WAL record; capture its index before
  // anything else can append.
  const std::uint64_t wal_index = last_wal_index_;
  const std::uint64_t version = entry.version();
  if (changed) {
    if (sink_ != nullptr) sink_->on_mutation(req.id(), kind, req.ref());
    metrics_.add(is_add ? "store.server.adds_applied"
                        : "store.server.removes_applied");
    if (entry.orset != nullptr) {
      trigger_pushes<DotOps>(req.id());
    } else {
      trigger_pushes<Contiguous>(req.id());
    }
    if (entry.handoff_target.valid()) {
      // Dual-home window (DESIGN.md decision 12): forward the committed op
      // to the migration target before acking, so the staged copy never
      // misses a mutation. The target applies without re-announcing to the
      // mutation sink — ground truth sees each op exactly once.
      const NodeId target = entry.handoff_target;
      const CollectionOp op{kind, req.ref(), entry.state.last_seq()};
      metrics_.add("placement.handoff_forwards");
      auto forwarded = co_await net_.call_typed<msg::HandoffApplyReply>(
          node_, target, "mig.apply",
          msg::HandoffApplyRequest{req.id(), op, entry.state.incarnation()});
      if (epoch != epoch_) co_return node_crashed();
      if (!forwarded) {
        // Target unreachable mid-handoff: drop back to single home here.
        // The migration's finish step fails its completeness check and the
        // whole attempt aborts; the directory was never bumped.
        entry.handoff_target = NodeId::invalid();
        metrics_.add("placement.handoff_forward_failures");
      }
    }
    if (options_.durability.enabled && options_.durability.durable_acks) {
      // Strict commit: hold the ack until the WAL record is fsynced. A
      // crash first means the mutation's durability is unknown — fail the
      // RPC; the caller retries or reports.
      const bool durable = co_await wal_->wait_durable(wal_index);
      if (!durable || epoch != epoch_) {
        co_return Failure{FailureKind::kNodeCrashed,
                          "mutation lost to crash during commit"};
      }
    }
  }
  co_return Payload{msg::MembershipReply{changed, version}};
}

Task<Result<Payload>> StoreServer::handle_size(NodeId /*from*/,
                                                Payload request) {
  const auto req = payload_cast<msg::SizeRequest>(std::move(request));
  auto guarded = co_await guard(req.id(), /*admit=*/true);
  if (!guarded) co_return std::move(guarded).error();
  co_return Payload{
      static_cast<std::uint64_t>(guarded.value().entry->size())};
}

void StoreServer::release_freeze(Hosted& entry) {
  entry.frozen_by = 0;
  entry.lease_timer.cancel();
  entry.unfrozen->open();
}

void StoreServer::release_locks(Hosted& entry) {
  entry.handoff_target = NodeId::invalid();
  release_freeze(entry);
  entry.pin_count = 0;
  entry.deferred_removes.clear();
}

Task<Result<Payload>> StoreServer::handle_freeze(NodeId /*from*/,
                                                  Payload request) {
  const auto req = payload_cast<msg::FreezeRequest>(std::move(request));
  auto guarded = co_await guard(req.id(), /*admit=*/false);
  if (!guarded) co_return std::move(guarded).error();
  const std::uint64_t epoch = guarded.value().epoch;
  Hosted& entry = *guarded.value().entry;
  assert(req.token() != 0 && "freeze token 0 is reserved for 'unfrozen'");
  if (req.freeze() && entry.handoff_target.valid()) {
    // Mid-migration (dual-home handoff): lock state does not transfer with
    // the fragment, so refuse the freeze instead of granting a lock that
    // would silently die at the commit. The client fails its freeze_all
    // cleanly and can retry after the (short) handoff window.
    co_return Failure{FailureKind::kUnreachable, "fragment migrating"};
  }
  if (!req.freeze()) {
    if (entry.frozen_by == req.token()) release_freeze(entry);
    co_return Payload{true};
  }
  // Queue behind the current holder (if any), then take the lock.
  while (entry.frozen_by != 0 && entry.frozen_by != req.token()) {
    co_await entry.unfrozen->wait();
    if (epoch != epoch_) co_return node_crashed();
  }
  if (entry.retired) co_return wrong_epoch(entry.retired_epoch);
  if (entry.handoff_target.valid()) {
    co_return Failure{FailureKind::kUnreachable, "fragment migrating"};
  }
  entry.frozen_by = req.token();
  entry.unfrozen->close();
  // Lease: auto-release if the holder never comes back.
  entry.lease_timer.cancel();
  Hosted* entry_ptr = &entry;
  const std::uint64_t token = req.token();
  entry.lease_timer = net_.sim().schedule_cancellable(
      options_.freeze_lease, [this, entry_ptr, token] {
        if (entry_ptr->frozen_by == token) {
          WEAKSET_DEBUG("freeze lease expired, token " << token);
          release_freeze(*entry_ptr);
        }
      });
  co_return Payload{true};
}

Task<Result<Payload>> StoreServer::handle_pin(NodeId /*from*/,
                                               Payload request) {
  const auto req = payload_cast<msg::PinRequest>(std::move(request));
  auto guarded = co_await guard(req.id(), /*admit=*/false);
  if (!guarded) co_return std::move(guarded).error();
  Hosted& entry = *guarded.value().entry;
  if (req.pin() && entry.handoff_target.valid()) {
    // Deferred removals would be applied (and announced) at unpin without
    // being forwarded to the handoff target — refuse like freeze does.
    co_return Failure{FailureKind::kUnreachable, "fragment migrating"};
  }
  if (req.pin()) {
    ++entry.pin_count;
  } else if (entry.pin_count > 0 && --entry.pin_count == 0) {
    // Garbage-collect the ghosts: apply the deferred removals now.
    for (const ObjectRef ref : entry.deferred_removes) {
      if (write_member(entry, /*add=*/false, ref) && sink_ != nullptr) {
        sink_->on_mutation(req.id(), CollectionOp::Kind::kRemove, ref);
      }
    }
    entry.deferred_removes.clear();
  }
  co_return Payload{true};
}

void StoreServer::add_push_target(CollectionId id, NodeId replica) {
  if (!options_.push_replication) return;
  hosted(id).push_targets.emplace_back(replica);
}

// ---------------------------------------------------------------------------
// Durability: checkpoints, crash wipe, recovery
// (DESIGN.md decision 11)

Task<void> StoreServer::compaction_loop() {
  Simulator& sim = net_.sim();
  for (;;) {
    co_await sim.delay(options_.durability.block.compaction_interval);
    if (stopping_) co_return;
    if (!serving_) continue;  // recovering: resume compacting afterwards
    const std::uint64_t epoch = epoch_;
    std::uint32_t moves = 0;
    for (const CollectionId id : hosted_ids_sorted()) {
      Hosted* entry = find_entry(id);
      if (entry == nullptr || entry->backing == nullptr || entry->retired) {
        continue;
      }
      moves += co_await engine_->compact_round(entry->backing->raw_id());
      if (epoch != epoch_) break;
    }
    if (epoch != epoch_) continue;
    // Relocations only shrink the file once a checkpoint publishes the moved
    // roots and commits the retired extents back to the free list.
    if (moves > 0) arm_checkpoint();
  }
}

void StoreServer::arm_checkpoint() {
  if (!options_.durability.enabled || checkpoint_armed_) return;
  checkpoint_armed_ = true;
  const std::uint64_t epoch = epoch_;
  checkpoint_timer_ = net_.sim().schedule_cancellable(
      options_.durability.checkpoint_interval, [this, epoch] {
        checkpoint_armed_ = false;
        if (epoch != epoch_ || stopping_) return;
        net_.sim().spawn(checkpoint_task(epoch));
      });
}

Task<void> StoreServer::checkpoint_task(std::uint64_t epoch) {
  co_await write_checkpoint(epoch);
}

std::vector<CollectionId> StoreServer::hosted_ids_sorted() const {
  std::vector<CollectionId> ids;
  ids.reserve(collections_.size());
  for (const auto& [id, entry] : collections_) ids.push_back(id);
  std::sort(ids.begin(), ids.end(),
            [](CollectionId a, CollectionId b) { return a.raw() < b.raw(); });
  return ids;
}

Task<bool> StoreServer::write_checkpoint(std::uint64_t epoch) {
  // Snapshot every hosted fragment at this one instant; the WAL mark taken
  // at the same instant is exactly the prefix the image covers, so the
  // truncation below is safe even though appends continue during the write.
  wal::CheckpointImage image;
  bool hosts_orset = false;
  std::vector<CollectionId> backed;
  for (const CollectionId id : hosted_ids_sorted()) {
    const Hosted& entry = *collections_.at(id);
    // Tombstones stay out of the checkpoint: once this image lands (and the
    // WAL prefix holding the kMigrationDone record truncates), the migrated
    // fragment is durably gone from this node.
    if (entry.retired) continue;
    // OR-Set fragments stay out too: CollectionImage has no dot-context
    // form, so their durable history is the untruncated WAL (below).
    if (entry.orset != nullptr) {
      hosts_orset = true;
      continue;
    }
    // Block-backed fragments checkpoint incrementally through the engine
    // (below) instead of materializing into the whole-file image.
    if (entry.backing != nullptr) {
      backed.push_back(id);
      continue;
    }
    image.collections.push_back(image_of(id, entry.state));
  }
  const std::uint64_t wal_mark = disk_->log_next_index(kWalFile);
  const SimTime start = net_.sim().now();
  // Engine checkpoints: dirty leaves + root per fragment, superblock
  // published atomically. Each captures its snapshot at or after the WAL
  // mark above, so truncating to the mark keeps every op either inside a
  // durable image or in the retained tail (replay gates on seq, so overlap
  // is harmless).
  for (const CollectionId id : backed) {
    Hosted* entry = find_entry(id);
    if (entry == nullptr || entry->retired) continue;
    block::ProtoState proto;
    proto.incarnation = entry->state.incarnation();
    proto.version = entry->state.version();
    proto.last_seq = entry->state.last_seq();
    proto.applied_seq = entry->state.applied_seq();
    proto.wal_upto = wal_mark;
    const bool ok =
        co_await engine_->checkpoint(entry->backing->raw_id(), proto);
    if (!ok || epoch != epoch_) co_return false;
  }
  std::string bytes = wal::encode(image);
  metrics_.record_value("wal.checkpoint_bytes",
                        static_cast<std::int64_t>(bytes.size()));
  const bool written = co_await disk_->write_file(kCheckpointFile,
                                                  std::move(bytes));
  if (!written || epoch != epoch_) co_return false;
  if (!hosts_orset) {
    // With an OR-Set fragment aboard the WAL must be kept whole: the image
    // above does not cover it, so a truncation would orphan its history.
    // (Compacting dot streams into checkpoints is ROADMAP follow-on work.)
    disk_->truncate_log_prefix(kWalFile, wal_mark);
    wal_->notify_progress();
  }
  metrics_.add("wal.checkpoints");
  metrics_.record("wal.checkpoint", net_.sim().now() - start);
  co_return true;
}

void StoreServer::on_crash(Topology::CrashKind kind) {
  if (kind != Topology::CrashKind::kAmnesia) return;
  metrics_.add("store.server.amnesia_crashes");
  ++epoch_;
  serving_ = false;
  wiped_ = true;
  checkpoint_timer_.cancel();
  checkpoint_armed_ = false;
  // Queued admission waiters resume and fail their epoch checks; tickets
  // held by suspended handlers go stale (generation bump) so the fresh slot
  // accounting stays exact.
  admission_.reset();

  // Capture the pre-crash membership of primary fragments first: the
  // ground-truth mutation sink must learn what the crash un-did. This must
  // precede the disk's crash lottery — a block-backed fragment materializes
  // through extents whose (pending, unsynced) write-backs the lottery may
  // drop, after which the in-memory bucket table dangles until the engine
  // wipe below.
  const std::vector<CollectionId> ids = hosted_ids_sorted();
  std::vector<std::vector<ObjectRef>> pre_members(ids.size());
  std::vector<std::uint64_t> pre_incarnation(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Hosted& entry = *collections_.at(ids[i]);
    // Tombstones of migrated-away fragments are control-plane state kept
    // across the crash (the directory never points here again); their stale
    // member list is inert and excluded from the ground-truth diff below.
    if (entry.retired) continue;
    if (!entry.primary.valid() && sink_ != nullptr) {
      // Only the ground-truth diff below needs this; with no sink, skip the
      // (block-backed: full-materialize) capture.
      pre_members[i] = entry.members();
    }
    pre_incarnation[i] = entry.state.incarnation();
  }

  // How many appended-but-unsynced records the crash lottery will decide on.
  const std::uint64_t next_before =
      disk_ ? disk_->log_next_index(kWalFile) : 0;
  if (disk_) disk_->crash();
  if (wal_) wal_->on_crash();
  const std::uint64_t next_after = disk_ ? disk_->log_next_index(kWalFile) : 0;

  // Wipe volatile state in place (in-flight handlers hold Hosted&; they
  // observe the epoch bump and abandon their work).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Hosted& entry = *collections_.at(ids[i]);
    if (entry.retired) continue;
    release_locks(entry);  // waiters resume, fail on the epoch check
    for (Hosted::PushTarget& target : entry.push_targets) {
      target.acked_seq = 0;
      target.in_flight = false;
    }
    if (entry.orset != nullptr) {
      // Amnesia: the CRDT state, the outbound op log, and every pull cursor
      // are volatile. WAL replay (reconstruct below) rebuilds the set; the
      // reset cursors make the first post-recovery pulls full-state joins,
      // which also re-covers context the WAL never carried (join merges
      // peers' contexts wholesale but only the *effective* ops were logged).
      *entry.orset = crdt::OrSet{ids[i]};
      entry.dots.reset(0);
      entry.cursors.clear();
    }
    entry.state.wipe_volatile();
  }
  // The engine's cache, bucket tables and allocators are volatile too; its
  // wipe also starts recovery-read accounting for the replay faults below.
  if (engine_ != nullptr) engine_->wipe();

  // Reconstruct the durable image immediately (zero simulated time), so
  // ground-truth observers see exactly the post-recovery state throughout
  // the outage; recover() charges the clock at restart. Replayed ops
  // re-record through the op observer — suspend WAL appends meanwhile.
  wal_suspended_ = true;
  plan_ = reconstruct_from_disk();
  wal_suspended_ = false;
  plan_.records_lost = next_before - next_after;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Hosted& entry = *collections_.at(ids[i]);
    // Replicas keep following their primary's stream. A fragment that was
    // (or turned out, via the WAL's kMigrationDone, to be) migrated away
    // did not lose its members to the crash — they live at the new home.
    if (entry.primary.valid() || entry.retired) continue;
    // A recovered primary starts a fresh op-sequence stream: ops it lost may
    // already have escaped to replicas and reader caches, so sequence
    // numbers it reissues must not collide with them. Bumping the
    // *pre-crash* incarnation (not the durable one) is equivalent to the
    // persist-the-epoch-before-first-use discipline — see DESIGN.md.
    entry.state.set_incarnation(pre_incarnation[i] + 1);
    if (entry.orset != nullptr) {
      // Fresh dot namespace: the replica forgot how many dots it minted, so
      // it must never mint under the old origin again (make_origin salts
      // with the bumped incarnation). Peers see the incarnation change and
      // full-state resync their cursors.
      entry.orset->set_origin(
          crdt::make_origin(node_.raw(), entry.state.incarnation()));
    }
    if (sink_ == nullptr) continue;
    // Ground truth: the crash silently un-did every non-durable effective
    // mutation (and resurrected members whose removal was not durable).
    // Emit compensating events so the membership timeline matches reality.
    std::vector<ObjectRef> before = std::move(pre_members[i]);
    std::vector<ObjectRef> after = entry.members();
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    std::vector<ObjectRef> lost;
    std::set_difference(before.begin(), before.end(), after.begin(),
                        after.end(), std::back_inserter(lost));
    std::vector<ObjectRef> resurrected;
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(resurrected));
    for (const ObjectRef ref : lost) {
      sink_->on_mutation(ids[i], CollectionOp::Kind::kRemove, ref);
    }
    for (const ObjectRef ref : resurrected) {
      sink_->on_mutation(ids[i], CollectionOp::Kind::kAdd, ref);
    }
  }
}

StoreServer::RecoveryPlan StoreServer::reconstruct_from_disk() {
  RecoveryPlan plan;
  if (!disk_) return plan;  // durability off: amnesia really loses it all

  if (const auto bytes = disk_->peek_file(kCheckpointFile)) {
    plan.checkpoint_bytes = bytes->size();
    if (const auto image = wal::decode_checkpoint(*bytes)) {
      for (const wal::CollectionImage& coll : image->collections) {
        Hosted* entry = find_entry(CollectionId{coll.collection});
        if (entry != nullptr && !entry->retired) {
          restore_image(entry->state, coll);
        }
      }
    }
  }

  // Block-backed fragments reattach from their superblocks: counters from
  // the proto image, members left on disk. The WAL replay below faults in
  // only the buckets its records touch — recovery cost tracks the dirty
  // set, not the collection size.
  if (engine_ != nullptr) {
    for (const CollectionId id : hosted_ids_sorted()) {
      Hosted& entry = *collections_.at(id);
      if (entry.backing == nullptr || entry.retired) continue;
      if (const auto proto = engine_->reconstruct(entry.backing->raw_id())) {
        entry.state.restore_counters(proto->version, proto->last_seq,
                                     proto->applied_seq, proto->incarnation);
      }
    }
  }

  const SimDisk::LogContents log = disk_->peek_log(kWalFile);
  if (log.torn) ++plan.torn_tails;
  // Replay each fragment's contiguous tail on top of its checkpoint; stop a
  // fragment's replay at the first gap (e.g. records straddling a replica
  // snapshot install that never reached a checkpoint — anti-entropy refills
  // that stretch).
  std::unordered_map<std::uint64_t, bool> stopped;
  for (const std::string& bytes : log.records) {
    plan.wal_bytes += bytes.size();
    const auto rec = wal::decode_record(bytes);
    if (!rec) {  // corrupt mid-log record: trust nothing after it
      ++plan.torn_tails;
      break;
    }
    // A begin without done leaves the fragment the live home; records of
    // unhosted or migrated-away fragments are inert.
    Hosted* entry = find_entry(CollectionId{rec->collection});
    if (entry == nullptr || entry->retired ||
        rec->kind == wal::WalRecord::kMigrationBegin) {
      continue;
    }
    if (rec->kind == wal::WalRecord::kMigrationDone) {
      // Authority durably transferred before the crash: tombstone the
      // fragment even though an older checkpoint (restored above) still
      // contains it. `seq` of a done record carries the directory epoch.
      entry->retired = true;
      entry->retired_epoch = rec->seq;
      entry->handoff_target = NodeId::invalid();
      entry->state.wipe_volatile();
      continue;
    }
    if (rec->kind == wal::WalRecord::kOrSetInsert ||
        rec->kind == wal::WalRecord::kOrSetKill) {
      // Dot ops are idempotent and globally unique across incarnations (the
      // origin is incarnation-salted): the whole retained history replays
      // unconditionally. The outbound log is NOT rebuilt: peers see the
      // incarnation change and full-state resync instead.
      if (entry->orset != nullptr &&
          entry->orset->apply(
              dot_op(rec->kind == wal::WalRecord::kOrSetKill,
                     ObjectRef{ObjectId{rec->object}, NodeId{rec->home}},
                     rec->origin, rec->seq))) {
        ++plan.ops_replayed;
      }
      continue;
    }
    if (stopped[rec->collection]) continue;
    CollectionState& state = entry->state;
    if (rec->incarnation != state.incarnation() ||
        rec->seq <= state.last_seq()) {
      continue;  // another stream, or already inside the checkpoint
    }
    if (rec->seq != state.last_seq() + 1) {
      stopped[rec->collection] = true;
      continue;
    }
    state.replay(to_collection_op(*rec));
    ++plan.ops_replayed;
  }
  return plan;
}

void StoreServer::on_restart(Topology::CrashKind kind) {
  (void)kind;
  if (!wiped_) return;  // transient outage: memory intact, nothing to do
  net_.sim().spawn(recover(epoch_));
}

Task<void> StoreServer::recover(std::uint64_t epoch) {
  const SimTime start = net_.sim().now();
  if (disk_) {
    // The in-memory image was already reconstructed at crash time (so
    // ground truth stayed observable); what recovery owes the clock is the
    // durable reads it is notionally doing now.
    co_await disk_->read_file(kCheckpointFile);
    if (epoch != epoch_) co_return;  // crashed again mid-recovery
    co_await disk_->read_log(kWalFile);
    if (epoch != epoch_) co_return;
    if (engine_ != nullptr) {
      // Superblock + root + replay-faulted leaves, charged as one read.
      co_await engine_->charge_recovery_reads();
      if (epoch != epoch_) co_return;
    }
    // Persist the incarnation bump (and fold the replayed tail away) before
    // the first post-recovery op can escape.
    const bool ok = co_await write_checkpoint(epoch);
    if (!ok || epoch != epoch_) co_return;
  }
  wiped_ = false;
  serving_ = true;
  metrics_.add("wal.recoveries");
  metrics_.record("wal.recovery", net_.sim().now() - start);
  metrics_.add("wal.ops_replayed", plan_.ops_replayed);
  metrics_.add("wal.records_lost", plan_.records_lost);
  metrics_.add("wal.torn_tails_detected", plan_.torn_tails);
}

}  // namespace weakset
