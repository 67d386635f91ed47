#pragma once

// StoreServer: the repository server process on one node.
//
// Hosts object payloads (the node's "disk") and collection fragments: as the
// fragment primary, as a replica of a primary, or as one write-accepting
// host of an OR-Set fragment. Replicas and OR-Set hosts converge through
// one anti-entropy engine — a pull driver, a push driver and one serving
// path over each fragment's BoundedLog — with two merge policies: contiguous
// apply of the primary's CollectionOp stream, and idempotent apply plus
// join of dot ops (DESIGN.md decisions 9 and 16). Exposes the store
// protocol over RPC and implements the freeze lock that the strong weak-set
// semantics (Figures 3/4) need: "typical implementations would use locks to
// synchronize access to the set and its elements" (section 3.1). Freezes
// carry a lease so that a crashed or partitioned lock holder cannot block
// mutators forever.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "crdt/orset.hpp"
#include "net/rpc.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "block/block_engine.hpp"
#include "store/admission.hpp"
#include "store/block_backing.hpp"
#include "store/collection.hpp"
#include "store/messages.hpp"
#include "store/object_store.hpp"
#include "wal/sim_disk.hpp"
#include "wal/wal.hpp"

namespace weakset {

/// Receives every *effective* primary membership mutation, with ground-truth
/// timing. The spec layer's MembershipTimeline is fed through this hook.
class MutationSink {
 public:
  virtual ~MutationSink() = default;
  virtual void on_mutation(CollectionId id, CollectionOp::Kind kind,
                           ObjectRef ref) = 0;
};

/// Per-server durability model (DESIGN.md decision 11): a simulated local
/// disk holding a write-ahead log of applied membership ops plus periodic
/// whole-server checkpoints. Object payloads already live "on disk" (the
/// read/write latencies of StoreServerOptions model that device) and are not
/// part of this; what the WAL protects is the volatile fragment state an
/// amnesia crash (Topology::CrashKind::kAmnesia) would otherwise erase.
struct DurabilityOptions {
  /// Master switch. Off: amnesia crashes lose everything not recoverable
  /// via anti-entropy.
  bool enabled = true;
  /// Strict commits: membership mutations ack only once their WAL record is
  /// durable (group commit). Off by default — the historical asynchronous
  /// behaviour, which keeps ack latencies (and every pre-existing baseline)
  /// unchanged while still making recovery possible.
  bool durable_acks = false;
  /// Group-commit window: the first append after a clean flush waits this
  /// long before the fsync, batching later appends into it.
  Duration fsync_interval = Duration::millis(2);
  /// Delay between a mutation and the checkpoint write it arms. Longer
  /// intervals mean fewer checkpoint writes but a longer WAL tail to replay
  /// (and re-fsync) at recovery — the E14 tradeoff.
  Duration checkpoint_interval = Duration::millis(250);
  /// Cost model and crash lottery of the simulated disk.
  SimDiskOptions disk;
  /// Block storage engine under the WAL (DESIGN.md decision 17): paged
  /// member buckets, LRU cache, incremental shadow-paged checkpoints,
  /// background compaction. Default-off — the whole-file checkpoint path
  /// (and every committed baseline) is byte-identical until enabled.
  block::BlockStorageOptions block;
};

struct StoreServerOptions {
  /// Simulated disk read for object payloads.
  Duration object_read_latency = Duration::millis(2);
  /// Incremental disk cost per extra object of a store.fetch_batch: the first
  /// object pays object_read_latency in full, each further one only this
  /// much (the reads overlap at the disk queue).
  Duration batch_read_increment = Duration::micros(250);
  /// Simulated disk write for object payloads.
  Duration object_write_latency = Duration::millis(4);
  /// In-memory membership operation cost (fixed part of every membership
  /// RPC).
  Duration membership_latency = Duration::micros(100);
  /// Serialisation/transfer cost per membership entry shipped in a reply —
  /// a member of a full snapshot or an op of a delta. This is what makes
  /// whole-set reads scale with set size and delta reads scale with change
  /// rate (precedent: batch_read_increment for payload batches).
  Duration membership_entry_cost = Duration::micros(25);
  /// Membership ops retained per fragment (primaries and replicas) for
  /// incremental reads and anti-entropy; a reader whose cursor has fallen
  /// off this window is resynced with a full snapshot. 0 = unbounded.
  std::size_t membership_log_cap = 1024;
  /// How long a freeze lives without being released (crash safety).
  Duration freeze_lease = Duration::seconds(10);
  /// Replica anti-entropy period.
  Duration pull_interval = Duration::millis(50);
  /// If true, fragment primaries also PUSH ops to their replicas right after
  /// each mutation (convergence in ~one RPC). Pull anti-entropy still runs
  /// underneath and repairs pushes lost to partitions.
  bool push_replication = false;
  /// Durable storage engine: WAL + checkpoints + amnesia recovery.
  DurabilityOptions durability;
  /// Admission control on the collection data path (DESIGN.md decision 15):
  /// bounded per-tenant queues in front of max_concurrency service slots,
  /// shed-or-reject with FailureKind::kOverloaded under overload. Disabled
  /// by default — the historical serve-everything model.
  AdmissionOptions admission;
  /// Telemetry sink: snapshot-vs-delta read counters, bytes-equivalent ship
  /// cost, anti-entropy activity. nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

class StoreServer {
 public:
  StoreServer(RpcNetwork& net, NodeId node, StoreServerOptions options = {});
  StoreServer(const StoreServer&) = delete;
  StoreServer& operator=(const StoreServer&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] ObjectStore& objects() noexcept { return objects_; }
  [[nodiscard]] const StoreServerOptions& options() const noexcept {
    return options_;
  }

  /// Starts hosting `id` as a fragment primary.
  CollectionState& host_primary(CollectionId id);

  /// Starts hosting `id` as a replica of the fragment primary at `primary`.
  /// Spawns the anti-entropy process, which pulls forever at pull_interval.
  CollectionState& host_replica(CollectionId id, NodeId primary);

  // -- OR-Set multi-master mode (src/crdt, DESIGN.md decision 16) ----------

  /// Starts hosting `id` as an OR-Set multi-master fragment: this node
  /// accepts membership writes locally, tags them with dots, and converges
  /// with its peers via all-pairs dot-op anti-entropy (orset.pull) plus
  /// optional pushes. Spawns the pull daemon.
  crdt::OrSet& host_orset(CollectionId id);

  /// Registers another host of OR-Set fragment `id` as an anti-entropy peer
  /// (and, when push_replication is on, as a push target).
  void add_orset_peer(CollectionId id, NodeId peer);

  /// The locally hosted OR-Set state; nullptr if `id` is not hosted here in
  /// OR-Set mode. Spec-layer ground truth reads converged members from this.
  [[nodiscard]] const crdt::OrSet* orset_state(CollectionId id) const;

  /// Setup-time: inserts `ref` into the local OR-Set directly, bypassing
  /// RPC (workload seeding). Returns true if membership changed.
  bool seed_orset_member(CollectionId id, ObjectRef ref);

  /// The locally hosted fragment state (primary or replica); nullptr if this
  /// node does not host `id`.
  [[nodiscard]] CollectionState* collection(CollectionId id);
  [[nodiscard]] const CollectionState* collection(CollectionId id) const;

  // -- live fragment migration (src/placement, DESIGN.md decision 12) ------

  /// Cumulative data-path demand on one hosted fragment, for the load-aware
  /// rebalancer. reads_by_node is (client node raw id, reads) in ascending
  /// node order — deterministic iteration for policy decisions.
  struct FragmentLoad {
    std::uint64_t reads = 0;
    std::uint64_t ops = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reads_by_node;
  };

  /// True if this node hosts `id` as a live (non-retired) fragment primary.
  [[nodiscard]] bool hosts_primary(CollectionId id) const;

  /// True if `id` was migrated away from this node (tombstoned entry).
  [[nodiscard]] bool is_retired(CollectionId id) const;

  /// Load counters of a hosted fragment (zeroes if not hosted).
  [[nodiscard]] FragmentLoad fragment_load(CollectionId id) const;

  /// True while starting a migration of `id` away from this node would break
  /// an in-progress protocol on it: frozen, pinned (deferred removals
  /// pending), already in a handoff window, pushing to replicas or
  /// OR-Set-hosted. Lock and replication state do not transfer with a
  /// fragment, so the migration engine refuses to start instead. (The
  /// engine refuses every replicated fragment before it asks, so for pull-
  /// and push-replicated fragments this is a second line of defence.)
  [[nodiscard]] bool migration_blocked(CollectionId id) const;

  /// Synchronous point-in-time image of a hosted fragment, in the durable
  /// checkpoint codec — the unit the migration engine streams.
  [[nodiscard]] wal::CollectionImage export_image(CollectionId id) const;

  /// Durably marks a migration as attempted (WAL kMigrationBegin). A begin
  /// without a matching done means the migration never committed; recovery
  /// restores the fragment as the live single home.
  void log_migration_begin(CollectionId id, NodeId target);

  /// Opens the dual-home handoff window: every committed membership op on
  /// `id` is forwarded to `target` (mig.apply) before it is acked.
  void set_handoff(CollectionId id, NodeId target);

  /// Closes the handoff window without committing (migration abort).
  void clear_handoff(CollectionId id);

  /// Migration commit, source side: tombstones the fragment at
  /// `directory_epoch` (the epoch the directory was bumped to). The entry is
  /// never erased — in-flight handlers hold references — and every data-path
  /// RPC on it now answers kWrongEpoch carrying `directory_epoch` so stale
  /// clients self-heal. Appends WAL kMigrationDone: recovery drops the
  /// fragment even if an older checkpoint still contains it.
  void retire_collection(CollectionId id, NodeId target,
                         std::uint64_t directory_epoch);

  /// Migration commit, target side: installs `image` as a hosted fragment
  /// primary continuing the source's op-sequence stream (cursors and
  /// incarnation verbatim). Reuses (and un-retires) a tombstoned entry when
  /// the fragment migrates back. The caller persists the adoption with
  /// checkpoint_now() before the source retires.
  CollectionState& adopt_primary(CollectionId id,
                                 const wal::CollectionImage& image);

  /// Writes a checkpoint immediately (true on success; trivially true when
  /// durability is off). The migration engine calls this on the target so
  /// the adopted fragment is durable before the source gives up authority.
  Task<bool> checkpoint_now();

  /// Asks background daemons (anti-entropy pullers) to exit at their next
  /// wakeup, letting the simulator drain. The server keeps serving RPCs.
  void stop_daemons() noexcept { stopping_ = true; }

  /// Installs the mutation hook (nullptr to remove). Not owned.
  void set_mutation_sink(MutationSink* sink) noexcept { sink_ = sink; }

  /// Primary side: registers `replica` as a push-replication target of the
  /// locally hosted fragment `id` (no-op unless push_replication is on).
  void add_push_target(CollectionId id, NodeId replica);

  // -- crash / recovery (DESIGN.md decision 11) ----------------------------

  /// Liveness notification: the node just crashed. kTransient keeps all
  /// state (the historical behaviour); kAmnesia wipes volatile state and
  /// synchronously reconstructs the durable image, so in-memory state equals
  /// what recovery will serve. The Repository wires this to the Topology's
  /// liveness listeners.
  void on_crash(Topology::CrashKind kind);

  /// Liveness notification: the node came back. After an amnesia crash this
  /// starts the recovery process (checkpoint + WAL read costs, then a fresh
  /// checkpoint persisting the incarnation bump); RPCs are refused until it
  /// completes.
  void on_restart(Topology::CrashKind kind);

  /// False while recovering from an amnesia crash (RPC handlers refuse).
  [[nodiscard]] bool serving() const noexcept { return serving_; }

  // -- admission control (DESIGN.md decision 15) ---------------------------

  /// Tags collection `id` as belonging to `tenant` for admission-queue
  /// accounting. Untagged collections share tenant 0.
  void set_tenant(CollectionId id, std::uint64_t tenant) {
    tenants_[id] = tenant;
  }

  /// The admission tenant of `id` (0 if untagged).
  [[nodiscard]] std::uint64_t tenant_of(CollectionId id) const {
    const auto it = tenants_.find(id);
    return it == tenants_.end() ? 0 : it->second;
  }

  /// The admission controller (introspection for tests and the load engine).
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }

  /// The simulated durable device; nullptr when durability is disabled.
  [[nodiscard]] SimDisk* disk() noexcept { return disk_.get(); }

  /// The block storage engine; nullptr unless durability.block.enabled.
  [[nodiscard]] block::BlockEngine* block_engine() noexcept {
    return engine_.get();
  }

 private:
  /// A puller's position in one peer's op stream.
  struct Cursor {
    std::uint64_t after_seq = 0;
    std::uint64_t incarnation = 0;
  };

  struct Hosted {
    explicit Hosted(CollectionId id) : state(id) {}
    CollectionState state;
    NodeId primary;  // invalid() for primaries
    // Freeze lock. token 0 = unfrozen.
    std::uint64_t frozen_by = 0;
    std::unique_ptr<Gate> unfrozen;       // open while not frozen
    Simulator::TimerToken lease_timer;    // auto-release
    // Grow-only pinning (section 3.3 ghost-delete variant): while pinned,
    // removals are deferred and applied at the last unpin.
    std::size_t pin_count = 0;
    std::vector<ObjectRef> deferred_removes;
    // Anti-entropy, one engine for both replication modes: the hosts this
    // entry pulls from (a replica's primary; every peer of an OR-Set host)
    // and, with push_replication, the hosts it pushes its outbound log to,
    // each with an ack cursor and an in-flight marker.
    std::vector<NodeId> pull_from;
    struct PushTarget {
      explicit PushTarget(NodeId node) : node(node) {}
      NodeId node;
      std::uint64_t acked_seq = 0;
      bool in_flight = false;
    };
    std::vector<PushTarget> push_targets;
    // Live migration (DESIGN.md decision 12). While handoff_target is valid,
    // committed membership ops are dual-applied there before acking. Once
    // retired, the entry is a tombstone: data-path RPCs answer kWrongEpoch
    // carrying retired_epoch. Retirement survives amnesia crashes (mirrored
    // by the WAL kMigrationDone record; even when that record is lost in the
    // torn tail, the directory — bumped before the commit acked — never
    // points here again, so the tombstone is kept conservatively).
    NodeId handoff_target = NodeId::invalid();
    bool retired = false;
    std::uint64_t retired_epoch = 0;
    // Data-path demand counters for the load-aware rebalancer. Plain
    // integers (no metrics registry, no RNG): maintaining them never
    // perturbs baseline runs. Keyed by raw node id (ordered → deterministic
    // policy input).
    std::uint64_t reads = 0;
    std::uint64_t ops = 0;
    std::map<std::uint64_t, std::uint64_t> reads_by_node;
    void count_read(NodeId from) {
      ++reads;
      ++reads_by_node[from.raw()];
    }
    // OR-Set multi-master mode (DESIGN.md decision 16). Non-null marks the
    // entry as CRDT-hosted: membership RPCs mutate the OR-Set locally,
    // `dots` is the outbound log of this host's *local* dot ops (bounded by
    // membership_log_cap), and `cursors` hold the pull position in every
    // peer's log. The entry's CollectionState is dormant except for its
    // incarnation, which doubles as the dot-namespace salt (make_origin) and
    // the log-stream id peers use to detect an amnesia restart.
    std::unique_ptr<crdt::OrSet> orset;
    BoundedLog<msg::OrSetWireOp> dots;
    std::map<NodeId, Cursor> cursors;
    // Block storage engine mode (DESIGN.md decision 17): non-null routes
    // this fragment's members through the engine's paged buckets.
    std::unique_ptr<BlockBacking> backing;

    // The membership as served, whichever replication mode holds it.
    [[nodiscard]] std::size_t size() const {
      return orset != nullptr ? orset->size() : state.size();
    }
    [[nodiscard]] std::uint64_t version() const {
      return orset != nullptr ? orset->version() : state.version();
    }
    [[nodiscard]] std::vector<ObjectRef> members() const {
      return orset != nullptr ? orset->members() : state.members();
    }
    [[nodiscard]] bool contains(ObjectRef ref) const {
      return orset != nullptr ? orset->contains(ref) : state.contains(ref);
    }
  };

  /// What a data-path handler holds once its prologue passed: the entry, the
  /// crash epoch it started in, and its admission slot (released when the
  /// handler finishes).
  struct Guarded {
    Guarded(Hosted* entry, std::uint64_t epoch, AdmissionTicket ticket)
        : entry(entry), epoch(epoch), ticket(std::move(ticket)) {}
    Hosted* entry;
    std::uint64_t epoch;
    AdmissionTicket ticket;
  };

  // Anti-entropy merge policies (defined in server.cpp).
  struct Contiguous;  // home-primary CollectionOp streams
  struct DotOps;      // OR-Set dot-op streams

  /// What crash-time reconstruction found; recovery reports it as metrics
  /// once the (timed) restart-side recovery completes.
  struct RecoveryPlan {
    std::uint64_t ops_replayed = 0;
    std::uint64_t records_lost = 0;
    std::uint64_t torn_tails = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t wal_bytes = 0;
  };

  void register_handlers();
  /// Creates the entry for a newly hosted fragment (unfrozen, unwired).
  Hosted& emplace_entry(CollectionId id);
  Hosted& hosted(CollectionId id);
  /// The hosted entry (tombstones included); nullptr if never hosted.
  [[nodiscard]] Hosted* find_entry(CollectionId id) const;
  /// Re-resolves `id` after a co_await: the entry, or why the coroutine must
  /// give up — a crash since `epoch`, an unhosted id, or (when
  /// `retired_fails`) a fragment migrated away meanwhile.
  Result<Hosted*> resolve(CollectionId id, std::uint64_t epoch,
                          bool retired_fails);
  /// The prologue of every collection data-path handler: refuse while
  /// recovering, optionally take an admission slot, pay membership_latency,
  /// then resolve the entry (retired → kWrongEpoch).
  Task<Result<Guarded>> guard(CollectionId id, bool admit);
  /// Charges shipping `entries` membership entries (membership_entry_cost
  /// each; counted under `shipped` and, when non-null, one `event`), waits
  /// the cost out, and re-resolves the entry.
  Task<Result<Hosted*>> ship(CollectionId id, std::uint64_t epoch,
                             std::size_t entries, const char* event,
                             const char* shipped);

  // The anti-entropy engine, one instance per merge policy.
  /// Pull daemon: every pull_interval, asks each pull_from host for the ops
  /// after this entry's cursor and merges the delta or snapshot.
  template <class P>
  Task<void> pull_loop(CollectionId id);
  /// Starts a pusher for every idle push target behind the outbound log.
  template <class P>
  void trigger_pushes(CollectionId id);
  /// One pusher per target: ships the log past its ack cursor until it is
  /// caught up, or a push fails or stalls (pulls then repair).
  template <class P>
  Task<void> push_to(CollectionId id, Hosted::PushTarget& target);
  /// Applies received ops under the policy's rule (paging their buckets in
  /// first when the fragment is block-backed) and re-resolves the entry.
  template <class P>
  Task<Result<Hosted*>> apply_ops(CollectionId id, std::uint64_t epoch,
                                  const std::vector<typename P::Op>& ops,
                                  const char* applied);
  /// coll.pull / orset.pull: the ops after the caller's cursor, or the
  /// whole state when the cursor cannot be served op by op.
  template <class P>
  Task<Result<Payload>> handle_pull(NodeId from, Payload request);
  /// coll.sync / orset.sync: applies a pushed batch and acks a cursor.
  template <class P>
  Task<Result<Payload>> handle_sync(NodeId from, Payload request);

  /// One local membership write under the entry's replication mode: a
  /// CollectionState op (logged and WALed by the op observer) or the dot ops
  /// an OR-Set add/remove mints, appended to the outbound log and WALed.
  /// True if the membership changed.
  bool write_member(Hosted& entry, bool add, ObjectRef ref);
  /// WAL-appends one applied dot op (no-op when durability is off or during
  /// recovery replay).
  void orset_wal_append(Hosted& entry, const crdt::DotOp& op);
  void release_freeze(Hosted& entry);
  /// Drops the entry's handoff window, freeze, pins and deferred removals —
  /// protocol state that neither survives a crash nor moves with a fragment.
  void release_locks(Hosted& entry);

  /// Background compaction daemon (spawned when the engine is on).
  Task<void> compaction_loop();
  /// Arms the (cancellable) checkpoint timer if it is not already armed.
  void arm_checkpoint();
  /// Snapshots every hosted fragment at one instant, writes the checkpoint
  /// atomically, and truncates the WAL prefix it covers. False if a crash
  /// interrupted (durable state untouched).
  Task<bool> write_checkpoint(std::uint64_t epoch);
  /// Fire-and-forget wrapper for the checkpoint timer.
  Task<void> checkpoint_task(std::uint64_t epoch);
  /// Restart-side recovery: charges the durable read costs, persists the
  /// incarnation bump with a fresh checkpoint, then reopens for RPCs.
  Task<void> recover(std::uint64_t epoch);
  /// Crash-side reconstruction: rebuilds every fragment from the durable
  /// checkpoint + WAL tail (zero simulated time — the clock is charged by
  /// recover() at restart). Returns what it found.
  RecoveryPlan reconstruct_from_disk();
  [[nodiscard]] std::vector<CollectionId> hosted_ids_sorted() const;

  // Handler bodies. `from` is the calling node (load accounting).
  Task<Result<Payload>> handle_fetch(NodeId from, Payload request);
  Task<Result<Payload>> handle_fetch_batch(NodeId from, Payload request);
  Task<Result<Payload>> handle_put(NodeId from, Payload request);
  Task<Result<Payload>> handle_snapshot(NodeId from, Payload request);
  Task<Result<Payload>> handle_read_delta(NodeId from, Payload request);
  Task<Result<Payload>> handle_membership(NodeId from, Payload request);
  Task<Result<Payload>> handle_size(NodeId from, Payload request);
  Task<Result<Payload>> handle_freeze(NodeId from, Payload request);
  Task<Result<Payload>> handle_pin(NodeId from, Payload request);

  RpcNetwork& net_;
  NodeId node_;
  StoreServerOptions options_;
  obs::MetricsRegistry& metrics_;
  AdmissionController admission_;
  /// Collection → admission tenant (absent = tenant 0).
  std::unordered_map<CollectionId, std::uint64_t> tenants_;
  ObjectStore objects_;
  std::unordered_map<CollectionId, std::unique_ptr<Hosted>> collections_;
  bool stopping_ = false;
  MutationSink* sink_ = nullptr;

  // Durability (DESIGN.md decision 11).
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<wal::WalWriter> wal_;
  // Block storage engine (DESIGN.md decision 17); null unless enabled.
  std::unique_ptr<block::BlockEngine> engine_;
  /// False from an amnesia crash until recovery completes; handlers refuse.
  bool serving_ = true;
  /// Bumped on every amnesia wipe; coroutines suspended across the wipe
  /// compare epochs and abandon their work instead of touching fresh state.
  std::uint64_t epoch_ = 0;
  /// True between an amnesia crash and the end of recovery.
  bool wiped_ = false;
  /// Set during recovery replay so re-logged ops do not re-append.
  bool wal_suspended_ = false;
  bool checkpoint_armed_ = false;
  Simulator::TimerToken checkpoint_timer_;
  /// WAL index of the most recent append (the durable_acks wait cursor).
  std::uint64_t last_wal_index_ = 0;
  RecoveryPlan plan_;
};

}  // namespace weakset
