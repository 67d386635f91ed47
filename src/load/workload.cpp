#include "load/workload.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "core/repo_view.hpp"
#include "sim/channel.hpp"
#include "store/client.hpp"
#include "util/shard.hpp"

namespace weakset::load {
namespace {

/// Per-session seed fork: splitmix-style mixing of the run seed and the
/// session index, so each session's stream is independent of spawn order
/// (same idiom as StoreServer's per-node disk lottery).
std::uint64_t session_seed(std::uint64_t seed, std::size_t index) {
  return seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) +
                                          1));
}

}  // namespace

/// Open-loop bookkeeping shared between a session and its in-flight ops.
/// Session and ops live on the same gateway shard, so plain fields suffice;
/// the Gate resumes through the event queue like every sim primitive.
struct LoadEngine::SessionSync {
  explicit SessionSync(Simulator& sim) : done(sim) {}
  std::size_t outstanding = 0;
  bool issued_all = false;
  Gate done;
};

LoadEngine::LoadEngine(Repository& repo, std::vector<NodeId> gateways,
                       LoadOptions options)
    : repo_(repo),
      options_(options),
      metrics_(obs::sink(options.metrics)) {
  assert(!gateways.empty() && "load engine needs at least one gateway node");
  assert((options_.directories.empty() ||
          options_.directories.size() == gateways.size()) &&
         "directories must be empty or per-gateway");
  gateways_.reserve(gateways.size());
  for (const NodeId node : gateways) {
    gateways_.push_back(std::make_unique<GatewayState>(node));
  }
}

LoadEngine::~LoadEngine() = default;

void LoadEngine::build() {
  assert(collections_.empty() && "build() is once");
  assert(options_.tenants > 0 && options_.collections_per_tenant > 0);
  assert(options_.objects_per_collection > 0);
  const std::vector<NodeId>& servers = repo_.server_nodes();
  assert(!servers.empty() && "add servers before building the workload");

  // Normalise the op mix into cumulative thresholds for one uniform draw.
  const double total =
      options_.mix.insert + options_.mix.remove + options_.mix.iterate;
  assert(total > 0.0 && "op mix must have positive weight");
  mix_insert_ = options_.mix.insert / total;
  mix_remove_ = mix_insert_ + options_.mix.remove / total;

  zipf_.emplace(options_.collections_per_tenant, options_.zipf_theta);

  // Seeding appends to each server's WAL, which arms its checkpoint timer on
  // the current shard. Run it on the serial shard, whose events execute
  // alone: armed from a worker shard, the checkpoint would race the server's
  // own handlers. In classic mode serial_shard() is 0 — nothing changes.
  ShardGuard guard{repo_.sim().serial_shard()};

  // Tenant-major collections; fragment primaries and object homes
  // round-robin over the servers with a per-collection offset so load
  // spreads evenly at build time (the *traffic* skew comes from Zipf).
  for (std::size_t t = 0; t < options_.tenants; ++t) {
    for (std::size_t c = 0; c < options_.collections_per_tenant; ++c) {
      const std::size_t base = t * options_.collections_per_tenant + c;
      std::vector<NodeId> primaries;
      primaries.reserve(options_.fragments);
      for (std::size_t f = 0; f < options_.fragments; ++f) {
        primaries.push_back(servers[(base + f) % servers.size()]);
      }
      const CollectionId id = repo_.create_collection(primaries);
      repo_.tag_tenant(id, t);
      std::vector<ObjectRef> pool;
      pool.reserve(options_.objects_per_collection);
      for (std::size_t o = 0; o < options_.objects_per_collection; ++o) {
        const NodeId home = servers[(base + o) % servers.size()];
        ObjectRef ref = repo_.create_object(
            home, "load-t" + std::to_string(t) + "-c" + std::to_string(c) +
                      "-o" + std::to_string(o));
        // Seed half of each pool as initial membership: removes have
        // something to remove, inserts have something absent to insert.
        if (o < options_.objects_per_collection / 2) {
          repo_.seed_member(id, ref);
        }
        pool.push_back(ref);
      }
      collections_.push_back(id);
      pools_.push_back(std::move(pool));
    }
  }
}

LoadStats LoadEngine::stats() const {
  LoadStats folded;
  for (const auto& gw : gateways_) {
    folded.sessions_started += gw->stats.sessions_started;
    folded.sessions_finished += gw->stats.sessions_finished;
    folded.ops_offered += gw->stats.ops_offered;
    folded.ops_ok += gw->stats.ops_ok;
    folded.ops_overloaded += gw->stats.ops_overloaded;
    folded.ops_failed += gw->stats.ops_failed;
    folded.elements_yielded += gw->stats.elements_yielded;
  }
  return folded;
}

Task<void> LoadEngine::run() {
  assert(!collections_.empty() && "call build() before run()");
  Simulator& sim = repo_.sim();
  Rng arrivals{options_.seed};
  for (std::size_t index = 0; index < options_.sessions; ++index) {
    {
      // Home the session on its gateway's shard. Serial-shard events run
      // alone (workers quiesced), so pushing the spawn onto another shard's
      // queue here is race-free.
      const GatewayState& gw = *gateways_[gateway_of(index)];
      ShardGuard guard{sim.sharded() ? sim.node_shard(gw.node.raw()) : 0};
      sim.spawn(session(index));
    }
    co_await sim.delay(arrivals.exponential(options_.mean_interarrival));
  }
  // Join: poll the per-gateway slabs until every session departed. Reading
  // them from the serial shard is race-free for the same reason as above.
  while (stats().sessions_finished < options_.sessions) {
    co_await sim.delay(options_.poll_interval);
  }
}

void LoadEngine::run_to_completion() {
  Simulator& sim = repo_.sim();
  bool done = false;
  {
    ShardGuard guard{sim.serial_shard()};
    sim.spawn([](LoadEngine* self, bool* flag) -> Task<void> {
      co_await self->run();
      *flag = true;
    }(this, &done));
  }
  while (!done && sim.step()) {
  }
  assert(done && "load run did not complete (deadlocked workload?)");
}

Task<void> LoadEngine::session(std::size_t index) {
  GatewayState& gw = *gateways_[gateway_of(index)];
  ++gw.stats.sessions_started;
  metrics_.add("load.sessions");
  Rng rng{session_seed(options_.seed, index)};
  const std::size_t tenant = index % options_.tenants;

  // Session lifetime: uniform around the configured mean op count.
  const auto lo =
      static_cast<std::int64_t>(std::max<std::size_t>(
          1, options_.ops_per_session / 2));
  const auto hi = static_cast<std::int64_t>(std::max<std::size_t>(
      static_cast<std::size_t>(lo), options_.ops_per_session * 3 / 2));
  const auto op_count =
      static_cast<std::size_t>(rng.uniform_range(lo, hi));

  ClientOptions copts;
  copts.rpc_timeout = options_.rpc_timeout;
  copts.metrics = options_.metrics;
  if (!options_.directories.empty()) {
    copts.directory = options_.directories[gateway_of(index)];
  }

  if (options_.mode == ArrivalMode::kClosedLoop) {
    RepositoryClient client{repo_, gw.node, copts};
    for (std::size_t i = 0; i < op_count; ++i) {
      co_await repo_.sim().delay(rng.exponential(options_.think_time));
      co_await run_op(gw, client, tenant, rng);
    }
  } else {
    // Open loop: fire ops on the timer regardless of completion (shared
    // client + sync block keep everything on this gateway's shard), then
    // wait for stragglers before departing.
    auto client = std::make_shared<RepositoryClient>(repo_, gw.node, copts);
    auto sync = std::make_shared<SessionSync>(repo_.sim());
    for (std::size_t i = 0; i < op_count; ++i) {
      ++sync->outstanding;
      repo_.sim().spawn(
          run_op_detached(gw, client, tenant, rng.fork(), sync));
      co_await repo_.sim().delay(rng.exponential(options_.op_interval));
    }
    sync->issued_all = true;
    if (sync->outstanding > 0) co_await sync->done.wait();
  }
  ++gw.stats.sessions_finished;
  metrics_.add("load.sessions_finished");
}

Task<void> LoadEngine::run_op_detached(GatewayState& gw,
                                       std::shared_ptr<RepositoryClient>
                                           client,
                                       std::size_t tenant, Rng rng,
                                       std::shared_ptr<SessionSync> sync) {
  co_await run_op(gw, *client, tenant, rng);
  --sync->outstanding;
  if (sync->outstanding == 0 && sync->issued_all) sync->done.open();
}

Task<void> LoadEngine::run_op(GatewayState& gw, RepositoryClient& client,
                              std::size_t tenant, Rng& rng) {
  ++gw.stats.ops_offered;
  metrics_.add("load.ops_offered");
  const std::size_t rank = zipf_->sample(rng);
  const std::size_t slot = tenant * options_.collections_per_tenant + rank;
  const CollectionId coll = collections_[slot];
  const std::vector<ObjectRef>& pool = pools_[slot];
  const double draw = rng.uniform_double();
  const SimTime start = repo_.sim().now();

  bool ok = false;
  std::optional<Failure> failure;
  if (draw < mix_remove_) {
    // No co_await inside a conditional expression: GCC 12 destroys the
    // selected arm's temporary before the copy-out (double free).
    const ObjectRef ref = rng.pick(pool);
    Result<bool> result{false};
    if (draw < mix_insert_) {
      result = co_await client.add(coll, ref);
    } else {
      result = co_await client.remove(coll, ref);
    }
    ok = result.has_value();
    if (!ok) failure = result.error();
  } else {
    RepoSetView view{client, coll};
    auto iterator =
        make_elements_iterator(view, options_.iterate_semantics, {});
    const DrainResult result = co_await drain(*iterator);
    gw.stats.elements_yielded += result.count();
    metrics_.add("load.iterate_elements", result.count());
    ok = result.finished();
    if (!ok && result.failure()) failure = *result.failure();
  }

  metrics_.record("load.op_latency_ns", repo_.sim().now() - start);
  if (ok) {
    ++gw.stats.ops_ok;
    metrics_.add("load.ops_ok");
  } else if (failure && failure->kind == FailureKind::kOverloaded) {
    ++gw.stats.ops_overloaded;
    metrics_.add("load.ops_overloaded");
  } else {
    ++gw.stats.ops_failed;
    metrics_.add("load.ops_failed");
  }
}

}  // namespace weakset::load
