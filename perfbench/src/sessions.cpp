// sessions / sessions-sharded: population-scale open-loop traffic through
// the load engine (src/load) against four home-primary servers with bounded
// shed-oldest admission queues.
//
// The offered rate sits below the shed point: queues form (depth above 1)
// but nothing is shed, nothing times out, and no operation fails, on every
// seed. Collections are small and unfragmented, so the iterator prefetcher
// and the read_all fan-out do almost no work; the event loop, RPC dispatch,
// metric recording and admission carry the cost.
//
// The sharded variant runs the identical inputs on the sharded executor.
// Its schedule is the sharded one (serial-shard arrivals, per-shard RNG
// lanes), which differs from the classic loop by design, so its simulated
// results are compared against itself at one worker, not against the
// classic run.

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "load/workload.hpp"
#include "store/admission.hpp"
#include "store/client.hpp"
#include "util/shard.hpp"

namespace perfbench {
namespace {

using namespace weakset;

constexpr int kServers = 4;
constexpr int kGateways = 4;
constexpr std::size_t kSessions = 3000;
constexpr std::size_t kTenants = 8;
constexpr std::size_t kCollectionsPerTenant = 4;
constexpr std::size_t kObjectsPerCollection = 16;
constexpr std::size_t kOpsPerSession = 6;
/// Session arrivals: Poisson, this mean gap. With kOpsPerSession ops every
/// kOpInterval this offers about 12k ops/s, below the servers' shed point.
constexpr Duration kMeanInterarrival = Duration::micros(500);
constexpr Duration kOpInterval = Duration::millis(5);
constexpr std::size_t kMaxConcurrency = 2;
constexpr std::size_t kMaxQueueDepth = 128;

/// One effective primary mutation, as the repository's observer saw it.
struct Mutation {
  CollectionId id;
  CollectionOp::Kind kind;
  ObjectRef ref;
};

struct SessionsWorld {
  SessionsWorld(std::uint64_t seed, std::uint32_t workers) {
    for (int i = 0; i < kServers; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    for (int i = 0; i < kGateways; ++i) {
      gateways.push_back(topo.add_node("gw" + std::to_string(i)));
    }
    // Every gateway has one near and one far server (5..20 ms).
    for (int g = 0; g < kGateways; ++g) {
      for (int s = 0; s < kServers; ++s) {
        topo.connect(gateways[static_cast<std::size_t>(g)],
                     servers[static_cast<std::size_t>(s)],
                     Duration::millis(5 + 5 * ((g + s) % kServers)));
      }
    }
    for (int i = 0; i < kServers; ++i) {
      for (int j = i + 1; j < kServers; ++j) {
        topo.connect(servers[static_cast<std::size_t>(i)],
                     servers[static_cast<std::size_t>(j)],
                     Duration::millis(10));
      }
    }
    topo.set_routing(Topology::Routing::kDirectOnly);
    if (workers > 0) {
      const auto nodes = static_cast<std::uint32_t>(topo.node_count());
      sim.configure_shards(nodes, workers, Duration::millis(5));
      for (std::uint32_t n = 0; n < nodes; ++n) sim.assign_node_shard(n, n);
      // The load engine's iterate ops record into the process-global
      // registry; it needs per-shard children before any window runs.
      obs::global().enable_sharding(nodes + 1);
      metrics.enable_sharding(nodes + 1);
    }
    RpcOptions rpc;
    rpc.metrics = &metrics;
    net = std::make_unique<RpcNetwork>(sim, topo, Rng{seed}, rpc);
    repo = std::make_unique<Repository>(*net);
    StoreServerOptions options;
    options.admission.enabled = true;
    options.admission.policy = AdmissionPolicy::kShedOldest;
    options.admission.max_concurrency = kMaxConcurrency;
    options.admission.max_queue_depth = kMaxQueueDepth;
    options.metrics = &metrics;
    for (const NodeId node : servers) {
      ShardGuard guard{sim.sharded() ? sim.node_shard(node.raw()) : 0};
      repo->add_server(node, options);
    }
  }
  ~SessionsWorld() { repo->stop_all_daemons(); }

  Simulator sim;
  Topology topo;
  obs::MetricsRegistry metrics;
  std::vector<NodeId> servers;
  std::vector<NodeId> gateways;
  std::unique_ptr<RpcNetwork> net;
  std::unique_ptr<Repository> repo;
};

Task<void> read_every_collection(
    RepositoryClient& client, const std::vector<CollectionId>& ids,
    std::vector<Result<std::vector<ObjectRef>>>& out) {
  for (const CollectionId id : ids) {
    out.push_back(co_await client.read_all(id));
  }
}

}  // namespace

RoundResult run_sessions(const RoundConfig& config) {
  RoundResult result;
  Tracer tracer{config.trace};
  const Stopwatch setup_clock;
  const std::uint64_t setup_span =
      tracer.begin("setup", "bench", SimTime{}, 0, 0);

  SessionsWorld world{config.seed, config.workers};

  // The benchmark's own membership model: a replay of every effective
  // primary mutation. Setup-time seeds land in one log; run-time mutations
  // are appended to the log of the shard that executed them, so parallel
  // shard workers never share a vector. Each collection lives on one
  // primary (one shard), so per-collection order survives the split.
  const std::size_t lanes =
      world.sim.sharded() ? world.sim.shard_count() + 1 : 1;
  std::vector<Mutation> setup_log;
  std::vector<std::vector<Mutation>> run_logs(lanes);
  bool running = false;
  world.repo->add_mutation_observer(
      [&](CollectionId id, CollectionOp::Kind kind, ObjectRef ref) {
        if (!running) {
          setup_log.push_back(Mutation{id, kind, ref});
        } else {
          run_logs[world.sim.sharded() ? shardctx::current : 0].push_back(
              Mutation{id, kind, ref});
        }
      });

  load::LoadOptions options;
  options.sessions = kSessions;
  options.tenants = kTenants;
  options.collections_per_tenant = kCollectionsPerTenant;
  options.objects_per_collection = kObjectsPerCollection;
  options.mode = load::ArrivalMode::kOpenLoop;
  options.mean_interarrival = kMeanInterarrival;
  options.ops_per_session = kOpsPerSession;
  options.op_interval = kOpInterval;
  options.rpc_timeout = Duration::seconds(1);
  options.seed = config.seed;
  options.metrics = &world.metrics;
  load::LoadEngine engine{*world.repo, world.gateways, options};
  {
    // Seeding appends to the servers' WALs, and the first append arms each
    // server's checkpoint timer on the current shard. Built from the calling
    // thread's shard 0, the checkpoint would later run there, concurrently
    // with the server's own shard; the serial shard runs it alone instead.
    ShardGuard guard{world.sim.serial_shard()};
    engine.build();
  }
  tracer.end(setup_span, world.sim.now());
  result.setup_wall_s = setup_clock.seconds();

  // The engine's iterate ops fold their iterator stats into the
  // process-global registry; the round's share is the difference.
  const obs::MetricsRegistry& global = obs::global();
  const std::string iter = "iter." +
                           std::string{to_string(Semantics::kFig1Immutable)} +
                           ".";
  const auto iter_counters = [&global, &iter] {
    return std::array<std::uint64_t, 4>{
        global.counter(iter + "prefetch_hits"),
        global.counter(iter + "prefetch_misses"),
        global.counter(iter + "membership_reads"),
        global.counter(iter + "invocations")};
  };
  const std::array<std::uint64_t, 4> iter_before = iter_counters();

  running = true;
  const std::uint64_t run_span =
      tracer.begin("load.run", "load", world.sim.now(), 0, 1);
  const Stopwatch run_clock;
  engine.run_to_completion();
  result.run_wall_s = run_clock.seconds();
  tracer.end(run_span, world.sim.now());
  running = false;
  world.repo->stop_all_daemons();

  const load::LoadStats stats = engine.stats();
  const obs::MetricsRegistry& reg = world.metrics;
  result.attempted = stats.ops_offered;
  result.failed = stats.ops_overloaded + stats.ops_failed;
  result.events = world.sim.events_processed();
  result.rpc_calls = world.net->stats().calls;

  // -- checks -----------------------------------------------------------------
  auto& errors = result.errors;
  if (stats.ops_offered !=
      stats.ops_ok + stats.ops_overloaded + stats.ops_failed) {
    errors.push_back("sessions: offered != ok + overloaded + failed");
  }
  if (stats.sessions_started != kSessions ||
      stats.sessions_finished != kSessions) {
    errors.push_back("sessions: not every session started and finished");
  }
  if (reg.counter("store.admission.shed") != 0) {
    errors.push_back("sessions: admission shed requests below the shed point");
  }
  if (hist_max(reg, "store.admission.queue_depth") <= 1.0) {
    errors.push_back("sessions: admission queues never formed (depth <= 1)");
  }

  // After quiescence, a read_all of every collection must equal the replay.
  std::map<CollectionId, std::set<ObjectRef>> model;
  const auto replay = [&model](const std::vector<Mutation>& log) {
    for (const Mutation& m : log) {
      if (m.kind == CollectionOp::Kind::kAdd) {
        model[m.id].insert(m.ref);
      } else {
        model[m.id].erase(m.ref);
      }
    }
  };
  replay(setup_log);
  for (const auto& log : run_logs) replay(log);
  if (config.fault == "sessions-drop-mutation") {
    // Planted fault: forget one observed mutation of the model.
    for (auto& [id, members] : model) {
      if (!members.empty()) {
        members.erase(members.begin());
        break;
      }
    }
  }

  std::vector<Result<std::vector<ObjectRef>>> reads;
  {
    const NodeId reader = world.gateways[0];
    ShardGuard guard{world.sim.sharded() ? world.sim.node_shard(reader.raw())
                                         : 0};
    RepositoryClient client{*world.repo, reader,
                            [&world] {
                              ClientOptions o;
                              o.metrics = &world.metrics;
                              return o;
                            }()};
    run_task(world.sim,
             read_every_collection(client, engine.collections(), reads));
    world.sim.run();
  }
  Digest digest;
  for (std::size_t i = 0; i < engine.collections().size(); ++i) {
    const CollectionId id = engine.collections()[i];
    if (!reads[i]) {
      errors.push_back("sessions: final read_all failed");
      continue;
    }
    std::vector<ObjectRef> got = reads[i].value();
    std::sort(got.begin(), got.end());
    const std::set<ObjectRef>& want = model[id];
    if (got != std::vector<ObjectRef>(want.begin(), want.end())) {
      errors.push_back("sessions: read_all of collection " +
                       std::to_string(i) +
                       " differs from the replayed mutation log");
    }
    digest.add(i);
    digest.add_members(std::move(got));
  }
  if (config.fault == "sessions-alter-digest") digest.add(0xbad);
  result.digest = digest.value();

  result.notes.push_back(
      "sessions: " + std::to_string(stats.ops_offered) + " ops offered, " +
      std::to_string(stats.ops_ok) + " ok; admission queue depth max " +
      std::to_string(static_cast<int>(
          hist_max(reg, "store.admission.queue_depth"))) +
      " of " + std::to_string(kMaxQueueDepth) + ", " +
      std::to_string(reg.counter("store.admission.shed")) + " shed");

  // -- metrics ----------------------------------------------------------------
  result.sim["op_p50_ms"] = hist_ms(reg, "load.op_latency_ns", 0.50);
  result.sim["op_p99_ms"] = hist_ms(reg, "load.op_latency_ns", 0.99);
  result.sim["op_samples"] = hist_count(reg, "load.op_latency_ns");
  result.sim["session_op_p50_ms"] = result.sim["op_p50_ms"];
  result.sim["session_op_p99_ms"] = result.sim["op_p99_ms"];
  result.sim["ops_offered"] = static_cast<double>(stats.ops_offered);
  result.sim["ops_ok"] = static_cast<double>(stats.ops_ok);
  result.sim["elements_yielded"] = static_cast<double>(stats.elements_yielded);
  result.sim["sim_elapsed_ms"] = ms(world.sim.now() - SimTime{});
  result.sim["events"] = static_cast<double>(result.events);
  result.sim["rpc_calls"] = static_cast<double>(result.rpc_calls);

  const double writes =
      static_cast<double>(reg.counter("store.server.adds_applied") +
                          reg.counter("store.server.removes_applied"));
  fill_common_layers(result, reg, writes);
  result.layer["load.ops_offered"] = static_cast<double>(stats.ops_offered);
  const std::array<std::uint64_t, 4> iter_after = iter_counters();
  const auto iter_delta = [&](std::size_t i) {
    return static_cast<double>(iter_after[i] - iter_before[i]);
  };
  result.layer["core.prefetch_hit_ratio"] =
      ratio(iter_delta(0), iter_delta(0) + iter_delta(1));
  result.layer["core.membership_reads_per_next"] =
      ratio(iter_delta(2), iter_delta(3));
  result.spans = tracer.take();
  return result;
}

}  // namespace perfbench
