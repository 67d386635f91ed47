// Tests for the population-scale workload engine (src/load, DESIGN.md
// decision 15): Zipfian sampler determinism and skew, open- and closed-loop
// session accounting, run-level determinism, and the admission-control
// overload contract — under 2x offered load the server sheds with explicit
// kOverloaded rejections and bounded queues instead of letting latency
// collapse into the RPC timeout.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "load/workload.hpp"
#include "load/zipf.hpp"
#include "net/rpc.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "store/repository.hpp"
#include "util/rng.hpp"
#include "util/shard.hpp"

namespace weakset::load {
namespace {

// ---------------------------------------------------------------------------
// Zipfian sampler

TEST(ZipfTest, SameSeedSameSequence) {
  const ZipfianSampler zipf{64, 0.99};
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(zipf.sample(a), zipf.sample(b)) << "draw " << i;
  }
}

TEST(ZipfTest, DifferentSeedsDiverge) {
  const ZipfianSampler zipf{64, 0.99};
  Rng a{1};
  Rng b{2};
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (zipf.sample(a) != zipf.sample(b)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(ZipfTest, SamplesStayInRange) {
  const ZipfianSampler zipf{7, 0.5};
  Rng rng{9};
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.sample(rng), 7u);
  }
}

TEST(ZipfTest, RankZeroIsMostPopular) {
  constexpr std::size_t kRanks = 8;
  const ZipfianSampler zipf{kRanks, 0.99};
  Rng rng{7};
  std::array<std::uint64_t, kRanks> counts{};
  for (int i = 0; i < 50'000; ++i) ++counts[zipf.sample(rng)];
  // Rank 0 dominates and the head outweighs the tail — the skew that makes
  // per-tenant hot collections (and hence admission contention) realistic.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()), counts.begin());
  EXPECT_GT(counts[0], 3 * counts[kRanks - 1]);
  EXPECT_GT(counts[0] + counts[1],
            counts[kRanks - 2] + counts[kRanks - 1]);
}

TEST(ZipfTest, SingleRankDegenerates) {
  const ZipfianSampler zipf{1, 0.99};
  Rng rng{3};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

// ---------------------------------------------------------------------------
// LoadEngine world

struct LoadWorld {
  explicit LoadWorld(StoreServerOptions sopts = {}) {
    for (int i = 0; i < 3; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    for (int i = 0; i < 2; ++i) {
      gateways.push_back(topo.add_node("gw" + std::to_string(i)));
    }
    topo.connect_full_mesh(Duration::millis(2));
    sopts.metrics = &metrics;
    for (const NodeId node : servers) repo.add_server(node, sopts);
  }

  ~LoadWorld() {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind
  }

  Simulator sim;
  Topology topo;
  obs::MetricsRegistry metrics;
  std::vector<NodeId> servers;
  std::vector<NodeId> gateways;
  RpcNetwork net{sim, topo, Rng{17}};
  Repository repo{net};
};

LoadOptions small_options() {
  LoadOptions options;
  options.sessions = 40;
  options.tenants = 3;
  options.collections_per_tenant = 4;
  options.ops_per_session = 6;
  options.mean_interarrival = Duration::millis(1);
  options.think_time = Duration::millis(2);
  options.op_interval = Duration::millis(2);
  options.seed = 5;
  return options;
}

void expect_consistent(const LoadStats& stats, const LoadOptions& options) {
  EXPECT_EQ(stats.sessions_started, options.sessions);
  EXPECT_EQ(stats.sessions_finished, options.sessions);
  EXPECT_EQ(stats.ops_offered,
            stats.ops_ok + stats.ops_overloaded + stats.ops_failed);
  // Lifetime is uniform in [ops/2, ops*3/2]: every session issues >= 1 op.
  EXPECT_GE(stats.ops_offered, options.sessions);
  EXPECT_GT(stats.ops_ok, 0u);
}

TEST(LoadEngineTest, ClosedLoopAccounting) {
  LoadWorld world;
  LoadOptions options = small_options();
  options.mode = ArrivalMode::kClosedLoop;
  options.metrics = &world.metrics;
  LoadEngine engine{world.repo, world.gateways, options};
  engine.build();
  EXPECT_EQ(engine.collections().size(),
            options.tenants * options.collections_per_tenant);
  engine.run_to_completion();

  const LoadStats stats = engine.stats();
  expect_consistent(stats, options);
  // Admission is off: nothing can be shed, and a healthy network with no
  // chaos means nothing fails either.
  EXPECT_EQ(stats.ops_overloaded, 0u);
  EXPECT_EQ(stats.ops_failed, 0u);
  EXPECT_GT(stats.elements_yielded, 0u);
  EXPECT_EQ(world.metrics.counter("load.ops_ok"), stats.ops_ok);
  EXPECT_EQ(world.metrics.counter("load.sessions_finished"),
            stats.sessions_finished);
}

TEST(LoadEngineTest, OpenLoopAccounting) {
  LoadWorld world;
  LoadOptions options = small_options();
  options.mode = ArrivalMode::kOpenLoop;
  options.metrics = &world.metrics;
  LoadEngine engine{world.repo, world.gateways, options};
  engine.build();
  engine.run_to_completion();

  const LoadStats stats = engine.stats();
  expect_consistent(stats, options);
  EXPECT_EQ(stats.ops_overloaded, 0u);
  EXPECT_EQ(stats.ops_failed, 0u);
  const auto* latency = world.metrics.histogram("load.op_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), stats.ops_offered);
}

TEST(LoadEngineTest, ShardedBuildNeedsNoCallerGuard) {
  // build() seeds collections, arming every server's checkpoint timer. It
  // must home that work on the serial shard itself: seeded from the driver
  // thread's shard 0, checkpoints ran on shard 0 while each server handled
  // RPCs on its own shard — a data race, and event counts that differed
  // between same-seed runs.
  struct Outcome {
    std::uint64_t events = 0;
    std::string telemetry;
  };
  auto run = [] {
    Simulator sim;
    Topology topo;
    obs::MetricsRegistry metrics;
    std::vector<NodeId> servers;
    std::vector<NodeId> gateways;
    for (int i = 0; i < 3; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    for (int i = 0; i < 2; ++i) {
      gateways.push_back(topo.add_node("gw" + std::to_string(i)));
    }
    topo.connect_full_mesh(Duration::millis(2));
    const auto nodes = static_cast<std::uint32_t>(topo.node_count());
    sim.configure_shards(nodes, /*workers=*/4, Duration::millis(2));
    for (std::uint32_t n = 0; n < nodes; ++n) sim.assign_node_shard(n, n);
    obs::global().enable_sharding(nodes + 1);  // + the serial shard
    metrics.enable_sharding(nodes + 1);
    RpcOptions rpc_options;
    rpc_options.metrics = &metrics;
    RpcNetwork net{sim, topo, Rng{17}, rpc_options};
    Repository repo{net};
    StoreServerOptions sopts;
    sopts.metrics = &metrics;
    // Checkpoints inside the run, while the servers are busy.
    sopts.durability.checkpoint_interval = Duration::millis(5);
    for (const NodeId node : servers) {
      ShardGuard guard{sim.node_shard(node.raw())};
      repo.add_server(node, sopts);
    }
    LoadOptions options = small_options();
    options.mode = ArrivalMode::kOpenLoop;
    options.metrics = &metrics;
    LoadEngine engine{repo, gateways, options};
    engine.build();  // deliberately no ShardGuard here
    engine.run_to_completion();
    expect_consistent(engine.stats(), options);
    repo.stop_all_daemons();
    sim.run();
    return Outcome{sim.events_processed(), metrics.to_json()};
  };
  const Outcome first = run();
  const Outcome second = run();
  EXPECT_GT(first.events, 0u);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.telemetry, second.telemetry);
  // The seeding's WAL appends did arm checkpoints, and they ran.
  EXPECT_NE(first.telemetry.find("\"wal.checkpoints\""), std::string::npos);
}

TEST(LoadEngineTest, SameSeedIsDeterministic) {
  auto run = [](ArrivalMode mode) {
    LoadWorld world;
    LoadOptions options = small_options();
    options.mode = mode;
    options.metrics = &world.metrics;
    LoadEngine engine{world.repo, world.gateways, options};
    engine.build();
    engine.run_to_completion();
    return world.metrics.to_json();
  };
  EXPECT_EQ(run(ArrivalMode::kClosedLoop), run(ArrivalMode::kClosedLoop));
  EXPECT_EQ(run(ArrivalMode::kOpenLoop), run(ArrivalMode::kOpenLoop));
}

// ---------------------------------------------------------------------------
// Overload: shed, don't collapse

StoreServerOptions overloaded_server(AdmissionPolicy policy) {
  StoreServerOptions sopts;
  sopts.admission.enabled = true;
  sopts.admission.policy = policy;
  sopts.admission.max_concurrency = 2;
  sopts.admission.max_queue_depth = 4;
  return sopts;
}

LoadOptions overload_options() {
  LoadOptions options = small_options();
  options.mode = ArrivalMode::kOpenLoop;
  options.sessions = 60;
  options.ops_per_session = 10;
  // Arrivals and op timers far faster than 2 service slots can drain:
  // sustained >= 2x offered-vs-capacity overload at every server.
  options.mean_interarrival = Duration::micros(200);
  options.op_interval = Duration::micros(400);
  return options;
}

struct OverloadRun {
  LoadStats stats;
  std::int64_t p99_ns = 0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::int64_t max_queue_depth = 0;
};

OverloadRun run_overloaded(AdmissionPolicy policy) {
  LoadWorld world{overloaded_server(policy)};
  LoadOptions options = overload_options();
  options.metrics = &world.metrics;
  LoadEngine engine{world.repo, world.gateways, options};
  engine.build();
  engine.run_to_completion();

  OverloadRun run;
  run.stats = engine.stats();
  const auto* latency = world.metrics.histogram("load.op_latency_ns");
  run.p99_ns = latency == nullptr ? 0 : latency->percentile(0.99);
  run.offered = world.metrics.counter("store.admission.offered");
  run.admitted = world.metrics.counter("store.admission.admitted");
  run.shed = world.metrics.counter("store.admission.shed");
  const auto* depth = world.metrics.histogram("store.admission.queue_depth");
  run.max_queue_depth = depth == nullptr ? 0 : depth->max();
  // Once the run drains, every server's admission queue must be empty and
  // all service slots returned (RAII tickets).
  for (const NodeId node : world.servers) {
    const auto& admission = world.repo.server_at(node)->admission();
    EXPECT_EQ(admission.queued(), 0u);
    EXPECT_EQ(admission.in_service(), 0u);
  }
  return run;
}

TEST(LoadEngineTest, OverloadShedsExplicitlyWithBoundedQueues) {
  const OverloadRun reject = run_overloaded(AdmissionPolicy::kReject);
  expect_consistent(reject.stats, overload_options());

  // The controller accounted for every request it saw, shed a meaningful
  // share, and the load engine surfaced those sheds as explicit kOverloaded
  // outcomes (not generic failures).
  EXPECT_EQ(reject.offered, reject.admitted + reject.shed);
  EXPECT_GT(reject.shed, 0u);
  EXPECT_GT(reject.stats.ops_overloaded, 0u);
  EXPECT_GT(reject.stats.ops_ok, 0u);

  // Bounded queues: the recorded per-tenant depth never exceeded the cap.
  EXPECT_LE(reject.max_queue_depth,
            static_cast<std::int64_t>(
                overloaded_server(AdmissionPolicy::kReject)
                    .admission.max_queue_depth));

  // Shedding keeps admitted-path latency bounded well under the RPC
  // timeout: queue wait is at most depth * service time, not unbounded.
  EXPECT_LT(reject.p99_ns,
            overload_options().rpc_timeout.count_nanos() / 2);
}

TEST(LoadEngineTest, ShedOldestAlsoBoundsQueues) {
  const OverloadRun shed = run_overloaded(AdmissionPolicy::kShedOldest);
  EXPECT_EQ(shed.offered, shed.admitted + shed.shed);
  EXPECT_GT(shed.shed, 0u);
  EXPECT_GT(shed.stats.ops_overloaded, 0u);
  EXPECT_GT(shed.stats.ops_ok, 0u);
  EXPECT_LE(shed.max_queue_depth,
            static_cast<std::int64_t>(
                overloaded_server(AdmissionPolicy::kShedOldest)
                    .admission.max_queue_depth));
}

TEST(LoadEngineTest, UnboundedQueueingIsWorseThanShedding) {
  const OverloadRun unbounded = run_overloaded(AdmissionPolicy::kUnbounded);
  const OverloadRun reject = run_overloaded(AdmissionPolicy::kReject);

  // Unbounded admission never sheds — requests pile up in the queue
  // instead, so tail latency collapses toward (or into) the RPC timeout.
  EXPECT_EQ(unbounded.shed, 0u);
  EXPECT_EQ(unbounded.stats.ops_overloaded, 0u);
  EXPECT_GT(unbounded.max_queue_depth, reject.max_queue_depth);
  EXPECT_GT(unbounded.p99_ns, reject.p99_ns);
  // Goodput of work the clients still cared about (did not time out) is no
  // better than what honest shedding achieves.
  EXPECT_GE(reject.stats.ops_ok + reject.stats.ops_overloaded,
            unbounded.stats.ops_ok);
}

}  // namespace
}  // namespace weakset::load
