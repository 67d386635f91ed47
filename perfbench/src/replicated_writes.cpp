// replicated-writes: the write side beside the other workloads' reads.
//
// Closed-loop writer coroutines insert and remove on 3-way replicated
// fragments covering all three replication paths (home-primary pull,
// home-primary push, OR-Set), plus unreplicated home-primary fragments.
// Every object has exactly one writer, so each writer's last acknowledged op
// is the truth for its objects. durable_acks and the block engine are on;
// one reader calls read_all at a low rate. After the writers stop, every
// fragment is moved once with the migration engine, then one replica host
// is crashed with amnesia and restarted.
//
// Moves of replicated fragments are refused by the program today (the
// migration engine stays put on any fragment with replicas; OR-Set and
// push-replicated fragments are also refused by migration_blocked). Those
// moves stay in the workload as attempted-and-failed operations: they fail
// on every seed, in the same number every round, and start succeeding the
// day replicated fragments can move.
//
// Checks:
//   - after convergence every host of every fragment holds exactly what the
//     writers last acknowledged;
//   - after the amnesia crash and restart, the recovered host holds every
//     acknowledged write as soon as it serves again;
//   - every committed move keeps its fragment's membership.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "placement/migration.hpp"
#include "store/client.hpp"
#include "store/repository.hpp"

namespace perfbench {
namespace {

using namespace weakset;

constexpr int kServers = 4;
/// Servers 0..2 replicate by pull; server 3's primaries also push.
constexpr int kPushServer = 3;
constexpr int kObjectsPerFragment = 24;
constexpr int kWriters = 6;
constexpr int kWritesPerWriter = 400;
constexpr int kReads = 120;
constexpr Duration kWriterThink = Duration::millis(2);
constexpr Duration kReaderThink = Duration::millis(25);
/// Granularity of the convergence and recovery watches (simulated time).
constexpr Duration kConvergePoll = Duration::micros(500);
constexpr Duration kRecoveryPoll = Duration::micros(100);
constexpr Duration kConvergeLimit = Duration::seconds(3);
/// The host that is crashed with amnesia: it holds pull, push and OR-Set
/// replicas.
constexpr int kCrashServer = 1;
constexpr Duration kDowntime = Duration::millis(20);

enum class Path { kPull, kPush, kOrSet, kSolo };

const char* path_name(Path p) {
  switch (p) {
    case Path::kPull:
      return "pull";
    case Path::kPush:
      return "push";
    case Path::kOrSet:
      return "orset";
    case Path::kSolo:
      return "solo";
  }
  return "?";
}

struct Fragment {
  Path path;
  CollectionId id;
  std::vector<NodeId> hosts;  // primary (anchor) first
  std::vector<ObjectRef> pool;
  std::set<ObjectRef> model;  // what the writers last acknowledged
  SimTime last_ack;
  std::optional<SimTime> agreed_at;  // first agreement after last_ack
};

struct WritesWorld {
  explicit WritesWorld(std::uint64_t seed) {
    client = topo.add_node("client");
    for (int i = 0; i < kServers; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    for (int i = 0; i < kServers; ++i) {
      const NodeId s = servers[static_cast<std::size_t>(i)];
      topo.connect(client, s, Duration::millis(5 + 5 * i));
      for (int j = i + 1; j < kServers; ++j) {
        topo.connect(s, servers[static_cast<std::size_t>(j)],
                     Duration::millis(10));
      }
    }
    topo.set_routing(Topology::Routing::kDirectOnly);
    RpcOptions rpc;
    rpc.metrics = &metrics;
    net = std::make_unique<RpcNetwork>(sim, topo, Rng{seed}, rpc);
    repo = std::make_unique<Repository>(*net);
    for (int i = 0; i < kServers; ++i) {
      StoreServerOptions options;
      options.metrics = &metrics;
      options.push_replication = i == kPushServer;
      options.durability.durable_acks = true;
      options.durability.block.enabled = true;
      repo->add_server(servers[static_cast<std::size_t>(i)], options);
    }
    for (const NodeId node : servers) {
      placement::MigrationEngineOptions options;
      options.metrics = &metrics;
      engines.push_back(
          std::make_unique<placement::MigrationEngine>(*repo, node, options));
    }
  }
  ~WritesWorld() { repo->stop_all_daemons(); }

  [[nodiscard]] placement::MigrationEngine& engine_at(NodeId node) {
    for (auto& engine : engines) {
      if (engine->node() == node) return *engine;
    }
    std::abort();
  }

  Simulator sim;
  Topology topo;
  obs::MetricsRegistry metrics;
  NodeId client;
  std::vector<NodeId> servers;
  std::unique_ptr<RpcNetwork> net;
  std::unique_ptr<Repository> repo;
  std::vector<std::unique_ptr<placement::MigrationEngine>> engines;
};

/// Membership a host serves for `f`, sorted; nullopt when it hosts nothing
/// live for it.
std::optional<std::vector<ObjectRef>> host_members(WritesWorld& world,
                                                   const Fragment& f,
                                                   NodeId host) {
  StoreServer* server = world.repo->server_at(host);
  if (f.path == Path::kOrSet) {
    const crdt::OrSet* set = server->orset_state(f.id);
    if (set == nullptr) return std::nullopt;
    return set->members();
  }
  const CollectionState* state = server->collection(f.id);
  if (state == nullptr || server->is_retired(f.id)) return std::nullopt;
  std::vector<ObjectRef> members = state->members();
  std::sort(members.begin(), members.end());
  return members;
}

bool hosts_agree(WritesWorld& world, const Fragment& f,
                 const std::set<ObjectRef>& want) {
  const std::vector<ObjectRef> expected(want.begin(), want.end());
  for (const NodeId host : f.hosts) {
    const auto members = host_members(world, f, host);
    if (!members || *members != expected) return false;
  }
  return true;
}

struct Round {
  WritesWorld& world;
  Tracer& tracer;
  std::vector<Fragment> fragments;
  std::vector<std::int64_t> ack_ns;
  std::uint64_t next_op = 0;
  int active = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> read_ms;
};

/// One writer: toggles the membership of objects it alone owns.
Task<void> writer(Round& round, int index, std::uint64_t seed) {
  Simulator& sim = round.world.sim;
  Rng rng{seed};
  ClientOptions options;
  options.metrics = &round.world.metrics;
  RepositoryClient client{*round.world.repo, round.world.client, options};
  // Owned objects: (fragment, pool slot) pairs dealt round-robin.
  std::vector<std::pair<std::size_t, std::size_t>> owned;
  std::size_t k = 0;
  for (std::size_t f = 0; f < round.fragments.size(); ++f) {
    for (std::size_t j = 0; j < round.fragments[f].pool.size(); ++j, ++k) {
      if (k % kWriters == static_cast<std::size_t>(index)) {
        owned.emplace_back(f, j);
      }
    }
  }
  for (int w = 0; w < kWritesPerWriter; ++w) {
    co_await sim.delay(rng.exponential(kWriterThink));
    const auto [f, j] = owned[rng.uniform(owned.size())];
    Fragment& frag = round.fragments[f];
    const ObjectRef ref = frag.pool[j];
    const bool add = !frag.model.contains(ref);
    const std::uint64_t op = ++round.next_op;
    const std::uint64_t span = round.tracer.begin(
        add ? "add" : "remove", "store.client", sim.now(), 0, op);
    const SimTime t0 = sim.now();
    ++round.attempted;
    Result<bool> changed{false};
    if (add) {
      changed = co_await client.add(frag.id, ref);
    } else {
      changed = co_await client.remove(frag.id, ref);
    }
    round.tracer.end(span, sim.now());
    if (!changed) {
      ++round.failed;
      continue;
    }
    round.ack_ns.push_back((sim.now() - t0).count_nanos());
    if (!changed.value()) {
      round.errors.push_back(
          "replicated-writes: a single-writer toggle did not change "
          "membership");
    }
    if (add) {
      frag.model.insert(ref);
    } else {
      frag.model.erase(ref);
    }
    frag.last_ack = sim.now();
    frag.agreed_at.reset();
  }
  --round.active;
}

/// Low-rate reader: read_all of a random fragment; every member it returns
/// must come from that fragment's pool.
Task<void> reader(Round& round, std::uint64_t seed) {
  Simulator& sim = round.world.sim;
  Rng rng{seed};
  ClientOptions options;
  options.metrics = &round.world.metrics;
  RepositoryClient client{*round.world.repo, round.world.client, options};
  for (int r = 0; r < kReads; ++r) {
    co_await sim.delay(rng.exponential(kReaderThink));
    const Fragment& frag =
        round.fragments[rng.uniform(round.fragments.size())];
    const std::uint64_t op = ++round.next_op;
    const std::uint64_t span =
        round.tracer.begin("read_all", "store.client", sim.now(), 0, op);
    const SimTime t0 = sim.now();
    ++round.attempted;
    const Result<std::vector<ObjectRef>> members =
        co_await client.read_all(frag.id);
    round.tracer.end(span, sim.now());
    if (!members) {
      ++round.failed;
      continue;
    }
    round.read_ms.push_back(ms(sim.now() - t0));
    const std::set<ObjectRef> pool(frag.pool.begin(), frag.pool.end());
    for (const ObjectRef ref : members.value()) {
      if (!pool.contains(ref)) {
        round.errors.push_back(
            "replicated-writes: read_all returned a foreign element");
        break;
      }
    }
  }
  --round.active;
}

/// Steps the simulation in `poll` increments while `keep_going()` holds,
/// calling `watch()` after every increment.
template <typename Pred, typename Watch>
void poll_while(Simulator& sim, Duration poll, Pred keep_going, Watch watch) {
  while (keep_going()) {
    sim.run_until(sim.now() + poll);
    watch();
  }
}

void watch_convergence(Round& round) {
  for (Fragment& f : round.fragments) {
    if (!f.agreed_at && hosts_agree(round.world, f, f.model)) {
      f.agreed_at = round.world.sim.now();
    }
  }
}

}  // namespace

RoundResult run_replicated_writes(const RoundConfig& config) {
  RoundResult result;
  Tracer tracer{config.trace};
  const Stopwatch setup_clock;
  const std::uint64_t setup_span =
      tracer.begin("setup", "bench", SimTime{}, 0, 0);

  WritesWorld world{config.seed};
  Round round{world, tracer};
  Rng rng{config.seed ^ 0x5e7d1ull};
  const auto server = [&world](int i) {
    return world.servers[static_cast<std::size_t>(i % kServers)];
  };
  const auto add_fragment = [&](Path path, NodeId primary,
                                std::vector<NodeId> replicas) {
    Fragment f;
    f.path = path;
    f.id = world.repo->create_collection(
        {primary}, path == Path::kOrSet ? ReplicationMode::kOrSet
                                        : ReplicationMode::kHomePrimary);
    f.hosts.push_back(primary);
    for (const NodeId r : replicas) {
      world.repo->add_replica(f.id, 0, r);
      f.hosts.push_back(r);
    }
    for (int j = 0; j < kObjectsPerFragment; ++j) {
      const ObjectRef ref = world.repo->create_object(
          server(static_cast<int>(rng.uniform(kServers))),
          std::string{path_name(path)} + "-" + std::to_string(j));
      f.pool.push_back(ref);
      if (rng.bernoulli(0.5)) {
        world.repo->seed_member(f.id, ref);
        f.model.insert(ref);
      }
    }
    round.fragments.push_back(std::move(f));
  };
  for (int i = 0; i < 3; ++i) {
    add_fragment(Path::kPull, server(i), {server(i + 1), server(i + 2)});
  }
  for (int i = 0; i < 2; ++i) {
    add_fragment(Path::kPush, server(kPushServer), {server(i), server(i + 1)});
  }
  for (int i = 0; i < 3; ++i) {
    // OR-Set hosts stay on the pull-only servers 0..2.
    add_fragment(Path::kOrSet, server(i), {server((i + 1) % 3),
                                           server((i + 2) % 3)});
  }
  for (int i = 0; i < 3; ++i) add_fragment(Path::kSolo, server(i), {});
  tracer.end(setup_span, world.sim.now());
  result.setup_wall_s = setup_clock.seconds();

  // -- write phase ------------------------------------------------------------
  const Stopwatch run_clock;
  // Replicas and peers absorb the seeds before the writers start.
  world.sim.run_until(world.sim.now() + Duration::millis(200));
  for (Fragment& f : round.fragments) f.last_ack = world.sim.now();
  round.active = kWriters + 1;
  for (int w = 0; w < kWriters; ++w) {
    world.sim.spawn(writer(round, w, config.seed * 131 + 7 * w + 1));
  }
  world.sim.spawn(reader(round, config.seed ^ 0xa11));
  poll_while(
      world.sim, kConvergePoll, [&round] { return round.active > 0; },
      [&round] { watch_convergence(round); });

  if (config.fault == "writes-drop-acked") {
    // Forget one acknowledged write: flip one object back in the model.
    Fragment& f = round.fragments.front();
    const ObjectRef ref = f.pool.front();
    if (f.model.contains(ref)) {
      f.model.erase(ref);
    } else {
      f.model.insert(ref);
    }
    f.agreed_at.reset();
  }

  // -- convergence ------------------------------------------------------------
  const SimTime writes_done = world.sim.now();
  const auto unconverged = [&round] {
    return std::any_of(round.fragments.begin(), round.fragments.end(),
                       [](const Fragment& f) { return !f.agreed_at; });
  };
  poll_while(
      world.sim, kConvergePoll,
      [&] {
        return unconverged() &&
               world.sim.now() - writes_done < kConvergeLimit;
      },
      [&round] { watch_convergence(round); });
  std::vector<double> convergence;
  for (const Fragment& f : round.fragments) {
    if (!f.agreed_at || !hosts_agree(world, f, f.model)) {
      round.errors.push_back(
          std::string{"replicated-writes: a "} + path_name(f.path) +
          " fragment's hosts do not hold what the writers acknowledged");
      continue;
    }
    convergence.push_back(ms(*f.agreed_at - f.last_ack));
  }

  // -- moves ------------------------------------------------------------------
  std::vector<double> move_ms;
  std::uint64_t moves_committed = 0;
  std::map<std::string, std::map<std::string, int>> move_outcomes;
  for (Fragment& f : round.fragments) {
    const NodeId source = world.repo->meta(f.id).fragments()[0].primary();
    NodeId target = NodeId::invalid();
    for (const NodeId s : world.servers) {
      if (std::find(f.hosts.begin(), f.hosts.end(), s) == f.hosts.end()) {
        target = s;
        break;
      }
    }
    const std::uint64_t op = ++round.next_op;
    const std::uint64_t span =
        tracer.begin("migrate", "placement", world.sim.now(), 0, op);
    const SimTime t0 = world.sim.now();
    ++round.attempted;
    const Result<std::uint64_t> moved =
        run_task(world.sim, world.engine_at(source).migrate(f.id, 0, target));
    tracer.end(span, world.sim.now());
    ++move_outcomes[path_name(f.path)][moved ? std::string{"committed"}
                                             : moved.error().detail];
    if (!moved) {
      ++round.failed;
      if (f.path == Path::kSolo ||
          moved.error().kind != FailureKind::kExhausted) {
        round.errors.push_back(std::string{"replicated-writes: moving a "} +
                               path_name(f.path) + " fragment failed: " +
                               moved.error().detail);
      }
      continue;
    }
    ++moves_committed;
    move_ms.push_back(ms(world.sim.now() - t0));
    std::replace(f.hosts.begin(), f.hosts.end(), source, target);
    std::set<ObjectRef> want = f.model;
    if (config.fault == "writes-move-changes-membership") {
      want.erase(want.begin());
    }
    if (world.repo->meta(f.id).fragments()[0].primary() != target ||
        !hosts_agree(world, f, want)) {
      round.errors.push_back(
          "replicated-writes: a committed move changed the fragment's "
          "membership");
    }
  }

  // -- amnesia crash and recovery ---------------------------------------------
  const NodeId victim = server(kCrashServer);
  StoreServer* victim_server = world.repo->server_at(victim);
  const std::uint64_t crash_op = ++round.next_op;
  world.topo.crash(victim, Topology::CrashKind::kAmnesia);
  world.sim.run_until(world.sim.now() + kDowntime);
  const SimTime restarted = world.sim.now();
  const std::uint64_t recovery_span =
      tracer.begin("recover", "store.server", restarted, 0, crash_op);
  world.topo.restart(victim);
  poll_while(
      world.sim, kRecoveryPoll,
      [&] {
        return !victim_server->serving() &&
               world.sim.now() - restarted < kConvergeLimit;
      },
      [] {});
  tracer.end(recovery_span, world.sim.now());
  const double recovery_ms = ms(world.sim.now() - restarted);
  if (!victim_server->serving()) {
    round.errors.push_back("replicated-writes: the crashed host never served");
  }
  std::size_t recovered_fragments = 0;
  for (const Fragment& f : round.fragments) {
    if (std::find(f.hosts.begin(), f.hosts.end(), victim) == f.hosts.end()) {
      continue;
    }
    std::set<ObjectRef> want = f.model;
    if (config.fault == "writes-lost-on-recovery" && recovered_fragments == 0) {
      want.erase(want.begin());
    }
    ++recovered_fragments;
    const auto members = host_members(world, f, victim);
    if (!members ||
        *members != std::vector<ObjectRef>(want.begin(), want.end())) {
      round.errors.push_back(
          std::string{"replicated-writes: the recovered host lost "
                      "acknowledged writes of a "} +
          path_name(f.path) + " fragment");
    }
  }
  if (recovered_fragments == 0) {
    round.errors.push_back("replicated-writes: the crashed host held nothing");
  }

  world.sim.run_until(world.sim.now() + Duration::millis(200));
  world.repo->stop_all_daemons();
  world.sim.run();
  result.run_wall_s = run_clock.seconds();

  for (const auto& [path, outcomes] : move_outcomes) {
    std::string note = std::string{"moves of "} + path + " fragments:";
    for (const auto& [outcome, count] : outcomes) {
      note += " " + std::to_string(count) + " " + outcome + ";";
    }
    result.notes.push_back(note);
  }

  // -- accounting and metrics -------------------------------------------------
  result.attempted = round.attempted;
  result.failed = round.failed;
  result.events = world.sim.events_processed();
  result.rpc_calls = world.net->stats().calls;
  result.errors = std::move(round.errors);

  Digest digest;
  for (const Fragment& f : round.fragments) {
    digest.add_members(std::vector<ObjectRef>(f.model.begin(), f.model.end()));
  }
  result.digest = digest.value();

  result.sim["op_p50_ms"] = quantile_ns_as_ms(round.ack_ns, 0.50);
  result.sim["op_p99_ms"] = quantile_ns_as_ms(round.ack_ns, 0.99);
  result.sim["op_samples"] = static_cast<double>(round.ack_ns.size());
  result.sim["write_ack_p50_ms"] = result.sim["op_p50_ms"];
  result.sim["write_ack_p99_ms"] = result.sim["op_p99_ms"];
  result.sim["convergence_ms"] = median(convergence);
  result.sim["recovery_ms"] = recovery_ms;
  result.sim["move_ms"] = median(move_ms);
  result.sim["moves_committed"] = static_cast<double>(moves_committed);
  result.sim["read_all_p50_ms"] = median(round.read_ms);
  result.sim["sim_elapsed_ms"] = ms(world.sim.now() - SimTime{});
  result.sim["events"] = static_cast<double>(result.events);
  result.sim["rpc_calls"] = static_cast<double>(result.rpc_calls);

  fill_common_layers(result, world.metrics,
                     static_cast<double>(round.ack_ns.size()));
  result.spans = tracer.take();
  return result;
}

}  // namespace perfbench
