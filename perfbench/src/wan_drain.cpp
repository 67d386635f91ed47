// wan-drain: the paper's section 1.1 traffic. A few reader coroutines on one
// client node repeatedly drain large collections whose fragments sit on
// servers 2..100 ms away:
//
//   - Figure 1 drains of a collection nobody mutates;
//   - Figure 6 drains, and DynamicSet drains, of collections that a
//     benchmark-side mutator churns while the drains run.
//
// Admission is off and acks are asynchronous, so the iterators, the
// prefetcher, the read_all fan-out and the delta cache do the work.
//
// Checks (all against the benchmark's own records, never the program's):
//   - a Figure 1 drain yields exactly the seeded set;
//   - Figure 6 and DynamicSet drains yield no element twice;
//   - every element they yield was a member at some instant between the
//     drain's first and last invocation, by the mutator's log of acked ops;
//   - every element that was a member for the whole drain is yielded.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/repo_view.hpp"
#include "dynset/dynamic_set.hpp"
#include "store/client.hpp"
#include "store/repository.hpp"

namespace perfbench {
namespace {

using namespace weakset;

constexpr int kServers = 8;
constexpr int kFig1Members = 384;
constexpr int kChurnPool = 384;
constexpr int kChurnInitial = 256;
constexpr int kDrainsPerReader = 6;
constexpr std::size_t kPrefetch = 8;
/// Mutator think time between acked ops (closed loop).
constexpr Duration kMutatorThink = Duration::millis(25);

/// One acked mutator op: `add` tells which way it went; the op took effect
/// at the primary at some instant strictly inside [issued, acked].
struct LoggedOp {
  ObjectRef ref;
  bool add = false;
  SimTime issued;
  SimTime acked;
};

/// A churned collection and everything the benchmark knows about it.
struct Churned {
  CollectionId id;
  std::vector<ObjectRef> pool;
  std::set<ObjectRef> initial;
  std::set<ObjectRef> members;  // the mutator's live model
  std::vector<LoggedOp> log;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Drain {
  SimTime start;
  SimTime end;
  std::optional<SimTime> first_yield;
  std::vector<ObjectRef> yielded;
  bool finished = false;
  std::string failure;
};

enum class ReaderKind { kFig1, kFig6, kDynSet };

struct Reader {
  ReaderKind kind;
  Churned* churned = nullptr;  // null for the Figure 1 reader
  std::unique_ptr<RepositoryClient> client;
  std::unique_ptr<RepoSetView> repo_view;
  std::unique_ptr<TimingView> timing_view;
  SetView* view = nullptr;
  std::uint64_t parent_span = 0;
  std::uint64_t op = 0;
  std::vector<Drain> drains;
  IteratorStats iter;  // summed over drains
  std::uint64_t calls = 0;
};

struct WanWorld {
  explicit WanWorld(std::uint64_t seed) {
    client = topo.add_node("client");
    writer = topo.add_node("writer");
    for (int i = 0; i < kServers; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    // Client-to-server latency ramps 2 ms .. 100 ms: a campus disk next door
    // through an overseas archive. The mutator sits 5 ms from every server.
    for (int i = 0; i < kServers; ++i) {
      const NodeId s = servers[static_cast<std::size_t>(i)];
      topo.connect(client, s, Duration::millis(2 + 98 * i / (kServers - 1)));
      topo.connect(writer, s, Duration::millis(5));
      for (int j = i + 1; j < kServers; ++j) {
        topo.connect(s, servers[static_cast<std::size_t>(j)],
                     Duration::millis(30));
      }
    }
    topo.set_routing(Topology::Routing::kDirectOnly);
    RpcOptions rpc;
    rpc.metrics = &metrics;
    net = std::make_unique<RpcNetwork>(sim, topo, Rng{seed}, rpc);
    repo = std::make_unique<Repository>(*net);
    StoreServerOptions options;
    options.metrics = &metrics;
    for (const NodeId node : servers) repo->add_server(node, options);
  }
  ~WanWorld() { repo->stop_all_daemons(); }

  struct Made {
    CollectionId id;
    std::vector<ObjectRef> pool;
    std::vector<ObjectRef> seeded;
  };

  /// A collection with one fragment per server and `count` fresh objects
  /// homed round-robin; `seeded` of them, drawn from the seed, are members.
  Made make(const std::string& tag, int count, int seeded, Rng& rng) {
    const CollectionId id = repo->create_collection(servers);
    std::vector<ObjectRef> pool;
    for (int i = 0; i < count; ++i) {
      pool.push_back(repo->create_object(
          servers[static_cast<std::size_t>(i) % servers.size()],
          tag + "-" + std::to_string(i)));
    }
    // Which pool objects start as members is drawn from the seed.
    std::vector<ObjectRef> order = pool;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform(i)]);
    }
    for (int i = 0; i < seeded; ++i) {
      repo->seed_member(id, order[static_cast<std::size_t>(i)]);
    }
    order.resize(static_cast<std::size_t>(seeded));
    return Made{id, std::move(pool), std::move(order)};
  }

  Simulator sim;
  Topology topo;
  obs::MetricsRegistry metrics;
  NodeId client;
  NodeId writer;
  std::vector<NodeId> servers;
  std::unique_ptr<RpcNetwork> net;
  std::unique_ptr<Repository> repo;
};

struct Round {
  WanWorld& world;
  Tracer& tracer;
  std::vector<std::int64_t> call_ns;  // every next()/iterate() call
  /// Element delivery times: drain start to the element's yield.
  std::vector<std::int64_t> delivery_ns;
  std::uint64_t next_op = 0;
  int active_readers = 0;
};

/// Closed-loop churn: toggles a random pool object while any reader runs.
Task<void> mutator(Round& round, Churned& c, std::uint64_t seed) {
  Simulator& sim = round.world.sim;
  Rng rng{seed};
  ClientOptions options;
  options.metrics = &round.world.metrics;
  RepositoryClient client{*round.world.repo, round.world.writer, options};
  while (round.active_readers > 0) {
    co_await sim.delay(rng.exponential(kMutatorThink));
    if (round.active_readers == 0) break;
    const ObjectRef ref = rng.pick(c.pool);
    const bool add = !c.members.contains(ref);
    const SimTime issued = sim.now();
    const std::uint64_t span =
        round.tracer.begin(add ? "add" : "remove", "store.client", issued, 0,
                           ++round.next_op);
    ++c.attempted;
    Result<bool> changed{false};
    if (add) {
      changed = co_await client.add(c.id, ref);
    } else {
      changed = co_await client.remove(c.id, ref);
    }
    round.tracer.end(span, sim.now());
    if (!changed || !changed.value()) {
      ++c.failed;
      continue;
    }
    if (add) {
      c.members.insert(ref);
    } else {
      c.members.erase(ref);
    }
    c.log.push_back(LoggedOp{ref, add, issued, sim.now()});
  }
}


/// Figure 1 or Figure 6 drains through the library's iterator.
Task<void> iterator_reader(Round& round, Reader& reader, Semantics semantics) {
  Simulator& sim = round.world.sim;
  Tracer& tracer = round.tracer;
  for (int d = 0; d < kDrainsPerReader; ++d) {
    reader.op = ++round.next_op;
    Drain drain;
    drain.start = sim.now();
    const std::uint64_t drain_span =
        tracer.begin("drain", "bench", drain.start, 0, reader.op);
    IteratorOptions options;
    options.prefetch_window = kPrefetch;
    options.metrics = &round.world.metrics;
    auto it = make_elements_iterator(*reader.view, semantics, options);
    for (;;) {
      const SimTime t0 = sim.now();
      reader.parent_span = tracer.begin("next", "core", t0, drain_span,
                                        reader.op);
      const Step step = co_await it->next();
      tracer.end(reader.parent_span, sim.now());
      round.call_ns.push_back((sim.now() - t0).count_nanos());
      ++reader.calls;
      if (step.is_yield()) {
        if (!drain.first_yield) drain.first_yield = sim.now();
        drain.yielded.push_back(step.ref());
        round.delivery_ns.push_back((sim.now() - drain.start).count_nanos());
        continue;
      }
      drain.finished = step.is_finished();
      if (step.is_failure()) drain.failure = step.failure().detail;
      break;
    }
    drain.end = sim.now();
    tracer.end(drain_span, drain.end);
    const IteratorStats& s = it->stats();
    reader.iter.invocations += s.invocations;
    reader.iter.prefetch_hits += s.prefetch_hits;
    reader.iter.prefetch_misses += s.prefetch_misses;
    reader.iter.membership_reads += s.membership_reads;
    reader.drains.push_back(std::move(drain));
  }
  --round.active_readers;
}

/// DynamicSet drains: open() starts the prefetch engine, iterate() hands
/// out elements in arrival order.
Task<void> dynset_reader(Round& round, Reader& reader) {
  Simulator& sim = round.world.sim;
  Tracer& tracer = round.tracer;
  for (int d = 0; d < kDrainsPerReader; ++d) {
    reader.op = ++round.next_op;
    Drain drain;
    drain.start = sim.now();
    const std::uint64_t drain_span =
        tracer.begin("drain", "bench", drain.start, 0, reader.op);
    // Fetches the engine issues before the first iterate() nest under the
    // drain itself.
    reader.parent_span = drain_span;
    DynSetOptions options;
    options.prefetch_depth = kPrefetch;
    options.metrics = &round.world.metrics;
    auto set = DynamicSet::open(*reader.view, options);
    for (;;) {
      const SimTime t0 = sim.now();
      reader.parent_span = tracer.begin("iterate", "dynset", t0, drain_span,
                                        reader.op);
      const Step step = co_await set->iterate();
      tracer.end(reader.parent_span, sim.now());
      round.call_ns.push_back((sim.now() - t0).count_nanos());
      ++reader.calls;
      if (step.is_yield()) {
        if (!drain.first_yield) drain.first_yield = sim.now();
        drain.yielded.push_back(step.ref());
        round.delivery_ns.push_back((sim.now() - drain.start).count_nanos());
        continue;
      }
      drain.finished = step.is_finished();
      if (step.is_failure()) drain.failure = step.failure().detail;
      break;
    }
    set->close();
    drain.end = sim.now();
    tracer.end(drain_span, drain.end);
    reader.drains.push_back(std::move(drain));
  }
  --round.active_readers;
}

/// What the mutator's log says about `ref` over [a, b]: could it have been a
/// member at some instant, and was it certainly a member throughout?
struct Presence {
  bool possibly = false;
  bool throughout = false;
};

Presence presence(const Churned& c, ObjectRef ref, SimTime a, SimTime b) {
  // The log is in issue order and the op windows never overlap (one
  // closed-loop mutator per collection).
  bool settled = c.initial.contains(ref);  // after every op acked before a
  bool straddled = false;  // an op window contains a: either state may hold
  bool touched = false;    // an op window intersects [a, b]
  bool added_inside = false;
  for (const LoggedOp& op : c.log) {
    if (op.ref != ref) continue;
    if (op.acked < a) {
      settled = op.add;
      continue;
    }
    if (op.issued > b) break;
    touched = true;
    if (op.issued <= a) {
      straddled = true;
    } else if (op.add) {
      added_inside = true;
    }
  }
  Presence p;
  p.possibly = settled || straddled || added_inside;
  p.throughout = settled && !touched;
  return p;
}

void check_weak_drain(const Reader& reader, const Drain& drain,
                      const char* name, std::vector<std::string>& errors) {
  const Churned& c = *reader.churned;
  std::set<ObjectRef> seen;
  for (const ObjectRef ref : drain.yielded) {
    if (!seen.insert(ref).second) {
      errors.push_back(std::string{name} + ": an element was yielded twice");
      return;
    }
    if (!presence(c, ref, drain.start, drain.end).possibly) {
      errors.push_back(std::string{name} +
                       ": yielded an element that was never a member "
                       "during the drain");
      return;
    }
  }
  for (const ObjectRef ref : c.pool) {
    if (!seen.contains(ref) &&
        presence(c, ref, drain.start, drain.end).throughout) {
      errors.push_back(std::string{name} +
                       ": missed an element that was a member for the "
                       "whole drain");
      return;
    }
  }
}

}  // namespace

RoundResult run_wan_drain(const RoundConfig& config) {
  RoundResult result;
  Tracer tracer{config.trace};
  const Stopwatch setup_clock;
  const std::uint64_t setup_span =
      tracer.begin("setup", "bench", SimTime{}, 0, 0);

  WanWorld world{config.seed};
  Rng rng{config.seed ^ 0x3a17d2a1ull};
  const WanWorld::Made fig1 =
      world.make("fig1", kFig1Members, kFig1Members, rng);
  Churned fig6;
  Churned dyn;
  for (Churned* c : {&fig6, &dyn}) {
    WanWorld::Made made = world.make(c == &fig6 ? "fig6" : "dyn", kChurnPool,
                                     kChurnInitial, rng);
    c->id = made.id;
    c->pool = std::move(made.pool);
    c->initial.insert(made.seeded.begin(), made.seeded.end());
    c->members = c->initial;
  }

  Round round{world, tracer};
  std::vector<std::unique_ptr<Reader>> readers;
  const auto add_reader = [&](ReaderKind kind, CollectionId id,
                              Churned* churned) {
    auto reader = std::make_unique<Reader>();
    reader->kind = kind;
    reader->churned = churned;
    ClientOptions options;
    options.metrics = &world.metrics;
    reader->client = std::make_unique<RepositoryClient>(*world.repo,
                                                        world.client, options);
    reader->repo_view = std::make_unique<RepoSetView>(*reader->client, id);
    reader->view = reader->repo_view.get();
    if (tracer.enabled()) {
      reader->timing_view = std::make_unique<TimingView>(
          *reader->repo_view, tracer, reader->parent_span, reader->op);
      reader->view = reader->timing_view.get();
    }
    readers.push_back(std::move(reader));
  };
  add_reader(ReaderKind::kFig1, fig1.id, nullptr);
  add_reader(ReaderKind::kFig6, fig6.id, &fig6);
  add_reader(ReaderKind::kDynSet, dyn.id, &dyn);
  tracer.end(setup_span, world.sim.now());
  result.setup_wall_s = setup_clock.seconds();

  const Stopwatch run_clock;
  round.active_readers = static_cast<int>(readers.size());
  world.sim.spawn(iterator_reader(round, *readers[0],
                                  Semantics::kFig1Immutable));
  world.sim.spawn(iterator_reader(round, *readers[1],
                                  Semantics::kFig6Optimistic));
  world.sim.spawn(dynset_reader(round, *readers[2]));
  world.sim.spawn(mutator(round, fig6, config.seed ^ 0x6f16));
  world.sim.spawn(mutator(round, dyn, config.seed ^ 0xd711));
  world.sim.run();
  result.run_wall_s = run_clock.seconds();
  world.repo->stop_all_daemons();
  world.sim.run();

  // -- accounting -------------------------------------------------------------
  std::uint64_t calls = 0;
  std::uint64_t failed_drains = 0;
  for (const auto& reader : readers) {
    calls += reader->calls;
    for (const Drain& drain : reader->drains) {
      if (!drain.finished) ++failed_drains;
    }
  }
  result.attempted = calls + fig6.attempted + dyn.attempted;
  result.failed = failed_drains + fig6.failed + dyn.failed;
  result.events = world.sim.events_processed();
  result.rpc_calls = world.net->stats().calls;

  // -- checks -----------------------------------------------------------------
  auto& errors = result.errors;
  if (config.fault == "wan-duplicate-yield") {
    Drain& drain = readers[1]->drains.front();
    drain.yielded.push_back(drain.yielded.front());
  }
  if (config.fault == "wan-drop-acked-add") {
    // Forget the acked ops behind one element a Figure 6 drain yielded that
    // was not an initial member.
    const auto added = [&fig6](ObjectRef ref) {
      return !fig6.initial.contains(ref);
    };
    for (const Drain& drain : readers[1]->drains) {
      const auto it =
          std::find_if(drain.yielded.begin(), drain.yielded.end(), added);
      if (it == drain.yielded.end()) continue;
      const ObjectRef ref = *it;
      std::erase_if(fig6.log,
                    [ref](const LoggedOp& op) { return op.ref == ref; });
      break;
    }
  }
  if (config.fault == "wan-drop-yield") {
    // Hide one yield of an element that was a member for the whole drain.
    Drain& drain = readers[1]->drains.front();
    std::erase_if(drain.yielded, [&, hidden = false](ObjectRef ref) mutable {
      if (hidden || !presence(fig6, ref, drain.start, drain.end).throughout) {
        return false;
      }
      hidden = true;
      return true;
    });
  }
  std::set<ObjectRef> fig1_expected(fig1.seeded.begin(), fig1.seeded.end());
  if (config.fault == "wan-fig1-extra") {
    fig1_expected.insert(fig6.pool.front());
  }
  for (const auto& reader : readers) {
    for (const Drain& drain : reader->drains) {
      if (!drain.finished) {
        errors.push_back("wan-drain: a drain did not finish: " +
                         drain.failure);
        continue;
      }
      if (reader->kind == ReaderKind::kFig1) {
        const std::set<ObjectRef> got(drain.yielded.begin(),
                                      drain.yielded.end());
        if (got.size() != drain.yielded.size() || got != fig1_expected) {
          errors.push_back(
              "wan-drain: a Figure 1 drain did not yield exactly the seeded "
              "set");
        }
      } else {
        check_weak_drain(*reader,
                         drain, reader->kind == ReaderKind::kFig6
                                    ? "wan-drain fig6"
                                    : "wan-drain dynset",
                         errors);
      }
    }
  }

  Digest digest;
  for (const auto& reader : readers) {
    for (const Drain& drain : reader->drains) {
      digest.add_members(drain.yielded);
    }
  }
  for (const Churned* c : {&fig6, &dyn}) {
    digest.add_members(std::vector<ObjectRef>(c->members.begin(),
                                              c->members.end()));
  }
  result.digest = digest.value();

  // -- metrics ----------------------------------------------------------------
  std::vector<double> first_yield;
  std::vector<double> drain_ms;
  for (const auto& reader : readers) {
    std::vector<double> kind_drain;
    std::vector<double> kind_first;
    std::size_t yields = 0;
    for (const Drain& drain : reader->drains) {
      kind_drain.push_back(ms(drain.end - drain.start));
      if (drain.first_yield) {
        kind_first.push_back(ms(*drain.first_yield - drain.start));
      }
      yields += drain.yielded.size();
    }
    drain_ms.insert(drain_ms.end(), kind_drain.begin(), kind_drain.end());
    first_yield.insert(first_yield.end(), kind_first.begin(),
                       kind_first.end());
    const char* kind = reader->kind == ReaderKind::kFig1   ? "fig1"
                       : reader->kind == ReaderKind::kFig6 ? "fig6"
                                                           : "dynset";
    char note[160];
    std::snprintf(note, sizeof note,
                  "%s drains: %zu, %zu elements yielded, median drain %.1f "
                  "ms, median first yield %.1f ms",
                  kind, reader->drains.size(), yields, median(kind_drain),
                  median(kind_first));
    result.notes.emplace_back(note);
  }
  // The unit operation here is an element delivery. Per-call next()
  // latency is reported too, but its median sits in the gap between
  // prefetched calls (0 ms) and network-bound ones, so it is no summary.
  result.sim["op_p50_ms"] = quantile_ns_as_ms(round.delivery_ns, 0.50);
  result.sim["op_p99_ms"] = quantile_ns_as_ms(round.delivery_ns, 0.99);
  result.sim["op_samples"] = static_cast<double>(round.delivery_ns.size());
  result.sim["next_p50_ms"] = quantile_ns_as_ms(round.call_ns, 0.50);
  result.sim["next_p99_ms"] = quantile_ns_as_ms(round.call_ns, 0.99);
  result.sim["next_samples"] = static_cast<double>(round.call_ns.size());
  result.sim["first_yield_ms"] = median(first_yield);
  result.sim["drain_ms"] = median(drain_ms);
  result.sim["drains"] = static_cast<double>(drain_ms.size());
  result.sim["mutator_ops"] =
      static_cast<double>(fig6.log.size() + dyn.log.size());
  result.sim["sim_elapsed_ms"] = ms(world.sim.now() - SimTime{});
  result.sim["events"] = static_cast<double>(result.events);
  result.sim["rpc_calls"] = static_cast<double>(result.rpc_calls);

  fill_common_layers(result, world.metrics,
                     static_cast<double>(fig6.log.size() + dyn.log.size()));
  IteratorStats iter;
  for (const auto& reader : readers) {
    iter.invocations += reader->iter.invocations;
    iter.prefetch_hits += reader->iter.prefetch_hits;
    iter.prefetch_misses += reader->iter.prefetch_misses;
    iter.membership_reads += reader->iter.membership_reads;
  }
  result.layer["core.prefetch_hit_ratio"] =
      ratio(static_cast<double>(iter.prefetch_hits),
            static_cast<double>(iter.prefetch_hits + iter.prefetch_misses));
  result.layer["core.membership_reads_per_next"] =
      ratio(static_cast<double>(iter.membership_reads),
            static_cast<double>(iter.invocations));
  result.spans = tracer.take();
  return result;
}

}  // namespace perfbench
