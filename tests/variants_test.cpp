// Tests for the section 3.3 implementation variants: grow-only pinning
// (ghost deletes) and quorum membership reads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/local_view.hpp"
#include "core/weak_set.hpp"
#include "spec/repo_truth.hpp"
#include "spec/specs.hpp"

namespace weakset {
namespace {

ObjectRef ref(std::uint64_t id, std::uint64_t node = 0) {
  return ObjectRef{ObjectId{id}, NodeId{node}};
}

// ---------------------------------------------------------------------------
// Local pinning semantics

TEST(LocalPinTest, RemovalsDeferredWhilePinned) {
  Simulator sim;
  LocalSetView view{sim};
  view.add(ref(1), "a");
  view.add(ref(2), "b");
  run_task(sim, [](LocalSetView& v) -> Task<void> {
    (void)co_await v.pin_grow_only();
  }(view));
  view.remove(ref(1));
  // Still visible: the removal is a deferred ghost.
  const auto members = run_task(
      sim, [](LocalSetView& v) -> Task<Result<std::vector<ObjectRef>>> {
        co_return co_await v.read_members();
      }(view));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 2u);

  run_task(sim, [](LocalSetView& v) -> Task<void> {
    co_await v.unpin_grow_only();
  }(view));
  const auto after = run_task(
      sim, [](LocalSetView& v) -> Task<Result<std::vector<ObjectRef>>> {
        co_return co_await v.read_members();
      }(view));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after.value().size(), 1u);  // ghost collected
}

TEST(LocalPinTest, AdditionsProceedWhilePinned) {
  Simulator sim;
  LocalSetView view{sim};
  run_task(sim, [](LocalSetView& v) -> Task<void> {
    (void)co_await v.pin_grow_only();
  }(view));
  view.add(ref(5), "x");
  EXPECT_EQ(view.observe().members().size(), 1u);
}

// ---------------------------------------------------------------------------
// Repository fixture

class VariantsRepoTest : public ::testing::Test {
 protected:
  VariantsRepoTest() {
    client_node = topo.add_node("client");
    for (int i = 0; i < 3; ++i) {
      servers.push_back(topo.add_node("s" + std::to_string(i)));
    }
    topo.connect(client_node, servers[0], Duration::millis(80));  // primary far
    topo.connect(client_node, servers[1], Duration::millis(3));
    topo.connect(client_node, servers[2], Duration::millis(6));
    topo.connect(servers[0], servers[1], Duration::millis(40));
    topo.connect(servers[0], servers[2], Duration::millis(40));
    topo.connect(servers[1], servers[2], Duration::millis(5));
    StoreServerOptions opts;
    opts.pull_interval = Duration::millis(100);
    for (const NodeId node : servers) repo.add_server(node, opts);
  }
  ~VariantsRepoTest() override {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind (no leaks)
  }

  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> servers;
  RpcNetwork net{sim, topo, Rng{17}};
  Repository repo{net};
};

TEST_F(VariantsRepoTest, ServerPinDefersRemovals) {
  const CollectionId coll = repo.create_collection({servers[0]});
  const ObjectRef obj = repo.create_object(servers[1], "x");
  repo.seed_member(coll, obj);

  RepositoryClient client{repo, client_node};
  ASSERT_TRUE(run_task(sim, client.pin_all(coll)).has_value());

  RepositoryClient mutator{repo, servers[1]};
  const auto removed = run_task(sim, mutator.remove(coll, obj));
  ASSERT_TRUE(removed.has_value());

  // Ground truth still contains the ghost.
  const auto* state = repo.server_at(servers[0])->collection(coll);
  EXPECT_TRUE(state->contains(obj));

  run_task(sim, client.unpin_all(coll));
  EXPECT_FALSE(state->contains(obj));  // ghost collected at unpin
}

TEST_F(VariantsRepoTest, NestedPinsCollectAtLastUnpin) {
  const CollectionId coll = repo.create_collection({servers[0]});
  const ObjectRef obj = repo.create_object(servers[1], "x");
  repo.seed_member(coll, obj);
  RepositoryClient a{repo, client_node};
  RepositoryClient b{repo, servers[2]};
  ASSERT_TRUE(run_task(sim, a.pin_all(coll)).has_value());
  ASSERT_TRUE(run_task(sim, b.pin_all(coll)).has_value());
  RepositoryClient mutator{repo, servers[1]};
  (void)run_task(sim, mutator.remove(coll, obj));

  run_task(sim, a.unpin_all(coll));
  const auto* state = repo.server_at(servers[0])->collection(coll);
  EXPECT_TRUE(state->contains(obj));  // b still pins
  run_task(sim, b.unpin_all(coll));
  EXPECT_FALSE(state->contains(obj));
}

TEST_F(VariantsRepoTest, PinAllRollsBackWhenALaterPrimaryFails) {
  // Three fragments on three primaries, pinned in fragment order: the first
  // two are pinned before the third — cut off from the client — refuses.
  const CollectionId coll = repo.create_collection(servers);
  const CollectionMeta& meta = repo.meta(coll);
  std::vector<ObjectRef> members;
  for (std::size_t f = 0; f < 2; ++f) {
    ObjectRef obj = repo.create_object(servers[1], "x");
    while (meta.fragment_of(obj) != f) {
      obj = repo.create_object(servers[1], "x");
    }
    repo.seed_member(coll, obj);
    members.push_back(obj);
  }
  topo.partition({{client_node, servers[0], servers[1]}, {servers[2]}});
  RepositoryClient client{repo, client_node};
  ASSERT_FALSE(run_task(sim, client.pin_all(coll)).has_value());

  // Every pin already taken was released: removals apply at once instead
  // of lingering as ghosts.
  RepositoryClient mutator{repo, servers[1]};
  for (std::size_t f = 0; f < 2; ++f) {
    const auto removed = run_task(sim, mutator.remove(coll, members[f]));
    ASSERT_TRUE(removed.has_value()) << "fragment " << f;
    EXPECT_TRUE(removed.value());
    const auto* state = repo.server_at(servers[f])->collection(coll);
    EXPECT_FALSE(state->contains(members[f])) << "fragment " << f;
  }
}

TEST_F(VariantsRepoTest, EnforcedGrowOnlyRunSatisfiesFig5UnderRemovals) {
  const CollectionId coll = repo.create_collection({servers[0]});
  std::vector<ObjectRef> objs;
  for (int i = 0; i < 6; ++i) {
    objs.push_back(repo.create_object(servers[1], "o" + std::to_string(i)));
    repo.seed_member(coll, objs.back());
  }
  spec::TimelineProbe probe{repo, coll};
  ClientOptions copts;
  copts.read_policy = ReadPolicy::kPrimaryOnly;
  RepositoryClient client{repo, client_node, copts};
  WeakSet set{client, coll};

  // A remover fires mid-run; with the pin enforced it must not disturb the
  // run's grow-only window.
  RepositoryClient mutator{repo, servers[1]};
  sim.spawn([](Simulator& s, RepositoryClient& m, CollectionId c,
               ObjectRef victim) -> Task<void> {
    co_await s.delay(Duration::millis(300));
    (void)co_await m.remove(c, victim);
  }(sim, mutator, coll, objs[4]));

  spec::RepoGroundTruth truth{repo, coll, client_node};
  spec::TraceRecorder recorder{truth};
  IteratorOptions options;
  options.recorder = &recorder;
  options.enforce_grow_only = true;
  auto iterator = set.elements(Semantics::kFig5GrowOnlyPessimistic, options);
  const DrainResult result = run_task(sim, drain(*iterator));
  EXPECT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 6u);  // the victim was still yielded (ghost)

  const auto trace = recorder.finish();
  EXPECT_TRUE(spec::check_fig5(trace).satisfied());
  EXPECT_TRUE(spec::check_constraint_grow_only(probe.timeline(),
                                               trace.first_time(),
                                               trace.last_time())
                  .satisfied());
  EXPECT_TRUE(spec::classify(trace, probe.timeline()).fig5());

  // After the run, the deferred removal applies.
  sim.run_until(sim.now() + Duration::seconds(2));
  const auto* state = repo.server_at(servers[0])->collection(coll);
  EXPECT_FALSE(state->contains(objs[4]));
}

// ---------------------------------------------------------------------------
// Quorum reads

class QuorumTest : public VariantsRepoTest {
 protected:
  QuorumTest() {
    coll = repo.create_collection({servers[0]});  // far primary
    repo.add_replica(coll, 0, servers[1]);        // near replicas
    repo.add_replica(coll, 0, servers[2]);
    for (int i = 0; i < 4; ++i) {
      const ObjectRef obj =
          repo.create_object(servers[1], "seed" + std::to_string(i));
      repo.seed_member(coll, obj);
    }
    sim.run_until(sim.now() + Duration::seconds(1));  // replicas converge

    // A fresh add the replicas have NOT pulled yet (cut them off first).
    topo.set_routing(Topology::Routing::kDirectOnly);
    topo.set_link_up(servers[0], servers[1], false);
    topo.set_link_up(servers[0], servers[2], false);
    fresh = repo.create_object(servers[1], "fresh");
    RepositoryClient writer{repo, client_node,
                            ClientOptions{{}, ReadPolicy::kPrimaryOnly}};
    EXPECT_TRUE(run_task(sim, writer.add(coll, fresh)).has_value());
  }

  Result<std::vector<ObjectRef>> read_with_quorum(std::size_t quorum) {
    ClientOptions copts;
    copts.read_policy = ReadPolicy::kQuorum;
    copts.quorum = quorum;
    RepositoryClient reader{repo, client_node, copts};
    start_ = sim.now();
    auto result = run_task(
        sim, [](RepositoryClient& r, CollectionId c)
                 -> Task<Result<std::vector<ObjectRef>>> {
          co_return co_await r.read_all(c);
        }(reader, coll));
    elapsed_ = sim.now() - start_;
    return result;
  }

  CollectionId coll;
  ObjectRef fresh;
  SimTime start_;
  Duration elapsed_;
};

TEST_F(QuorumTest, QuorumOneReadsNearestAndMayBeStale) {
  const auto members = read_with_quorum(1);
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 4u);  // stale: misses the fresh add
  EXPECT_LT(elapsed_, Duration::millis(20));
}

TEST_F(QuorumTest, FullQuorumSeesFreshestMembership) {
  const auto members = read_with_quorum(3);
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 5u);  // the primary's reply wins
  EXPECT_GE(elapsed_, Duration::millis(150));
}

TEST_F(QuorumTest, QuorumFailsWhenNotEnoughHostsAnswer) {
  topo.set_link_up(client_node, servers[0], false);
  topo.set_link_up(client_node, servers[1], false);
  // Only servers[2] reachable; quorum of 2 cannot be met.
  ClientOptions copts;
  copts.read_policy = ReadPolicy::kQuorum;
  copts.quorum = 2;
  copts.rpc_timeout = Duration::millis(300);
  RepositoryClient reader{repo, client_node, copts};
  const auto members = run_task(
      sim, [](RepositoryClient& r, CollectionId c)
               -> Task<Result<std::vector<ObjectRef>>> {
        co_return co_await r.read_all(c);
      }(reader, coll));
  ASSERT_FALSE(members.has_value());
  EXPECT_EQ(members.error().kind, FailureKind::kUnreachable);
}

TEST_F(QuorumTest, QuorumZeroWithNoHostFailsCleanly) {
  // quorum 0 still needs one answer: with every host cut off the read must
  // report kUnreachable, not dereference an empty reply.
  for (const NodeId server : servers) {
    topo.set_link_up(client_node, server, false);
  }
  ClientOptions copts;
  copts.read_policy = ReadPolicy::kQuorum;
  copts.quorum = 0;
  copts.rpc_timeout = Duration::millis(300);
  RepositoryClient reader{repo, client_node, copts};
  const auto members = run_task(
      sim, [](RepositoryClient& r, CollectionId c)
               -> Task<Result<std::vector<ObjectRef>>> {
        co_return co_await r.read_all(c);
      }(reader, coll));
  ASSERT_FALSE(members.has_value());
  EXPECT_EQ(members.error().kind, FailureKind::kUnreachable);
}

TEST_F(QuorumTest, QuorumIsCappedAtHostCount) {
  const auto members = read_with_quorum(10);  // only 3 hosts exist
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 5u);
}

}  // namespace
}  // namespace weakset
