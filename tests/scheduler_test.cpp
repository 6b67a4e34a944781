// Work-stealing scheduler tests: deque/steal/termination unit behaviour,
// the max_solutions exact-count fix under contention, copy-on-steal spill
// handle lifecycle (claim CAS, owner fulfillment, invalidation races),
// the leaf-aware sharing rule (leaf choices are never published),
// claim-wait mailboxes, NUMA-biased victim choice, stale-bound refresh,
// timer-driven D-threshold preemption, and steal-storm stress with tiny
// deques (the BLOG_TSAN CI job runs all of these under the thread
// sanitizer).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "blog/parallel/engine.hpp"
#include "blog/parallel/topology.hpp"
#include "blog/search/runner.hpp"
#include "blog/workloads/workloads.hpp"

namespace blog::parallel {
namespace {

using engine::Interpreter;

search::Node node_with_bound(double b) {
  search::Node n;
  n.bound = b;
  return n;
}

std::vector<std::string> texts(const ParallelResult& r) {
  std::vector<std::string> out;
  for (const auto& s : r.solutions) out.push_back(s.text);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> sequential_expected(const std::string& program,
                                             const std::string& query) {
  Interpreter ip;
  ip.consult_string(program);
  return engine::solution_texts(ip.solve(query, {.update_weights = false}));
}

ParallelResult solve_parallel(const std::string& program,
                              const std::string& query, ParallelOptions po) {
  Interpreter ip;
  ip.consult_string(program);
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
  return pe.solve(ip.parse_query(query));
}

// ------------------------------------------------------- unit behaviour --

TEST(WorkStealing, AcquireHandsOutGlobalMinimumAcrossDeques) {
  WorkStealingScheduler s(3);
  s.push_root(node_with_bound(3.0));
  // Two more chains on other deques; keep the in-flight count honest.
  s.on_expanded(3);  // 1 dies conceptually, 3 born → matches 3 queued
  std::vector<search::Node> b1, b2;
  b1.push_back(node_with_bound(1.0));
  b2.push_back(node_with_bound(2.0));
  s.push_batch(1, std::move(b1));
  s.push_batch(2, std::move(b2));

  ASSERT_TRUE(s.min_bound().has_value());
  EXPECT_DOUBLE_EQ(*s.min_bound(), 1.0);
  // Worker 0's own deque holds 3.0, yet the idle scan must hand out the
  // globally lowest bound first (§6's minimum-seeking grant).
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 1.0);
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 2.0);
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 3.0);
}

TEST(WorkStealing, TryAcquireBetterTakesOnlyRemoteChains) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(5.0));  // lands in worker 0's deque
  // Worker 0's own spill must never trigger the migrate-out penalty.
  EXPECT_FALSE(s.try_acquire_better(0, 100.0, 0.0).has_value());
  // Worker 1 sees it as a remote chain below its local minimum.
  auto got = s.try_acquire_better(1, 100.0, 0.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->bound, 5.0);
}

TEST(WorkStealing, TryAcquireBetterRespectsThresholdD) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(5.0));
  // local min 6, D=2: 5 >= 6-2 → refuse; local min 8, D=2: 5 < 8-2 → grant.
  EXPECT_FALSE(s.try_acquire_better(1, 6.0, 2.0).has_value());
  EXPECT_TRUE(s.try_acquire_better(1, 8.0, 2.0).has_value());
}

TEST(WorkStealing, TerminatesWhenInflightZero) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(0.0));
  auto taken = s.acquire(0);
  ASSERT_TRUE(taken.has_value());
  s.on_expanded(0);  // chain died without children
  EXPECT_FALSE(s.acquire(0).has_value());
  EXPECT_FALSE(s.acquire(1).has_value());
}

/// Spin until a thread blocked in acquire() has registered as idle. The
/// first event an empty-handed acquire records is kStarveOn, so any event
/// past `before` means the waiter is parked in the backoff loop.
void wait_for_idle(const obs::TraceSink& sink, std::uint64_t before) {
  while (sink.recorded() == before) std::this_thread::yield();
}

TEST(WorkStealing, StopUnblocksIdleWorkers) {
  obs::TraceSink sink;
  SchedulerTuning t;
  t.trace = &sink;
  WorkStealingScheduler s(2, /*deque_capacity=*/64, t);
  s.push_root(node_with_bound(0.0));  // inflight 1, so acquire(1) waits
  ASSERT_TRUE(s.acquire(0).has_value());
  const std::uint64_t before = sink.recorded();
  std::thread waiter([&] { EXPECT_FALSE(s.acquire(1).has_value()); });
  wait_for_idle(sink, before);
  s.stop();
  waiter.join();
  EXPECT_TRUE(s.stopped());
}

TEST(WorkStealing, IdleWorkerCollapsesTheAdaptiveHint) {
  // An unstolen spill with nobody idle grows worker 0's local-capacity
  // hint above its seed; once a worker blocks in acquire() the hint must
  // collapse back to the seed, so the grown pool re-opens to thieves.
  // The parked waiter then takes the next spill.
  obs::TraceSink sink;
  SchedulerTuning t;
  t.ewma_window = 1;  // alpha = 1: the EWMA tracks the last sample exactly
  t.trace = &sink;
  WorkStealingScheduler s(2, /*deque_capacity=*/8, t);
  s.push_root(node_with_bound(0.0));
  ASSERT_TRUE(s.acquire(0).has_value());
  s.on_expanded(2);
  std::vector<search::Node> b1;
  b1.push_back(node_with_bound(1.0));
  s.push_batch(0, std::move(b1));
  ASSERT_TRUE(s.acquire(0).has_value());  // own chain back: deques empty
  EXPECT_GT(s.local_capacity_hint(0, 8), 8u);
  const std::uint64_t before = sink.recorded();
  std::thread waiter([&] {
    auto n = s.acquire(1);  // blocks until the push below
    ASSERT_TRUE(n.has_value());
    EXPECT_DOUBLE_EQ(n->bound, 2.0);
  });
  wait_for_idle(sink, before);
  EXPECT_EQ(s.local_capacity_hint(0, 8), 8u);
  s.on_expanded(2);  // the expansion that produced the spilled chain
  std::vector<search::Node> b2;
  b2.push_back(node_with_bound(2.0));
  s.push_batch(0, std::move(b2));
  waiter.join();
  s.stop();
}

TEST(WorkStealing, StatsCountTraffic) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(0.0));
  s.on_expanded(2);
  std::vector<search::Node> b;
  b.push_back(node_with_bound(1.0));
  s.push_batch(0, std::move(b));
  ASSERT_TRUE(s.acquire(0).has_value());
  const auto st = s.stats();
  EXPECT_EQ(st.pushes, 2u);  // the root and one spilled chain
  EXPECT_EQ(st.pops, 1u);
  EXPECT_EQ(st.grants, 1u);
  EXPECT_EQ(st.expansions, 1u);
  s.stop();
}

TEST(WorkStealing, IdleStealTakesHalfTheVictimsDeque) {
  WorkStealingScheduler s(2, /*deque_capacity=*/64);
  s.push_root(node_with_bound(0.0));
  s.on_expanded(10);  // 9 more chains than the root
  std::vector<search::Node> batch;
  for (int i = 1; i < 10; ++i) batch.push_back(node_with_bound(i));
  s.push_batch(0, std::move(batch));

  ASSERT_TRUE(s.acquire(1).has_value());
  const auto st = s.stats();
  // The thief took the minimum plus roughly half of the remaining nine.
  EXPECT_GE(st.steals, 4u);
  s.stop();
}

TEST(WorkStealing, OverflowOffloadsHalfToTheEmptiestPeer) {
  WorkStealingScheduler s(2, /*deque_capacity=*/2);
  s.push_root(node_with_bound(0.0));
  s.on_expanded(4);  // 3 more chains than the root
  std::vector<search::Node> batch;
  for (int i = 1; i < 4; ++i) batch.push_back(node_with_bound(i));
  // Worker 0's deque overflows (4 > 2) while worker 1's sits empty: half
  // must be shed across, and the global pop order must survive the move.
  s.push_batch(0, std::move(batch));
  EXPECT_GE(s.stats().offloads, 1u);
  for (double expect : {0.0, 1.0, 2.0, 3.0})
    EXPECT_DOUBLE_EQ(s.acquire(0)->bound, expect);
}

// -------------------------------------------------- adaptive capacity ----

TEST(AdaptiveCapacity, TracksStealPressure) {
  SchedulerTuning t;
  t.ewma_window = 1;  // alpha = 1: the EWMA tracks the last sample exactly
  WorkStealingScheduler s(2, /*deque_capacity=*/8, t);
  EXPECT_EQ(s.deque_capacity(0), 8u);  // seed until the first spill
  // Unstolen spill with nobody idle: pressure sample 0 — the capacity
  // grows above its seed (a lone-hot worker stops sharding its pool).
  s.on_expanded(2);
  std::vector<search::Node> b1;
  b1.push_back(node_with_bound(1.0));
  s.push_batch(0, std::move(b1));
  EXPECT_GT(s.deque_capacity(0), 8u);
  // A theft followed by the next spill: sample 1 — the capacity shrinks
  // below the seed (a pressured pool sheds earlier).
  ASSERT_TRUE(s.try_acquire_better(1, 1e9, 0.0).has_value());
  s.on_expanded(2);
  std::vector<search::Node> b2;
  b2.push_back(node_with_bound(2.0));
  s.push_batch(0, std::move(b2));
  EXPECT_LT(s.deque_capacity(0), 8u);
  s.stop();
}

TEST(AdaptiveCapacity, DisabledTuningPinsTheSeeds) {
  SchedulerTuning t;
  t.adaptive = false;
  WorkStealingScheduler s(2, /*deque_capacity=*/8, t);
  for (int i = 0; i < 10; ++i) {
    s.on_expanded(2);
    std::vector<search::Node> b;
    b.push_back(node_with_bound(i));
    s.push_batch(0, std::move(b));
  }
  EXPECT_EQ(s.deque_capacity(0), 8u);
  EXPECT_EQ(s.local_capacity_hint(0, 5), 5u);
  s.stop();
}

// ------------------------------------------------------ NUMA topology ----

TEST(Topology, ParseCpulistHandlesRangesAndSingles) {
  EXPECT_EQ(parse_cpulist("0-3,8,10-11"),
            (std::vector<unsigned>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpulist("5"), (std::vector<unsigned>{5}));
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_TRUE(parse_cpulist("garbage").empty());
}

TEST(Topology, RoundRobinWorkerPlacement) {
  Topology t({{0, {0, 1}}, {1, {2, 3}}});
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_FALSE(t.single_node());
  EXPECT_EQ(t.node_of_worker(0), 0u);
  EXPECT_EQ(t.node_of_worker(1), 1u);
  EXPECT_EQ(t.node_of_worker(2), 0u);
  EXPECT_EQ(t.cpus_of(1), (std::vector<unsigned>{2, 3}));
  EXPECT_TRUE(t.cpus_of(7).empty());
}

TEST(Topology, SystemDetectionFallsBackToAtLeastOneNode) {
  // Whatever the host looks like, detection must yield a usable topology
  // (>= 1 node) and a total worker placement.
  const Topology& t = Topology::system();
  EXPECT_GE(t.node_count(), 1u);
  EXPECT_LT(t.node_of_worker(13), t.node_count());
}

TEST(Numa, IdleScanPrefersLocalNodeWithinBias) {
  // Workers 0 and 2 share node 0; worker 1 sits on node 1. The remote
  // deque holds 5.0, the local one 5.5: within the 1.0 locality bias the
  // scan must stay on-node (5.0 is not better than 5.5 - 1.0), so the
  // idle thief takes the local 5.5 first and crosses the interconnect
  // only for the remainder.
  SchedulerTuning t;
  t.worker_nodes = {0, 1, 0};
  t.locality_bias = 1.0;
  WorkStealingScheduler s(3, /*deque_capacity=*/64, t);
  EXPECT_EQ(s.worker_node(0), 0u);
  EXPECT_EQ(s.worker_node(1), 1u);
  s.on_expanded(3);  // two chains about to be queued
  std::vector<search::Node> remote, local;
  remote.push_back(node_with_bound(5.0));
  local.push_back(node_with_bound(5.5));
  s.push_batch(1, std::move(remote));
  s.push_batch(2, std::move(local));
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 5.5);  // local first
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 5.0);  // then remote
  const auto st = s.stats();
  EXPECT_GE(st.steals_local, 1u);
  EXPECT_GE(st.steals_remote, 1u);
  EXPECT_EQ(st.steals_local + st.steals_remote, st.steals);
  s.stop();
}

TEST(Numa, RemoteVictimWinsWhenBeatingTheBias) {
  // Remote 1.0 vs local 5.0 under bias 1.0: the remote minimum beats the
  // local candidate by more than the bias, so the scan crosses nodes —
  // §6's minimum-seeking still dominates when the gap is real.
  SchedulerTuning t;
  t.worker_nodes = {0, 0, 1};
  t.locality_bias = 1.0;
  WorkStealingScheduler s(3, /*deque_capacity=*/64, t);
  s.on_expanded(3);
  std::vector<search::Node> local, remote;
  local.push_back(node_with_bound(5.0));
  remote.push_back(node_with_bound(1.0));
  s.push_batch(1, std::move(local));
  s.push_batch(2, std::move(remote));
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 1.0);
  EXPECT_GE(s.stats().steals_remote, 1u);
  s.stop();
}

TEST(Numa, TryAcquireBetterPrefersLocalNodeWithinBias) {
  // D-threshold probe with both a local (5.0) and a slightly better
  // remote (4.5) candidate under the threshold: within the bias the
  // migration stays on-node.
  SchedulerTuning t;
  t.worker_nodes = {0, 0, 1};
  t.locality_bias = 1.0;
  WorkStealingScheduler s(3, /*deque_capacity=*/64, t);
  s.on_expanded(3);
  std::vector<search::Node> local, remote;
  local.push_back(node_with_bound(5.0));
  remote.push_back(node_with_bound(4.5));
  s.push_batch(1, std::move(local));
  s.push_batch(2, std::move(remote));
  auto got = s.try_acquire_better(0, 100.0, 0.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->bound, 5.0);
  s.stop();
}

// ---------------------------------------------- copy-on-steal handles ----

std::shared_ptr<search::SpillHandle> handle_with_bound(double b,
                                                       unsigned owner) {
  auto h = std::make_shared<search::SpillHandle>();
  h->bound = b;
  h->owner = owner;
  h->claim_ping = std::make_shared<std::atomic<std::uint64_t>>(0);
  return h;
}

TEST(CopyOnSteal, ThiefReceivesOwnerDepositAfterClaim) {
  WorkStealingScheduler s(2);
  auto h = handle_with_bound(1.5, /*owner=*/0);
  s.on_expanded(2);  // pretend one expansion produced the published chain
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  ASSERT_TRUE(s.min_bound().has_value());
  EXPECT_DOUBLE_EQ(*s.min_bound(), 1.5);  // the bound entered the network

  // Fake owner: once a thief wins the claim CAS, materialize and deposit.
  std::thread owner([&] {
    while (h->state.load(std::memory_order_acquire) !=
           search::SpillHandle::kClaimed)
      std::this_thread::yield();
    h->node = node_with_bound(1.5);
    h->state.store(search::SpillHandle::kReady, std::memory_order_release);
  });
  auto n = s.acquire(1);  // claims and parks the handle, drains the deposit
  owner.join();
  ASSERT_TRUE(n.has_value());
  EXPECT_DOUBLE_EQ(n->bound, 1.5);
  EXPECT_EQ(h->claim_ping->load(), 1u);  // the claim pinged the owner
  EXPECT_EQ(h->state.load(), search::SpillHandle::kTaken);
  const auto st = s.stats();
  EXPECT_EQ(st.handles_published, 1u);
  EXPECT_EQ(st.handle_claims, 1u);
  EXPECT_EQ(st.handle_grants, 1u);
  s.stop();
}

TEST(CopyOnSteal, OwnerResolvedHandleIsStaleToThieves) {
  WorkStealingScheduler s(2);
  auto h = handle_with_bound(1.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  // The owner reclaims the choice in place (activate_top winning the CAS).
  h->state.store(search::SpillHandle::kOwnerTaken);
  // The entry still advertises bound 1.0, but a probing thief must see
  // through it: pop, discard as stale, find nothing.
  EXPECT_FALSE(s.try_acquire_better(1, 100.0, 0.0).has_value());
  EXPECT_GE(s.stats().stale_discards, 1u);
  EXPECT_FALSE(s.min_bound().has_value());  // deque publishes empty now
  s.stop();
}

TEST(CopyOnSteal, DeadHandleAbandonsTheClaimingThief) {
  WorkStealingScheduler s(2);
  auto h = handle_with_bound(2.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  std::thread thief([&] {
    // Claims, waits, sees kDead, gives up; the chain's death (on_expanded
    // below) then terminates the acquire loop.
    EXPECT_FALSE(s.acquire(1).has_value());
  });
  while (h->state.load(std::memory_order_acquire) !=
         search::SpillHandle::kClaimed)
    std::this_thread::yield();
  // Owner shutting down: kill the claimed handle instead of fulfilling.
  h->state.store(search::SpillHandle::kDead, std::memory_order_release);
  s.on_expanded(0);  // the dropped chain leaves the outstanding count
  thief.join();
}

// ------------------------------------------ leaf-aware sharing rule ----

std::uint64_t total_published(const ParallelResult& r) {
  std::uint64_t n = 0;
  for (const auto& w : r.workers) n += w.handles_published;
  return n;
}

TEST(CopyOnSteal, LeafFactEnumerationPublishesNoHandles) {
  // Every choice of a one-goal fact enumeration is a leaf: running it in
  // place is one head match, stealing it a claim, a copy and a deposit.
  // Even at capacity 1 none may be shared, and the answers must not move.
  std::string program;
  for (int i = 0; i < 1000; ++i)
    program += "f(" + std::to_string(i) + ").\n";
  const auto expected = sequential_expected(program, "f(X)");
  ASSERT_EQ(expected.size(), 1000u);
  ParallelOptions po;
  po.workers = 4;
  po.local_capacity = 1;
  po.adaptive_capacity = false;
  po.update_weights = false;
  const auto r = solve_parallel(program, "f(X)", po);
  EXPECT_EQ(texts(r), expected);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(total_published(r), 0u);
}

TEST(CopyOnSteal, RuleChoicesAboveALeafFactStillPublish) {
  // p/1's last clause is a fact, so its choice sits at the bottom of the
  // sibling block (clause order puts the first clause on top). The leaf
  // joins the decided prefix without a handle; the rule choices stacked
  // above it must still be published, and a claim on one of them must be
  // granted across the leaf.
  const std::string program =
      "p(X) :- q(X).\n"
      "p(X) :- r(X).\n"
      "p(X) :- s(X).\n"
      "p(z).\n"
      "q(a). r(b). s(c).\n";
  Interpreter ip;
  ip.consult_string(program);
  const search::Expander ex(ip.program(), ip.weights(), &ip.builtins());
  search::Runner runner(ex);
  runner.load_root(ip.parse_query("p(X)"));
  ASSERT_EQ(runner.expand().children, 4u);
  std::vector<std::shared_ptr<search::SpillHandle>> out;
  EXPECT_EQ(runner.publish_overflow(/*owner=*/0, /*keep=*/1, out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(runner.pending_at(0).handle, nullptr);  // p(z): kept local
  EXPECT_EQ(runner.pending_at(1).handle, out[0]);   // s/1 rule
  EXPECT_EQ(runner.pending_at(2).handle, out[1]);   // r/1 rule
  EXPECT_EQ(runner.pending_at(3).handle, nullptr);  // q/1 rule: kept
  // Nothing undecided beyond `keep` is left: a second pass is a no-op.
  EXPECT_EQ(runner.publish_overflow(0, 1, out), 0u);

  // A thief claims the r/1 choice; the owner grants it from behind the
  // leaf and the rest of the stack is untouched.
  ASSERT_TRUE(out[1]->try_claim());
  EXPECT_EQ(runner.fulfill_claims(), 1u);
  EXPECT_EQ(out[1]->state.load(), search::SpillHandle::kReady);
  ASSERT_EQ(runner.pending(), 3u);
  EXPECT_EQ(runner.pending_at(0).handle, nullptr);
  EXPECT_EQ(runner.pending_at(1).handle, out[0]);

  // Draining the stack in place reclaims the remaining handle for free.
  std::vector<std::string> answers;
  while (runner.pending() > 0 || runner.has_state()) {
    if (!runner.has_state() && !runner.activate_top()) continue;
    const auto step = runner.expand();
    if (step.outcome == search::NodeOutcome::Solution)
      answers.push_back(runner.extract_solution().text);
  }
  std::sort(answers.begin(), answers.end());
  EXPECT_EQ(answers, (std::vector<std::string>{"X=a", "X=c", "X=z"}));
  const auto& sc = runner.spill_counters();
  EXPECT_EQ(sc.published, 2u);
  EXPECT_EQ(sc.granted, 1u);
  EXPECT_EQ(sc.reclaimed_free, 1u);
}

TEST(CopyOnSteal, MixedLeafAndRuleStormConservesHandles) {
  // End to end on a program whose leaf facts sit below rule choices: rule
  // choices are still shared, and every published handle is consumed
  // exactly once (reclaimed, granted or migrated).
  std::string program =
      "p(X,Y) :- q(X), p2(Y).\n"
      "p(X,Y) :- r(Y), p2(X).\n"
      "p(z,z).\n"
      "p2(Y) :- q(Y).\n"
      "p2(w).\n";
  for (int i = 0; i < 40; ++i)
    program += "q(" + std::to_string(i) + "). r(a" + std::to_string(i) + ").\n";
  const auto expected = sequential_expected(program, "p(X,Y)");
  for (int run = 0; run < 3; ++run) {
    ParallelOptions po;
    po.workers = 4;
    po.local_capacity = 1;
    po.steal_deque_capacity = 1;
    po.adaptive_capacity = false;
    po.update_weights = false;
    const auto r = solve_parallel(program, "p(X,Y)", po);
    EXPECT_EQ(texts(r), expected) << "run " << run;
    EXPECT_TRUE(r.exhausted);
    std::uint64_t reclaimed = 0, granted = 0, migrated = 0;
    for (const auto& w : r.workers) {
      reclaimed += w.handles_reclaimed;
      granted += w.handles_granted;
      migrated += w.handles_migrated;
    }
    EXPECT_GT(total_published(r), 0u) << "run " << run;
    EXPECT_EQ(reclaimed + granted + migrated, total_published(r))
        << "run " << run;
  }
}

// ---------------------------------------------- claim-wait mailboxes ----

TEST(Mailbox, ClaimParksAndDrainsTheOwnerDeposit) {
  // The thief's claim parks the handle and acquire keeps polling without
  // blocking on it; the owner's deposit is consumed from the mailbox on a
  // later poll.
  WorkStealingScheduler s(2);
  auto h = handle_with_bound(1.5, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));

  std::thread owner([&] {
    while (h->state.load(std::memory_order_acquire) !=
           search::SpillHandle::kClaimed)
      std::this_thread::yield();
    h->node = node_with_bound(1.5);
    h->state.store(search::SpillHandle::kReady, std::memory_order_release);
  });
  auto n = s.acquire(1);
  owner.join();
  ASSERT_TRUE(n.has_value());
  EXPECT_DOUBLE_EQ(n->bound, 1.5);
  EXPECT_EQ(h->state.load(), search::SpillHandle::kTaken);
  const auto st = s.stats();
  EXPECT_EQ(st.mailbox_parked, 1u);
  EXPECT_EQ(st.mailbox_drained, 1u);
  EXPECT_EQ(st.handle_claims, 1u);
  EXPECT_EQ(st.handle_grants, 1u);
  s.stop();
}

TEST(Mailbox, SurplusDepositsAreReparkedIntoTheThiefsDeque) {
  // Two handles from the same owner: the polling thief claims both while
  // idle, the owner deposits both, and the drain hands the thief the
  // better one while re-parking the other into the thief's deque — so the
  // surplus deposit re-enters the network instead of idling privately.
  // (The claim limit must admit two parked claims: the fake owner below
  // deposits only once both are claimed.)
  SchedulerTuning tuning;
  tuning.mailbox_claim_limit = 2;
  WorkStealingScheduler s(2, /*deque_capacity=*/64, tuning);
  auto h1 = handle_with_bound(1.0, /*owner=*/0);
  auto h2 = handle_with_bound(2.0, /*owner=*/0);
  s.on_expanded(3);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h1, h2};
  s.push_handles(0, std::move(hs));

  std::thread owner([&] {
    for (const auto& h : {h1, h2}) {
      while (h->state.load(std::memory_order_acquire) !=
             search::SpillHandle::kClaimed)
        std::this_thread::yield();
    }
    // Both claims parked; deposit both at once.
    h1->node = node_with_bound(1.0);
    h1->state.store(search::SpillHandle::kReady, std::memory_order_release);
    h2->node = node_with_bound(2.0);
    h2->state.store(search::SpillHandle::kReady, std::memory_order_release);
  });
  EXPECT_DOUBLE_EQ(s.acquire(1)->bound, 1.0);  // best deposit
  owner.join();
  EXPECT_DOUBLE_EQ(s.acquire(1)->bound, 2.0);  // re-parked surplus
  const auto st = s.stats();
  EXPECT_EQ(st.mailbox_parked, 2u);
  EXPECT_EQ(st.mailbox_drained, 2u);
  EXPECT_EQ(st.handle_grants, 2u);
  s.stop();
}

TEST(Mailbox, ClaimLimitStopsFurtherClaimsUntilDrained) {
  // Default claim limit 1: with one claim already parked, the thief must
  // not claim the second published handle — it backs off and drains
  // instead, and only the next acquisition claims the second one. This is
  // what keeps an idle thief on an oversubscribed host from forcing every
  // owner into a deep copy at once.
  WorkStealingScheduler s(2);
  auto h1 = handle_with_bound(1.0, /*owner=*/0);
  auto h2 = handle_with_bound(2.0, /*owner=*/0);
  s.on_expanded(3);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h1, h2};
  s.push_handles(0, std::move(hs));

  std::thread owner([&] {
    for (const auto& h : {h1, h2}) {
      while (h->state.load(std::memory_order_acquire) !=
             search::SpillHandle::kClaimed)
        std::this_thread::yield();
      h->node = node_with_bound(h->bound);
      h->state.store(search::SpillHandle::kReady, std::memory_order_release);
    }
  });
  EXPECT_DOUBLE_EQ(s.acquire(1)->bound, 1.0);
  // The second handle was never claimed while the first sat in the
  // mailbox: the cap held the thief to one in-flight claim.
  EXPECT_EQ(h2->state.load(), search::SpillHandle::kAvailable);
  EXPECT_EQ(s.stats().mailbox_parked, 1u);
  EXPECT_DOUBLE_EQ(s.acquire(1)->bound, 2.0);
  owner.join();
  EXPECT_EQ(s.stats().mailbox_parked, 2u);
  s.stop();
}

TEST(Mailbox, ZeroClaimLimitIsClampedToOne) {
  // A zero cap would make `mail.size() >= limit` always true and
  // silently turn off handle stealing; the scheduler clamps it at
  // construction so every build path stays safe.
  SchedulerTuning t;
  t.mailbox_claim_limit = 0;
  WorkStealingScheduler s(2, /*deque_capacity=*/64, t);
  auto h = handle_with_bound(1.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  std::thread owner([&] {
    while (h->state.load(std::memory_order_acquire) !=
           search::SpillHandle::kClaimed)
      std::this_thread::yield();
    h->node = node_with_bound(1.0);
    h->state.store(search::SpillHandle::kReady, std::memory_order_release);
  });
  EXPECT_DOUBLE_EQ(s.acquire(1)->bound, 1.0);  // the claim still happened
  owner.join();
  s.stop();
}

TEST(Mailbox, DeadDepositIsDroppedOnDrain) {
  WorkStealingScheduler s(2);
  auto h = handle_with_bound(3.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  std::thread thief([&] { EXPECT_FALSE(s.acquire(1).has_value()); });
  while (h->state.load(std::memory_order_acquire) !=
         search::SpillHandle::kClaimed)
    std::this_thread::yield();
  // Owner shutting down: the claimed handle dies instead of being
  // fulfilled; the thief's drain must drop it and terminate cleanly.
  h->state.store(search::SpillHandle::kDead, std::memory_order_release);
  s.on_expanded(0);
  thief.join();
  const auto st = s.stats();
  EXPECT_EQ(st.mailbox_parked, 1u);
  EXPECT_EQ(st.mailbox_drained, 0u);
}

// -------------------------------------------------- stale-bound refresh --

TEST(StaleRefresh, OwnerRepublishesAStaleMinimum) {
  // A published handle the owner reclaimed in place leaves a dead bound
  // advertised to every idle scan. Nobody steals here — the owner's own
  // maintain() must sweep and re-publish once the interval passes.
  SchedulerTuning t;
  t.stale_refresh_us = 1;
  WorkStealingScheduler s(2, /*deque_capacity=*/64, t);
  auto h = handle_with_bound(1.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  ASSERT_TRUE(s.min_bound().has_value());  // dead bound still advertised
  h->state.store(search::SpillHandle::kOwnerTaken);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  s.maintain(0);
  EXPECT_FALSE(s.min_bound().has_value());  // refreshed to empty
  const auto st = s.stats();
  EXPECT_GE(st.stale_refreshes, 1u);
  EXPECT_GE(st.stale_discards, 1u);
  s.stop();
}

TEST(StaleRefresh, DisabledIntervalLeavesTheBoundAlone) {
  SchedulerTuning t;
  t.stale_refresh_us = 0;  // refresh off
  WorkStealingScheduler s(2, /*deque_capacity=*/64, t);
  auto h = handle_with_bound(1.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  h->state.store(search::SpillHandle::kOwnerTaken);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  s.maintain(0);
  EXPECT_TRUE(s.min_bound().has_value());  // dead bound still up
  EXPECT_EQ(s.stats().stale_refreshes, 0u);
  s.stop();
}

TEST(StaleRefresh, FreshPublishIsNotRefreshed) {
  // A minimum published a moment ago must not be swept: the interval
  // gates the owner-side lock to one per stale period.
  SchedulerTuning t;
  t.stale_refresh_us = 60'000'000;  // one minute: never stale in-test
  WorkStealingScheduler s(2, /*deque_capacity=*/64, t);
  auto h = handle_with_bound(1.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  h->state.store(search::SpillHandle::kOwnerTaken);
  s.maintain(0);
  EXPECT_TRUE(s.min_bound().has_value());
  EXPECT_EQ(s.stats().stale_refreshes, 0u);
  s.stop();
}

// ------------------------------------- max_solutions exact-count (fix) --

TEST(WorkStealing, MaxSolutionsNeverOvershootsUnderContention) {
  // Many workers racing a tiny limit on a solution-rich tree: the CAS
  // claim loop must keep the published count exactly at the limit, run
  // after run. (The old fetch_sub wrapped the counter past zero and let
  // racing workers keep appending.)
  const std::string program = workloads::layered_dag(3, 3);
  for (int run = 0; run < 10; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.limits.max_solutions = 3;
    po.local_capacity = 1;  // maximize sharing → maximize the race
    po.update_weights = false;
    const auto r = solve_parallel(program, "path(n0_0,Z,P)", po);
    EXPECT_EQ(r.solutions.size(), 3u) << "run " << run;
    EXPECT_EQ(r.outcome, search::Outcome::SolutionLimit);
    EXPECT_FALSE(r.exhausted);
  }
}

// ------------------------------------------------- steal-storm stress ----

TEST(WorkStealingStress, TinyDequesManyWorkersStayExact) {
  // Deque capacity 1 forces constant offloads and steals; every answer
  // must still be found exactly once. Runs under TSan in CI (BLOG_TSAN).
  // Adaptivity is pinned off so the 1-entry storm stays a storm.
  const std::string program = workloads::layered_dag(4, 3);
  const auto expected = sequential_expected(program, "path(n0_0,Z,P)");
  for (int run = 0; run < 3; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.local_capacity = 1;
    po.steal_deque_capacity = 1;
    po.adaptive_capacity = false;
    po.update_weights = false;
    const auto r = solve_parallel(program, "path(n0_0,Z,P)", po);
    EXPECT_EQ(texts(r), expected) << "run " << run;
    EXPECT_TRUE(r.exhausted);
  }
}

TEST(WorkStealingStress, LazyHandleStormStaysExact) {
  // Copy-on-steal under maximum contention: capacity 1 publishes nearly
  // every choice as a handle, so owners racing their own reclaims against
  // thieves' claim CASes is the common case, not the corner. Every answer
  // must still be found exactly once, run after run (TSan-verified in CI).
  const std::string program = workloads::layered_dag(4, 3);
  const auto expected = sequential_expected(program, "path(n0_0,Z,P)");
  for (int run = 0; run < 3; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.local_capacity = 1;
    po.steal_deque_capacity = 1;
    po.adaptive_capacity = false;
    po.update_weights = false;
    const auto r = solve_parallel(program, "path(n0_0,Z,P)", po);
    EXPECT_EQ(texts(r), expected) << "run " << run;
    EXPECT_TRUE(r.exhausted);
    std::uint64_t published = 0, reclaimed = 0, granted = 0, migrated = 0;
    for (const auto& w : r.workers) {
      published += w.handles_published;
      reclaimed += w.handles_reclaimed;
      granted += w.handles_granted;
      migrated += w.handles_migrated;
    }
    EXPECT_GT(published, 0u) << "run " << run;
    // Exhausted run: every published handle was consumed exactly once —
    // reclaimed in place, granted to a thief, or rematerialized into a
    // D-threshold migration batch.
    EXPECT_EQ(reclaimed + granted + migrated, published) << "run " << run;
  }
}

TEST(WorkStealingStress, MailboxStormStaysExact) {
  // Claim-wait mailboxes under maximum contention: capacity 1 publishes
  // nearly every choice, so thieves park claims while still scanning and
  // owners deposit into mailboxes concurrently — with the stale-bound
  // refresh running at a deliberately hot 1µs interval on top. Every
  // answer must still be found exactly once (TSan-verified in CI).
  const std::string program = workloads::layered_dag(4, 3);
  const auto expected = sequential_expected(program, "path(n0_0,Z,P)");
  for (int run = 0; run < 3; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.local_capacity = 1;
    po.steal_deque_capacity = 1;
    po.adaptive_capacity = false;
    po.update_weights = false;
    po.stale_refresh_interval = std::chrono::microseconds(1);
    const auto r = solve_parallel(program, "path(n0_0,Z,P)", po);
    EXPECT_EQ(texts(r), expected) << "run " << run;
    EXPECT_TRUE(r.exhausted);
  }
}

TEST(WorkStealingStress, LazyAbandonUnderStopRacesThievesCleanly) {
  // Handle invalidation: a tiny max_solutions stops the search while
  // owners still hold published handles and thieves hold fresh claims —
  // the shutdown path must kill handles (kDead) without losing the exact
  // count or hanging a claim-waiting thief. 10 runs to shake the race.
  const std::string program = workloads::layered_dag(3, 3);
  for (int run = 0; run < 10; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.limits.max_solutions = 3;
    po.local_capacity = 1;
    po.steal_deque_capacity = 1;
    po.adaptive_capacity = false;
    po.update_weights = false;
    const auto r = solve_parallel(program, "path(n0_0,Z,P)", po);
    EXPECT_EQ(r.solutions.size(), 3u) << "run " << run;
    EXPECT_EQ(r.outcome, search::Outcome::SolutionLimit);
    EXPECT_FALSE(r.exhausted);
  }
}

TEST(WorkStealingStress, LazyMigrationDetachAllRacesThievesCleanly) {
  // §5 weight updates shift bounds between runs, so try_acquire_better
  // keeps firing and detach_all migrates pools that still hold published
  // handles — racing thieves claiming them. The solution set must not
  // care who wins.
  Interpreter ip;
  ip.consult_string(workloads::layered_dag(3, 3));
  for (int run = 0; run < 3; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.local_capacity = 1;
    po.steal_deque_capacity = 2;
    po.adaptive_capacity = false;
    ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
    const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
    EXPECT_EQ(r.solutions.size(), 40u) << "run " << run;
  }
}

// -------------------------------------- timer-driven D-threshold check --

/// StandardBuiltins plus a `slow` builtin that burns wall-clock: forces
/// builtin bursts long enough for the preemption ticker to interrupt.
class SlowBuiltins : public search::BuiltinEvaluator {
public:
  explicit SlowBuiltins(search::BuiltinEvaluator* inner) : inner_(inner) {}
  Outcome eval(term::Store& s, term::TermRef goal,
               term::Trail& trail) override {
    const term::TermRef g = s.deref(goal);
    if (s.is_atom(g) && s.atom_name(g) == slow_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      return Outcome::True;
    }
    return inner_->eval(s, goal, trail);
  }
  [[nodiscard]] bool is_builtin(const db::Pred& p) const override {
    return (p.arity == 0 && p.name == slow_) || inner_->is_builtin(p);
  }

private:
  search::BuiltinEvaluator* inner_;
  Symbol slow_ = intern("slow");
};

TEST(Preemption, SlowBuiltinBurstYieldsToTheTimer) {
  // A chain of slow builtins runs far longer than the preemption period:
  // the burst must yield mid-expansion (preemptions > 0) so the
  // D-threshold check runs, and the answers must be exactly the ones the
  // uninterrupted run finds.
  Interpreter ip;
  ip.consult_string(
      "p(X) :- slow, slow, slow, slow, slow, q(X). q(1). q(2).");
  SlowBuiltins slow(&ip.builtins());
  ParallelOptions po;
  po.workers = 2;
  po.update_weights = false;
  po.preempt_interval = std::chrono::microseconds(200);
  ParallelEngine pe(ip.program(), ip.weights(), &slow, po);
  const auto r = pe.solve(ip.parse_query("p(X)"));
  EXPECT_EQ(r.solutions.size(), 2u);
  EXPECT_TRUE(r.exhausted);
  std::uint64_t preemptions = 0;
  for (const auto& w : r.workers) preemptions += w.preemptions;
  EXPECT_GT(preemptions, 0u);
}

TEST(Preemption, DisabledTimerNeverPreempts) {
  Interpreter ip;
  ip.consult_string("p(X) :- slow, slow, slow, q(X). q(1). q(2).");
  SlowBuiltins slow(&ip.builtins());
  ParallelOptions po;
  po.workers = 2;
  po.update_weights = false;
  po.preempt_interval = std::chrono::microseconds(0);
  ParallelEngine pe(ip.program(), ip.weights(), &slow, po);
  const auto r = pe.solve(ip.parse_query("p(X)"));
  EXPECT_EQ(r.solutions.size(), 2u);
  std::uint64_t preemptions = 0;
  for (const auto& w : r.workers) preemptions += w.preemptions;
  EXPECT_EQ(preemptions, 0u);
}

TEST(WorkStealingStress, WeightUpdatesRaceCleanly) {
  // §5 weight updates on, many workers, tiny deques: exercises the
  // scheduler and the weight store together for the sanitizer jobs.
  Interpreter ip;
  ip.consult_string(workloads::layered_dag(3, 3));
  ParallelOptions po;
  po.workers = 8;
  po.local_capacity = 1;
  po.steal_deque_capacity = 2;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
  const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  EXPECT_EQ(r.solutions.size(), 40u);
  EXPECT_GT(ip.weights().session_size(), 0u);
}

TEST(WorkStealingStress, LiveStatsSnapshotsStayMonotonicUnderStorm) {
  // stats() is documented live-safe: every field is its own monotonic
  // atomic, so a monitor sampling mid-run must never observe a counter
  // going backwards (or a half-written struct). Hammer the scheduler from
  // worker threads — with a flight recorder attached, so the trace paths
  // get the same TSan coverage — while a monitor thread samples
  // stats()/min_bound() continuously.
  constexpr unsigned kWorkers = 4;
  obs::TraceSink sink;
  SchedulerTuning tuning;
  tuning.adaptive = false;
  tuning.stale_refresh_us = 1;  // keep maintain() hot
  tuning.trace = &sink;
  WorkStealingScheduler s(kWorkers, /*deque_capacity=*/1, tuning);
  s.push_root(node_with_bound(0.0));

  std::atomic<std::int64_t> fanout_budget{5000};
  std::atomic<std::uint64_t> expansions_done{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::uint64_t seq = 0;
      while (auto n = s.acquire(w)) {
        s.maintain(w);
        const std::size_t k =
            fanout_budget.fetch_sub(1, std::memory_order_relaxed) > 0 ? 2 : 0;
        s.on_expanded(k);
        expansions_done.fetch_add(1, std::memory_order_relaxed);
        if (k > 0) {
          std::vector<search::Node> batch;
          for (std::size_t i = 0; i < k; ++i)
            batch.push_back(node_with_bound(n->bound + 1.0 + ++seq * 1e-6));
          s.push_batch(w, std::move(batch));
        }
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    SchedulerStats prev;
    while (!done.load(std::memory_order_acquire)) {
      const SchedulerStats cur = s.stats();
      EXPECT_GE(cur.pushes, prev.pushes);
      EXPECT_GE(cur.pops, prev.pops);
      EXPECT_GE(cur.grants, prev.grants);
      EXPECT_GE(cur.steals, prev.steals);
      EXPECT_GE(cur.steal_attempts, prev.steal_attempts);
      EXPECT_GE(cur.offloads, prev.offloads);
      EXPECT_GE(cur.lock_acquisitions, prev.lock_acquisitions);
      EXPECT_GE(cur.steals_local, prev.steals_local);
      EXPECT_GE(cur.steals_remote, prev.steals_remote);
      EXPECT_GE(cur.handles_published, prev.handles_published);
      EXPECT_GE(cur.handle_claims, prev.handle_claims);
      EXPECT_GE(cur.handle_grants, prev.handle_grants);
      EXPECT_GE(cur.stale_discards, prev.stale_discards);
      EXPECT_GE(cur.claim_wait_us, prev.claim_wait_us);
      EXPECT_GE(cur.mailbox_parked, prev.mailbox_parked);
      EXPECT_GE(cur.mailbox_drained, prev.mailbox_drained);
      EXPECT_GE(cur.stale_refreshes, prev.stale_refreshes);
      EXPECT_GE(cur.expansions, prev.expansions);
      // Live sink counters share the same contract.
      EXPECT_GE(sink.recorded(), sink.dropped());
      (void)s.min_bound();
      prev = cur;
    }
  });

  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_release);
  monitor.join();

  const SchedulerStats fin = s.stats();
  EXPECT_EQ(fin.expansions,
            expansions_done.load(std::memory_order_relaxed));
  EXPECT_GT(fin.expansions, 5000u);
  EXPECT_EQ(fin.steals, fin.steals_local + fin.steals_remote);
}

}  // namespace
}  // namespace blog::parallel
