// Second-wave parallel-engine tests: stress, copy-on-steal sharing, threshold
// corners and repeated-run stability.
#include <gtest/gtest.h>

#include <algorithm>

#include "blog/parallel/engine.hpp"
#include "blog/workloads/workloads.hpp"

namespace blog::parallel {
namespace {

using engine::Interpreter;

std::vector<std::string> texts(const ParallelResult& r) {
  std::vector<std::string> out;
  for (const auto& s : r.solutions) out.push_back(s.text);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Parallel2, RepeatedRunsStableSolutionSet) {
  Interpreter ref;
  ref.consult_string(workloads::layered_dag(4, 3));
  const auto expected = engine::solution_texts(
      ref.solve("path(n0_0,Z,P)", {.update_weights = false}));
  for (int run = 0; run < 5; ++run) {
    Interpreter ip;
    ip.consult_string(workloads::layered_dag(4, 3));
    ParallelOptions o;
    o.workers = 4;
    o.update_weights = false;
    ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
    EXPECT_EQ(texts(pe.solve(ip.parse_query("path(n0_0,Z,P)"))), expected)
        << "run " << run;
  }
}

TEST(Parallel2, DepthCutoffIsReportedAsDepthLimited) {
  // One worker's branch hits max_depth: the emptied partition must not
  // claim a complete answer set, while an uncut query still does.
  Interpreter ip;
  ip.consult_string("mk(0,z). mk(N,s(T)) :- N>0, M is N-1, mk(M,T).");
  ParallelOptions o;
  o.workers = 4;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  const auto cut = pe.solve(ip.parse_query("mk(1000,T)"));
  EXPECT_EQ(cut.outcome, search::Outcome::DepthLimited);
  EXPECT_TRUE(cut.exhausted);
  EXPECT_TRUE(cut.solutions.empty());
  const auto full = pe.solve(ip.parse_query("mk(100,T)"));
  EXPECT_EQ(full.outcome, search::Outcome::Exhausted);
  EXPECT_EQ(full.solutions.size(), 1u);
}

TEST(Parallel2, TinyLocalCapacityForcesSharing) {
  // Capacity 0 with static capacities: every non-leaf choice is published
  // as a copy-on-steal handle, and the answers must still be exactly the
  // sequential engine's, with every handle consumed exactly once.
  Interpreter ref;
  ref.consult_string(workloads::layered_dag(4, 3));
  const auto expected = engine::solution_texts(
      ref.solve("path(n0_0,Z,P)", {.update_weights = false}));
  Interpreter ip;
  ip.consult_string(workloads::layered_dag(4, 3));
  ParallelOptions o;
  o.workers = 4;
  o.local_capacity = 0;  // share everything that is not a leaf
  o.adaptive_capacity = false;
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  EXPECT_EQ(r.solutions.size(), 121u);
  EXPECT_EQ(texts(r), expected);
  EXPECT_TRUE(r.exhausted);
  std::uint64_t published = 0, consumed = 0;
  for (const auto& w : r.workers) {
    published += w.handles_published;
    consumed += w.handles_reclaimed + w.handles_granted + w.handles_migrated;
  }
  EXPECT_GT(published, 0u);
  EXPECT_EQ(consumed, published);
  EXPECT_EQ(r.network.handles_published, published);
}

TEST(Parallel2, HugeLocalCapacityStillTerminates) {
  Interpreter ip;
  ip.consult_string(workloads::layered_dag(3, 3));
  ParallelOptions o;
  o.workers = 4;
  o.local_capacity = 1u << 20;
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.solutions.size(), 40u);
}

TEST(Parallel2, ZeroSolutionWideTree) {
  Interpreter ip;
  // Wide tree where everything fails at the leaves.
  ip.consult_string(workloads::layered_dag(3, 4) + "goal :- path(n0_0,nosuch,P).");
  ParallelOptions o;
  o.workers = 4;
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  const auto r = pe.solve(ip.parse_query("goal"));
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_TRUE(r.exhausted);
}

TEST(Parallel2, ManyWorkersFewNodes) {
  // More workers than the tree has nodes: must not deadlock.
  Interpreter ip;
  ip.consult_string("p(1).");
  ParallelOptions o;
  o.workers = 16;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  const auto r = pe.solve(ip.parse_query("p(X)"));
  EXPECT_EQ(r.solutions.size(), 1u);
  EXPECT_TRUE(r.exhausted);
}

TEST(Parallel2, SolutionBoundsMatchSequential) {
  Interpreter seq;
  seq.consult_string(workloads::figure1_family());
  auto sr = seq.solve("gf(sam,G)", {.update_weights = false});

  Interpreter ip;
  ip.consult_string(workloads::figure1_family());
  ParallelOptions o;
  o.workers = 2;
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  auto pr = pe.solve(ip.parse_query("gf(sam,G)"));

  auto bounds = [](auto& sols) {
    std::vector<double> b;
    for (const auto& s : sols) b.push_back(s.bound);
    std::sort(b.begin(), b.end());
    return b;
  };
  EXPECT_EQ(bounds(pr.solutions), bounds(sr.solutions));
}

TEST(Parallel2, StatsAccountEveryExpansion) {
  Interpreter ip;
  ip.consult_string(workloads::layered_dag(3, 3));
  ParallelOptions o;
  o.workers = 3;
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  std::uint64_t takes = 0;
  for (const auto& w : r.workers) takes += w.local_takes + w.network_takes;
  EXPECT_EQ(takes, r.nodes_expanded);
}

}  // namespace
}  // namespace blog::parallel
