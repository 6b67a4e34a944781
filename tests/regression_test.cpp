// Regression harness for the trail-based (in-place) execution refactor:
// the copy-on-migration engine must produce byte-identical solution sets
// to the legacy materializing engine, for every strategy and worker count,
// while copying far fewer cells per expansion.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "blog/andp/exec.hpp"
#include "blog/parallel/engine.hpp"
#include "blog/workloads/workloads.hpp"

namespace blog {
namespace {

using engine::Interpreter;
using engine::solution_texts;

using blog::workloads::deep_nat_query;
using blog::workloads::layered_dag;

/// Solve with the legacy materializing path (observer attached forces it).
search::SearchResult solve_detached(Interpreter& ip, const std::string& query,
                                    search::SearchOptions o) {
  search::SearchObserver obs;  // empty hooks still select the legacy path
  return ip.solve(query, o, &obs);
}

struct Workload {
  const char* name;
  std::string program;
  std::string query;
};

std::vector<Workload> workload_set() {
  return {
      {"family", blog::workloads::figure1_family(), "gf(sam,G)"},
      {"dag", layered_dag(3, 3), "path(n0_0,Z,P)"},
      {"append",
       "append([],L,L). append([H|T],L,[H|R]) :- append(T,L,R).",
       "append(X,Y,[1,2,3,4,5,6,7,8])"},
      {"builtin",
       "n(1). n(2). n(3). n(4). big(X) :- n(X), Y is X*2, Y > 4.",
       "big(X)"},
  };
}

// --------------------------------------------- in-place vs legacy engine --

TEST(InplaceRegression, SolutionTextsIdenticalToLegacyForEveryStrategy) {
  for (const Workload& w : workload_set()) {
    for (const auto strat :
         {search::Strategy::DepthFirst, search::Strategy::BreadthFirst,
          search::Strategy::BestFirst}) {
      search::SearchOptions o;
      o.strategy = strat;
      o.update_weights = false;

      Interpreter legacy;
      legacy.consult_string(w.program);
      const auto expected = solution_texts(solve_detached(legacy, w.query, o));

      Interpreter inplace;
      inplace.consult_string(w.program);
      const auto got = solution_texts(inplace.solve(w.query, o));
      EXPECT_EQ(got, expected)
          << w.name << " / " << search::strategy_name(strat);
    }
  }
}

TEST(InplaceRegression, DepthFirstPreservesPrologSolutionOrder) {
  for (const Workload& w : workload_set()) {
    search::SearchOptions o;
    o.strategy = search::Strategy::DepthFirst;
    o.update_weights = false;

    Interpreter legacy;
    legacy.consult_string(w.program);
    const auto lr = solve_detached(legacy, w.query, o);

    Interpreter inplace;
    inplace.consult_string(w.program);
    const auto ir = inplace.solve(w.query, o);

    ASSERT_EQ(ir.solutions.size(), lr.solutions.size()) << w.name;
    for (std::size_t i = 0; i < ir.solutions.size(); ++i)
      EXPECT_EQ(ir.solutions[i].text, lr.solutions[i].text)
          << w.name << " solution " << i;  // unsorted: exact Prolog order
    EXPECT_EQ(ir.stats.nodes_expanded, lr.stats.nodes_expanded) << w.name;
  }
}

TEST(InplaceRegression, AdaptiveRunsKeepTheSolutionSet) {
  // With §5 weight updates on, repeated best-first runs of the in-place
  // engine must keep finding everything the legacy engine finds.
  Interpreter legacy;
  legacy.consult_string(blog::workloads::figure1_family());
  const auto expected =
      solution_texts(solve_detached(legacy, "gf(sam,G)", {}));
  Interpreter inplace;
  inplace.consult_string(blog::workloads::figure1_family());
  for (int run = 0; run < 3; ++run)
    EXPECT_EQ(solution_texts(inplace.solve("gf(sam,G)")), expected)
        << "run " << run;
}

class WorkerCount : public ::testing::TestWithParam<unsigned> {};

TEST_P(WorkerCount, ParallelSolutionTextsIdenticalToLegacySequential) {
  for (const Workload& w : workload_set()) {
    search::SearchOptions o;
    o.update_weights = false;
    Interpreter legacy;
    legacy.consult_string(w.program);
    const auto expected = solution_texts(solve_detached(legacy, w.query, o));

    Interpreter par;
    par.consult_string(w.program);
    parallel::ParallelOptions po;
    po.workers = GetParam();
    po.update_weights = false;
    parallel::ParallelEngine pe(par.program(), par.weights(), &par.builtins(),
                                po);
    const auto r = pe.solve(par.parse_query(w.query));
    std::vector<std::string> got;
    for (const auto& s : r.solutions) got.push_back(s.text);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << w.name << " workers=" << GetParam();
    EXPECT_TRUE(r.exhausted) << w.name;
  }
}

TEST_P(WorkerCount, TinyLocalCapacityForcesMigrationAndStaysExact) {
  // Capacity 1 with static capacities publishes every non-leaf choice
  // past the first as a copy-on-steal handle — the stress case for the
  // claim/materialize path. Every handle must be consumed exactly once
  // and the answers must be the sequential engine's.
  search::SearchOptions o;
  o.update_weights = false;
  Interpreter legacy;
  legacy.consult_string(layered_dag(3, 3));
  const auto expected =
      solution_texts(solve_detached(legacy, "path(n0_0,Z,P)", o));

  Interpreter par;
  par.consult_string(layered_dag(3, 3));
  parallel::ParallelOptions po;
  po.workers = GetParam();
  po.local_capacity = 1;
  po.d_threshold = 0.0;
  po.adaptive_capacity = false;
  po.update_weights = false;
  parallel::ParallelEngine pe(par.program(), par.weights(), &par.builtins(),
                              po);
  const auto r = pe.solve(par.parse_query("path(n0_0,Z,P)"));
  std::vector<std::string> got;
  for (const auto& s : r.solutions) got.push_back(s.text);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(r.exhausted);
  std::uint64_t published = 0, consumed = 0;
  for (const auto& ws : r.workers) {
    published += ws.handles_published;
    consumed +=
        ws.handles_reclaimed + ws.handles_granted + ws.handles_migrated;
  }
  EXPECT_GT(published, 0u);
  EXPECT_EQ(consumed, published);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCount,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ------------------------------------------- scheduler cross-regression --

/// Worker count: the work-stealing scheduler must match the legacy
/// sequential engine under every strategy.
class SchedulerGrid : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerGrid, SolutionSetsIdenticalToLegacyAcrossStrategies) {
  const unsigned workers = GetParam();
  for (const Workload& w : workload_set()) {
    // The legacy per-strategy solution sets (already asserted equal to the
    // in-place engine above) are the reference for every scheduler.
    for (const auto strat :
         {search::Strategy::DepthFirst, search::Strategy::BreadthFirst,
          search::Strategy::BestFirst}) {
      search::SearchOptions so;
      so.strategy = strat;
      so.update_weights = false;
      Interpreter legacy;
      legacy.consult_string(w.program);
      const auto expected = solution_texts(solve_detached(legacy, w.query, so));

      Interpreter par;
      par.consult_string(w.program);
      parallel::ParallelOptions po;
      po.workers = workers;
      po.update_weights = false;
      parallel::ParallelEngine pe(par.program(), par.weights(),
                                  &par.builtins(), po);
      const auto r = pe.solve(par.parse_query(w.query));
      std::vector<std::string> got;
      for (const auto& s : r.solutions) got.push_back(s.text);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected)
          << w.name << " / " << search::strategy_name(strat)
          << " workers=" << workers;
      EXPECT_TRUE(r.exhausted) << w.name;
    }
  }
}

TEST_P(SchedulerGrid, MailboxClaimsMatchSequential) {
  // Claim-wait mailboxes only change *when* a thief receives a claimed
  // deposit (parked and drained later) — never what is found. With
  // nearly every choice published, the copy-on-steal run must produce the
  // sequential engine's solution set. On single-node hosts this also pins
  // the NUMA fallback path: worker placement and victim scans must behave
  // exactly as before.
  const unsigned workers = GetParam();
  for (const Workload& w : workload_set()) {
    search::SearchOptions so;
    so.update_weights = false;
    Interpreter seq;
    seq.consult_string(w.program);
    const auto expected = solution_texts(seq.solve(w.query, so));

    Interpreter ip;
    ip.consult_string(w.program);
    parallel::ParallelOptions po;
    po.workers = workers;
    po.update_weights = false;
    po.local_capacity = 1;  // publish nearly everything: maximize claims
    parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(),
                                po);
    const auto r = pe.solve(ip.parse_query(w.query));
    std::vector<std::string> got;
    for (const auto& s : r.solutions) got.push_back(s.text);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << w.name << " workers=" << workers;
    EXPECT_TRUE(r.exhausted) << w.name;
  }
}

TEST_P(SchedulerGrid, StaticAnalysisOnOffIsByteIdentical) {
  // The consult-time analysis may only change how work executes (trail-free
  // commits, skipped spills) — never what is found. Every worker count
  // must produce byte-identical solution sets with the analysis disabled.
  const unsigned workers = GetParam();
  for (const Workload& w : workload_set()) {
    auto run = [&](bool analysis_on) {
      Interpreter ip;
      ip.consult_string(w.program);
      parallel::ParallelOptions po;
      po.workers = workers;
      po.update_weights = false;
      po.expander.static_analysis = analysis_on;
      parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(),
                                  po);
      const auto r = pe.solve(ip.parse_query(w.query));
      std::vector<std::string> got;
      for (const auto& s : r.solutions) got.push_back(s.text);
      std::sort(got.begin(), got.end());
      return got;
    };
    EXPECT_EQ(run(true), run(false)) << w.name << " workers=" << workers;
  }
}

TEST_P(SchedulerGrid, FlightRecorderOnOffIsByteIdentical) {
  // The flight recorder observes; it must never steer. Attaching a sink
  // has to leave every worker count's solution set byte-identical to the
  // untraced run, while actually recording events.
  const unsigned workers = GetParam();
  for (const Workload& w : workload_set()) {
    auto run = [&](obs::TraceSink* sink) {
      Interpreter ip;
      ip.consult_string(w.program);
      parallel::ParallelOptions po;
      po.workers = workers;
      po.update_weights = false;
      po.trace = sink;
      parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(),
                                  po);
      const auto r = pe.solve(ip.parse_query(w.query));
      std::vector<std::string> got;
      for (const auto& s : r.solutions) got.push_back(s.text);
      std::sort(got.begin(), got.end());
      return got;
    };
    obs::TraceSink sink;
    EXPECT_EQ(run(&sink), run(nullptr)) << w.name << " workers=" << workers;
    EXPECT_GT(sink.recorded(), 0u) << w.name;
  }
}

INSTANTIATE_TEST_SUITE_P(SchedulerWorkers, SchedulerGrid,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ------------------------------------- compile layer (index × bytecode) --

/// Workloads stressing the compile layer specifically: var-headed clauses
/// interleaved with keyed ones, 0-arity goals, and int / atom / struct
/// first arguments, queried both through a bound key and through an
/// unbound first argument.
std::vector<Workload> compile_layer_workloads() {
  const std::string mixed = R"(
    k(a,1). k(b,2). k(C,var1) :- m(C). k(7,seven). k(g(x),gee).
    k(g(x,y),gee2). k(a,3). k(D,var2) :- m(D). m(a). m(b).
  )";
  auto all = workload_set();
  all.push_back({"mixed_keyed", mixed, "k(a,V)"});
  all.push_back({"mixed_int", mixed, "k(7,V)"});
  all.push_back({"mixed_struct", mixed, "k(g(x),V)"});
  all.push_back({"mixed_open", mixed, "k(K,V)"});
  all.push_back({"mixed_miss", mixed, "k(zz,V)"});
  all.push_back({"zero_arity",
                 "run :- step(S), emit(S). step(a). step(b). emit(a).",
                 "run"});
  return all;
}

/// (first_arg_indexing, head_bytecode, workers): every combination must be
/// byte-identical to the legacy materializing engine — the structural-
/// unification reference path kept selectable exactly for this comparison.
class IndexBytecodeGrid
    : public ::testing::TestWithParam<std::tuple<bool, bool, unsigned>> {};

TEST_P(IndexBytecodeGrid, SequentialSolutionsIdenticalToLegacyAcrossStrategies) {
  const auto [indexing, bytecode, workers] = GetParam();
  if (workers != 1) GTEST_SKIP() << "worker axis covered by the parallel test";
  for (const Workload& w : compile_layer_workloads()) {
    for (const auto strat :
         {search::Strategy::DepthFirst, search::Strategy::BreadthFirst,
          search::Strategy::BestFirst}) {
      search::SearchOptions ref;
      ref.strategy = strat;
      ref.update_weights = false;
      Interpreter legacy;
      legacy.consult_string(w.program);
      const auto expected = solve_detached(legacy, w.query, ref);

      search::SearchOptions o = ref;
      o.expander.first_arg_indexing = indexing;
      o.expander.head_bytecode = bytecode;
      Interpreter ip;
      ip.consult_string(w.program);
      const auto got = ip.solve(w.query, o);
      EXPECT_EQ(solution_texts(got), solution_texts(expected))
          << w.name << " / " << search::strategy_name(strat)
          << " indexing=" << indexing << " bytecode=" << bytecode;
      if (strat == search::Strategy::DepthFirst) {
        // Prolog order, not just set equality.
        ASSERT_EQ(got.solutions.size(), expected.solutions.size()) << w.name;
        for (std::size_t i = 0; i < got.solutions.size(); ++i)
          EXPECT_EQ(got.solutions[i].text, expected.solutions[i].text)
              << w.name << " solution " << i;
      }
    }
  }
}

TEST_P(IndexBytecodeGrid, ParallelSolutionsIdenticalToLegacy) {
  const auto [indexing, bytecode, workers] = GetParam();
  for (const Workload& w : compile_layer_workloads()) {
    search::SearchOptions ref;
    ref.update_weights = false;
    Interpreter legacy;
    legacy.consult_string(w.program);
    const auto expected = solution_texts(solve_detached(legacy, w.query, ref));

    Interpreter par;
    par.consult_string(w.program);
    parallel::ParallelOptions po;
    po.workers = workers;
    po.update_weights = false;
    po.expander.first_arg_indexing = indexing;
    po.expander.head_bytecode = bytecode;
    parallel::ParallelEngine pe(par.program(), par.weights(), &par.builtins(),
                                po);
    const auto r = pe.solve(par.parse_query(w.query));
    std::vector<std::string> got;
    for (const auto& s : r.solutions) got.push_back(s.text);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << w.name << " workers=" << workers
                             << " indexing=" << indexing
                             << " bytecode=" << bytecode;
    EXPECT_TRUE(r.exhausted) << w.name;
  }
}

TEST_P(IndexBytecodeGrid, OccursCheckOnStaysIdentical) {
  const auto [indexing, bytecode, workers] = GetParam();
  if (workers != 1) GTEST_SKIP() << "occurs-check axis is sequential";
  // Repeated head variables + partially instantiated goals: the cases
  // where GetValue's embedded unification must apply the occurs check
  // exactly as the structural path does.
  const Workload w{"occurs",
                   "eq(X,X). wrap(Y,g(Y)). probe(A,B) :- eq(A,g(B)), "
                   "wrap(B,A).",
                   "probe(P,Q)"};
  search::SearchOptions ref;
  ref.update_weights = false;
  ref.expander.occurs_check = true;
  Interpreter legacy;
  legacy.consult_string(w.program);
  const auto expected = solution_texts(solve_detached(legacy, w.query, ref));

  search::SearchOptions o = ref;
  o.expander.first_arg_indexing = indexing;
  o.expander.head_bytecode = bytecode;
  Interpreter ip;
  ip.consult_string(w.program);
  EXPECT_EQ(solution_texts(ip.solve(w.query, o)), expected)
      << "indexing=" << indexing << " bytecode=" << bytecode;
}

INSTANTIATE_TEST_SUITE_P(CompileLayer, IndexBytecodeGrid,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Values(1u, 2u, 8u)));

// ------------------------------------------------------------ and/or grid --

/// Workloads exercising every fork shape: pure cross product, a
/// shared-variable semi-join chain, mixed groups, and a recursive group
/// whose answers need the groundness fallback machinery.
std::vector<Workload> andor_workload_set() {
  return {
      {"cross", "p(1). p(2). p(3). q(a). q(b). r(x). r(y).",
       "p(X), q(Y), r(Z)"},
      {"semijoin",
       "e(1,a). e(2,b). e(3,c). f(a,x). f(b,y). f(c,x). g(x,u). g(y,v).",
       "e(A,B), f(B,C), g(C,D)"},
      {"mixed", "m(1,2). m(2,3). n(2,7). n(3,9). lone(q). lone(r).",
       "m(X,Y), n(Y,Z), lone(W)"},
      {"recursive",
       "append([],L,L). append([H|T],L,[H|R]) :- append(T,L,R). c(k1). c(k2).",
       "append(A,B,[1,2,3]), c(C)"},
  };
}

/// The tentpole grid: unified AND/OR execution must be byte-identical to
/// the sequential interpreter across {and-parallel on/off} × {fork:
/// static/runtime/off} × {workers 1,2,8}, with the strategy axis folded
/// into the per-group engine options.
class AndOrGrid
    : public ::testing::TestWithParam<std::tuple<andp::ForkMode, unsigned>> {
};

TEST_P(AndOrGrid, UnifiedSolutionsByteIdenticalToSequential) {
  const auto [fork, workers] = GetParam();
  for (const Workload& w : andor_workload_set()) {
    for (const auto strat :
         {search::Strategy::DepthFirst, search::Strategy::BestFirst}) {
      search::SearchOptions so;
      so.strategy = strat;
      so.update_weights = false;
      Interpreter seq;
      seq.consult_string(w.program);
      const auto expected = solution_texts(seq.solve(w.query, so));

      // And-parallel ON, unified scheduler.
      Interpreter uni;
      uni.consult_string(w.program);
      andp::AndParallelOptions o;
      o.search = so;
      o.fork = fork;
      o.workers = workers;
      const auto res = andp::solve_and_parallel(uni, w.query, o);
      EXPECT_EQ(res.outcome, search::Outcome::Exhausted) << w.name;
      EXPECT_EQ(solution_texts(res.solutions), expected)
          << w.name << " fork=" << andp::fork_mode_name(fork)
          << " workers=" << workers
          << " strat=" << search::strategy_name(strat);
      EXPECT_EQ(res.join_resolves, 1u) << w.name;
    }
  }
}

TEST_P(AndOrGrid, SharedVariableSemiJoinOnOffIsByteIdentical) {
  const auto [fork, workers] = GetParam();
  const Workload w = andor_workload_set()[1];  // the semi-join chain
  Interpreter seq;
  seq.consult_string(w.program);
  search::SearchOptions so;
  so.update_weights = false;
  const auto expected = solution_texts(seq.solve(w.query, so));
  for (const bool semi : {true, false}) {
    Interpreter uni;
    uni.consult_string(w.program);
    andp::AndParallelOptions o;
    o.search = so;
    o.fork = fork;
    o.workers = workers;
    o.use_semi_join = semi;
    const auto res = andp::solve_and_parallel(uni, w.query, o);
    EXPECT_EQ(solution_texts(res.solutions), expected)
        << "semi_join=" << semi << " workers=" << workers;
  }
}

TEST_P(AndOrGrid, CancellationMidJoinLeaksNoPartialAnswers) {
  const auto [fork, workers] = GetParam();
  // A tiny group beside a large one, with a node budget that lets the
  // tiny group finish (and deposit its answers into the join) while the
  // large group is still running: the poisoned join must refuse to
  // resolve, so no partial cross-product leaks out.
  Workload w{"partial",
             std::string("tiny(a). tiny(b). ") + layered_dag(4, 4),
             "tiny(T), path(n0_0,Z,P)"};
  {
    Interpreter ip;
    ip.consult_string(w.program);
    andp::AndParallelOptions o;
    o.search.update_weights = false;
    o.search.limits.max_nodes = 10;  // tiny finishes, the DAG walk cannot
    o.fork = fork;
    o.workers = workers;
    const auto res = andp::solve_and_parallel(ip, w.query, o);
    EXPECT_EQ(res.outcome, search::Outcome::BudgetExceeded);
    EXPECT_TRUE(res.solutions.empty());
    EXPECT_EQ(res.join_resolves, 0u);
  }
  {
    // Pre-set cancel flag: workers stop at their first expansion boundary.
    std::atomic<bool> cancel{true};
    Interpreter ip;
    ip.consult_string(w.program);
    andp::AndParallelOptions o;
    o.search.update_weights = false;
    o.search.cancel = &cancel;
    o.fork = fork;
    o.workers = workers;
    const auto res = andp::solve_and_parallel(ip, w.query, o);
    EXPECT_EQ(res.outcome, search::Outcome::Cancelled);
    EXPECT_TRUE(res.solutions.empty());
    EXPECT_EQ(res.join_resolves, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AndOrWorkers, AndOrGrid,
    ::testing::Combine(::testing::Values(andp::ForkMode::Static,
                                         andp::ForkMode::Runtime,
                                         andp::ForkMode::Off),
                       ::testing::Values(1u, 2u, 8u)));

// ------------------------------------------------------- copy accounting --

TEST(InplaceRegression, DeepRecursionCopiesAtLeastFiveTimesFewerCells) {
  // The acceptance bar of the refactor: on a deep-recursion workload the
  // in-place engine must copy >= 5x fewer cells per expansion than the
  // legacy per-child-store engine.
  const std::string program = blog::workloads::nat_program();
  const std::string query = deep_nat_query(100);
  search::SearchOptions o;
  o.strategy = search::Strategy::DepthFirst;
  o.update_weights = false;

  Interpreter legacy;
  legacy.consult_string(program);
  const auto lr = solve_detached(legacy, query, o);

  Interpreter inplace;
  inplace.consult_string(program);
  const auto ir = inplace.solve(query, o);

  ASSERT_EQ(ir.solutions.size(), lr.solutions.size());
  ASSERT_EQ(ir.stats.nodes_expanded, lr.stats.nodes_expanded);
  ASSERT_GT(lr.stats.expand.cells_copied, 0u);
  const double legacy_per = double(lr.stats.expand.cells_copied) /
                            double(lr.stats.nodes_expanded);
  const double inplace_per = double(ir.stats.expand.cells_copied) /
                             double(ir.stats.nodes_expanded);
  EXPECT_LE(inplace_per * 5.0, legacy_per)
      << "legacy " << legacy_per << " vs in-place " << inplace_per;
}

TEST(InplaceRegression, PureDepthFirstDetachesOnlySolutions) {
  Interpreter ip;
  ip.consult_string(blog::workloads::figure1_family());
  search::SearchOptions o;
  o.strategy = search::Strategy::DepthFirst;
  const auto r = ip.solve("gf(sam,G)", o);
  // Depth-first never touches a frontier: the only detached states are the
  // recorded answers.
  EXPECT_EQ(r.stats.expand.detaches, r.solutions.size());
}

}  // namespace
}  // namespace blog
