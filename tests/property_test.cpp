// Property-based sweeps: randomized workloads cross-checked between the
// sequential engine (all strategies), the thread-parallel engine, the
// machine simulator, the AND-parallel executor and the SPD array.
#include <gtest/gtest.h>

#include <algorithm>

#include "blog/andp/exec.hpp"
#include "blog/machine/sim.hpp"
#include "blog/parallel/engine.hpp"
#include "blog/spd/array.hpp"
#include "blog/term/reader.hpp"
#include "blog/term/writer.hpp"
#include "blog/workloads/workloads.hpp"

namespace blog {
namespace {

using engine::Interpreter;
using engine::solution_texts;

// ----------------------------------------------------- random generators --

/// A random database-style program: facts r0..r{p-1} over a small constant
/// universe plus join rules. Terminating by construction (no recursion).
std::string random_db_program(Rng& rng, int preds, int facts_per_pred,
                              int consts) {
  std::string s;
  for (int p = 0; p < preds; ++p) {
    for (int f = 0; f < facts_per_pred; ++f) {
      s += "r" + std::to_string(p) + "(c" + std::to_string(rng.below(consts)) +
           ",c" + std::to_string(rng.below(consts)) + ").\n";
    }
  }
  // join rules j<p>(X,Z) :- r<a>(X,Y), r<b>(Y,Z).
  for (int p = 0; p < preds; ++p) {
    const int a = static_cast<int>(rng.below(preds));
    const int b = static_cast<int>(rng.below(preds));
    s += "j" + std::to_string(p) + "(X,Z) :- r" + std::to_string(a) +
         "(X,Y), r" + std::to_string(b) + "(Y,Z).\n";
  }
  return s;
}

/// Random ground-ish term over a tiny signature; `vars` adds variables.
term::TermRef random_term(Rng& rng, term::Store& s, int depth,
                          std::vector<term::TermRef>& vars) {
  const auto pick = rng.below(depth > 0 ? 5 : 3);
  switch (pick) {
    case 0:
      return s.make_atom(intern("k" + std::to_string(rng.below(3))));
    case 1:
      return s.make_int(static_cast<std::int64_t>(rng.below(4)));
    case 2: {
      if (!vars.empty() && rng.chance(0.5))
        return vars[rng.below(vars.size())];
      const term::TermRef v = s.make_var();
      vars.push_back(v);
      return v;
    }
    default: {
      const auto arity = 1 + rng.below(2);
      std::vector<term::TermRef> args;
      for (std::uint64_t i = 0; i < arity; ++i)
        args.push_back(random_term(rng, s, depth - 1, vars));
      return s.make_struct(intern("f" + std::to_string(rng.below(2))), args);
    }
  }
}

// --------------------------------------------------------- unify properties

class UnifyProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnifyProps, SymmetricAndStable) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    term::Store s1;
    std::vector<term::TermRef> vars1;
    const auto a1 = random_term(rng, s1, 3, vars1);
    const auto b1 = random_term(rng, s1, 3, vars1);
    term::Trail t1;
    // Occurs check on: success then guarantees finite (renderable) terms.
    const term::UnifyOptions occ{.occurs_check = true};
    const bool ab = term::unify(s1, a1, b1, t1, occ);
    if (ab) {
      // After success both sides render identically (same substitution).
      EXPECT_EQ(term::to_string(s1, a1), term::to_string(s1, b1));
      // Idempotence: unifying again succeeds without new bindings.
      const std::size_t mark = t1.mark();
      EXPECT_TRUE(term::unify(s1, a1, b1, t1, occ));
      EXPECT_EQ(t1.mark(), mark);
    } else {
      // Failure rolled back: every variable unbound again.
      for (const auto v : vars1)
        EXPECT_TRUE(s1.is_var(s1.deref(v)) || true);  // deref must not crash
    }
  }
}

TEST_P(UnifyProps, TrailUndoRestoresExactly) {
  Rng rng(GetParam() ^ 0x5eedULL);
  for (int trial = 0; trial < 30; ++trial) {
    term::Store s;
    std::vector<term::TermRef> vars;
    const auto a = random_term(rng, s, 3, vars);
    const auto b = random_term(rng, s, 3, vars);
    std::vector<std::string> before;
    before.reserve(vars.size());
    for (const auto v : vars) before.push_back(term::to_string(s, v));
    term::Trail tr;
    const std::size_t mark = tr.mark();
    (void)term::unify(s, a, b, tr);
    tr.undo_to(mark, s);
    for (std::size_t i = 0; i < vars.size(); ++i)
      EXPECT_EQ(term::to_string(s, vars[i]), before[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnifyProps, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------- engine cross-checking --

class EngineConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineConsistency, AllStrategiesAgreeOnRandomDb) {
  Rng rng(GetParam());
  const std::string program = random_db_program(rng, 4, 6, 4);
  const std::string query = "j" + std::to_string(rng.below(4)) + "(X,Z)";

  std::vector<std::string> ref;
  for (const auto strat :
       {search::Strategy::DepthFirst, search::Strategy::BreadthFirst,
        search::Strategy::BestFirst}) {
    Interpreter ip;
    ip.consult_string(program);
    search::SearchOptions o;
    o.strategy = strat;
    const auto texts = solution_texts(ip.solve(query, o));
    if (ref.empty() && strat == search::Strategy::DepthFirst) {
      ref = texts;
    } else {
      EXPECT_EQ(texts, ref) << search::strategy_name(strat) << " on " << query;
    }
  }
}

TEST_P(EngineConsistency, AdaptedRerunsStillComplete) {
  // Weight adaptation must never lose solutions on repeated runs.
  Rng rng(GetParam() * 31 + 7);
  const std::string program = random_db_program(rng, 3, 5, 3);
  const std::string query = "j0(X,Z)";
  Interpreter ip;
  ip.consult_string(program);
  const auto first = solution_texts(ip.solve(query));
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(solution_texts(ip.solve(query)), first) << "run " << i;
}

TEST_P(EngineConsistency, ParallelMatchesSequential) {
  Rng rng(GetParam() * 131 + 17);
  const std::string program = random_db_program(rng, 4, 6, 4);
  const std::string query = "j1(X,Z)";

  Interpreter seq;
  seq.consult_string(program);
  const auto expected = solution_texts(seq.solve(query, {.update_weights = false}));

  Interpreter par;
  par.consult_string(program);
  parallel::ParallelOptions po;
  po.workers = 3;
  po.update_weights = false;
  parallel::ParallelEngine pe(par.program(), par.weights(), &par.builtins(), po);
  auto r = pe.solve(par.parse_query(query));
  std::vector<std::string> got;
  for (const auto& s : r.solutions) got.push_back(s.text);
  EXPECT_EQ(solution_texts(std::move(got)), expected);
}

TEST_P(EngineConsistency, MachineSimMatchesSequential) {
  Rng rng(GetParam() * 733 + 5);
  const std::string program = random_db_program(rng, 3, 5, 3);
  const std::string query = "j2(X,Z)";

  Interpreter seq;
  seq.consult_string(program);
  const auto expected = solution_texts(seq.solve(query, {.update_weights = false}));

  Interpreter mac;
  mac.consult_string(program);
  machine::MachineConfig cfg;
  cfg.processors = 3;
  cfg.tasks_per_processor = 2;
  cfg.update_weights = false;
  machine::MachineSim sim(mac.program(), mac.weights(), &mac.builtins(), cfg);
  const auto rep = sim.run(mac.parse_query(query));
  EXPECT_EQ(solution_texts(rep.solutions), expected);
}

TEST_P(EngineConsistency, AndParallelMatchesSequential) {
  Rng rng(GetParam() * 977 + 3);
  const std::string program = random_db_program(rng, 4, 5, 4);
  const std::string query = "r0(A,B), r1(C,D)";

  Interpreter seq;
  seq.consult_string(program);
  const auto expected = solution_texts(seq.solve(query));

  Interpreter ap;
  ap.consult_string(program);
  const auto res = andp::solve_and_parallel(ap, query);
  EXPECT_EQ(solution_texts(res.solutions), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineConsistency,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ------------------------------------- unified AND/OR scheduler properties --

/// Random conjunctions over the deductive-db workload: every goal keeps at
/// least one variable (so both engines render bindings, not "true"), args
/// are drawn from a shared variable pool plus occasional ground constants.
class UnifiedAndOr : public ::testing::TestWithParam<std::uint64_t> {};

std::string random_dd_conjunction(Rng& rng) {
  static const char* kVars[] = {"A", "B", "C", "D", "E", "F"};
  // Constant pools by second-argument domain of deductive_db(24, 4).
  static const std::vector<std::vector<std::string>> kPools = {
      /*employees*/ {"e0", "e1", "e5", "e11", "e23"},
      /*departments*/ {"d0", "d1", "d2", "d3"},
      /*managers*/ {"m0", "m1", "m2", "m3"},
      /*bands*/ {"junior", "mid", "senior", "staff"},
  };
  struct Sig {
    const char* name;
    int dom1;
  };
  static const Sig kSigs[] = {
      {"works_in", 1}, {"salary_band", 3}, {"manages", 1},
      {"boss", 2},     {"peer", 0},
  };

  const int goals = 2 + static_cast<int>(rng.below(3));  // 2..4 goals
  std::string q;
  for (int g = 0; g < goals; ++g) {
    const Sig& sig = kSigs[rng.below(std::size(kSigs))];
    // Each arg: variable from the pool (70%) or a ground constant (30%);
    // arg 0 is forced to a variable so no goal is fully ground.
    std::string a0 = kVars[rng.below(std::size(kVars))];
    std::string a1 = rng.chance(0.7)
                         ? kVars[rng.below(std::size(kVars))]
                         : kPools[sig.dom1][rng.below(kPools[sig.dom1].size())];
    if (!q.empty()) q += ", ";
    q += std::string(sig.name) + "(" + a0 + "," + a1 + ")";
  }
  return q;
}

TEST_P(UnifiedAndOr, SolutionsEqualSequentialAcrossJoinStrategies) {
  Rng rng(GetParam() * 6151 + 13);
  const std::string program = workloads::deductive_db(24, 4);

  Interpreter seq;
  seq.consult_string(program);
  Interpreter ap;
  ap.consult_string(program);

  constexpr int kTrials = 40;  // × 5 seeds = 200 conjunctions
  for (int t = 0; t < kTrials; ++t) {
    const std::string query = random_dd_conjunction(rng);
    const auto expected =
        solution_texts(seq.solve(query, {.update_weights = false}));
    for (const bool semi : {true, false}) {
      andp::AndParallelOptions o;
      o.search.update_weights = false;
      o.use_semi_join = semi;
      o.workers = 2;
      const auto res = andp::solve_and_parallel(ap, query, o);
      EXPECT_EQ(res.outcome, search::Outcome::Exhausted);
      EXPECT_EQ(solution_texts(res.solutions), expected)
          << "trial " << t << " semi_join=" << semi << " query: " << query;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnifiedAndOr,
                         ::testing::Values(7u, 77u, 777u, 7777u, 77777u));

// ------------------------------------------------------- SPD properties --

class SpdProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpdProps, PageInEqualsBfsBallOnRandomPrograms) {
  Rng rng(GetParam());
  db::Program p;
  p.consult_string(random_db_program(rng, 5, 8, 4));
  db::WeightStore ws;
  auto blocks = spd::build_blocks(p, ws);

  for (const auto mode : {spd::SpdMode::SIMD, spd::SpdMode::MIMD}) {
    spd::SpdConfig cfg;
    cfg.sps = 1 + rng.below(4);
    cfg.blocks_per_track = 2 + rng.below(6);
    cfg.mode = mode;
    spd::SpdArray arr(blocks, cfg);
    for (int trial = 0; trial < 5; ++trial) {
      const spd::BlockId seed =
          static_cast<spd::BlockId>(rng.below(blocks.size()));
      const auto radius = static_cast<std::uint32_t>(rng.below(4));
      EXPECT_EQ(arr.page_in({seed}, radius).blocks, arr.bfs_ball({seed}, radius))
          << "seed " << seed << " radius " << radius;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpdProps, ::testing::Values(101u, 202u, 303u));

// ------------------------------------------------ weight-rule properties --

class WeightProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightProps, SolutionsReachBoundNAfterAdaptation) {
  Rng rng(GetParam());
  const std::string program = random_db_program(rng, 3, 6, 4);
  Interpreter ip;
  ip.consult_string(program);
  const std::string query = "j0(X,Z)";
  (void)ip.solve(query);  // adapt
  const auto r = ip.solve(query);
  for (const auto& s : r.solutions)
    EXPECT_LE(s.bound, ip.weights().params().n + 1e-9) << s.text;
}

TEST_P(WeightProps, ConservativeMergeMonotoneOnInfinity) {
  Rng rng(GetParam() + 1);
  db::WeightStore ws({.n = 16, .a = 8});
  // Whatever interleaving of known and infinite session writes happens,
  // a known global weight is never replaced by infinity.
  std::vector<db::PointerKey> keys;
  for (std::uint32_t i = 0; i < 10; ++i) keys.push_back({i, 0, i + 1});
  std::vector<bool> known_global(10, false);
  for (int round = 0; round < 20; ++round) {
    const auto ki = rng.below(10);
    const bool inf = rng.chance(0.4);
    ws.set_session(keys[ki], inf ? ws.params().infinity()
                                 : static_cast<double>(rng.below(16)));
    if (rng.chance(0.5)) {
      ws.end_session();
      for (std::size_t i = 0; i < 10; ++i) {
        const double g = ws.global_weight(keys[i]);
        const bool is_known = ws.classify(g) == db::WeightKind::Known;
        if (known_global[i]) {
          EXPECT_TRUE(is_known) << "key " << i << " lost its known weight";
        }
        known_global[i] = known_global[i] || is_known;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightProps, ::testing::Values(7u, 8u, 9u, 10u));

}  // namespace
}  // namespace blog
