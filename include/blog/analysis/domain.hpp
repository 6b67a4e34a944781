/// \file
/// \brief Abstract domain of the consult-time program analysis.
///
/// The lattice is a per-argument groundness/mode abstraction:
///
///          Unknown
///          /     \      (higher = less precise)
///      Ground   Free
///          \     /
///          Bottom
///
/// `Ground` claims that *every* successful call leaves the argument fully
/// instantiated; `Free` that the callee never constrains it (a head
/// variable occurring nowhere else); `Unknown` gives up; `Bottom` is the
/// not-yet-computed / provably-never-succeeds element the fixpoint starts
/// from. Soundness points upward: the analysis may only answer `Ground`
/// when it can prove it, so every consumer treats `Unknown` as "fall back
/// to the run-time check" — never the other way around.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "blog/db/clause.hpp"

namespace blog::db {
class Program;
}  // namespace blog::db

namespace blog::analysis {

/// One point of the per-argument groundness lattice (see file comment).
enum class Mode : std::uint8_t {
  Bottom,   ///< no successful derivation seen yet (fixpoint start)
  Ground,   ///< every success fully instantiates the argument
  Free,     ///< the callee never binds the argument
  Unknown,  ///< anything can happen (the lattice top)
};

/// Least upper bound of two lattice points.
[[nodiscard]] Mode join(Mode a, Mode b);

/// Stable display name ("ground", "free", ...).
[[nodiscard]] const char* mode_name(Mode m);

/// Static pairwise goal-independence verdict (see independence.hpp).
enum class Indep : std::uint8_t {
  Independent,  ///< provably no shared unbound variable at call time
  Dependent,    ///< provably a shared unbound variable
  Unknown,      ///< undecidable statically: run the run-time scan
};

/// Stable display name ("independent", "dependent", "unknown").
[[nodiscard]] const char* indep_name(Indep v);

/// Everything the bottom-up pass inferred about one predicate.
struct PredicateInfo {
  /// Success pattern, one Mode per argument. Meaningful only when
  /// `proven_succeeds`; empty for arity-0 predicates.
  std::vector<Mode> success_modes;
  /// The fixpoint found at least one clause shape that can succeed. False
  /// at the fixpoint means no finite successful derivation exists (e.g.
  /// every clause calls a missing predicate or `fail`).
  bool proven_succeeds = false;
  bool all_facts = false;         ///< every clause has an empty body
  bool all_ground_facts = false;  ///< ...and a fully ground head
  /// Every first-argument index bucket holds at most one clause (no
  /// var-headed clauses, no duplicate keys): a call with a bound first
  /// argument is deterministic by construction.
  bool det_unique_key = false;
  /// Pairwise mutual exclusion: no two clause heads that share an index
  /// bucket can unify with each other — at most one can match any goal
  /// whose arguments are at least as instantiated as the other head.
  bool det_mutex_heads = false;
  std::size_t clause_count = 0;  ///< clauses defining the predicate

  /// Every success leaves every argument ground (the verdict that lets the
  /// AND-parallel combiner skip its per-row groundness re-check).
  [[nodiscard]] bool all_ground_success() const {
    if (!proven_succeeds) return false;
    for (const Mode m : success_modes)
      if (m != Mode::Ground) return false;
    return true;
  }
  /// A call resolved through an index bucket commits to at most one
  /// clause: no OR-work exists for the scheduler to steal.
  [[nodiscard]] bool deterministic_hint() const {
    return det_unique_key || det_mutex_heads;
  }
};

/// Per-clause by-product of the groundness pass: the pairwise
/// independence matrix of the clause's body goals under the abstraction.
struct ClauseInfo {
  /// `pairs[i * n + j]` (n = body size) for body goals i < j: Independent
  /// when the goals' shared variables are all proven ground before goal i
  /// executes (the classic fork condition), Dependent when a shared
  /// variable is provably still free there, Unknown otherwise.
  std::vector<Indep> pairs;
  std::uint32_t body_size = 0;

  [[nodiscard]] Indep pair(std::uint32_t i, std::uint32_t j) const {
    return pairs[i * body_size + j];
  }
};

/// The whole consult-time analysis of one db::Program. Immutable once
/// attached; invalidated (dropped) by any later add_clause, recomputed at
/// the next consult/export, so snapshot epochs carry matching results.
struct ProgramAnalysis {
  std::unordered_map<db::Pred, PredicateInfo, db::PredHash> preds;
  /// Indexed by ClauseId; entries present only for clauses with >= 2 body
  /// goals (empty ClauseInfo otherwise).
  std::vector<ClauseInfo> clauses;
  std::size_t iterations = 0;  ///< Kleene rounds until the fixpoint

  /// Info for `p`, or nullptr when the predicate has no clauses.
  [[nodiscard]] const PredicateInfo* info(const db::Pred& p) const {
    const auto it = preds.find(p);
    return it == preds.end() ? nullptr : &it->second;
  }
};

/// Run the full analysis (groundness fixpoint, determinism, clause-body
/// independence) over a consulted program.
[[nodiscard]] std::shared_ptr<const ProgramAnalysis> analyze(
    const db::Program& program);

/// Compute-and-attach: analyze `program` and store the result on it (see
/// db::Program::analysis) unless a current result is already attached.
void ensure(db::Program& program);

}  // namespace blog::analysis
