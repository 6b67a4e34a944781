/// \file
/// \brief OR-tree nodes and the resolution (expansion) step.
///
/// A `DetachedNode` is a full, independent copy of the computation state —
/// its own term store, the remaining goal list, and the instantiated answer
/// template. Detached nodes are the unit of *migration*: they are what the
/// minimum-seeking network (the work-stealing scheduler) exchanges between
/// workers and what observers see. Within a worker, execution is
/// trail-based and in-place (see runner.hpp); a detached copy is
/// materialized only when a subtree is spilled, migrated, or recorded as a
/// solution. The arcs from
/// the root are kept as a shared immutable chain so that bounds and §5
/// weight updates can walk leaf→root cheaply.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blog/db/program.hpp"
#include "blog/db/weights.hpp"
#include "blog/term/unify.hpp"

namespace blog::analysis {
struct PredicateInfo;
}  // namespace blog::analysis

namespace blog::search {

/// A pending goal together with its provenance: which clause body literal
/// introduced it (the caller side of the Figure-4 weighted pointer).
struct Goal {
  term::TermRef term = term::kNullTerm;        ///< the goal term
  db::ClauseId src_clause = db::kQueryClause;  ///< clause that introduced it
  std::uint32_t src_literal = 0;               ///< body literal index
};

/// One resolution decision (an arc of the OR-tree).
struct Arc {
  db::PointerKey key;    ///< which weighted pointer was followed
  double weight = 0.0;   ///< weight read at decision time
  db::WeightKind kind_at_use = db::WeightKind::Unknown;  ///< kind then
};

/// Immutable leafward-growing chain of arcs (shared between siblings'
/// descendants).
struct Chain {
  Arc arc;                              ///< the decision at this step
  std::shared_ptr<const Chain> parent;  ///< rootward remainder
};

using ChainPtr = std::shared_ptr<const Chain>;

/// Length of a chain (number of arcs root→here).
std::uint32_t chain_length(const Chain* c);

/// Search-tree node owning its full state (the migration unit). Value
/// type: freely movable, copyable for observers.
struct DetachedNode {
  term::Store store;                ///< owned compacted term store
  std::vector<Goal> goals;          ///< goals[0] is resolved next
  term::TermRef answer = term::kNullTerm;  ///< instantiated query template
  double bound = 0.0;               ///< sum of arc weights root→here
  std::uint32_t depth = 0;          ///< number of arcs
  ChainPtr chain;                   ///< decision chain for §5 updates
  std::uint64_t id = 0;             ///< node id
  std::uint64_t parent_id = 0;      ///< parent node id
  /// AND-parallel work-item tag. Every node descends from exactly one
  /// pushed root; when a conjunction is forked into independent work
  /// items, each item's root carries a distinct tag and expansion
  /// inherits it, so per-item node counts can be attributed without
  /// walking ancestry. 0 for plain single-root jobs.
  std::uint32_t fork_tag = 0;

  /// True when no goals remain: the node is an answer.
  [[nodiscard]] bool is_leaf_solution() const { return goals.empty(); }
};

/// Historical name; frontiers, observers and the machine simulator all
/// traffic in detached nodes.
using Node = DetachedNode;

/// A recorded answer: the instantiated template compacted into its own
/// store, plus the rendered text.
struct Solution {
  term::Store store;  ///< owned store holding the answer term
  term::TermRef answer = term::kNullTerm;  ///< instantiated template
  double bound = 0.0;       ///< bound of the successful chain
  std::uint32_t depth = 0;  ///< derivation depth
  std::string text;         ///< rendered answer term
};

/// A query ready to run: goal terms plus the answer template, in one store.
struct Query {
  term::Store store;                 ///< store the goal terms live in
  std::vector<term::TermRef> goals;  ///< conjunction to prove
  term::TermRef answer = term::kNullTerm;  ///< answer template to report
};

/// Hook for evaluating builtin goals. Deterministic builtins only: they
/// bind in `s` (trailing via `trail`) and succeed or fail.
class BuiltinEvaluator {
public:
  /// What evaluating a goal did.
  enum class Outcome { NotBuiltin, True, Fail };
  virtual ~BuiltinEvaluator() = default;
  /// Evaluate `goal` in `s`, trailing bindings through `trail`.
  virtual Outcome eval(term::Store& s, term::TermRef goal, term::Trail& trail) = 0;
  /// Pure check (no evaluation) used by goal-selection policies.
  [[nodiscard]] virtual bool is_builtin(const db::Pred&) const { return false; }
};

/// Work counters of the resolution step (unification effort, copies).
struct ExpandStats {
  std::size_t unify_attempts = 0;   ///< head unifications tried
  std::size_t unify_successes = 0;  ///< ...that succeeded
  std::size_t unify_cells = 0;  ///< cells visited by unification (work proxy)
  /// Cells deep-copied into independent states. In-place (trail) execution
  /// copies nothing per expansion; this counts only detach points — spills
  /// to a frontier, migrations through the network, recorded solutions —
  /// plus, on the legacy materializing path, whole child states.
  std::size_t cells_copied = 0;
  std::size_t builtin_calls = 0;  ///< builtin goals evaluated
  std::size_t detaches = 0;       ///< independent states materialized
  /// Trail entries written (cumulative term::Trail::pushes of the engine's
  /// trail). The static-analysis fast path exists to drive this down:
  /// committed ground-fact matches write no trail at all.
  std::uint64_t trail_writes = 0;
};

/// How one node's expansion ended.
enum class NodeOutcome {
  Expanded,   ///< children produced
  Solution,   ///< node had no goals
  Failure,    ///< no clause matched / builtin failed: a failed chain (§5)
  DepthLimit, ///< cut off, not a semantic failure
};

/// Which pending goal to resolve next. The paper's §2 model traverses
/// "collecting all unused graphs" and picks freely; Prolog (and our
/// default) is leftmost. Selection is restricted to the prefix of goals
/// before the first builtin so arithmetic stays correctly sequenced.
enum class GoalOrder {
  Leftmost,         ///< Prolog order
  SmallestFanout,   ///< first-fail: fewest candidate clauses first
  CheapestPointer,  ///< goal whose best candidate arc has the least weight
};

/// Options of the shared resolution step.
struct ExpanderOptions {
  bool first_arg_indexing = true;  ///< index candidates by first argument
  /// Match clause heads with the compiled WAM-lite bytecode (db::HeadCode)
  /// instead of import-then-unify. Answers are byte-identical either way;
  /// false keeps the structural path selectable for regression comparison.
  /// Only the in-place engines (Runner) consult this — the legacy
  /// materializing expander always unifies structurally.
  bool head_bytecode = true;
  bool occurs_check = false;       ///< occurs check during unification
  std::uint32_t max_depth = 512;   ///< depth cutoff (DepthLimit outcome)
  bool use_weights = true;  ///< false: every arc weighs 1 (uniform costs)
  GoalOrder goal_order = GoalOrder::Leftmost;  ///< selection policy
  /// Conditional weights (§5 future work): key each pointer weight also by
  /// the clause chosen one step earlier ("conditional information").
  bool conditional_weights = false;
  /// Consult the consult-time static analysis (analysis::ProgramAnalysis)
  /// attached to the program: trail-free committed execution of all-ground
  /// fact buckets, determinism hints to the parallel scheduler, and
  /// static goal-independence verdicts. Solution sets are byte-identical
  /// either way; false disables every consumer at once for A/B runs.
  bool static_analysis = true;
};

/// Result of one resolution step.
struct ExpandOutput {
  NodeOutcome outcome = NodeOutcome::Failure;  ///< how the step ended
  std::vector<Node> children;  ///< for Expanded, in clause (Prolog) order
  /// The node after builtin evaluation, for Solution / Failure /
  /// DepthLimit outcomes.
  Node final_node;
};

/// The resolution step shared by the sequential engine, the thread-parallel
/// engine and the machine simulator.
class Expander {
public:
  Expander(const db::Program& program, const db::WeightStore& weights,
           BuiltinEvaluator* builtins, ExpanderOptions opts = {});

  /// Build the root node of a query.
  [[nodiscard]] DetachedNode make_root(const Query& q) const;

  /// Materializing resolution step: resolve `n`'s first goal, deep-copying
  /// every child into its own store. Builtin goals are evaluated in-place,
  /// consuming goals until a non-builtin is at the front; a builtin failure
  /// yields `Failure`. `out.children` is cleared first. Used by the machine
  /// simulator and observer-instrumented runs; the production engines run
  /// in place through a `Runner` instead (runner.hpp).
  void expand(DetachedNode n, ExpandOutput& out,
              ExpandStats* stats = nullptr) const;

  [[nodiscard]] const db::Program& program() const { return program_; }
  [[nodiscard]] const db::WeightStore& weights() const { return weights_; }
  [[nodiscard]] const ExpanderOptions& options() const { return opts_; }
  [[nodiscard]] BuiltinEvaluator* builtins() const { return builtins_; }

  /// Next fresh node id (shared by all consumers of this expander).
  std::uint64_t next_id() const;

  // --- shared resolution primitives (used by expand() and Runner) --------
  /// Apply the goal-order policy: rotate the chosen goal to the front.
  /// Only the prefix before the first builtin is eligible. `parent_chain`
  /// supplies the context under conditional weights so the CheapestPointer
  /// score reads the same weight make_arc will charge.
  void select_goal(const term::Store& store, std::vector<Goal>& goals,
                   const Chain* parent_chain = nullptr) const;
  /// Candidate clauses for `goal` under the indexing option. The span
  /// aliases the program's clause index (immutable while solving) — no
  /// per-goal copy is made on either the indexed or the unindexed path.
  [[nodiscard]] std::span<const db::ClauseId> candidates_for(
      const term::Store& store, const Goal& goal) const;
  /// Arc for resolving `goal` with `clause`, reading the weight now
  /// (decision time) per the §5 model.
  [[nodiscard]] Arc make_arc(const Goal& goal, db::ClauseId clause,
                             const Chain* parent_chain) const;
  /// Static-analysis verdicts for predicate `p`, or nullptr when the
  /// program carries no analysis, the predicate is unknown, or
  /// `static_analysis` is off (so one flag gates every consumer).
  [[nodiscard]] const analysis::PredicateInfo* pred_info(
      const db::Pred& p) const;

private:
  DetachedNode make_child(const DetachedNode& parent, const db::Clause& clause,
                          term::TermRef renamed_head,
                          const std::vector<term::TermRef>& renamed_body,
                          const Arc& arc, ExpandStats* stats) const;

  const db::Program& program_;
  const db::WeightStore& weights_;
  BuiltinEvaluator* builtins_;
  ExpanderOptions opts_;
  mutable std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace blog::search
