/// \file
/// \brief In-place (trail-based) node execution.
///
/// A `Runner` executes a derivation destructively inside one worker-local
/// term store. Resolving a goal binds variables through the trail and
/// records the untried alternatives as lightweight `PendingChoice`s — a
/// clause id, a shallow goal list, a bound and a store/trail checkpoint.
/// Nothing is deep-copied per expansion; backtracking to a choice rolls the
/// trail back and truncates the arena to the checkpoint.
///
/// A full, independent `DetachedNode` (an owned compacted store) is
/// materialized only when a choice leaves the worker: spilled to a shared
/// frontier, migrated through the minimum-seeking network, or recorded as a
/// solution. This is the copy-on-migration scheme of mature OR-parallel
/// systems; the paper's §6 machine likewise copies state only between
/// processors' local memories.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "blog/search/node.hpp"

namespace blog::search {

/// Shared state of one **copy-on-steal** spill. Instead of materializing
/// an overflow choice into the scheduler (a deep copy paid even when the
/// owner reclaims the choice itself), the owner publishes a SpillHandle:
/// bound + a claim word, while the pending choice stays — free — on the
/// owning Runner's stack, its checkpoint pinning the trail/store segment
/// the state lives in. The deep copy happens only when a thief actually
/// claims the handle; owner-reclaimed choices cost nothing, exactly like
/// in-place DFS bursts. §6 only requires that *bounds* be published
/// through the minimum-seeking network, not that the states behind them
/// be materialized.
///
/// State machine (owner = the worker whose Runner holds the choice):
///
///   kAvailable ──thief CAS──► kClaimed ──owner CAS──► kFulfilling ──► kReady ──thief──► kTaken
///       │                                                                  (node valid)
///       ├──owner CAS──► kOwnerTaken   (reclaimed in place; entry stale)
///       └──owner CAS──► kDead         (dropped under stop; entry stale)
///   kClaimed ──owner CAS──► kDead     (owner shutting down; thief gives up)
///
/// The claim CAS is the whole race resolution between an owner
/// activating/rolling back a choice and a thief stealing it: exactly one
/// side wins, and a thief that loses treats the deque entry as stale.
///
/// The thief never waits out kClaimed→kReady: the scheduler parks the
/// claimed handle in the thief's private **claim-wait mailbox**, the thief
/// keeps scanning other victims and consumes the deposit at a later
/// acquire boundary. See docs/ARCHITECTURE.md for the transition tables.
struct SpillHandle {
  enum State : std::uint32_t {
    kAvailable,   ///< published; owner reclaim and thief claim race the CAS
    kOwnerTaken,  ///< owner won: activated (or migrated) in place
    kClaimed,     ///< a thief won; the owner must materialize for it
    kFulfilling,  ///< owner is deep-copying the checkpointed state
    kReady,       ///< `node` valid; only the claiming thief may take it
    kDead,        ///< invalidated: owner dropped the choice under stop
    kTaken,       ///< the claiming thief consumed `node` (terminal)
  };
  std::atomic<std::uint32_t> state{kAvailable};  ///< the State word
  double bound = 0.0;  ///< published bound (what the network sees)
  unsigned owner = 0;  ///< worker id whose Runner holds the choice
  DetachedNode node;   ///< deposited by the owner; valid once kReady
  /// Lock-free wake hint: thieves bump it after a claim; the owner's
  /// engine loop polls it each expansion boundary (Runner::
  /// has_pending_claims) and services claims via fulfill_claims.
  std::shared_ptr<std::atomic<std::uint64_t>> claim_ping;

  /// Thief side: claim the handle. On success the owner is pinged and the
  /// caller holds the claim until it reads kReady or kDead.
  bool try_claim() {
    std::uint32_t expect = kAvailable;
    if (!state.compare_exchange_strong(expect, kClaimed,
                                       std::memory_order_acq_rel))
      return false;
    claim_ping->fetch_add(1, std::memory_order_release);
    return true;
  }
};

/// One untried alternative (OR-branch) of an in-place derivation: apply
/// clause `clause` to the first goal of `goals`. Everything here is either
/// metadata or a reference into the owning Runner's store — creating a
/// PendingChoice copies no term cells, and the parent goal list is shared
/// by all siblings of one expansion.
struct PendingChoice {
  std::shared_ptr<const std::vector<Goal>> goals;  ///< parent goal list
  db::ClauseId clause = 0;      ///< alternative clause to apply
  Arc arc;                      ///< weight read at decision time (§5)
  double bound = 0.0;           ///< child bound = parent bound + arc weight
  std::uint32_t depth = 0;      ///< child depth
  ChainPtr chain;               ///< child chain (arc consed on the parent's)
  std::uint64_t id = 0;         ///< child node id
  std::uint64_t parent_id = 0;  ///< parent node id
  term::Checkpoint cp;          ///< parent state to restore before applying
  /// Non-null once published as a copy-on-steal spill: the scheduler holds
  /// the same handle, and every owner-side consumption of this choice must
  /// first win the handle's claim CAS.
  std::shared_ptr<SpillHandle> handle;
};

/// Destructive executor for one derivation lineage. The engine drives it:
/// load a (root or migrated) node, expand the current state, then either
/// activate a pending choice in place or detach choices for a frontier.
class Runner {
public:
  explicit Runner(const Expander& expander);

  // --- loading -----------------------------------------------------------
  /// Start a fresh derivation from the query (the root node). Pending
  /// choices must have been consumed, detached or dropped first.
  void load_root(const Query& q);
  /// Adopt a detached (migrated) node as the current state. The node's
  /// compacted store is taken over by move — migrating in costs nothing.
  void load(DetachedNode n);

  // --- current state -----------------------------------------------------
  /// The current node, minus the store it lives in.
  struct State {
    std::vector<Goal> goals;      ///< remaining goals (goals[0] next)
    double bound = 0.0;           ///< sum of arc weights root→here
    std::uint32_t depth = 0;      ///< number of arcs root→here
    ChainPtr chain;               ///< decision chain for §5 updates
    std::uint64_t id = 0;         ///< node id
    std::uint64_t parent_id = 0;  ///< parent node id
  };
  [[nodiscard]] bool has_state() const { return has_state_; }
  [[nodiscard]] const State& state() const { return state_; }
  [[nodiscard]] const term::Store& store() const { return store_; }
  [[nodiscard]] term::TermRef answer() const { return answer_; }
  /// AND-parallel work-item tag of the loaded lineage. Every pending
  /// choice on the stack descends from the loaded node (the worker loop
  /// only load()s when the stack is empty), so one tag covers the whole
  /// runner between loads.
  [[nodiscard]] std::uint32_t fork_tag() const { return fork_tag_; }

  /// What one expand() call did.
  struct StepResult {
    NodeOutcome outcome = NodeOutcome::Failure;  ///< how the step ended
    std::size_t children = 0;  ///< pending choices pushed (Expanded only)
    /// True when a preemption epoch tick interrupted a builtin burst before
    /// the resolution step ran: the state is intact (`has_state()` stays
    /// true) and the caller may run its D-threshold check, then call
    /// expand() again to resume where the burst left off.
    bool preempted = false;
    /// Expanded with zero pushed choices *and a live state*: the static-
    /// analysis commit path resolved the goal in place (no choice point,
    /// no checkpoint) and the runner is ready for the next expand(). The
    /// caller must NOT treat children==0 as "this lineage died" — the
    /// expanded node lives on as its only child.
    bool inplace_continue = false;
    /// The resolved goal's predicate was statically deterministic (unique
    /// index keys or pairwise-mutex heads): at most one candidate could
    /// have survived, so there is no OR-work here worth publishing.
    bool deterministic = false;
  };

  /// Expand the current state in place: consume leading builtins, then try
  /// every candidate clause for the selected goal (unify + rollback) and
  /// push the successes as pending choices, in reverse clause order so the
  /// stack top is the first clause (Prolog order). Unification effort is
  /// counted in `stats`; no `cells_copied` accrue here. On a terminal
  /// outcome the state keeps its post-builtin goals/chain for reporting
  /// and `has_state()` turns false.
  ///
  /// `preempt_epoch`/`epoch_seen`: §6's D-threshold normally runs only at
  /// expansion boundaries; a timer thread bumping `preempt_epoch` makes a
  /// long builtin burst yield between builtin evaluations (returning
  /// `preempted`) so the caller can migrate mid-burst. `*epoch_seen` is
  /// the caller's per-worker record of the last epoch it acted on.
  StepResult expand(ExpandStats* stats = nullptr,
                    const std::atomic<std::uint64_t>* preempt_epoch = nullptr,
                    std::uint64_t* epoch_seen = nullptr);

  /// Enable the static-analysis commit path: goals whose predicate the
  /// analysis proved an all-ground-fact bucket with at most one candidate
  /// are resolved in place — no choice point, no checkpoint, and (when the
  /// stack is empty, so no older choice could ever roll back across it) no
  /// trail writes at all. Solution sets are byte-identical; engines whose
  /// traversal order the early commit would change (best-first, incumbent
  /// pruning) must leave this off.
  void set_inplace_commit(bool on) { inplace_commit_ = on; }

  /// Cumulative trail writes of this runner's lifetime (never reset by
  /// load/rollback) — the counter behind ExpandStats::trail_writes.
  [[nodiscard]] std::uint64_t trail_pushes() const { return trail_.pushes(); }

  // --- pending choices ---------------------------------------------------
  [[nodiscard]] std::size_t pending() const { return stack_.size(); }
  [[nodiscard]] const PendingChoice& pending_at(std::size_t i) const {
    return stack_[i];  // 0 = shallowest (bottom), pending()-1 = top
  }
  [[nodiscard]] double top_bound() const { return stack_.back().bound; }
  /// Smallest bound among pending choices. O(1): a running min-prefix
  /// array is maintained alongside the stack (every push/pop is O(1); the
  /// rare mid-stack erases recompute only the suffix), so the per-
  /// expansion D-threshold check costs nothing even on deep stacks.
  [[nodiscard]] double min_pending_bound() const;

  /// Roll back to the top choice's checkpoint and apply its clause in
  /// place. The redo unification is guaranteed to succeed (the state is
  /// bit-identical to the one it was filtered against) and is not counted
  /// in ExpandStats. If the top choice is a published spill handle, the
  /// owner first races the claim CAS: winning reclaims the choice for
  /// free (the deque entry goes stale); losing means a thief holds the
  /// claim, so the choice is materialized and granted to it instead —
  /// the runner returns false and the caller should try the next top.
  /// `stats` accounts the grant's copy (only that path copies).
  bool activate_top(ExpandStats* stats = nullptr);

  /// Drop the top choice without activating it (pruned / drained). A
  /// published choice is resolved first: reclaim-or-kill through the
  /// claim CAS (a claiming thief observes kDead and gives up).
  void drop_top();
  /// Drop every pending choice with bound > cutoff; returns the count
  /// (incumbent pruning). No store traffic: checkpoints simply go unused.
  std::size_t prune_pending(double cutoff);

  /// Materialize pending choice `index` as an independent node and remove
  /// it from the stack. Only valid for choices checkpointed at the current
  /// store/trail level — i.e. freshly created siblings of the last
  /// expansion — so no live bindings need to be unwound.
  DetachedNode detach_sibling(std::size_t index, ExpandStats* stats = nullptr);

  /// Materialize every pending choice (top first, unwinding the trail
  /// monotonically) and leave the runner empty. The current in-place state
  /// is abandoned: used when the whole local workload migrates.
  std::vector<DetachedNode> detach_all(ExpandStats* stats = nullptr);

  /// Compact the current (goal-free) state's answer into an independent
  /// solution record.
  Solution extract_solution(ExpandStats* stats = nullptr);

  /// Materialize the *current* state (mid-derivation, possibly mid-builtin
  /// burst) as an independent node and abandon it in place — the migration
  /// unit of a timer-preempted D-threshold hand-off. Pending choices are
  /// untouched.
  DetachedNode detach_state(ExpandStats* stats = nullptr);

  /// Discard the current state without extracting anything (an over-limit
  /// solution dropped before publication). Pending choices are untouched.
  void abandon_state() { has_state_ = false; }

  // --- copy-on-steal spill handles ---------------------------------------
  /// Copy-on-steal outcome counters of this runner's published handles.
  struct SpillCounters {
    std::uint64_t published = 0;       ///< handles handed to the scheduler
    std::uint64_t reclaimed_free = 0;  ///< owner won the CAS: zero copies
    std::uint64_t granted = 0;         ///< a thief won: one deep copy paid
    /// Owner won during detach_all: the choice left with the batch
    /// (copied, but not granted to any thief).
    std::uint64_t migrated = 0;
    std::uint64_t invalidated = 0;     ///< killed (kDead) on drop/shutdown
  };
  [[nodiscard]] const SpillCounters& spill_counters() const {
    return spill_counters_;
  }

  /// Decide the sharing of undecided pending choices until at most `keep`
  /// remain undecided, shallowest first (the lowest bounds — the biggest
  /// subtrees — are what thieves should see). A *leaf* choice (the
  /// selected goal was the parent's only goal and the clause is a fact, so
  /// the child has no goals left) stays local: running it in place is one
  /// head match, while a steal costs a claim CAS, an as-of
  /// materialization, a deposit and a rescan — §6's freed processor takes
  /// a chain only when the transfer pays for itself. Every other choice is
  /// published as a copy-on-steal handle; it stays on the stack and only
  /// the handle leaves, via `out`, for the scheduler. Returns the number
  /// published. `owner` is this worker's scheduler id.
  std::size_t publish_overflow(unsigned owner, std::size_t keep,
                               std::vector<std::shared_ptr<SpillHandle>>& out);

  /// Lock-free: true when a thief has claimed one of this runner's
  /// published handles since the last fulfill_claims call.
  [[nodiscard]] bool has_pending_claims() const {
    return claim_ping_->load(std::memory_order_acquire) != serviced_ping_;
  }

  /// Owner side of a steal: materialize every claimed handle *as of its
  /// checkpoint* — through the trail's as-of view, without disturbing the
  /// live derivation — deposit the node in the handle (kReady) and remove
  /// the choice from the stack. Called at expansion boundaries; returns
  /// the number granted.
  std::size_t fulfill_claims(ExpandStats* stats = nullptr);

private:
  /// Roll back to `c`'s checkpoint and re-apply its clause in place (the
  /// shared preamble of activation and materialization).
  void reapply(const PendingChoice& c);
  void apply(PendingChoice&& c);
  DetachedNode materialize(PendingChoice&& c, ExpandStats* stats);
  /// Materialize `c` against the as-of view of its checkpoint (bindings
  /// trailed since are treated as undone) — valid for ANY stack position,
  /// at any later time, without rolling back the live state.
  DetachedNode materialize_as_of(const PendingChoice& c, ExpandStats* stats);
  /// Resolve a published choice about to be dropped: reclaim (kOwnerTaken)
  /// or kill (kDead) through the claim CAS.
  void resolve_for_drop(PendingChoice& c);
  /// True when `c`'s child has no goals left: `c` resolves the parent's
  /// only goal with a fact (see publish_overflow).
  [[nodiscard]] bool is_leaf(const PendingChoice& c) const;
  /// Leave the decided prefix consistent after removing stack entry `i`.
  void forget_decided(std::size_t i) {
    if (i < decided_count_) --decided_count_;
  }
  /// Owner-side consumption of a (possibly published) choice: win the
  /// claim CAS (true — the choice is ours) or grant a thief's claim via
  /// rollback-based materialization (false — the choice is consumed).
  bool resolve_owner_take(PendingChoice& c, ExpandStats* stats);
  [[nodiscard]] std::span<const db::ClauseId> candidates(
      const Goal& goal) const;
  term::TermRef rename_clause(const db::Clause& clause,
                              std::vector<term::TermRef>& body);
  /// Match `goal` against `clause`'s head: compiled bytecode when
  /// options().head_bytecode, otherwise import-then-unify (the structural
  /// reference path). Bindings are trailed either way; the caller owns the
  /// checkpoint/rollback.
  bool match_head(const db::Clause& clause, term::TermRef goal,
                  term::UnifyStats* ustats);

  // min-prefix maintenance (see min_pending_bound)
  void push_min(double bound);
  void pop_min() { minb_.pop_back(); }
  void rebuild_min(std::size_t from);

  const Expander& ex_;
  term::Store store_;
  term::Trail trail_;
  std::vector<PendingChoice> stack_;
  /// minb_[i] = min bound of stack_[0..i]; parallel to stack_.
  std::vector<double> minb_;
  State state_;
  term::TermRef answer_ = term::kNullTerm;
  bool has_state_ = false;
  std::uint32_t fork_tag_ = 0;  ///< tag of the loaded lineage (see fork_tag())
  bool inplace_commit_ = false;  ///< see set_inplace_commit

  // Copy-on-steal bookkeeping. `claim_ping_` outlives the runner through
  // the handles holding it; `serviced_ping_`/counters are owner-thread
  // only.
  std::shared_ptr<std::atomic<std::uint64_t>> claim_ping_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::uint64_t serviced_ping_ = 0;
  /// Length of the *decided* stack prefix: entries publish_overflow has
  /// already passed over, each either published (live handle) or a leaf
  /// kept local (no handle). Everything above it is undecided and
  /// unpublished.
  std::size_t decided_count_ = 0;
  SpillCounters spill_counters_;

  // scratch (reused across steps to avoid allocation churn)
  std::unordered_map<term::TermRef, term::TermRef> vmap_;
  std::vector<term::TermRef> body_;
  std::vector<PendingChoice> fresh_;
  db::HeadMatcher matcher_;
};

}  // namespace blog::search
