#include "blog/search/runner.hpp"

#include <algorithm>
#include <cassert>

#include "blog/analysis/domain.hpp"
#include "blog/search/engine.hpp"  // solution_text

namespace blog::search {

Runner::Runner(const Expander& expander) : ex_(expander) {}

void Runner::load_root(const Query& q) {
  assert(stack_.empty() && decided_count_ == 0);
  trail_.clear();  // refers to the arena being discarded — forget, not undo
  store_.clear();
  vmap_.clear();
  answer_ = term::kNullTerm;
  if (q.answer != term::kNullTerm)
    answer_ = store_.import(q.store, q.answer, vmap_);
  state_ = State{};
  state_.goals.reserve(q.goals.size());
  for (std::size_t i = 0; i < q.goals.size(); ++i) {
    Goal g;
    g.term = store_.import(q.store, q.goals[i], vmap_);
    g.src_clause = db::kQueryClause;
    g.src_literal = static_cast<std::uint32_t>(i);
    state_.goals.push_back(g);
  }
  state_.id = ex_.next_id();
  fork_tag_ = 0;
  has_state_ = true;
}

void Runner::load(DetachedNode n) {
  assert(stack_.empty() && decided_count_ == 0);
  // The detached store is already compacted; adopt it wholesale instead of
  // re-importing. The trail refers to the store being discarded, so it is
  // forgotten, not undone.
  trail_.clear();
  store_ = std::move(n.store);
  answer_ = n.answer;
  state_ = State{};
  state_.goals = std::move(n.goals);
  state_.bound = n.bound;
  state_.depth = n.depth;
  state_.chain = std::move(n.chain);
  state_.id = n.id;
  state_.parent_id = n.parent_id;
  fork_tag_ = n.fork_tag;
  has_state_ = true;
}

term::TermRef Runner::rename_clause(const db::Clause& clause,
                                    std::vector<term::TermRef>& body) {
  vmap_.clear();
  const term::TermRef head =
      store_.import(clause.store(), clause.head(), vmap_);
  body.resize(clause.body().size());
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = store_.import(clause.store(), clause.body()[i], vmap_);
  return head;
}

Runner::StepResult Runner::expand(ExpandStats* stats,
                                  const std::atomic<std::uint64_t>* preempt_epoch,
                                  std::uint64_t* epoch_seen) {
  assert(has_state_);
  const ExpanderOptions& opts = ex_.options();
  BuiltinEvaluator* builtins = ex_.builtins();

  // Consume leading builtin goals in place (they are deterministic); their
  // bindings become part of this state, below the children's checkpoint.
  bool in_builtin_burst = false;
  while (!state_.goals.empty() && builtins != nullptr) {
    // Only an actual burst — at least one builtin already consumed — may
    // yield; otherwise every epoch tick would preempt every worker once
    // even on builtin-free workloads.
    if (in_builtin_burst && preempt_epoch != nullptr && epoch_seen != nullptr) {
      const std::uint64_t e = preempt_epoch->load(std::memory_order_relaxed);
      if (e != *epoch_seen) {
        // Timer tick: yield mid-burst so the caller can run the
        // D-threshold check. State stays live; re-entering resumes here.
        *epoch_seen = e;
        StepResult r;
        r.outcome = NodeOutcome::Expanded;  // meaningless while preempted
        r.preempted = true;
        return r;
      }
    }
    const auto outcome =
        builtins->eval(store_, state_.goals.front().term, trail_);
    if (outcome == BuiltinEvaluator::Outcome::NotBuiltin) break;
    in_builtin_burst = true;  // ≥1 builtin consumed: preemption may yield
    if (stats) ++stats->builtin_calls;
    if (outcome == BuiltinEvaluator::Outcome::Fail) {
      has_state_ = false;
      return {NodeOutcome::Failure, 0};
    }
    state_.goals.erase(state_.goals.begin());
  }
  if (state_.goals.empty()) {
    // Leaf solution: keep has_state_ so the answer can be extracted.
    return {NodeOutcome::Solution, 0};
  }
  if (state_.depth >= opts.max_depth) {
    has_state_ = false;
    return {NodeOutcome::DepthLimit, 0};
  }

  ex_.select_goal(store_, state_.goals, state_.chain.get());
  const Goal goal = state_.goals.front();
  const std::span<const db::ClauseId> cands = candidates(goal);
  const analysis::PredicateInfo* pi =
      ex_.pred_info(db::pred_of(store_, goal.term));

  // Static-analysis commit path: the predicate is an all-ground-fact
  // bucket and at most one candidate survived indexing, so resolving the
  // goal cannot create OR-work — commit in place instead of checkpointing
  // and pushing a choice. A ground fact binds only goal-side variables and
  // adds no body goals, so the resulting state is byte-identical to what
  // expand-then-activate_top would build (same bindings, same arc, same
  // node id from the same single next_id() call).
  if (inplace_commit_ && pi != nullptr && pi->all_ground_facts &&
      cands.size() <= 1) {
    if (cands.empty()) {
      has_state_ = false;
      return {NodeOutcome::Failure, 0};
    }
    const db::ClauseId cid = cands.front();
    const db::Clause& clause = ex_.program().clause(cid);
    term::UnifyStats ustats;
    bool ok;
    if (opts.head_bytecode && stack_.empty()) {
      // Trail-free tier: with no pending choice below, nothing can ever
      // roll back across this match — a failure kills the lineage, whose
      // store and trail the next load()/load_root() discards wholesale —
      // so the bindings (including a failed attempt's partial ones) need
      // no trail entries at all.
      ok = matcher_.match_committed(store_, goal.term, clause.head_code(),
                                    {.occurs_check = opts.occurs_check},
                                    &ustats);
    } else {
      // Trailed tier: an older pending choice may later roll back across
      // this match, so bindings stay trailed; the checkpoint is only used
      // to undo a *failed* match (no choice point is created either way).
      const term::Checkpoint cp = term::checkpoint(store_, trail_);
      ok = match_head(clause, goal.term, &ustats);
      if (!ok) term::rollback(store_, trail_, cp);
    }
    if (stats) {
      ++stats->unify_attempts;
      stats->unify_cells += ustats.cells_visited;
      if (ok) ++stats->unify_successes;
    }
    if (!ok) {
      has_state_ = false;
      return {NodeOutcome::Failure, 0};
    }
    const Arc arc = ex_.make_arc(goal, cid, state_.chain.get());
    state_.goals.erase(state_.goals.begin());  // a fact adds no body goals
    state_.bound += arc.weight;
    state_.depth += 1;
    state_.chain = std::make_shared<Chain>(Chain{arc, state_.chain});
    state_.parent_id = state_.id;
    state_.id = ex_.next_id();
    StepResult r;
    r.outcome = NodeOutcome::Expanded;
    r.children = 0;
    r.inplace_continue = true;
    r.deterministic = true;
    return r;
  }

  // Filter candidates against the live state: match the head (compiled
  // bytecode, or rename-then-unify on the structural path), record the
  // survivors as pending choices, roll everything back.
  const term::Checkpoint cp = term::checkpoint(store_, trail_);
  fresh_.clear();
  // One shared copy of the parent goal list serves every sibling choice.
  std::shared_ptr<const std::vector<Goal>> shared_goals;
  for (const db::ClauseId cid : cands) {
    const db::Clause& clause = ex_.program().clause(cid);
    term::UnifyStats ustats;
    const bool ok = match_head(clause, goal.term, &ustats);
    if (stats) {
      ++stats->unify_attempts;
      stats->unify_cells += ustats.cells_visited;
      if (ok) ++stats->unify_successes;
    }
    if (ok) {
      if (!shared_goals)
        shared_goals =
            std::make_shared<const std::vector<Goal>>(state_.goals);
      const Arc arc = ex_.make_arc(goal, cid, state_.chain.get());
      PendingChoice c;
      c.goals = shared_goals;
      c.clause = cid;
      c.arc = arc;
      c.bound = state_.bound + arc.weight;
      c.depth = state_.depth + 1;
      c.chain = std::make_shared<Chain>(Chain{arc, state_.chain});
      c.id = ex_.next_id();
      c.parent_id = state_.id;
      c.cp = cp;
      fresh_.push_back(std::move(c));
    }
    term::rollback(store_, trail_, cp);
  }

  has_state_ = false;
  if (fresh_.empty()) return {NodeOutcome::Failure, 0};
  const std::size_t n = fresh_.size();
  // Reverse clause order onto the stack: the top is the first clause, so
  // depth-first activation reproduces Prolog's traversal.
  for (auto it = fresh_.rbegin(); it != fresh_.rend(); ++it) {
    stack_.push_back(std::move(*it));
    push_min(stack_.back().bound);
  }
  fresh_.clear();
  StepResult r;
  r.outcome = NodeOutcome::Expanded;
  r.children = n;
  // Statically deterministic and at most one survivor: the single pushed
  // choice is this node's only continuation, not stealable OR-work.
  r.deterministic = pi != nullptr && pi->deterministic_hint() && n <= 1;
  return r;
}

bool Runner::match_head(const db::Clause& clause, term::TermRef goal,
                        term::UnifyStats* ustats) {
  const ExpanderOptions& opts = ex_.options();
  if (opts.head_bytecode) {
    return matcher_.match(store_, trail_, goal, clause.head_code(),
                          {.occurs_check = opts.occurs_check}, ustats);
  }
  vmap_.clear();
  const term::TermRef head =
      store_.import(clause.store(), clause.head(), vmap_);
  return term::unify(store_, goal, head, trail_,
                     {.occurs_check = opts.occurs_check}, ustats);
}

std::span<const db::ClauseId> Runner::candidates(const Goal& goal) const {
  return ex_.candidates_for(store_, goal);
}

void Runner::push_min(double bound) {
  minb_.push_back(minb_.empty() ? bound : std::min(minb_.back(), bound));
}

void Runner::rebuild_min(std::size_t from) {
  minb_.resize(stack_.size());
  for (std::size_t i = from; i < stack_.size(); ++i)
    minb_[i] = i == 0 ? stack_[i].bound : std::min(minb_[i - 1], stack_[i].bound);
}

double Runner::min_pending_bound() const {
  assert(!stack_.empty());
  assert(minb_.size() == stack_.size());
  return minb_.back();
}

void Runner::reapply(const PendingChoice& c) {
  term::rollback(store_, trail_, c.cp);
  const db::Clause& clause = ex_.program().clause(c.clause);
  if (ex_.options().head_bytecode) {
    // Redo of the bytecode match this choice was filtered with; the state
    // is identical, so it must succeed. Mapping each head-variable slot
    // onto its live binding then renames the body straight into the match
    // — the head itself is never imported.
    const db::HeadCode& hc = clause.head_code();
    const bool ok =
        matcher_.match(store_, trail_, c.goals->front().term, hc,
                       {.occurs_check = ex_.options().occurs_check});
    assert(ok);
    (void)ok;
    vmap_.clear();
    for (std::uint32_t i = 0; i < hc.slot_count(); ++i)
      vmap_[hc.slot_var(i)] = matcher_.slot(i);
    body_.resize(clause.body().size());
    for (std::size_t i = 0; i < body_.size(); ++i)
      body_[i] = store_.import(clause.store(), clause.body()[i], vmap_);
    return;
  }
  const term::TermRef head = rename_clause(clause, body_);
  // Redo of the unification this choice was filtered with; the state is
  // identical, so it must succeed.
  const bool ok =
      term::unify(store_, c.goals->front().term, head, trail_,
                  {.occurs_check = ex_.options().occurs_check});
  assert(ok);
  (void)ok;
}

void Runner::apply(PendingChoice&& c) {
  reapply(c);
  state_.goals.clear();
  const std::vector<Goal>& pg = *c.goals;
  state_.goals.reserve(body_.size() + pg.size() - 1);
  for (std::size_t i = 0; i < body_.size(); ++i) {
    Goal g;
    g.term = body_[i];
    g.src_clause = c.arc.key.callee;
    g.src_literal = static_cast<std::uint32_t>(i);
    state_.goals.push_back(g);
  }
  for (std::size_t i = 1; i < pg.size(); ++i)
    state_.goals.push_back(pg[i]);
  state_.bound = c.bound;
  state_.depth = c.depth;
  state_.chain = std::move(c.chain);
  state_.id = c.id;
  state_.parent_id = c.parent_id;
  has_state_ = true;
}

bool Runner::resolve_owner_take(PendingChoice& c, ExpandStats* stats) {
  if (!c.handle) return true;
  for (;;) {
    std::uint32_t s = c.handle->state.load(std::memory_order_acquire);
    if (s == SpillHandle::kAvailable) {
      if (c.handle->state.compare_exchange_weak(s, SpillHandle::kOwnerTaken,
                                                std::memory_order_acq_rel))
        return true;  // ours; the deque entry goes stale
    } else if (s == SpillHandle::kOwnerTaken) {
      // A scheduler pop already resolved this self-owned entry in our
      // favour (reclaim-on-self-pop); nothing left to race.
      return true;
    } else if (s == SpillHandle::kClaimed) {
      if (c.handle->state.compare_exchange_weak(s, SpillHandle::kFulfilling,
                                                std::memory_order_acq_rel)) {
        // A thief beat us to the claim: grant it. The caller is about to
        // roll back to (or past) this checkpoint anyway, so the regular
        // rollback-based materialize applies.
        const std::shared_ptr<SpillHandle> h = c.handle;
        h->node = materialize(std::move(c), stats);
        h->state.store(SpillHandle::kReady, std::memory_order_release);
        ++spill_counters_.granted;
        return false;
      }
    } else {
      assert(false && "kFulfilling/kReady/kDead/kTaken are unreachable "
                      "while the choice sits on the owner's stack");
      return true;
    }
  }
}

bool Runner::activate_top(ExpandStats* stats) {
  assert(!stack_.empty());
  PendingChoice c = std::move(stack_.back());
  stack_.pop_back();
  pop_min();
  forget_decided(stack_.size());
  const bool published = c.handle != nullptr;
  if (!resolve_owner_take(c, stats)) return false;  // granted to a thief
  if (published) {
    // Ours again without a single copy — the point of copy-on-steal.
    ++spill_counters_.reclaimed_free;
  }
  apply(std::move(c));
  return true;
}

void Runner::resolve_for_drop(PendingChoice& c) {
  if (!c.handle) return;
  for (;;) {
    std::uint32_t s = c.handle->state.load(std::memory_order_acquire);
    if (s == SpillHandle::kOwnerTaken) return;  // already resolved for us
    if (s == SpillHandle::kAvailable || s == SpillHandle::kClaimed) {
      // A claiming thief observes kDead, abandons the claim and rescans.
      if (c.handle->state.compare_exchange_weak(s, SpillHandle::kDead,
                                                std::memory_order_acq_rel)) {
        ++spill_counters_.invalidated;
        return;
      }
    } else {
      assert(false && "published choice in terminal handle state");
      return;
    }
  }
}

void Runner::drop_top() {
  assert(!stack_.empty());
  resolve_for_drop(stack_.back());
  stack_.pop_back();
  pop_min();
  forget_decided(stack_.size());
}

std::size_t Runner::prune_pending(double cutoff) {
  const std::size_t before = stack_.size();
  // Published choices are skipped: a thief may hold their claim, and the
  // engines that prune (sequential incumbent search) never publish.
  const auto prunable = [&](const PendingChoice& c) {
    return c.handle == nullptr && c.bound > cutoff;
  };
  decided_count_ -= static_cast<std::size_t>(std::count_if(
      stack_.begin(),
      stack_.begin() + static_cast<std::ptrdiff_t>(decided_count_), prunable));
  std::erase_if(stack_, prunable);
  rebuild_min(0);
  return before - stack_.size();
}

DetachedNode Runner::materialize(PendingChoice&& c, ExpandStats* stats) {
  reapply(c);

  // Compact the child state out: answer first (same order as the legacy
  // materializing expansion, so variable sharing and layout match), then
  // the clause body, then the remaining goals.
  std::vector<term::TermRef> roots;
  const std::vector<Goal>& pg = *c.goals;
  roots.reserve(1 + body_.size() + pg.size());
  const bool with_answer = answer_ != term::kNullTerm;
  if (with_answer) roots.push_back(answer_);
  for (const term::TermRef b : body_) roots.push_back(b);
  for (std::size_t i = 1; i < pg.size(); ++i)
    roots.push_back(pg[i].term);

  DetachedNode d;
  std::vector<term::TermRef> out;
  store_.compact_into(d.store, roots, out);
  std::size_t k = 0;
  if (with_answer) d.answer = out[k++];
  d.goals.reserve(body_.size() + pg.size() - 1);
  for (std::size_t i = 0; i < body_.size(); ++i) {
    Goal g;
    g.term = out[k++];
    g.src_clause = c.arc.key.callee;
    g.src_literal = static_cast<std::uint32_t>(i);
    d.goals.push_back(g);
  }
  for (std::size_t i = 1; i < pg.size(); ++i) {
    Goal g = pg[i];
    g.term = out[k++];
    d.goals.push_back(g);
  }
  d.bound = c.bound;
  d.depth = c.depth;
  d.chain = std::move(c.chain);
  d.id = c.id;
  d.parent_id = c.parent_id;
  d.fork_tag = fork_tag_;

  // Discard the transient clause application.
  term::rollback(store_, trail_, c.cp);
  if (stats) {
    stats->cells_copied += d.store.size();
    ++stats->detaches;
  }
  return d;
}

DetachedNode Runner::detach_sibling(std::size_t index, ExpandStats* stats) {
  assert(index < stack_.size());
  PendingChoice c = std::move(stack_[index]);
  assert(c.cp.trail == trail_.mark() &&
         c.cp.store == store_.watermark() &&
         "detach_sibling requires a choice checkpointed at the current "
         "level; use detach_all for older choices");
  stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(index));
  rebuild_min(index);
  forget_decided(index);
  return materialize(std::move(c), stats);
}

std::vector<DetachedNode> Runner::detach_all(ExpandStats* stats) {
  std::vector<DetachedNode> out;
  out.reserve(stack_.size());
  // Top first: checkpoints are monotone down the stack, so the trail is
  // unwound progressively and never needs replaying. Published choices
  // are resolved through their claim CAS on the way out: reclaimed ones
  // migrate with the batch, claimed ones are granted to their thief (and
  // are not part of the batch).
  while (!stack_.empty()) {
    PendingChoice c = std::move(stack_.back());
    stack_.pop_back();
    const bool published = c.handle != nullptr;
    if (!resolve_owner_take(c, stats)) continue;
    if (published) ++spill_counters_.migrated;  // owner-won, but not free
    out.push_back(materialize(std::move(c), stats));
  }
  minb_.clear();
  decided_count_ = 0;
  has_state_ = false;
  return out;
}

DetachedNode Runner::detach_state(ExpandStats* stats) {
  assert(has_state_);
  std::vector<term::TermRef> roots;
  const bool with_answer = answer_ != term::kNullTerm;
  roots.reserve(1 + state_.goals.size());
  if (with_answer) roots.push_back(answer_);
  for (const Goal& g : state_.goals) roots.push_back(g.term);

  DetachedNode d;
  std::vector<term::TermRef> out;
  store_.compact_into(d.store, roots, out);
  std::size_t k = 0;
  if (with_answer) d.answer = out[k++];
  d.goals.reserve(state_.goals.size());
  for (const Goal& src : state_.goals) {
    Goal g = src;
    g.term = out[k++];
    d.goals.push_back(g);
  }
  d.bound = state_.bound;
  d.depth = state_.depth;
  d.chain = std::move(state_.chain);
  d.id = state_.id;
  d.parent_id = state_.parent_id;
  d.fork_tag = fork_tag_;
  has_state_ = false;
  if (stats) {
    stats->cells_copied += d.store.size();
    ++stats->detaches;
  }
  return d;
}

bool Runner::is_leaf(const PendingChoice& c) const {
  return c.goals->size() == 1 &&
         ex_.program().clause(c.clause).body().empty();
}

std::size_t Runner::publish_overflow(
    unsigned owner, std::size_t keep,
    std::vector<std::shared_ptr<SpillHandle>>& out) {
  if (stack_.size() - decided_count_ <= keep) return 0;
  const std::size_t end = stack_.size() - keep;
  std::size_t published = 0;
  // Decided choices always form a stack prefix: deciding fills from the
  // bottom, pops/grants/fulfills only ever remove entries from inside it,
  // and new choices push undecided on top. So the scan starts at the
  // prefix end — O(children), not O(depth), per expansion. A leaf kept
  // local joins the prefix without a handle and never stops the scan, so
  // the rule choices stacked above it are still published.
  for (; decided_count_ < end; ++decided_count_) {
    PendingChoice& c = stack_[decided_count_];
    assert(c.handle == nullptr && "decided prefix invariant violated");
    if (is_leaf(c)) continue;
    auto h = std::make_shared<SpillHandle>();
    h->bound = c.bound;
    h->owner = owner;
    h->claim_ping = claim_ping_;
    c.handle = h;
    out.push_back(std::move(h));
    ++published;
    ++spill_counters_.published;
  }
  return published;
}

std::size_t Runner::fulfill_claims(ExpandStats* stats) {
  // Claims pinged after this read are caught at the next boundary.
  const std::uint64_t ping = claim_ping_->load(std::memory_order_acquire);
  if (ping == serviced_ping_) return 0;
  serviced_ping_ = ping;
  std::size_t granted = 0;
  // Published choices lie inside the decided prefix (see
  // publish_overflow), so the claim scan never needs to walk past it.
  for (std::size_t i = 0; i < decided_count_;) {
    PendingChoice& c = stack_[i];
    std::uint32_t expect = SpillHandle::kClaimed;
    if (c.handle != nullptr &&
        c.handle->state.compare_exchange_strong(expect, SpillHandle::kFulfilling,
                                                std::memory_order_acq_rel)) {
      PendingChoice taken = std::move(c);
      stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(i));
      rebuild_min(i);
      --decided_count_;
      taken.handle->node = materialize_as_of(taken, stats);
      taken.handle->state.store(SpillHandle::kReady,
                                std::memory_order_release);
      ++spill_counters_.granted;
      ++granted;
    } else {
      ++i;
    }
  }
  return granted;
}

DetachedNode Runner::materialize_as_of(const PendingChoice& c,
                                       ExpandStats* stats) {
  // Reconstruct the choice's parent state as of its checkpoint through the
  // trail's as-of view: every binding trailed since the checkpoint is
  // treated as undone, so the live derivation above it is untouched.
  // (Bindings of post-checkpoint variables may be in the set too; they are
  // unreachable under the view and therefore harmless.)
  std::unordered_set<term::TermRef> undone;
  for (const term::TermRef v : trail_.entries_since(c.cp.trail))
    if (v < c.cp.store.cells) undone.insert(v);

  const std::vector<Goal>& pg = *c.goals;
  std::vector<term::TermRef> roots;
  const bool with_answer = answer_ != term::kNullTerm;
  roots.reserve(1 + pg.size());
  if (with_answer) roots.push_back(answer_);
  for (const Goal& g : pg) roots.push_back(g.term);

  DetachedNode d;
  std::vector<term::TermRef> out;
  store_.compact_into_as_of(d.store, roots, out, undone);
  std::size_t k = 0;
  if (with_answer) d.answer = out[k++];
  const term::TermRef goal0 = out[k];

  // Apply the choice's clause inside the detached copy: rename head and
  // body there and redo the unification this choice was filtered with —
  // guaranteed to succeed, the compacted state being the very one it
  // succeeded against.
  const db::Clause& clause = ex_.program().clause(c.clause);
  std::unordered_map<term::TermRef, term::TermRef> cmap;
  const term::TermRef head = d.store.import(clause.store(), clause.head(), cmap);
  std::vector<term::TermRef> body(clause.body().size());
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = d.store.import(clause.store(), clause.body()[i], cmap);
  term::Trail scratch;
  const bool ok = term::unify(d.store, goal0, head, scratch,
                              {.occurs_check = ex_.options().occurs_check});
  assert(ok);
  (void)ok;

  d.goals.reserve(body.size() + pg.size() - 1);
  for (std::size_t i = 0; i < body.size(); ++i) {
    Goal g;
    g.term = body[i];
    g.src_clause = c.arc.key.callee;
    g.src_literal = static_cast<std::uint32_t>(i);
    d.goals.push_back(g);
  }
  for (std::size_t i = 1; i < pg.size(); ++i) {
    Goal g = pg[i];
    g.term = out[k + i];
    d.goals.push_back(g);
  }
  d.bound = c.bound;
  d.depth = c.depth;
  d.chain = c.chain;
  d.id = c.id;
  d.parent_id = c.parent_id;
  d.fork_tag = fork_tag_;
  if (stats) {
    stats->cells_copied += d.store.size();
    ++stats->detaches;
  }
  return d;
}

Solution Runner::extract_solution(ExpandStats* stats) {
  assert(has_state_ && state_.goals.empty());
  Solution sol;
  sol.bound = state_.bound;
  sol.depth = state_.depth;
  if (answer_ != term::kNullTerm) {
    const term::TermRef roots[1] = {answer_};
    std::vector<term::TermRef> out;
    store_.compact_into(sol.store, roots, out);
    sol.answer = out[0];
    if (stats) {
      stats->cells_copied += sol.store.size();
      ++stats->detaches;
    }
  }
  sol.text = solution_text(sol.store, sol.answer);
  has_state_ = false;
  return sol;
}

}  // namespace blog::search
