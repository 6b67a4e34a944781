#include "blog/parallel/job.hpp"

#include <algorithm>

#include "blog/search/runner.hpp"
#include "blog/search/update.hpp"

namespace blog::parallel {

std::unique_ptr<WorkStealingScheduler> prepare_job(
    const ParallelOptions& opts, unsigned slots, bool numa_aware,
    const std::atomic<bool>* cancel, JobControls& ctl, JobConfig& cfg) {
  SchedulerTuning tuning;
  tuning.adaptive = opts.adaptive_capacity;
  tuning.ewma_window = opts.capacity_ewma_window;
  tuning.local_capacity_seed = opts.local_capacity;
  tuning.numa_aware = numa_aware;
  tuning.locality_bias = opts.numa_locality_bias;
  tuning.mailbox_claim_limit = opts.mailbox_claim_limit;  // scheduler clamps
  tuning.stale_refresh_us = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      opts.stale_refresh_interval.count(), 0,
      std::numeric_limits<std::uint32_t>::max()));
  tuning.trace = opts.trace;
  ctl.arm(opts.limits, cancel);
  cfg.d_threshold = opts.d_threshold;
  cfg.local_capacity = opts.local_capacity;
  cfg.update_weights = opts.update_weights;
  cfg.trace = opts.trace;
  return std::make_unique<WorkStealingScheduler>(
      slots, opts.steal_deque_capacity, std::move(tuning));
}

void report_stop(std::atomic<int>& cause, search::Outcome o) {
  int expected = -1;
  cause.compare_exchange_strong(expected, static_cast<int>(o),
                                std::memory_order_relaxed);
}

void run_job_worker(const search::Expander& expander, db::WeightStore& weights,
                    WorkStealingScheduler& net, unsigned slot,
                    std::uint16_t lane, WorkerStats& ws, const JobConfig& cfg,
                    JobControls& ctl,
                    const std::atomic<std::uint64_t>* preempt_epoch) {
  search::Runner runner(expander);
  // The parallel loop's local bursts are depth-first and never prune
  // against an incumbent, so the commit path is always sound here; the
  // Expanded handler below keeps the scheduler's outstanding count right.
  runner.set_inplace_commit(true);
  search::ExpandStats estats;
  obs::TraceSink* const trace = cfg.trace;
  // Expansions since the last scheduler interaction; flushed as one
  // kExpandBurst event at each boundary so the timeline shows in-place
  // bursts without paying one event per expansion.
  std::uint32_t burst = 0;
  const auto flush_burst = [&] {
    if (burst > 0) {
      obs::trace(trace, lane, obs::EventKind::kExpandBurst, burst);
      burst = 0;
    }
  };
  std::uint64_t epoch_seen =
      preempt_epoch ? preempt_epoch->load(std::memory_order_relaxed) : 0;
  // True while re-entering expand() after a preemption yield: the
  // expansion was already counted against the budget and ws.expanded.
  bool resuming = false;

  // Spill a detached choice batch through the scheduler in one call.
  std::vector<search::DetachedNode> spill;
  const auto flush_spills = [&] {
    if (spill.empty()) return;
    ws.spills += spill.size();
    ++ws.spill_batches;
    net.push_batch(slot, std::move(spill));
    spill.clear();
  };
  // Cells deep-copied by `fn`, charged to this worker.
  const auto charge_copies = [&](auto&& fn) {
    const std::size_t before = estats.cells_copied;
    fn();
    ws.cells_copied += estats.cells_copied - before;
  };
  std::vector<std::shared_ptr<search::SpillHandle>> handles;

  for (;;) {
    if (net.stopped()) break;

    // --- scheduler housekeeping ------------------------------------------
    // Stale-bound refresh: once per expansion boundary the scheduler may
    // sweep this worker's deque and re-publish a minimum that has gone
    // stale (resolved copy-on-steal entries nobody re-published over).
    net.maintain(slot);

    // --- service copy-on-steal claims ------------------------------------
    // Thieves that won a claim CAS wait for us to materialize the
    // checkpointed state; one boundary of latency, through the trail's
    // as-of view (the live derivation is untouched).
    if (runner.has_pending_claims()) {
      std::size_t granted = 0;
      charge_copies([&] { granted = runner.fulfill_claims(&estats); });
      if (granted > 0)
        obs::trace(trace, lane, obs::EventKind::kHandleFulfill,
                   static_cast<std::uint32_t>(granted));
    }

    // --- acquire a chain -------------------------------------------------
    if (!runner.has_state()) {
      if (runner.pending() == 0) {
        flush_burst();
        auto taken = net.acquire(slot);
        if (!taken) break;  // terminated or stopped
        runner.load(std::move(*taken));
        ++ws.network_takes;
        obs::trace(trace, lane, obs::EventKind::kNetworkTake);
      } else if (auto better = net.try_acquire_better(
                     slot, runner.min_pending_bound(), cfg.d_threshold)) {
        // The network minimum is more than D below our local minimum: the
        // freed task acquires the chain through the network (§6). The whole
        // local pool migrates out with it — copy-on-migration, batched.
        // detach_all resolves published handles on the way out (claimed
        // ones are granted to their thief instead of joining the batch).
        flush_burst();
        charge_copies([&] { spill = runner.detach_all(&estats); });
        obs::trace(trace, lane, obs::EventKind::kMigrate,
                   static_cast<std::uint32_t>(spill.size()));
        flush_spills();
        runner.load(std::move(*better));
        ++ws.network_takes;
        obs::trace(trace, lane, obs::EventKind::kNetworkTake);
      } else {
        // Continue in place on the local pool (trail rollback, no
        // copying). A published top races its claim CAS: losing grants
        // the choice to the claiming thief and we try the next one.
        bool activated = false;
        charge_copies([&] { activated = runner.activate_top(&estats); });
        if (!activated) continue;
        ++ws.local_takes;
      }
    }

    // --- budget / cancellation -------------------------------------------
    if (!resuming) {
      if (ctl.cancel != nullptr &&
          ctl.cancel->load(std::memory_order_relaxed)) {
        report_stop(ctl.stop_cause, search::Outcome::Cancelled);
        net.stop();
        break;
      }
      if (ctl.node_budget.fetch_sub(1, std::memory_order_relaxed) <= 0 ||
          search::deadline_passed(ctl.deadline)) {
        report_stop(ctl.stop_cause, search::Outcome::BudgetExceeded);
        net.stop();
        break;
      }
      ++ws.expanded;
      if (ctl.fork_nodes != nullptr && runner.fork_tag() < ctl.fork_tag_count)
        ctl.fork_nodes[runner.fork_tag()].fetch_add(
            1, std::memory_order_relaxed);
      if (trace != nullptr) ++burst;
    }
    resuming = false;

    // --- expand in place -------------------------------------------------
    const search::Runner::StepResult step =
        runner.expand(&estats, preempt_epoch, &epoch_seen);

    if (step.preempted) {
      // Timer tick mid-builtin-burst: run the D-threshold check that
      // normally waits for the expansion boundary. If the network holds a
      // strictly better chain, the whole pool — including the live
      // mid-burst state — migrates out (§6's freed-task hand-off);
      // otherwise resume the burst where it yielded.
      ++ws.preemptions;
      resuming = true;
      flush_burst();
      obs::trace(trace, lane, obs::EventKind::kPreempt);
      double local_min = runner.state().bound;
      if (runner.pending() > 0)
        local_min = std::min(local_min, runner.min_pending_bound());
      if (auto better =
              net.try_acquire_better(slot, local_min, cfg.d_threshold)) {
        charge_copies([&] {
          spill.push_back(runner.detach_state(&estats));
          auto rest = runner.detach_all(&estats);
          std::move(rest.begin(), rest.end(), std::back_inserter(spill));
        });
        obs::trace(trace, lane, obs::EventKind::kMigrate,
                   static_cast<std::uint32_t>(spill.size()));
        flush_spills();
        runner.load(std::move(*better));
        ++ws.network_takes;
        obs::trace(trace, lane, obs::EventKind::kNetworkTake);
        // The migrated-out state is re-counted by whoever resumes it; the
        // chain we just loaded is a fresh expansion of our own.
        resuming = false;
      }
      continue;
    }

    switch (step.outcome) {
      case search::NodeOutcome::Solution: {
        // Claim a solution slot first: a CAS loop that refuses to go below
        // zero, so concurrent workers can never wrap the counter and
        // publish more than max_solutions answers between the limit being
        // hit and the stop flag propagating.
        std::uint64_t left =
            ctl.solutions_left.load(std::memory_order_relaxed);
        while (left > 0 &&
               !ctl.solutions_left.compare_exchange_weak(
                   left, left - 1, std::memory_order_acq_rel,
                   std::memory_order_relaxed)) {
        }
        if (left == 0) {
          // Over the limit (a racing worker claimed the last slot and the
          // stop is in flight): drop the answer unpublished.
          runner.abandon_state();
          net.on_expanded(0);
          break;
        }
        if (cfg.update_weights)
          search::update_on_success(weights, runner.state().chain.get());
        ++ws.solutions;
        obs::trace(trace, lane, obs::EventKind::kSolution,
                   static_cast<std::uint32_t>(ws.solutions));
        search::Solution sol;
        charge_copies([&] { sol = runner.extract_solution(&estats); });
        {
          std::lock_guard lock(ctl.sol_mu);
          if (ctl.on_solution) ctl.on_solution(sol);
          ctl.solutions.push_back(std::move(sol));
        }
        net.on_expanded(0);
        if (left == 1) {  // we consumed the last slot
          report_stop(ctl.stop_cause, search::Outcome::SolutionLimit);
          net.stop();
        }
        break;
      }
      case search::NodeOutcome::Expanded: {
        if (step.inplace_continue) {
          // Static-analysis commit: the chain lives on as its own only
          // child — count it born again (one died, one born, inflight
          // unchanged) and skip the spill/publish machinery, which only
          // handles freshly pushed siblings (there are none).
          net.on_expanded(1);
          break;
        }
        // A statically deterministic single continuation is not OR-work:
        // sharing it would hand a thief the only way forward of a chain
        // this worker activates on its very next boundary anyway. Keep it
        // local and skip the spill/publish pass for this step.
        const bool skip_share = step.deterministic && step.children == 1;
        if (skip_share) {
          net.on_expanded(step.children);
          break;
        }
        // Copy-on-steal: publish handles for everything beyond the
        // (possibly adaptive) local capacity except leaf choices, which
        // cost less to run in place than any steal. The choices stay on
        // the stack — sharing costs a shared_ptr per choice, not a copy —
        // and the deep copy happens only if a thief claims one.
        runner.publish_overflow(
            slot, net.local_capacity_hint(slot, cfg.local_capacity), handles);
        if (!handles.empty()) {
          ws.handles_published += handles.size();
          net.push_handles(slot, std::move(handles));
          handles.clear();
        }
        net.on_expanded(step.children);
        break;
      }
      case search::NodeOutcome::Failure:
        ++ws.failures;
        if (cfg.update_weights)
          search::update_on_failure(weights, runner.state().chain.get());
        net.on_expanded(0);
        break;
      case search::NodeOutcome::DepthLimit:
        ctl.depth_limited.store(true, std::memory_order_relaxed);
        net.on_expanded(0);
        break;
    }
  }

  flush_burst();
  // Local leftovers die with the worker (stop or termination): account for
  // them so other workers' acquisition can conclude. drop_top resolves
  // published handles (kDead) so claiming thieves give up instead of
  // waiting on a dead owner.
  while (runner.pending() > 0) {
    runner.drop_top();
    net.on_expanded(0);
  }
  const search::Runner::SpillCounters& sc = runner.spill_counters();
  ws.handles_reclaimed += sc.reclaimed_free;
  ws.handles_granted += sc.granted;
  ws.handles_migrated += sc.migrated;
  ws.trail_writes += runner.trail_pushes();
}

}  // namespace blog::parallel
