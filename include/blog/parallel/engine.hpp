/// \file
/// \brief Thread-parallel B-LOG search (§6's machine behaviour on real
/// threads).
///
/// Each worker is a "processor" running chains *in place* in a worker-local
/// store (a search::Runner): expanding a chain trails its bindings and
/// parks the untried alternatives as lightweight pending choices, so no
/// state is copied while work stays on the processor. Overflow beyond the
/// local capacity is shared with the work-stealing scheduler (the
/// minimum-seeking network) as copy-on-steal handles, deep-copied only
/// when a thief claims one; whole local pools are flushed through the
/// network (batched) when §6's D-threshold says the network minimum is
/// more than D below the local minimum and the freed worker should
/// acquire the remote chain instead.
#pragma once

#include <span>
#include <thread>

#include "blog/engine/interpreter.hpp"
#include "blog/parallel/scheduler.hpp"

namespace blog::parallel {

/// Configuration of one ParallelEngine::solve run: worker count, budgets,
/// §6 thresholds and the scheduler's locality/adaptivity behaviour. See
/// docs/TUNING.md for the knob-by-knob guide.
struct ParallelOptions {
  unsigned workers = 4;          ///< worker ("processor") thread count
  double d_threshold = 0.0;      ///< §6's D (bound units)
  /// Node/solution/deadline cutoffs (shared with the sequential layer).
  /// Workers check them cooperatively once per expansion; max_solutions is
  /// exact (never overshoots).
  search::ExecutionLimits limits;
  /// Pending choices a worker keeps private. Overflow beyond it is shared
  /// copy-on-steal: each choice's bound enters the network as a
  /// SpillHandle while its state stays free on the owner's stack, and the
  /// deep copy is paid only when a thief wins the handle's claim CAS.
  std::size_t local_capacity = 8;
  bool update_weights = true;      ///< apply §5 updates as chains resolve
  /// Unread; kept until the repo benchmark's sources stop assigning it.
  SchedulerKind scheduler = SchedulerKind::WorkStealing;
  std::size_t steal_deque_capacity = 64;  ///< per-worker deque bound
  /// Unread; kept until the repo benchmark's sources stop naming it.
  enum class SpillPolicy { Lazy };
  /// Unread; kept until the repo benchmark's sources stop assigning it.
  SpillPolicy spill_policy = SpillPolicy::Lazy;
  /// Let the scheduler float local_capacity / steal_deque_capacity around
  /// their seeds with each worker's observed steal pressure (EWMA over
  /// `capacity_ewma_window` spill events, bounds [4, 512] for the default
  /// seeds). Turn off to pin the static knobs exactly.
  bool adaptive_capacity = true;
  std::uint32_t capacity_ewma_window = 64;  ///< EWMA horizon, spill events
  /// NUMA awareness. When the host exposes more than one node
  /// (topology.hpp), workers are placed round-robin across nodes, their
  /// deques are tagged with the node id, and victim scans prefer
  /// same-node deques: a remote-node published minimum is chosen only
  /// when it beats the best local candidate by more than
  /// `numa_locality_bias` (bound units). Single-node hosts take the exact
  /// pre-NUMA code path regardless of these knobs.
  bool numa_aware = true;
  double numa_locality_bias = 1.0;  ///< bound units a remote min must win by
  /// Pin each worker thread to the CPUs of its assigned node (Linux,
  /// multi-node hosts only; best effort — a refused affinity syscall is
  /// ignored). Placement and victim bias work without pinning, but pinned
  /// workers actually keep their deques node-local.
  bool numa_pin_workers = true;
  /// Claim-wait mailboxes: a thief that wins a spill handle's claim CAS
  /// parks the handle in its private mailbox and keeps scanning other
  /// victims while the owner's copy is in flight, draining deposits at
  /// the next acquire / D-threshold boundary. This caps how
  /// many claims a thief may hold in its mailbox at once; at the cap the
  /// thief backs off and drains instead of forcing more owners into deep
  /// copies (matters when workers outnumber cores).
  std::uint32_t mailbox_claim_limit = 1;
  /// Stale-bound refresh: a worker whose deque's published minimum has
  /// not been re-published for this long proactively sweeps resolved
  /// copy-on-steal entries and re-publishes at its next expansion
  /// boundary, so idle scans stop chasing dead bounds. 0 disables.
  std::chrono::microseconds stale_refresh_interval{500};
  /// Period of the preemption timer that lets §6's D-threshold check run
  /// *inside* long builtin bursts instead of only at expansion boundaries
  /// (a ticker thread bumps an epoch; runners yield mid-burst when it
  /// changes). 0 disables the timer.
  std::chrono::microseconds preempt_interval{500};
  search::ExpanderOptions expander;  ///< resolution-step options
  /// Cooperative cancellation: when non-null and set, every worker stops
  /// at its next expansion boundary and the solve returns
  /// Outcome::Cancelled with the answers found so far. Must outlive solve.
  const std::atomic<bool>* cancel = nullptr;
  /// Streaming hook: called under the solution lock once per recorded
  /// answer (discovery order, deduplication is the caller's concern — the
  /// engine already drops duplicate chains only at extraction). The
  /// Solution reference is valid only during the call.
  std::function<void(const search::Solution&)> on_solution;
  /// Flight recorder (obs/trace.hpp). When non-null, workers and the
  /// scheduler record steal/spill/migration/preemption/solution events
  /// into it; null (the default) costs one branch per site. The sink must
  /// outlive the solve call.
  obs::TraceSink* trace = nullptr;
};

/// Per-worker counters of one solve run (one entry per worker thread in
/// ParallelResult::workers).
struct WorkerStats {
  std::uint64_t expanded = 0;        ///< chains this worker expanded
  std::uint64_t local_takes = 0;     ///< in-place activations (no copying)
  std::uint64_t network_takes = 0;   ///< chains migrated through the net
  std::uint64_t spills = 0;          ///< detached choices pushed to the network
  std::uint64_t spill_batches = 0;   ///< lock acquisitions those spills cost
  std::uint64_t solutions = 0;       ///< answers this worker recorded
  std::uint64_t failures = 0;        ///< failed chains (§5 update triggers)
  std::uint64_t cells_copied = 0;    ///< cells deep-copied at migration points
  // Copy-on-steal accounting.
  std::uint64_t handles_published = 0;  ///< choices shared as lazy handles
  std::uint64_t handles_reclaimed = 0;  ///< reclaimed in place: zero copies
  std::uint64_t handles_granted = 0;    ///< claimed by a thief: one copy
  std::uint64_t handles_migrated = 0;   ///< left with a detach_all batch
  /// Timer-driven D-threshold checks that interrupted a builtin burst.
  std::uint64_t preemptions = 0;
  /// Trail entries this worker's runner wrote over its lifetime. The
  /// static-analysis commit path drives this down: committed ground-fact
  /// matches write no trail at all.
  std::uint64_t trail_writes = 0;
  /// NUMA node this worker was placed on (0 on single-node hosts).
  std::uint32_t numa_node = 0;
};

/// Everything a parallel solve returns: the answers, per-worker and
/// scheduler traffic counters, and why the search ended.
struct ParallelResult {
  std::vector<search::Solution> solutions;  ///< recorded answers
  std::vector<WorkerStats> workers;         ///< one entry per worker
  SchedulerStats network;                   ///< scheduler traffic counters
  std::uint64_t nodes_expanded = 0;         ///< total expansions, all workers
  search::Outcome outcome = search::Outcome::Exhausted;  ///< why solve ended
  bool exhausted = false;  ///< true when the whole OR-tree was consumed
};

/// §6's parallel machine on real threads: N workers, each an in-place
/// Runner, exchanging work through a WorkStealingScheduler (the
/// minimum-seeking network analogue).
class ParallelEngine {
public:
  /// Bind the engine to a program/weight store/builtin evaluator. The
  /// referenced objects must outlive the engine.
  ParallelEngine(const db::Program& program, db::WeightStore& weights,
                 search::BuiltinEvaluator* builtins, ParallelOptions opts = {});

  /// Run one parallel search of `q` to completion (or budget/stop).
  ParallelResult solve(const search::Query& q);

  /// Multi-root solve: every query in `roots` becomes one tagged root
  /// (fork_tag = index) seeded into the *same* scheduler partition, so
  /// sibling AND-parallel work items and the OR-alternatives inside each
  /// are stolen by the same idle workers under one termination detector.
  /// `fork_nodes` (optional, `fork_tag_count` atomics) receives per-root
  /// expansion counts — see JobControls::fork_nodes.
  ParallelResult solve_forked(std::span<const search::Query> roots,
                              std::atomic<std::uint64_t>* fork_nodes = nullptr,
                              std::uint32_t fork_tag_count = 0);

private:
  const db::Program& program_;
  db::WeightStore& weights_;
  search::BuiltinEvaluator* builtins_;
  ParallelOptions opts_;
};

}  // namespace blog::parallel
