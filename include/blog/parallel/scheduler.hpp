/// \file
/// \brief The work-stealing scheduler of the thread-parallel OR-engine.
///
/// §6's machine lets a freed processor acquire the chain with the minimum
/// bound through a dedicated minimum-seeking network. The software
/// realization here gives each worker a bounded deque of detached
/// choices: spills and D-threshold migrations land in the owner's deque
/// (overflow is offloaded to the least-loaded victim), and idle workers
/// *steal half* of the best victim's deque. The minimum-seeking behaviour
/// survives as a lock-free array of per-worker published minima that idle
/// workers scan to pick the victim holding the globally lowest bound.
/// Termination is detected distributedly by an outstanding-work counter
/// instead of a central condition variable.
///
/// On top of materialized nodes, the scheduler carries
/// **copy-on-steal spill handles** (search::SpillHandle): lightweight deque
/// entries whose state still lives, free, on the owning worker's pending
/// stack. §6 only requires the *bound* to be visible to the network; the
/// deep copy is deferred to the moment a thief actually wins the handle's
/// claim CAS, at which point the owner materializes the checkpointed state
/// and deposits it in the handle. Owner-reclaimed spills never copy.
///
/// Three locality/latency refinements close the gap to the paper's
/// topology-aware machine (see docs/ARCHITECTURE.md for the protocol
/// walk-through):
///
///   - **NUMA-aware victim choice.** Every deque is tagged with the NUMA
///     node its worker is placed on (round-robin over the detected
///     topology, topology.hpp). Victim scans prefer the minimum-holding
///     deque on the scanner's own node and cross the interconnect only
///     when a remote minimum beats the best local one by more than a
///     configurable locality bias. Single-node hosts take the exact
///     pre-NUMA scan.
///   - **Claim-wait mailboxes.** A thief that wins a handle's claim CAS
///     never waits for the owner to deposit the copy: the claimed handle
///     is parked in the thief's private mailbox and the thief keeps
///     scanning other victims while the materialization is in flight. The
///     mailbox is drained — ready deposits consumed, surplus re-parked
///     into the thief's deque so the network sees it — at the next
///     acquire/D-threshold boundary.
///   - **Stale-bound refresh.** A deque whose published minimum has not
///     been re-published for longer than a threshold is swept by its owner
///     at the next expansion boundary (WorkStealingScheduler::maintain),
///     discarding resolved copy-on-steal entries and re-publishing from
///     live ones, so idle scans stop chasing dead bounds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "blog/obs/trace.hpp"      // obs::TraceSink (flight recorder)
#include "blog/search/node.hpp"
#include "blog/search/runner.hpp"  // search::SpillHandle

namespace blog::parallel {

/// Unread; kept until the repo benchmark's sources stop naming it.
enum class SchedulerKind { WorkStealing };

/// Shared traffic counters. `lock_acquisitions` counts every mutex lock
/// any scheduler path takes — the headline contention metric.
///
/// Every field is backed by its own relaxed atomic and is **monotonic**
/// (all only grow), so WorkStealingScheduler::stats() may be called from
/// any thread at any time during a live run: the snapshot is a set of
/// individually-consistent monotone counters, never a half-written struct.
/// Cross-counter invariants (e.g. steals == steals_local + steals_remote)
/// hold exactly only at quiescence.
struct SchedulerStats {
  std::uint64_t pushes = 0;             ///< chains entering any queue
  std::uint64_t pops = 0;               ///< chains handed to processors
  std::uint64_t grants = 0;             ///< idle (blocking) acquisitions
  std::uint64_t steals = 0;             ///< chains moved by steal-half
  std::uint64_t steal_attempts = 0;     ///< victim scans that found a target
  std::uint64_t offloads = 0;           ///< overflow batches pushed to a victim
  std::uint64_t lock_acquisitions = 0;  ///< mutex locks taken, all paths
  /// Cross-worker transfers whose thief and victim deque share a NUMA
  /// node. steals_local + steals_remote == steals on multi-node hosts;
  /// single-node hosts count everything local.
  std::uint64_t steals_local = 0;
  std::uint64_t steals_remote = 0;      ///< transfers that crossed nodes
  // Copy-on-steal traffic.
  std::uint64_t handles_published = 0;  ///< lazy entries entering deques
  std::uint64_t handle_claims = 0;      ///< thief claim CASes won
  std::uint64_t handle_grants = 0;      ///< claims that yielded a node
  std::uint64_t stale_discards = 0;     ///< dead/reclaimed entries dropped
  /// Claim-wait traffic. The thief never blocks on a claim, so
  /// `claim_wait_us` measures the in-flight latency from claim to mailbox
  /// drain, not blocked wall time.
  std::uint64_t claim_wait_us = 0;      ///< µs from claim won to node in hand
  std::uint64_t mailbox_parked = 0;     ///< claims parked into thief mailboxes
  std::uint64_t mailbox_drained = 0;    ///< deposits consumed from mailboxes
  /// Proactive owner-side re-publications of a stale published minimum.
  std::uint64_t stale_refreshes = 0;
  /// Total on_expanded() calls — chains consumed engine-wide. Unlike
  /// ParallelResult::WorkerStats (plain structs populated only at join),
  /// this is live-safe: repl `:stats` and trace flushes read it mid-run.
  std::uint64_t expansions = 0;
};

/// Tuning of the work-stealing scheduler's adaptive bounds and locality
/// behaviour. Each worker tracks an EWMA of its steal pressure — were any
/// of its entries stolen (or was anyone starving) since its last spill? —
/// and scales both its deque capacity and the suggested engine-side local
/// capacity around the configured seeds: pressure 0.5 is neutral, 0 grows
/// toward the upper bound (lone-hot workers stop sharding their pool), 1
/// shrinks toward the lower bound (saturated pools shed earlier).
struct SchedulerTuning {
  bool adaptive = true;             ///< float capacities with steal pressure
  std::uint32_t ewma_window = 64;   ///< EWMA horizon, in spill events
  std::size_t min_capacity = 4;     ///< adaptive lower bound
  std::size_t max_capacity = 512;   ///< adaptive upper bound
  std::size_t local_capacity_seed = 8;  ///< engine local_capacity seed
  /// Use the detected host topology (topology.hpp) to tag deques with
  /// NUMA node ids and bias victim scans toward same-node deques. On a
  /// single-node host this is a no-op regardless of the flag.
  bool numa_aware = true;
  /// Explicit worker→node assignment (tests, custom placement). Empty =
  /// round-robin over Topology::system() when `numa_aware`, else all 0.
  std::vector<std::uint32_t> worker_nodes;
  /// Bound units a *remote-node* published minimum must beat the best
  /// same-node candidate by before a scan crosses the interconnect.
  double locality_bias = 1.0;
  /// Most claims a thief may hold in its mailbox at once. The cap keeps
  /// an idle thief on an oversubscribed host from hoovering up every
  /// published handle (each claim forces its owner into a deep copy)
  /// before any owner gets CPU time to fulfill; at the cap the thief
  /// backs off and drains instead of claiming further.
  std::uint32_t mailbox_claim_limit = 1;
  /// Re-publish a deque whose published minimum is older than this many
  /// microseconds at the owner's next maintain() boundary. 0 disables
  /// the stale-bound refresh.
  std::uint32_t stale_refresh_us = 500;
  /// Flight recorder (see obs/trace.hpp). When non-null the scheduler
  /// records steal/spill/claim/mailbox/stale-refresh/starvation events
  /// into it; null (the default) compiles every site down to one branch.
  obs::TraceSink* trace = nullptr;
};

/// Work-stealing scheduler: per-worker bounded deques, lock-free published
/// minima, NUMA-biased steal-half, counter-based distributed termination,
/// copy-on-steal spill handles with claim-wait mailboxes, adaptive
/// per-worker capacities, and owner-driven stale-bound refresh.
class WorkStealingScheduler {
public:
  /// `deque_capacity` seeds each worker's deque bound; a push that
  /// overflows it offloads the worst-bound half to the least-loaded other
  /// worker. With `tuning.adaptive`, the bound (and the local-capacity
  /// hint) float around their seeds with observed steal pressure.
  explicit WorkStealingScheduler(unsigned workers,
                                 std::size_t deque_capacity = 64,
                                 SchedulerTuning tuning = {});
  ~WorkStealingScheduler();

  /// Seed a root chain (before workers start); bumps the outstanding-work
  /// count, so several roots share one termination detector.
  void push_root(search::DetachedNode n);

  /// Park a batch of detached choices spilled or migrated by `worker`.
  void push_batch(unsigned worker, std::vector<search::DetachedNode> ns);

  /// Park copy-on-steal spill handles published by `worker`'s runner. The
  /// chains stay on the runner's stack; only bounds enter the network.
  void push_handles(unsigned worker,
                    std::vector<std::shared_ptr<search::SpillHandle>> hs);

  /// Adaptive local-capacity suggestion for `worker` (how many pending
  /// choices to keep private before publishing). `fallback` is the
  /// engine-configured static knob, returned verbatim when adaptivity is
  /// off.
  [[nodiscard]] std::size_t local_capacity_hint(unsigned worker,
                                                std::size_t fallback) const;

  /// Owner-side housekeeping, called by `worker`'s loop once per expansion
  /// boundary: the stale-bound refresh.
  void maintain(unsigned worker);

  /// §6's D-threshold test: if some queued chain's bound is lower than
  /// `local_min - d`, acquire it (the caller migrates its pool out first
  /// or right after). Non-blocking; nullopt = keep working locally.
  std::optional<search::Node> try_acquire_better(unsigned worker,
                                                 double local_min, double d);

  /// Idle acquisition: wait until a chain is available (always the best
  /// one visible), the search terminates, or stop(). nullopt = done.
  std::optional<search::Node> acquire(unsigned worker);

  /// Account one expansion: the expanded chain dies, `children` chains
  /// are born (queued or kept in the worker's local pool). Termination
  /// is exactly the outstanding count reaching zero.
  void on_expanded(std::size_t children);

  /// Abort: acquire() returns nullopt from now on.
  void stop();
  /// True once stop() has been called.
  [[nodiscard]] bool stopped() const;

  /// Snapshot of the shared traffic counters. Safe to call from any
  /// thread while workers are running: every field is read from its own
  /// monotonic relaxed atomic (see SchedulerStats).
  [[nodiscard]] SchedulerStats stats() const;

  /// Lowest bound published by any deque (lock-free scan; approximate
  /// under concurrent mutation). nullopt = all deques empty.
  [[nodiscard]] std::optional<double> min_bound() const;

  /// Current adaptive deque capacity of `worker` (== the seed when
  /// adaptivity is off). Exposed for tests and the bench reporter.
  [[nodiscard]] std::size_t deque_capacity(unsigned worker) const;

  /// NUMA node `worker`'s deque is tagged with (0 on single-node hosts).
  /// Exposed for tests and the bench reporter.
  [[nodiscard]] std::uint32_t worker_node(unsigned worker) const;

private:
  // One deque entry: either a materialized chain (`lazy == nullptr`) or a
  // copy-on-steal handle whose state still lives on the owner's stack.
  struct Entry {
    double bound;
    std::uint64_t seq;
    search::Node node;
    std::shared_ptr<search::SpillHandle> lazy;
  };
  // Min-heap order on (bound, insertion seq): one worker draining its
  // deque takes chains best-bound first, ties in insertion order.
  struct EntryCmp {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.bound != b.bound) return a.bound > b.bound;
      return a.seq > b.seq;
    }
  };
  // A claimed copy-on-steal handle parked in its thief's mailbox while
  // the owner's materialization is in flight.
  struct MailEntry {
    std::shared_ptr<search::SpillHandle> handle;
    std::int64_t claimed_at_us;  // steady-clock stamp of the claim win
  };
  // One worker's deque plus its published (lock-free readable) summary
  // and adaptive bounds. Padded so scans of neighbours' summaries never
  // false-share.
  struct alignas(64) Deque {
    mutable std::mutex mu;
    std::vector<Entry> pool;  // std::*_heap managed, front = minimum bound
    std::atomic<double> pub_min;
    std::atomic<std::uint32_t> pub_size{0};
    // NUMA node this worker is placed on; victim scans read it lock-free
    // alongside the min/size summary.
    std::uint32_t node = 0;
    // Steady-clock stamp (µs) of the last publish(); the owner's
    // maintain() sweeps + re-publishes when it goes stale.
    std::atomic<std::int64_t> pub_stamp_us{0};
    // Adaptive bounds, published alongside the size/min summary.
    std::atomic<std::uint32_t> cap{64};
    std::atomic<std::uint32_t> local_hint{8};
    // Thefts (stolen entries + won handle claims) against this worker
    // since its last spill — the steal-pressure sample source.
    std::atomic<std::uint32_t> thefts_since_push{0};
    float pressure = 0.5f;  // EWMA, owner-updated under `mu`
    // Claim-wait mailbox: handles this worker (as thief) has claimed and
    // is waiting on. Touched only by the owning worker's thread — never
    // locked. Owners communicate exclusively through the handle states.
    std::vector<MailEntry> mail;
  };

  void publish(Deque& d);
  /// Owner-side EWMA update + capacity re-publication; called under
  /// `d.mu` by the worker that owns `d` while spilling.
  void adapt(Deque& d);
  /// Drop entries whose lazy handle was already resolved elsewhere
  /// (owner-reclaimed or dead). Called under `d.mu`; returns #removed.
  std::size_t sweep_stale_locked(Deque& d);
  /// Move out the arbitrary back half of a locked deque (steal-half /
  /// overflow shedding); the minimum stays behind at the heap front.
  std::vector<Entry> shed_half_locked(Deque& d);
  /// Pop the best entry of a locked deque.
  Entry pop_best_locked(Deque& d);
  /// Append entries to `worker`'s deque under its lock (overflow /
  /// steal-half loot / surplus mailbox deposits).
  void park_entries(unsigned worker, std::vector<Entry> es);
  /// The shared spill path of push_batch/push_handles: enqueue on `self`'s
  /// deque, sweep stale entries, shed overflow to a starving peer, adapt.
  void enqueue_spill(unsigned self, std::vector<Entry> es);
  /// Record one cross-worker transfer from `victim_deque` to `thief` in
  /// the steals counter and its local/remote locality split.
  void record_steal(unsigned thief, unsigned victim_deque, std::uint64_t n);
  /// Locality-biased victim selection over the published minima: the best
  /// same-node candidate wins unless a remote-node candidate beats it by
  /// more than `locality_bias`. Only candidates strictly below
  /// `require_below` qualify; `deques_.size()` = none found.
  unsigned pick_victim(unsigned self, double require_below,
                       bool include_self) const;
  /// Steal the best chain of `victim` for `thief`; when `bulk`, also move
  /// half of the remainder into the thief's deque (idle steal-half).
  /// Returns nullopt if the victim is empty, no longer beats
  /// `require_below` (stale published minimum), or the best entry was a
  /// lazy handle — lost to its owner, or claimed and parked in the
  /// thief's mailbox — callers rescan. `claim_capped` (may be null) is set
  /// when the best entry was a claimable handle but the thief's mailbox is
  /// at its claim cap: the caller should back off and drain rather than
  /// hot-rescan the victim.
  std::optional<search::Node> steal_from(unsigned thief, unsigned victim,
                                         double require_below, bool bulk,
                                         bool* claim_capped = nullptr);
  /// Drain `self`'s mailbox: drop dead entries, consume the best ready
  /// deposit whose bound is strictly below `require_below`, re-park every
  /// other ready deposit into `self`'s deque so the network sees it.
  std::optional<search::Node> drain_mailbox(unsigned self,
                                            double require_below);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::size_t capacity_seed_;
  SchedulerTuning tuning_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::int64_t> inflight_;
  std::atomic<bool> stop_{false};
  std::atomic<int> idle_{0};  // workers currently blocked in acquire()

  // Stats, updated with relaxed atomics (hot-path friendly).
  std::atomic<std::uint64_t> pushes_{0}, pops_{0}, grants_{0}, steals_{0},
      steal_attempts_{0}, offloads_{0}, locks_{0};
  std::atomic<std::uint64_t> steals_local_{0}, steals_remote_{0};
  std::atomic<std::uint64_t> handles_published_{0}, handle_claims_{0},
      handle_grants_{0}, stale_discards_{0};
  std::atomic<std::uint64_t> claim_wait_us_{0}, mailbox_parked_{0},
      mailbox_drained_{0}, stale_refreshes_{0};
  std::atomic<std::uint64_t> expansions_{0};
};

}  // namespace blog::parallel
