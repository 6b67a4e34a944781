/// \file
/// \brief Executor: the process-wide persistent worker pool.
///
/// §6's machine is a *standing* array of processors fed by the
/// minimum-seeking network — but ParallelEngine::solve spawns, pins, and
/// joins its own threads per query, so per-query overhead is thread
/// creation, not enqueue cost. The Executor makes the processor array
/// resident: `workers` threads are created, NUMA-placed, and pinned
/// **once** (round-robin across the detected topology), and every query
/// becomes a schedulable *job* multiplexed onto the pool.
///
/// Isolation: each job owns a private WorkStealingScheduler — its partition
/// of the minimum-seeking network. Two concurrent jobs' chains can never
/// mix because they live in different schedulers, and each scheduler's
/// outstanding-work counter is that job's termination detector (no global
/// coordination between jobs). A job asks for `slots` processors; the
/// run-queue hands (job, slot) pairs to free pool workers FIFO, so a job
/// may run narrower than requested while the pool is busy — correctness
/// does not depend on all slots attaching (work-stealing scans every
/// deque, attached or not).
///
/// Lifecycle: submit() never blocks — the job is queued (bounded) or
/// refused. A JobTicket is the client handle: wait()/poll(), cancel()
/// (cooperative: workers stop at their next expansion boundary), and
/// streamed answers via JobRequest::on_answer. One preemption ticker
/// thread is shared by every job instead of one per solve.
#pragma once

#include <condition_variable>
#include <deque>

#include "blog/obs/metrics.hpp"
#include "blog/parallel/job.hpp"

namespace blog::parallel {

namespace detail {
struct JobState;
}  // namespace detail

/// Pool-wide configuration (fixed at construction).
struct ExecutorOptions {
  /// Pool size: worker threads created and pinned once. 0 = one per
  /// hardware thread (min 1).
  unsigned workers = 0;
  /// Most jobs admitted but not yet fully dispatched; submit() refuses
  /// beyond this (returns an invalid ticket — shed, never parked).
  std::size_t queue_limit = 256;
  bool numa_aware = true;       ///< place workers round-robin across nodes
  bool numa_pin_workers = true; ///< pin each worker to its node's CPUs
  /// Shared preemption ticker period (one thread for the whole pool; jobs
  /// with a builtin evaluator and a non-zero per-job preempt_interval get
  /// the epoch). 0 disables the ticker thread.
  std::chrono::microseconds preempt_interval{500};
  /// Metrics registry for executor gauges/counters
  /// (executor.jobs_queued/jobs_running/workers_busy, executor.jobs_*).
  /// May be null (no metrics). Must outlive the executor.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One query as a schedulable job. The referenced program/weights/builtins
/// must outlive the job (pin a snapshot via `keepalive`).
struct JobRequest {
  const db::Program* program = nullptr;
  db::WeightStore* weights = nullptr;
  search::BuiltinEvaluator* builtins = nullptr;
  search::Query query;
  /// Parallel width: scheduler slots this job asks for (clamped to the
  /// pool size). 1 = sequential solve (SearchEngine semantics — `strategy`
  /// applies) run on one pool worker.
  unsigned slots = 1;
  /// AND-parallel child work items: extra root queries seeded into the
  /// job's scheduler partition alongside `query`, so one termination
  /// detector (and one cancel) covers every forked subtree. Roots are
  /// tagged for attribution: `query` gets fork_tag 0, forks[i] gets
  /// fork_tag i+1. Any non-empty forks list makes the job parallel
  /// (scheduler-backed) even at slots == 1.
  std::vector<search::Query> forks;
  /// Optional per-fork-tag expansion counters (1 + forks.size() atomics,
  /// caller-owned, must outlive the job) — see JobControls::fork_nodes.
  std::atomic<std::uint64_t>* fork_nodes = nullptr;
  std::uint32_t fork_tag_count = 0;
  /// Open-list policy of a sequential (slots == 1) job; parallel jobs use
  /// the scheduler's best-first order.
  search::Strategy strategy = search::Strategy::BestFirst;
  /// Limits, §6 knobs, spill/scheduler tuning, trace sink. `workers` is
  /// ignored (`slots` wins); `cancel`/`on_solution` are owned by the
  /// executor (use JobTicket::cancel and `on_answer`).
  ParallelOptions opts;
  /// Streamed answers: called once per recorded answer, in discovery
  /// order, from a pool worker under the job's solution lock. The
  /// Solution is only valid during the call.
  std::function<void(const search::Solution&)> on_answer;
  /// Completion callback, invoked once from a pool worker (or from
  /// cancel()/shutdown for never-started jobs) after the result is set,
  /// before waiters wake.
  std::function<void(const ParallelResult&)> on_complete;
  /// Arbitrary lifetime pin (e.g. the service's ProgramSnapshot).
  std::shared_ptr<const void> keepalive;
};

/// Client handle of one submitted job (shared-state future: cheap to copy).
class JobTicket {
 public:
  JobTicket() = default;

  /// False for a default-constructed ticket or a refused submit.
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// Process-unique job id (0 when invalid).
  [[nodiscard]] std::uint64_t id() const;
  /// True once the result is available (never blocks).
  [[nodiscard]] bool poll() const;
  /// Block until the job completes; the result stays valid while any
  /// ticket copy is alive. Invalid tickets return a static empty result.
  const ParallelResult& wait() const;
  /// Request cooperative cancellation. A still-queued job completes
  /// immediately with Outcome::Cancelled; a running job stops at its
  /// workers' next expansion boundary (answers found so far are kept).
  /// Returns false when the job had already completed.
  bool cancel() const;

 private:
  friend class Executor;
  explicit JobTicket(std::shared_ptr<detail::JobState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::JobState> state_;
};

/// The persistent worker pool.
class Executor {
 public:
  explicit Executor(ExecutorOptions opts = {});
  /// Cancels queued jobs, stops running ones (cooperatively), joins the
  /// pool. Every outstanding ticket completes (Cancelled) before return.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueue one job. Never blocks: returns an invalid ticket when the
  /// run-queue is at queue_limit (the caller sheds or retries).
  JobTicket submit(JobRequest req);

  /// Pool size actually created.
  [[nodiscard]] unsigned workers() const { return pool_size_; }

  struct Stats {
    std::uint64_t submitted = 0;   ///< jobs accepted by submit()
    std::uint64_t completed = 0;   ///< jobs finalized (any outcome)
    std::uint64_t cancelled = 0;   ///< completions with Outcome::Cancelled
    std::uint64_t rejected = 0;    ///< submits refused (queue full)
    std::size_t queued = 0;        ///< jobs with undispatched slots
    std::size_t running = 0;       ///< jobs dispatched, not yet finalized
    std::size_t busy_workers = 0;  ///< pool workers attached to a job
  };
  [[nodiscard]] Stats stats() const;

 private:
  friend class JobTicket;

  void worker_main(unsigned worker);
  void run_sequential(detail::JobState& job);
  void finalize(const std::shared_ptr<detail::JobState>& job);
  void complete(const std::shared_ptr<detail::JobState>& job,
                ParallelResult&& r);
  bool cancel_job(const std::shared_ptr<detail::JobState>& job);
  void update_gauges();

  ExecutorOptions opts_;
  unsigned pool_size_ = 0;
  mutable std::mutex mu_;             // guards queue_ + counters below
  std::condition_variable cv_;        // pool workers wait here
  std::deque<std::shared_ptr<detail::JobState>> queue_;
  bool stop_ = false;
  std::size_t running_jobs_ = 0;
  std::size_t busy_workers_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t rejected_ = 0;
  std::atomic<std::uint64_t> next_job_id_{0};

  // Shared preemption ticker (one thread per pool, not one per solve).
  std::atomic<std::uint64_t> preempt_epoch_{0};
  std::atomic<bool> ticker_stop_{false};
  std::thread ticker_;

  std::vector<std::thread> pool_;

  // Executor gauges (null when opts_.metrics is null).
  obs::Gauge* g_queued_ = nullptr;
  obs::Gauge* g_running_ = nullptr;
  obs::Gauge* g_busy_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
};

}  // namespace blog::parallel
