#include "blog/parallel/executor.hpp"

#include <algorithm>

#include "blog/parallel/topology.hpp"
#include "blog/search/engine.hpp"

namespace blog::parallel {

namespace detail {

/// Everything one job owns: the request, its private scheduler partition,
/// shared controls, dispatch bookkeeping, and the completion latch.
struct JobState {
  std::uint64_t id = 0;
  Executor* exec = nullptr;
  JobRequest req;
  unsigned slots = 1;

  // Parallel machinery (slots > 1 or forked roots). The expander binds the request's
  // program/weights/builtins; the scheduler is this job's partition of the
  // minimum-seeking network (its outstanding-work counter is the per-job
  // termination detector).
  std::unique_ptr<search::Expander> expander;
  std::unique_ptr<WorkStealingScheduler> net;
  JobControls ctl;
  JobConfig cfg;
  std::vector<WorkerStats> wstats;
  const std::atomic<std::uint64_t>* epoch = nullptr;

  std::atomic<bool> cancel_flag{false};

  // Dispatch bookkeeping, guarded by the executor's mu_.
  unsigned claimed = 0;  ///< slots handed to pool workers
  unsigned exited = 0;   ///< attached workers that returned
  bool in_queue = false;

  // Sequential (slots == 1) result, written by the sole attached worker
  // before it finalizes.
  ParallelResult seq_result;

  // Completion latch.
  std::atomic<bool> done_flag{false};
  std::mutex done_mu;
  std::condition_variable done_cv;
  ParallelResult result;
};

}  // namespace detail

using detail::JobState;

// ------------------------------------------------------------- JobTicket --

std::uint64_t JobTicket::id() const { return state_ ? state_->id : 0; }

bool JobTicket::poll() const {
  return state_ != nullptr &&
         state_->done_flag.load(std::memory_order_acquire);
}

const ParallelResult& JobTicket::wait() const {
  static const ParallelResult kEmpty{};
  if (state_ == nullptr) return kEmpty;
  std::unique_lock lock(state_->done_mu);
  state_->done_cv.wait(lock, [&] {
    return state_->done_flag.load(std::memory_order_acquire);
  });
  return state_->result;
}

bool JobTicket::cancel() const {
  if (state_ == nullptr || state_->exec == nullptr) return false;
  return state_->exec->cancel_job(state_);
}

// -------------------------------------------------------------- Executor --

Executor::Executor(ExecutorOptions opts) : opts_(opts) {
  pool_size_ = opts_.workers != 0
                   ? opts_.workers
                   : std::max(1u, std::thread::hardware_concurrency());
  if (opts_.metrics != nullptr) {
    g_queued_ = &opts_.metrics->gauge("executor.jobs_queued");
    g_running_ = &opts_.metrics->gauge("executor.jobs_running");
    g_busy_ = &opts_.metrics->gauge("executor.workers_busy");
    c_completed_ = &opts_.metrics->counter("executor.jobs_completed");
  }
  if (opts_.preempt_interval.count() > 0) {
    ticker_ = std::thread([this] {
      while (!ticker_stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(opts_.preempt_interval);
        preempt_epoch_.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  pool_.reserve(pool_size_);
  for (unsigned w = 0; w < pool_size_; ++w)
    pool_.emplace_back([this, w] { worker_main(w); });
}

Executor::~Executor() {
  std::vector<std::shared_ptr<JobState>> orphans;
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    // Unclaimed queued jobs will never be picked up (workers refuse new
    // claims once stop_ is set): finalize them as Cancelled below. Jobs
    // with attached workers are cancelled cooperatively and finalized by
    // their own workers.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->claimed == 0) {
        (*it)->in_queue = false;
        orphans.push_back(*it);
        it = queue_.erase(it);
      } else {
        (*it)->cancel_flag.store(true, std::memory_order_relaxed);
        if ((*it)->net) {
          report_stop((*it)->ctl.stop_cause, search::Outcome::Cancelled);
          (*it)->net->stop();
        }
        ++it;
      }
    }
    update_gauges();
  }
  cv_.notify_all();
  for (auto& job : orphans) {
    ParallelResult r;
    r.outcome = search::Outcome::Cancelled;
    complete(job, std::move(r));
  }
  for (auto& t : pool_) t.join();
  if (ticker_.joinable()) {
    ticker_stop_.store(true, std::memory_order_relaxed);
    ticker_.join();
  }
}

JobTicket Executor::submit(JobRequest req) {
  auto job = std::make_shared<JobState>();
  job->exec = this;
  job->id = next_job_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  job->slots = std::clamp(req.slots, 1u, pool_size_);
  job->req = std::move(req);
  JobRequest& r = job->req;
  job->epoch = opts_.preempt_interval.count() > 0 && r.builtins != nullptr &&
                       r.opts.preempt_interval.count() > 0
                   ? &preempt_epoch_
                   : nullptr;

  // A job is scheduler-backed when it wants parallel width OR carries
  // AND-parallel child work items (forked roots need the partition's
  // termination detector even at slots == 1).
  if (job->slots > 1 || !r.forks.empty()) {
    job->expander = std::make_unique<search::Expander>(
        *r.program, *r.weights, r.builtins, r.opts.expander);
    // Per-job schedulers run node-agnostic: the slot→pool-worker binding
    // is dynamic, so tagging a slot's deque with a topology node would
    // claim a locality the attachment order cannot guarantee. The pool
    // threads themselves are NUMA-placed and pinned once at startup.
    job->net = prepare_job(r.opts, job->slots, /*numa_aware=*/false,
                           &job->cancel_flag, job->ctl, job->cfg);
    job->net->push_root(job->expander->make_root(r.query));
    for (std::size_t i = 0; i < r.forks.size(); ++i) {
      search::DetachedNode root = job->expander->make_root(r.forks[i]);
      root.fork_tag = static_cast<std::uint32_t>(i + 1);
      job->net->push_root(std::move(root));
    }
    job->ctl.fork_nodes = r.fork_nodes;
    job->ctl.fork_tag_count = r.fork_tag_count;
    if (r.on_answer) {
      JobState* js = job.get();
      job->ctl.on_solution = [js](const search::Solution& s) {
        js->req.on_answer(s);
      };
    }
    job->wstats.resize(job->slots);
  }

  {
    std::lock_guard lock(mu_);
    if (stop_ || queue_.size() >= opts_.queue_limit) {
      ++rejected_;
      return JobTicket();
    }
    ++submitted_;
    job->in_queue = true;
    queue_.push_back(job);
    update_gauges();
  }
  obs::trace(r.opts.trace, obs::client_lane(), obs::EventKind::kJobSubmit,
             static_cast<std::uint32_t>(job->id));
  // One free worker per requested slot has something new to do.
  if (job->slots == 1)
    cv_.notify_one();
  else
    cv_.notify_all();
  return JobTicket(job);
}

bool Executor::cancel_job(const std::shared_ptr<detail::JobState>& job) {
  if (job->done_flag.load(std::memory_order_acquire)) return false;
  job->cancel_flag.store(true, std::memory_order_relaxed);
  bool orphaned = false;
  {
    std::lock_guard lock(mu_);
    if (job->in_queue && job->claimed == 0) {
      // Never dispatched: unhook it and complete on this thread.
      queue_.erase(std::find(queue_.begin(), queue_.end(), job));
      job->in_queue = false;
      orphaned = true;
      update_gauges();
    } else if (job->net) {
      // Running (or about to): first-stop-wins the cause, then stop the
      // job's scheduler so workers blocked in acquire() wake and drain.
      report_stop(job->ctl.stop_cause, search::Outcome::Cancelled);
      job->net->stop();
    }
    // Sequential running jobs only need cancel_flag (checked by the
    // engine once per expansion).
  }
  obs::trace(job->req.opts.trace, obs::client_lane(),
             obs::EventKind::kJobCancel, static_cast<std::uint32_t>(job->id));
  if (orphaned) {
    ParallelResult r;
    r.outcome = search::Outcome::Cancelled;
    complete(job, std::move(r));
  }
  return true;
}

void Executor::worker_main(unsigned worker) {
  // NUMA placement mirrors ParallelEngine's: round-robin across detected
  // nodes, pinned once for the pool's lifetime (best effort).
  const Topology& topo = Topology::system();
  unsigned numa_node = 0;
  if (opts_.numa_aware && !topo.single_node()) {
    numa_node = topo.node_of_worker(worker);
    if (opts_.numa_pin_workers) pin_current_thread_to_node(topo, numa_node);
  }

  for (;;) {
    std::shared_ptr<JobState> job;
    unsigned slot = 0;
    bool first = false;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = queue_.front();
      slot = job->claimed++;
      first = slot == 0;
      if (first) ++running_jobs_;
      if (job->claimed >= job->slots) {
        queue_.pop_front();
        job->in_queue = false;
      }
      ++busy_workers_;
      update_gauges();
    }
    if (first)
      obs::trace(job->cfg.trace, static_cast<std::uint16_t>(worker),
                 obs::EventKind::kJobStart,
                 static_cast<std::uint32_t>(job->id));

    if (job->net) {
      if (!job->wstats[slot].numa_node) job->wstats[slot].numa_node = numa_node;
      run_job_worker(*job->expander, *job->req.weights, *job->net, slot,
                     static_cast<std::uint16_t>(worker), job->wstats[slot],
                     job->cfg, job->ctl, job->epoch);
    } else {
      run_sequential(*job);
    }

    bool last = false;
    {
      std::lock_guard lock(mu_);
      if (job->in_queue) {
        // This worker came back before the job's remaining slots were
        // claimed (the search is over): retire the queue entry so no one
        // else attaches. A partially claimed job is always at the front —
        // claims only ever come off the front, and a job leaves it only
        // when fully claimed, finished, or cancelled.
        queue_.erase(std::find(queue_.begin(), queue_.end(), job));
        job->in_queue = false;
      }
      --busy_workers_;
      last = ++job->exited == job->claimed;
      if (last) --running_jobs_;
      update_gauges();
    }
    if (last) finalize(job);
  }
}

void Executor::run_sequential(detail::JobState& job) {
  JobRequest& r = job.req;
  search::SearchOptions so;
  so.strategy = r.strategy;
  so.limits = r.opts.limits;
  so.update_weights = r.opts.update_weights;
  so.expander = r.opts.expander;
  so.trace = r.opts.trace;
  so.cancel = &job.cancel_flag;
  if (r.on_answer) so.on_solution = r.on_answer;
  search::SearchEngine eng(*r.program, *r.weights, r.builtins);
  auto sr = eng.solve(r.query, so);

  ParallelResult pr;
  pr.solutions = std::move(sr.solutions);
  pr.outcome = sr.outcome;
  pr.exhausted = sr.exhausted;
  pr.nodes_expanded = sr.stats.nodes_expanded;
  pr.workers.resize(1);
  pr.workers[0].expanded = sr.stats.nodes_expanded;
  pr.workers[0].solutions = sr.stats.solutions;
  pr.workers[0].failures = sr.stats.failures;
  pr.workers[0].trail_writes = sr.stats.expand.trail_writes;
  job.seq_result = std::move(pr);
}

void Executor::finalize(const std::shared_ptr<detail::JobState>& job) {
  ParallelResult r;
  if (job->net) {
    r.solutions = std::move(job->ctl.solutions);
    r.workers = std::move(job->wstats);
    r.network = job->net->stats();
    r.exhausted = !job->net->stopped();
    r.outcome = job->ctl.outcome(r.exhausted);
    for (const auto& ws : r.workers) r.nodes_expanded += ws.expanded;
  } else {
    r = std::move(job->seq_result);
  }
  complete(job, std::move(r));
}

void Executor::complete(const std::shared_ptr<detail::JobState>& job,
                        ParallelResult&& r) {
  {
    std::lock_guard lock(mu_);
    ++completed_;
    if (r.outcome == search::Outcome::Cancelled) ++cancelled_;
  }
  if (c_completed_ != nullptr) c_completed_->inc();
  obs::trace(job->req.opts.trace, obs::client_lane(),
             obs::EventKind::kJobDone, static_cast<std::uint32_t>(job->id));
  // The completion callback runs before waiters wake so a submit().wait()
  // wrapper observes the callback's side effects (cache insert, gate
  // release). Calling JobTicket::wait from inside on_complete deadlocks.
  if (job->req.on_complete) job->req.on_complete(r);
  {
    std::lock_guard lock(job->done_mu);
    job->result = std::move(r);
    job->done_flag.store(true, std::memory_order_release);
  }
  job->done_cv.notify_all();
}

Executor::Stats Executor::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.cancelled = cancelled_;
  s.rejected = rejected_;
  s.queued = queue_.size();
  s.running = running_jobs_;
  s.busy_workers = busy_workers_;
  return s;
}

void Executor::update_gauges() {
  if (g_queued_ != nullptr) g_queued_->set(static_cast<double>(queue_.size()));
  if (g_running_ != nullptr)
    g_running_->set(static_cast<double>(running_jobs_));
  if (g_busy_ != nullptr) g_busy_->set(static_cast<double>(busy_workers_));
}

}  // namespace blog::parallel
