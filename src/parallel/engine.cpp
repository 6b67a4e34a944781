#include "blog/parallel/engine.hpp"

#include <algorithm>

#include "blog/parallel/executor.hpp"

namespace blog::parallel {

ParallelEngine::ParallelEngine(const db::Program& program, db::WeightStore& weights,
                               search::BuiltinEvaluator* builtins,
                               ParallelOptions opts, Executor* executor)
    : program_(program),
      weights_(weights),
      builtins_(builtins),
      opts_(std::move(opts)),
      executor_(executor) {
  if (executor_ == nullptr) {
    // Preemption can only trigger inside builtin bursts, so a program with
    // no builtin evaluator never pays the ticker thread.
    ExecutorOptions eo;
    eo.workers = std::max(1u, opts_.workers);
    eo.preempt_interval = builtins_ != nullptr
                              ? opts_.preempt_interval
                              : std::chrono::microseconds(0);
    own_ = std::make_unique<Executor>(eo);
    executor_ = own_.get();
  }
}

ParallelEngine::~ParallelEngine() = default;

ParallelResult ParallelEngine::solve(const search::Query& q) {
  return solve_forked({&q, 1});
}

ParallelResult ParallelEngine::solve_forked(
    std::span<const search::Query> roots,
    std::atomic<std::uint64_t>* fork_nodes, std::uint32_t fork_tag_count) {
  // One job whose partition holds every root: roots[0] is the job's query
  // (fork_tag 0), the rest ride as forked work items. No strategy is set,
  // so even a one-worker solve runs on the scheduler.
  JobRequest req;
  req.program = &program_;
  req.weights = &weights_;
  req.builtins = builtins_;
  req.query = roots[0];
  req.forks.assign(roots.begin() + 1, roots.end());
  req.fork_nodes = fork_nodes;
  req.fork_tag_count = fork_tag_count;
  req.slots = std::max(1u, opts_.workers);
  req.opts = opts_;
  const JobTicket ticket = executor_->submit(std::move(req));
  if (!ticket.valid()) {
    ParallelResult refused;
    refused.outcome = search::Outcome::Cancelled;
    return refused;
  }
  return ticket.wait();
}

}  // namespace blog::parallel
