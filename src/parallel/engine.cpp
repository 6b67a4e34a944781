#include "blog/parallel/engine.hpp"

#include "blog/parallel/job.hpp"
#include "blog/parallel/topology.hpp"

namespace blog::parallel {

ParallelEngine::ParallelEngine(const db::Program& program, db::WeightStore& weights,
                               search::BuiltinEvaluator* builtins,
                               ParallelOptions opts)
    : program_(program), weights_(weights), builtins_(builtins), opts_(opts) {}

ParallelResult ParallelEngine::solve(const search::Query& q) {
  return solve_forked({&q, 1});
}

ParallelResult ParallelEngine::solve_forked(
    std::span<const search::Query> roots,
    std::atomic<std::uint64_t>* fork_nodes, std::uint32_t fork_tag_count) {
  search::Expander expander(program_, weights_, builtins_, opts_.expander);
  ParallelResult result;
  result.workers.resize(opts_.workers);
  JobControls ctl;
  JobConfig cfg;
  const std::unique_ptr<WorkStealingScheduler> net = prepare_job(
      opts_, opts_.workers, opts_.numa_aware, opts_.cancel, ctl, cfg);
  ctl.on_solution = opts_.on_solution;
  ctl.fork_nodes = fork_nodes;
  ctl.fork_tag_count = fork_tag_count;
  // Every root enters the same partition; push_root bumps the scheduler's
  // outstanding-work counter per call, so one termination detector covers
  // all forked subtrees.
  for (std::size_t i = 0; i < roots.size(); ++i) {
    search::DetachedNode root = expander.make_root(roots[i]);
    root.fork_tag = static_cast<std::uint32_t>(i);
    net->push_root(std::move(root));
  }
  // Worker→node placement mirrors the scheduler's deque tagging (both
  // derive it round-robin from the same detected topology); single-node
  // hosts skip placement and pinning entirely.
  const Topology& topo = Topology::system();
  const bool multi_node = opts_.numa_aware && !topo.single_node();

  // Preemption ticker: bump an epoch every preempt_interval so runners
  // yield out of long builtin bursts for a mid-burst D-threshold check.
  std::atomic<std::uint64_t> preempt_epoch{0};
  std::atomic<bool> ticker_stop{false};
  std::thread ticker;
  // Preemption can only trigger inside builtin bursts, so a program with
  // no builtin evaluator never pays the ticker thread (one extra thread
  // per solve otherwise — noticeable only against very short queries).
  const bool tick =
      opts_.preempt_interval.count() > 0 && builtins_ != nullptr;
  if (tick) {
    ticker = std::thread([&] {
      while (!ticker_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(opts_.preempt_interval);
        preempt_epoch.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(opts_.workers);
  for (unsigned w = 0; w < opts_.workers; ++w) {
    threads.emplace_back([&, w] {
      if (multi_node) {
        const unsigned node = topo.node_of_worker(w);
        result.workers[w].numa_node = node;
        if (opts_.numa_pin_workers) pin_current_thread_to_node(topo, node);
      }
      run_job_worker(expander, weights_, *net, w,
                     static_cast<std::uint16_t>(w), result.workers[w], cfg,
                     ctl, tick ? &preempt_epoch : nullptr);
    });
  }
  for (auto& t : threads) t.join();
  if (tick) {
    ticker_stop.store(true, std::memory_order_relaxed);
    ticker.join();
  }

  result.solutions = std::move(ctl.solutions);
  result.network = net->stats();
  result.exhausted = !net->stopped();
  result.outcome = ctl.outcome(result.exhausted);
  for (const auto& ws : result.workers) result.nodes_expanded += ws.expanded;
  return result;
}

}  // namespace blog::parallel
