// The repo benchmark: one workload per invocation, driven through the public
// API from one process.
//
//   blog_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--corrupt-expected]
//
// --trace 0 measures the end-to-end metrics: set-up (repeated before and
// after the timed loop, median), and a closed loop of `seconds` through
// QueryService::submit (or andp::solve_and_parallel for andor_join), every
// answer checked against the generator's expected set. The gated timings are
// CPU time (set-up, per query); wall-clock throughput and latency, and the
// cost of writes, are printed beside them.
// --trace 1 runs the same timed loop (its end-to-end figures go to the
// report), then replays the same request stream twice, each replay for at
// most half of `seconds`: once through the service with spans around each
// request (the traced run whose qps gives trace.overhead_frac), and once
// calling each layer's public functions one by one under spans, which
// yields the per-layer metrics.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics of the mode. Lines before it are a human-readable report.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "blog/andp/exec.hpp"
#include "blog/parallel/topology.hpp"
#include "blog/service/service.hpp"
#include "blog/support/symbol.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace blog;
using perfbench::Clock;
using perfbench::Kind;
using perfbench::Request;
using perfbench::Scope;
using perfbench::Tracer;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;  // falsify every 5th expected set (self-test)
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--corrupt-expected") {
      a.corrupt = true;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_clock_s(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}
/// CPU time of every thread of the process. Time the hypervisor stole from
/// the virtual CPUs is not in it, nor is time spent waiting.
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Clock::time_point deadline_in(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Context {
  Args args;
  unsigned nproc = 1;
  perfbench::Profile prof;  // concurrency/workers resolved against nproc
  service::ServiceOptions sopts;
  std::string program;
};

/// The highest percentile of a fixed ladder with at least 10 of a block's
/// `n` samples beyond it (the median for blocks too small for any).
double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  return 50.0;
}

/// Counts of one pass over the request stream, and its CPU time,
/// throughput and latency per block of completed queries. A block's CPU
/// time and throughput count query serving only: the wall and CPU time of
/// the writes in a block are taken out of it (writes are measured on their
/// own, as consult_cpu_ms and consult_p50_ms). Blocks are reduced as they
/// fill, so the pass holds no per-request data: the benchmark's own memory
/// stays flat, whatever the throughput, and out of peak_rss_mb.
class Pass {
 public:
  Pass() = default;
  explicit Pass(const perfbench::Profile& prof)
      : throughput_block_(prof.throughput_block),
        latency_block_(prof.block),
        rss_after_(prof.rss_after_queries),
        block_cpu_s_(process_cpu_s()) {}

  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::vector<double> consult_ms;
  std::vector<double> consult_cpu_ms;
  std::uint64_t engine_queries = 0;  // responses not served by the cache
  std::uint64_t engine_nodes = 0;
  double seconds = 0.0;  // first send to last completion

  void count(bool ok) { ok ? ++succeeded : ++failed; }
  /// One write that blocked the generator for `seconds` and took
  /// `cpu_seconds` of its CPU time.
  void wrote(double seconds, double cpu_seconds) {
    consult_ms.push_back(seconds * 1e3);
    consult_cpu_ms.push_back(cpu_seconds * 1e3);
    block_writes_s_ += seconds;
    block_writes_cpu_s_ += cpu_seconds;
  }
  void absorb(const Pass& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    failed += o.failed;
  }

  /// One completed query, in completion order: `done_s` since the pass
  /// started, `latency_ms` from submit to completion.
  void complete(double done_s, double latency_ms) {
    latest_s_ = std::max(latest_s_, done_s);
    if (++queries_ == rss_after_) rss_mb_ = peak_rss_mb();
    if (queries_ % throughput_block_ == 0) {
      const double n = static_cast<double>(throughput_block_);
      qps_.push_back(ratio(n, latest_s_ - block_end_s_ - block_writes_s_));
      const double cpu = process_cpu_s();
      cpu_us_.push_back((cpu - block_cpu_s_ - block_writes_cpu_s_) * 1e6 / n);
      block_end_s_ = latest_s_;
      block_cpu_s_ = cpu;
      block_writes_s_ = block_writes_cpu_s_ = 0.0;
    }
    lat_.push_back(latency_ms);
    if (lat_.size() == latency_block_) close_latency_block();
  }

  /// Throughput: median over throughput blocks (a run shorter than one
  /// block counts as one).
  [[nodiscard]] double qps() const {
    return qps_.empty() ? ratio(static_cast<double>(queries_),
                                latest_s_ - block_writes_s_)
                        : perfbench::median(qps_);
  }
  [[nodiscard]] std::size_t qps_blocks() const { return std::max<std::size_t>(qps_.size(), 1); }
  /// CPU time per query: median over throughput blocks (a run shorter than
  /// one block counts as one).
  [[nodiscard]] double cpu_us_per_query() const {
    return cpu_us_.empty()
               ? ratio((end_cpu_s_ - block_cpu_s_ - block_writes_cpu_s_) * 1e6,
                       static_cast<double>(queries_))
               : perfbench::median(cpu_us_);
  }
  /// The pass ended `seconds` after it started.
  void finish(double seconds_taken) {
    seconds = seconds_taken;
    end_cpu_s_ = process_cpu_s();
    if (rss_mb_ == 0.0) rss_mb_ = peak_rss_mb();
  }
  /// Peak resident memory once rss_after_queries queries had completed,
  /// or at the end of a pass that completed fewer.
  [[nodiscard]] double rss_mb() const { return rss_mb_; }
  [[nodiscard]] bool rss_at_end() const { return queries_ < rss_after_; }
  /// Latency: the median over latency blocks of each block's p50 and tail.
  [[nodiscard]] double p50_ms() { flush(); return perfbench::median(p50_); }
  [[nodiscard]] double tail_ms() { flush(); return perfbench::median(tail_); }
  [[nodiscard]] double tail_pct() const { return tail_percentile(latency_block_); }
  [[nodiscard]] std::size_t latency_blocks() const { return p50_.size(); }

 private:
  void close_latency_block() {
    p50_.push_back(perfbench::median(lat_));
    tail_.push_back(perfbench::quantile(lat_, tail_percentile(lat_.size()) / 100.0));
    lat_.clear();
  }
  // A run shorter than one latency block is measured as one block.
  void flush() {
    if (p50_.empty() && !lat_.empty()) close_latency_block();
  }

  std::size_t throughput_block_ = 1;
  std::size_t latency_block_ = 1;
  std::size_t rss_after_ = 0;
  double rss_mb_ = 0.0;
  std::size_t queries_ = 0;
  double latest_s_ = 0.0;
  double block_end_s_ = 0.0;  // completion that closed the last block
  double block_writes_s_ = 0.0;  // write time since then
  double block_cpu_s_ = 0.0;  // process CPU clock when the last block closed
  double block_writes_cpu_s_ = 0.0;  // write CPU time since then
  double end_cpu_s_ = 0.0;
  std::vector<double> qps_, cpu_us_, p50_, tail_, lat_;
};

struct Limits {
  std::size_t max_requests = std::numeric_limits<std::size_t>::max();
  Clock::time_point deadline = Clock::time_point::max();
};

/// The system under test, as one set-up builds it.
struct System {
  std::unique_ptr<service::QueryService> svc;
  std::unique_ptr<engine::Interpreter> ip;  // andp's interpreter (andor_join)
};

/// The next request of a pass that has sent `sent` so far. Under
/// --corrupt-expected every 5th request that is a query gets a falsified
/// expected set, which the check must count as failed.
Request next_request(perfbench::Workload& gen, const Context& cx,
                     std::size_t sent) {
  Request r = gen.next();
  if (cx.args.corrupt && r.kind == Kind::Query && sent % 5 == 0)
    r.expected.push_back("corrupted=expected");
  return r;
}

/// One write request, consulted on the generator thread; returns when it
/// ended. The caller counts it as sent.
Clock::time_point write(service::QueryService& svc, const Request& r, Pass& p,
                        Tracer* tr, std::uint64_t id) {
  const auto t0 = Clock::now();
  const double c0 = thread_cpu_s();
  bool ok = true;
  try {
    svc.consult(r.text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "consult failed: %s\n", e.what());
    ok = false;
  }
  const double c1 = thread_cpu_s();
  const auto t1 = Clock::now();
  p.count(ok);
  p.wrote(seconds_between(t0, t1), c1 - c0);
  if (tr) {
    const auto root = tr->record("write", id, 0, t0, t1);
    tr->record("service.consult", id, root, t0, t1);
  }
  return t1;
}

/// Closed loop through QueryService::submit: keep `concurrency` queries
/// outstanding; writes in the stream are consulted on this thread. With a
/// tracer, each query gets a root span from submit to completion and a
/// child span for the submit call itself.
Pass run_service(service::QueryService& svc, perfbench::Workload& gen,
                 const Context& cx, Limits lim, Tracer* tr) {
  struct Slot {
    Request req;
    Clock::time_point t0;
    Clock::time_point submitted;
    service::QueryTicket ticket;
    std::uint64_t id = 0;
  };
  const unsigned conc = cx.prof.concurrency;
  std::vector<Slot> slots(conc);
  std::vector<std::size_t> free_slots;
  for (std::size_t i = conc; i > 0; --i) free_slots.push_back(i - 1);

  // Completions arrive from pool workers (or from submit itself for cache
  // hits); the callback notifies under the lock so the loop may return as
  // soon as it has seen the last one.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::size_t, Clock::time_point>> done;
  std::vector<std::pair<std::size_t, Clock::time_point>> batch;

  Pass p(cx.prof);
  std::size_t outstanding = 0;
  const auto start = Clock::now();
  auto last = start;
  for (;;) {
    while (outstanding < conc && p.sent < lim.max_requests &&
           Clock::now() < lim.deadline) {
      Request r = next_request(gen, cx, p.sent);
      ++p.sent;
      if (r.kind == Kind::Consult) {
        last = write(svc, r, p, tr, p.sent);
        continue;
      }
      const std::size_t i = free_slots.back();
      free_slots.pop_back();
      Slot& s = slots[i];
      s.req = std::move(r);
      s.id = p.sent;
      service::QueryRequest q;
      q.text = s.req.text;
      q.workers = cx.prof.workers;
      service::SubmitOptions so;
      so.on_complete = [&mu, &cv, &done, i](const service::QueryResponse&) {
        const auto t = Clock::now();
        std::lock_guard lock(mu);
        done.emplace_back(i, t);
        cv.notify_one();
      };
      s.t0 = Clock::now();
      s.ticket = svc.submit(q, std::move(so));
      s.submitted = Clock::now();
      ++outstanding;
    }
    if (outstanding == 0) break;
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (const auto& [i, t_done] : batch) {
      Slot& s = slots[i];
      const service::QueryResponse& resp = s.ticket.wait();
      const bool ok = resp.status == service::QueryStatus::Ok &&
                      resp.answers == s.req.expected;
      p.count(ok);
      p.complete(seconds_between(start, t_done),
                 seconds_between(s.t0, t_done) * 1e3);
      if (!resp.from_cache) {
        ++p.engine_queries;
        p.engine_nodes += resp.nodes_expanded;
      }
      if (tr) {
        const auto root = tr->record("request", s.id, 0, s.t0, t_done);
        tr->record("service.submit", s.id, root, s.t0, s.submitted);
      }
      last = std::max(last, t_done);
      s.ticket = service::QueryTicket();
      free_slots.push_back(i);
      --outstanding;
    }
    batch.clear();
  }
  p.finish(seconds_between(start, last));
  return p;
}

andp::AndParallelOptions andp_options(System& sys, const Context& cx) {
  andp::AndParallelOptions ao;
  ao.executor = sys.svc->executor();
  ao.workers = cx.prof.workers;
  return ao;
}

/// Closed loop of one conjunction at a time through andp on the service's
/// executor.
Pass run_andp(System& sys, perfbench::Workload& gen, const Context& cx,
              Limits lim, Tracer* tr) {
  const andp::AndParallelOptions ao = andp_options(sys, cx);
  Pass p(cx.prof);
  const auto start = Clock::now();
  auto last = start;
  while (p.sent < lim.max_requests && Clock::now() < lim.deadline) {
    const Request r = next_request(gen, cx, p.sent);
    ++p.sent;
    if (r.kind == Kind::Consult) {
      last = write(*sys.svc, r, p, tr, p.sent);
      continue;
    }
    const auto t0 = Clock::now();
    const andp::AndParallelResult ar =
        andp::solve_and_parallel(*sys.ip, r.text, ao);
    last = Clock::now();
    p.count(ar.outcome == search::Outcome::Exhausted &&
            ar.solutions == r.expected);
    ++p.engine_queries;
    p.engine_nodes += ar.sequential_nodes;
    p.complete(seconds_between(start, last), seconds_between(t0, last) * 1e3);
    if (tr) tr->record("request", p.sent, 0, t0, last);
  }
  p.finish(seconds_between(start, last));
  return p;
}

Pass run_stream(System& sys, perfbench::Workload& gen, const Context& cx,
                Limits lim, Tracer* tr) {
  return cx.prof.via_andp ? run_andp(sys, gen, cx, lim, tr)
                          : run_service(*sys.svc, gen, cx, lim, tr);
}

/// Counters the layer-by-layer replay gathers besides its spans.
struct LayerCounters {
  // search: SearchEngine::solve
  std::uint64_t solves = 0, nodes = 0, unify_attempts = 0, unify_cells = 0,
                trail_writes = 0, builtin_calls = 0, cells_copied = 0,
                pruned = 0;
  std::size_t max_frontier = 0;
  // scheduler: the ParallelResult of each executor job
  std::uint64_t jobs = 0, steals = 0, steal_attempts = 0, locks = 0,
                claim_wait_us = 0, local_takes = 0, network_takes = 0,
                worker_cells = 0, worker_expanded = 0;
  std::vector<double> skew;
  // andp: AndParallelResult
  std::uint64_t andp_runs = 0, forked = 0, seq_nodes = 0, crit_nodes = 0;
  std::vector<double> join_us;

  void add(const search::SearchResult& sr) {
    ++solves;
    const auto& st = sr.stats;
    nodes += st.nodes_expanded;
    unify_attempts += st.expand.unify_attempts;
    unify_cells += st.expand.unify_cells;
    trail_writes += st.expand.trail_writes;
    builtin_calls += st.expand.builtin_calls;
    cells_copied += st.expand.cells_copied;
    pruned += st.pruned;
    max_frontier = std::max(max_frontier, st.max_frontier);
  }
  void add(const parallel::ParallelResult& pr) {
    ++jobs;
    steals += pr.network.steals;
    steal_attempts += pr.network.steal_attempts;
    locks += pr.network.lock_acquisitions;
    claim_wait_us += pr.network.claim_wait_us;
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max(), hi = 0;
    for (const auto& w : pr.workers) {
      local_takes += w.local_takes;
      network_takes += w.network_takes;
      worker_cells += w.cells_copied;
      worker_expanded += w.expanded;
      lo = std::min(lo, w.expanded);
      hi = std::max(hi, w.expanded);
    }
    if (!pr.workers.empty())
      skew.push_back(static_cast<double>(hi) /
                     static_cast<double>(std::max<std::uint64_t>(lo, 1)));
  }
  void add(const andp::AndParallelResult& ar) {
    ++andp_runs;
    forked += ar.forked_items;
    seq_nodes += ar.sequential_nodes;
    crit_nodes += ar.critical_path_nodes;
    join_us.push_back(ar.join_micros);
  }
};

/// The layer-by-layer replay: each request's path through the service,
/// re-enacted by calling every layer's public function under its own span
/// — front end, answer cache (own instance, the service's shard/capacity
/// settings), snapshot store (own instance), executor, sequential search,
/// rendering, and andp for andor_join. Answers are checked here too.
Pass run_layers(System& sys, perfbench::Workload& gen, const Context& cx,
                Limits lim, Tracer& tr, LayerCounters& lc) {
  service::AnswerCache cache(cx.sopts.cache_shards,
                             cx.sopts.cache_capacity_per_shard);
  service::SnapshotStore store;
  store.consult(cx.program);
  db::WeightStore weights(cx.sopts.weight_params);
  engine::StandardBuiltins builtins;
  parallel::Executor& ex = *sys.svc->executor();
  const andp::AndParallelOptions ao = andp_options(sys, cx);

  search::SearchOptions so;
  so.strategy = search::Strategy::BestFirst;
  so.limits = service::QueryBudget{}.limits();
  so.update_weights = cx.sopts.update_weights;
  // The job the service would dispatch for this query.
  auto run_job = [&](const search::Query& q,
                     const service::ProgramSnapshot& snap, unsigned slots) {
    parallel::JobRequest jr;
    jr.program = snap.program.get();
    jr.weights = &weights;
    jr.builtins = &builtins;
    jr.query = q;
    jr.slots = slots;
    jr.strategy = so.strategy;
    jr.opts.limits = so.limits;
    jr.opts.update_weights = so.update_weights;
    jr.opts.scheduler = cx.sopts.parallel_scheduler;
    jr.opts.spill_policy = parallel::ParallelOptions::SpillPolicy::Lazy;
    jr.opts.preempt_interval = std::chrono::microseconds(0);
    return parallel::ParallelResult(ex.submit(std::move(jr)).wait());
  };
  const search::Query trivial = engine::parse_query("true");

  Pass p(cx.prof);
  const auto start = Clock::now();
  while (p.sent < lim.max_requests && Clock::now() < lim.deadline) {
    const Request r = next_request(gen, cx, p.sent);
    const std::uint64_t id = ++p.sent;
    if (r.kind == Kind::Consult) {
      const auto root = tr.begin("write", id);
      std::shared_ptr<const service::ProgramSnapshot> snap;
      {
        Scope s(tr, "snapshot.publish", id, root);
        snap = store.consult(r.text);
      }
      {
        Scope s(tr, "cache.invalidate", id, root);
        cache.invalidate_older(snap->epoch);
      }
      tr.end(root);
      p.count(true);
      continue;
    }
    const auto root = tr.begin("request", id);
    search::Query q;
    std::string key;
    bool ok = true;
    try {
      Scope s(tr, "front.parse", id, root);
      q = engine::parse_query(r.text);
      key = service::QueryService::canonical_key(r.text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "parse failed: %s: %s\n", r.text.c_str(), e.what());
      ok = false;
    }
    const auto snap = store.current();
    std::optional<std::vector<std::string>> hit;
    if (ok && !cx.prof.via_andp) {
      Scope s(tr, "cache.probe", id, root);
      hit = cache.lookup(key, snap->epoch);
    }
    if (!ok) {
      // counted below
    } else if (hit) {
      ok = *hit == r.expected;
    } else {
      {
        Scope s(tr, "executor.roundtrip", id, root);
        (void)run_job(trivial, *snap, 1);
      }
      // On andor_join this job is a proxy: the conjunction run as one
      // ordinary OR-parallel job. andp's own forked job exposes no
      // ParallelResult, so its scheduler figures cannot be read.
      parallel::ParallelResult pr;
      {
        Scope s(tr, "executor.job", id, root);
        pr = run_job(q, *snap, cx.prof.workers);
      }
      search::SearchEngine sequential(*snap->program, weights, &builtins);
      search::SearchResult sr;
      {
        Scope s(tr, "search.solve", id, root);
        sr = sequential.solve(q, so);
      }
      std::vector<std::string> texts;
      {
        Scope s(tr, "render", id, root);
        texts = engine::solution_texts(sr);
      }
      std::vector<std::string> job_texts;
      for (const auto& sol : pr.solutions) job_texts.push_back(sol.text);
      job_texts = engine::solution_texts(std::move(job_texts));
      ok = pr.outcome == search::Outcome::Exhausted &&
           sr.outcome == search::Outcome::Exhausted &&
           texts == r.expected && job_texts == r.expected;
      if (sr.outcome == search::Outcome::Exhausted)
        cache.insert(key, snap->epoch, texts);
      lc.add(pr);
      lc.add(sr);
      if (cx.prof.via_andp) {
        andp::AndParallelResult ar;
        {
          Scope s(tr, "andp.solve", id, root);
          ar = andp::solve_and_parallel(*sys.ip, r.text, ao);
        }
        ok = ok && ar.outcome == search::Outcome::Exhausted &&
             ar.solutions == r.expected;
        lc.add(ar);
      }
    }
    tr.end(root);
    p.count(ok);
  }
  p.finish(seconds_between(start, Clock::now()));
  return p;
}

/// One set-up: build the service, consult the program, warm up.
struct Setup {
  System sys;
  std::unique_ptr<perfbench::Workload> gen;
  Pass warm;
  double seconds = 0.0;      // wall clock
  double cpu_seconds = 0.0;  // every thread of the process
  double consult_cpu_s = 0.0;  // the consult calls (this thread)
};

void set_up(const Context& cx, Setup& s) {
  // The generator is the benchmark's, not the system's: build it untimed.
  s.gen = perfbench::make_workload(cx.args.workload, cx.args.seed,
                                   cx.args.smoke);
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  s.sys.svc = std::make_unique<service::QueryService>(cx.sopts);
  const double c0 = thread_cpu_s();
  s.sys.svc->consult(cx.program);
  if (cx.prof.via_andp) {
    s.sys.ip = std::make_unique<engine::Interpreter>(cx.sopts.weight_params);
    s.sys.ip->consult_string(cx.program);
  }
  s.consult_cpu_s = thread_cpu_s() - c0;
  Limits warm;
  warm.max_requests = cx.prof.warmup_requests;
  s.warm = run_stream(s.sys, *s.gen, cx, warm, nullptr);
  s.cpu_seconds = process_cpu_s() - cpu0;
  s.seconds = seconds_between(t0, Clock::now());
}

/// A generator positioned just past the warm-up prefix, so a replay sees
/// exactly the requests the timed pass saw.
std::unique_ptr<perfbench::Workload> replay_generator(const Context& cx) {
  auto gen = perfbench::make_workload(cx.args.workload, cx.args.seed,
                                      cx.args.smoke);
  for (std::size_t i = 0; i < cx.prof.warmup_requests; ++i) (void)gen->next();
  return gen;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m, const std::string& note = {}) {
  std::printf("metric %-34s %14.6f %s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  Context cx;
  cx.args = args;
  cx.nproc = nproc();
  auto gen0 = perfbench::make_workload(args.workload, args.seed, args.smoke);
  if (!gen0) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  cx.program = gen0->program();
  cx.prof = gen0->profile();
  if (cx.prof.concurrency == 0) cx.prof.concurrency = cx.nproc;
  if (cx.prof.workers == 0) cx.prof.workers = cx.nproc;
  if (cx.prof.pool == 0) cx.prof.pool = cx.nproc;
  cx.sopts.executor_workers = cx.prof.pool;

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("# host nproc=%u cpu=\"%s\"\n", cx.nproc,
              parallel::cpu_model_name().c_str());
  std::printf("# profile concurrency=%u workers=%u pool=%u via=%s warmup=%zu\n",
              cx.prof.concurrency, cx.prof.workers, cx.prof.pool,
              cx.prof.via_andp ? "andp::solve_and_parallel"
                               : "QueryService::submit",
              cx.prof.warmup_requests);

  Pass total;
  bool invariants_ok = true;
  auto invariant = [&](bool holds, const std::string& what) {
    if (holds) return;
    std::fprintf(stderr, "INVARIANT VIOLATED on %s: %s\n",
                 args.workload.c_str(), what.c_str());
    std::printf("# invariant violated: %s\n", what.c_str());
    invariants_ok = false;
  };

  // Set up several times, before and after the timed loop, so that host
  // noise at one end of the run cannot move the median. The timed loop runs
  // on the last set-up before it.
  const int setups_before = args.smoke ? 1 : 8;
  const int setups_after = args.smoke ? 1 : 7;
  std::vector<double> setup_cpu_s, setup_wall_s, consult_cpu_s;
  auto measure_set_up = [&](Setup& s) {
    set_up(cx, s);
    setup_cpu_s.push_back(s.cpu_seconds);
    setup_wall_s.push_back(s.seconds);
    consult_cpu_s.push_back(s.consult_cpu_s);
    total.absorb(s.warm);
  };
  Setup cur;
  for (int i = 0; i < setups_before; ++i) {
    cur = Setup();  // tear the previous system down first
    measure_set_up(cur);
  }
  System& sys = cur.sys;

  Limits timed;
  if (args.smoke) timed.max_requests = 300;
  const auto sym0 = symbol_count();
  const auto stats0 = sys.svc->stats();
  timed.deadline = deadline_in(args.seconds);
  Pass main = run_stream(sys, *cur.gen, cx, timed, nullptr);
  const auto stats1 = sys.svc->stats();
  const auto sym1 = symbol_count();
  const double peak_mb = main.rss_mb();
  total.absorb(main);
  for (int i = 0; i < setups_after; ++i) {
    Setup extra;
    measure_set_up(extra);
  }

  const double cache_hits =
      static_cast<double>(stats1.cache_hits - stats0.cache_hits);
  const double served = static_cast<double>(stats1.queries - stats0.queries);
  const double nodes_per_engine_query =
      ratio(static_cast<double>(main.engine_nodes),
            static_cast<double>(main.engine_queries));
  if (args.workload == "lookup_mix")
    invariant(nodes_per_engine_query < 10.0,
              "nodes per engine query " + std::to_string(nodes_per_engine_query) +
                  " is not single-digit");
  if (args.workload == "route_bnb" || args.workload == "route_parallel")
    invariant(cache_hits == 0, "the answer cache served " +
                                   std::to_string(cache_hits) + " requests");

  // Gated: CPU time and memory. On a shared virtual machine wall-clock
  // figures move with CPU time stolen by other tenants, by more than any
  // useful bound; CPU time leaves the stolen time out.
  const std::vector<Metric> e2e = {
      {"setup_s", perfbench::median(setup_cpu_s), "s"},
      {"cpu_us_per_query", main.cpu_us_per_query(), "us"},
      {"peak_rss_mb", peak_mb, "MB"},
  };
  // Printed in the report, not gated: wall clock; the CPU time of a write,
  // which on lookup_mix (a copy of a 40k-fact program) moved by a fifth
  // with the host's memory traffic; and the failure share (0 on a correct
  // run; `failed` and `correct` gate it).
  const std::vector<Metric> report_only = {
      {"consult_cpu_ms", perfbench::median(main.consult_cpu_ms), "ms"},
      {"qps", main.qps(), "1/s"},
      {"latency_p50_ms", main.p50_ms(), "ms"},
      {"latency_tail_ms", main.tail_ms(), "ms"},
      {"consult_p50_ms", perfbench::median(main.consult_ms), "ms"},
      {"setup_wall_s", perfbench::median(setup_wall_s), "s"},
      {"failed_frac",
       ratio(static_cast<double>(main.failed), static_cast<double>(main.sent)),
       "frac"},
  };

  std::printf("# requests sent=%zu succeeded=%zu failed=%zu (timed pass, "
              "%.3f s)\n",
              main.sent, main.succeeded, main.failed, main.seconds);
  std::printf("# gated end-to-end metrics (CPU time, memory)\n");
  for (const Metric& m : e2e) {
    std::string note;
    if (m.name == "setup_s")
      note = "  (CPU time, median of " + std::to_string(setup_cpu_s.size()) +
             " set-ups incl. warm-up)";
    if (m.name == "peak_rss_mb")
      note = main.rss_at_end()
                 ? "  (at the end: fewer than " +
                       std::to_string(cx.prof.rss_after_queries) + " queries)"
                 : "  (after " + std::to_string(cx.prof.rss_after_queries) +
                       " queries)";
    if (m.name == "cpu_us_per_query")
      note = "  (median of " + std::to_string(main.qps_blocks()) + " blocks of " +
             std::to_string(cx.prof.throughput_block) + " queries)";
    print_metric(m, note);
  }
  std::printf("# reported only\n");
  for (const Metric& m : report_only) {
    std::string note;
    if (m.name == "consult_cpu_ms")
      note = "  (median of " + std::to_string(main.consult_cpu_ms.size()) +
             " writes)";
    if (m.name == "qps")
      note = "  (median of " + std::to_string(main.qps_blocks()) + " blocks of " +
             std::to_string(cx.prof.throughput_block) + " queries)";
    if (m.name == "latency_p50_ms")
      note = "  (median of " + std::to_string(main.latency_blocks()) +
             " blocks of " + std::to_string(cx.prof.block) + " queries)";
    if (m.name == "latency_tail_ms") {
      char pct[16];
      std::snprintf(pct, sizeof pct, "p%g", main.tail_pct());
      note = std::string("  (") + pct + " of each block of " +
             std::to_string(cx.prof.block) + " queries, " +
             std::to_string(static_cast<std::size_t>(
                 static_cast<double>(cx.prof.block) *
                 (1.0 - main.tail_pct() / 100.0))) +
             " beyond it; median of " + std::to_string(main.latency_blocks()) +
             " blocks)";
    }
    if (m.name == "consult_p50_ms")
      note = "  (median of " + std::to_string(main.consult_ms.size()) +
             " writes)";
    if (m.name == "setup_wall_s")
      note = "  (median of " + std::to_string(setup_wall_s.size()) +
             " set-ups incl. warm-up)";
    print_metric(m, note);
  }

  if (!args.trace) {
    const bool correct = total.failed == 0 && invariants_ok;
    print_result(correct, total.sent, total.failed, e2e);
    return correct ? 0 : 1;
  }

  // ---- traced run: the same stream through the service, spans on --------
  Tracer tr;
  Limits replay;
  replay.max_requests = main.sent;
  replay.deadline = deadline_in(args.seconds / 2);
  auto replay_gen = replay_generator(cx);
  const Pass traced = run_stream(sys, *replay_gen, cx, replay, &tr);
  total.absorb(traced);

  // ---- layer by layer --------------------------------------------------
  Tracer layers;
  LayerCounters lc;
  Limits probe = replay;
  probe.deadline = deadline_in(args.seconds / 2);
  auto probe_gen = replay_generator(cx);
  const Pass lp = run_layers(sys, *probe_gen, cx, probe, layers, lc);
  total.absorb(lp);

  const auto& adm0 = stats0.admission;
  const auto& adm1 = stats1.admission;
  const double solve_s = [&] {
    double us = 0;
    for (const double d : layers.durations_us("search.solve")) us += d;
    return us / 1e6;
  }();
  const double nodes = static_cast<double>(lc.nodes);
  const double solves = static_cast<double>(lc.solves);
  const double jobs = static_cast<double>(lc.jobs);
  const double andp_runs = static_cast<double>(lc.andp_runs);
  const std::vector<Metric> per_layer = {
      {"front.parse_us", perfbench::median(layers.durations_us("front.parse")), "us"},
      {"front.symbols_added", static_cast<double>(sym1 - sym0), "count"},
      {"cache.hit_rate", ratio(cache_hits, served), "frac"},
      {"cache.probe_us", perfbench::median(layers.durations_us("cache.probe")), "us"},
      {"cache.invalidate_us", perfbench::median(layers.durations_us("cache.invalidate")), "us"},
      {"snapshot.publish_ms", perfbench::median(layers.durations_us("snapshot.publish")) / 1e3, "ms"},
      {"admission.queued_frac",
       ratio(static_cast<double>(adm1.queued - adm0.queued),
             static_cast<double>(adm1.admitted - adm0.admitted)),
       "frac"},
      {"admission.rejected", static_cast<double>(adm1.rejected - adm0.rejected), "count"},
      {"executor.roundtrip_us", perfbench::median(layers.durations_us("executor.roundtrip")), "us"},
      {"executor.job_us", perfbench::median(layers.durations_us("executor.job")), "us"},
      {"search.nodes_per_query", ratio(nodes, solves), "nodes"},
      {"search.nodes_per_s", ratio(nodes, solve_s), "1/s"},
      {"search.unify_attempts_per_node", ratio(static_cast<double>(lc.unify_attempts), nodes), "count"},
      {"search.unify_cells_per_node", ratio(static_cast<double>(lc.unify_cells), nodes), "count"},
      {"search.trail_writes_per_node", ratio(static_cast<double>(lc.trail_writes), nodes), "count"},
      {"search.builtin_calls_per_node", ratio(static_cast<double>(lc.builtin_calls), nodes), "count"},
      {"search.cells_copied_per_node", ratio(static_cast<double>(lc.cells_copied), nodes), "count"},
      {"search.max_frontier", static_cast<double>(lc.max_frontier), "count"},
      {"search.pruned", static_cast<double>(lc.pruned), "count"},
      {"render.us_per_query", perfbench::median(layers.durations_us("render")), "us"},
      {"sched.steals", ratio(static_cast<double>(lc.steals), jobs), "count"},
      {"sched.steal_attempts", ratio(static_cast<double>(lc.steal_attempts), jobs), "count"},
      {"sched.lock_acquisitions", ratio(static_cast<double>(lc.locks), jobs), "count"},
      {"sched.claim_wait_us", ratio(static_cast<double>(lc.claim_wait_us), jobs), "us"},
      {"sched.network_take_frac",
       ratio(static_cast<double>(lc.network_takes),
             static_cast<double>(lc.network_takes + lc.local_takes)),
       "frac"},
      {"sched.cells_copied_per_node",
       ratio(static_cast<double>(lc.worker_cells), static_cast<double>(lc.worker_expanded)),
       "count"},
      {"sched.worker_skew", perfbench::median(lc.skew), "ratio"},
      {"andp.forked_items", ratio(static_cast<double>(lc.forked), andp_runs), "count"},
      {"andp.join_us", perfbench::median(lc.join_us), "us"},
      {"andp.sequential_nodes", ratio(static_cast<double>(lc.seq_nodes), andp_runs), "nodes"},
      {"andp.critical_path_nodes", ratio(static_cast<double>(lc.crit_nodes), andp_runs),
       "model_nodes"},
      {"setup.consult_s", perfbench::median(consult_cpu_s), "s"},
      {"trace.overhead_frac",
       ratio(traced.qps(), main.qps()), "frac"},
  };

  if (args.workload == "route_bnb")
    invariant(lc.steals == 0, "the scheduler stole " +
                                  std::to_string(lc.steals) + " chains");
  if (args.workload == "lookup_mix")
    invariant(ratio(nodes, solves) < 10.0,
              "search.nodes_per_query " + std::to_string(ratio(nodes, solves)) +
                  " is not single-digit");

  std::printf("# traced replay: %zu requests (%zu failed); layer replay: "
              "%zu requests (%zu failed)\n",
              traced.sent, traced.failed, lp.sent, lp.failed);
  for (const Tracer* t : {&tr, &layers}) {
    std::printf("# %s spans\n# %-22s %9s %12s %12s\n",
                t == &tr ? "traced replay" : "layer replay", "span", "count",
                "median_us", "self_ms");
    for (const auto& lt : t->layer_times())
      std::printf("# %-22s %9zu %12.2f %12.2f\n", lt.name.c_str(), lt.count,
                  lt.median_us, lt.self_ms);
  }
  std::printf("# andp.critical_path_nodes is a processor-model figure "
              "(max group nodes), not wall clock\n");
  for (const Metric& m : per_layer) print_metric(m);

  const bool correct = total.failed == 0 && invariants_ok;
  print_result(correct, total.sent, total.failed, per_layer);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: blog_perfbench --workload <lookup_mix|route_bnb|"
                 "route_parallel|andor_join> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--corrupt-expected]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
