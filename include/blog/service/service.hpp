// QueryService: the concurrent multi-tenant serving layer.
//
// Many client threads call `submit()` (async) or `query()` (sync wrapper)
// at once against one shared database:
//
//   - copy-on-write snapshots (snapshot.hpp) let `consult()` publish a new
//     program while in-flight queries keep their view — readers never block;
//   - the goal-keyed answer cache (cache.hpp) returns repeated queries'
//     complete answer sets without searching, invalidated by epoch bump;
//   - a persistent worker pool (parallel/executor.hpp) runs every search:
//     workers are created, NUMA-placed and pinned once, each query becomes
//     a schedulable job — per-query overhead is enqueue cost, not
//     thread-spawn cost;
//   - an admission gate bounds concurrency: at most `max_concurrent_queries`
//     jobs run, a bounded queue waits (without parking the submitter), and
//     overload is shed with `QueryStatus::Rejected` — `submit()` never
//     blocks;
//   - answers can be *streamed* while the search runs: an `on_answer`
//     callback or a pull-based `AnswerStream`, byte-identical (as a set) to
//     the batch answer list;
//   - a per-query `QueryBudget` (nodes / solutions / wall-clock deadline)
//     converts at this boundary into the engines' shared
//     `search::ExecutionLimits`, whose cooperative stop checks report
//     `search::Outcome::BudgetExceeded` instead of silently truncating.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <optional>
#include <string>

#include "blog/engine/interpreter.hpp"
#include "blog/obs/metrics.hpp"
#include "blog/obs/trace.hpp"
#include "blog/parallel/executor.hpp"
#include "blog/service/cache.hpp"
#include "blog/service/snapshot.hpp"

namespace blog::service {

/// Per-query execution budget, as clients state it: ms-relative deadline.
/// Converted once, at the service boundary, into the engines' shared
/// absolute `search::ExecutionLimits` (see limits()).
struct QueryBudget {
  std::size_t max_nodes = 1'000'000;
  std::size_t max_solutions = std::numeric_limits<std::size_t>::max();
  std::chrono::milliseconds deadline{0};  // 0 = no wall-clock cutoff

  /// The engine-side limits: the relative deadline becomes an absolute
  /// steady-clock cutoff *now* — queue time counts against the budget.
  [[nodiscard]] search::ExecutionLimits limits() const {
    search::ExecutionLimits l;
    l.max_nodes = max_nodes;
    l.max_solutions = max_solutions;
    if (deadline.count() > 0)
      l.deadline = std::chrono::steady_clock::now() + deadline;
    return l;
  }
};

enum class QueryStatus : std::uint8_t {
  Ok,          // complete answer set (search exhausted, or a cache hit)
  Truncated,   // a budget, limit or depth cutoff cut the search short:
               // answers are partial
  Rejected,    // admission queue full — shed, nothing was searched
  ParseError,  // malformed query text
  Cancelled,   // cancelled via QueryTicket::cancel(); answers are partial
};

const char* query_status_name(QueryStatus s);

struct QueryResponse {
  QueryStatus status = QueryStatus::Ok;
  search::Outcome outcome = search::Outcome::Exhausted;
  std::vector<std::string> answers;  // sorted, deduplicated texts
  bool from_cache = false;
  std::uint64_t epoch = 0;           // snapshot the query ran against
  std::uint64_t nodes_expanded = 0;
  /// Human-readable reason for ParseError, Rejected, and Cancelled;
  /// empty for Ok/Truncated.
  std::string error;
};

/// Counting gate that never blocks: at most `max_running` callers proceed
/// at once; up to `max_queued` more are registered as waiters via
/// `try_queue()` — the caller keeps the queued work itself — and beyond
/// that admission refuses (load shedding instead of unbounded queueing).
class AdmissionGate {
public:
  AdmissionGate(std::size_t max_running, std::size_t max_queued);

  /// Admit without waiting: true and a running slot when one is free,
  /// false otherwise (nothing is counted as rejected — the caller decides
  /// between try_queue() and shedding). Pairs with leave().
  bool try_enter();
  /// Register a waiter without parking the calling thread. False
  /// (counted rejected) when the wait queue is full. A true return must be
  /// resolved by exactly one promote_queued() or abandon_queued().
  bool try_queue();
  /// Move one waiter into a running slot (the service dispatches the
  /// corresponding queued job). False when no waiter is registered
  /// or no slot is free. Pairs with leave().
  bool promote_queued();
  /// Unregister a waiter without admitting it (cancelled while
  /// queued).
  void abandon_queued();
  void leave();

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t queued = 0;    // admissions that had to wait first
    std::uint64_t rejected = 0;
    std::size_t running = 0;     // current occupancy
    std::size_t waiting = 0;     // registered waiters
  };
  [[nodiscard]] Stats stats() const;

private:
  mutable std::mutex mu_;
  std::size_t max_running_;
  std::size_t max_queued_;
  std::size_t running_ = 0;
  std::size_t waiting_ = 0;  // registered via try_queue()
  std::uint64_t admitted_ = 0;
  std::uint64_t queued_ = 0;
  std::uint64_t rejected_ = 0;
};

struct ServiceOptions {
  db::WeightParams weight_params{};
  std::size_t cache_shards = 8;
  std::size_t cache_capacity_per_shard = 128;
  bool cache_enabled = true;
  std::size_t max_concurrent_queries = 8;
  std::size_t admission_queue_limit = 64;
  bool update_weights = true;  // apply §5 updates as queries resolve
  // Unread; kept until the repo benchmark's sources stop reading it.
  parallel::SchedulerKind parallel_scheduler =
      parallel::SchedulerKind::WorkStealing;
  // Flight recorder (obs/trace.hpp). When non-null, queries record
  // begin/end, cache hit/miss, admission-shed and budget events, and the
  // sink is forwarded into the engines they run. Also settable at runtime
  // via set_trace(). Must outlive the service (or be cleared first).
  obs::TraceSink* trace = nullptr;
  // Size of the service's persistent worker pool (created, NUMA-placed and
  // pinned once; every query runs on it as a schedulable job); 0 = one
  // worker per hardware thread.
  unsigned executor_workers = 0;
  // Pull-based AnswerStream consumers are woken once per `stream_chunk`
  // streamed answers (and at close) instead of per answer; callback
  // streaming (on_answer) always fires per answer.
  std::size_t stream_chunk = 1;
};

struct QueryRequest {
  std::string text;
  QueryBudget budget{};
  search::Strategy strategy = search::Strategy::BestFirst;
  unsigned workers = 1;  // >1: OR-parallel solve across this many job slots
};

/// Pull side of a streamed query: a bounded-latency answer queue fed by
/// the job's workers as answers are recorded, closed when the job
/// completes. Obtain one via SubmitOptions::stream + QueryTicket::stream().
class AnswerStream {
public:
  /// Block for the next answer; nullopt once the stream is closed and
  /// drained (the query finished — check the ticket's response).
  std::optional<std::string> next();
  /// Non-blocking: an answer if one is ready.
  std::optional<std::string> try_next();

private:
  friend class QueryService;
  explicit AnswerStream(std::size_t chunk) : chunk_(chunk == 0 ? 1 : chunk) {}
  void push(std::string text);
  void close();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> q_;
  bool closed_ = false;
  std::size_t chunk_;
  std::size_t unnotified_ = 0;
};

/// Per-submit delivery options (all optional).
struct SubmitOptions {
  /// Streamed answers: called once per *new* answer text (deduplicated,
  /// discovery order) from a worker thread while the search runs. The
  /// final response's sorted `answers` is byte-identical as a set.
  std::function<void(const std::string&)> on_answer;
  /// Completion callback: invoked once, from a worker thread (or from the
  /// submitting thread for parse errors / cache hits / sheds), after the
  /// response is final but before wait() wakes.
  std::function<void(const QueryResponse&)> on_complete;
  /// Create a pull-based AnswerStream on the ticket (stream()).
  bool stream = false;
};

namespace detail {
struct TicketState;
}  // namespace detail

/// Future-style handle of one submitted query (cheap to copy; all copies
/// share one state). Must not outlive the QueryService.
class QueryTicket {
public:
  QueryTicket() = default;

  /// False only for a default-constructed ticket.
  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  /// Service-assigned query id (pairs with the trace span; 0 if invalid).
  [[nodiscard]] std::uint64_t id() const;
  /// True once the response is final (never blocks).
  [[nodiscard]] bool poll() const;
  /// Block until the response is final. Valid while any ticket copy lives.
  const QueryResponse& wait() const;
  /// Cancel: a still-queued query completes immediately
  /// (QueryStatus::Cancelled); a running one stops at its workers' next
  /// expansion boundary, keeping the answers found so far. False when the
  /// query had already completed.
  bool cancel() const;
  /// The pull stream (non-null iff submitted with SubmitOptions::stream).
  [[nodiscard]] AnswerStream* stream() const;
  /// Admission-queue introspection: 0 when running or done, k > 0 when
  /// k-th in the service's wait queue.
  [[nodiscard]] std::size_t queue_position() const;

private:
  friend class QueryService;
  explicit QueryTicket(std::shared_ptr<detail::TicketState> st)
      : st_(std::move(st)) {}
  std::shared_ptr<detail::TicketState> st_;
};

class QueryService {
public:
  explicit QueryService(ServiceOptions opts = {});

  /// Warm boot: serve `seed`'s already-consulted program (a copy-on-write
  /// snapshot export; the interpreter keeps its own copy and its weights —
  /// the service starts with fresh weights from opts.weight_params).
  explicit QueryService(const engine::Interpreter& seed,
                        ServiceOptions opts = {});

  /// Drains the executor (running jobs are cancelled cooperatively) and
  /// completes every still-queued ticket with Cancelled before returning.
  ~QueryService();

  /// Copy-on-write consult: publishes a new snapshot (epoch bump) and
  /// invalidates the answer cache; in-flight queries keep their view.
  /// Throws term::ParseError (nothing published).
  void consult(std::string_view text);
  void consult_file(const std::string& path);

  /// §5 session boundary: merge session weights conservatively into the
  /// global database and republish (epoch bump, cache invalidation —
  /// cached bounds may no longer match freshly searched ones).
  void end_session();

  /// Asynchronous entry point: enqueue the query and return a ticket.
  /// Never blocks — a full pool queues the job (bounded), a full queue
  /// sheds it (the ticket completes immediately with Rejected). Parse
  /// errors and cache hits also complete the ticket before returning.
  QueryTicket submit(const QueryRequest& req, SubmitOptions sopts = {});

  /// Synchronous wrapper: submit(req).wait().
  QueryResponse query(const QueryRequest& req);
  QueryResponse query(std::string_view text, const QueryBudget& budget = {});

  /// The pool (never null). Exposed for stats and for standalone jobs
  /// against the published snapshot.
  [[nodiscard]] parallel::Executor* executor() { return executor_.get(); }

  /// The currently published snapshot (callers may run their own engines
  /// against it; it is immutable and safe to share across threads).
  [[nodiscard]] std::shared_ptr<const ProgramSnapshot> snapshot() const {
    return snapshots_.current();
  }

  [[nodiscard]] db::WeightStore& weights() { return weights_; }
  [[nodiscard]] engine::StandardBuiltins& builtins() { return builtins_; }

  /// Canonical cache key of a query: parse + re-render, so formatting
  /// variants of the same goal share one entry. Throws term::ParseError.
  [[nodiscard]] static std::string canonical_key(std::string_view text);

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t truncated = 0;   // budget/limit/depth cutoffs reported
    std::uint64_t rejected = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t cancelled = 0;   // QueryTicket::cancel completions
    std::uint64_t epoch = 0;       // current snapshot epoch
    std::size_t program_clauses = 0;
    // Per-query wall latency (parse to response, cache hits and shed
    // requests included), from the service.latency_ms histogram.
    // Percentiles are interpolated; all 0 before the first query.
    std::uint64_t latency_count = 0;
    double latency_mean_ms = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    double latency_p99_ms = 0.0;
    double latency_max_ms = 0.0;
    AnswerCache::Stats cache;
    AdmissionGate::Stats admission;
  };
  [[nodiscard]] Stats stats() const;

  /// The unified metrics registry backing the service counters and the
  /// latency histogram. Live-safe; dump via dump_text()/dump_json().
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// Attach/detach the flight recorder at runtime (repl `:trace on/off`).
  /// The sink must outlive its attachment; pass nullptr to detach.
  void set_trace(obs::TraceSink* sink) {
    trace_.store(sink, std::memory_order_release);
  }
  /// Currently attached flight recorder (may be null).
  [[nodiscard]] obs::TraceSink* trace() const {
    return trace_.load(std::memory_order_acquire);
  }

private:
  friend class QueryTicket;

  void deliver_answer(detail::TicketState* st, const std::string& text);
  void dispatch_locked(const std::shared_ptr<detail::TicketState>& st);
  void on_job_complete(const std::shared_ptr<detail::TicketState>& st,
                       const parallel::ParallelResult& r);
  void complete_ticket(const std::shared_ptr<detail::TicketState>& st,
                       QueryResponse&& resp);
  bool cancel_ticket(const std::shared_ptr<detail::TicketState>& st);
  std::size_t ticket_queue_position(const detail::TicketState* st) const;
  void drain_pending();

  ServiceOptions opts_;
  SnapshotStore snapshots_;
  db::WeightStore weights_;
  engine::StandardBuiltins builtins_;
  AnswerCache cache_;
  AdmissionGate gate_;
  std::unique_ptr<parallel::Executor> executor_;
  // Async admission: tickets registered with gate_.try_queue(), dispatched
  // FIFO as running jobs release their slots. Guards pending_ and every
  // ticket phase transition.
  mutable std::mutex async_mu_;
  std::deque<std::shared_ptr<detail::TicketState>> pending_;
  std::atomic<bool> shutdown_{false};

  // All request counters live in the registry; the bound references keep
  // the hot path at one relaxed fetch_add, exactly as the raw atomics did.
  obs::MetricsRegistry metrics_;
  obs::Counter& queries_ = metrics_.counter("service.queries");
  obs::Counter& cache_hits_ = metrics_.counter("service.cache_hits");
  obs::Counter& truncated_ = metrics_.counter("service.truncated");
  obs::Counter& rejected_ = metrics_.counter("service.rejected");
  obs::Counter& parse_errors_ = metrics_.counter("service.parse_errors");
  obs::Counter& cancelled_ = metrics_.counter("service.cancelled");
  // 0.05 ms buckets over [0, 250) ms: fine enough for interpolated tail
  // percentiles, small enough (~40 KiB) to sit in one service object.
  obs::HistogramMetric& latency_ms_ =
      metrics_.histogram("service.latency_ms", 0.0, 250.0, 5000);
  std::atomic<obs::TraceSink*> trace_{nullptr};
  std::atomic<std::uint32_t> next_query_id_{0};
};

}  // namespace blog::service
