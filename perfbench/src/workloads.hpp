// Request generators of the repo benchmark.
//
// Every workload is a program text plus a deterministic request stream made
// from the seed. Each request carries its expected answer set, computed here
// in plain C++ from the generator's own data (employee arithmetic, a direct
// DFS over the generated graph, a set join) — never by the engine under
// test, so an engine that answers wrongly, or cuts a search short and still
// reports it complete, shows up as a failed request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, portable generator, so the same seed yields the same
/// inputs on every build and every library version.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0 (the modulo bias is irrelevant here).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

enum class Kind : std::uint8_t {
  Query,    // a query text; `expected` is its complete answer set
  Consult,  // a write: QueryService::consult of `text`
};

struct Request {
  Kind kind = Kind::Query;
  std::string text;
  std::vector<std::string> expected;  // sorted, deduplicated answer texts
};

/// How a workload is driven. All loops are closed: the generator thread
/// keeps `concurrency` requests outstanding and sends the next one only
/// when one completes.
struct Profile {
  std::string name;
  unsigned concurrency = 1;  // requests outstanding (0 = nproc)
  unsigned workers = 1;      // parallel width per request (0 = nproc)
  unsigned pool = 0;         // the service's executor workers (0 = nproc)
  bool via_andp = false;     // andp::solve_and_parallel instead of submit
  std::size_t warmup_requests = 0;
  /// Every `consult_every`-th request is a write: a consult of fresh facts
  /// that change no query's answers.
  std::size_t consult_every = 129;
  /// Queries per latency block and per throughput block. Latency and
  /// throughput are taken per block and reported as the median over blocks,
  /// which keeps bursts of noise from other tenants of the host out of the
  /// result; the latency block also fixes which percentile the tail is.
  std::size_t block = 128;
  std::size_t throughput_block = 128;
  /// peak_rss_mb is read when the timed loop has completed this many
  /// queries (at its end if it completes fewer). Memory grows with the
  /// queries and writes served, so a read at the end of a fixed-time loop
  /// would rise on a faster commit.
  std::size_t rss_after_queries = 1024;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] const Profile& profile() const { return profile_; }
  /// The program the service consults at set-up.
  [[nodiscard]] virtual std::string program() const = 0;
  /// The next request of the stream (deterministic in the seed).
  Request next() {
    if (++sent_ % profile_.consult_every == 0)
      return {Kind::Consult, write_batch(writes_++), {}};
    return next_query();
  }

 protected:
  virtual Request next_query() = 0;
  /// The k-th small write batch: new facts that change no query's answers.
  [[nodiscard]] virtual std::string write_batch(std::uint64_t k) const = 0;

  Profile profile_;

 private:
  std::uint64_t sent_ = 0;
  std::uint64_t writes_ = 0;
};

/// `name` is one of lookup_mix, route_bnb, route_parallel, andor_join.
/// `smoke` selects tiny sizes that exercise every code path in well under
/// a second. Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke);

}  // namespace perfbench
