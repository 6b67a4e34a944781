#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {
namespace {

using Answers = std::vector<std::string>;

Answers sorted(Answers a) {
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

// prefix + decimal v, built by appending (GCC 12 warns spuriously about
// "literal" + temporary).
std::string tag(const char* prefix, std::uint64_t v) {
  std::string s(prefix);
  s += num(v);
  return s;
}

// ------------------------------------------------------- deductive db --

// The company database of workloads::deductive_db, generated here so the
// benchmark's inputs do not depend on the library under test: employee e<i>
// works in department d<i mod D> with salary band kBands[i mod 4];
// department d<k> is managed by m<k>.
constexpr std::array<const char*, 4> kBands = {"junior", "mid", "senior",
                                               "staff"};

struct CompanyDb {
  std::uint64_t employees;
  std::uint64_t departments;

  [[nodiscard]] std::string program() const {
    std::string s;
    s.reserve(employees * 56);
    s += "boss(E,M) :- works_in(E,D), manages(M,D).\n";
    s += "peer(A,B) :- works_in(A,D), works_in(B,D).\n";
    for (std::uint64_t d = 0; d < departments; ++d)
      s += tag("manages(m", d) + tag(",d", d) + ").\n";
    for (std::uint64_t e = 0; e < employees; ++e) {
      const std::string emp = tag("e", e);
      s += "works_in(" + emp + tag(",d", e % departments) + ").\n";
      s += "salary_band(" + emp + "," + kBands[e % 4] + ").\n";
    }
    return s;
  }

  // New hires in a department no query names: no answer set changes.
  [[nodiscard]] static std::string write_batch(std::uint64_t k) {
    std::string s;
    for (int j = 0; j < 4; ++j) {
      const std::string w = tag("w", k) + tag("_", j);
      s += "works_in(" + w + tag(",dw", k) + "). salary_band(" + w +
           ",junior).\n";
    }
    return s;
  }
};

// A mix dominated by the front end and the cache: per cycle of 20 requests,
// 8 repeats from a hot set, 5 point lookups that walk every (predicate,
// employee) pair before repeating, 4 boss/2 joins and 3 lookups of fresh
// atoms that match nothing; plus one write per 8192 requests.
class LookupMix final : public Workload {
 public:
  LookupMix(std::uint64_t seed, bool smoke)
      : db_{smoke ? 200u : 20000u, smoke ? 10u : 50u},
        rng_(seed),
        seed_tag_(seed % 1000) {
    profile_.name = "lookup_mix";
    profile_.concurrency = 16;
    profile_.workers = 1;
    // One pool worker. An engine request here is about 2 expansions; with
    // nproc workers nearly every one woke an idle worker, and the CPU those
    // wake-ups cost rose about 1.5x whenever the host was busy.
    profile_.pool = 1;
    profile_.warmup_requests = smoke ? 60 : 4000;
    profile_.consult_every = smoke ? 40 : 8192;
    // The tail is p90 of each 128-query block, as on the other workloads:
    // a p99 of sub-50-µs requests measured the host's scheduling stalls,
    // which moved it 15x between runs when other tenants stole CPU time.
    profile_.block = smoke ? 16 : 128;
    profile_.throughput_block = smoke ? 16 : 8191;  // each holds one write
    // About 4 s of a quiet host; the slowest runs seen (15k qps) reach it
    // in under 20 s.
    profile_.rss_after_queries = smoke ? 100 : 1u << 18;
    const std::size_t hot = smoke ? 8 : 64;
    for (std::size_t i = 0; i < hot; ++i)
      hot_.push_back(point_lookup(rng_.below(2 * db_.employees)));
    unique_offset_ = rng_.below(2 * db_.employees);
  }

  [[nodiscard]] std::string program() const override { return db_.program(); }

 protected:
  [[nodiscard]] std::string write_batch(std::uint64_t k) const override {
    return CompanyDb::write_batch(k);
  }

  Request next_query() override {
    if (slot_ == cycle_.size()) {
      // Fisher-Yates with the benchmark's own generator.
      for (std::size_t i = cycle_.size() - 1; i > 0; --i)
        std::swap(cycle_[i], cycle_[rng_.below(i + 1)]);
      slot_ = 0;
    }
    switch (cycle_[slot_++]) {
      case 'H':
        return hot_[rng_.below(hot_.size())];
      case 'U': {
        // 7919 is prime and divides no 2*employees used here, so the walk
        // visits every pair once per 2*employees unique lookups.
        const std::uint64_t idx =
            (unique_offset_ + 7919 * unique_++) % (2 * db_.employees);
        return point_lookup(idx);
      }
      case 'B': {
        const std::uint64_t e = rng_.below(db_.employees);
        return {Kind::Query, tag("boss(e", e) + ",M)",
                {tag("M=m", e % db_.departments)}};
      }
      default:
        return {Kind::Query,
                tag("works_in(q", seed_tag_) + tag("_", fresh_++) + ",D)",
                {}};
    }
  }

 private:
  // idx encodes (predicate, employee): even = works_in, odd = salary_band.
  [[nodiscard]] Request point_lookup(std::uint64_t idx) const {
    const std::uint64_t e = idx / 2;
    if (idx % 2 == 0)
      return {Kind::Query, tag("works_in(e", e) + ",D)",
              {tag("D=d", e % db_.departments)}};
    return {Kind::Query, tag("salary_band(e", e) + ",B)",
            {std::string("B=") + kBands[e % 4]}};
  }

  CompanyDb db_;
  SplitMix rng_;
  std::uint64_t seed_tag_;
  std::vector<Request> hot_;
  std::string cycle_ = "HHHHHHHHUUUUUBBBBNNN";
  std::size_t slot_ = cycle_.size();
  std::uint64_t unique_offset_ = 0;
  std::uint64_t unique_ = 0;
  std::uint64_t fresh_ = 0;
};

// ------------------------------------------------------------- routes --

// Weighted layered graphs: `width` nodes v<g>_<l>_<i> per layer of graph g,
// each with 3 distinct successors in the next layer and edge costs 1..9.
// route/4 enumerates every path between two nodes with its cost; a request
// asks for the routes from a layer-0 node to a node of a later layer within
// a cost bound K. The engine cannot know the target's layer, so every
// request searches all paths out of its source: the work per request is
// about the same whatever the target. Requests rotate over several graphs,
// so no run's figures hinge on the shape of one graph.
class Route final : public Workload {
 public:
  Route(std::uint64_t seed, bool parallel, bool smoke) : rng_(seed) {
    profile_.name = parallel ? "route_parallel" : "route_bnb";
    // One request outstanding: with nproc sequential searches at once, they
    // contended (weight updates, memory) and their CPU time per query
    // moved with the host's load.
    profile_.concurrency = 1;
    profile_.workers = parallel ? 0 : 1;
    profile_.warmup_requests = smoke ? 1 : (parallel ? 8 : 16);
    profile_.consult_every = smoke ? 40 : 129;  // about one write per block
    profile_.block = profile_.throughput_block = smoke ? 16 : 128;
    if (smoke) profile_.rss_after_queries = 100;
    layers_ = smoke ? 5 : (parallel ? 7 : 6);
    width_ = smoke ? 8 : 24;
    const std::uint64_t degree = 3;
    graphs_.resize(smoke ? 2 : 8);
    for (auto& graph : graphs_) {
      graph.resize(layers_ - 1);
      for (auto& layer : graph) {
        layer.resize(width_);
        for (auto& out : layer) {
          std::vector<std::uint64_t> targets(width_);
          std::iota(targets.begin(), targets.end(), 0);
          for (std::uint64_t k = 0; k < degree; ++k) {
            std::swap(targets[k], targets[k + rng_.below(width_ - k)]);
            out.push_back({targets[k], 1 + rng_.below(9)});
          }
        }
      }
    }
  }

  [[nodiscard]] std::string program() const override {
    std::string s =
        "route(S,T,[S,T],C) :- edge(S,T,C).\n"
        "route(S,T,[S|P],C) :- edge(S,M,C1), route(M,T,P,C2), C is C1+C2.\n";
    for (std::uint64_t g = 0; g < graphs_.size(); ++g)
      for (std::uint64_t l = 0; l + 1 < layers_; ++l)
        for (std::uint64_t i = 0; i < width_; ++i)
          for (const Edge& e : graphs_[g][l][i])
            s += std::string("edge(") + node(g, l, i) + "," +
                 node(g, l + 1, e.to) + "," + num(e.cost) + ").\n";
    return s;
  }

 protected:
  // A chain of fresh nodes no route from layer 0 can reach.
  [[nodiscard]] std::string write_batch(std::uint64_t k) const override {
    const std::string x = tag("x", k) + "_";
    return "edge(" + x + "0," + x + "1,5). edge(" + x + "1," + x + "2,5).\n";
  }

  Request next_query() override {
    // Fresh (source, target, bound) triples only: a repeat would be a cache
    // hit, and this workload must bypass the cache. Targets in every layer
    // from 2 on give ~graphs * width^2 * layers * 30 triples, enough for
    // runs many times faster than today's.
    const std::uint64_t g = count_++ % graphs_.size();
    for (int attempt = 0; attempt < 100000; ++attempt) {
      const std::uint64_t s = rng_.below(width_);
      const std::uint64_t tl = 2 + rng_.below(layers_ - 2);
      const std::uint64_t t = rng_.below(width_);
      std::vector<Path> paths;
      Path cur{{s}, 0};
      collect(graphs_[g], 0, s, tl, t, cur, paths);
      if (paths.empty()) continue;
      std::uint64_t lo = paths[0].cost, hi = lo;
      for (const Path& p : paths) {
        lo = std::min(lo, p.cost);
        hi = std::max(hi, p.cost);
      }
      // A bound between the cheapest and dearest route keeps at least one
      // answer and usually cuts some.
      const std::uint64_t k = lo + rng_.below(hi - lo + 1);
      std::string text = std::string("route(") + node(g, 0, s) + "," +
                         node(g, tl, t) + tag(",P,C), C =< ", k);
      if (!seen_.insert(text).second) continue;
      Answers expected;
      for (const Path& p : paths) {
        if (p.cost > k) continue;
        std::string a = "P=[";
        for (std::size_t l = 0; l < p.nodes.size(); ++l) {
          if (l > 0) a += ',';
          a += node(g, l, p.nodes[l]);
        }
        a += tag("],C=", p.cost);
        expected.push_back(std::move(a));
      }
      return {Kind::Query, std::move(text), sorted(std::move(expected))};
    }
    throw std::runtime_error(profile_.name + ": no fresh route request left");
  }

 private:
  struct Edge {
    std::uint64_t to;
    std::uint64_t cost;
  };
  struct Path {
    std::vector<std::uint64_t> nodes;
    std::uint64_t cost;
  };

  using Graph = std::vector<std::vector<std::vector<Edge>>>;  // [layer][node]

  [[nodiscard]] static std::string node(std::uint64_t g, std::uint64_t l,
                                        std::uint64_t i) {
    return tag("v", g) + tag("_", l) + tag("_", i);
  }

  // Direct DFS: every path from (l, i) to node t of layer tl.
  void collect(const Graph& graph, std::uint64_t l, std::uint64_t i,
               std::uint64_t tl, std::uint64_t t, Path& cur,
               std::vector<Path>& out) const {
    if (l == tl) {
      if (i == t) out.push_back(cur);
      return;
    }
    for (const Edge& e : graph[l][i]) {
      cur.nodes.push_back(e.to);
      cur.cost += e.cost;
      collect(graph, l + 1, e.to, tl, t, cur, out);
      cur.cost -= e.cost;
      cur.nodes.pop_back();
    }
  }

  SplitMix rng_;
  std::uint64_t layers_ = 0;
  std::uint64_t width_ = 0;
  std::vector<Graph> graphs_;
  std::unordered_set<std::string> seen_;
  std::uint64_t count_ = 0;
};

// --------------------------------------------------------- and/or join --

// Shared-variable conjunctions over the lookup_mix database shape, answered
// by a set join over the generator's own employee table. The database is a
// twentieth of lookup_mix's: andp forks salary_band(E,B) as a work item that
// enumerates every salary_band fact, and at 20k employees one request takes
// about 2 s at 4 workers — too few samples per run. The three query forms
// rotate in a fixed order so every run has the same mix.
class AndorJoin final : public Workload {
 public:
  AndorJoin(std::uint64_t seed, bool smoke)
      : db_{smoke ? 200u : 1000u, smoke ? 10u : 50u}, rng_(seed) {
    profile_.name = "andor_join";
    profile_.concurrency = 1;
    profile_.workers = 0;
    profile_.via_andp = true;
    profile_.warmup_requests = smoke ? 1 : 8;
    profile_.consult_every = smoke ? 40 : 33;  // about four writes per block
    profile_.block = profile_.throughput_block = smoke ? 16 : 128;
    if (smoke) profile_.rss_after_queries = 100;
  }

  [[nodiscard]] std::string program() const override { return db_.program(); }

 protected:
  [[nodiscard]] std::string write_batch(std::uint64_t k) const override {
    return CompanyDb::write_batch(k);
  }

  Request next_query() override {
    const std::uint64_t d = rng_.below(db_.departments);
    const std::string dept = tag("d", d);
    Request r;
    switch (count_++ % 3) {
      case 0:  // one shared-variable group
        r.text = "works_in(E," + dept + "), salary_band(E,B)";
        for (std::uint64_t e = d; e < db_.employees; e += db_.departments)
          r.expected.push_back(tag("E=e", e) + ",B=" + kBands[e % 4]);
        break;
      case 1: {  // the same join entered from the band side
        const std::uint64_t band = rng_.below(kBands.size());
        r.text = std::string("salary_band(E,") + kBands[band] +
                 "), works_in(E," + dept + ")";
        for (std::uint64_t e = d; e < db_.employees; e += db_.departments)
          if (e % 4 == band) r.expected.push_back(tag("E=e", e));
        break;
      }
      default:  // a shared-variable group plus an independent one
        r.text = "works_in(E," + dept + "), salary_band(E,B), manages(M," +
                 dept + ")";
        for (std::uint64_t e = d; e < db_.employees; e += db_.departments)
          r.expected.push_back(tag("E=e", e) + ",B=" + kBands[e % 4] +
                               tag(",M=m", d));
        break;
    }
    r.expected = sorted(std::move(r.expected));
    return r;
  }

 private:
  CompanyDb db_;
  SplitMix rng_;
  std::uint64_t count_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "lookup_mix") return std::make_unique<LookupMix>(seed, smoke);
  if (name == "route_bnb") return std::make_unique<Route>(seed, false, smoke);
  if (name == "route_parallel")
    return std::make_unique<Route>(seed, true, smoke);
  if (name == "andor_join") return std::make_unique<AndorJoin>(seed, smoke);
  return nullptr;
}

}  // namespace perfbench
