// OR-parallel search on real threads: the §6 machine behaviour (local
// frontiers, minimum-seeking network, threshold D) on a path-enumeration
// workload, plus the AND-parallel executor of §7 on an independent
// conjunction.
//
// With `--trace <file>` the worker-count sweep runs with the flight
// recorder attached and exports a Chrome/Perfetto trace (one lane per
// worker, one async span per solve) to <file>; CI validates it with
// tools/trace_summary.py and fails on dropped events.
#include <cstdio>
#include <cstring>
#include <string>

#include "blog/andp/exec.hpp"
#include "blog/obs/chrome_trace.hpp"
#include "blog/parallel/engine.hpp"
#include "blog/support/table.hpp"
#include "blog/workloads/workloads.hpp"

using namespace blog;

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
  }

  const std::string dag = workloads::layered_dag(5, 3);
  obs::TraceSink sink;
  obs::TraceSink* const trace = trace_path.empty() ? nullptr : &sink;

  std::printf("OR-parallelism: all paths from n0_0 in a 5x3 layered DAG\n\n");
  Table t({"workers", "solutions", "nodes", "network takes", "spills"});
  std::uint32_t qid = 0;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    engine::Interpreter ip;
    ip.consult_string(dag);
    parallel::ParallelOptions po;
    po.workers = workers;
    po.update_weights = false;
    po.trace = trace;
    // Tiny private pools guarantee steal/spill/mailbox traffic, so the
    // exported trace shows the machinery, not idle lanes.
    if (trace != nullptr) po.local_capacity = 1;
    parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
    obs::trace(trace, obs::client_lane(), obs::EventKind::kQueryBegin, ++qid);
    const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
    obs::trace(trace, obs::client_lane(), obs::EventKind::kQueryEnd, qid);
    std::uint64_t net = 0, spills = 0;
    for (const auto& w : r.workers) {
      net += w.network_takes;
      spills += w.spills;
    }
    t.add_row({std::to_string(workers), std::to_string(r.solutions.size()),
               std::to_string(r.nodes_expanded), std::to_string(net),
               std::to_string(spills)});
  }
  std::printf("%s\n", t.str().c_str());

  if (trace != nullptr) {
    if (!obs::write_chrome_trace(sink, trace_path)) {
      std::printf("error: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("flight recorder: %llu events (%llu dropped) -> %s\n\n",
                static_cast<unsigned long long>(sink.recorded()),
                static_cast<unsigned long long>(sink.dropped()),
                trace_path.c_str());
  }

  std::printf("AND-parallelism (§7): independent goals run as one group each\n\n");
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family() + workloads::list_library());
  const auto res =
      andp::solve_and_parallel(ip, "gf(sam,G), append(X,Y,[1,2,3])");
  std::printf("?- gf(sam,G), append(X,Y,[1,2,3]).\n");
  std::printf("groups: %zu  solutions: %zu  sequential nodes: %zu  "
              "critical path: %zu  AND-speedup: %.2fx\n",
              res.groups.size(), res.solutions.size(), res.sequential_nodes,
              res.critical_path_nodes, res.and_speedup());
  for (const auto& s : res.solutions) std::printf("  %s\n", s.c_str());
  return 0;
}
