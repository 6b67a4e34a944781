// CL-ANDP (§7): AND-parallelism.
//
// Claims measured:
//  - independent conjunctions get an AND-speedup ≈ number of balanced
//    groups ("very effective in speeding up highly deterministic
//    programs");
//  - run-time analysis finds independence that is invisible at compile
//    time (bindings remove dependencies);
//  - the semi-join strategy for shared-variable conjunctions beats the
//    nested-loop combination;
//  - the unified work-stealing path (AND-groups and OR-alternatives as
//    work items of ONE scheduler partition) matches the sequential engine
//    answer-for-answer while exposing the same processor-model speedup to
//    any number of workers.
#include <cstdio>
#include <string>

#include "blog/andp/exec.hpp"
#include "blog/support/table.hpp"
#include "blog/workloads/workloads.hpp"

using namespace blog;

namespace {

std::string fact_table(const char* name, int rows, int offset = 0) {
  std::string s;
  for (int i = 0; i < rows; ++i)
    s += std::string(name) + "(k" + std::to_string(i + offset) + ",v" +
         std::to_string(i) + ").\n";
  return s;
}

}  // namespace

int main() {
  std::printf("CL-ANDP (a): AND-speedup of independent conjunctions\n\n");
  Table t({"conjunction", "groups", "seq nodes", "critical path",
           "AND-speedup", "solutions"});
  {
    engine::Interpreter ip;
    ip.consult_string(workloads::figure1_family() + workloads::list_library() +
                      fact_table("t1", 20) + fact_table("t2", 20));
    const char* queries[] = {
        "gf(sam,G)",
        "gf(sam,G), append(X,Y,[1,2,3])",
        "gf(sam,G), append(X,Y,[1,2,3]), t1(K,V)",
        "gf(sam,G), append(X,Y,[1,2,3]), t1(K,V), t2(K2,V2)",
    };
    for (const char* q : queries) {
      const auto res = andp::solve_and_parallel(ip, q);
      t.add_row({q, std::to_string(res.groups.size()),
                 std::to_string(res.sequential_nodes),
                 std::to_string(res.critical_path_nodes),
                 Table::num(res.and_speedup()), std::to_string(res.solutions.size())});
    }
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("CL-ANDP (b): semi-join vs nested loop on a shared-variable "
              "conjunction\n\n");
  Table t2({"rows/table", "overlap", "nested-loop comparisons",
            "semi-join probes", "join result"});
  for (const int rows : {50, 100, 200, 400}) {
    // r(X,Y), s(Y,Z) with ~10% key overlap.
    const int overlap = rows / 10;
    andp::Relation r{{intern("X"), intern("Y")}, {}};
    andp::Relation s{{intern("Y"), intern("Z")}, {}};
    for (int i = 0; i < rows; ++i) {
      r.rows.push_back({"x" + std::to_string(i), "k" + std::to_string(i)});
      s.rows.push_back(
          {"k" + std::to_string(i + rows - overlap), "z" + std::to_string(i)});
    }
    andp::JoinStats nl, sj;
    const auto a = nested_loop_join(r, s, &nl);
    const auto b = semi_join_then_join(r, s, &sj);
    t2.add_row({std::to_string(rows), std::to_string(overlap),
                std::to_string(nl.comparisons), std::to_string(sj.probes),
                std::to_string(a.rows.size()) + "==" +
                    std::to_string(b.rows.size())});
  }
  std::printf("%s\n", t2.str().c_str());

  std::printf("CL-ANDP (c): run-time bindings remove dependencies\n\n");
  {
    engine::Interpreter ip;
    ip.consult_string(fact_table("t1", 30) + fact_table("t2", 30));
    // Compile-time view: t1(K,V), t2(K,W) share K. With K bound at call
    // time the goals are independent (2 groups instead of 1).
    const auto shared = andp::solve_and_parallel(ip, "t1(K,V), t2(K,W)");
    const auto bound = andp::solve_and_parallel(ip, "t1(k3,V), t2(k3,W)");
    std::printf("  t1(K,V), t2(K,W)   : %zu group(s), %zu shared var(s)\n",
                shared.groups.size(), shared.shared_vars);
    std::printf("  t1(k3,V), t2(k3,W) : %zu group(s), %zu shared var(s)\n",
                bound.groups.size(), bound.shared_vars);
  }
  std::printf("CL-ANDP (d): unified work-stealing scheduler vs the "
              "sequential engine\n\n");
  Table t4({"path", "workers", "forked items", "join resolves", "join ms",
            "nodes", "solutions", "model speedup"});
  {
    const std::string prog = workloads::deductive_db(64, 4);
    const std::string query =
        "boss(A,M1), salary_band(A,S1), boss(B,M2), salary_band(B,S2)";
    {
      engine::Interpreter ip;
      ip.consult_string(prog);
      const auto res = ip.solve(query, {.update_weights = false});
      t4.add_row({"sequential", "1", "-", "-", "-",
                  std::to_string(res.stats.nodes_expanded),
                  std::to_string(engine::solution_texts(res).size()),
                  Table::num(1.0)});
    }
    for (const unsigned w : {1u, 2u, 8u}) {
      engine::Interpreter ip;
      ip.consult_string(prog);
      andp::AndParallelOptions o;
      o.search.update_weights = false;
      o.workers = w;
      const auto res = andp::solve_and_parallel(ip, query, o);
      t4.add_row({"unified", std::to_string(w),
                  std::to_string(res.forked_items),
                  std::to_string(res.join_resolves),
                  Table::num(res.join_micros / 1000.0),
                  std::to_string(res.sequential_nodes),
                  std::to_string(res.solutions.size()),
                  Table::num(res.and_speedup())});
    }
  }
  std::printf("%s\n", t4.str().c_str());

  std::printf(
      "\nexpected shape: speedup tracks the number of balanced groups (→4x\n"
      "with four similar goals); semi-join probes grow linearly with the\n"
      "input while nested-loop comparisons grow quadratically, with equal\n"
      "results; grounding the shared variable at run time splits the\n"
      "conjunction into independent groups (§7's run-time analysis); the\n"
      "unified scheduler forks one work item per semi-join goal, resolves\n"
      "each join exactly once, and finds the sequential engine's answers\n"
      "with the same model speedup at every worker count.\n");
  return 0;
}
