#include "blog/workloads/workloads.hpp"

#include <vector>

namespace blog::workloads {

std::string figure1_family() {
  return R"(
gf(X,Z) :- f(X,Y), f(Y,Z).
gf(X,Z) :- f(X,Y), m(Y,Z).
f(curt,elain).  f(sam,larry).
f(dan,pat).     f(larry,den).
f(pat,john).    f(larry,doug).
m(elain,john).  m(marian,elain).
m(peg,den).     m(peg,doug).
)";
}

std::string figure4_propositional() {
  return R"(
a :- b, c, d.
b :- e.
b :- f.
c :- g.
d :- h.
e. f. g. h.
)";
}

std::string random_family(Rng& rng, int generations, int couples_per_gen) {
  std::string s;
  s += "gf(X,Z) :- f(X,Y), f(Y,Z).\n";
  s += "gf(X,Z) :- f(X,Y), m(Y,Z).\n";
  auto person = [](int g, int i) {
    std::string name = "p";
    name += std::to_string(g);
    name += '_';
    name += std::to_string(i);
    return name;
  };
  for (int g = 0; g + 1 < generations; ++g) {
    for (int c = 0; c < couples_per_gen; ++c) {
      const std::string dad = person(g, 2 * c);
      const std::string mom = person(g, 2 * c + 1);
      const int kids = static_cast<int>(rng.range(1, 3));
      for (int k = 0; k < kids; ++k) {
        const std::string kid =
            person(g + 1, static_cast<int>(rng.below(2u * couples_per_gen)));
        s += "f(" + dad + "," + kid + ").\n";
        s += "m(" + mom + "," + kid + ").\n";
      }
    }
  }
  return s;
}

std::string layered_dag(int layers, int width) {
  std::string s;
  for (int l = 0; l < layers; ++l)
    for (int a = 0; a < width; ++a)
      for (int b = 0; b < width; ++b)
        s += "edge(n" + std::to_string(l) + "_" + std::to_string(a) + ",n" +
             std::to_string(l + 1) + "_" + std::to_string(b) + ").\n";
  s += "path(X,X,[X]).\n";
  s += "path(X,Z,[X|P]) :- edge(X,Y), path(Y,Z,P).\n";
  return s;
}

std::string nat_program() { return "nat(z). nat(s(X)) :- nat(X).\n"; }

std::string deep_nat_query(int depth) {
  std::string q = "nat(";
  for (int i = 0; i < depth; ++i) q += "s(";
  q += "z";
  for (int i = 0; i < depth; ++i) q += ")";
  return q + ")";
}

std::string random_dag(Rng& rng, int nodes, int out_degree) {
  std::string s;
  for (int v = 0; v + 1 < nodes; ++v) {
    for (int e = 0; e < out_degree; ++e) {
      const int t = v + 1 + static_cast<int>(rng.below(nodes - v - 1));
      s += "edge(v" + std::to_string(v) + ",v" + std::to_string(t) + ").\n";
    }
  }
  s += "path(X,X,[X]).\n";
  s += "path(X,Z,[X|P]) :- edge(X,Y), path(Y,Z,P).\n";
  return s;
}

std::string map_coloring(Rng& rng, int regions, int colors, int extra_edges) {
  std::string s;
  static const char* kColors[] = {"red",    "green", "blue",
                                  "yellow", "cyan",  "magenta"};
  for (int c = 0; c < colors && c < 6; ++c)
    s += std::string("color(") + kColors[c] + ").\n";

  // A ring plus chords: planar-ish and guaranteed connected.
  std::vector<std::pair<int, int>> edges;
  for (int r = 0; r < regions; ++r) edges.emplace_back(r, (r + 1) % regions);
  for (int e = 0; e < extra_edges; ++e) {
    const int a = static_cast<int>(rng.below(regions));
    const int b = static_cast<int>(rng.below(regions));
    if (a != b) edges.emplace_back(std::min(a, b), std::max(a, b));
  }

  // coloring(C0,...,Cn-1) :- color(C0), ..., Ci \= Cj for each edge.
  std::string head = "coloring(";
  for (int r = 0; r < regions; ++r)
    head += std::string("C") + std::to_string(r) + (r + 1 < regions ? "," : ")");
  std::string body;
  for (int r = 0; r < regions; ++r) {
    if (!body.empty()) body += ", ";
    body += "color(C" + std::to_string(r) + ")";
  }
  for (const auto& [a, b] : edges) {
    body += ", C" + std::to_string(a) + " \\= C" + std::to_string(b);
  }
  s += head + " :- " + body + ".\n";
  return s;
}

std::string queens(int n) {
  std::string s = R"(
select(X,[X|T],T).
select(X,[H|T],[H|R]) :- select(X,T,R).
safe(_,[],_).
safe(Q,[Q1|Qs],D) :- Q =\= Q1, abs(Q-Q1) =\= D, D1 is D+1, safe(Q,Qs,D1).
qplace(Unplaced,[Q|Qs],Acc,Out) :-
  select(Q,Unplaced,Rest), safe(Q,Acc,1), qplace(Rest,Qs,[Q|Acc],Out).
qplace([],[],Acc,Acc).
)";
  std::string list = "[";
  for (int i = 1; i <= n; ++i) list += std::to_string(i) + (i < n ? "," : "]");
  s += "queens" + std::to_string(n) + "(Qs) :- qplace(" + list + ",Qs,[],_).\n";
  return s;
}

std::string needle_tree(Rng& rng, int depth, int fanout) {
  // goal<d> has `fanout` clauses; exactly one (random position) leads on.
  std::string s;
  std::string dead_count;
  int dead = 0;
  for (int d = 0; d < depth; ++d) {
    const int good = static_cast<int>(rng.below(fanout));
    for (int k = 0; k < fanout; ++k) {
      const std::string head = "goal" + std::to_string(d);
      if (k == good) {
        const std::string next =
            d + 1 < depth ? "goal" + std::to_string(d + 1) : "true_leaf";
        s += head + " :- " + next + ".\n";
      } else {
        s += head + " :- dead" + std::to_string(dead++) + ".\n";
      }
    }
  }
  s += "true_leaf.\n";
  // dead goals have no clauses: they fail immediately.
  (void)dead_count;
  return s;
}

std::string list_library() {
  return R"(
append([],L,L).
append([H|T],L,[H|R]) :- append(T,L,R).
member(X,[X|_]).
member(X,[_|T]) :- member(X,T).
len([],0).
len([_|T],N) :- len(T,M), N is M+1.
rev([],A,A).
rev([H|T],A,R) :- rev(T,[H|A],R).
reverse(L,R) :- rev(L,[],R).
)";
}

std::string deductive_db(int employees, int departments) {
  std::string s;
  s.reserve(static_cast<std::size_t>(employees) * 64);
  s += "boss(E,M) :- works_in(E,D), manages(M,D).\n";
  s += "peer(A,B) :- works_in(A,D), works_in(B,D).\n";
  for (int d = 0; d < departments; ++d)
    s += "manages(m" + std::to_string(d) + ",d" + std::to_string(d) + ").\n";
  static const char* kBands[] = {"junior", "mid", "senior", "staff"};
  for (int e = 0; e < employees; ++e) {
    const std::string emp = std::string("e") + std::to_string(e);
    s += "works_in(" + emp + ",d" + std::to_string(e % departments) + ").\n";
    s += "salary_band(" + emp + "," + kBands[e % 4] + ").\n";
  }
  return s;
}

std::string deductive_db_lookup(int employee) {
  return "works_in(e" + std::to_string(employee) + ",D)";
}

}  // namespace blog::workloads
