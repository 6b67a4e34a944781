#include <gtest/gtest.h>

#include <limits>
#include <unordered_set>

#include "blog/term/reader.hpp"
#include "blog/term/store.hpp"
#include "blog/term/unify.hpp"
#include "blog/term/writer.hpp"

namespace blog::term {
namespace {

TermRef parse(Store& s, std::string_view text) { return parse_term(text, s).term; }

std::string roundtrip(std::string_view text) {
  Store s;
  return to_string(s, parse(s, text));
}

// ---------------------------------------------------------------- store --

TEST(Store, AtomsCompareBySymbol) {
  Store s;
  const TermRef a = s.make_atom("foo");
  const TermRef b = s.make_atom("foo");
  EXPECT_TRUE(Store::equal(s, a, s, b));
}

TEST(Store, IntRoundTrip64Bit) {
  Store s;
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1} << 40,
        std::int64_t{-(1LL << 40)}, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(s.int_value(s.make_int(v)), v);
  }
}

TEST(Store, DerefFollowsBindingChains) {
  Store s;
  const TermRef v1 = s.make_var();
  const TermRef v2 = s.make_var();
  const TermRef a = s.make_atom("x");
  s.bind(v1, v2);
  s.bind(v2, a);
  EXPECT_EQ(s.deref(v1), a);
}

TEST(Store, UnbindRestoresVar) {
  Store s;
  const TermRef v = s.make_var();
  s.bind(v, s.make_atom("x"));
  s.unbind(v);
  EXPECT_TRUE(s.is_unbound(v));
}

TEST(Store, ImportCopiesStructure) {
  Store src, dst;
  const TermRef t = parse(src, "f(a,g(B,B),3)");
  VarMap vmap;
  const TermRef u = dst.import(src, t, vmap);
  EXPECT_EQ(to_string(dst, u), to_string(src, t));
  // shared variable B maps to a single fresh var
  EXPECT_EQ(vmap.size(), 1u);
}

TEST(Store, ImportDereferencesBindings) {
  Store src, dst;
  const TermRef t = parse(src, "f(X)");
  const TermRef x = src.deref(src.arg(src.deref(t), 0));
  Trail trail;
  ASSERT_TRUE(unify(src, x, src.make_atom("hello"), trail));
  VarMap vmap;
  const TermRef u = dst.import(src, t, vmap);
  EXPECT_EQ(to_string(dst, u), "f(hello)");
}

TEST(Store, CompactIntoSharesVariablesAcrossRoots) {
  Store src, dst;
  const TermRef t = parse(src, "p(f(X,Y),g(Y),X)");
  const std::span<const TermRef> roots = src.args(src.deref(t));
  VarMap vmap;
  std::vector<TermRef> out;
  src.compact_into(dst, roots, out, vmap);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(vmap.size(), 2u);
  // f(X,Y) is laid out post-order (X, Y, f), then g(Y) reuses Y and the
  // third root is X itself: four cells.
  EXPECT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.deref(dst.arg(out[0], 1)), dst.deref(dst.arg(out[1], 0)));
  EXPECT_EQ(dst.deref(out[2]), dst.deref(dst.arg(out[0], 0)));
}

// A 1M-deep f(f(...f(X)...)) — far past any call stack — copies without
// recursion through every entry point, keeping the post-order layout
// (innermost cell first, root last).
TEST(Store, CopiesMillionDeepTermIteratively) {
  constexpr std::size_t kDepth = 1'000'000;
  Store src;
  Trail trail;
  const TermRef x = src.make_var();
  const Symbol f = intern("f");
  TermRef t = x;
  for (std::size_t i = 0; i < kDepth; ++i) {
    const TermRef arg[1] = {t};
    t = src.make_struct(f, arg);
  }
  // Walks the copy down to its innermost argument, checking every level.
  auto innermost = [&](const Store& s, TermRef r) {
    for (std::size_t i = 0; i < kDepth; ++i) {
      r = s.deref(r);
      EXPECT_TRUE(s.is_struct(r) && s.functor(r) == f && s.arity(r) == 1);
      if (!s.is_struct(r)) return kNullTerm;
      r = s.arg(r, 0);
    }
    return s.deref(r);
  };

  Store imported;
  VarMap vmap;
  const TermRef u = imported.import(src, t, vmap);
  EXPECT_EQ(imported.size(), kDepth + 1);
  EXPECT_EQ(u, kDepth);  // root last
  EXPECT_EQ(innermost(imported, u), 0u);  // innermost first

  // Live view: X bound after a checkpoint shows through the copy.
  const Checkpoint cp = checkpoint(src, trail);
  ASSERT_TRUE(unify(src, x, src.make_atom("leaf"), trail));
  const TermRef roots[2] = {t, x};
  Store live;
  std::vector<TermRef> out;
  src.compact_into(live, roots, out, vmap);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(live.size(), kDepth + 2);
  EXPECT_TRUE(live.is_atom(innermost(live, out[0])));
  EXPECT_TRUE(live.is_atom(out[1]));

  // As-of view: the same binding counts as undone, so X is a variable
  // shared by both roots again.
  const std::unordered_set<TermRef> undone(
      trail.entries_since(cp.trail).begin(), trail.entries_since(cp.trail).end());
  ASSERT_EQ(undone.size(), 1u);
  Store as_of;
  out.clear();
  src.compact_into_as_of(as_of, roots, out, undone, vmap);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(as_of.size(), kDepth + 1);
  const TermRef leaf = innermost(as_of, out[0]);
  EXPECT_TRUE(as_of.is_unbound(leaf));
  EXPECT_EQ(as_of.deref(out[1]), leaf);
}

// The writer keeps its own stack: a term far deeper than the native stack
// allows renders instead of overflowing it.
TEST(Writer, RendersMillionDeepTermIteratively) {
  constexpr std::size_t kDepth = 1'000'000;
  Store s;
  const Symbol f = intern("f");
  TermRef t = s.make_atom("x");
  for (std::size_t i = 0; i < kDepth; ++i) {
    const TermRef arg[1] = {t};
    t = s.make_struct(f, arg);
  }
  const std::string text = to_string(s, t);
  ASSERT_EQ(text.size(), 3 * kDepth + 1);
  EXPECT_EQ(text.find_first_not_of("f("), 2 * kDepth);
  EXPECT_EQ(text[2 * kDepth], 'x');
  EXPECT_EQ(text.find_first_not_of(')', 2 * kDepth + 1), std::string::npos);

  // Operators and lists nest the same way: 1-(1-(...)) and [[...]].
  TermRef ops = s.make_int(1);
  TermRef list = s.make_atom("[]");
  const Symbol minus = intern("-");
  for (std::size_t i = 0; i < kDepth; ++i) {
    const TermRef args[2] = {s.make_int(1), ops};
    ops = s.make_struct(minus, args);
    const TermRef item[1] = {list};
    list = s.make_list(item);
  }
  const std::string op_text = to_string(s, ops);
  EXPECT_EQ(op_text.size(), 4 * kDepth + 1 - 2);  // outermost: no parens
  EXPECT_EQ(op_text.substr(0, 7), "1-(1-(1");
  const std::string list_text = to_string(s, list);
  EXPECT_EQ(list_text.size(), 2 * kDepth + 2);
  EXPECT_EQ(list_text.substr(0, 3), "[[[");
}

// -------------------------------------------------------------- var map --

TEST(VarMap, InsertFindAndOverwrite) {
  VarMap m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_EQ(m[3], kNullTerm);  // inserted, no value yet
  m[3] = 30;
  m[3] = 31;
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(*m.find(3), 31u);
}

// Thousands of keys at most half-filling the table force long probe
// chains (dense runs and strided keys alike); every present key must be
// found along its chain and every absent key must stop at a free slot.
TEST(VarMap, CollisionChainsResolve) {
  VarMap m;
  constexpr TermRef kN = 2000;
  for (TermRef k = 0; k < kN; ++k) {
    m[k] = k + 1;                 // dense: consecutive cell indices
    m[(k + kN) * 4096] = k + 2;   // strided: multiples of a power of two
  }
  EXPECT_EQ(m.size(), 2 * std::size_t{kN});
  for (TermRef k = 0; k < kN; ++k) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(*m.find(k), k + 1);
    ASSERT_NE(m.find((k + kN) * 4096), nullptr);
    EXPECT_EQ(*m.find((k + kN) * 4096), k + 2);
    EXPECT_EQ(m.find(k + kN), nullptr);
    EXPECT_EQ(m.find((k + kN) * 4096 + 1), nullptr);
  }
}

TEST(VarMap, GrowthKeepsEveryEntry) {
  VarMap m;
  for (TermRef k = 0; k < 300; ++k) {
    m[k * 7] = k;
    ASSERT_EQ(m.size(), k + 1u);
    for (TermRef j = 0; j <= k; ++j) {
      const TermRef* v = m.find(j * 7);
      ASSERT_NE(v, nullptr) << "lost key " << j * 7 << " after " << k;
      ASSERT_EQ(*v, j);
    }
  }
}

TEST(VarMap, ClearForgetsAndReuses) {
  VarMap m;
  for (TermRef k = 0; k < 100; ++k) m[k] = k;
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  for (TermRef k = 0; k < 100; ++k) EXPECT_EQ(m.find(k), nullptr);
  EXPECT_EQ(m[42], kNullTerm);  // fresh, not the stale 42
  m[42] = 7;
  m[1000] = 8;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.find(42), 7u);
  EXPECT_EQ(*m.find(1000), 8u);
  EXPECT_EQ(m.find(41), nullptr);
}

// The generation stamp wraps after Stamp's range of clears; a stale slot
// must never come back to life, neither the one written in the first
// generation nor a never-used one (stamp 0).
TEST(VarMap, GenerationWrapKeepsStaleSlotsDead) {
  VarMap m;
  m[7] = 70;  // stamped with the first generation
  constexpr std::size_t kClears =
      std::size_t{std::numeric_limits<VarMap::Stamp>::max()} + 3;
  for (std::size_t i = 0; i < kClears; ++i) {
    m.clear();
    ASSERT_EQ(m.find(7), nullptr) << "after " << i + 1 << " clears";
    ASSERT_EQ(m.find(0), nullptr) << "after " << i + 1 << " clears";
    ASSERT_EQ(m.size(), 0u);
    m[1000 + static_cast<TermRef>(i % 5)] = 1;  // stamp a few other slots
  }
  m.clear();
  m[7] = 71;
  EXPECT_EQ(*m.find(7), 71u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(Store, ReachableCellsCountsTree) {
  Store s;
  const TermRef t = parse(s, "f(a,b)");
  EXPECT_EQ(s.reachable_cells(t), 3u);
  const TermRef deep = parse(s, "f(g(h(x)))");
  EXPECT_EQ(s.reachable_cells(deep), 4u);
}

TEST(Store, MakeListBuildsProperList) {
  Store s;
  const TermRef items[3] = {s.make_int(1), s.make_int(2), s.make_int(3)};
  const TermRef l = s.make_list(items);
  EXPECT_EQ(to_string(s, l), "[1,2,3]");
}

TEST(Store, CompareOrdersStandardOrder) {
  Store s;
  const TermRef v = s.make_var();
  const TermRef i = s.make_int(5);
  const TermRef a = s.make_atom("a");
  const TermRef f = parse(s, "f(x)");
  EXPECT_LT(Store::compare(s, v, s, i), 0);
  EXPECT_LT(Store::compare(s, i, s, a), 0);
  EXPECT_LT(Store::compare(s, a, s, f), 0);
  EXPECT_EQ(Store::compare(s, f, s, f), 0);
}

// ---------------------------------------------------------------- reader --

TEST(Reader, ParsesFact) { EXPECT_EQ(roundtrip("f(curt,elain)"), "f(curt,elain)"); }

TEST(Reader, ParsesRuleWithConjunction) {
  EXPECT_EQ(roundtrip("gf(X,Z) :- f(X,Y), f(Y,Z)"), "gf(X,Z):-f(X,Y),f(Y,Z)");
}

TEST(Reader, ParsesListSugar) {
  EXPECT_EQ(roundtrip("[a,b,c]"), "[a,b,c]");
  EXPECT_EQ(roundtrip("[H|T]"), "[H|T]");
  EXPECT_EQ(roundtrip("[a,b|T]"), "[a,b|T]");
  EXPECT_EQ(roundtrip("[]"), "[]");
}

TEST(Reader, ParsesArithmetic) {
  EXPECT_EQ(roundtrip("X is 1+2*3"), "X is 1+2*3");
  EXPECT_EQ(roundtrip("X is (1+2)*3"), "X is (1+2)*3");
  EXPECT_EQ(roundtrip("A-B-C"), "A-B-C");  // left assoc
}

TEST(Reader, NegativeLiteralsFold) {
  Store s;
  const TermRef t = parse(s, "-42");
  ASSERT_TRUE(s.is_int(s.deref(t)));
  EXPECT_EQ(s.int_value(s.deref(t)), -42);
}

TEST(Reader, SharedVariablesShareCells) {
  Store s;
  const TermRef t = parse(s, "f(X,X,Y)");
  const TermRef x1 = s.deref(s.arg(s.deref(t), 0));
  const TermRef x2 = s.deref(s.arg(s.deref(t), 1));
  const TermRef y = s.deref(s.arg(s.deref(t), 2));
  EXPECT_EQ(x1, x2);
  EXPECT_NE(x1, y);
}

TEST(Reader, AnonymousVarsAreDistinct) {
  Store s;
  const TermRef t = parse(s, "f(_,_)");
  EXPECT_NE(s.deref(s.arg(s.deref(t), 0)), s.deref(s.arg(s.deref(t), 1)));
}

TEST(Reader, QuotedAtoms) {
  EXPECT_EQ(roundtrip("'hello world'"), "hello world");
  Store s;
  const TermRef t = parse(s, "'don''t'");
  EXPECT_EQ(symbol_name(s.atom_name(s.deref(t))), "don't");
}

TEST(Reader, CommentsSkipped) {
  Store s;
  Reader r("% line comment\nf(a). /* block */ g(b).", s);
  const auto all = r.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(to_string(s, all[0].term), "f(a)");
  EXPECT_EQ(to_string(s, all[1].term), "g(b)");
}

TEST(Reader, MultipleClausesWithVarsScopePerClause) {
  Store s;
  Reader r("f(X). g(X).", s);
  const auto all = r.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_NE(s.deref(s.arg(s.deref(all[0].term), 0)),
            s.deref(s.arg(s.deref(all[1].term), 0)));
}

TEST(Reader, ReportsVariableNames) {
  Store s;
  const auto rt = parse_term("path(A,B,Cost)", s);
  ASSERT_EQ(rt.variables.size(), 3u);
  EXPECT_EQ(symbol_name(rt.variables[0].first), "A");
  EXPECT_EQ(symbol_name(rt.variables[2].first), "Cost");
}

TEST(Reader, ThrowsOnBadSyntax) {
  Store s;
  EXPECT_THROW(parse(s, "f(a"), ParseError);
  EXPECT_THROW(parse(s, "f(a))"), ParseError);
  EXPECT_THROW((void)Reader("f(a)", s).next(), ParseError);  // missing '.'
}

TEST(Reader, ErrorCarriesPosition) {
  Store s;
  try {
    Reader r("f(a).\n g(b", s);
    r.all();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 2);
  }
}

TEST(Reader, ParsesQueryOperators) {
  EXPECT_EQ(roundtrip("X \\= Y"), "X\\=Y");
  EXPECT_EQ(roundtrip("X =< Y"), "X=<Y");
  EXPECT_EQ(roundtrip("X =:= Y"), "X=:=Y");
}

TEST(Reader, CommaPrecedenceVsArgs) {
  Store s;
  // In argument position ',' separates args; as operator it builds pairs.
  const TermRef t = parse(s, "f(a,b)");
  EXPECT_EQ(s.arity(s.deref(t)), 2u);
  const TermRef conj = parse(s, "(a,b)");
  EXPECT_EQ(s.functor(s.deref(conj)), comma_symbol());
}

// ---------------------------------------------------------------- writer --

TEST(Writer, UnnamedVarsGetStableNames) {
  Store s;
  const TermRef v = s.make_var();
  const std::string text = to_string(s, v);
  EXPECT_EQ(text.substr(0, 2), "_G");
}

TEST(Writer, QuotedMode) {
  Store s;
  const TermRef t = s.make_atom("hello world");
  EXPECT_EQ(to_string(s, t, {.quoted = true}), "'hello world'");
  EXPECT_EQ(to_string(s, s.make_atom("abc"), {.quoted = true}), "abc");
}

// ----------------------------------------------------------------- unify --

TEST(Unify, AtomWithSameAtom) {
  Store s;
  Trail tr;
  EXPECT_TRUE(unify(s, s.make_atom("a"), s.make_atom("a"), tr));
  EXPECT_FALSE(unify(s, s.make_atom("a"), s.make_atom("b"), tr));
}

TEST(Unify, VarBindsAndTrails) {
  Store s;
  Trail tr;
  const TermRef v = s.make_var();
  const TermRef a = s.make_atom("a");
  ASSERT_TRUE(unify(s, v, a, tr));
  EXPECT_EQ(s.deref(v), a);
  EXPECT_EQ(tr.size(), 1u);
}

TEST(Unify, FailureRollsBackBindings) {
  Store s;
  Trail tr;
  const TermRef t1 = parse(s, "f(X,a)");
  const TermRef t2 = parse(s, "f(b,c)");
  const std::size_t mark = tr.mark();
  EXPECT_FALSE(unify(s, t1, t2, tr));
  EXPECT_EQ(tr.mark(), mark);
  const TermRef x = s.arg(s.deref(t1), 0);
  EXPECT_TRUE(s.is_var(s.deref(x)));
}

TEST(Unify, StructuresRecursively) {
  Store s;
  Trail tr;
  const TermRef t1 = parse(s, "f(X,g(X))");
  const TermRef t2 = parse(s, "f(a,g(Y))");
  ASSERT_TRUE(unify(s, t1, t2, tr));
  EXPECT_EQ(to_string(s, t1), "f(a,g(a))");
  EXPECT_EQ(to_string(s, t2), "f(a,g(a))");
}

TEST(Unify, SharedVariableConstraintPropagates) {
  Store s;
  Trail tr;
  const TermRef t1 = parse(s, "f(X,X)");
  const TermRef t2 = parse(s, "f(a,b)");
  EXPECT_FALSE(unify(s, t1, t2, tr));
}

TEST(Unify, ArityMismatchFails) {
  Store s;
  Trail tr;
  EXPECT_FALSE(unify(s, parse(s, "f(a)"), parse(s, "f(a,b)"), tr));
}

TEST(Unify, OccursCheckRejectsCyclic) {
  Store s;
  Trail tr;
  const TermRef x = s.make_var();
  const TermRef args[1] = {x};
  const TermRef fx = s.make_struct(intern("f"), args);
  EXPECT_FALSE(unify(s, x, fx, tr, {.occurs_check = true}));
  EXPECT_TRUE(s.is_unbound(x));
}

TEST(Unify, WithoutOccursCheckBindsCyclic) {
  Store s;
  Trail tr;
  const TermRef x = s.make_var();
  const TermRef args[1] = {x};
  const TermRef fx = s.make_struct(intern("f"), args);
  EXPECT_TRUE(unify(s, x, fx, tr));  // rational-tree binding, Prolog default
}

TEST(Unify, TrailUndoToRestoresIntermediateState) {
  Store s;
  Trail tr;
  const TermRef v1 = s.make_var();
  const TermRef v2 = s.make_var();
  ASSERT_TRUE(unify(s, v1, s.make_atom("a"), tr));
  const std::size_t mark = tr.mark();
  ASSERT_TRUE(unify(s, v2, s.make_atom("b"), tr));
  tr.undo_to(mark, s);
  EXPECT_FALSE(s.is_unbound(v1));
  EXPECT_TRUE(s.is_unbound(v2));
}

TEST(Unify, StatsCountWork) {
  Store s;
  Trail tr;
  UnifyStats st;
  ASSERT_TRUE(unify(s, parse(s, "f(A,B,C)"), parse(s, "f(1,2,3)"), tr, {}, &st));
  EXPECT_EQ(st.bindings, 3u);
  EXPECT_GE(st.cells_visited, 4u);
}

TEST(Unify, IsGroundAndCollectVars) {
  Store s;
  const TermRef t = parse(s, "f(a,X,g(Y,X))");
  EXPECT_FALSE(is_ground(s, t));
  std::vector<TermRef> vars;
  collect_vars(s, t, vars);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(is_ground(s, parse(s, "f(a,b,g(1,[]))")));
}

// ---------------------------------------------------- checkpoint/rollback --

TEST(Checkpoint, RollbackRestoresBindingsAndArena) {
  Store s;
  Trail tr;
  const TermRef t = parse(s, "f(X,Y)");
  const Checkpoint cp = checkpoint(s, tr);
  // Bind X inside the checkpointed region to a term allocated after it.
  const TermRef x = s.deref(s.arg(s.deref(t), 0));
  ASSERT_TRUE(unify(s, x, parse(s, "g(1,2,3)"), tr));
  EXPECT_GT(s.size(), cp.store.cells);
  rollback(s, tr, cp);
  EXPECT_EQ(s.size(), cp.store.cells);
  EXPECT_EQ(tr.mark(), cp.trail);
  EXPECT_TRUE(s.is_unbound(x));
  EXPECT_EQ(to_string(s, t), "f(X,Y)");
}

TEST(Checkpoint, NestedRollbacksUnwindMonotonically) {
  Store s;
  Trail tr;
  const TermRef t = parse(s, "p(A,B,C)");
  const TermRef a = s.deref(s.arg(s.deref(t), 0));
  const TermRef b = s.deref(s.arg(s.deref(t), 1));
  const Checkpoint cp1 = checkpoint(s, tr);
  ASSERT_TRUE(unify(s, a, s.make_atom("one"), tr));
  const Checkpoint cp2 = checkpoint(s, tr);
  ASSERT_TRUE(unify(s, b, parse(s, "h(Z)"), tr));
  rollback(s, tr, cp2);
  EXPECT_EQ(to_string(s, t), "p(one,B,C)");
  rollback(s, tr, cp1);
  EXPECT_EQ(to_string(s, t), "p(A,B,C)");
}

// Property: a random unify/checkpoint/unify/rollback round trip restores
// every variable's rendering and the exact arena size (the invariant the
// in-place search engine rests on).
class CheckpointProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointProps, RoundTripIsExact) {
  std::uint64_t seed = GetParam() * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&seed](std::uint64_t n) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return (seed >> 33) % n;
  };
  for (int trial = 0; trial < 20; ++trial) {
    Store s;
    Trail tr;
    // A pool of terms with shared variables.
    std::vector<TermRef> pool;
    std::vector<TermRef> vars;
    for (int i = 0; i < 6; ++i) vars.push_back(s.make_var());
    for (int i = 0; i < 8; ++i) {
      const TermRef args[2] = {vars[next(vars.size())],
                               next(2) ? s.make_int(static_cast<std::int64_t>(next(5)))
                                       : vars[next(vars.size())]};
      pool.push_back(s.make_struct(intern(next(2) ? "f" : "g"), args));
    }
    // Pre-bind a little, then checkpoint.
    (void)unify(s, pool[next(pool.size())], pool[next(pool.size())], tr);
    const Checkpoint cp = checkpoint(s, tr);
    std::vector<std::string> before;
    for (const TermRef v : vars) before.push_back(to_string(s, v));
    const std::size_t size_before = s.size();
    // Arbitrary work above the checkpoint: new terms, more unifications.
    for (int i = 0; i < 5; ++i) {
      const TermRef fresh = parse(s, next(2) ? "k(V,W,[1,2])" : "g(U,U)");
      (void)unify(s, pool[next(pool.size())], fresh, tr);
    }
    rollback(s, tr, cp);
    EXPECT_EQ(s.size(), size_before);
    for (std::size_t i = 0; i < vars.size(); ++i)
      EXPECT_EQ(to_string(s, vars[i]), before[i]) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointProps,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Property-style sweep: unification is symmetric on a corpus of term pairs.
class UnifySymmetry : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(UnifySymmetry, SymmetricOutcome) {
  const auto& [ta, tb] = GetParam();
  Store s1;
  Trail tr1;
  const bool ab = unify(s1, parse(s1, ta), parse(s1, tb), tr1);
  Store s2;
  Trail tr2;
  const bool ba = unify(s2, parse(s2, tb), parse(s2, ta), tr2);
  EXPECT_EQ(ab, ba);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, UnifySymmetry,
    ::testing::Values(std::pair{"f(X,a)", "f(b,Y)"}, std::pair{"f(X,X)", "f(a,b)"},
                      std::pair{"g(X)", "g(h(X2))"}, std::pair{"[1,2|T]", "[H|T2]"},
                      std::pair{"f(a)", "g(a)"}, std::pair{"X", "Y"},
                      std::pair{"f(X,g(X))", "f(g(Y),Y)"},
                      std::pair{"p(1,2,3)", "p(A,B,C)"}));

}  // namespace
}  // namespace blog::term
