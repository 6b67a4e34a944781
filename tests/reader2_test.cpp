// Second-wave reader/writer tests: operator-precedence conformance and the
// parse→print→parse fixpoint over a syntax corpus.
#include <gtest/gtest.h>

#include "blog/term/reader.hpp"
#include "blog/term/writer.hpp"

namespace blog::term {
namespace {

std::string functor_shape(const Store& s, TermRef t) {
  t = s.deref(t);
  switch (s.tag(t)) {
    case Tag::Var: return "V";
    case Tag::Int: return std::to_string(s.int_value(t));
    case Tag::Atom: return symbol_name(s.atom_name(t));
    case Tag::Struct: {
      std::string out = symbol_name(s.functor(t)) + "(";
      for (std::uint32_t i = 0; i < s.arity(t); ++i) {
        if (i) out += ",";
        out += functor_shape(s, s.arg(t, i));
      }
      return out + ")";
    }
  }
  return "?";
}

std::string shape(std::string_view text) {
  Store s;
  return functor_shape(s, parse_term(text, s).term);
}

// ----------------------------------------------------- precedence corpus --

struct PrecCase {
  const char* text;
  const char* expected_shape;
};

class Precedence : public ::testing::TestWithParam<PrecCase> {};

TEST_P(Precedence, ParsesToExpectedShape) {
  EXPECT_EQ(shape(GetParam().text), GetParam().expected_shape);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Precedence,
    ::testing::Values(
        PrecCase{"1+2*3", "+(1,*(2,3))"},
        PrecCase{"(1+2)*3", "*(+(1,2),3)"},
        PrecCase{"1+2+3", "+(+(1,2),3)"},          // yfx left assoc
        PrecCase{"1-2-3", "-(-(1,2),3)"},
        PrecCase{"2*3//4", "//(*(2,3),4)"},
        PrecCase{"a , b , c", ",(a,,(b,c))"},      // xfy right assoc
        PrecCase{"X = 1+2", "=(V,+(1,2))"},
        PrecCase{"h :- b1, b2", ":-(h,,(b1,b2))"},
        PrecCase{"X is 2 mod 3", "is(V,mod(2,3))"},
        PrecCase{"f(a,b) = g(C)", "=(f(a,b),g(V))"},
        PrecCase{"1 < 2+3", "<(1,+(2,3))"},
        PrecCase{"- 3 + 4", "+(-3,4)"},            // negative literal folds
        PrecCase{"a ; b , c", ";(a,,(b,c))"},      // ; binds looser than ,
        PrecCase{"x -> y ; z", ";(->(x,y),z)"}));

// ------------------------------------------------------ fixpoint corpus --

class Fixpoint : public ::testing::TestWithParam<const char*> {};

TEST_P(Fixpoint, PrintParsePrintIsStable) {
  const WriteOptions wo{.quoted = true};
  Store s1;
  const TermRef t1 = parse_term(GetParam(), s1).term;
  const std::string p1 = to_string(s1, t1, wo);
  Store s2;
  const TermRef t2 = parse_term(p1, s2).term;
  const std::string p2 = to_string(s2, t2, wo);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(functor_shape(s1, t1), functor_shape(s2, t2));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Fixpoint,
    ::testing::Values("f(X,g(Y,[1,2|T]))", "a :- b, c, d",
                      "append([H|T],L,[H|R]) :- append(T,L,R)",
                      "X is (A+B)*(C-D)", "p((a,b),c)",
                      "f(-1,-2)", "[[1,2],[3,[4]]]", "N1 is N-1",
                      "safe(Q,[Q1|Qs],D) :- Q =\\= Q1, abs(Q-Q1) =\\= D",
                      "x(A) :- A = [_,_|_]", "'odd atom'('with space',B)"));

// ------------------------------------------------------------ edge cases --

TEST(ReaderEdge, ClauseDotRequiresLayout) {
  // `.` inside a functor name or list must not terminate the clause.
  Store s;
  Reader r("f(a). g(b).", s);
  EXPECT_EQ(r.all().size(), 2u);
}

TEST(ReaderEdge, EmptyInputYieldsNothing) {
  Store s;
  Reader r("   % only a comment\n", s);
  EXPECT_FALSE(r.next().has_value());
}

TEST(ReaderEdge, DeeplyNestedParens) {
  std::string text = "f(";
  for (int i = 0; i < 40; ++i) text += "g(";
  text += "x";
  for (int i = 0; i < 40; ++i) text += ")";
  text += ")";
  Store s;
  const TermRef t = parse_term(text, s).term;
  EXPECT_EQ(s.reachable_cells(t), 42u);
}

TEST(ReaderEdge, LongConjunctionChain) {
  std::string text = "h :- g0";
  for (int i = 1; i < 50; ++i) text += ", g" + std::to_string(i);
  Store s;
  const TermRef t = parse_term(text, s).term;
  EXPECT_TRUE(s.is_struct(s.deref(t)));
}

/// `f(f(...f(leaf)...))` with `depth` applications of `f`.
std::string nested(const std::string& f, int depth, const std::string& leaf) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += f + "(";
  text += leaf;
  text.append(static_cast<std::size_t>(depth), ')');
  return text;
}

TEST(ReaderEdge, NestingPastTheCapIsAParseErrorNotACrash) {
  Store s;
  EXPECT_THROW(parse_term(nested("f", 20000, "x"), s), ParseError);
  // Right-nested operators count too: a 20k-goal conjunction is as deep.
  std::string conj = "g";
  for (int i = 0; i < 20000; ++i) conj += ", g";
  EXPECT_THROW(parse_term(conj, s), ParseError);
}

TEST(ReaderEdge, NestingCapBoundary) {
  // The outermost term is level 1, so kMaxDepth - 1 applications fit.
  Store s;
  EXPECT_NO_THROW(parse_term(nested("f", Reader::kMaxDepth - 1, "x"), s));
  EXPECT_THROW(parse_term(nested("f", Reader::kMaxDepth, "x"), s),
               ParseError);
}

TEST(ReaderEdge, ThousandDeepTermParsesAndRoundTrips) {
  const std::string text = nested("s", 1000, "0");
  Store s;
  const TermRef t = parse_term(text, s).term;
  EXPECT_EQ(s.reachable_cells(t), 1001u);
  EXPECT_EQ(to_string(s, t), text);
}

TEST(ReaderEdge, VarScopesDoNotLeakAcrossClauses) {
  Store s;
  Reader r("p(Same). q(Same).", s);
  const auto clauses = r.all();
  ASSERT_EQ(clauses.size(), 2u);
  const TermRef v1 = s.deref(s.arg(s.deref(clauses[0].term), 0));
  const TermRef v2 = s.deref(s.arg(s.deref(clauses[1].term), 0));
  EXPECT_NE(v1, v2);
  EXPECT_EQ(s.var_name(v1), s.var_name(v2));  // same *name*, different cell
}

TEST(WriterEdge, OperatorsReparenthesizeCorrectly) {
  // (1+2)*3 must print with parens, 1+(2*3) must not need them.
  Store s;
  const TermRef a = parse_term("(1+2)*3", s).term;
  EXPECT_EQ(to_string(s, a), "(1+2)*3");
  const TermRef b = parse_term("1+2*3", s).term;
  EXPECT_EQ(to_string(s, b), "1+2*3");
}

TEST(WriterEdge, NestedListsAndTails) {
  Store s;
  const TermRef t = parse_term("[[a],[b|X],c|Y]", s).term;
  EXPECT_EQ(to_string(s, t), "[[a],[b|X],c|Y]");
}

}  // namespace
}  // namespace blog::term
