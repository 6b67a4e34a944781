// Prolog-syntax reader: tokenizer plus operator-precedence parser covering
// the subset of Edinburgh syntax used by the paper's examples and our
// workloads: facts, rules (`:-`), conjunction (`,`), lists, integers,
// arithmetic/comparison operators and quoted atoms.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blog/term/store.hpp"

namespace blog::term {

/// Error with 1-based line/column of the offending token.
class ParseError : public std::runtime_error {
public:
  ParseError(std::string msg, int line, int col)
      : std::runtime_error(std::move(msg)), line(line), col(col) {}
  int line, col;
};

/// One parsed clause-level term (`head :- body`, a fact, or a query body),
/// plus the named variables it mentions (for answer printing).
struct ReadTerm {
  TermRef term = kNullTerm;
  std::vector<std::pair<Symbol, TermRef>> variables;  // name -> var cell
};

/// Reads consecutive terms terminated by `.` from a program text. All terms
/// are built into the caller-supplied store.
class Reader {
public:
  /// Deepest nesting of sub-terms one clause may have — argument lists,
  /// parentheses, list elements and right-nested operators each count one
  /// level. A deeper clause raises ParseError instead of overflowing the
  /// stack of the recursive-descent parser: at this depth parsing uses
  /// under 1 MB of stack in an optimized build and about 4.5 MB under
  /// AddressSanitizer.
  static constexpr int kMaxDepth = 1500;

  Reader(std::string_view text, Store& store);

  /// Parse the next clause-level term; std::nullopt at end of input.
  /// Throws ParseError on malformed input.
  std::optional<ReadTerm> next();

  /// Parse all remaining terms.
  std::vector<ReadTerm> all();

private:
  struct Token {
    enum class Kind {
      Atom, Var, Int, Punct, End,  // End = clause-terminating '.'
      Eof,
    };
    Kind kind = Kind::Eof;
    std::string text;
    std::int64_t value = 0;
    int line = 1, col = 1;
  };

  // tokenizer
  void advance();
  [[nodiscard]] const Token& peek() const { return tok_; }
  Token take();
  // Both throw ParseError at the current token. Messages are built inside,
  // so the recursive parser frames hold no string temporaries.
  [[noreturn]] void fail(std::string_view msg) const;
  [[noreturn]] void fail_unexpected(std::string_view what) const;

  // parser
  TermRef parse(int max_prec);
  TermRef parse_primary(int max_prec);
  TermRef parse_args_or_atom(const Token& name);
  TermRef parse_list();
  TermRef var_for(const Token& tok);

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1, col_ = 1;
  Token tok_;
  Store& store_;
  int depth_ = 0;  // current parse() nesting, capped at kMaxDepth
  std::unordered_map<std::string, TermRef> var_names_;  // per-clause scope
  std::vector<std::pair<Symbol, TermRef>> var_order_;
};

/// Parse a single term from `text` (no trailing `.` required).
ReadTerm parse_term(std::string_view text, Store& store);

}  // namespace blog::term
