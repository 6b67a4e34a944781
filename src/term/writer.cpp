#include "blog/term/writer.hpp"

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

namespace blog::term {
namespace {

bool atom_needs_quotes(const std::string& name) {
  if (name.empty()) return true;
  if (name == "[]" || name == "!" || name == ";" || name == ",") return false;
  if (std::islower(static_cast<unsigned char>(name[0]))) {
    for (char c : name)
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return true;
    return false;
  }
  static constexpr std::string_view kSyms = "+-*/\\^<>=~:.?@#&";
  for (char c : name)
    if (kSyms.find(c) == std::string_view::npos) return true;
  return false;
}

/// One pending step of the writer: a term still to write, a list tail
/// still to continue, or literal text still to emit.
struct Step {
  enum Kind : std::uint8_t { Term, ListTail, Text };
  Kind kind;
  int prec;          ///< Term: the context's maximum priority
  TermRef t;         ///< Term / ListTail
  const char* text;  ///< Text: a string literal
};

/// Explicit-stack writer: answers can nest far deeper than the native
/// stack allows, so no step recurses. A step pushes its parts in reverse
/// so they pop in output order.
struct Writer {
  const Store& s;
  const WriteOptions& opts;
  std::string& out;
  std::vector<Step>& stack;

  void term(TermRef t, int prec) {
    stack.push_back({Step::Term, prec, t, nullptr});
  }
  void text(const char* str) {
    stack.push_back({Step::Text, 0, kNullTerm, str});
  }

  void atom(Symbol sym) {
    const std::string& name = symbol_name(sym);
    if (opts.quoted && atom_needs_quotes(name)) {
      out += '\'';
      for (char c : name) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += '\'';
    } else {
      out += name;
    }
  }

  void run(TermRef root) {
    term(root, 1200);
    while (!stack.empty()) {
      const Step step = stack.back();
      stack.pop_back();
      switch (step.kind) {
        case Step::Text: out += step.text; break;
        case Step::ListTail: list_tail(step.t); break;
        case Step::Term: write(step.t, step.prec); break;
      }
    }
  }

  // The rest of a list after an element: more elements, a `|Tail`, or
  // nothing (the closing bracket is already on the stack).
  void list_tail(TermRef tail) {
    tail = s.deref(tail);
    if (s.is_struct(tail) && s.functor(tail) == cons_symbol() &&
        s.arity(tail) == 2) {
      out += ',';
      stack.push_back({Step::ListTail, 0, s.arg(tail, 1), nullptr});
      term(s.arg(tail, 0), 999);
    } else if (!(s.is_atom(tail) && s.atom_name(tail) == nil_symbol())) {
      out += '|';
      term(tail, 999);
    }
  }

  void write(TermRef t, int max_prec) {
    t = s.deref(t);
    switch (s.tag(t)) {
      case Tag::Var: {
        const Symbol name = s.var_name(t);
        if (!name.empty() && symbol_name(name) != "_") {
          out += symbol_name(name);
        } else {
          out += "_G";
          out += std::to_string(t);
        }
        return;
      }
      case Tag::Atom:
        atom(s.atom_name(t));
        return;
      case Tag::Int:
        out += std::to_string(s.int_value(t));
        return;
      case Tag::Struct:
        break;
    }

    const Symbol f = s.functor(t);
    const auto ar = s.arity(t);
    const std::string& name = symbol_name(f);

    // Lists.
    if (f == cons_symbol() && ar == 2) {
      out += '[';
      text("]");
      stack.push_back({Step::ListTail, 0, s.arg(t, 1), nullptr});
      term(s.arg(t, 0), 999);
      return;
    }

    // Binary operators we read back in.
    struct Op { const char* name; int prec; int lmax; int rmax; };
    static constexpr Op kOps[] = {
        {":-", 1200, 1199, 1199}, {";", 1100, 1099, 1100},
        {"->", 1050, 1049, 1050}, {",", 1000, 999, 1000},
        {"=", 700, 699, 699},     {"\\=", 700, 699, 699},
        {"==", 700, 699, 699},    {"is", 700, 699, 699},
        {"<", 700, 699, 699},     {">", 700, 699, 699},
        {"=<", 700, 699, 699},    {">=", 700, 699, 699},
        {"=:=", 700, 699, 699},   {"=\\=", 700, 699, 699},
        {"+", 500, 500, 499},     {"-", 500, 500, 499},
        {"*", 400, 400, 399},     {"//", 400, 400, 399},
        {"mod", 400, 400, 399},
    };
    if (ar == 2) {
      for (const Op& op : kOps) {
        if (name == op.name) {
          const bool paren = op.prec > max_prec;
          if (paren) {
            out += '(';
            text(")");
          }
          term(s.arg(t, 1), op.rmax);
          const bool alpha = std::isalpha(static_cast<unsigned char>(name[0]));
          if (alpha) text(" ");
          text(op.name);
          if (alpha) text(" ");
          term(s.arg(t, 0), op.lmax);
          return;
        }
      }
    }
    if (ar == 1 && (name == "-" || name == "\\+")) {
      const bool paren = 200 > max_prec;
      if (paren) {
        out += '(';
        text(")");
      }
      out += name;
      if (name == "\\+") out += ' ';
      term(s.arg(t, 0), 200);
      return;
    }

    atom(f);
    out += '(';
    text(")");
    for (std::uint32_t i = ar; i-- > 0;) {
      term(s.arg(t, i), 999);
      if (i) text(",");
    }
  }
};

}  // namespace

std::string to_string(const Store& store, TermRef t, const WriteOptions& opts) {
  // One step stack per thread, reused: rendering a small answer allocates
  // only its text. A stack a very deep term grew is released afterwards.
  constexpr std::size_t kKeptSteps = 4096;
  thread_local std::vector<Step> stack;
  std::string out;
  Writer{store, opts, out, stack}.run(t);
  if (stack.capacity() > kKeptSteps) stack = {};
  return out;
}

}  // namespace blog::term
