#include "blog/term/reader.hpp"

#include <array>
#include <cctype>

namespace blog::term {
namespace {

// Operator table (Edinburgh subset). `xfx/xfy/yfx` encoded through the
// argument precedences.
enum class OpType { xfx, xfy, yfx, fy, fx };

struct OpDef {
  int prec;
  OpType type;
};

const std::unordered_map<std::string, OpDef>& infix_ops() {
  static const auto* t = new std::unordered_map<std::string, OpDef>{
      {":-", {1200, OpType::xfx}}, {"?-", {1200, OpType::fx}},
      {";", {1100, OpType::xfy}},  {"->", {1050, OpType::xfy}},
      {",", {1000, OpType::xfy}},  {"=", {700, OpType::xfx}},
      {"\\=", {700, OpType::xfx}}, {"==", {700, OpType::xfx}},
      {"\\==", {700, OpType::xfx}}, {"is", {700, OpType::xfx}},
      {"<", {700, OpType::xfx}},   {">", {700, OpType::xfx}},
      {"=<", {700, OpType::xfx}},  {">=", {700, OpType::xfx}},
      {"=:=", {700, OpType::xfx}}, {"=\\=", {700, OpType::xfx}},
      {"@<", {700, OpType::xfx}},  {"@>", {700, OpType::xfx}},
      {"+", {500, OpType::yfx}},   {"-", {500, OpType::yfx}},
      {"*", {400, OpType::yfx}},   {"//", {400, OpType::yfx}},
      {"/", {400, OpType::yfx}},   {"mod", {400, OpType::yfx}},
  };
  return *t;
}

const std::unordered_map<std::string, OpDef>& prefix_ops() {
  static const auto* t = new std::unordered_map<std::string, OpDef>{
      {"-", {200, OpType::fy}},
      {"+", {200, OpType::fy}},
      {"\\+", {900, OpType::fy}},
      {"?-", {1200, OpType::fx}},
      {":-", {1200, OpType::fx}},
  };
  return *t;
}

bool is_symbol_char(char c) {
  static constexpr std::string_view kSyms = "+-*/\\^<>=~:.?@#&";
  return kSyms.find(c) != std::string_view::npos;
}

bool is_solo(char c) { return c == ',' || c == ';' || c == '!' || c == '|'; }

}  // namespace

Reader::Reader(std::string_view text, Store& store) : text_(text), store_(store) {
  advance();
}

void Reader::fail(std::string_view msg) const {
  throw ParseError(std::string(msg), tok_.line, tok_.col);
}

void Reader::fail_unexpected(std::string_view what) const {
  fail("unexpected '" + std::string(what) + "'");
}

void Reader::advance() {
  // Skip whitespace and comments.
  for (;;) {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      if (text_[pos_] == '\n') {
        ++line_;
        col_ = 1;
      } else {
        ++col_;
      }
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '%') {
      while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      continue;
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '/' && text_[pos_ + 1] == '*') {
      pos_ += 2;
      while (pos_ + 1 < text_.size() &&
             !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
        if (text_[pos_] == '\n') {
          ++line_;
          col_ = 1;
        }
        ++pos_;
      }
      pos_ = std::min(pos_ + 2, text_.size());
      continue;
    }
    break;
  }

  tok_ = Token{};
  tok_.line = line_;
  tok_.col = col_;
  if (pos_ >= text_.size()) {
    tok_.kind = Token::Kind::Eof;
    return;
  }

  const char c = text_[pos_];
  auto starts_term = [&](std::size_t i) {
    // A '.' ends a clause when followed by layout or EOF.
    return i + 1 >= text_.size() ||
           std::isspace(static_cast<unsigned char>(text_[i + 1])) ||
           text_[i + 1] == '%';
  };

  if (c == '.' && starts_term(pos_)) {
    tok_.kind = Token::Kind::End;
    tok_.text.assign(1, '.');
    ++pos_;
    ++col_;
    return;
  }

  if (std::isdigit(static_cast<unsigned char>(c))) {
    std::size_t end = pos_;
    std::int64_t v = 0;
    while (end < text_.size() && std::isdigit(static_cast<unsigned char>(text_[end]))) {
      v = v * 10 + (text_[end] - '0');
      ++end;
    }
    tok_.kind = Token::Kind::Int;
    tok_.value = v;
    tok_.text = std::string(text_.substr(pos_, end - pos_));
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    return;
  }

  if (std::islower(static_cast<unsigned char>(c))) {
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[end])) || text_[end] == '_'))
      ++end;
    tok_.kind = Token::Kind::Atom;
    tok_.text = std::string(text_.substr(pos_, end - pos_));
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    return;
  }

  if (std::isupper(static_cast<unsigned char>(c)) || c == '_') {
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[end])) || text_[end] == '_'))
      ++end;
    tok_.kind = Token::Kind::Var;
    tok_.text = std::string(text_.substr(pos_, end - pos_));
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    return;
  }

  if (c == '\'') {
    std::string out;
    std::size_t i = pos_ + 1;
    for (; i < text_.size(); ++i) {
      if (text_[i] == '\'') {
        if (i + 1 < text_.size() && text_[i + 1] == '\'') {
          out.push_back('\'');
          ++i;
          continue;
        }
        break;
      }
      out.push_back(text_[i]);
    }
    if (i >= text_.size()) fail("unterminated quoted atom");
    tok_.kind = Token::Kind::Atom;
    tok_.text = std::move(out);
    col_ += static_cast<int>(i + 1 - pos_);
    pos_ = i + 1;
    return;
  }

  if (is_solo(c) || c == '(' || c == ')' || c == '[' || c == ']' || c == '{' ||
      c == '}') {
    tok_.kind = (c == ',' || c == ';' || c == '|' || c == '!')
                    ? Token::Kind::Atom
                    : Token::Kind::Punct;
    if (c == '(' || c == ')' || c == '[' || c == ']' || c == '{' || c == '}' ||
        c == '|') {
      tok_.kind = Token::Kind::Punct;
    }
    tok_.text = std::string(1, c);
    ++pos_;
    ++col_;
    return;
  }

  if (is_symbol_char(c)) {
    std::size_t end = pos_;
    while (end < text_.size() && is_symbol_char(text_[end])) ++end;
    tok_.kind = Token::Kind::Atom;
    tok_.text = std::string(text_.substr(pos_, end - pos_));
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    return;
  }

  fail("unexpected character '" + std::string(1, c) + "'");
}

Reader::Token Reader::take() {
  Token t = tok_;
  advance();
  return t;
}

TermRef Reader::var_for(const Token& tok) {
  if (tok.text == "_") return store_.make_var(intern("_"));
  if (auto it = var_names_.find(tok.text); it != var_names_.end()) return it->second;
  const Symbol name = intern(tok.text);
  const TermRef v = store_.make_var(name);
  var_names_.emplace(tok.text, v);
  var_order_.emplace_back(name, v);
  return v;
}

TermRef Reader::parse_list() {
  // '[' already consumed.
  if (peek().kind == Token::Kind::Punct && peek().text == "]") {
    advance();
    return store_.make_atom(nil_symbol());
  }
  std::vector<TermRef> items;
  items.push_back(parse(999));
  while (peek().kind == Token::Kind::Atom && peek().text == ",") {
    advance();
    items.push_back(parse(999));
  }
  TermRef tail = kNullTerm;
  if (peek().kind == Token::Kind::Punct && peek().text == "|") {
    advance();
    tail = parse(999);
  }
  if (!(peek().kind == Token::Kind::Punct && peek().text == "]"))
    fail("expected ']' in list");
  advance();
  return store_.make_list(items, tail);
}

TermRef Reader::parse_args_or_atom(const Token& name) {
  // A compound only when '(' immediately follows (no layout between was not
  // tracked; acceptable for our workloads).
  if (peek().kind == Token::Kind::Punct && peek().text == "(") {
    advance();
    std::vector<TermRef> args;
    args.push_back(parse(999));
    while (peek().kind == Token::Kind::Atom && peek().text == ",") {
      advance();
      args.push_back(parse(999));
    }
    if (!(peek().kind == Token::Kind::Punct && peek().text == ")"))
      fail("expected ')' after arguments");
    advance();
    return store_.make_struct(intern(name.text), args);
  }
  return store_.make_atom(intern(name.text));
}

TermRef Reader::parse_primary(int max_prec) {
  const Token t = take();
  switch (t.kind) {
    case Token::Kind::Int:
      return store_.make_int(t.value);
    case Token::Kind::Var:
      return var_for(t);
    case Token::Kind::Punct:
      if (t.text == "(") {
        const TermRef inner = parse(1200);
        if (!(peek().kind == Token::Kind::Punct && peek().text == ")"))
          fail("expected ')'");
        advance();
        return inner;
      }
      if (t.text == "[") return parse_list();
      fail_unexpected(t.text);
    case Token::Kind::Atom: {
      // Prefix operator? Only when a term can follow.
      if (auto it = prefix_ops().find(t.text); it != prefix_ops().end()) {
        const auto& [prec, type] = it->second;
        const bool followable =
            peek().kind == Token::Kind::Int || peek().kind == Token::Kind::Var ||
            (peek().kind == Token::Kind::Atom && peek().text != ",") ||
            (peek().kind == Token::Kind::Punct &&
             (peek().text == "(" || peek().text == "["));
        // `- 3` folds to a negative literal; `-(a,b)` parses as a struct.
        if (followable && prec <= max_prec &&
            !(peek().kind == Token::Kind::Punct && peek().text == "(")) {
          const int sub = type == OpType::fy ? prec : prec - 1;
          const TermRef arg = parse(sub);
          if (t.text == "-" && store_.is_int(store_.deref(arg)))
            return store_.make_int(-store_.int_value(store_.deref(arg)));
          const TermRef args[1] = {arg};
          return store_.make_struct(intern(t.text), args);
        }
      }
      return parse_args_or_atom(t);
    }
    case Token::Kind::End:
    case Token::Kind::Eof:
      fail("unexpected end of clause");
  }
  fail("unreachable");
}

TermRef Reader::parse(int max_prec) {
  struct DepthGuard {
    int& depth;
    ~DepthGuard() { --depth; }
  } guard{++depth_};
  if (depth_ > kMaxDepth)
    fail("term nested too deeply");
  TermRef left = parse_primary(max_prec);
  int left_prec = 0;
  for (;;) {
    if (peek().kind != Token::Kind::Atom) break;
    auto it = infix_ops().find(peek().text);
    if (it == infix_ops().end()) break;
    const auto& [prec, type] = it->second;
    if (prec > max_prec) break;
    const int lmax = type == OpType::yfx ? prec : prec - 1;
    const int rmax = type == OpType::xfy ? prec : prec - 1;
    if (left_prec > lmax) break;
    const Token op = take();
    const TermRef right = parse(rmax);
    const TermRef args[2] = {left, right};
    left = store_.make_struct(intern(op.text), args);
    left_prec = prec;
  }
  return left;
}

std::optional<ReadTerm> Reader::next() {
  var_names_.clear();
  var_order_.clear();
  if (peek().kind == Token::Kind::Eof) return std::nullopt;
  ReadTerm out;
  out.term = parse(1200);
  if (peek().kind != Token::Kind::End) fail("expected '.' at end of clause");
  advance();
  out.variables = var_order_;
  return out;
}

std::vector<ReadTerm> Reader::all() {
  std::vector<ReadTerm> out;
  while (auto t = next()) out.push_back(std::move(*t));
  return out;
}

ReadTerm parse_term(std::string_view text, Store& store) {
  std::string buf{text};
  // Ensure a clause terminator so `next()` accepts it.
  buf += " .";
  Reader r(buf, store);
  auto t = r.next();
  if (!t) throw ParseError("empty term", 1, 1);
  return *t;
}

}  // namespace blog::term
