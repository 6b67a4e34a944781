#include "blog/term/store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <utility>

namespace blog::term {

TermRef Store::make_var(Symbol name) {
  const auto idx = static_cast<TermRef>(cells_.size());
  cells_.push_back(Cell{Tag::Var, idx, name.id(), 0});
  return idx;
}

TermRef Store::make_atom(Symbol name) {
  const auto idx = static_cast<TermRef>(cells_.size());
  cells_.push_back(Cell{Tag::Atom, name.id(), 0, 0});
  return idx;
}

TermRef Store::make_int(std::int64_t v) {
  const auto idx = static_cast<TermRef>(cells_.size());
  const auto u = static_cast<std::uint64_t>(v);
  cells_.push_back(Cell{Tag::Int, static_cast<std::uint32_t>(u),
                        static_cast<std::uint32_t>(u >> 32), 0});
  return idx;
}

TermRef Store::make_struct(Symbol functor, std::span<const TermRef> args) {
  assert(!args.empty() && "0-arity structures must be atoms");
  assert((std::less<>{}(args.data(), args_.data()) ||
          !std::less<>{}(args.data(), args_.data() + args_.size())) &&
         "args must not alias the argument pool");
  const auto off = static_cast<std::uint32_t>(args_.size());
  args_.resize(off + args.size());
  std::copy(args.begin(), args.end(), args_.begin() + off);
  const auto idx = static_cast<TermRef>(cells_.size());
  cells_.push_back(Cell{Tag::Struct, functor.id(), off,
                        static_cast<std::uint32_t>(args.size())});
  return idx;
}

TermRef Store::make_list(std::span<const TermRef> items, TermRef tail) {
  TermRef t = tail == kNullTerm ? make_atom(nil_symbol()) : tail;
  for (std::size_t i = items.size(); i-- > 0;) {
    const TermRef pair[2] = {items[i], t};
    t = make_struct(cons_symbol(), pair);
  }
  return t;
}

TermRef Store::deref(TermRef t) const {
  while (cells_[t].tag == Tag::Var && cells_[t].a != t) t = cells_[t].a;
  return t;
}

const TermRef* VarMap::find(TermRef key) const {
  if (slots_.empty()) return nullptr;
  for (std::size_t i = home(key);; i = (i + 1) & mask()) {
    const Slot& s = slots_[i];
    if (s.stamp != stamp_) return nullptr;
    if (s.key == key) return &s.value;
  }
}

void VarMap::clear() {
  size_ = 0;
  if (++stamp_ != 0) return;
  // Wrapped: a stale slot could now carry the current stamp. Reset them all.
  for (Slot& s : slots_) s.stamp = 0;
  stamp_ = 1;
}

void VarMap::grow() {
  const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(cap));
  const Stamp live = stamp_;
  stamp_ = 1;
  size_ = 0;
  for (const Slot& s : old)
    if (s.stamp == live) (*this)[s.key] = s.value;
}

namespace {

/// LIFO of trivially copyable values held in an inline buffer until it
/// outgrows `N` entries, then on the heap: copying a shallow term
/// allocates nothing, and a deep one is bounded only by memory.
template <class T, std::size_t N>
class InlineStack {
public:
  InlineStack() = default;
  InlineStack(const InlineStack&) = delete;
  InlineStack& operator=(const InlineStack&) = delete;

  void push(const T& v) {
    if (size_ == cap_) spill();
    data_[size_++] = v;
  }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  void shrink_to(std::size_t n) { size_ = n; }

private:
  void spill() {
    if (data_ == inline_) heap_.assign(inline_, inline_ + size_);
    cap_ *= 2;
    heap_.resize(cap_);
    data_ = heap_.data();
  }

  T inline_[N];  // left uninitialized: only entries below size_ are read
  T* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
  std::vector<T> heap_;
};

/// The one import traversal, shared by the live view and (kAsOf) the
/// checkpoint view, in which any variable in `undone` counts as unbound:
/// its binding was made after the checkpoint being reconstructed. An
/// explicit stack replaces recursion but keeps the recursive walk's
/// post-order layout: a structure's arguments are copied left to right,
/// each completely, before its own cell.
template <bool kAsOf>
TermRef import_impl(Store& dst, const Store& src, TermRef root,
                    VarMap& var_map,
                    const std::unordered_set<TermRef>* undone) {
  // Follows bindings from `t` (updated in place) and returns its cell.
  auto resolve = [&](TermRef& t) -> const Cell& {
    for (;;) {
      const Cell& c = src.cell(t);
      if (c.tag != Tag::Var || c.a == t) return c;
      if constexpr (kAsOf) {
        if (undone->contains(t)) return c;
      }
      t = c.a;
    }
  };
  // Copies a resolved non-structure cell.
  auto copy_leaf = [&](TermRef t, const Cell& c) -> TermRef {
    switch (c.tag) {
      case Tag::Var: {
        TermRef& v = var_map[t];
        if (v == kNullTerm) v = dst.make_var(Symbol{c.b});
        return v;
      }
      case Tag::Atom:
        return dst.make_atom(Symbol{c.a});
      case Tag::Int:
        return dst.make_int(src.int_value(t));
      case Tag::Struct:
        break;
    }
    return kNullTerm;  // unreachable
  };

  const Cell& rc = resolve(root);
  if (rc.tag != Tag::Struct) return copy_leaf(root, rc);

  struct Frame {
    const TermRef* args;   // source arguments of the structure
    std::uint32_t arity;
    std::uint32_t functor;
    std::uint32_t next;    // next argument to copy
    std::uint32_t base;    // where its copied arguments start in `done`
  };
  InlineStack<Frame, 32> open;
  InlineStack<TermRef, 64> done;  // copied arguments of the open frames
  open.push({src.args(root).data(), rc.c, rc.a, 0, 0});
  for (;;) {
    Frame& f = open.back();
    if (f.next < f.arity) {
      TermRef a = f.args[f.next++];
      const Cell& ac = resolve(a);
      if (ac.tag == Tag::Struct)
        open.push({src.args(a).data(), ac.c, ac.a, 0,
                   static_cast<std::uint32_t>(done.size())});
      else
        done.push(copy_leaf(a, ac));
      continue;
    }
    const TermRef copy =
        dst.make_struct(Symbol{f.functor}, {done.data() + f.base, f.arity});
    done.shrink_to(f.base);
    open.shrink_to(open.size() - 1);
    if (open.size() == 0) return copy;
    done.push(copy);
  }
}

}  // namespace

TermRef Store::import(const Store& src, TermRef t, VarMap& var_map) {
  return import_impl<false>(*this, src, t, var_map, nullptr);
}

void Store::truncate(const Watermark& m) {
  assert(m.cells <= cells_.size() && m.args <= args_.size());
  cells_.resize(m.cells);
  args_.resize(m.args);
}

void Store::compact_into(Store& dst, std::span<const TermRef> roots,
                         std::vector<TermRef>& out, VarMap& var_map) const {
  var_map.clear();
  out.reserve(out.size() + roots.size());
  for (const TermRef r : roots) out.push_back(dst.import(*this, r, var_map));
}

void Store::compact_into_as_of(Store& dst, std::span<const TermRef> roots,
                               std::vector<TermRef>& out,
                               const std::unordered_set<TermRef>& undone,
                               VarMap& var_map) const {
  if (undone.empty()) return compact_into(dst, roots, out, var_map);
  var_map.clear();
  out.reserve(out.size() + roots.size());
  for (const TermRef r : roots)
    out.push_back(import_impl<true>(dst, *this, r, var_map, &undone));
}

bool Store::equal(const Store& sa, TermRef a, const Store& sb, TermRef b) {
  a = sa.deref(a);
  b = sb.deref(b);
  const Cell& ca = sa.cells_[a];
  const Cell& cb = sb.cells_[b];
  if (ca.tag != cb.tag) return false;
  switch (ca.tag) {
    case Tag::Var:
      return &sa == &sb && a == b;
    case Tag::Atom:
      return ca.a == cb.a;
    case Tag::Int:
      return sa.int_value(a) == sb.int_value(b);
    case Tag::Struct: {
      if (ca.a != cb.a || ca.c != cb.c) return false;
      for (std::uint32_t i = 0; i < ca.c; ++i)
        if (!equal(sa, sa.args_[ca.b + i], sb, sb.args_[cb.b + i])) return false;
      return true;
    }
  }
  return false;
}

int Store::compare(const Store& sa, TermRef a, const Store& sb, TermRef b) {
  a = sa.deref(a);
  b = sb.deref(b);
  const Cell& ca = sa.cells_[a];
  const Cell& cb = sb.cells_[b];
  auto rank = [](Tag t) {
    switch (t) {
      case Tag::Var: return 0;
      case Tag::Int: return 1;
      case Tag::Atom: return 2;
      case Tag::Struct: return 3;
    }
    return 4;
  };
  if (rank(ca.tag) != rank(cb.tag)) return rank(ca.tag) < rank(cb.tag) ? -1 : 1;
  switch (ca.tag) {
    case Tag::Var:
      if (&sa == &sb) return a < b ? (a == b ? 0 : -1) : (a == b ? 0 : 1);
      return &sa < &sb ? -1 : 1;
    case Tag::Int: {
      const auto va = sa.int_value(a), vb = sb.int_value(b);
      return va < vb ? -1 : va > vb ? 1 : 0;
    }
    case Tag::Atom: {
      const auto& na = symbol_name(Symbol{ca.a});
      const auto& nb = symbol_name(Symbol{cb.a});
      return na < nb ? -1 : na > nb ? 1 : 0;
    }
    case Tag::Struct: {
      if (ca.c != cb.c) return ca.c < cb.c ? -1 : 1;
      const auto& na = symbol_name(Symbol{ca.a});
      const auto& nb = symbol_name(Symbol{cb.a});
      if (na != nb) return na < nb ? -1 : 1;
      for (std::uint32_t i = 0; i < ca.c; ++i) {
        const int r = compare(sa, sa.args_[ca.b + i], sb, sb.args_[cb.b + i]);
        if (r != 0) return r;
      }
      return 0;
    }
  }
  return 0;
}

std::size_t Store::reachable_cells(TermRef t) const {
  t = deref(t);
  const Cell& c = cells_[t];
  std::size_t n = 1;
  if (c.tag == Tag::Struct) {
    for (std::uint32_t i = 0; i < c.c; ++i) n += reachable_cells(args_[c.b + i]);
  }
  return n;
}

Symbol nil_symbol() {
  static const Symbol s = intern("[]");
  return s;
}
Symbol cons_symbol() {
  static const Symbol s = intern(".");
  return s;
}
Symbol comma_symbol() {
  static const Symbol s = intern(",");
  return s;
}
Symbol true_symbol() {
  static const Symbol s = intern("true");
  return s;
}

}  // namespace blog::term
