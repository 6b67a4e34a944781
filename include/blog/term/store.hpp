// Term representation.
//
// Terms live in a `Store` arena and are referred to by 32-bit indices
// (`TermRef`). A worker runs a whole derivation destructively inside one
// Store, undoing bindings through the trail and truncating the arena back
// to a `Watermark` when it backtracks past a choice point. Independent
// deep copies (`compact_into`) are made only when a subtree migrates to
// another processor or a solution is recorded — the copy-on-migration
// style of OR-parallel systems (the paper notes that "most structure
// sharing schemes are difficult to implement in parallel", §6, and its
// machine copies state between processors' local memories).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "blog/support/symbol.hpp"

namespace blog::term {

using TermRef = std::uint32_t;
inline constexpr TermRef kNullTerm = 0xffffffffu;

enum class Tag : std::uint8_t {
  Var,     // logic variable; `a` = binding (self if unbound), `b` = name symbol
  Atom,    // `a` = symbol
  Int,     // `a`/`b` = low/high 32 bits of a signed 64-bit value
  Struct,  // `a` = functor symbol, `b` = arg offset, `c` = arity
};

struct Cell {
  Tag tag = Tag::Var;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};

/// Variable renaming map of a copy: source variable → its fresh copy in
/// the destination store (`Store::import`, `compact_into`). Flat open
/// addressing with linear probing, sized by the number of variables
/// copied (never by the source store). Every slot carries a generation
/// stamp, so `clear()` is O(1) and a map reused across copies (one per
/// consult, one per Runner) keeps its capacity without rehashing.
class VarMap {
public:
  /// Generation stamp. 16 bits keep a slot at 12 bytes; the rare wrap
  /// (every 65535 clears) resets all stamps once.
  using Stamp = std::uint16_t;

  /// The value mapped to `key`, inserted as `kNullTerm` when absent.
  TermRef& operator[](TermRef key) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.stamp != stamp_) {
        s = Slot{key, kNullTerm, stamp_};
        ++size_;
        return s.value;
      }
      if (s.key == key) return s.value;
    }
  }
  /// The value mapped to `key`, or nullptr.
  [[nodiscard]] const TermRef* find(TermRef key) const;
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Forget every entry; capacity is kept.
  void clear();

private:
  struct Slot {
    TermRef key = 0;
    TermRef value = kNullTerm;
    Stamp stamp = 0;  ///< live iff equal to the map's current stamp
  };
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(TermRef key) const {
    // Fibonacci hashing: the top bits of the product spread consecutive
    // cell indices (the usual keys) across the table.
    const std::uint32_t h = key * 0x9E3779B1u;
    return h >> shift_;
  }
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::size_t size_ = 0;
  unsigned shift_ = 32;      ///< 32 - log2(slots_.size())
  Stamp stamp_ = 1;          ///< 0 marks a never-used slot
};

/// Arena of term cells plus argument pool. Movable, cheap to create.
class Store {
public:
  Store() = default;

  // --- construction ------------------------------------------------------
  TermRef make_var(Symbol name = Symbol{});
  TermRef make_atom(Symbol name);
  TermRef make_atom(std::string_view name) { return make_atom(intern(name)); }
  TermRef make_int(std::int64_t v);
  /// `args` must not view this store's own argument pool (appending to the
  /// pool may reallocate it).
  TermRef make_struct(Symbol functor, std::span<const TermRef> args);
  TermRef make_list(std::span<const TermRef> items, TermRef tail = kNullTerm);

  // --- inspection (callers should deref first) ---------------------------
  [[nodiscard]] const Cell& cell(TermRef t) const { return cells_[t]; }
  [[nodiscard]] Tag tag(TermRef t) const { return cells_[t].tag; }
  [[nodiscard]] bool is_var(TermRef t) const { return cells_[t].tag == Tag::Var; }
  [[nodiscard]] bool is_atom(TermRef t) const { return cells_[t].tag == Tag::Atom; }
  [[nodiscard]] bool is_int(TermRef t) const { return cells_[t].tag == Tag::Int; }
  [[nodiscard]] bool is_struct(TermRef t) const { return cells_[t].tag == Tag::Struct; }

  [[nodiscard]] Symbol atom_name(TermRef t) const { return Symbol{cells_[t].a}; }
  [[nodiscard]] Symbol functor(TermRef t) const { return Symbol{cells_[t].a}; }
  [[nodiscard]] std::uint32_t arity(TermRef t) const {
    return cells_[t].tag == Tag::Struct ? cells_[t].c : 0;
  }
  [[nodiscard]] TermRef arg(TermRef t, std::uint32_t i) const {
    return args_[cells_[t].b + i];
  }
  [[nodiscard]] std::span<const TermRef> args(TermRef t) const {
    return {args_.data() + cells_[t].b, cells_[t].c};
  }
  [[nodiscard]] std::int64_t int_value(TermRef t) const {
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(cells_[t].b) << 32) | cells_[t].a);
  }
  [[nodiscard]] Symbol var_name(TermRef t) const { return Symbol{cells_[t].b}; }

  /// Follow variable bindings to the representative term.
  [[nodiscard]] TermRef deref(TermRef t) const;

  /// Bind an *unbound* variable cell to `to`. Does not trail; see unify.hpp.
  void bind(TermRef var, TermRef to) { cells_[var].a = to; }
  /// Reset a variable cell to unbound (trail undo).
  void unbind(TermRef var) { cells_[var].a = var; }
  [[nodiscard]] bool is_unbound(TermRef t) const {
    return cells_[t].tag == Tag::Var && cells_[t].a == t;
  }

  [[nodiscard]] std::size_t size() const { return cells_.size(); }

  // --- checkpoint / rollback ---------------------------------------------
  /// Arena high-water mark. Cells and argument slots allocated after a
  /// watermark can be discarded wholesale with `truncate` once every
  /// binding made since has been undone through the trail.
  struct Watermark {
    std::uint32_t cells = 0;
    std::uint32_t args = 0;

    friend bool operator==(const Watermark&, const Watermark&) = default;
  };
  [[nodiscard]] Watermark watermark() const {
    return {static_cast<std::uint32_t>(cells_.size()),
            static_cast<std::uint32_t>(args_.size())};
  }
  /// Drop every cell/arg allocated after `m`. The caller must first undo
  /// (via the trail) any binding of a pre-`m` variable made after `m`;
  /// cells above the watermark need no undo, they simply disappear.
  void truncate(const Watermark& m);
  /// Drop everything (fresh arena, capacity retained).
  void clear() {
    cells_.clear();
    args_.clear();
  }

  /// Deep-copy `t` (in `src`) into this store, dereferencing bindings along
  /// the way. Unbound source variables map to fresh variables here;
  /// `var_map` makes the mapping stable across multiple copies (clause
  /// renaming, answer extraction). Cells are laid out in post-order
  /// (arguments before their structure); the walk is iterative, so term
  /// depth is bounded by memory, not by the call stack.
  TermRef import(const Store& src, TermRef t, VarMap& var_map);

  /// Export exactly the cells reachable from `roots` into `dst` (one term
  /// per root appended to `out`), dereferencing bindings along the way and
  /// sharing variables across roots through one map. This is the
  /// copy-on-migration primitive: the result is an independent, compacted
  /// state no matter how large this (trail-managed) arena has grown.
  /// `var_map` is caller-owned scratch, cleared on entry.
  void compact_into(Store& dst, std::span<const TermRef> roots,
                    std::vector<TermRef>& out, VarMap& var_map) const;

  /// `compact_into` as of an earlier checkpoint: variables in `undone`
  /// (the trail segment recorded since that checkpoint) are treated as
  /// unbound, reconstructing the state a rollback would restore — without
  /// touching this store. Cells allocated after the checkpoint are
  /// unreachable under that view (pre-checkpoint cells can only point at
  /// them through bindings the view undoes), so the result is exactly the
  /// checkpointed state. This is what lets a worker materialize a
  /// copy-on-steal spill handle for a thief while its own derivation keeps
  /// running above the handle's checkpoint.
  void compact_into_as_of(Store& dst, std::span<const TermRef> roots,
                          std::vector<TermRef>& out,
                          const std::unordered_set<TermRef>& undone,
                          VarMap& var_map) const;

  /// Structural equality of two (possibly cross-store) terms after deref.
  /// Unbound variables are equal only when `lhs`/`rhs` resolve to the same
  /// cell of the same store.
  static bool equal(const Store& sa, TermRef a, const Store& sb, TermRef b);

  /// Standard order comparison (Var < Int < Atom < Struct) after deref.
  static int compare(const Store& sa, TermRef a, const Store& sb, TermRef b);

  /// Number of cells reachable from `t` (after deref); used by the machine
  /// simulator as the copy-cost measure.
  [[nodiscard]] std::size_t reachable_cells(TermRef t) const;

private:
  std::vector<Cell> cells_;
  std::vector<TermRef> args_;
};

/// Convenience: the well-known atoms.
Symbol nil_symbol();   // []
Symbol cons_symbol();  // '.'
Symbol comma_symbol();
Symbol true_symbol();

}  // namespace blog::term
