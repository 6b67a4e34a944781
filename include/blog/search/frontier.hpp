/// \file
/// \brief Frontier (open list) policies: the only difference between
/// Prolog-style depth-first, breadth-first and B-LOG best-first search
/// (§3).
#pragma once

#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "blog/search/node.hpp"

namespace blog::search {

/// Which open-list policy drives the sequential search (§3).
enum class Strategy { DepthFirst, BreadthFirst, BestFirst };

/// Stable display name of a strategy ("depth-first" etc.).
const char* strategy_name(Strategy s);

/// Abstract open list.
class Frontier {
public:
  virtual ~Frontier() = default;
  /// Add a node.
  virtual void push(Node n) = 0;
  /// Remove and return the node the policy explores next.
  virtual Node pop() = 0;
  /// True when no nodes are queued.
  [[nodiscard]] virtual bool empty() const = 0;
  /// Number of queued nodes.
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Smallest bound currently in the frontier. O(1) on every policy:
  /// BestFirst reads the heap top, DepthFirst keeps a running-minimum
  /// mirror stack, BreadthFirst a monotonic min-deque — so pollers (the
  /// service stats path, the in-place engine's burst admissibility test)
  /// never pay a scan. +infinity when empty.
  [[nodiscard]] virtual double min_bound() const = 0;
  /// Drop all nodes with bound > cutoff; returns how many were pruned.
  virtual std::size_t prune_above(double cutoff) = 0;
};

/// LIFO — children pushed in reverse clause order reproduce Prolog's
/// leftmost-first traversal.
class DepthFirstFrontier final : public Frontier {
public:
  void push(Node n) override;
  Node pop() override;
  [[nodiscard]] bool empty() const override { return stack_.empty(); }
  [[nodiscard]] std::size_t size() const override { return stack_.size(); }
  [[nodiscard]] double min_bound() const override {
    return mins_.empty() ? std::numeric_limits<double>::infinity()
                         : mins_.back();
  }
  std::size_t prune_above(double cutoff) override;

private:
  std::vector<Node> stack_;
  // mins_[i] = min bound of stack_[0..i]: the classic min-stack, giving
  // O(1) push/pop/min.
  std::vector<double> mins_;
};

/// FIFO.
class BreadthFirstFrontier final : public Frontier {
public:
  void push(Node n) override;
  Node pop() override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::size_t size() const override { return q_.size(); }
  [[nodiscard]] double min_bound() const override {
    return minq_.empty() ? std::numeric_limits<double>::infinity()
                         : minq_.front();
  }
  std::size_t prune_above(double cutoff) override;

private:
  void rebuild_minq();

  std::deque<Node> q_;
  // Monotonic non-decreasing deque of candidate minima (the sliding-window
  // minimum structure): front is the queue's minimum, amortized O(1).
  std::deque<double> minq_;
};

/// Min-heap on (bound, insertion order): the branch-and-bound open list.
/// Ties break FIFO so equal-bound nodes expand in generation order. Nodes
/// sit still in a slab with a free list; the heap orders small
/// `{bound, seq, slot}` keys, so a sift never moves a node.
class BestFirstFrontier final : public Frontier {
public:
  void push(Node n) override;
  Node pop() override;
  [[nodiscard]] bool empty() const override { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const override { return heap_.size(); }
  [[nodiscard]] double min_bound() const override;
  std::size_t prune_above(double cutoff) override;

private:
  struct Key {
    double bound;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index of the node in slab_
  };
  struct Cmp {
    bool operator()(const Key& a, const Key& b) const {
      if (a.bound != b.bound) return a.bound > b.bound;
      return a.seq > b.seq;
    }
  };
  std::vector<Key> heap_;            // std::*_heap managed
  std::vector<Node> slab_;           // queued nodes (and moved-from shells)
  std::vector<std::uint32_t> free_;  // slab_ slots not holding a queued node
  std::uint64_t seq_ = 0;
};

/// Frontier factory by strategy.
std::unique_ptr<Frontier> make_frontier(Strategy s);

}  // namespace blog::search
