#include "blog/search/frontier.hpp"

#include <algorithm>
#include <limits>

namespace blog::search {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::DepthFirst: return "depth-first";
    case Strategy::BreadthFirst: return "breadth-first";
    case Strategy::BestFirst: return "best-first";
  }
  return "?";
}

void DepthFirstFrontier::push(Node n) {
  mins_.push_back(mins_.empty() ? n.bound : std::min(mins_.back(), n.bound));
  stack_.push_back(std::move(n));
}

Node DepthFirstFrontier::pop() {
  Node n = std::move(stack_.back());
  stack_.pop_back();
  mins_.pop_back();
  return n;
}

std::size_t DepthFirstFrontier::prune_above(double cutoff) {
  const auto before = stack_.size();
  std::erase_if(stack_, [&](const Node& n) { return n.bound > cutoff; });
  mins_.clear();
  for (const Node& n : stack_)
    mins_.push_back(mins_.empty() ? n.bound : std::min(mins_.back(), n.bound));
  return before - stack_.size();
}

void BreadthFirstFrontier::push(Node n) {
  // Strict >: equal bounds stay queued so each pop retires one witness.
  while (!minq_.empty() && minq_.back() > n.bound) minq_.pop_back();
  minq_.push_back(n.bound);
  q_.push_back(std::move(n));
}

Node BreadthFirstFrontier::pop() {
  Node n = std::move(q_.front());
  q_.pop_front();
  if (n.bound == minq_.front()) minq_.pop_front();
  return n;
}

void BreadthFirstFrontier::rebuild_minq() {
  minq_.clear();
  for (const Node& n : q_) {
    while (!minq_.empty() && minq_.back() > n.bound) minq_.pop_back();
    minq_.push_back(n.bound);
  }
}

std::size_t BreadthFirstFrontier::prune_above(double cutoff) {
  const auto before = q_.size();
  std::erase_if(q_, [&](const Node& n) { return n.bound > cutoff; });
  rebuild_minq();
  return before - q_.size();
}

void BestFirstFrontier::push(Node n) {
  const double bound = n.bound;
  auto slot = static_cast<std::uint32_t>(slab_.size());
  if (free_.empty()) {
    slab_.push_back(std::move(n));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(n);
  }
  heap_.push_back(Key{bound, seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Cmp{});
}

Node BestFirstFrontier::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Cmp{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  // Moving out leaves an empty shell (no store, goals or chain held).
  Node n = std::move(slab_[slot]);
  free_.push_back(slot);
  return n;
}

double BestFirstFrontier::min_bound() const {
  // Guard the empty heap: reading heap_.front() unguarded was UB for
  // pollers that race the last pop. Empty means "nothing to beat".
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().bound;
}

std::size_t BestFirstFrontier::prune_above(double cutoff) {
  const auto before = heap_.size();
  std::erase_if(heap_, [&](const Key& k) {
    if (k.bound <= cutoff) return false;
    slab_[k.slot] = Node{};  // release the pruned node's store now
    free_.push_back(k.slot);
    return true;
  });
  // (bound, seq) is a total order, so any valid heap pops the same sequence.
  std::make_heap(heap_.begin(), heap_.end(), Cmp{});
  return before - heap_.size();
}

std::unique_ptr<Frontier> make_frontier(Strategy s) {
  switch (s) {
    case Strategy::DepthFirst: return std::make_unique<DepthFirstFrontier>();
    case Strategy::BreadthFirst: return std::make_unique<BreadthFirstFrontier>();
    case Strategy::BestFirst: return std::make_unique<BestFirstFrontier>();
  }
  return nullptr;
}

}  // namespace blog::search
