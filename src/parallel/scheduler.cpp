#include "blog/parallel/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "blog/parallel/topology.hpp"

namespace blog::parallel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using obs::EventKind;
using search::SpillHandle;

/// Entry states that mean "this deque entry is garbage": the choice was
/// resolved away from the scheduler (owner reclaim, shutdown kill, or an
/// already-consumed grant).
bool handle_resolved(std::uint32_t s) {
  return s == SpillHandle::kOwnerTaken || s == SpillHandle::kDead ||
         s == SpillHandle::kTaken;
}

/// Steady-clock microseconds — the shared time base of publish stamps,
/// claim-wait latency accounting and the stale-bound refresh.
std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WorkStealingScheduler::WorkStealingScheduler(unsigned workers,
                                             std::size_t deque_capacity,
                                             SchedulerTuning tuning)
    : capacity_seed_(std::max<std::size_t>(1, deque_capacity)),
      tuning_(std::move(tuning)),
      inflight_(0) {
  if (workers == 0) workers = 1;
  // A zero claim cap would make `mail.size() >= limit` always true and
  // silently disable handle stealing for every thief; one in-flight
  // claim is the floor, enforced here so every construction path (not
  // just the engine) is safe.
  tuning_.mailbox_claim_limit = std::max(1u, tuning_.mailbox_claim_limit);
  // Worker→node placement: an explicit tuning map wins (tests, custom
  // layouts); otherwise round-robin over the detected host topology. A
  // single-node host tags every deque 0, which makes every locality
  // branch below collapse to the pre-NUMA scan.
  const Topology* topo = nullptr;
  if (tuning_.worker_nodes.empty() && tuning_.numa_aware) {
    topo = &Topology::system();
    if (topo->single_node()) topo = nullptr;
  }
  const std::int64_t now = now_us();
  deques_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    auto d = std::make_unique<Deque>();
    d->pub_min.store(kInf, std::memory_order_relaxed);
    d->pub_stamp_us.store(now, std::memory_order_relaxed);
    if (!tuning_.worker_nodes.empty())
      d->node = tuning_.worker_nodes[w % tuning_.worker_nodes.size()];
    else if (topo != nullptr)
      d->node = topo->node_of_worker(w);
    d->cap.store(static_cast<std::uint32_t>(capacity_seed_),
                 std::memory_order_relaxed);
    d->local_hint.store(
        static_cast<std::uint32_t>(tuning_.local_capacity_seed),
        std::memory_order_relaxed);
    deques_.push_back(std::move(d));
  }
}

WorkStealingScheduler::~WorkStealingScheduler() = default;

void WorkStealingScheduler::publish(Deque& d) {
  d.pub_min.store(d.pool.empty() ? kInf : d.pool.front().bound,
                  std::memory_order_release);
  d.pub_size.store(static_cast<std::uint32_t>(d.pool.size()),
                   std::memory_order_release);
  d.pub_stamp_us.store(now_us(), std::memory_order_relaxed);
}

void WorkStealingScheduler::adapt(Deque& d) {
  if (!tuning_.adaptive) return;
  // Steal-pressure sample: were any of this worker's entries actually
  // taken since its last spill, or is somebody starving right now? The
  // EWMA of that bit drives both bounds: pressure above the 0.5 neutral
  // point shrinks them (shed earlier, publish more), below grows them
  // (keep the pool whole — nobody wants it).
  const std::uint32_t stolen =
      d.thefts_since_push.exchange(0, std::memory_order_relaxed);
  const float sample =
      (stolen > 0 || idle_.load(std::memory_order_relaxed) > 0) ? 1.0f : 0.0f;
  const float alpha =
      2.0f / (static_cast<float>(std::max(1u, tuning_.ewma_window)) + 1.0f);
  d.pressure += alpha * (sample - d.pressure);
  // factor spans [1/64, 64] over pressure [1, 0]: wide enough to sweep a
  // seed of 8 across the whole [min_capacity, max_capacity] range.
  const double factor = std::exp2((0.5 - static_cast<double>(d.pressure)) * 12.0);
  const auto scaled = [&](std::size_t seed) {
    const double v = std::round(static_cast<double>(seed) * factor);
    // Clamp around the seed: degenerate seeds (0 = always spill, huge =
    // never) keep their configured meaning.
    const double lo = static_cast<double>(std::min(seed, tuning_.min_capacity));
    const double hi = static_cast<double>(std::max(seed, tuning_.max_capacity));
    return static_cast<std::uint32_t>(std::clamp(v, lo, hi));
  };
  d.cap.store(scaled(capacity_seed_), std::memory_order_relaxed);
  d.local_hint.store(scaled(tuning_.local_capacity_seed),
                     std::memory_order_relaxed);
}

std::size_t WorkStealingScheduler::sweep_stale_locked(Deque& d) {
  const std::size_t before = d.pool.size();
  std::erase_if(d.pool, [](const Entry& e) {
    return e.lazy != nullptr &&
           handle_resolved(e.lazy->state.load(std::memory_order_relaxed));
  });
  const std::size_t removed = before - d.pool.size();
  if (removed > 0) {
    std::make_heap(d.pool.begin(), d.pool.end(), EntryCmp{});
    stale_discards_.fetch_add(removed, std::memory_order_relaxed);
  }
  return removed;
}

// Move the arbitrary back half of a locked deque's heap array out —
// O(half) moves, no sorting; the minimum stays at home in the heap
// front. Caller re-publishes.
std::vector<WorkStealingScheduler::Entry> WorkStealingScheduler::shed_half_locked(
    Deque& d) {
  std::vector<Entry> out;
  const std::size_t k = d.pool.size() / 2;
  if (k == 0) return out;
  out.assign(std::make_move_iterator(d.pool.end() -
                                     static_cast<std::ptrdiff_t>(k)),
             std::make_move_iterator(d.pool.end()));
  d.pool.erase(d.pool.end() - static_cast<std::ptrdiff_t>(k), d.pool.end());
  std::make_heap(d.pool.begin(), d.pool.end(), EntryCmp{});
  return out;
}

WorkStealingScheduler::Entry WorkStealingScheduler::pop_best_locked(Deque& d) {
  std::pop_heap(d.pool.begin(), d.pool.end(), EntryCmp{});
  Entry e = std::move(d.pool.back());
  d.pool.pop_back();
  return e;
}

void WorkStealingScheduler::park_entries(unsigned worker,
                                         std::vector<Entry> es) {
  if (es.empty()) return;
  Deque& dst = *deques_[worker];
  std::lock_guard lock(dst.mu);
  locks_.fetch_add(1, std::memory_order_relaxed);
  for (auto& e : es) dst.pool.push_back(std::move(e));
  std::make_heap(dst.pool.begin(), dst.pool.end(), EntryCmp{});
  publish(dst);
}

void WorkStealingScheduler::push_root(search::DetachedNode n) {
  inflight_.fetch_add(1, std::memory_order_relaxed);
  std::vector<search::DetachedNode> one;
  one.push_back(std::move(n));
  push_batch(0, std::move(one));
}

void WorkStealingScheduler::enqueue_spill(unsigned self,
                                          std::vector<Entry> es) {
  Deque& own = *deques_[self];
  pushes_.fetch_add(es.size(), std::memory_order_relaxed);

  // Overflow policy: the capacity is a *sharing trigger*, not a hard
  // bound. Only shed work when the deque is over capacity AND some other
  // worker is starving (published size under half the capacity) — the
  // receiver is picked lock-free before any mutex is touched. This keeps
  // a lone busy worker from pointlessly shuffling its own queue.
  const std::size_t capacity = own.cap.load(std::memory_order_relaxed);
  unsigned starving = self;
  if (deques_.size() > 1 &&
      own.pub_size.load(std::memory_order_relaxed) + es.size() > capacity) {
    // Threshold at least 1 so empty peers qualify even at capacity 1.
    // Same-node peers win ties: shedding across the interconnect is only
    // worth it when the remote peer is strictly emptier.
    std::uint32_t best_size =
        static_cast<std::uint32_t>(std::max<std::size_t>(1, capacity / 2));
    for (unsigned v = 0; v < deques_.size(); ++v) {
      if (v == self) continue;
      const std::uint32_t sz =
          deques_[v]->pub_size.load(std::memory_order_relaxed);
      if (sz < best_size ||
          (sz == best_size && starving != self &&
           deques_[v]->node == own.node &&
           deques_[starving]->node != own.node)) {
        best_size = sz;
        starving = v;
      }
    }
  }

  std::vector<Entry> overflow;
  {
    std::lock_guard lock(own.mu);
    locks_.fetch_add(1, std::memory_order_relaxed);
    // No reserve(): exact-fit reserve would reallocate (O(size) entry
    // moves) on every batch; geometric push_back growth is amortized O(1).
    for (auto& e : es) {
      own.pool.push_back(std::move(e));
      std::push_heap(own.pool.begin(), own.pool.end(), EntryCmp{});
    }
    // Handle entries go stale whenever their owner reclaims in place;
    // sweep before shedding so peers never receive garbage.
    if (own.pool.size() > capacity) sweep_stale_locked(own);
    if (starving != self && own.pool.size() > capacity)
      overflow = shed_half_locked(own);
    adapt(own);
    publish(own);
  }
  if (!overflow.empty()) {
    park_entries(starving, std::move(overflow));
    offloads_.fetch_add(1, std::memory_order_relaxed);
  }
}

void WorkStealingScheduler::push_batch(unsigned worker,
                                       std::vector<search::DetachedNode> ns) {
  if (ns.empty()) return;
  obs::trace(tuning_.trace,
             static_cast<std::uint16_t>(worker % deques_.size()),
             EventKind::kSpillBatch, static_cast<std::uint32_t>(ns.size()));
  std::vector<Entry> es;
  es.reserve(ns.size());
  for (auto& n : ns) {
    const double b = n.bound;
    es.push_back(Entry{b, seq_.fetch_add(1, std::memory_order_relaxed),
                       std::move(n), nullptr});
  }
  enqueue_spill(worker % static_cast<unsigned>(deques_.size()),
                std::move(es));
}

void WorkStealingScheduler::push_handles(
    unsigned worker, std::vector<std::shared_ptr<SpillHandle>> hs) {
  if (hs.empty()) return;
  handles_published_.fetch_add(hs.size(), std::memory_order_relaxed);
  obs::trace(tuning_.trace,
             static_cast<std::uint16_t>(worker % deques_.size()),
             EventKind::kSpillPublish, static_cast<std::uint32_t>(hs.size()));
  std::vector<Entry> es;
  es.reserve(hs.size());
  for (auto& h : hs) {
    const double b = h->bound;
    es.push_back(Entry{b, seq_.fetch_add(1, std::memory_order_relaxed),
                       search::Node{}, std::move(h)});
  }
  enqueue_spill(worker % static_cast<unsigned>(deques_.size()),
                std::move(es));
}

std::size_t WorkStealingScheduler::local_capacity_hint(
    unsigned worker, std::size_t fallback) const {
  if (!tuning_.adaptive) return fallback;
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  const std::size_t hint =
      deques_[self]->local_hint.load(std::memory_order_relaxed);
  // The EWMA is only re-sampled while spilling, so a grown hint could
  // latch: a worker whose pending pool sits under it would never publish
  // (and so never adapt) again, hoarding the tail of the search while
  // everyone else starves. Collapse to the configured seed whenever
  // someone is actually idle — that re-opens publishing, which runs
  // adapt(), which lets the EWMA see the pressure.
  if (idle_.load(std::memory_order_relaxed) > 0) return std::min(hint, fallback);
  return hint;
}

std::size_t WorkStealingScheduler::deque_capacity(unsigned worker) const {
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  return deques_[self]->cap.load(std::memory_order_relaxed);
}

std::uint32_t WorkStealingScheduler::worker_node(unsigned worker) const {
  return deques_[worker % deques_.size()]->node;
}

void WorkStealingScheduler::maintain(unsigned worker) {
  // Stale-bound refresh: a published minimum that has not been
  // re-published for stale_refresh_us very likely fronts a deque whose
  // best entries were resolved elsewhere (owner-reclaimed copy-on-steal
  // handles); sweep + re-publish so idle scans stop chasing the dead
  // bound. Owner-driven so the cost is one (almost always uncontended)
  // lock per interval, paid off the thieves' scan path.
  if (tuning_.stale_refresh_us == 0) return;
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  Deque& d = *deques_[self];
  if (d.pub_size.load(std::memory_order_relaxed) == 0) return;
  const std::int64_t now = now_us();
  if (now - d.pub_stamp_us.load(std::memory_order_relaxed) <
      static_cast<std::int64_t>(tuning_.stale_refresh_us))
    return;
  std::lock_guard lock(d.mu);
  locks_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t removed = sweep_stale_locked(d);
  // Re-publishing also refreshes the stamp, so a live-but-quiet deque is
  // re-examined at most once per interval.
  publish(d);
  if (removed > 0) {
    stale_refreshes_.fetch_add(1, std::memory_order_relaxed);
    obs::trace(tuning_.trace, static_cast<std::uint16_t>(self),
               EventKind::kStaleRefresh, static_cast<std::uint32_t>(removed));
  }
}

void WorkStealingScheduler::record_steal(unsigned thief, unsigned victim_deque,
                                         std::uint64_t n) {
  steals_.fetch_add(n, std::memory_order_relaxed);
  const bool local = deques_[victim_deque]->node == deques_[thief]->node;
  if (local)
    steals_local_.fetch_add(n, std::memory_order_relaxed);
  else
    steals_remote_.fetch_add(n, std::memory_order_relaxed);
  obs::trace(tuning_.trace, static_cast<std::uint16_t>(thief),
             local ? EventKind::kStealLocal : EventKind::kStealRemote,
             static_cast<std::uint32_t>(n));
}

unsigned WorkStealingScheduler::pick_victim(unsigned self, double require_below,
                                            bool include_self) const {
  // Locality-biased minimum-seeking scan (§6's network read, but
  // interconnect-aware): track the best candidate on the scanner's own
  // node and the best on any remote node separately, then cross the
  // interconnect only when the remote minimum beats the local one by more
  // than the configured bias. On a single-node host every deque shares
  // node 0, the remote track stays empty, and the scan degenerates to the
  // exact pre-NUMA strict-minimum sweep.
  const unsigned n = static_cast<unsigned>(deques_.size());
  const std::uint32_t my_node = deques_[self]->node;
  unsigned local_v = n, remote_v = n;
  double local_b = require_below, remote_b = require_below;
  if (include_self) {
    const double own = deques_[self]->pub_min.load(std::memory_order_acquire);
    if (own < local_b) {
      local_b = own;
      local_v = self;
    }
  }
  for (unsigned v = 0; v < n; ++v) {
    if (v == self) continue;
    const double m = deques_[v]->pub_min.load(std::memory_order_acquire);
    if (deques_[v]->node == my_node) {
      if (m < local_b) {
        local_b = m;
        local_v = v;
      }
    } else if (m < remote_b) {
      remote_b = m;
      remote_v = v;
    }
  }
  if (remote_v != n &&
      (local_v == n || remote_b < local_b - tuning_.locality_bias))
    return remote_v;
  return local_v;
}

std::optional<search::Node> WorkStealingScheduler::drain_mailbox(
    unsigned self, double require_below) {
  Deque& d = *deques_[self];
  if (d.mail.empty()) return std::nullopt;
  // Pick the best deposit already materialized by its owner.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t best_i = kNone;
  double best_b = require_below;
  for (std::size_t i = 0; i < d.mail.size(); ++i) {
    const std::uint32_t s =
        d.mail[i].handle->state.load(std::memory_order_acquire);
    if (s == SpillHandle::kReady && d.mail[i].handle->bound < best_b) {
      best_b = d.mail[i].handle->bound;
      best_i = i;
    }
  }
  // Consume every resolved entry in one pass: the best ready deposit is
  // returned, every other ready deposit is re-parked into our own deque
  // (so the network sees it instead of it idling in a private mailbox),
  // dead ones are dropped, in-flight claims stay parked.
  std::optional<search::Node> taken;
  std::vector<MailEntry> kept;
  std::vector<Entry> repark;
  const std::int64_t now = now_us();
  std::uint32_t drained = 0;
  for (std::size_t i = 0; i < d.mail.size(); ++i) {
    MailEntry& me = d.mail[i];
    const std::uint32_t s = me.handle->state.load(std::memory_order_acquire);
    if (s == SpillHandle::kDead) {  // owner dropped the chain
      obs::trace(tuning_.trace, static_cast<std::uint16_t>(self),
                 EventKind::kHandleDead,
                 static_cast<std::uint32_t>(me.handle->owner));
      continue;
    }
    if (s == SpillHandle::kReady) {
      // Every ready deposit is converted now, beat require_below or not —
      // deposits must not dwell privately while other workers starve.
      search::Node node = std::move(me.handle->node);
      me.handle->state.store(SpillHandle::kTaken, std::memory_order_release);
      handle_grants_.fetch_add(1, std::memory_order_relaxed);
      mailbox_drained_.fetch_add(1, std::memory_order_relaxed);
      ++drained;
      obs::trace(tuning_.trace, static_cast<std::uint16_t>(self),
                 EventKind::kHandleGrant,
                 static_cast<std::uint32_t>(me.handle->owner));
      claim_wait_us_.fetch_add(
          static_cast<std::uint64_t>(std::max<std::int64_t>(
              0, now - me.claimed_at_us)),
          std::memory_order_relaxed);
      record_steal(self,
                   me.handle->owner % static_cast<unsigned>(deques_.size()),
                   1);
      if (i == best_i) {
        pops_.fetch_add(1, std::memory_order_relaxed);
        taken = std::move(node);
      } else {
        repark.push_back(Entry{node.bound,
                               seq_.fetch_add(1, std::memory_order_relaxed),
                               std::move(node), nullptr});
      }
      continue;
    }
    kept.push_back(std::move(me));  // kClaimed / kFulfilling: still in flight
  }
  d.mail = std::move(kept);
  if (drained > 0)
    obs::trace(tuning_.trace, static_cast<std::uint16_t>(self),
               EventKind::kMailboxDrain, drained);
  if (!repark.empty()) park_entries(self, std::move(repark));
  return taken;
}

std::optional<search::Node> WorkStealingScheduler::steal_from(
    unsigned thief, unsigned victim, double require_below, bool bulk,
    bool* claim_capped) {
  Deque& src = *deques_[victim];
  std::vector<Entry> loot;
  Entry taken;
  bool have_entry = false;
  {
    std::lock_guard lock(src.mu);
    locks_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      if (src.pool.empty() || src.pool.front().bound >= require_below)
        break;  // empty or the published minimum was stale
      Entry e = pop_best_locked(src);
      if (e.lazy != nullptr) {
        const std::uint32_t s = e.lazy->state.load(std::memory_order_acquire);
        if (handle_resolved(s)) {
          stale_discards_.fetch_add(1, std::memory_order_relaxed);
          continue;  // garbage entry; keep looking
        }
        if (e.lazy->owner != thief &&
            deques_[thief]->mail.size() >= tuning_.mailbox_claim_limit) {
          // At the mailbox claim cap: claiming more handles would only
          // force more owners into deep copies while our deposits are
          // still in flight. Put the entry back and tell the caller to
          // back off and drain.
          src.pool.push_back(std::move(e));
          std::push_heap(src.pool.begin(), src.pool.end(), EntryCmp{});
          if (claim_capped != nullptr) *claim_capped = true;
          break;
        }
        if (e.lazy->owner == thief) {
          // Our own live handle surfaced through the network (offload or
          // steal-half moved it here): resolve it in our favour — the
          // choice is still on our stack and cheaper to take there. The
          // CAS can only lose to our own runner having resolved it
          // already; either way the entry is spent.
          std::uint32_t expect = SpillHandle::kAvailable;
          e.lazy->state.compare_exchange_strong(expect,
                                                SpillHandle::kOwnerTaken,
                                                std::memory_order_acq_rel);
          stale_discards_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      taken = std::move(e);
      have_entry = true;
      break;
    }
    if (have_entry && bulk && victim != thief && !src.pool.empty()) {
      // Steal-half (idle acquisition only): take half of the victim's
      // remaining deque along, so one lock acquisition funds many future
      // local activations on the thief. D-threshold migrations take just
      // the minimum chain, like §6's network grant.
      loot = shed_half_locked(src);
    }
    publish(src);
  }
  if (!loot.empty()) {
    const std::size_t n = loot.size();
    if (victim != thief) {
      record_steal(thief, victim, n);
      // Pressure rises for whoever the moved work belongs to: the handle
      // owner for lazy entries (wherever the entry happened to live), the
      // looted deque for materialized ones (their owner is unrecorded).
      for (const Entry& e : loot) {
        Deque& owner_d =
            e.lazy != nullptr ? *deques_[e.lazy->owner % deques_.size()] : src;
        owner_d.thefts_since_push.fetch_add(1, std::memory_order_relaxed);
      }
    }
    park_entries(thief, std::move(loot));
  }
  if (!have_entry) return std::nullopt;

  if (taken.lazy == nullptr) {
    pops_.fetch_add(1, std::memory_order_relaxed);
    // A worker reclaiming its own spilled chains is not a steal; only
    // cross-worker transfers count toward the bench's steal metric (and
    // toward the victim's steal-pressure EWMA).
    if (victim != thief) {
      record_steal(thief, victim, 1);
      src.thefts_since_push.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(taken.node);
  }

  // Copy-on-steal: win the claim CAS outside any deque lock. Losing it
  // means the owner resolved the choice first — the entry was stale after
  // all.
  std::shared_ptr<SpillHandle> h = std::move(taken.lazy);
  if (!h->try_claim()) {
    // Lost to the owner: no work moved, no pressure registered.
    stale_discards_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Record the won claim against the *owner's* deque: its steal-pressure
  // EWMA is what should rise, wherever the entry happened to live.
  const auto owner = static_cast<std::uint32_t>(h->owner);
  deques_[owner % deques_.size()]->thefts_since_push.fetch_add(
      1, std::memory_order_relaxed);
  handle_claims_.fetch_add(1, std::memory_order_relaxed);
  obs::trace(tuning_.trace, static_cast<std::uint16_t>(thief),
             EventKind::kHandleClaim, owner);
  // Claim-wait mailbox: don't wait at all. Park the claimed handle in the
  // thief's mailbox — the owner deposits the materialized state into it
  // (kReady) at its next expansion boundary — and go back to scanning
  // other victims. drain_mailbox picks the deposit up on a later acquire /
  // D-threshold boundary.
  deques_[thief]->mail.push_back(MailEntry{std::move(h), now_us()});
  mailbox_parked_.fetch_add(1, std::memory_order_relaxed);
  obs::trace(tuning_.trace, static_cast<std::uint16_t>(thief),
             EventKind::kMailboxPark, owner);
  return std::nullopt;
}

std::optional<search::Node> WorkStealingScheduler::try_acquire_better(
    unsigned worker, double local_min, double d) {
  if (stop_.load(std::memory_order_relaxed)) return std::nullopt;
  // Lock-free minimum-seeking scan (§6's network read): no mutex touched
  // unless a *remote* deque advertises a strictly better chain. The
  // worker's own deque is part of its local pool — §6 compares the
  // processor's local minimum against the network, so chains a worker
  // spilled itself never trigger the abandon-and-migrate penalty (they
  // are reclaimed on the cheap acquire path once the pending pool
  // drains, or stolen by an idle processor meanwhile).
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  const double own = deques_[self]->pub_min.load(std::memory_order_acquire);
  const double threshold = std::min(local_min, own) - d;
  // A deposit that landed in the mailbox since the last boundary may
  // already beat the threshold — prefer it (the copy is paid and ours).
  if (auto n = drain_mailbox(self, threshold)) return n;
  const unsigned victim = pick_victim(self, threshold, /*include_self=*/false);
  if (victim == deques_.size()) return std::nullopt;
  steal_attempts_.fetch_add(1, std::memory_order_relaxed);
  obs::trace(tuning_.trace, static_cast<std::uint16_t>(self),
             EventKind::kStealAttempt, victim);
  return steal_from(worker, victim, threshold, /*bulk=*/false);
}

std::optional<search::Node> WorkStealingScheduler::acquire(unsigned worker) {
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  unsigned spins = 0;
  // Registered as idle (the starvation signal adapt() and
  // local_capacity_hint() read) only once a full victim scan came up
  // empty; cleared on every exit path.
  struct IdleGuard {
    std::atomic<int>& count;
    obs::TraceSink* trace;
    std::uint16_t lane;
    bool on = false;
    void mark() {
      if (!on) {
        count.fetch_add(1, std::memory_order_relaxed);
        obs::trace(trace, lane, EventKind::kStarveOn);
        on = true;
      }
    }
    ~IdleGuard() {
      if (on) {
        count.fetch_sub(1, std::memory_order_relaxed);
        obs::trace(trace, lane, EventKind::kStarveOff);
      }
    }
  } idle_guard{idle_, tuning_.trace, static_cast<std::uint16_t>(self)};
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return std::nullopt;

    // Deposits for claims parked on earlier iterations land in the
    // mailbox; consuming them first keeps the in-flight copy latency off
    // the critical path (and the re-park inside the drain returns any
    // surplus deposits to the network).
    if (auto n = drain_mailbox(self, kInf)) {
      grants_.fetch_add(1, std::memory_order_relaxed);
      return n;
    }

    // Scan every published minimum for the best victim — §6's freed
    // processor acquires the globally minimum-bound chain, preferring
    // same-node victims within the locality bias. Ties favour the own
    // deque (no cross-worker traffic).
    const unsigned victim = pick_victim(self, kInf, /*include_self=*/true);
    bool claim_capped = false;
    if (victim != deques_.size()) {
      if (auto n = steal_from(self, victim, kInf, /*bulk=*/true,
                              &claim_capped)) {
        grants_.fetch_add(1, std::memory_order_relaxed);
        return n;
      }
      // Lost the race / stale entries / parked a claim: rescan
      // immediately. At the mailbox claim cap, fall through to the
      // backoff instead — rescanning would hot-loop on the same handle
      // while our in-flight deposits are what we should be draining.
      if (!claim_capped) continue;
    } else {
      // No queued work anywhere. The outstanding-work counter is the
      // distributed termination detector: zero means every chain has been
      // consumed (none queued, none being expanded), so exit. A parked
      // mailbox claim keeps its chain in the count, so termination cannot
      // fire while a deposit is still in flight toward this worker.
      idle_guard.mark();
      if (inflight_.load(std::memory_order_acquire) == 0) return std::nullopt;
    }

    // Work exists but lives inside other workers' runners (or is being
    // materialized toward our mailbox); back off politely (spin briefly,
    // then sleep with exponential backoff capped at 500µs) until it
    // spills, deposits or dies. Sleeping parks the thread off the
    // runqueue, which matters when workers outnumber cores.
    if (spins < 16) {
      ++spins;
      std::this_thread::yield();
    } else {
      const unsigned exp = std::min(spins - 16u, 5u);
      ++spins;
      std::this_thread::sleep_for(std::chrono::microseconds(20u << exp));
    }
  }
}

void WorkStealingScheduler::on_expanded(std::size_t children) {
  expansions_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(static_cast<std::int64_t>(children) - 1,
                      std::memory_order_acq_rel);
}

void WorkStealingScheduler::stop() {
  stop_.store(true, std::memory_order_release);
}

bool WorkStealingScheduler::stopped() const {
  return stop_.load(std::memory_order_acquire);
}

std::optional<double> WorkStealingScheduler::min_bound() const {
  double best = kInf;
  for (const auto& d : deques_)
    best = std::min(best, d->pub_min.load(std::memory_order_acquire));
  if (best == kInf) return std::nullopt;
  return best;
}

SchedulerStats WorkStealingScheduler::stats() const {
  SchedulerStats s;
  s.pushes = pushes_.load(std::memory_order_relaxed);
  s.pops = pops_.load(std::memory_order_relaxed);
  s.grants = grants_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.steal_attempts = steal_attempts_.load(std::memory_order_relaxed);
  s.offloads = offloads_.load(std::memory_order_relaxed);
  s.lock_acquisitions = locks_.load(std::memory_order_relaxed);
  s.steals_local = steals_local_.load(std::memory_order_relaxed);
  s.steals_remote = steals_remote_.load(std::memory_order_relaxed);
  s.handles_published = handles_published_.load(std::memory_order_relaxed);
  s.handle_claims = handle_claims_.load(std::memory_order_relaxed);
  s.handle_grants = handle_grants_.load(std::memory_order_relaxed);
  s.stale_discards = stale_discards_.load(std::memory_order_relaxed);
  s.claim_wait_us = claim_wait_us_.load(std::memory_order_relaxed);
  s.mailbox_parked = mailbox_parked_.load(std::memory_order_relaxed);
  s.mailbox_drained = mailbox_drained_.load(std::memory_order_relaxed);
  s.stale_refreshes = stale_refreshes_.load(std::memory_order_relaxed);
  s.expansions = expansions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace blog::parallel
