#include "sim/ladder_queue.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <utility>

namespace caem::sim {

// ---------------------------------------------------------------------------
// Scheduling (insert side)

EventId LadderQueue::schedule(double time_s, EventCallback callback) {
  if (std::isnan(time_s)) throw std::invalid_argument("LadderQueue: NaN event time");
  if (!callback) throw std::invalid_argument("LadderQueue: null callback");
  const std::uint32_t slot = gens_.acquire();
  const EventId id = gens_.id_at(slot);
  const Entry e{time_s, next_sequence_++, id};
  if (time_s < bottom_limit_) {
    bottom_insert(e, std::move(callback));
  } else {
    park_fn(slot, std::move(callback));
    insert_entry(e);
  }
  ++entries_;
  ++live_count_;
  return id;
}

void LadderQueue::park_fn(std::uint32_t slot, EventFn fn) {
  if (slot >= fn_store_.size()) fn_store_.resize(slot + 1);
  // A parked-into slot is empty by construction (emptied at gather,
  // cancel or resize), so adopt() keeps this a pure scatter-store: no
  // dependent read of the cold destination line.
  fn_store_[slot].adopt(std::move(fn));
}

void LadderQueue::insert_entry(const Entry& e) {
  // Innermost (earliest) rung first; each rung's valid span starts at
  // the drain frontier below it, so the first rung whose limit exceeds
  // the timestamp is the right home.
  for (auto r = rungs_.rbegin(); r != rungs_.rend(); ++r) {
    if (e.time_s < r->limit) {
      r->buckets[bucket_index(*r, e.time_s)].push_back(e);
      return;
    }
  }
  top_.push_back(e);
  if (e.time_s < top_min_) top_min_ = e.time_s;
  if (e.time_s > top_max_) top_max_ = e.time_s;
}

void LadderQueue::bottom_insert(const Entry& e, EventFn fn) {
  if (bottom_store_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("LadderQueue: bottom store overflow");
  }
  const Key key{e.time_s, e.sequence, static_cast<std::uint32_t>(bottom_store_.size())};
  bottom_store_.push_back(e);
  staged_fns_.push_back(std::move(fn));
  const auto it =
      std::lower_bound(bottom_keys_.begin() + static_cast<std::ptrdiff_t>(bottom_head_),
                       bottom_keys_.end(), key, earlier);
  bottom_keys_.insert(it, key);
  if (rungs_.empty() && bottom_keys_.size() - bottom_head_ > kBottomSpill) spill_bottom();
}

// A rung-less bottom is the whole pending set (post-spread fallback or
// a small queue), and sorted insertion into it is O(n).  Keep only the
// earliest kSpillKeep keys and push the tail back up to the top,
// splitting strictly between distinct timestamps so no equal-time FIFO
// group is ever divided across regions.
void LadderQueue::spill_bottom() {
  bottom_keys_.erase(bottom_keys_.begin(),
                     bottom_keys_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
  bottom_head_ = 0;
  if (bottom_keys_.size() <= kSpillKeep) return;
  std::size_t split = kSpillKeep;
  const double keep_time = bottom_keys_[split - 1].time_s;
  while (split < bottom_keys_.size() && bottom_keys_[split].time_s == keep_time) ++split;
  if (split >= bottom_keys_.size()) return;  // one giant equal-time group: nothing to move
  // Span bounds are computed over every moved key — tombstones included,
  // exactly as an unpruned move would — before any filtering.
  if (bottom_keys_[split].time_s < top_min_) top_min_ = bottom_keys_[split].time_s;
  if (bottom_keys_.back().time_s > top_max_) top_max_ = bottom_keys_.back().time_s;
  bottom_limit_ = bottom_keys_[split].time_s;
  for (std::size_t i = split; i < bottom_keys_.size(); ++i) {
    Entry& e = bottom_store_[bottom_keys_[i].index];
    if (entry_live(e)) {
      // Back up the ladder: the callback returns to the slot column
      // (the slot is live, so it is provably unoccupied there).
      park_fn(slot_of(e.id), std::move(staged_fns_[bottom_keys_[i].index]));
      top_.push_back(e);
    } else {
      staged_fns_[bottom_keys_[i].index].reset();
      ++pruned_count_;
      --entries_;
    }
  }
  bottom_keys_.resize(split);
  // The store is now a mix of kept entries, spilled entries and
  // consumed husks: rebuild it dense, in key order.
  store_scratch_.clear();
  fn_scratch_.clear();
  for (Key& k : bottom_keys_) {
    store_scratch_.push_back(bottom_store_[k.index]);
    fn_scratch_.push_back(std::move(staged_fns_[k.index]));
    k.index = static_cast<std::uint32_t>(store_scratch_.size() - 1);
  }
  bottom_store_.swap(store_scratch_);
  staged_fns_.swap(fn_scratch_);
  store_scratch_.clear();
  fn_scratch_.clear();
}

bool LadderQueue::cancel(EventId id) noexcept {
  if (!gens_.kill(id)) return false;
  // Rung/top-resident events release their capture now; bottom-staged
  // ones have an empty slot column entry (reset is a no-op) and release
  // when the tombstone is next touched.
  const std::uint32_t slot = slot_of(id);
  if (slot < fn_store_.size()) fn_store_[slot].reset();
  --live_count_;
  ++cancelled_count_;
  return true;
}

// ---------------------------------------------------------------------------
// Draining (pop side)

double LadderQueue::next_time() {
  if (live_count_ == 0) throw std::out_of_range("LadderQueue: next_time() on empty queue");
  refill_bottom();
  return bottom_keys_[bottom_head_].time_s;
}

LadderQueue::Fired LadderQueue::pop() {
  if (live_count_ == 0 || !refill_bottom()) {
    throw std::out_of_range("LadderQueue: pop() on empty queue");
  }
  // Warm the next few pops' lines while this one completes: the
  // store/staged lines kPopAhead keys out, and the generation stamp of
  // the (by now prefetched, likely L1-resident) entry two keys out.
  const std::size_t n = bottom_keys_.size();
  if (bottom_head_ + kPopAhead < n) {
    const Key& ka = bottom_keys_[bottom_head_ + kPopAhead];
    __builtin_prefetch(&bottom_store_[ka.index]);
    __builtin_prefetch(&staged_fns_[ka.index]);
  }
  if (bottom_head_ + 2 < n) {
    gens_.prefetch(bottom_store_[bottom_keys_[bottom_head_ + 2].index].id);
  }
  const Key& k = bottom_keys_[bottom_head_++];
  const Entry& e = bottom_store_[k.index];
  Fired fired{e.id, e.time_s, std::move(staged_fns_[k.index])};
  const std::uint32_t slot = slot_of(e.id);
  gens_.release(slot);
  // LIFO slot reuse means the very next schedule() will park its
  // callback at this slot; warm the line for the write now, while the
  // caller is busy firing the callback.
  if (slot < fn_store_.size()) __builtin_prefetch(&fn_store_[slot], 1);
  --entries_;
  --live_count_;
  ++fired_count_;
  compact_bottom();
  return fired;
}

bool LadderQueue::refill_bottom() {
  for (;;) {
    while (bottom_head_ < bottom_keys_.size()) {
      const Key& k = bottom_keys_[bottom_head_];
      if (entry_live(bottom_store_[k.index])) return true;
      staged_fns_[k.index].reset();  // cancelled after staging: release now
      ++pruned_count_;
      --entries_;
      ++bottom_head_;
    }
    bottom_keys_.clear();
    bottom_head_ = 0;
    bottom_store_.clear();
    staged_fns_.clear();
    if (!advance_ladder()) {
      reset_spans();
      return false;
    }
  }
}

bool LadderQueue::advance_ladder() {
  for (;;) {
    if (rungs_.empty()) {
      if (top_.empty()) return false;
      prune_top();
      if (top_.empty()) return false;
      if (top_.size() <= kSortThreshold || !can_subdivide(top_min_, top_max_, top_.size())) {
        // Small or unsplittable (all one timestamp / non-finite span):
        // a key sort is correct at any size.
        bottom_store_.swap(top_);
        key_store();
        bottom_limit_ = kInf;
        top_min_ = kInf;
        top_max_ = -kInf;
        return true;
      }
      spawn_top_rung();
      continue;
    }
    Rung& r = rungs_.back();
    while (r.cur < r.bucket_count && r.buckets[r.cur].empty()) {
      bottom_limit_ = bucket_end(r, r.cur);
      ++r.cur;
    }
    if (r.cur == r.bucket_count) {
      bottom_limit_ = r.limit;
      retire_rung();
      continue;
    }
    const double lo = bucket_start(r, r.cur);
    const double hi = bucket_end(r, r.cur);
    bottom_store_.swap(r.buckets[r.cur]);  // adopt the bucket: zero entry moves
    // The slot now holds the previous bottom's storage, and a pooled
    // slot keeps what it holds across epochs.  Free a dense bucket's
    // worth here, or every slot ends up holding the largest bucket it
    // ever swapped with and memory grows with the events scheduled.
    if (r.buckets[r.cur].capacity() > kSortThreshold) Bucket().swap(r.buckets[r.cur]);
    ++r.cur;
    const std::size_t live = prune_store();
    if (live == 0) {
      bottom_store_.clear();
      bottom_limit_ = hi;
      continue;
    }
    if (live > kSortThreshold && rungs_.size() < kMaxRungs && can_subdivide(lo, hi, live)) {
      spawn_child_rung(lo, hi, live);  // invalidates r
      bottom_limit_ = lo;
      continue;
    }
    key_store();
    bottom_limit_ = hi;
    return true;
  }
}

// ---------------------------------------------------------------------------
// Rung management

bool LadderQueue::can_subdivide(double lo, double hi, std::size_t n) noexcept {
  if (!(hi > lo) || !std::isfinite(lo)) return false;
  const std::size_t count = std::min(n, kMaxBuckets);
  const double width = (hi - lo) / static_cast<double>(count);
  // `lo + width > lo` rejects widths below the local FP resolution:
  // bucket boundaries would all collapse onto `lo`.
  return std::isfinite(width) && width > 0.0 && lo + width > lo;
}

std::size_t LadderQueue::bucket_index(const Rung& r, double t) noexcept {
  const std::size_t n = r.bucket_count;
  const double offset = (t - r.start) / r.width;
  std::size_t idx;
  if (!(offset > 0.0)) {
    idx = 0;
  } else if (offset >= static_cast<double>(n)) {
    idx = n - 1;
  } else {
    idx = static_cast<std::size_t>(offset);
  }
  // Exact fixup against the same boundary arithmetic the drain uses, so
  // insert-time placement and drain-time spans can never disagree.
  while (idx + 1 < n && t >= bucket_start(r, idx + 1)) ++idx;
  while (idx > 0 && t < bucket_start(r, idx)) --idx;
  if (idx < r.cur) idx = r.cur < n ? r.cur : n - 1;  // never behind the drain frontier
  return idx;
}

LadderQueue::Rung& LadderQueue::new_rung() {
  if (rung_pool_.empty()) {
    rungs_.emplace_back();
  } else {
    rungs_.push_back(std::move(rung_pool_.back()));
    rung_pool_.pop_back();
  }
  return rungs_.back();
}

void LadderQueue::retire_rung() {
  rung_pool_.push_back(std::move(rungs_.back()));
  rungs_.pop_back();
}

void LadderQueue::spawn_top_rung() {
  Rung& r = new_rung();
  const std::size_t count = std::min(top_.size(), kMaxBuckets);
  r.start = top_min_;
  r.width = (top_max_ - top_min_) / static_cast<double>(count);
  // limit = top_max_, and the entries AT top_max_ are clamped into the
  // last bucket: a post-spread arrival at exactly top_max_ routes to
  // the fresh top (strict `<` test) and drains in a later epoch, after
  // these provably lower-sequence ones — FIFO holds.
  r.limit = top_max_;
  r.cur = 0;
  if (r.buckets.size() < count) r.buckets.resize(count);
  r.bucket_count = count;
  for (const Entry& e : top_) r.buckets[bucket_index(r, e.time_s)].push_back(e);
  top_.clear();
  top_min_ = kInf;
  top_max_ = -kInf;
}

void LadderQueue::spawn_child_rung(double lo, double hi, std::size_t live) {
  Rung& r = new_rung();
  const std::size_t count = std::min(live, kMaxBuckets);
  r.start = lo;
  r.width = (hi - lo) / static_cast<double>(count);
  r.limit = hi;
  r.cur = 0;
  if (r.buckets.size() < count) r.buckets.resize(count);
  r.bucket_count = count;
  // Callbacks stay parked in the slot column: only 24-byte PODs move.
  for (const Entry& e : bottom_store_) {
    if (entry_live(e)) r.buckets[bucket_index(r, e.time_s)].push_back(e);
  }
  bottom_store_.clear();
}

// ---------------------------------------------------------------------------
// Tombstones, housekeeping

std::size_t LadderQueue::prune_store() noexcept {
  std::size_t live = 0;
  const std::size_t n = bottom_store_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kGatherAhead < n) gens_.prefetch(bottom_store_[i + kGatherAhead].id);
    if (entry_live(bottom_store_[i])) {
      ++live;
    } else {
      // Capture already released at cancel(); just the accounting here.
      ++pruned_count_;
      --entries_;
    }
  }
  return live;
}

void LadderQueue::key_store() {
  bottom_keys_.clear();
  staged_fns_.clear();
  staged_fns_.reserve(bottom_store_.size());
  // One pass: build the sort keys and gather the callbacks from the
  // slot column into pop-ready dense storage.  The gather is a loop of
  // independent random reads — prefetched ahead so the core overlaps
  // the misses, unlike the serial one-miss-per-pop a slot lookup at
  // fire time would cost.  Dead entries get an empty placeholder so the
  // column stays index-aligned with the store.
  const std::size_t n = bottom_store_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kGatherAhead < n) {
      const Entry& ahead = bottom_store_[i + kGatherAhead];
      __builtin_prefetch(&fn_store_[slot_of(ahead.id)]);
      gens_.prefetch(ahead.id);
    }
    const Entry& e = bottom_store_[i];
    if (entry_live(e)) {
      bottom_keys_.push_back(Key{e.time_s, e.sequence, static_cast<std::uint32_t>(i)});
      staged_fns_.push_back(std::move(fn_store_[slot_of(e.id)]));
    } else {
      staged_fns_.emplace_back();
    }
  }
  std::sort(bottom_keys_.begin(), bottom_keys_.end(), earlier);
  bottom_head_ = 0;
}

void LadderQueue::prune_top() noexcept {
  std::size_t out = 0;
  top_min_ = kInf;
  top_max_ = -kInf;
  for (const Entry& e : top_) {
    if (entry_live(e)) {
      top_[out++] = e;
      if (e.time_s < top_min_) top_min_ = e.time_s;
      if (e.time_s > top_max_) top_max_ = e.time_s;
    } else {
      ++pruned_count_;
      --entries_;
    }
  }
  top_.resize(out);
}

// Amortized store recycling for the rung-less regime, where pops only
// mark keys consumed and inserts keep appending: once the consumed
// prefix dominates, rebuild the store dense in key order.
void LadderQueue::compact_bottom() {
  if (bottom_head_ < kPrefixCompactMin || bottom_head_ * 2 < bottom_keys_.size()) return;
  store_scratch_.clear();
  fn_scratch_.clear();
  for (std::size_t i = bottom_head_; i < bottom_keys_.size(); ++i) {
    Key& k = bottom_keys_[i];
    store_scratch_.push_back(bottom_store_[k.index]);
    fn_scratch_.push_back(std::move(staged_fns_[k.index]));
    k.index = static_cast<std::uint32_t>(store_scratch_.size() - 1);
  }
  bottom_store_.swap(store_scratch_);
  staged_fns_.swap(fn_scratch_);
  store_scratch_.clear();
  fn_scratch_.clear();
  bottom_keys_.erase(bottom_keys_.begin(),
                     bottom_keys_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
  bottom_head_ = 0;
}

std::size_t LadderQueue::retained_bytes() const noexcept {
  const auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  std::size_t total = bytes(bottom_store_) + bytes(staged_fns_) + bytes(store_scratch_) +
                      bytes(fn_scratch_) + bytes(bottom_keys_) + bytes(top_) +
                      bytes(fn_store_) + bytes(rungs_) + bytes(rung_pool_);
  for (const std::vector<Rung>* rungs : {&rungs_, &rung_pool_}) {
    for (const Rung& r : *rungs) {
      total += bytes(r.buckets);
      for (const Bucket& b : r.buckets) total += bytes(b);
    }
  }
  return total;
}

void LadderQueue::reset_spans() noexcept {
  bottom_limit_ = -kInf;
  top_min_ = kInf;
  top_max_ = -kInf;
}

void LadderQueue::clear() noexcept {
  bottom_store_.clear();
  staged_fns_.clear();
  bottom_keys_.clear();
  bottom_head_ = 0;
  store_scratch_.clear();
  fn_scratch_.clear();
  for (Rung& r : rungs_) {
    for (std::size_t i = r.cur; i < r.bucket_count; ++i) r.buckets[i].clear();
    rung_pool_.push_back(std::move(r));
  }
  rungs_.clear();
  top_.clear();
  fn_store_.clear();  // releases every parked capture
  gens_.clear();
  entries_ = 0;
  live_count_ = 0;
  reset_spans();
}

}  // namespace caem::sim
