// ladder_queue.hpp — bucketed pending-event set (the kernel's queue).
//
// A two-tier ladder/calendar structure (Tang & Gan's "ladder queue"
// adapted to this kernel's generation-stamped cancel contract) with
// amortized O(1) schedule and pop independent of pending-set size —
// the binary heap's O(log n) sift chains and cache-hostile level hops
// are what cap kernel events/s at city scale (see BENCH_queue.json).
//
// Structure, earliest to latest:
//
//   bottom  the region currently draining: an entry store (a drained
//           bucket's storage, swapped in) plus a sorted 24-byte
//           key array popped front-to-back in exact (time_s, sequence)
//           order; covers t < bottom_limit_.
//   rungs   stack of bucket arrays; rungs_.back() is the innermost
//           (earliest) range.  A rung's bucket is drained by keying it
//           into the bottom — or, when it is still large, by spawning a
//           finer child rung over exactly that bucket's span.
//   top     unsorted catch-all for everything at or beyond the ladder;
//           appends are O(1).  When the ladder runs dry, the top is
//           spread into a fresh outermost rung (one epoch).
//
// Pop order is bit-identical to EventQueue's: every structure boundary
// is a strict time bound (equal-time events are never split across
// regions except where the older group provably drains first), and
// every drained bucket is keyed and sorted by (time, sequence) before
// popping, so the global drain sequence is exact FIFO for ties —
// artifacts cannot distinguish the two implementations.
//
// Locality pass (the reason buckets hold events/s flat, not just big-O):
//   * entries are 24-byte PODs — every sort and every rung spread is a
//     branch-light walk over contiguous small records;
//   * the binary heap's killer at scale is the per-pop DEPENDENT random
//     load of the callback from a 64-byte-per-slot side table (L2-hostile
//     past ~30k pending).  The ladder instead scatters callbacks into a
//     slot-indexed column at schedule time (a buffered store, not a
//     load) and gathers them into a dense pop-ordered staging column
//     when a bucket is drained — a tight loop of INDEPENDENT loads the
//     core overlaps many-at-a-time, so the cache-miss latency is paid
//     once per epoch at memory bandwidth instead of once per pop at
//     full latency.  The pop itself reads only sequential or
//     bucket-local data;
//   * liveness is a 4-byte GenTable stamp — the only dependent random
//     access on the pop path, L2-resident at the 50k-node operating
//     point where a callback-carrying table would thrash;
//   * bucket vectors, rung frames and staging columns are pooled and
//     recycled across epochs.  A drained slot keeps at most
//     kSortThreshold entries' worth of storage; a larger buffer is
//     freed at the swap, so memory follows the pending set rather than
//     the number of events ever scheduled.  The price is that a dense
//     bucket regrows its storage once per epoch (a few doublings, not
//     one allocation per event).
//
// Cancellation: cancel() is O(1); for rung/top-resident events the
// captured state is released at cancel() itself (the callback column is
// slot-addressable).  For events already staged into the bottom the
// capture is released when the tombstone is next touched (pop skip,
// spill, clear) — bounded by one epoch.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/pending_set.hpp"
#include "sim/slot_table.hpp"

namespace caem::sim {

class LadderQueue {
 public:
  using Fired = sim::Fired;

  EventId schedule(double time_s, EventCallback callback);
  bool cancel(EventId id) noexcept;

  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// Time of the earliest live event; throws std::out_of_range when
  /// empty.  May restage buckets / prune tombstones (hence non-const).
  [[nodiscard]] double next_time();

  /// Const variant for idle checks.  Logically const: restaging moves
  /// entries between internal containers but never changes the live
  /// event set or its drain order.
  [[nodiscard]] double peek_time() const {
    return const_cast<LadderQueue*>(this)->next_time();
  }

  Fired pop();
  void clear() noexcept;

  [[nodiscard]] KernelCounters counters() const noexcept {
    return {total_scheduled(), fired_count_, cancelled_count_, pruned_count_};
  }

  /// Total events ever scheduled (diagnostics / micro-benchmarks).
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return next_sequence_ - 1; }

  /// Heap bytes the queue holds (diagnostics): the summed capacity of
  /// every bucket (pooled rungs included), the bottom, the top, the
  /// staging columns and the slot-indexed callback column.
  [[nodiscard]] std::size_t retained_bytes() const noexcept;

 private:
  struct Entry {
    double time_s;
    std::uint64_t sequence;  // FIFO tie-break for equal times
    EventId id;              // (generation << 32) | slot; liveness via GenTable
  };

  // What actually gets sorted: 24-byte POD referencing the store.
  struct Key {
    double time_s;
    std::uint64_t sequence;
    std::uint32_t index;  // into bottom_store_ / staged_fns_
  };

  using Bucket = std::vector<Entry>;

  // One rung covers [start, limit) split into bucket_count spans of
  // `width` seconds; the last bucket's end is pinned to `limit` so
  // floating-point gaps are absorbed there (entries at exactly `limit`
  // are clamped into it when a rung inherits its parent's bound).
  // buckets.size() may exceed bucket_count: surplus vectors keep their
  // capacity for reuse when the rung frame is pooled.
  struct Rung {
    double start = 0.0;
    double width = 0.0;
    double limit = 0.0;
    std::size_t cur = 0;  // next bucket to drain
    std::size_t bucket_count = 0;
    std::vector<Bucket> buckets;
  };

  // Buckets at or below this size key-sort straight into the bottom
  // instead of spawning a child rung.  A few hundred 24-byte POD keys
  // sort in-cache for ~8 comparisons each — far cheaper than
  // scattering the entries across another rung's bucket tails.
  static constexpr std::size_t kSortThreshold = 256;
  // Rung recursion cap: equal-time pileups stop subdividing here and
  // fall back to a (correct at any size) sort.
  static constexpr std::size_t kMaxRungs = 8;
  // Fan-out cap per rung.  Deliberately modest: schedule() appends to a
  // random bucket tail, so the insert working set is ~bucket_count
  // cache lines — 2048 stays L2-resident at city scale, where 32k
  // tails would thrash.  Million-entry epochs just recurse one level.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 11;
  // A rung-less sorted bottom bigger than this spills its tail to the
  // top so sorted inserts stay short.
  static constexpr std::size_t kBottomSpill = 4096;
  static constexpr std::size_t kSpillKeep = 512;
  static constexpr std::size_t kPrefixCompactMin = 1024;
  // Software-prefetch distances.  The gather loop issues the slot-column
  // load kGatherAhead entries early so misses overlap; the pop path
  // warms the next few keys' store/staged lines and generation stamps.
  static constexpr std::size_t kGatherAhead = 8;
  static constexpr std::size_t kPopAhead = 4;

  [[nodiscard]] static std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }

  [[nodiscard]] static bool earlier(const Key& a, const Key& b) noexcept {
    if (a.time_s != b.time_s) return a.time_s < b.time_s;
    return a.sequence < b.sequence;
  }

  [[nodiscard]] static double bucket_start(const Rung& r, std::size_t i) noexcept {
    return i == 0 ? r.start : r.start + static_cast<double>(i) * r.width;
  }
  [[nodiscard]] static double bucket_end(const Rung& r, std::size_t i) noexcept {
    return i + 1 == r.bucket_count ? r.limit : r.start + static_cast<double>(i + 1) * r.width;
  }
  [[nodiscard]] static bool can_subdivide(double lo, double hi, std::size_t n) noexcept;
  [[nodiscard]] static std::size_t bucket_index(const Rung& r, double t) noexcept;

  [[nodiscard]] bool entry_live(const Entry& e) const noexcept { return gens_.live(e.id); }

  /// Park a rung/top-resident event's callback in the slot column.
  void park_fn(std::uint32_t slot, EventFn fn);

  void insert_entry(const Entry& e);
  void bottom_insert(const Entry& e, EventFn fn);
  void spill_bottom();
  void compact_bottom();

  /// Drop dead entries' bookkeeping in the store, return the live count.
  std::size_t prune_store() noexcept;
  /// Build sorted keys over the store's live entries and gather their
  /// callbacks from the slot column into the dense staging column.
  void key_store();

  /// Ensure the key at bottom_head_ references a live event; false when
  /// the whole queue is drained.
  bool refill_bottom();
  /// Stage the next non-empty region into the (empty) bottom.
  bool advance_ladder();
  void spawn_top_rung();
  void spawn_child_rung(double lo, double hi, std::size_t live);
  Rung& new_rung();
  void retire_rung();
  void prune_top() noexcept;
  void reset_spans() noexcept;

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<Entry> bottom_store_;    // backing entries; husks linger until recycled
  std::vector<EventFn> staged_fns_;    // parallel to bottom_store_: pop-ready callbacks
  std::vector<Entry> store_scratch_;   // recycled storage for compaction rebuilds
  std::vector<EventFn> fn_scratch_;    // ditto, for the staging column
  std::vector<Key> bottom_keys_;       // sorted by (time, seq); [bottom_head_, end) pending
  std::size_t bottom_head_ = 0;
  double bottom_limit_ = -kInf;  // inserts with t < bottom_limit_ join the bottom

  std::vector<Rung> rungs_;  // back() = innermost (earliest) range
  std::vector<Rung> rung_pool_;

  std::vector<Entry> top_;  // unsorted; t >= every rung limit
  double top_min_ = kInf;   // conservative bounds over top_ (tombstones included)
  double top_max_ = -kInf;

  GenTable gens_;
  std::vector<EventFn> fn_store_;  // slot-indexed callbacks for rung/top events
  std::size_t entries_ = 0;        // physical entries incl. tombstones
  std::size_t live_count_ = 0;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t fired_count_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t pruned_count_ = 0;
};

}  // namespace caem::sim
