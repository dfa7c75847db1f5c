// Tests for the LadderQueue: the pending-set contract run against both
// classes, rung-spill FIFO ordering, generation safety across
// cancel/clear/reuse, far-future timestamps, the GenTable, and a
// randomized equivalence oracle against the heap EventQueue.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/ladder_queue.hpp"
#include "sim/pending_set.hpp"
#include "sim/slot_table.hpp"
#include "util/rng.hpp"

namespace caem::sim {
namespace {

// ---------------------------------------------------------------------------
// Contract tests run against both classes (sim/pending_set.hpp).  There
// is no interface between them: the parameter picks a class, and each
// body is a generic lambda instantiated for both concrete types.

enum class Impl { kLadder, kHeap };

class PendingSetContract : public ::testing::TestWithParam<Impl> {
 protected:
  template <class Body>
  void with_queue(Body body) const {
    if (GetParam() == Impl::kHeap) {
      EventQueue queue;
      body(queue);
    } else {
      LadderQueue queue;
      body(queue);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(BothKinds, PendingSetContract,
                         ::testing::Values(Impl::kLadder, Impl::kHeap),
                         [](const ::testing::TestParamInfo<Impl>& info) {
                           return std::string(info.param == Impl::kHeap ? "heap" : "ladder");
                         });

TEST_P(PendingSetContract, PopsInTimeOrderAcrossEpochSpreads) {
  with_queue([&](auto& queue) {
    // Enough spread-out events to force the ladder through several rung
    // spreads and bucket drains; a deterministic-but-scrambled insert
    // order exercises out-of-order arrival.
    util::Rng rng(7, "ladder-order");
    std::vector<double> times;
    for (int i = 0; i < 20'000; ++i) times.push_back(rng.uniform() * 1e4);
    for (const double t : times) queue.schedule(t, [](double) {});
    double prev = -1.0;
    std::size_t popped = 0;
    while (!queue.empty()) {
      const Fired fired = queue.pop();
      EXPECT_GE(fired.time_s, prev);
      prev = fired.time_s;
      ++popped;
    }
    EXPECT_EQ(popped, times.size());
  });
}

TEST_P(PendingSetContract, InterleavedIdenticalTimeFifoAcrossSpills) {
  with_queue([&](auto& queue) {
    // Equal-time groups big enough to cross the ladder's bottom-spill and
    // sort-fallback paths, interleaved with unique times.  Each group
    // must drain in exact scheduling order no matter how the structure
    // split the surrounding region.
    constexpr int kGroups = 5;
    constexpr int kPerGroup = 3'000;  // kGroups * kPerGroup > kBottomSpill
    std::vector<std::vector<int>> fired(kGroups);
    for (int round = 0; round < kPerGroup; ++round) {
      for (int g = 0; g < kGroups; ++g) {
        const double t = 10.0 * (g + 1);
        queue.schedule(t, [&fired, g, round](double) { fired[g].push_back(round); });
        queue.schedule(t + 5.0 + round * 1e-7, [](double) {});  // unique-time filler
      }
    }
    while (!queue.empty()) {
      Fired f = queue.pop();
      f.callback(f.time_s);
    }
    for (int g = 0; g < kGroups; ++g) {
      ASSERT_EQ(fired[g].size(), static_cast<std::size_t>(kPerGroup));
      for (int i = 0; i < kPerGroup; ++i) EXPECT_EQ(fired[g][static_cast<std::size_t>(i)], i);
    }
  });
}

TEST_P(PendingSetContract, CancelThenClearThenReuseGenerationSafety) {
  with_queue([&](auto& queue) {
    std::vector<EventId> first;
    for (int i = 0; i < 500; ++i) first.push_back(queue.schedule(1.0 + i, [](double) {}));
    for (int i = 0; i < 500; i += 2) EXPECT_TRUE(queue.cancel(first[static_cast<std::size_t>(i)]));
    queue.clear();
    EXPECT_TRUE(queue.empty());
    // Every pre-clear id is stale forever, cancelled or not.
    for (const EventId id : first) EXPECT_FALSE(queue.cancel(id));
    // The structure is immediately reusable, and recycled slots never
    // resurrect an old id.
    std::vector<EventId> second;
    for (int i = 0; i < 500; ++i) second.push_back(queue.schedule(2.0 + i, [](double) {}));
    for (const EventId id : first) EXPECT_FALSE(queue.cancel(id));
    EXPECT_EQ(queue.size(), 500u);
    std::size_t popped = 0;
    while (!queue.empty()) {
      queue.pop();
      ++popped;
    }
    EXPECT_EQ(popped, 500u);
    for (const EventId id : second) EXPECT_FALSE(queue.cancel(id));
  });
}

TEST_P(PendingSetContract, FarFutureEventsStayOrdered) {
  with_queue([&](auto& queue) {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<int> order;
    queue.schedule(1e18, [&](double) { order.push_back(2); });
    queue.schedule(inf, [&](double) { order.push_back(3); });
    queue.schedule(5.0, [&](double) { order.push_back(1); });
    queue.schedule(inf, [&](double) { order.push_back(4); });  // FIFO at +inf
    EXPECT_EQ(queue.peek_time(), 5.0);
    while (!queue.empty()) {
      Fired f = queue.pop();
      f.callback(f.time_s);
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  });
}

TEST_P(PendingSetContract, RejectsBadArguments) {
  with_queue([&](auto& queue) {
    EXPECT_THROW(queue.schedule(std::nan(""), [](double) {}), std::invalid_argument);
    EXPECT_THROW(queue.schedule(1.0, nullptr), std::invalid_argument);
    EXPECT_THROW(queue.pop(), std::out_of_range);
    EXPECT_THROW(queue.peek_time(), std::out_of_range);
    EXPECT_FALSE(queue.cancel(kInvalidEventId));
  });
}

TEST_P(PendingSetContract, CountersTrackLifecycle) {
  with_queue([&](auto& queue) {
    const EventId a = queue.schedule(1.0, [](double) {});
    queue.schedule(2.0, [](double) {});
    queue.schedule(3.0, [](double) {});
    EXPECT_TRUE(queue.cancel(a));
    queue.pop();  // 2.0 (the 1.0 tombstone is skipped or pruned)
    const KernelCounters counters = queue.counters();
    EXPECT_EQ(counters.scheduled, 3u);
    EXPECT_EQ(counters.fired, 1u);
    EXPECT_EQ(counters.cancelled, 1u);
  });
}

// Randomized equivalence oracle: both implementations consume one
// identical operation stream; popped times (order-sensitive) and every
// cancel() verdict must agree exactly.  EventIds themselves are
// implementation-specific and deliberately not compared.
TEST(LadderQueue, RandomizedMillionOpEquivalenceOracle) {
  EventQueue heap;
  LadderQueue ladder;
  util::Rng rng(2005, "ladder-oracle");
  std::vector<std::pair<EventId, EventId>> live;  // (heap id, ladder id)
  double now = 0.0;
  const auto noop = [](double) {};
  std::uint64_t pops = 0;
  for (int op = 0; op < 1'000'000; ++op) {
    const std::uint64_t dice = rng.next() % 100;
    if (dice < 55 || live.empty()) {
      // Mixed horizon: mostly near-future, occasionally far-future or
      // exactly-equal times to stress FIFO ties across regions.
      double t;
      const std::uint64_t shape = rng.next() % 10;
      if (shape == 0) {
        t = now + 1e6 * rng.uniform();
      } else if (shape == 1) {
        t = now;  // equal to current time: must still order after pops at `now`
      } else {
        t = now + rng.uniform();
      }
      live.emplace_back(heap.schedule(t, noop), ladder.schedule(t, noop));
    } else if (dice < 75) {
      const std::size_t pick = static_cast<std::size_t>(rng.next()) % live.size();
      const bool h = heap.cancel(live[pick].first);
      const bool l = ladder.cancel(live[pick].second);
      ASSERT_EQ(h, l) << "cancel verdict diverged at op " << op;
      live[pick] = live.back();  // order within `live` is irrelevant
      live.pop_back();
    } else {
      ASSERT_EQ(heap.empty(), ladder.empty());
      if (heap.empty()) continue;
      ASSERT_EQ(heap.next_time(), ladder.next_time());
      const Fired h = heap.pop();
      const Fired l = ladder.pop();
      ASSERT_EQ(h.time_s, l.time_s) << "pop order diverged at op " << op;
      now = h.time_s;
      ++pops;
    }
    ASSERT_EQ(heap.size(), ladder.size());
  }
  // Drain whatever is left; the tails must match too.
  while (!heap.empty()) {
    ASSERT_FALSE(ladder.empty());
    ASSERT_EQ(heap.pop().time_s, ladder.pop().time_s);
    ++pops;
  }
  EXPECT_TRUE(ladder.empty());
  EXPECT_GT(pops, 100'000u);
}

// ---------------------------------------------------------------------------
// Ladder-specific semantics.

TEST(LadderQueue, CancelReleasesRungResidentCaptureEagerly) {
  LadderQueue queue;
  auto state = std::make_shared<int>(42);
  // A fresh queue routes schedules to the top region (nothing has been
  // staged into the bottom yet), so this capture is slot-parked and
  // must be released at cancel() itself.
  const EventId id = queue.schedule(1.0, [state](double) {});
  EXPECT_EQ(state.use_count(), 2);
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(state.use_count(), 1);
}

TEST(LadderQueue, BottomStagedCaptureReleasedByNextTouch) {
  LadderQueue queue;
  // Establish a draining bottom region, then schedule inside it.
  for (int i = 0; i < 8; ++i) queue.schedule(10.0 + i, [](double) {});
  queue.pop();  // stages the region into the bottom
  auto state = std::make_shared<int>(7);
  const EventId id = queue.schedule(10.5, [state](double) {});
  EXPECT_TRUE(queue.cancel(id));
  // Bottom-staged tombstones release their capture when next touched —
  // here, when the drain skips past the tombstone.
  while (!queue.empty()) queue.pop();
  EXPECT_EQ(state.use_count(), 1);
}

TEST(LadderQueue, ClearReleasesEveryCapture) {
  LadderQueue queue;
  auto state = std::make_shared<int>(9);
  for (int i = 0; i < 50; ++i) queue.schedule(1.0 + i, [state](double) {});
  queue.pop();  // some captures staged in the bottom, some parked
  queue.schedule(1.2, [state](double) {});
  EXPECT_GT(state.use_count(), 2);
  queue.clear();
  EXPECT_EQ(state.use_count(), 1);
}

// Memory follows the pending set, not the event count.  A hold model
// (pop one, schedule one) keeps ~20k events pending; most increments
// are short and a few are long, so every top-rung epoch spans the long
// tail while the short events crowd a few buckets past kSortThreshold
// and spawn child rungs.  Drained buckets must not keep the storage of
// the densest bucket they ever swapped with: retained bytes after 4M
// ops stay within 10% of the value after 1M ops, and under a fixed
// budget per pending event.
TEST(LadderQueue, RetainedBytesTrackPendingSetAcrossEpochs) {
  LadderQueue queue;
  util::Rng rng(2005, "ladder-retention");
  const auto increment = [&rng] {
    return rng.next() % 50 == 0 ? 100.0 * rng.uniform() : rng.uniform();
  };
  constexpr std::size_t kPending = 20'000;
  for (std::size_t i = 0; i < kPending; ++i) queue.schedule(increment(), [](double) {});
  std::size_t after_1m = 0;
  for (int op = 1; op <= 4'000'000; ++op) {
    const Fired fired = queue.pop();
    queue.schedule(fired.time_s + increment(), [](double) {});
    if (op == 1'000'000) after_1m = queue.retained_bytes();
  }
  const std::size_t after_4m = queue.retained_bytes();
  ASSERT_EQ(queue.size(), kPending);
  // Measured ~200 B per pending event: an entry, its callback in the
  // slot column and its share of bucket headroom.  Storage kept from
  // drained dense buckets shows up as ~4 kB per pending event, growing.
  constexpr std::size_t kBytesPerPending = 400;
  EXPECT_LE(static_cast<double>(after_4m), 1.1 * static_cast<double>(after_1m))
      << "after 1M ops: " << after_1m << " B";
  EXPECT_LE(after_4m, kBytesPerPending * kPending);
}

// ---------------------------------------------------------------------------
// GenTable: the ladder's 4-byte-per-slot id authority.

TEST(GenTable, KillRecyclesSlotWithoutResurrectingIds) {
  GenTable table;
  const std::uint32_t slot = table.acquire();
  const EventId first = table.id_at(slot);
  EXPECT_TRUE(table.live(first));
  EXPECT_TRUE(table.kill(first));
  EXPECT_FALSE(table.live(first));
  EXPECT_FALSE(table.kill(first));  // already dead: stale
  // The slot is immediately reusable, with a distinct id.
  const std::uint32_t again = table.acquire();
  EXPECT_EQ(again, slot);
  const EventId second = table.id_at(again);
  EXPECT_NE(first, second);
  EXPECT_TRUE(table.live(second));
  EXPECT_FALSE(table.live(first));
}

TEST(GenTable, ClearStalesAllIdsAndContinuesGenerations) {
  GenTable table;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(table.id_at(table.acquire()));
  table.clear();
  for (const EventId id : ids) {
    EXPECT_FALSE(table.live(id));
    EXPECT_FALSE(table.kill(id));
  }
  // Re-grown slots resume past the retired generation: no alias.
  for (int i = 0; i < 100; ++i) {
    const EventId fresh = table.id_at(table.acquire());
    for (const EventId old : ids) EXPECT_NE(fresh, old);
  }
}

TEST(GenTable, RejectsInvalidId) {
  GenTable table;
  EXPECT_FALSE(table.kill(kInvalidEventId));
  EXPECT_FALSE(table.live(kInvalidEventId));
  EXPECT_FALSE(table.kill(EventId{0xFFFF'FFFF'FFFF'FFFFull}));  // out-of-range slot
}

}  // namespace
}  // namespace caem::sim
