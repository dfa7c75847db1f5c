// Tests for util::RingBuffer (including its on-demand storage growth and
// the PacketQueue drop-tail it backs), util::TableWriter and
// util::json_escape.
#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <vector>

#include "queueing/packet_queue.hpp"
#include "util/ring_buffer.hpp"
#include "util/table_writer.hpp"

namespace caem::util {
namespace {

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> buffer(4);
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(buffer.try_push(i));
  EXPECT_TRUE(buffer.full());
  EXPECT_FALSE(buffer.try_push(5));
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(buffer.pop(), i);
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, WrapAround) {
  RingBuffer<int> buffer(3);
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(buffer.try_push(round));
    EXPECT_EQ(buffer.pop(), round);
  }
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, PushFrontRestoresHead) {
  RingBuffer<int> buffer(4);
  buffer.try_push(2);
  buffer.try_push(3);
  EXPECT_TRUE(buffer.try_push_front(1));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.pop(), 1);
  EXPECT_EQ(buffer.pop(), 2);
  EXPECT_EQ(buffer.pop(), 3);
}

TEST(RingBuffer, PushFrontWhenFullFails) {
  RingBuffer<int> buffer(2);
  buffer.try_push(1);
  buffer.try_push(2);
  EXPECT_FALSE(buffer.try_push_front(0));
}

TEST(RingBuffer, AtIndexesFromHead) {
  RingBuffer<int> buffer(3);
  buffer.try_push(10);
  buffer.try_push(20);
  (void)buffer.pop();
  buffer.try_push(30);
  buffer.try_push(40);  // storage now wrapped
  EXPECT_EQ(buffer.at(0), 20);
  EXPECT_EQ(buffer.at(1), 30);
  EXPECT_EQ(buffer.at(2), 40);
  EXPECT_THROW(buffer.at(3), std::out_of_range);
}

// Storage starts empty and doubles from 4 slots up to the capacity, so
// with capacity 50 the growth steps are taken at sizes 0, 4, 8, 16, 32.

TEST(RingBuffer, GrowthWhileWrappedKeepsFifoOrder) {
  RingBuffer<int> buffer(50);
  for (int i = 0; i < 4; ++i) buffer.try_push(i);  // storage [0 1 2 3], full
  EXPECT_EQ(buffer.pop(), 0);
  EXPECT_EQ(buffer.pop(), 1);
  buffer.try_push(4);
  buffer.try_push(5);  // wrapped: [4 5 2 3], head at slot 2
  EXPECT_TRUE(buffer.try_push(6));  // growth step with the head wrapped
  for (int i = 7; i < 52; ++i) EXPECT_TRUE(buffer.try_push(i));
  EXPECT_TRUE(buffer.full());
  for (int i = 2; i < 52; ++i) EXPECT_EQ(buffer.pop(), i);
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, PushFrontAtGrowthBoundary) {
  RingBuffer<int> buffer(50);
  for (int i = 1; i <= 4; ++i) buffer.try_push(i);  // storage full at 4
  EXPECT_TRUE(buffer.try_push_front(0));             // grows, then re-queues
  EXPECT_EQ(buffer.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(buffer.at(static_cast<std::size_t>(i)), i);
  for (int i = 5; i < 8; ++i) buffer.try_push(i);  // storage full at 8
  EXPECT_TRUE(buffer.try_push_front(-1));  // next boundary; the head wraps to the end
  EXPECT_EQ(buffer.front(), -1);
  for (int i = -1; i < 8; ++i) EXPECT_EQ(buffer.pop(), i);
}

TEST(RingBuffer, FullAndCapacityExactlyAtTheLimit) {
  // 50 is not a power of two: the last growth step is clamped to it.
  RingBuffer<int> buffer(50);
  EXPECT_EQ(buffer.capacity(), 50u);
  for (int i = 0; i < 49; ++i) {
    EXPECT_TRUE(buffer.try_push(i));
    EXPECT_FALSE(buffer.full());
    EXPECT_EQ(buffer.capacity(), 50u);
  }
  EXPECT_TRUE(buffer.try_push(49));
  EXPECT_TRUE(buffer.full());
  EXPECT_EQ(buffer.capacity(), 50u);
  EXPECT_FALSE(buffer.try_push(50));
  EXPECT_FALSE(buffer.try_push_front(-1));
  EXPECT_EQ(buffer.size(), 50u);
  EXPECT_EQ(buffer.front(), 0);
  EXPECT_EQ(buffer.at(49), 49);
}

TEST(RingBuffer, MatchesDequeOracleAcrossEveryGrowthStep) {
  // Mixed back pushes, front re-queues and pops walk the size up and
  // down through every growth boundary in every wrap position.
  RingBuffer<int> buffer(50);
  std::deque<int> oracle;
  unsigned state = 2005;
  for (int op = 0; op < 20'000; ++op) {
    state = state * 1103515245u + 12345u;
    const unsigned dice = (state >> 16) % 10;
    if (dice < 5) {
      const bool pushed = buffer.try_push(op);
      EXPECT_EQ(pushed, oracle.size() < 50);
      if (pushed) oracle.push_back(op);
    } else if (dice < 7) {
      const bool pushed = buffer.try_push_front(op);
      EXPECT_EQ(pushed, oracle.size() < 50);
      if (pushed) oracle.push_front(op);
    } else if (!oracle.empty()) {
      ASSERT_EQ(buffer.pop(), oracle.front());
      oracle.pop_front();
    }
    ASSERT_EQ(buffer.size(), oracle.size());
    ASSERT_EQ(buffer.full(), oracle.size() == 50);
    for (std::size_t i = 0; i < oracle.size(); ++i) ASSERT_EQ(buffer.at(i), oracle[i]);
  }
}

TEST(RingBuffer, PacketQueueOverflowAccountingAtTableTwoCapacity) {
  // Table II: 50 packets.  Drop-tail at the limit, with every arrival
  // counted and every overflow reported, exactly as fixed storage did.
  queueing::PacketQueue queue(50);
  EXPECT_EQ(queue.capacity(), 50u);
  std::vector<std::uint64_t> dropped;
  queue.set_overflow_callback(
      [&](const queueing::Packet& packet, double) { dropped.push_back(packet.id); });
  for (std::uint64_t id = 1; id <= 60; ++id) {
    queueing::Packet packet;
    packet.id = id;
    EXPECT_EQ(queue.push(packet, 0.0), id <= 50);
  }
  EXPECT_EQ(queue.size(), 50u);
  EXPECT_EQ(queue.total_arrivals(), 60u);
  EXPECT_EQ(queue.overflow_drops(), 10u);
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{51, 52, 53, 54, 55, 56, 57, 58, 59, 60}));
  queueing::Packet failed;
  failed.id = 0;
  EXPECT_FALSE(queue.requeue_front(failed));  // full: no room to re-queue
  EXPECT_EQ(queue.pop().id, 1u);
  EXPECT_TRUE(queue.requeue_front(failed));
  EXPECT_EQ(queue.head().id, 0u);
  EXPECT_EQ(queue.peek(49).id, 50u);
  std::uint64_t drained = 0;
  queue.drain([&](const queueing::Packet&) { ++drained; });
  EXPECT_EQ(drained, 50u);
  EXPECT_EQ(queue.overflow_drops(), 10u);
}

TEST(RingBuffer, ErrorsAndClear) {
  RingBuffer<int> buffer(2);
  EXPECT_THROW(buffer.pop(), std::out_of_range);
  EXPECT_THROW(buffer.front(), std::out_of_range);
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
  buffer.try_push(1);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
}

TEST(TableWriter, AlignsColumns) {
  TableWriter table({"a", "long-header"});
  table.new_row().cell(std::string("xxxx")).cell(1.5, 1);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("|    a | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxx |         1.5 |"), std::string::npos);
}

TEST(TableWriter, CsvEscapesSpecials) {
  TableWriter table({"k", "v"});
  table.new_row().cell(std::string("a,b")).cell(std::string("say \"hi\""));
  std::ostringstream out;
  table.render_csv(out);
  EXPECT_NE(out.str().find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableWriter, JsonQuotesOnlyStrictJsonNumbers) {
  TableWriter table({"a", "b", "c", "d", "e", "f"});
  table.new_row()
      .cell(std::string("5"))
      .cell(std::string("-0.5"))
      .cell(std::string("1.5e-3"))
      .cell(std::string(".5"))     // strtod-valid but NOT valid JSON
      .cell(std::string("nan"))    // ditto
      .cell(std::string("05"));    // leading zero: invalid JSON
  std::ostringstream out;
  table.render_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"a\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"b\": -0.5"), std::string::npos);
  EXPECT_NE(json.find("\"c\": 1.5e-3"), std::string::npos);
  EXPECT_NE(json.find("\"d\": \".5\""), std::string::npos);
  EXPECT_NE(json.find("\"e\": \"nan\""), std::string::npos);
  EXPECT_NE(json.find("\"f\": \"05\""), std::string::npos);
}

TEST(TableWriter, NumericCells) {
  TableWriter table({"n", "x"});
  table.new_row().cell(std::size_t{42}).cell(3.14159, 2);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(JsonEscape, EscapesEveryControlByte) {
  EXPECT_EQ(json_escape("plain ascii, \xc3\xa9 utf-8"), "plain ascii, \xc3\xa9 utf-8");
  EXPECT_EQ(json_escape("q\"b\\"), "q\\\"b\\\\");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(json_escape("\x01\x1b\x1f"), "\\u0001\\u001b\\u001f");
  EXPECT_EQ(json_escape("\x7f "), "\x7f ");  // DEL and space are legal raw
  // No byte below 0x20 survives, whatever the input.
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  for (const char c : json_escape(all)) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST(TableWriter, JsonEscapesControlBytesInCells) {
  TableWriter table({"name\r"});
  table.new_row().cell(std::string("a\rb\x02"));
  std::ostringstream out;
  table.render_json(out);
  EXPECT_NE(out.str().find("\"name\\r\": \"a\\rb\\u0002\""), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find('\r'), std::string::npos);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(-0.5, 2), "-0.50");
}

}  // namespace
}  // namespace caem::util
