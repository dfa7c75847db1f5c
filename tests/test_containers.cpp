// Tests for util::RingBuffer, util::TableWriter and util::json_escape.
#include <gtest/gtest.h>

#include <sstream>

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
