#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "io/json_value.hpp"
#include "util/error.hpp"

namespace qulrb::io {
namespace {

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(JsonValue::parse("42").as_int(), 42);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonValue, ParsesNestedContainers) {
  const JsonValue doc =
      JsonValue::parse(R"({"a":[1,2,{"b":true}],"c":{"d":null},"e":"x"})");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[1].as_int(), 2);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_TRUE(doc.find("c")->find("d")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.find("c")->find("missing"), nullptr);
}

TEST(JsonValue, StringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(JsonValue::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonValue, WhitespaceAndTrailingGarbage) {
  EXPECT_DOUBLE_EQ(JsonValue::parse("  \t\n 7 \r\n").as_number(), 7.0);
  EXPECT_THROW(JsonValue::parse("7 x"), util::InvalidArgument);
}

TEST(JsonValue, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "{1:2}", "[1 2]", "tru",
        "\"unterminated", "\"bad \x01 control\"", "01a", "nan", "--3",
        R"("\ud800")", "{\"a\":1,}"}) {
    EXPECT_THROW(JsonValue::parse(bad), util::InvalidArgument) << bad;
  }
}

TEST(JsonValue, TypeMismatchesThrow) {
  const JsonValue doc = JsonValue::parse(R"({"s":"x","n":1.5})");
  EXPECT_THROW(doc.find("s")->as_number(), util::InvalidArgument);
  EXPECT_THROW(doc.find("n")->as_string(), util::InvalidArgument);
  EXPECT_THROW(doc.find("n")->as_int(), util::InvalidArgument);  // not integral
  EXPECT_THROW(doc.as_array(), util::InvalidArgument);
}

TEST(JsonValue, LenientAccessorsFallBack) {
  const JsonValue doc = JsonValue::parse(R"({"n":2,"s":"x","b":true})");
  EXPECT_DOUBLE_EQ(doc.number_or("n", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(doc.number_or("missing", -1.0), -1.0);
  EXPECT_EQ(doc.int_or("n", -1), 2);
  EXPECT_EQ(doc.string_or("s", ""), "x");
  // The fallback covers *missing* keys only; a present key of the wrong
  // type is a client error and throws.
  EXPECT_THROW(doc.string_or("n", "fallback"), util::InvalidArgument);
  EXPECT_TRUE(doc.bool_or("b", false));
  EXPECT_FALSE(doc.bool_or("missing", false));
}

TEST(JsonValue, NestingDepthAndIntegerRangeAreBounded) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(JsonValue::parse(nested(256)).is_array());
  EXPECT_THROW(JsonValue::parse(nested(257)), util::InvalidArgument);
  EXPECT_THROW(JsonValue::parse(nested(1000000)), util::InvalidArgument);

  EXPECT_EQ(JsonValue::parse("-9223372036854775808").as_int(), INT64_MIN);
  EXPECT_THROW(JsonValue::parse("9223372036854775808").as_int(), util::InvalidArgument);
  EXPECT_THROW(JsonValue::parse("-1e300").as_int(), util::InvalidArgument);
}

TEST(JsonValue, ErrorMessagesCarryOffset) {
  try {
    JsonValue::parse(R"({"a": bad})");
    FAIL() << "expected a parse error";
  } catch (const util::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

}  // namespace
}  // namespace qulrb::io
