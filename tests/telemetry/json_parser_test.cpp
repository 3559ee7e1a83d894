// The strict JSON parser against JsonWriter: escaping edge cases,
// RFC 8259 rejections, and a seeded fuzz round-trip — random documents
// emitted by the writer must parse back structurally identical and
// survive a parse -> to_compact_json -> parse cycle byte-for-byte.
#include "telemetry/json_parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "telemetry/json_writer.h"

namespace memcim::telemetry {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonParseResult r = parse_json(text);
  EXPECT_TRUE(r.ok) << r.error << " at byte " << r.offset << " in: " << text;
  return std::move(r.value);
}

void expect_rejected(const std::string& text) {
  const JsonParseResult r = parse_json(text);
  EXPECT_FALSE(r.ok) << "accepted: " << text;
}

TEST(JsonParser, ScalarsAndStructure) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_EQ(parse_ok("true").as_bool(), true);
  EXPECT_EQ(parse_ok("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_ok("-12.5e2").as_double(), -1250.0);
  EXPECT_EQ(parse_ok("-12.5e2").number_text(), "-12.5e2");
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");

  const JsonValue doc = parse_ok(R"({"a": [1, 2, {"b": true}], "c": null})");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[1].number_text(), "2");
  EXPECT_EQ(a->as_array()[2].find("b")->as_bool(), true);
  EXPECT_TRUE(doc.find("c")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParser, PreservesMemberOrderAndNumberText) {
  const JsonValue doc = parse_ok(R"({"z": 1.2300, "a": 1e-9, "m": -0.5})");
  const JsonObject& obj = doc.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
  EXPECT_EQ(to_compact_json(doc), R"({"z":1.2300,"a":1e-9,"m":-0.5})");
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(parse_ok(R"("\"\\\/\b\f\n\r\t")").as_string(),
            "\"\\/\b\f\n\r\t");
  EXPECT_EQ(parse_ok(R"("Aé")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 as 😀 -> 4-byte UTF-8.
  EXPECT_EQ(parse_ok(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");
  expect_rejected(R"("\ud83d")");      // unpaired high surrogate
  expect_rejected(R"("\udc00")");      // lone low surrogate
  expect_rejected(R"("\x41")");        // not a JSON escape
  expect_rejected("\"raw\ncontrol\"");  // unescaped control char
}

TEST(JsonParser, StrictRejections) {
  expect_rejected("");
  expect_rejected("{");
  expect_rejected("[1,]");
  expect_rejected("{\"a\": 1,}");
  expect_rejected("{\"a\": 1, \"a\": 2}");  // duplicate key
  expect_rejected("01");
  expect_rejected("1.");
  expect_rejected(".5");
  expect_rejected("+1");
  expect_rejected("NaN");
  expect_rejected("Infinity");
  expect_rejected("[1] trailing");
  expect_rejected("'single'");
  // Depth cap: 200 nested arrays exceed the default 128.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  expect_rejected(deep);
  EXPECT_TRUE(parse_json(deep, 256).ok);
}

TEST(JsonParser, ErrorsCarryOffsets) {
  const JsonParseResult r = parse_json("{\"a\": 12x}");
  ASSERT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.offset, 8u);
}

// -- JsonWriter round-trips ---------------------------------------------------

TEST(JsonWriterRoundTrip, EscapingEdgeCases) {
  const std::vector<std::string> cases = {
      "",
      "plain",
      "quote \" backslash \\ slash /",
      std::string("embedded\0nul", 12),
      "tab\tnewline\ncr\r",
      "\x01\x02\x1f control run",
      "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80",  // 2/3/4-byte UTF-8
  };
  for (const std::string& s : cases) {
    JsonWriter w;
    w.begin_object().key("s").value(s).end_object();
    const JsonValue doc = parse_ok(w.str());
    ASSERT_NE(doc.find("s"), nullptr) << "case: " << s;
    EXPECT_EQ(doc.find("s")->as_string(), s);
  }
}

TEST(JsonWriterRoundTrip, NumericFormats) {
  JsonWriter w;
  w.begin_object()
      .key("u64max").value(std::uint64_t{0xFFFFFFFFFFFFFFFFull})
      .key("i64min").value(std::int64_t{-9223372036854775807LL - 1})
      .key("tiny").value(1.25e-300)
      .key("huge").value(8.5e300)
      .key("zero").value(0.0)
      .key("neg").value(-42)
      .end_object();
  const JsonValue doc = parse_ok(w.str());
  EXPECT_EQ(doc.find("u64max")->number_text(), "18446744073709551615");
  EXPECT_EQ(doc.find("i64min")->number_text(), "-9223372036854775808");
  EXPECT_DOUBLE_EQ(doc.find("tiny")->as_double(), 1.25e-300);
  EXPECT_DOUBLE_EQ(doc.find("huge")->as_double(), 8.5e300);
  EXPECT_DOUBLE_EQ(doc.find("neg")->as_double(), -42.0);
}

// -- seeded fuzz --------------------------------------------------------------

/// Emit a random value into `w` and return the same value as a tree.
JsonValue random_value(std::mt19937_64& rng, JsonWriter& w, int depth) {
  std::uniform_int_distribution<int> kind(0, depth >= 4 ? 3 : 5);
  switch (kind(rng)) {
    case 0:
      w.value(false);
      return JsonValue::make_bool(false);
    case 1: {
      const auto v = static_cast<std::int64_t>(rng()) % 1000000;
      w.value(v);
      return JsonValue::make_number(std::to_string(v));
    }
    case 2: {
      std::string s;
      std::uniform_int_distribution<int> len(0, 12);
      std::uniform_int_distribution<int> byte(0, 6);
      const std::vector<std::string> pool = {
          "a", "\"", "\\", "\n", "\x01", "\xc3\xa9", "\xf0\x9f\x98\x80"};
      const int n = len(rng);
      for (int i = 0; i < n; ++i)
        s += pool[static_cast<std::size_t>(byte(rng))];
      w.value(s);
      return JsonValue::make_string(s);
    }
    case 3: {
      std::uniform_real_distribution<double> real(-1e6, 1e6);
      const double v = real(rng);
      w.value(v);
      // The writer's own text is authoritative; reparse to capture it.
      JsonWriter probe;
      probe.begin_array().value(v).end_array();
      JsonParseResult r = parse_json(probe.str());
      EXPECT_TRUE(r.ok);
      return r.value.as_array()[0];
    }
    case 4: {
      std::uniform_int_distribution<int> len(0, 4);
      const int n = len(rng);
      JsonArray items;
      w.begin_array();
      for (int i = 0; i < n; ++i)
        items.push_back(random_value(rng, w, depth + 1));
      w.end_array();
      return JsonValue::make_array(std::move(items));
    }
    default: {
      std::uniform_int_distribution<int> len(0, 4);
      const int n = len(rng);
      JsonObject members;
      w.begin_object();
      for (int i = 0; i < n; ++i) {
        std::string k = "k";  // appended: GCC 12 -O3 false -Wrestrict
        k += std::to_string(i);
        w.key(k);
        members.emplace_back(k, random_value(rng, w, depth + 1));
      }
      w.end_object();
      return JsonValue::make_object(std::move(members));
    }
  }
}

TEST(JsonParserFuzz, WriterOutputRoundTripsByteForByte) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 200; ++iter) {
    JsonWriter w;
    w.begin_object().key("doc");
    const JsonValue expected = random_value(rng, w, 0);
    w.end_object();

    // Writer output parses, and matches the expected tree compactly.
    const JsonValue parsed = parse_ok(w.str());
    JsonObject wrapper;
    wrapper.emplace_back("doc", expected);
    EXPECT_EQ(to_compact_json(parsed),
              to_compact_json(JsonValue::make_object(std::move(wrapper))))
        << "iter " << iter;

    // parse -> compact -> parse -> compact is a fixed point.
    const std::string compact = to_compact_json(parsed);
    EXPECT_EQ(to_compact_json(parse_ok(compact)), compact) << "iter " << iter;
  }
}

}  // namespace
}  // namespace memcim::telemetry
