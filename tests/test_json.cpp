// Unit tests for the JSON substrate: full-grammar parsing, error reporting
// with line/column, the nesting-depth limit, serialization round trips,
// number formatting, key sorting, the canonical-order check, and the
// order-preserving object semantics the composition files rely on, the
// push-style Writer against Value::dump, and record layouts' strict keys.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace cgra::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").isNull());
  EXPECT_TRUE(parse("true").asBool());
  EXPECT_FALSE(parse("false").asBool());
  EXPECT_EQ(parse("42").asInt(), 42);
  EXPECT_EQ(parse("-17").asInt(), -17);
  EXPECT_DOUBLE_EQ(parse("2.5").asDouble(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e3").asDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5e-2").asDouble(), -0.025);
  EXPECT_EQ(parse("\"hi\"").asString(), "hi");
}

TEST(JsonParse, IntVsDouble) {
  EXPECT_TRUE(parse("3").isInt());
  EXPECT_TRUE(parse("3.0").isDouble());
  // Whole-valued doubles are still usable as ints.
  EXPECT_EQ(parse("3.0").asInt(), 3);
  EXPECT_THROW(parse("3.5").asInt(), Error);
}

TEST(JsonParse, LargeIntegersExact) {
  EXPECT_EQ(parse("9223372036854775807").asInt(), 9223372036854775807ll);
  EXPECT_EQ(parse("-9223372036854775808").asInt(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\tc\\d\"e\/f")").asString(), "a\nb\tc\\d\"e/f");
  EXPECT_EQ(parse(R"("Aé")").asString(), "A\xC3\xA9");
  EXPECT_EQ(parse(R"("€")").asString(), "\xE2\x82\xAC");  // euro sign
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1,]"), Error);
  EXPECT_THROW(parse("{\"a\":1,}"), Error);
  EXPECT_THROW(parse("tru"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("1 2"), Error);
  EXPECT_THROW(parse("{\"a\" 1}"), Error);
  EXPECT_THROW(parse("\"bad\\q\""), Error);
  EXPECT_THROW(parse("\"ctrl\x01\""), Error);
}

TEST(JsonParse, ErrorCarriesLineAndColumn) {
  try {
    parse("{\n  \"a\": 1,\n  \"b\": ?\n}");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
}

TEST(JsonParse, RejectsNestingDeeperThanTheLimit) {
  // One request line of a million brackets used to overflow the stack.
  try {
    parse(std::string(1000000, '['));
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 1, column " + std::to_string(kMaxParseDepth + 1)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("nesting"), std::string::npos) << msg;
  }
  std::string deepObject;
  for (std::size_t i = 0; i <= kMaxParseDepth; ++i) deepObject += "{\"a\":";
  EXPECT_THROW(parse(deepObject), Error);
}

TEST(JsonParse, AcceptsNestingAtTheLimit) {
  const std::string text = std::string(kMaxParseDepth, '[') +
                           std::string(kMaxParseDepth, ']');
  const Value v = parse(text);
  EXPECT_EQ(v.dump(0), text);
  EXPECT_EQ(sortKeys(v).dump(0), text);
  // Depth is counted per open container, not per container ever seen.
  std::string siblings = "[";
  for (int i = 0; i < 2000; ++i) siblings += i ? ",[[]]" : "[[]]";
  siblings += "]";
  EXPECT_EQ(parse(siblings).dump(0), siblings);
}

TEST(JsonParse, NestedStructures) {
  const Value v = parse(R"({
    "name": "CGRA1",
    "Number_of_PEs": 8,
    "PEs": {"0": "PE_no_mem", "1": "PE_mem"},
    "list": [1, [2, 3], {"x": null}]
  })");
  const Object& obj = v.asObject();
  EXPECT_EQ(obj.at("name").asString(), "CGRA1");
  EXPECT_EQ(obj.at("Number_of_PEs").asInt(), 8);
  EXPECT_EQ(obj.at("PEs").asObject().at("1").asString(), "PE_mem");
  const Array& list = obj.at("list").asArray();
  EXPECT_EQ(list[1].asArray()[1].asInt(), 3);
  EXPECT_TRUE(list[2].asObject().at("x").isNull());
}

TEST(JsonObject, PreservesInsertionOrder) {
  Object obj;
  obj["zeta"] = 1;
  obj["alpha"] = 2;
  obj["mid"] = 3;
  std::vector<std::string> keys;
  for (const auto& [k, v] : obj) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"zeta", "alpha", "mid"}));
}

TEST(JsonObject, FindAndContains) {
  Object obj;
  obj["a"] = 1;
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("b"));
  EXPECT_EQ(obj.find("a")->asInt(), 1);
  EXPECT_EQ(obj.find("b"), nullptr);
  EXPECT_THROW(obj.at("b"), Error);
}

TEST(JsonDump, RoundTripsComplexDocument) {
  const std::string src = R"({"a": [1, 2.5, "x\ny", true, null], "b": {"c": -7}})";
  const Value v = parse(src);
  const Value again = parse(v.dump());
  EXPECT_EQ(again.asObject().at("a").asArray()[2].asString(), "x\ny");
  EXPECT_EQ(again.asObject().at("b").asObject().at("c").asInt(), -7);
  EXPECT_DOUBLE_EQ(again.asObject().at("a").asArray()[1].asDouble(), 2.5);
}

TEST(JsonDump, CompactAndIndented) {
  Object obj;
  obj["k"] = Array{Value(1), Value(2)};
  const Value v(std::move(obj));
  EXPECT_EQ(v.dump(0), "{\"k\":[1,2]}");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("\n  \"k\""), std::string::npos);
}

TEST(JsonDump, EscapesControlCharacters) {
  const Value v(std::string("a\x01" "b"));
  EXPECT_EQ(v.dump(0), "\"a\\u0001b\"");
  EXPECT_EQ(parse(v.dump()).asString(), std::string("a\x01" "b"));
}

TEST(JsonDump, DoublesMatchTheDefaultStreamFormat) {
  // Serialized doubles are defined as `std::ostream << double` output
  // (precision 6, %g); goldens and job keys depend on every byte.
  const double table[] = {0.5,
                          1.0,
                          2.25,
                          1e-7,
                          1e21,
                          123456.7,
                          -0.0,
                          3.14159265,
                          0.1,
                          -2.5e-2,
                          1234567.0,
                          999999.5,
                          1e-5,
                          0.0001,
                          1e100,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double d : table) {
    std::ostringstream os;
    os << d;
    EXPECT_EQ(Value(d).dump(), os.str()) << "value " << d;
  }
}

TEST(JsonDump, ShortAndRandomDoublesMatchTheDefaultStreamFormat) {
  // Integers of up to seven digits scaled by 1e-13 through 1e2, values at
  // the edges of %g's plain-decimal range, and random bit patterns.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<double> values;
  for (int exp10 = -7; exp10 <= 8; ++exp10)
    for (int i = 0; i < 400; ++i) {
      const auto digits = static_cast<std::int64_t>(next() % 10'000'000);
      const double d = static_cast<double>(digits) * std::pow(10.0, exp10 - 6);
      values.push_back(i % 2 ? d : -d);
    }
  for (const double d : {999999.5, 999999.4, 0.0001, 0.00009999995, 1e-4 * 0.99,
                         123456.5, 0.30000000000000004, 1.0000005, 2.9999995})
    values.push_back(d);
  for (int i = 0; i < 4000; ++i) {
    double d;
    const std::uint64_t bits = next();
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);
  }
  for (const double d : values) {
    std::ostringstream os;
    os << d;
    ASSERT_EQ(Value(d).dump(), os.str()) << std::hexfloat << d;
  }
}

TEST(JsonDump, IntegersMatchToString) {
  const std::int64_t table[] = {0,
                                -1,
                                7,
                                4294967295,
                                -4294967296,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t i : table)
    EXPECT_EQ(Value(i).dump(), std::to_string(i));
}

TEST(JsonIsCanonical, HoldsOnlyForStrictlyAscendingKeysAtEveryLevel) {
  EXPECT_TRUE(isCanonical(parse(R"({"a":1,"b":{"x":[{"p":1,"q":2}]}})")));
  EXPECT_TRUE(isCanonical(parse(R"([3,{},{"B":1,"a":2},"s"])")))
      << "byte order: uppercase sorts first";
  EXPECT_TRUE(isCanonical(Value(5)));
  EXPECT_FALSE(isCanonical(parse(R"({"b":1,"a":2})")));
  EXPECT_FALSE(isCanonical(parse(R"({"a":{"d":1,"c":2}})"))) << "nested";
  EXPECT_FALSE(isCanonical(parse(R"([{"ok":1},{"z":1,"y":2}])")))
      << "inside an array";
  EXPECT_FALSE(isCanonical(parse(R"({"a":1,"a":2})"))) << "duplicate key";
  const Value v = parse(R"({"z":[{"b":1,"a":2}],"m":{"y":null,"x":1}})");
  EXPECT_TRUE(isCanonical(sortKeys(v)));
}

TEST(JsonSortKeys, SortsEveryLevelAndKeepsArrayOrder) {
  const Value v =
      parse(R"({"z":[{"b":1,"a":2},3],"m":{"y":null,"x":[true]},"a":0.5})");
  const std::string want =
      R"({"a":0.5,"m":{"x":[true],"y":null},"z":[{"a":2,"b":1},3]})";
  EXPECT_EQ(sortKeys(v).dump(0), want);
  EXPECT_EQ(v.asObject().begin()->first, "z") << "the copy leaves v alone";
  EXPECT_EQ(sortKeys(Value(v)).dump(0), want) << "in-place overload";
}

TEST(JsonSortKeys, DuplicateKeysKeepTheEntryFindAnswers) {
  const Value v = parse(R"({"b":1,"a":2,"a":3})");
  ASSERT_EQ(v.asObject().at("a").asInt(), 2);
  EXPECT_EQ(sortKeys(v).dump(0), R"({"a":2,"b":1})");
  EXPECT_EQ(sortKeys(Value(v)).dump(0), R"({"a":2,"b":1})");

  // Wide objects with many duplicates: first occurrence wins throughout.
  Object wide;
  for (int i = 0; i < 4000; ++i)
    wide.append("k" + std::to_string(i % 1000)) = i;
  const Value sorted = sortKeys(Value(std::move(wide)));
  ASSERT_EQ(sorted.asObject().size(), 1000u);
  for (const auto& [k, val] : sorted.asObject())
    EXPECT_EQ("k" + std::to_string(val.asInt()), k);
}

TEST(JsonFile, WriteAndParseFile) {
  const std::string path = ::testing::TempDir() + "/cgra_json_test.json";
  Object obj;
  obj["answer"] = 42;
  writeFile(path, Value(std::move(obj)));
  const Value v = parseFile(path);
  EXPECT_EQ(v.asObject().at("answer").asInt(), 42);
  writeFile(path, std::string(R"({"answer": 43})"));  // serialized text
  EXPECT_EQ(parseFile(path).asObject().at("answer").asInt(), 43);
  EXPECT_THROW(parseFile("/nonexistent/file.json"), Error);
  EXPECT_THROW(writeFile("/nonexistent/file.json", Value(1)), Error);
  EXPECT_THROW(writeFile("/nonexistent/file.json", std::string("1")), Error);
}

TEST(JsonValue, TypeErrorsAreReported) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.asObject(), Error);
  EXPECT_THROW(v.asString(), Error);
  EXPECT_THROW(v.asArray()[0].asBool(), Error);
}

TEST(JsonWriter, MatchesDumpAtEveryIndent) {
  const std::string src =
      R"({"a": [1, 2.5, "x\ny", true, null, [], {}, [[]], {"e": {}}],)"
      R"( "b": {"c": -7, "d": [{"q\"": 1e-7}]}, "": "", "u": "\u0001"})";
  const Value v = parse(src);
  for (int indent : {0, 1, 2, 4}) {
    Writer w(indent);
    w.beginObject();
    w.key("a").beginArray();
    w.value(1).value(2.5).value("x\ny").value(true).null();
    w.beginArray().endArray();
    w.beginObject().endObject();
    w.beginArray().beginArray().endArray().endArray();
    w.beginObject().key("e").beginObject().endObject().endObject();
    w.endArray();
    w.key("b").beginObject().key("c").value(std::int64_t{-7});
    w.key("d").beginArray().beginObject().key("q\"").value(1e-7);
    w.endObject().endArray().endObject();
    w.key("").value(std::string());
    w.key("u").value(std::string_view("\x01", 1));
    w.endObject();
    EXPECT_EQ(w.str(), v.dump(indent)) << "indent " << indent;
  }
}

TEST(JsonWriter, ScalarDocumentsAndIntegerTypes) {
  EXPECT_EQ(Writer().value(42u).str(), "42");
  EXPECT_EQ(Writer().value(std::uint64_t{7}).str(),
            Value(std::uint64_t{7}).dump());
  EXPECT_EQ(Writer().value(false).str(), "false");
  EXPECT_EQ(Writer().value(0.1).str(), Value(0.1).dump());
  EXPECT_EQ(Writer().null().str(), "null");
  Writer w;
  w.value(parse(R"([1, {"k": "v"}])"));
  EXPECT_EQ(w.take(), parse(R"([1, {"k": "v"}])").dump());
  EXPECT_EQ(w.str(), "");
}

TEST(JsonWriter, MisuseIsAnInternalError) {
  EXPECT_THROW(Writer().key("k"), InternalError) << "key outside an object";
  EXPECT_THROW(Writer().beginObject().value(1), InternalError)
      << "value without a key";
  EXPECT_THROW(Writer().beginObject().key("a").key("b"), InternalError);
  EXPECT_THROW(Writer().beginObject().key("a").endObject(), InternalError);
  EXPECT_THROW(Writer().beginArray().endObject(), InternalError);
  EXPECT_THROW(Writer().endArray(), InternalError);
}

struct Inner {
  int a = 0;
};

struct Outer {
  bool b = false;
  Inner in;
};

constexpr auto kInner = layout<1>([](auto& c, auto& r) { c.field("a", r.a); });

constexpr auto kOuter = layout<2>([](auto& c, auto& r) {
  c.field("b", r.b);
  c.field("in", r.in, kInner);
});

/// The error decoding `text` with kOuter raises; "" when it decodes.
std::string outerError(const std::string& text) {
  Outer r;
  try {
    decode(kOuter, parse(text), "outer doc", r);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(JsonLayout, RejectsKeysTheLayoutDoesNotVisitAtEveryLevel) {
  EXPECT_EQ(outerError(R"({"b": true, "in": {"a": 3}})"), "");
  EXPECT_EQ(outerError(R"({"b": true, "extra": 1, "in": {"a": 3}})"),
            "outer doc: unknown key \"extra\"");
  EXPECT_EQ(outerError(R"({"b": true, "in": {"a": 3, "inner": []}})"),
            "outer doc: unknown key \"inner\"");
  EXPECT_EQ(outerError(R"({"b": true, "b": false, "in": {"a": 3}})"),
            "outer doc: repeated key \"b\"");
  EXPECT_EQ(outerError(R"({"b": true, "in": {"a": "3"}})"),
            "outer doc: field 'a' is not an integer");
}

TEST(JsonLayout, DefaultedMembersKeepTheirValueWhenAbsent) {
  struct Rec {
    Value id;
    std::vector<unsigned> list{1, 2};
    unsigned n = 7;
  };
  constexpr auto kRec = layout<3>([](auto& c, auto& r) {
    c.defaulted("id", r.id, Raw{});
    c.defaulted("list", r.list, Range{0, 9});
    c.defaulted("n", r.n);
  });
  Rec r;
  decode(kRec, parse("{}"), "rec", r);
  EXPECT_TRUE(r.id.isNull());
  EXPECT_EQ(r.list, (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(r.n, 7u);

  decode(kRec, parse(R"({"n": 3, "list": [4], "id": {"k": [1, null]}})"),
         "rec", r);
  EXPECT_EQ(r.list, std::vector<unsigned>{4});
  EXPECT_EQ(r.n, 3u);
  EXPECT_EQ(encode(kRec, r).dump(0),
            R"({"id":{"k":[1,null]},"list":[4],"n":3})")
      << "a defaulted member is always written";

  Rec bad;
  EXPECT_THROW(decode(kRec, parse(R"({"list": [10]})"), "rec", bad), Error);
  EXPECT_THROW(decode(kRec, parse(R"({"n": -1})"), "rec", bad), Error);
  EXPECT_THROW(decode(kRec, parse(R"({"m": 1})"), "rec", bad), Error);
}

}  // namespace
}  // namespace cgra::json
