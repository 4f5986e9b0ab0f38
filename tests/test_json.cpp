// Unit tests for the JSON substrate: full-grammar parsing, error reporting
// with line/column, the nesting-depth limit, serialization round trips,
// number formatting, key sorting, and the order-preserving object semantics
// the composition files rely on.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

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
  EXPECT_THROW(parseFile("/nonexistent/file.json"), Error);
}

TEST(JsonValue, TypeErrorsAreReported) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.asObject(), Error);
  EXPECT_THROW(v.asString(), Error);
  EXPECT_THROW(v.asArray()[0].asBool(), Error);
}

}  // namespace
}  // namespace cgra::json
