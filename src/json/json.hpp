// Self-contained JSON value model, parser and serializer.
//
// The paper's architecture generator consumes JSON descriptions (Fig. 8/9):
// a composition file referencing per-PE descriptor files and an interconnect
// file. This module is the substrate for those descriptions; it supports the
// full JSON grammar (objects, arrays, strings with escapes, numbers, bools,
// null) and preserves object key insertion order so serialized compositions
// stay human-diffable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "support/assert.hpp"

namespace cgra::json {

class Value;

/// Order-preserving string→Value map (JSON object).
class Object {
public:
  Value& operator[](const std::string& key);
  const Value& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  /// Returns nullptr when the key is absent.
  const Value* find(const std::string& key) const;
  /// Appends without the duplicate-key scan of operator[]. The parser's
  /// fast path: correct only when the caller knows `key` is not present
  /// yet (on a duplicate, find/at keep answering the first entry and dump
  /// emits both).
  Value& append(std::string key);
  /// Sorts the entries by key in place. Of entries sharing a key only the
  /// first (the one find/at answer) is kept.
  void sortByKey();
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

private:
  std::vector<std::pair<std::string, Value>> entries_;
};

using Array = std::vector<Value>;

/// A JSON value: null, bool, number (double or int64), string, array, object.
class Value {
public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::uint64_t i) : data_(static_cast<std::int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool isBool() const { return std::holds_alternative<bool>(data_); }
  bool isInt() const { return std::holds_alternative<std::int64_t>(data_); }
  bool isDouble() const { return std::holds_alternative<double>(data_); }
  bool isNumber() const { return isInt() || isDouble(); }
  bool isString() const { return std::holds_alternative<std::string>(data_); }
  bool isArray() const { return std::holds_alternative<Array>(data_); }
  bool isObject() const { return std::holds_alternative<Object>(data_); }

  bool asBool() const;
  std::int64_t asInt() const;
  double asDouble() const;
  const std::string& asString() const;
  const Array& asArray() const;
  Array& asArray();
  const Object& asObject() const;
  Object& asObject();

  /// Serializes with 2-space indentation.
  std::string dump(int indent = 2) const;

private:
  void dumpTo(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Deepest array/object nesting `parse` accepts. Parsing, dumping, sorting
/// and destroying a value all recurse once per level, so untrusted input
/// (a served request line) must not choose the depth. Real documents nest
/// fewer than a dozen levels.
inline constexpr std::size_t kMaxParseDepth = 512;

/// Parses a complete JSON document; throws cgra::Error with line/column on
/// malformed input, trailing garbage, or nesting deeper than
/// kMaxParseDepth.
Value parse(const std::string& text);

/// Reads and parses a JSON file; throws cgra::Error when unreadable.
Value parseFile(const std::string& path);

/// Writes a value to a file with trailing newline.
void writeFile(const std::string& path, const Value& value);

/// Deep copy with object keys sorted lexicographically at every level
/// (arrays keep their order). Metrics/counter exports route through this so
/// reports are byte-stable regardless of insertion order at the call sites.
/// Of duplicate keys the first is kept, the entry find/at answer.
Value sortKeys(const Value& value);

/// The same ordering applied in place to a value the caller gives up:
/// no copy, no new object per level.
Value sortKeys(Value&& value);

}  // namespace cgra::json
