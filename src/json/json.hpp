// Self-contained JSON value model, parser and serializer.
//
// The paper's architecture generator consumes JSON descriptions (Fig. 8/9):
// a composition file referencing per-PE descriptor files and an interconnect
// file. This module is the substrate for those descriptions; it supports the
// full JSON grammar (objects, arrays, strings with escapes, numbers, bools,
// null) and preserves object key insertion order so serialized compositions
// stay human-diffable. `Writer` emits a document without building a tree;
// `Value::dump` walks the tree into a Writer, so both share one formatter.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
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
  /// Reserves room for `n` entries, so a builder that knows its key count
  /// appends without regrowing.
  void reserve(std::size_t n) { entries_.reserve(n); }
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

  /// Serializes with 2-space indentation (0: compact, one line).
  std::string dump(int indent = 2) const;

private:
  friend class Writer;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Push-style serializer: begin/end objects and arrays, keys and scalar
/// values, written straight into one string in call order. Its output is
/// byte-identical to building the same tree and calling `Value::dump` with
/// the same indent, which is implemented on top of it. Misuse (a key
/// outside an object, a value in an object without its key, mismatched
/// ends) is an internal error.
class Writer {
public:
  /// Spaces per nesting level; 0 writes the compact one-line form.
  explicit Writer(int indent = 2) : indent_(indent) {}

  Writer& beginObject();
  Writer& endObject();
  Writer& beginArray();
  Writer& endArray();
  /// The key of the next value in the open object.
  Writer& key(std::string_view k);

  Writer& null();
  Writer& value(bool b);
  Writer& value(std::int64_t i);
  /// Every other integer type is written as int64, as `Value` stores it.
  template <std::integral T>
  Writer& value(T i) {
    return value(static_cast<std::int64_t>(i));
  }
  /// `%g` at precision 6, as a `Value` double dumps.
  Writer& value(double d);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(const std::string& s) { return value(std::string_view(s)); }
  /// A whole tree, as `Value::dump` writes it.
  Writer& value(const Value& v);

  /// The document so far.
  const std::string& str() const { return out_; }
  /// Moves the document out; the writer is left empty.
  std::string take() { return std::move(out_); }

private:
  struct Frame {
    std::uint32_t count = 0;  ///< values written so far
    bool object = false;
  };

  /// The separator and indentation before a value, unless it follows its
  /// key.
  void beforeValue();
  Writer& open(char bracket, bool object);
  Writer& close(char bracket, bool object);
  /// An optional comma, then in indented mode a line break and the
  /// indentation of the current depth.
  void separate(bool comma);

  std::string out_;
  std::vector<Frame> frames_;
  int indent_;
  bool afterKey_ = false;
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

/// Writes a value to a file with trailing newline; throws cgra::Error when
/// the file cannot be written.
void writeFile(const std::string& path, const Value& value);
/// The same for a document already serialized, e.g. by a Writer.
void writeFile(const std::string& path, const std::string& text);

/// Deep copy with object keys sorted lexicographically at every level
/// (arrays keep their order). Metrics/counter exports route through this so
/// reports are byte-stable regardless of insertion order at the call sites.
/// Of duplicate keys the first is kept, the entry find/at answer.
Value sortKeys(const Value& value);

/// The same ordering applied in place to a value the caller gives up:
/// no copy, no new object per level.
Value sortKeys(Value&& value);

/// True when the keys of every object, at every level, are strictly
/// ascending: the order sortKeys produces, with no duplicates. Builders
/// that append keys in canonical order are tested against it.
bool isCanonical(const Value& value);

}  // namespace cgra::json
