// Self-contained JSON value model, parser and serializer.
//
// The paper's architecture generator consumes JSON descriptions (Fig. 8/9):
// a composition file referencing per-PE descriptor files and an interconnect
// file. This module is the substrate for those descriptions; it supports the
// full JSON grammar (objects, arrays, strings with escapes, numbers, bools,
// null) and preserves object key insertion order so serialized compositions
// stay human-diffable. `Writer` emits a document without building a tree;
// `Value::dump` walks the tree into a Writer, so both share one formatter.
// Persisted records (schedule artifacts, context images) state their
// layout once, as a function that FieldEncoder and FieldDecoder both run.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "support/assert.hpp"
#include "support/small_vector.hpp"

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

// -- Record layouts ---------------------------------------------------------
//
// A record's JSON layout is written once, as a function over a coder:
// FieldEncoder runs it to append the record's keys to an Object, and
// FieldDecoder runs the same function to read them back, so the two
// directions cannot drift apart. A layout visits its keys in ascending
// byte order, the order sortKeys produces, so what it encodes is canonical
// as built. The one exception is the wire response (artifact/service.cpp),
// which keeps the key order of wire protocol v1. Each visit names a key,
// the record's member and, optionally, a codec:
//  * Scalar (the default) or a Range: a bool, string, double, or an
//    integer or enum within the Range and its C++ type;
//  * a Layout: a nested record;
//  * Raw: a json::Value member, any JSON value, kept as it is;
//  * a text codec (a struct with `encode` and `decode`): a scalar written
//    as a string.
// FieldDecoder finds each key, checks the value's type and range, and
// throws cgra::Error naming the document and the key. Keys are strict: an
// object holding a key its layout does not visit is rejected with
// `<what>: unknown key "<k>"`, at every level of every document read.

/// Inclusive bounds of an integer or enum member, within its C++ type.
struct Range {
  std::int64_t lo = INT64_MIN;
  std::int64_t hi = INT64_MAX;
};

/// Codes a scalar member by its C++ type. An enum needs a Range instead.
struct Scalar : Range {};

/// The values 0..last of an enum.
template <class E>
constexpr Range upTo(E last) {
  return {0, static_cast<std::int64_t>(last)};
}

/// A record's layout: `fields(coder, record...)` visits its keys. `Keys` is
/// the most keys it writes, reserved up front by the encoder.
template <std::size_t Keys, class Fields>
struct Layout {
  static constexpr std::size_t kKeys = Keys;
  Fields fields;
};

template <std::size_t Keys, class Fields>
constexpr Layout<Keys, Fields> layout(Fields fields) {
  return {fields};
}

/// Codes a json::Value member as itself: any JSON value, not checked.
struct Raw {};

/// A 64-bit unsigned integer as decimal text (JSON integers are int64).
/// decode accepts exactly what encode writes: no sign, space or leading
/// zero.
struct Decimal {
  static std::string encode(std::uint64_t v) { return std::to_string(v); }
  static std::uint64_t decode(const std::string& text);
};

namespace detail {

template <class Codec>
inline constexpr bool kIsLayout = false;
template <std::size_t Keys, class Fields>
inline constexpr bool kIsLayout<Layout<Keys, Fields>> = true;

template <class Codec>
inline constexpr bool kIsScalar = std::is_base_of_v<Range, Codec>;

template <class T>
inline constexpr bool kIsText = std::is_convertible_v<T, std::string_view>;

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

}  // namespace detail

/// Runs layouts forwards: appends each visited key to one Object.
class FieldEncoder {
public:
  explicit FieldEncoder(Object& out) : out_(out) {}

  template <class T, class Codec = Scalar>
  void field(const char* key, const T& v, const Codec& codec = {}) {
    put(out_.append(key), codec, v);
  }
  /// A member that keeps its value when the decoder finds `key` absent;
  /// always written. A vector member is an array of `codec`.
  template <class T, class Codec = Scalar>
  void defaulted(const char* key, const T& v, const Codec& codec = {}) {
    if constexpr (detail::kIsVector<T>)
      array(key, codec, v);
    else
      field(key, v, codec);
  }
  /// Writes `key` only when `v` holds a record.
  template <class T, class Codec>
  void optional(const char* key, const std::optional<T>& v,
                const Codec& codec) {
    if (v) field(key, *v, codec);
  }
  /// An array whose element i codes element i of each sequence (more than
  /// one sequence: parallel vectors of one length).
  template <class Codec, class Seq, class... More>
  void array(const char* key, const Codec& codec, const Seq& seq,
             const More&... more) {
    CGRA_ASSERT(((more.size() == seq.size()) && ...));
    Array arr;
    arr.reserve(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
      put(arr.emplace_back(), codec, seq[i], more[i]...);
    out_.append(key) = std::move(arr);
  }
  /// A value derived from other members: written here, compared on decode.
  template <class T>
  void expect(const char* key, const T& v) {
    field(key, v);
  }
  /// A member the decoder needs before earlier keys; the encoder writes it
  /// at its own place in key order.
  template <class T, class Codec = Scalar>
  void lookahead(const char*, const T&, const Codec& = {}) {}
  /// A rule between decoded members; what is encoded already keeps it.
  template <class Rule>
  void check(const Rule&) {}

private:
  template <class Codec, class... T>
  static void put(Value& slot, const Codec& codec, const T&... v) {
    if constexpr (detail::kIsLayout<Codec>) {
      slot = Object();
      Object& o = slot.asObject();
      o.reserve(Codec::kKeys);
      FieldEncoder sub(o);
      codec.fields(sub, v...);
    } else if constexpr (detail::kIsScalar<Codec>) {
      (scalar(slot, v), ...);
    } else if constexpr (std::is_same_v<Codec, Raw>) {
      ((slot = v), ...);
    } else {
      ((slot = codec.encode(v)), ...);
    }
  }

  template <class T>
  static void scalar(Value& slot, const T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_floating_point_v<T>)
      slot = v;
    else if constexpr (detail::kIsText<T>)
      slot = std::string(std::string_view(v));
    else
      slot = static_cast<std::int64_t>(v);
  }

  Object& out_;
};

/// Runs layouts backwards: reads each visited key of one Object, checking
/// its type and range. `what` names the document in errors.
class FieldDecoder {
public:
  FieldDecoder(const Object& in, const char* what) : in_(in), what_(what) {}

  template <class T, class Codec = Scalar>
  void field(const char* key, T& v, const Codec& codec = {}) {
    get(key, codec, require(key), v);
  }
  template <class T, class Codec = Scalar>
  void defaulted(const char* key, T& v, const Codec& codec = {}) {
    const Value* jv = take(key);
    if (jv == nullptr) return;
    if constexpr (detail::kIsVector<T>)
      elements(key, codec, *jv, v);
    else
      get(key, codec, *jv, v);
  }
  template <class T, class Codec>
  void optional(const char* key, std::optional<T>& v, const Codec& codec) {
    if (const Value* jv = take(key)) get(key, codec, *jv, v.emplace());
  }
  template <class Codec, class Seq, class... More>
  void array(const char* key, const Codec& codec, Seq& seq, More&... more) {
    elements(key, codec, require(key), seq, more...);
  }
  template <class T>
  void expect(const char* key, const T& want) {
    std::conditional_t<detail::kIsText<T>, std::string, T> got{};
    field(key, got);
    if (!(got == want)) fail(key, "disagrees with the rest of the document");
  }
  /// Reads `key` ahead of its place; the visit at its place counts it.
  template <class T, class Codec = Scalar>
  void lookahead(const char* key, T& v, const Codec& codec = {}) {
    const Value* jv = in_.find(key);
    if (jv == nullptr) fail(key, "is missing");
    get(key, codec, *jv, v);
  }
  /// Runs `rule`, which throws cgra::Error when the members break it.
  template <class Rule>
  void check(const Rule& rule) const {
    rule();
  }

  /// Throws cgra::Error naming the first key of the object that no visit
  /// found: an unknown key, or a repeat of a known one.
  void rejectUnvisited() const;

private:
  /// Finds `key` and counts it as visited; nullptr when absent.
  const Value* take(const char* key) {
    const Value* jv = in_.find(key);
    if (jv != nullptr) found_.push_back(jv);
    return jv;
  }
  const Value& require(const char* key) {
    const Value* jv = take(key);
    if (jv == nullptr) fail(key, "is missing");
    return *jv;
  }
  [[noreturn]] void fail(const char* key, const char* problem) const;

  template <class Seq>
  void resize(const char* key, Seq& seq, std::size_t n) const {
    if constexpr (requires { seq.resize(n); })
      seq.resize(n);
    else if (seq.size() != n)
      fail(key, "has the wrong number of elements");
  }

  template <class Codec, class Seq, class... More>
  void elements(const char* key, const Codec& codec, const Value& jv,
                Seq& seq, More&... more) const {
    if (!jv.isArray()) fail(key, "is not an array");
    const Array& arr = jv.asArray();
    resize(key, seq, arr.size());
    (resize(key, more, arr.size()), ...);
    for (std::size_t i = 0; i < arr.size(); ++i)
      get(key, codec, arr[i], seq[i], more[i]...);
  }

  template <class Codec, class... T>
  void get(const char* key, const Codec& codec, const Value& jv,
           T&... v) const {
    if constexpr (detail::kIsLayout<Codec>) {
      if (!jv.isObject()) fail(key, "is not an object");
      FieldDecoder sub(jv.asObject(), what_);
      codec.fields(sub, v...);
      sub.rejectUnvisited();
    } else if constexpr (detail::kIsScalar<Codec>) {
      (scalar(key, codec, jv, v), ...);
    } else if constexpr (std::is_same_v<Codec, Raw>) {
      ((v = jv), ...);
    } else {
      if (!jv.isString()) fail(key, "is not a string");
      ((v = codec.decode(jv.asString())), ...);
    }
  }

  template <class Codec, class T>
  void scalar(const char* key, const Codec& codec, const Value& jv,
              T& v) const {
    if constexpr (std::is_same_v<T, bool>) {
      if (!jv.isBool()) fail(key, "is not a bool");
      v = jv.asBool();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!jv.isString()) fail(key, "is not a string");
      v = jv.asString();
    } else if constexpr (std::is_floating_point_v<T>) {
      if (!jv.isNumber()) fail(key, "is not a number");
      v = jv.asDouble();
    } else {
      static_assert(std::is_integral_v<T> || std::is_same_v<Codec, Range>,
                    "an enum member is coded with its Range");
      using Int = typename std::conditional_t<std::is_enum_v<T>,
                                              std::underlying_type<T>,
                                              std::type_identity<T>>::type;
      const Range range = codec;
      if (!jv.isInt()) fail(key, "is not an integer");
      const std::int64_t i = jv.asInt();
      if (!std::in_range<Int>(i) || i < range.lo || i > range.hi)
        fail(key, "is out of range");
      v = static_cast<T>(i);
    }
  }

  const Object& in_;
  const char* what_;
  SmallVector<const Value*, 16> found_;  ///< the visited keys' values
};

/// The object `layout` writes for `records`.
template <std::size_t Keys, class Fields, class... R>
Value encode(const Layout<Keys, Fields>& layout, const R&... records) {
  Object o;
  o.reserve(Keys);
  FieldEncoder c(o);
  layout.fields(c, records...);
  return o;
}

/// Reads `doc` into `records` with `layout`; throws cgra::Error naming
/// `what` when `doc` does not fit it.
template <std::size_t Keys, class Fields, class... R>
void decode(const Layout<Keys, Fields>& layout, const Value& doc,
            const char* what, R&... records) {
  if (!doc.isObject())
    throw Error(std::string(what) + ": document is not an object");
  FieldDecoder c(doc.asObject(), what);
  layout.fields(c, records...);
  c.rejectUnvisited();
}

}  // namespace cgra::json
