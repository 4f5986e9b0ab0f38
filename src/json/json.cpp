#include "json/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace cgra::json {

// ---------------------------------------------------------------------------
// Object

Value& Object::operator[](const std::string& key) {
  for (auto& [k, v] : entries_)
    if (k == key) return v;
  entries_.emplace_back(key, Value());
  return entries_.back().second;
}

const Value& Object::at(const std::string& key) const {
  if (const Value* v = find(key)) return *v;
  throw Error("JSON object has no key \"" + key + '"');
}

bool Object::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const Value* Object::find(const std::string& key) const {
  for (const auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

Value& Object::append(std::string key) {
  entries_.emplace_back(std::move(key), Value());
  return entries_.back().second;
}

void Object::sortByKey() {
  std::stable_sort(
      entries_.begin(), entries_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  // The stable sort leaves equal keys in insertion order, so keeping the
  // first of each run keeps the entry find/at answer.
  entries_.erase(std::unique(entries_.begin(), entries_.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 entries_.end());
}

// ---------------------------------------------------------------------------
// Value accessors

bool Value::asBool() const {
  if (!isBool()) throw Error("JSON value is not a bool");
  return std::get<bool>(data_);
}

std::int64_t Value::asInt() const {
  if (isInt()) return std::get<std::int64_t>(data_);
  if (isDouble()) {
    const double d = std::get<double>(data_);
    if (d == std::floor(d)) return static_cast<std::int64_t>(d);
  }
  throw Error("JSON value is not an integer");
}

double Value::asDouble() const {
  if (isDouble()) return std::get<double>(data_);
  if (isInt()) return static_cast<double>(std::get<std::int64_t>(data_));
  throw Error("JSON value is not a number");
}

const std::string& Value::asString() const {
  if (!isString()) throw Error("JSON value is not a string");
  return std::get<std::string>(data_);
}

const Array& Value::asArray() const {
  if (!isArray()) throw Error("JSON value is not an array");
  return std::get<Array>(data_);
}

Array& Value::asArray() {
  if (!isArray()) throw Error("JSON value is not an array");
  return std::get<Array>(data_);
}

const Object& Value::asObject() const {
  if (!isObject()) throw Error("JSON value is not an object");
  return std::get<Object>(data_);
}

Object& Value::asObject() {
  if (!isObject()) throw Error("JSON value is not an object");
  return std::get<Object>(data_);
}

// ---------------------------------------------------------------------------
// Serialization

namespace {

void appendEscaped(std::string& out, std::string_view s) {
  out.push_back('"');
  // Copy runs of plain characters in bulk: keys, labels and context-word
  // hex strings rarely need an escape.
  std::size_t plain = 0;  // start of the pending plain run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\')
      continue;
    out.append(s.substr(plain, i - plain));
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.substr(plain));
  out.push_back('"');
}

}  // namespace

void Writer::separate(bool comma) {
  if (comma) out_.push_back(',');
  if (indent_ > 0) {
    out_.push_back('\n');
    out_.append(static_cast<std::size_t>(indent_) * frames_.size(), ' ');
  }
}

void Writer::beforeValue() {
  if (afterKey_) {
    afterKey_ = false;
    return;
  }
  if (frames_.empty()) return;  // the document's top-level value
  CGRA_ASSERT_MSG(!frames_.back().object, "JSON object value without a key");
  separate(frames_.back().count++ > 0);
}

Writer& Writer::open(char bracket, bool object) {
  beforeValue();
  out_.push_back(bracket);
  frames_.push_back(Frame{0, object});
  return *this;
}

Writer& Writer::close(char bracket, bool object) {
  CGRA_ASSERT_MSG(!frames_.empty() && frames_.back().object == object &&
                      !afterKey_,
                  "unbalanced JSON " << (object ? "object" : "array"));
  const bool any = frames_.back().count > 0;
  frames_.pop_back();
  if (any) separate(false);
  out_.push_back(bracket);
  return *this;
}

Writer& Writer::beginObject() { return open('{', true); }
Writer& Writer::endObject() { return close('}', true); }
Writer& Writer::beginArray() { return open('[', false); }
Writer& Writer::endArray() { return close(']', false); }

Writer& Writer::key(std::string_view k) {
  CGRA_ASSERT_MSG(!frames_.empty() && frames_.back().object && !afterKey_,
                  "JSON key outside an object: " << k);
  separate(frames_.back().count++ > 0);
  appendEscaped(out_, k);
  out_ += indent_ > 0 ? ": " : ":";
  afterKey_ = true;
  return *this;
}

Writer& Writer::null() {
  beforeValue();
  out_ += "null";
  return *this;
}

Writer& Writer::value(bool b) {
  beforeValue();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::value(std::int64_t i) {
  beforeValue();
  char buf[24];  // INT64_MIN: 19 digits and the sign
  const auto r = std::to_chars(buf, buf + sizeof buf, i);
  out_.append(buf, r.ptr);
  return *this;
}

Writer& Writer::value(double d) {
  beforeValue();
  // `%g` at precision 6: byte-identical to the default
  // `std::ostream << double` the format was defined by, without a stream
  // object per number or a dependence on the global locale.
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 6);
  out_.append(buf, r.ptr);
  return *this;
}

Writer& Writer::value(std::string_view s) {
  beforeValue();
  appendEscaped(out_, s);
  return *this;
}

Writer& Writer::value(const Value& v) {
  std::visit(
      [this](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          null();
        } else if constexpr (std::is_same_v<T, Array>) {
          beginArray();
          for (const Value& e : x) value(e);
          endArray();
        } else if constexpr (std::is_same_v<T, Object>) {
          beginObject();
          for (const auto& [k, e] : x) {
            key(k);
            value(e);
          }
          endObject();
        } else if constexpr (std::is_same_v<T, std::string>) {
          value(std::string_view(x));
        } else {
          value(x);
        }
      },
      v.data_);
  return *this;
}

std::string Value::dump(int indent) const {
  Writer w(indent);
  w.value(*this);
  return w.take();
}

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser {
public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parseDocument() {
    Value v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& msg) const {
    int line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("JSON parse error at line " + std::to_string(line) +
                ", column " + std::to_string(col) + ": " + msg);
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + '\'');
    }
  }

  bool consumeKeyword(const char* kw) {
    std::size_t len = std::char_traits<char>::length(kw);
    if (text_.compare(pos_, len, kw) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parseValue() {
    skipWs();
    char c = peek();
    switch (c) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return Value(parseString());
      case 't':
        if (consumeKeyword("true")) return Value(true);
        fail("invalid keyword");
      case 'f':
        if (consumeKeyword("false")) return Value(false);
        fail("invalid keyword");
      case 'n':
        if (consumeKeyword("null")) return Value(nullptr);
        fail("invalid keyword");
      default: return parseNumber();
    }
  }

  /// Counts one level of nesting. A failed parse abandons the counter, so
  /// only the successful exits of parseObject/parseArray call leave().
  void enter() {
    if (++depth_ > kMaxParseDepth)
      fail("nesting deeper than " + std::to_string(kMaxParseDepth) +
           " levels");
  }
  void leave() { --depth_; }

  Value parseObject() {
    enter();
    expect('{');
    Object obj;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      leave();
      return Value(std::move(obj));
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      // append: skip operator[]'s duplicate scan — quadratic on wide
      // objects, and real documents do not carry duplicate keys.
      obj.append(std::move(key)) = parseValue();
      skipWs();
      char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    leave();
    return Value(std::move(obj));
  }

  Value parseArray() {
    enter();
    expect('[');
    Array arr;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      leave();
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parseValue());
      skipWs();
      char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    leave();
    return Value(std::move(arr));
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      // Bulk-copy the run up to the next quote, escape, or control char —
      // strings are almost always plain, and per-char appends dominate the
      // profile otherwise.
      std::size_t run = pos_;
      while (run < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[run]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++run;
      }
      if (run > pos_) {
        out.append(text_, pos_, run - pos_);
        pos_ = run;
      }
      char c = take();
      if (c == '"') break;
      if (c == '\\') {
        char esc = take();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else
                fail("invalid \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are rare in
            // composition files and rejected explicitly).
            if (code >= 0xD800 && code <= 0xDFFF)
              fail("surrogate pairs are not supported");
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Value parseNumber() {
    const std::size_t start = pos_;
    const auto digit = [](char c) { return c >= '0' && c <= '9'; };
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && digit(text_[pos_])) ++pos_;
    bool isInt = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      isInt = false;
      ++pos_;
      while (pos_ < text_.size() && digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isInt = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && digit(text_[pos_])) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("invalid number");
    const std::string_view sv(text_.data() + start, pos_ - start);
    if (isInt) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), v);
      if (ec == std::errc() && p == sv.data() + sv.size()) return Value(v);
    }
    double d = 0;
    auto [p, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), d);
    if (ec != std::errc() || p != sv.data() + sv.size()) fail("invalid number");
    return Value(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parseDocument(); }

Value parseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open JSON file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return parse(os.str());
}

void writeFile(const std::string& path, const Value& value) {
  writeFile(path, value.dump());
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text << '\n';
  out.close();
  if (!out) throw Error("cannot write JSON file: " + path);
}

namespace {

void sortKeysInPlace(Value& value) {
  if (value.isArray()) {
    for (Value& v : value.asArray()) sortKeysInPlace(v);
  } else if (value.isObject()) {
    Object& obj = value.asObject();
    obj.sortByKey();
    for (auto& entry : obj) sortKeysInPlace(entry.second);
  }
}

}  // namespace

Value sortKeys(const Value& value) { return sortKeys(Value(value)); }

Value sortKeys(Value&& value) {
  sortKeysInPlace(value);
  return std::move(value);
}

bool isCanonical(const Value& value) {
  if (value.isArray()) {
    for (const Value& v : value.asArray())
      if (!isCanonical(v)) return false;
  } else if (value.isObject()) {
    const std::string* prev = nullptr;
    for (const auto& [k, v] : value.asObject()) {
      if ((prev != nullptr && !(*prev < k)) || !isCanonical(v)) return false;
      prev = &k;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Record layouts

std::uint64_t Decimal::decode(const std::string& text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end || (text.size() > 1 && text[0] == '0'))
    throw Error("'" + text + "' is not a canonical unsigned 64-bit decimal");
  return v;
}

void FieldDecoder::rejectUnvisited() const {
  if (found_.size() == in_.size()) return;  // every entry found by a visit
  for (const auto& [key, value] : in_) {
    if (std::find(found_.begin(), found_.end(), &value) != found_.end())
      continue;
    const char* kind = in_.find(key) == &value ? "unknown" : "repeated";
    throw Error(std::string(what_) + ": " + kind + " key \"" + key + '"');
  }
}

void FieldDecoder::fail(const char* key, const char* problem) const {
  throw Error(std::string(what_) + ": field '" + key + "' " + problem);
}

}  // namespace cgra::json
