#include "io/json_value.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace qulrb::io {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw util::InvalidArgument("JSON parse error at offset " +
                              std::to_string(pos) + ": " + what);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Recursion depth is stack depth: an untrusted line of a million
        // '[' must be an error, not a stack overflow.
        if (++depth_ > kMaxDepth) fail(pos_, "nesting too deep");
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail(pos_, "bad literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail(pos_, "bad literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail(pos_, "bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(members));
      }
      fail(pos_, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(items));
      }
      fail(pos_, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail(pos_ - 1, "raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // the protocol is ASCII; reject rather than emit garbage).
          if (code >= 0xD800 && code <= 0xDFFF) fail(pos_, "surrogate pairs unsupported");
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
        default: fail(pos_ - 1, "unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start) {
      fail(start, "malformed number");
    }
    return JsonValue::make_number(value);
  }

  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open at pos_
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool JsonValue::as_bool() const {
  util::require(kind_ == Kind::kBool, "JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  util::require(kind_ == Kind::kNumber, "JsonValue: not a number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  const double v = as_number();
  // Range-check before the cast: converting an out-of-range double is UB.
  util::require(v >= -0x1p63 && v < 0x1p63, "JsonValue: integer out of range");
  const auto i = static_cast<std::int64_t>(v);
  util::require(static_cast<double>(i) == v, "JsonValue: number is not integral");
  return i;
}

const std::string& JsonValue::as_string() const {
  util::require(kind_ == Kind::kString, "JsonValue: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  util::require(kind_ == Kind::kArray, "JsonValue: not an array");
  return *array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  util::require(kind_ == Kind::kObject, "JsonValue: not an object");
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v == nullptr || v->is_null()) ? fallback : v->as_number();
}

std::int64_t JsonValue::int_or(const std::string& key, std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return (v == nullptr || v->is_null()) ? fallback : v->as_int();
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v == nullptr || v->is_null()) ? fallback : v->as_bool();
}

std::string JsonValue::string_or(const std::string& key, std::string fallback) const {
  const JsonValue* v = find(key);
  return (v == nullptr || v->is_null()) ? std::move(fallback) : v->as_string();
}

JsonValue JsonValue::make_bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_array(Array v) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::make_shared<Array>(std::move(v));
  return out;
}

JsonValue JsonValue::make_object(Object v) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::make_shared<Object>(std::move(v));
  return out;
}

}  // namespace qulrb::io
