#include "telemetry/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tcc::telemetry {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  // %.17g round-trips any double but litters output; %.12g is exact for
  // everything telemetry emits (counts, ns, MB/s) and stays readable.
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::end_object() {
  needs_comma_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::end_array() {
  needs_comma_.pop_back();
  out_ += ']';
}

void JsonWriter::key(const std::string& k) {
  comma();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  comma();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(double v) {
  comma();
  out_ += json_number(v);
}

void JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
}

void JsonWriter::value(std::int64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out_ += buf;
}

void JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void JsonWriter::null() {
  comma();
  out_ += "null";
}

void JsonWriter::raw(const std::string& json) {
  comma();
  out_ += json;
}

// ---------------------------------------------------------------- parser

const JsonValue* JsonValue::find(const std::string& k) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [key, val] : object) {
    if (key == k) return &val;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<JsonValue> parse() {
    skip_ws();
    JsonValue v;
    if (Status st = parse_value(v); !st.ok()) return st.error();
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after document").error();
    return v;
  }

 private:
  Status parse_value(JsonValue& out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out.kind = JsonValue::Kind::kString; return parse_string(out.str);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  Status parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return {};
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') return fail("expected object key");
      std::string key;
      if (Status st = parse_string(key); !st.ok()) return st;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skip_ws();
      JsonValue val;
      if (Status st = parse_value(val); !st.ok()) return st;
      out.object.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return {};
      }
      return fail("expected ',' or '}' in object");
    }
  }

  Status parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return {};
    }
    for (;;) {
      skip_ws();
      JsonValue val;
      if (Status st = parse_value(val); !st.ok()) return st;
      out.array.push_back(std::move(val));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return {};
      }
      return fail("expected ',' or ']' in array");
    }
  }

  Status parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return {};
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) break;
        switch (s_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= s_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = s_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad hex digit in \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode (surrogate pairs unhandled — telemetry output
            // never emits them; reject rather than mis-decode).
            if (code >= 0xd800 && code <= 0xdfff) return fail("surrogates unsupported");
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return fail("bad escape character");
        }
        ++pos_;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
      out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  Status parse_bool(JsonValue& out) {
    out.kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return {};
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return {};
    }
    return fail("bad literal");
  }

  Status parse_null(JsonValue& out) {
    out.kind = JsonValue::Kind::kNull;
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return {};
    }
    return fail("bad literal");
  }

  Status parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
                                s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) {
      return fail("expected a value");
    }
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return {};
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status fail(const char* msg) const {
    return make_error(ErrorCode::kInvalidArgument,
                      "json parse error at byte " + std::to_string(pos_) + ": " + msg);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> json_parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace tcc::telemetry
