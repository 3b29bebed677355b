#include "common/json.hpp"

#include <cmath>
#include <fstream>

#include "common/error.hpp"

namespace mri {

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  nonempty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  MRI_CHECK(!nonempty_.empty() && !after_key_);
  nonempty_.pop_back();
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  append_string(k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  append_string(s);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision_)
                       .ptr);
  return *this;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (nonempty_.empty()) return;
  if (nonempty_.back()) out_ += ',';
  nonempty_.back() = true;
}

void JsonWriter::append_string(std::string_view s) {
  out_ += '"';
  std::size_t plain = 0;  // start of the run not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        out_ += "\\u00";
        out_ += kHex[c >> 4];
        out_ += kHex[c & 0xf];
      }
    }
  }
  out_.append(s.data() + plain, s.size() - plain);
  out_ += '"';
}

void write_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  MRI_REQUIRE(out.good(), "cannot open output file: " << path);
  out << json << '\n';
}

}  // namespace mri
