// The JSON writer behind every run report, Chrome trace and bench file. It
// owns escaping (`"`, `\`, newline and tab get short escapes, other control
// characters \u00XX), nesting and comma placement, the number format
// (integers verbatim; doubles as the stream default, printf's %.*g, at the
// writer's precision: 12 digits for reports and traces, 17 for bench files;
// non-finite doubles as null, since JSON has no NaN) and writing the file.
//
//   JsonWriter w(17);
//   w.begin_object().field("bench", "fault_sweep").begin_array("hours");
//   for (double h : hours) w.value(h);
//   w.end_array().end_object();
//   write_json_file(path, w.str());
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace mri {

class JsonWriter {
 public:
  /// `precision`: significant digits of every double written.
  explicit JsonWriter(int precision = 17) : precision_(precision) {}

  /// The bare forms open the root or an array element; the keyed forms
  /// open a member of the enclosing object.
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& begin_object(std::string_view k) { return key(k).open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& begin_array(std::string_view k) { return key(k).open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// One array element (or the value after key()).
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    separate();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }

  /// Starts an object member; the next value() call completes it.
  JsonWriter& key(std::string_view k);

  /// One object member.
  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// Writes the comma before a sibling and marks the container non-empty.
  void separate();
  void append_string(std::string_view s);

  int precision_;
  std::string out_;
  std::vector<bool> nonempty_;  // one entry per open container
  bool after_key_ = false;
};

/// Writes `json` plus a newline to `path`; throws InvalidArgument
/// ("cannot open output file: PATH") when the file cannot be opened.
void write_json_file(const std::string& path, const std::string& json);

}  // namespace mri
