// Tiny command-line parser for the examples and benchmark harnesses.
// Accepts "--key=value" and "--flag"; anything else is a positional.
// Input errors -- a flag the program does not read, a number with
// trailing garbage -- throw std::invalid_argument naming the flag.
#pragma once

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace oneport {

/// Parses all of `text` as a number of type T (no leading '+' or
/// whitespace, no trailing characters, in range); throws
/// std::invalid_argument naming `what` otherwise.
template <typename T>
[[nodiscard]] T parse_number(std::string_view text, std::string_view what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string(what) + ": '" +
                                std::string(text) + "' is not a valid number");
  }
  return value;
}

/// Splits a comma-separated list, dropping empty items ("a,,b" gives
/// {"a", "b"}).
[[nodiscard]] inline std::vector<std::string> split_list(
    std::string_view csv_list) {
  std::vector<std::string> out;
  while (!csv_list.empty()) {
    const std::size_t comma = csv_list.find(',');
    const std::string_view item = csv_list.substr(0, comma);
    if (!item.empty()) out.emplace_back(item);
    if (comma == std::string_view::npos) break;
    csv_list.remove_prefix(comma + 1);
  }
  return out;
}

/// split_list of positive integers; a non-numeric or non-positive item
/// throws std::invalid_argument naming `what`.
[[nodiscard]] inline std::vector<int> split_ints(std::string_view csv_list,
                                                 std::string_view what) {
  std::vector<int> out;
  for (const std::string& item : split_list(csv_list)) {
    const int value = parse_number<int>(item, what);
    if (value <= 0) {
      throw std::invalid_argument(std::string(what) + ": '" + item +
                                  "' is not a positive integer");
    }
    out.push_back(value);
  }
  return out;
}

class Args {
 public:
  Args(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.starts_with("--")) {
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          options_[arg.substr(2)] = "";
        } else {
          options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  /// Throws std::invalid_argument naming the first given flag that is
  /// not in `known`, so a misspelled flag is an error rather than a
  /// silently applied default.
  void require_known(std::initializer_list<std::string_view> known) const {
    for (const auto& [key, value] : options_) {
      if (std::find(known.begin(), known.end(), key) != known.end()) continue;
      std::string names;
      for (const std::string_view k : known) {
        names += names.empty() ? "--" : ", --";
        names += k;
      }
      throw std::invalid_argument("unknown flag '--" + key + "' (known: " +
                                  names + ")");
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return options_.contains(key);
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }
  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback
                                : parse_number<int>(it->second, "--" + key);
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = options_.find(key);
    return it == options_.end()
               ? fallback
               : parse_number<double>(it->second, "--" + key);
  }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace oneport
