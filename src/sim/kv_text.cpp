#include "sim/kv_text.h"

#include <cassert>

namespace ccdem::sim::kv {

namespace {

constexpr auto npos = std::string_view::npos;

/// A line without its comment, trimmed.
std::string_view strip(std::string_view line) {
  return trim(line.substr(0, line.find('#')));
}

/// True when `line` is `<prefix><name>`, e.g. end_scene.
bool is_marker(std::string_view line, std::string_view prefix,
               std::string_view name) {
  return line.size() == prefix.size() + name.size() &&
         line.starts_with(prefix) && line.ends_with(name);
}

}  // namespace

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == npos) return {};
  return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

std::vector<std::string> split_list(std::string_view v) {
  std::vector<std::string> out;
  for (;;) {
    const auto comma = v.find(',');
    out.emplace_back(trim(v.substr(0, comma)));
    if (comma == npos) return out;
    v.remove_prefix(comma + 1);
  }
}

std::string to_text(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  assert(ec == std::errc{});
  return std::string(buf, ptr);
}

bool parse_keys(
    std::string_view text, const std::vector<Key>& keys,
    const std::function<bool(std::size_t, std::string_view, std::string&)>&
        parse_at,
    std::string* error, std::vector<bool>* seen_out) {
  const auto fail = [error](int line, const std::string& why) {
    if (error != nullptr) {
      *error = line > 0 ? "line " + std::to_string(line) + ": " + why : why;
    }
    return false;
  };
  std::size_t pos = 0;
  int line_no = 0;
  const auto next_line = [&](std::string_view* line) {
    if (pos >= text.size()) return false;
    const auto nl = text.find('\n', pos);
    *line = text.substr(pos, nl == npos ? npos : nl - pos);
    pos = nl == npos ? text.size() : nl + 1;
    ++line_no;
    return true;
  };

  std::vector<bool> seen(keys.size());
  std::string_view raw;
  while (next_line(&raw)) {
    const std::string_view line = strip(raw);
    if (line.empty()) continue;
    const int at = line_no;
    std::string_view key, value;
    const bool block = line.find('=') == npos && line.starts_with("begin_");
    if (block) {
      key = line.substr(6);
      const std::size_t body = pos;
      std::size_t body_end = npos;
      for (std::size_t start = pos; next_line(&raw); start = pos) {
        if (is_marker(strip(raw), "end_", key)) {
          body_end = start;
          break;
        }
      }
      if (body_end == npos) {
        return fail(at, "unterminated begin_" + std::string(key) + " block");
      }
      value = text.substr(body, body_end - body);
    } else if (const auto eq = line.find('='); eq != npos) {
      key = trim(line.substr(0, eq));
      value = trim(line.substr(eq + 1));
    } else {
      return fail(at, "expected 'key = value'");
    }

    const auto name = [&] {
      return block ? "begin_" + std::string(key) + " block"
                   : "key '" + std::string(key) + "'";
    };
    std::size_t i = 0;
    while (i < keys.size() &&
           (keys[i].key != key || (keys[i].kind == Kind::kBlock) != block)) {
      ++i;
    }
    if (i == keys.size()) return fail(at, "unknown " + name());
    if (seen[i] && keys[i].kind != Kind::kRepeatable) {
      return fail(at, "duplicate " + name());
    }
    seen[i] = true;
    std::string why;
    if (!parse_at(i, value, why)) {
      return fail(at, (block ? "bad " + name()
                             : "bad value '" + std::string(value) +
                                   "' for " + name()) +
                          (why.empty() ? "" : ": " + why));
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].kind == Kind::kRequired && !seen[i]) {
      return fail(0, "missing required key '" + std::string(keys[i].key) +
                         "'");
    }
  }
  if (seen_out != nullptr) *seen_out = std::move(seen);
  return true;
}

void write_key(std::string& out, const Key& key, const std::string& value) {
  const std::string k(key.key);
  if (key.kind == Kind::kBlock) {
    out += "begin_" + k + "\n" + value + "end_" + k + "\n";
    return;
  }
  if (key.kind != Kind::kRepeatable) {
    out += k + " = " + value + "\n";
    return;
  }
  for (std::string_view rest = value; !rest.empty();) {
    const auto nl = rest.find('\n');
    out += k + " = " + std::string(rest.substr(0, nl)) + "\n";
    rest = nl == npos ? std::string_view() : rest.substr(nl + 1);
  }
}

}  // namespace ccdem::sim::kv
