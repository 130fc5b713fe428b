// The one reader behind the repo's key = value text formats: experiment
// configs (harness/config_io.h), ccdem-repro-v1 (check/scenario.h),
// ccdem-scene-v1 (apps/scene_dsl.h) and ccdem-campaign-v1
// (campaign/campaign.h).  Every format follows the same rules:
//
//   - `#` starts a comment anywhere on a line; lines are trimmed of spaces,
//     tabs and '\r'; blank lines are skipped.
//   - Every other line is `key = value`, split at the first '='.  Errors
//     carry the line number.
//   - `begin_<name>` ... `end_<name>` encloses a raw block: the lines in
//     between reach the field verbatim, comments included.
//   - An unknown key is an error, and so is a repeated key unless its field
//     is repeatable.
//   - Numbers parse with std::from_chars and must fill the whole value: no
//     '+', no hex, no trailing garbage, only finite doubles; flags are 0/1.
//
// A format is one table of Field rows (key, member, bounds, when the key is
// written).  The same table drives parse() and write(), so canonical text
// parses back to the value it came from by construction; only cross-field
// checks stay as code in each format.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ccdem::sim::kv {

[[nodiscard]] std::string_view trim(std::string_view s);

/// Whole-value parse of an integer, a finite double or a 0/1 flag.
template <class V>
[[nodiscard]] std::optional<V> parse_as(std::string_view v) {
  if constexpr (std::is_same_v<V, bool>) {
    if (v == "0" || v == "1") return v == "1";
    return std::nullopt;
  } else {
    V out{};
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (ec != std::errc{} || ptr != end || v.empty()) return std::nullopt;
    if constexpr (std::is_floating_point_v<V>) {
      if (!std::isfinite(out)) return std::nullopt;
    }
    return out;
  }
}

/// Comma-separated items, each trimmed ("a, b" == "a,b"); interior spaces
/// stay ("Jelly Splash").  Never empty: "" is one empty item.
[[nodiscard]] std::vector<std::string> split_list(std::string_view v);

/// A comma list of numbers, each in [lo, hi].
template <class E>
[[nodiscard]] std::optional<std::vector<E>> parse_list(std::string_view v,
                                                       E lo, E hi) {
  std::vector<E> out;
  for (const std::string& item : split_list(v)) {
    const auto x = parse_as<E>(item);
    if (!x || *x < lo || *x > hi) return std::nullopt;
    out.push_back(*x);
  }
  return out;
}

/// Canonical value text: shortest round-trip decimal for doubles (0.5, not
/// 0.500000), 0/1 for flags.
[[nodiscard]] std::string to_text(double v);
[[nodiscard]] inline std::string to_text(bool v) { return v ? "1" : "0"; }
[[nodiscard]] inline std::string to_text(const std::string& v) { return v; }
template <class I>
  requires std::is_integral_v<I>
[[nodiscard]] std::string to_text(I v) {
  return std::to_string(v);
}

template <class E>
[[nodiscard]] std::string join(const std::vector<E>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ',';
    out += to_text(items[i]);
  }
  return out;
}

enum class Kind {
  kOnce,        ///< at most one line
  kRequired,    ///< exactly one line
  kRepeatable,  ///< any number of lines, in order
  kBlock,       ///< a begin_<key> / end_<key> raw block, at most one
};

/// One row of a format's table.
template <class T>
struct Field {
  using When = std::function<bool(const T&)>;

  std::string_view key;
  /// Parses one value into the object; false = bad value.  May leave a
  /// reason in `why`; the reader adds the key and line.
  std::function<bool(T&, std::string_view value, std::string& why)> parse;
  /// Canonical value text; null for parse-only keys.  A repeatable field
  /// returns one value per '\n'-separated line (none = no line).
  std::function<std::string(const T&)> emit;
  /// When the key is written; null = always.
  When when = nullptr;
  Kind kind = Kind::kOnce;

  /// The number (or 0/1 flag) at `acc` -- a member pointer or a `T& ->
  /// member&` callable -- bounded to [lo, hi].
  template <class Acc,
            class V = std::remove_cvref_t<std::invoke_result_t<Acc&, T&>>>
  static Field num(
      std::string_view key, Acc acc,
      std::type_identity_t<V> lo = std::numeric_limits<V>::lowest(),
      std::type_identity_t<V> hi = std::numeric_limits<V>::max(),
      When when = nullptr) {
    return {key,
            [=](T& t, std::string_view v, std::string&) {
              const auto x = parse_as<V>(v);
              if (!x || *x < lo || *x > hi) return false;
              std::invoke(acc, t) = *x;
              return true;
            },
            [=](const T& t) { return to_text(std::invoke(acc, t)); },
            std::move(when)};
  }

  /// A comma list of numbers (each in [lo, hi]) or, for string elements,
  /// of trimmed names.
  template <class Acc, class L = std::remove_cvref_t<
                           std::invoke_result_t<Acc&, T&>>>
  static Field list(
      std::string_view key, Acc acc,
      typename L::value_type lo =
          std::numeric_limits<typename L::value_type>::lowest(),
      typename L::value_type hi =
          std::numeric_limits<typename L::value_type>::max()) {
    return {key,
            [=](T& t, std::string_view v, std::string&) {
              if constexpr (std::is_same_v<L, std::vector<std::string>>) {
                std::invoke(acc, t) = split_list(v);
              } else {
                const auto items = parse_list(v, lo, hi);
                if (!items) return false;
                std::invoke(acc, t) = *items;
              }
              return true;
            },
            [=](const T& t) { return join(std::invoke(acc, t)); }};
  }

  /// A keyword mapped through `from` (text -> std::optional<V>) and `to`
  /// (V -> text).
  template <class Acc, class From, class To>
  static Field keyword(std::string_view key, Acc acc, From from, To to,
                       When when = nullptr) {
    return {key,
            [=](T& t, std::string_view v, std::string&) {
              const auto x = std::invoke(from, v);
              if (!x) return false;
              std::invoke(acc, t) = *x;
              return true;
            },
            [=](const T& t) {
              return std::string(std::invoke(to, std::invoke(acc, t)));
            },
            std::move(when)};
  }

  /// The required `schema = <name>` line.
  static Field schema(std::string_view name) {
    return {"schema",
            [=](T&, std::string_view v, std::string&) { return v == name; },
            [=](const T&) { return std::string(name); }, nullptr,
            Kind::kRequired};
  }
};

/// The table-independent half of parse(): splits `text` into lines and
/// blocks and enforces the unknown / duplicate / required-key rules.
/// `parse_at(i, value, why)` parses a value for table row i.
struct Key {
  std::string_view key;
  Kind kind;
};
[[nodiscard]] bool parse_keys(
    std::string_view text, const std::vector<Key>& keys,
    const std::function<bool(std::size_t, std::string_view, std::string&)>&
        parse_at,
    std::string* error, std::vector<bool>* seen);

/// Appends the line(s) for one field's canonical value.
void write_key(std::string& out, const Key& key, const std::string& value);

/// Parses `text` into `out` (which supplies the defaults for absent keys).
/// On failure returns false with a line-numbered message in `*error`.
/// `*seen` (when non-null) receives which table rows appeared.
template <class T>
[[nodiscard]] bool parse(std::string_view text,
                         const std::vector<Field<T>>& fields, T& out,
                         std::string* error,
                         std::vector<bool>* seen = nullptr) {
  std::vector<Key> keys;
  keys.reserve(fields.size());
  for (const Field<T>& f : fields) keys.push_back({f.key, f.kind});
  return parse_keys(
      text, keys,
      [&](std::size_t i, std::string_view v, std::string& why) {
        return fields[i].parse(out, v, why);
      },
      error, seen);
}

/// Canonical text: one line (or block) per written field, in table order.
template <class T>
[[nodiscard]] std::string write(const std::vector<Field<T>>& fields,
                                const T& value) {
  std::string out;
  for (const Field<T>& f : fields) {
    if (!f.emit || (f.when && !f.when(value))) continue;
    write_key(out, {f.key, f.kind}, f.emit(value));
  }
  return out;
}

}  // namespace ccdem::sim::kv
