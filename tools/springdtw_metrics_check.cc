// springdtw_metrics_check: validate a metrics JSON blob produced by
// `springdtw_match --metrics=json` (or bench MetricsEmitter output).
//
//   springdtw_metrics_check --in=metrics.json
//       [--require=spring_ticks_total,spring_matches_total]
//       [--require_histogram=spring_stage_latency_nanos]
//       [--require_gauge=spring_ring_occupancy]
//       [--timez=timez.json] [--alertz=alertz.json]
//
// Exit 0 iff the file is syntactically valid JSON, has a top-level
// "metrics" array of family objects, every --require name appears as a
// family "name", every --require_histogram name appears as a family of
// type "histogram" with at least one series, every --require_gauge name
// appears as a family of type "gauge", and every histogram series in
// the file is well-formed: count >= 0 and — whenever count > 0 — finite
// (non-null) sum/min/max/mean and non-negative, finite p50/p90/p99
// quantiles ordered min <= p50 <= p90 <= p99 <= max. Used by the ctest
// smoke tests so CI catches a broken exposition path without external JSON
// tooling.
//
// --timez=FILE validates a /timez response (either the catalog document or
// a ?metric= series document): positive tier widths/slots, coarser tier
// widths integer multiples of the finest, strictly increasing point
// timestamps, at most `slots` points per series, and agg strings the
// timeline actually emits. --alertz=FILE validates a /alertz response:
// known state/severity/kind strings, non-negative transition counters, and
// firing_page <= firing. Both may be given alongside or instead of --in;
// any failed validation exits 1.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.h"
#include "util/json.h"
#include "util/string_util.h"

namespace {

// Minimal recursive-descent JSON syntax checker. It does not build a
// document tree; it validates syntax and invokes a callback for every
// "name":"<value>" string pair so the caller can collect family names.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Validate() {
    SkipWhitespace();
    if (!ParseValue()) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      error_ = "trailing characters";
      return false;
    }
    return true;
  }

  const std::string& error() const { return error_; }
  const std::vector<std::string>& names() const { return names_; }
  /// Family name -> declared "type" string ("counter", "gauge",
  /// "histogram"), in the order the "type" keys were seen.
  const std::vector<std::pair<std::string, std::string>>& family_types()
      const {
    return family_types_;
  }
  /// Histogram-series validation problems (negative/NaN quantile bounds,
  /// null stats with a nonzero count, ...). Syntactically valid files with
  /// such problems still Validate() == true; the caller decides.
  const std::vector<std::string>& series_errors() const {
    return series_errors_;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + springdtw::util::StrFormat(
                             " at byte %zu", pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  /// What a scalar value parse saw, for histogram-series validation.
  /// Non-finite doubles render as JSON null, so `is_null` doubles as the
  /// NaN/Inf signal.
  struct ScalarValue {
    bool is_number = false;
    bool is_null = false;
    double number = 0.0;
  };

  bool ParseValue(ScalarValue* scalar = nullptr) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        std::string ignored;
        return ParseString(&ignored);
      }
      case 't':
        return ParseLiteral("true");
      case 'f':
        return ParseLiteral("false");
      case 'n':
        if (scalar != nullptr) scalar->is_null = true;
        return ParseLiteral("null");
      default:
        return ParseNumber(scalar);
    }
  }

  bool ParseLiteral(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) == 0) {
      pos_ += literal.size();
      return true;
    }
    return Fail("bad literal");
  }

  bool ParseNumber(ScalarValue* scalar = nullptr) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    double parsed = 0.0;
    if (!springdtw::util::ParseDouble(text_.substr(start, pos_ - start),
                                      &parsed)) {
      return Fail("malformed number");
    }
    if (scalar != nullptr) {
      scalar->is_number = true;
      scalar->number = parsed;
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("bad escape");
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return Fail("bad \\u escape");
            }
          }
          out->push_back('?');  // Names we match against are ASCII.
        } else if (esc == '"' || esc == '\\' || esc == '/' || esc == 'b' ||
                   esc == 'f' || esc == 'n' || esc == 'r' || esc == 't') {
          out->push_back(esc);
        } else {
          return Fail("bad escape");
        }
        ++pos_;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseObject() {
    if (!Consume('{')) return false;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    // Histogram-stat keys seen directly in THIS object (nested objects
    // recurse and collect their own). An object carrying both "count" and
    // "p50" is a histogram series; it gets validated on close.
    static constexpr const char* kStatKeys[] = {
        "count", "sum", "min", "max", "mean", "p50", "p90", "p99"};
    static constexpr size_t kNumStatKeys =
        sizeof(kStatKeys) / sizeof(kStatKeys[0]);
    bool stat_seen[kNumStatKeys] = {};
    ScalarValue stat_values[kNumStatKeys];
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return false;
      SkipWhitespace();
      if (key == "name" && pos_ < text_.size() && text_[pos_] == '"') {
        std::string value;
        if (!ParseString(&value)) return false;
        names_.push_back(value);
        last_family_ = value;
      } else if (key == "type" && pos_ < text_.size() &&
                 text_[pos_] == '"') {
        std::string value;
        if (!ParseString(&value)) return false;
        if (!last_family_.empty()) {
          family_types_.emplace_back(last_family_, value);
        }
      } else {
        size_t stat = kNumStatKeys;
        for (size_t i = 0; i < kNumStatKeys; ++i) {
          if (key == kStatKeys[i]) {
            stat = i;
            break;
          }
        }
        if (stat < kNumStatKeys) {
          if (!ParseValue(&stat_values[stat])) return false;
          stat_seen[stat] = true;
        } else {
          if (!ParseValue()) return false;
        }
      }
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume('}')) return false;
      if (stat_seen[0] && stat_seen[5]) {  // "count" and "p50"
        ValidateHistogramSeries(kStatKeys, kNumStatKeys, stat_seen,
                                stat_values);
      }
      return true;
    }
  }

  void SeriesError(const std::string& message) {
    series_errors_.push_back(springdtw::util::StrFormat(
        "histogram family '%s': %s", last_family_.c_str(), message.c_str()));
  }

  void ValidateHistogramSeries(const char* const* keys, size_t num_keys,
                               const bool* seen, const ScalarValue* values) {
    const ScalarValue& count = values[0];
    if (!count.is_number || count.number < 0.0) {
      SeriesError("series count is missing, null, or negative");
      return;
    }
    if (count.number == 0.0) return;  // empty series render stats as null
    for (size_t i = 1; i < num_keys; ++i) {
      if (!seen[i]) continue;
      const bool is_quantile = keys[i][0] == 'p';
      if (!values[i].is_number) {
        SeriesError(springdtw::util::StrFormat(
            "series %s is %s with count > 0 (NaN/Inf leak?)", keys[i],
            values[i].is_null ? "null" : "not a number"));
      } else if (is_quantile && values[i].number < 0.0) {
        SeriesError(springdtw::util::StrFormat(
            "series %s bucket bound is negative (%g)", keys[i],
            values[i].number));
      }
    }
    // Quantiles are order statistics, so they nest inside the extremes.
    // Indexes into kStatKeys: min, p50, p90, p99, max.
    static constexpr size_t kOrdered[] = {2, 5, 6, 7, 3};
    for (size_t i = 0; i + 1 < std::size(kOrdered); ++i) {
      const ScalarValue& lo = values[kOrdered[i]];
      const ScalarValue& hi = values[kOrdered[i + 1]];
      if (!lo.is_number || !hi.is_number || lo.number > hi.number) {
        SeriesError(springdtw::util::StrFormat(
            "series needs %s <= %s (got %g, %g)", keys[kOrdered[i]],
            keys[kOrdered[i + 1]], lo.number, hi.number));
      }
    }
  }

  bool ParseArray() {
    if (!Consume('[')) return false;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (!ParseValue()) return false;
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume(']');
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
  std::vector<std::string> names_;
  std::string last_family_;
  std::vector<std::pair<std::string, std::string>> family_types_;
  std::vector<std::string> series_errors_;
};

bool ReadFileText(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int CheckedAgg(const std::string& path, const springdtw::util::JsonValue& v,
               const char* where) {
  const std::string agg = v.StringOr("agg", "");
  if (agg != "delta" && agg != "gauge") {
    std::fprintf(stderr, "%s: %s has unknown agg '%s'\n", path.c_str(),
                 where, agg.c_str());
    return 1;
  }
  return 0;
}

/// One tier object {"width_seconds","slots"}; returns the width through
/// `width` (0 on failure) and the number of problems found.
int CheckTier(const std::string& path, const springdtw::util::JsonValue& tier,
              double* width) {
  *width = tier.NumberOr("width_seconds", 0.0);
  const int64_t slots = tier.IntOr("slots", 0);
  int problems = 0;
  if (*width <= 0.0) {
    std::fprintf(stderr, "%s: tier width_seconds %g is not positive\n",
                 path.c_str(), *width);
    ++problems;
  }
  if (slots <= 0) {
    std::fprintf(stderr, "%s: tier slots %lld is not positive\n",
                 path.c_str(), static_cast<long long>(slots));
    ++problems;
  }
  return problems;
}

/// Validates a /timez response document; returns the number of problems.
int CheckTimez(const std::string& path) {
  std::string text;
  if (!ReadFileText(path, &text)) return 1;
  auto parsed = springdtw::util::ParseJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  const springdtw::util::JsonValue& doc = *parsed;
  int problems = 0;
  if (doc.Find("metric") == nullptr) {
    // Catalog document: {"tiers":[...],"records":N,"channels":[...]}.
    const springdtw::util::JsonValue* tiers = doc.Find("tiers");
    if (tiers == nullptr || !tiers->is_array()) {
      std::fprintf(stderr, "%s: catalog has no \"tiers\" array\n",
                   path.c_str());
      return 1;
    }
    double finest = 0.0;
    double previous = 0.0;
    for (const auto& tier : tiers->array()) {
      double width = 0.0;
      problems += CheckTier(path, tier, &width);
      if (width <= 0.0) continue;
      if (finest == 0.0) finest = width;
      // Tier contract (obs/timeline.h): ascending widths, every coarser
      // width an integer multiple of the finest so the fold is exact.
      if (width < previous) {
        std::fprintf(stderr, "%s: tier widths not ascending (%g after %g)\n",
                     path.c_str(), width, previous);
        ++problems;
      }
      const double ratio = width / finest;
      if (std::abs(ratio - std::round(ratio)) > 1e-9) {
        std::fprintf(stderr,
                     "%s: tier width %g is not a multiple of finest %g\n",
                     path.c_str(), width, finest);
        ++problems;
      }
      previous = width;
    }
    if (doc.IntOr("records", -1) < 0) {
      std::fprintf(stderr, "%s: catalog \"records\" missing or negative\n",
                   path.c_str());
      ++problems;
    }
    const springdtw::util::JsonValue* channels = doc.Find("channels");
    if (channels == nullptr || !channels->is_array()) {
      std::fprintf(stderr, "%s: catalog has no \"channels\" array\n",
                   path.c_str());
      ++problems;
    } else {
      for (const auto& channel : channels->array()) {
        problems += CheckedAgg(path, channel, "channel");
        if (channel.StringOr("metric", "").empty()) {
          std::fprintf(stderr, "%s: channel with empty metric name\n",
                       path.c_str());
          ++problems;
        }
      }
    }
    return problems;
  }
  // Series document: {"metric","tier":{...},"series":[{"points":[...]}]}.
  const springdtw::util::JsonValue* tier = doc.Find("tier");
  double width = 0.0;
  int64_t slots = 0;
  if (tier == nullptr || !tier->is_object()) {
    std::fprintf(stderr, "%s: series document has no \"tier\" object\n",
                 path.c_str());
    ++problems;
  } else {
    problems += CheckTier(path, *tier, &width);
    slots = tier->IntOr("slots", 0);
  }
  const springdtw::util::JsonValue* series = doc.Find("series");
  if (series == nullptr || !series->is_array()) {
    std::fprintf(stderr, "%s: series document has no \"series\" array\n",
                 path.c_str());
    return problems + 1;
  }
  for (const auto& entry : series->array()) {
    problems += CheckedAgg(path, entry, "series");
    const springdtw::util::JsonValue* points = entry.Find("points");
    if (points == nullptr || !points->is_array()) {
      std::fprintf(stderr, "%s: series entry has no \"points\" array\n",
                   path.c_str());
      ++problems;
      continue;
    }
    if (slots > 0 && static_cast<int64_t>(points->size()) > slots) {
      std::fprintf(stderr,
                   "%s: series has %zu points but the tier holds %lld\n",
                   path.c_str(), points->size(),
                   static_cast<long long>(slots));
      ++problems;
    }
    double last_t = 0.0;
    bool have_last = false;
    for (const auto& point : points->array()) {
      const double t = point.NumberOr("t", -1.0);
      if (t < 0.0) {
        std::fprintf(stderr, "%s: point with missing/negative t\n",
                     path.c_str());
        ++problems;
        continue;
      }
      if (have_last && t <= last_t) {
        std::fprintf(stderr,
                     "%s: point timestamps not strictly increasing "
                     "(%g after %g)\n",
                     path.c_str(), t, last_t);
        ++problems;
      }
      last_t = t;
      have_last = true;
      if (point.IntOr("samples", -1) < 1) {
        std::fprintf(stderr, "%s: emitted point with samples < 1 at t=%g\n",
                     path.c_str(), t);
        ++problems;
      }
      const double lo = point.NumberOr("min", 0.0);
      const double hi = point.NumberOr("max", 0.0);
      if (lo > hi) {
        std::fprintf(stderr, "%s: point min %g > max %g at t=%g\n",
                     path.c_str(), lo, hi, t);
        ++problems;
      }
    }
  }
  return problems;
}

/// Validates a /alertz response document; returns the number of problems.
int CheckAlertz(const std::string& path) {
  std::string text;
  if (!ReadFileText(path, &text)) return 1;
  auto parsed = springdtw::util::ParseJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  const springdtw::util::JsonValue& doc = *parsed;
  int problems = 0;
  const springdtw::util::JsonValue* rules = doc.Find("rules");
  if (rules == nullptr || !rules->is_array()) {
    std::fprintf(stderr, "%s: no \"rules\" array\n", path.c_str());
    return 1;
  }
  int64_t firing_observed = 0;
  for (const auto& rule : rules->array()) {
    const std::string name = rule.StringOr("name", "");
    if (name.empty()) {
      std::fprintf(stderr, "%s: rule with empty name\n", path.c_str());
      ++problems;
    }
    const std::string state = rule.StringOr("state", "");
    if (state != "inactive" && state != "pending" && state != "firing" &&
        state != "resolved") {
      std::fprintf(stderr, "%s: rule '%s' has unknown state '%s'\n",
                   path.c_str(), name.c_str(), state.c_str());
      ++problems;
    }
    if (state == "firing") ++firing_observed;
    const std::string severity = rule.StringOr("severity", "");
    if (severity != "warn" && severity != "page") {
      std::fprintf(stderr, "%s: rule '%s' has unknown severity '%s'\n",
                   path.c_str(), name.c_str(), severity.c_str());
      ++problems;
    }
    const std::string kind = rule.StringOr("kind", "");
    if (kind != "value" && kind != "ratio" && kind != "rate" &&
        kind != "absent" && kind != "burn") {
      std::fprintf(stderr, "%s: rule '%s' has unknown kind '%s'\n",
                   path.c_str(), name.c_str(), kind.c_str());
      ++problems;
    }
    for (const char* counter :
         {"pending_count", "firing_count", "resolved_count"}) {
      if (rule.IntOr(counter, -1) < 0) {
        std::fprintf(stderr, "%s: rule '%s' %s missing or negative\n",
                     path.c_str(), name.c_str(), counter);
        ++problems;
      }
    }
  }
  const int64_t firing = doc.IntOr("firing", -1);
  const int64_t firing_page = doc.IntOr("firing_page", -1);
  if (firing < 0 || firing_page < 0 || firing_page > firing) {
    std::fprintf(stderr,
                 "%s: bad firing counts (firing=%lld firing_page=%lld)\n",
                 path.c_str(), static_cast<long long>(firing),
                 static_cast<long long>(firing_page));
    ++problems;
  }
  if (firing != firing_observed) {
    std::fprintf(stderr,
                 "%s: \"firing\" says %lld but %lld rules are firing\n",
                 path.c_str(), static_cast<long long>(firing),
                 static_cast<long long>(firing_observed));
    ++problems;
  }
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  springdtw::util::FlagParser flags(argc, argv);
  std::string path = flags.GetString("in", "");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional()[0];
  }
  const std::string timez_path = flags.GetString("timez", "");
  const std::string alertz_path = flags.GetString("alertz", "");
  int endpoint_problems = 0;
  if (!timez_path.empty()) endpoint_problems += CheckTimez(timez_path);
  if (!alertz_path.empty()) endpoint_problems += CheckAlertz(alertz_path);
  if (path.empty()) {
    // Endpoint-only invocation: --timez/--alertz without a metrics blob.
    if (!timez_path.empty() || !alertz_path.empty()) {
      if (endpoint_problems > 0) return 1;
      std::printf("ok (endpoint documents only)\n");
      return 0;
    }
    std::fprintf(stderr,
                 "usage: %s --in=metrics.json [--require=name1,name2]\n"
                 "  [--require_histogram=...] [--require_gauge=...]\n"
                 "  [--timez=timez.json] [--alertz=alertz.json]\n",
                 flags.program_name().c_str());
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) {
    std::fprintf(stderr, "%s is empty\n", path.c_str());
    return 1;
  }

  JsonChecker checker(text);
  if (!checker.Validate()) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 checker.error().c_str());
    return 1;
  }
  if (text.find("\"metrics\"") == std::string::npos) {
    std::fprintf(stderr, "%s: no top-level \"metrics\" key\n", path.c_str());
    return 1;
  }
  for (const std::string& problem : checker.series_errors()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), problem.c_str());
  }

  int missing = 0;
  const std::string require = flags.GetString("require", "");
  if (!require.empty()) {
    for (const std::string& name : springdtw::util::Split(require, ',')) {
      bool found = false;
      for (const std::string& have : checker.names()) {
        if (have == name) {
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "%s: missing required metric family '%s'\n",
                     path.c_str(), name.c_str());
        ++missing;
      }
    }
  }
  const std::string require_histogram =
      flags.GetString("require_histogram", "");
  if (!require_histogram.empty()) {
    for (const std::string& name :
         springdtw::util::Split(require_histogram, ',')) {
      bool found = false;
      for (const auto& [family, type] : checker.family_types()) {
        if (family == name && type == "histogram") {
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr,
                     "%s: missing required histogram family '%s'\n",
                     path.c_str(), name.c_str());
        ++missing;
      }
    }
  }
  const std::string require_gauge = flags.GetString("require_gauge", "");
  if (!require_gauge.empty()) {
    for (const std::string& name :
         springdtw::util::Split(require_gauge, ',')) {
      bool found = false;
      for (const auto& [family, type] : checker.family_types()) {
        if (family == name && type == "gauge") {
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "%s: missing required gauge family '%s'\n",
                     path.c_str(), name.c_str());
        ++missing;
      }
    }
  }
  if (missing > 0 || !checker.series_errors().empty() ||
      endpoint_problems > 0) {
    return 1;
  }
  std::printf("%s: ok (%zu metric families)\n", path.c_str(),
              checker.names().size());
  return 0;
}
