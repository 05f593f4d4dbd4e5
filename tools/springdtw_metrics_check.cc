// springdtw_metrics_check: validate a metrics JSON blob produced by
// `springdtw_match --metrics=json` (or bench MetricsEmitter output).
//
//   springdtw_metrics_check --in=metrics.json
//       [--require=spring_ticks_total,spring_matches_total]
//       [--require_histogram=spring_e2e_latency_nanos]
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

/// One series of a histogram family; returns the number of problems.
/// Non-finite doubles render as JSON null, so null stats with count > 0
/// signal a NaN/Inf leak.
int CheckHistogramSeries(const std::string& path, const std::string& family,
                         const springdtw::util::JsonValue& series) {
  int problems = 0;
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s: histogram family '%s': %s\n", path.c_str(),
                 family.c_str(), message.c_str());
    ++problems;
  };
  const springdtw::util::JsonValue* count = series.Find("count");
  if (count == nullptr || !count->is_number() || count->number_value() < 0) {
    fail("series count is missing, null, or negative");
    return problems;
  }
  if (count->number_value() == 0) return 0;  // empty series: null stats
  for (const char* key : {"sum", "min", "max", "mean", "p50", "p90", "p99"}) {
    const springdtw::util::JsonValue* value = series.Find(key);
    if (value == nullptr) continue;
    if (!value->is_number()) {
      fail(springdtw::util::StrFormat(
          "series %s is %s with count > 0 (NaN/Inf leak?)", key,
          value->is_null() ? "null" : "not a number"));
    } else if (key[0] == 'p' && value->number_value() < 0) {
      fail(springdtw::util::StrFormat(
          "series %s bucket bound is negative (%g)", key,
          value->number_value()));
    }
  }
  // Quantiles are order statistics, so they nest inside the extremes.
  static constexpr const char* kOrdered[] = {"min", "p50", "p90", "p99",
                                             "max"};
  for (size_t i = 0; i + 1 < std::size(kOrdered); ++i) {
    const double lo = series.NumberOr(kOrdered[i], std::nan(""));
    const double hi = series.NumberOr(kOrdered[i + 1], std::nan(""));
    if (!(lo <= hi)) {
      fail(springdtw::util::StrFormat("series needs %s <= %s (got %g, %g)",
                                      kOrdered[i], kOrdered[i + 1], lo, hi));
    }
  }
  return problems;
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

  std::string text;
  if (!ReadFileText(path, &text)) return 1;
  if (text.empty()) {
    std::fprintf(stderr, "%s is empty\n", path.c_str());
    return 1;
  }
  auto parsed = springdtw::util::ParseJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  const springdtw::util::JsonValue* metrics = parsed->Find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    std::fprintf(stderr, "%s: no top-level \"metrics\" array\n",
                 path.c_str());
    return 1;
  }
  int problems = endpoint_problems;
  for (const auto& family : metrics->array()) {
    const springdtw::util::JsonValue* series = family.Find("series");
    if (family.StringOr("type", "") != "histogram" || series == nullptr) {
      continue;
    }
    for (const auto& entry : series->array()) {
      problems += CheckHistogramSeries(path, family.StringOr("name", ""),
                                       entry);
    }
  }
  // --require takes any type; --require_histogram also needs a series.
  const std::pair<const char*, std::string> kRequirements[] = {
      {"require", ""},
      {"require_histogram", "histogram"},
      {"require_gauge", "gauge"}};
  for (const auto& [flag, type] : kRequirements) {
    const std::string names = flags.GetString(flag, "");
    if (names.empty()) continue;
    for (const std::string& name : springdtw::util::Split(names, ',')) {
      bool found = false;
      for (const auto& family : metrics->array()) {
        const springdtw::util::JsonValue* series = family.Find("series");
        found = family.StringOr("name", "") == name &&
                (type.empty() || family.StringOr("type", "") == type) &&
                (type != "histogram" ||
                 (series != nullptr && series->size() > 0));
        if (found) break;
      }
      if (!found) {
        std::fprintf(stderr, "%s: missing required %s family '%s'\n",
                     path.c_str(), type.empty() ? "metric" : type.c_str(),
                     name.c_str());
        ++problems;
      }
    }
  }
  if (problems > 0) return 1;
  std::printf("%s: ok (%zu metric families)\n", path.c_str(),
              metrics->size());
  return 0;
}
