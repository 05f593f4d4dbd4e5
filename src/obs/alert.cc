#include "obs/alert.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "obs/exposition.h"
#include "util/string_util.h"

namespace springdtw {
namespace obs {
namespace {

constexpr double kNanosPerSecond = 1e9;

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  return util::StrFormat("%.17g", v);
}

bool Compare(AlertCmp cmp, double value, double threshold) {
  switch (cmp) {
    case AlertCmp::kGt:
      return value > threshold;
    case AlertCmp::kGe:
      return value >= threshold;
    case AlertCmp::kLt:
      return value < threshold;
    case AlertCmp::kLe:
      return value <= threshold;
  }
  return false;
}

/// One metric reference: name[{key=value}][:field].
struct MetricRef {
  std::string metric;
  std::string field;
  std::string label_key;
  std::string label_value;
};

util::StatusOr<MetricRef> ParseMetricRef(std::string_view text) {
  MetricRef ref;
  text = util::StripWhitespace(text);
  if (text.empty()) {
    return util::InvalidArgumentError("alert rule: empty metric reference");
  }
  const size_t brace = text.find('{');
  if (brace != std::string_view::npos) {
    const size_t close = text.find('}', brace);
    if (close == std::string_view::npos) {
      return util::InvalidArgumentError(
          "alert rule: unterminated label filter");
    }
    const std::string_view filter = text.substr(brace + 1, close - brace - 1);
    const size_t eq = filter.find('=');
    if (eq == std::string_view::npos) {
      return util::InvalidArgumentError(
          "alert rule: label filter must be {key=value}");
    }
    ref.label_key = std::string(util::StripWhitespace(filter.substr(0, eq)));
    ref.label_value =
        std::string(util::StripWhitespace(filter.substr(eq + 1)));
    ref.metric = std::string(text.substr(0, brace));
    text = text.substr(close + 1);
  } else {
    const size_t colon = text.find(':');
    ref.metric = std::string(
        colon == std::string_view::npos ? text : text.substr(0, colon));
    text = colon == std::string_view::npos ? std::string_view()
                                           : text.substr(colon);
  }
  if (!text.empty()) {
    if (text.front() != ':') {
      return util::InvalidArgumentError(
          "alert rule: garbage after label filter");
    }
    ref.field = std::string(util::StripWhitespace(text.substr(1)));
  }
  if (ref.metric.empty()) {
    return util::InvalidArgumentError("alert rule: empty metric name");
  }
  return ref;
}

/// Parses a "<N>s" / "<N>" duration in seconds.
bool ParseSeconds(std::string_view text, double* out) {
  text = util::StripWhitespace(text);
  if (!text.empty() && (text.back() == 's' || text.back() == 'S')) {
    text = text.substr(0, text.size() - 1);
  }
  return util::ParseDouble(text, out) && *out >= 0.0;
}

void AssignRef(const MetricRef& ref, std::string* metric, std::string* field,
               std::string* label_key, std::string* label_value) {
  *metric = ref.metric;
  *field = ref.field;
  *label_key = ref.label_key;
  *label_value = ref.label_value;
}

/// Reconstructs the display expression for /alertz.
std::string FormatExpr(const AlertRule& rule) {
  auto ref = [](const std::string& metric, const std::string& field,
                const std::string& key, const std::string& value) {
    std::string out = metric;
    if (!key.empty()) out += "{" + key + "=" + value + "}";
    if (!field.empty()) out += ":" + field;
    return out;
  };
  const std::string lhs =
      ref(rule.metric, rule.field, rule.label_key, rule.label_value);
  std::string expr;
  switch (rule.kind) {
    case AlertExprKind::kValue:
      expr = "value(" + lhs + ")";
      break;
    case AlertExprKind::kRatio:
      expr = "ratio(" + lhs + ", " +
             ref(rule.metric_b, rule.field_b, rule.label_key_b,
                 rule.label_value_b) +
             ")";
      break;
    case AlertExprKind::kRate:
      expr = "rate(" + lhs + ")";
      break;
    case AlertExprKind::kAbsent:
      expr = "absent(" + lhs + ")";
      break;
    case AlertExprKind::kBurnRate:
      expr = util::StrFormat("burn(%s, %.17g, %.17gs, %.17gs)", lhs.c_str(),
                             rule.budget, rule.fast_window_seconds,
                             rule.slow_window_seconds);
      break;
  }
  if (rule.kind != AlertExprKind::kAbsent) {
    expr += util::StrFormat(" %s %.17g",
                            std::string(AlertCmpName(rule.cmp)).c_str(),
                            rule.threshold);
  }
  if (rule.for_seconds > 0.0) {
    expr += util::StrFormat(" for %.17gs", rule.for_seconds);
  }
  return expr;
}

/// Instantaneous reading of one metric reference off the snapshot, summed
/// across matching series (histogram quantile fields take the max across
/// series instead — quantiles are not additive). Returns false when the
/// family (or any matching series) is absent.
bool SnapshotValue(const MetricsSnapshot& snapshot, const std::string& metric,
                   const std::string& field, const std::string& label_key,
                   const std::string& label_value, double* out) {
  const FamilySnapshot* family = snapshot.Find(metric);
  if (family == nullptr) return false;
  double sum = 0.0;
  double max_value = -std::numeric_limits<double>::infinity();
  bool any = false;
  const bool quantile_field =
      field == "p50" || field == "p90" || field == "p99" || field == "mean" ||
      field == "min" || field == "max";
  for (const SeriesSnapshot& series : family->series) {
    if (!label_key.empty()) {
      bool matched = false;
      for (const Label& label : series.labels) {
        if (label.key == label_key && label.value == label_value) {
          matched = true;
          break;
        }
      }
      if (!matched) continue;
    }
    double v = 0.0;
    switch (family->kind) {
      case MetricKind::kCounter:
        v = static_cast<double>(series.counter_value);
        break;
      case MetricKind::kGauge:
        v = series.gauge_value;
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = series.histogram;
        if (field == "count" || field.empty()) {
          v = static_cast<double>(h.count());
        } else if (field == "sum") {
          v = h.sum();
        } else if (field == "mean") {
          v = h.mean();
        } else if (field == "min") {
          v = h.min();
        } else if (field == "max") {
          v = h.max();
        } else if (field == "p50") {
          v = h.Quantile(0.5);
        } else if (field == "p90") {
          v = h.Quantile(0.9);
        } else if (field == "p99") {
          v = h.Quantile(0.99);
        } else {
          return false;
        }
        break;
      }
    }
    any = true;
    sum += v;
    max_value = std::max(max_value, v);
  }
  if (!any) return false;
  *out = (family->kind == MetricKind::kHistogram && quantile_field)
             ? max_value
             : sum;
  return true;
}

}  // namespace

std::string_view AlertSeverityName(AlertSeverity severity) {
  return severity == AlertSeverity::kPage ? "page" : "warn";
}

std::string_view AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kResolved:
      return "resolved";
  }
  return "unknown";
}

std::string_view AlertExprKindName(AlertExprKind kind) {
  switch (kind) {
    case AlertExprKind::kValue:
      return "value";
    case AlertExprKind::kRatio:
      return "ratio";
    case AlertExprKind::kRate:
      return "rate";
    case AlertExprKind::kAbsent:
      return "absent";
    case AlertExprKind::kBurnRate:
      return "burn";
  }
  return "unknown";
}

std::string_view AlertCmpName(AlertCmp cmp) {
  switch (cmp) {
    case AlertCmp::kGt:
      return ">";
    case AlertCmp::kGe:
      return ">=";
    case AlertCmp::kLt:
      return "<";
    case AlertCmp::kLe:
      return "<=";
  }
  return "?";
}

util::StatusOr<AlertRule> ParseAlertRule(std::string_view line) {
  std::string_view text = util::StripWhitespace(line);
  AlertRule rule;

  auto take_token = [&text]() {
    text = util::StripWhitespace(text);
    size_t end = 0;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    const std::string_view token = text.substr(0, end);
    text = text.substr(end);
    return token;
  };

  if (take_token() != "alert") {
    return util::InvalidArgumentError(
        "alert rule: line must start with `alert`");
  }
  const std::string_view name = take_token();
  if (name.empty()) {
    return util::InvalidArgumentError("alert rule: missing rule name");
  }
  rule.name = std::string(name);
  const std::string_view severity = take_token();
  if (severity == "warn") {
    rule.severity = AlertSeverity::kWarn;
  } else if (severity == "page") {
    rule.severity = AlertSeverity::kPage;
  } else {
    return util::InvalidArgumentError(
        "alert rule: severity must be `warn` or `page`");
  }

  // Optional trailing `for <N>s`.
  text = util::StripWhitespace(text);
  {
    const size_t for_pos = text.rfind(" for ");
    if (for_pos != std::string_view::npos) {
      const std::string_view tail =
          util::StripWhitespace(text.substr(for_pos + 5));
      double seconds = 0.0;
      if (ParseSeconds(tail, &seconds)) {
        rule.for_seconds = seconds;
        text = util::StripWhitespace(text.substr(0, for_pos));
      }
    }
  }

  // <func>(<args>) [<cmp> <num>]
  const size_t open = text.find('(');
  if (open == std::string_view::npos) {
    return util::InvalidArgumentError(
        "alert rule: expected <expr>(...) expression");
  }
  const size_t close = text.find(')', open);
  if (close == std::string_view::npos) {
    return util::InvalidArgumentError("alert rule: missing `)`");
  }
  const std::string_view func = util::StripWhitespace(text.substr(0, open));
  const std::string_view args = text.substr(open + 1, close - open - 1);
  std::string_view rest = util::StripWhitespace(text.substr(close + 1));

  if (func == "value") {
    rule.kind = AlertExprKind::kValue;
  } else if (func == "ratio") {
    rule.kind = AlertExprKind::kRatio;
  } else if (func == "rate") {
    rule.kind = AlertExprKind::kRate;
  } else if (func == "absent") {
    rule.kind = AlertExprKind::kAbsent;
  } else if (func == "burn") {
    rule.kind = AlertExprKind::kBurnRate;
  } else {
    return util::InvalidArgumentError(
        "alert rule: unknown expression `" + std::string(func) +
        "` (want value/ratio/rate/absent/burn)");
  }

  const std::vector<std::string> parts = util::Split(std::string(args), ',');
  switch (rule.kind) {
    case AlertExprKind::kValue:
    case AlertExprKind::kRate:
    case AlertExprKind::kAbsent: {
      if (parts.size() != 1) {
        return util::InvalidArgumentError(
            "alert rule: expression takes exactly one metric");
      }
      auto ref = ParseMetricRef(parts[0]);
      if (!ref.ok()) return ref.status();
      AssignRef(*ref, &rule.metric, &rule.field, &rule.label_key,
                &rule.label_value);
      break;
    }
    case AlertExprKind::kRatio: {
      if (parts.size() != 2) {
        return util::InvalidArgumentError(
            "alert rule: ratio(numerator, denominator)");
      }
      auto a = ParseMetricRef(parts[0]);
      if (!a.ok()) return a.status();
      auto b = ParseMetricRef(parts[1]);
      if (!b.ok()) return b.status();
      AssignRef(*a, &rule.metric, &rule.field, &rule.label_key,
                &rule.label_value);
      AssignRef(*b, &rule.metric_b, &rule.field_b, &rule.label_key_b,
                &rule.label_value_b);
      break;
    }
    case AlertExprKind::kBurnRate: {
      if (parts.size() != 4) {
        return util::InvalidArgumentError(
            "alert rule: burn(metric:field, budget, fast_s, slow_s)");
      }
      auto ref = ParseMetricRef(parts[0]);
      if (!ref.ok()) return ref.status();
      AssignRef(*ref, &rule.metric, &rule.field, &rule.label_key,
                &rule.label_value);
      if (!util::ParseDouble(util::StripWhitespace(parts[1]),
                             &rule.budget)) {
        return util::InvalidArgumentError("alert rule: bad burn budget");
      }
      if (!ParseSeconds(parts[2], &rule.fast_window_seconds) ||
          !ParseSeconds(parts[3], &rule.slow_window_seconds) ||
          rule.fast_window_seconds <= 0.0 ||
          rule.slow_window_seconds < rule.fast_window_seconds) {
        return util::InvalidArgumentError(
            "alert rule: burn windows must satisfy 0 < fast <= slow");
      }
      break;
    }
  }

  if (rule.kind == AlertExprKind::kAbsent) {
    if (!rest.empty()) {
      return util::InvalidArgumentError(
          "alert rule: absent() takes no comparison");
    }
    if (rule.for_seconds <= 0.0) {
      return util::InvalidArgumentError(
          "alert rule: absent() needs a `for <N>s` window");
    }
    return rule;
  }

  // <cmp> <num>
  if (util::StartsWith(rest, ">=")) {
    rule.cmp = AlertCmp::kGe;
    rest = rest.substr(2);
  } else if (util::StartsWith(rest, "<=")) {
    rule.cmp = AlertCmp::kLe;
    rest = rest.substr(2);
  } else if (util::StartsWith(rest, ">")) {
    rule.cmp = AlertCmp::kGt;
    rest = rest.substr(1);
  } else if (util::StartsWith(rest, "<")) {
    rule.cmp = AlertCmp::kLt;
    rest = rest.substr(1);
  } else {
    return util::InvalidArgumentError(
        "alert rule: expected comparison (> >= < <=) after expression");
  }
  if (!util::ParseDouble(util::StripWhitespace(rest), &rule.threshold)) {
    return util::InvalidArgumentError("alert rule: bad threshold number");
  }
  return rule;
}

util::StatusOr<std::vector<AlertRule>> ParseAlertRules(
    std::string_view text) {
  std::vector<AlertRule> rules;
  const std::vector<std::string> lines = util::Split(std::string(text), '\n');
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = util::StripWhitespace(line);
    if (line.empty()) continue;
    auto rule = ParseAlertRule(line);
    if (!rule.ok()) {
      return util::InvalidArgumentError(util::StrFormat(
          "line %zu: %s", i + 1, rule.status().message().c_str()));
    }
    rules.push_back(*std::move(rule));
  }
  return rules;
}

AlertRule MakeSloP99Rule(double p99_ms) {
  AlertRule rule;
  rule.name = "slo_e2e_p99_burn";
  rule.severity = AlertSeverity::kPage;
  rule.kind = AlertExprKind::kBurnRate;
  rule.metric = "spring_e2e_latency_nanos";
  rule.field = "p99";
  rule.label_key = "stage";
  rule.label_value = "total";
  rule.budget = p99_ms * 1e6;  // ms -> nanos, the histogram's unit.
  rule.fast_window_seconds = 60.0;
  rule.slow_window_seconds = 300.0;
  rule.cmp = AlertCmp::kGt;
  rule.threshold = 0.5;
  rule.for_seconds = 0.0;
  return rule;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules) {
  rules_.reserve(rules.size());
  for (AlertRule& rule : rules) {
    RuleState rs;
    rs.expr = FormatExpr(rule);
    rs.rule = std::move(rule);
    rules_.push_back(std::move(rs));
  }
}

bool AlertEngine::ConditionHolds(const RuleState& rs, uint64_t now_nanos,
                                 const MetricsSnapshot& snapshot,
                                 const MetricsTimeline& timeline,
                                 double* value) const {
  (void)now_nanos;
  const AlertRule& rule = rs.rule;
  *value = std::numeric_limits<double>::quiet_NaN();
  switch (rule.kind) {
    case AlertExprKind::kValue: {
      double v = 0.0;
      if (!SnapshotValue(snapshot, rule.metric, rule.field, rule.label_key,
                         rule.label_value, &v)) {
        return false;
      }
      *value = v;
      return Compare(rule.cmp, v, rule.threshold);
    }
    case AlertExprKind::kRatio: {
      double numerator = 0.0;
      double denominator = 0.0;
      if (!SnapshotValue(snapshot, rule.metric, rule.field, rule.label_key,
                         rule.label_value, &numerator) ||
          !SnapshotValue(snapshot, rule.metric_b, rule.field_b,
                         rule.label_key_b, rule.label_value_b,
                         &denominator) ||
          denominator == 0.0) {
        return false;
      }
      *value = numerator / denominator;
      return Compare(rule.cmp, *value, rule.threshold);
    }
    case AlertExprKind::kRate: {
      const double width = timeline.tiers().front().width_seconds;
      const double window = std::max(rule.for_seconds, width);
      const double delta = timeline.DeltaOver(rule.metric, rule.field, window);
      *value = delta / window;
      return Compare(rule.cmp, *value, rule.threshold);
    }
    case AlertExprKind::kAbsent: {
      const TimelineWindow window =
          timeline.Query(rule.metric, rule.field, rule.for_seconds);
      for (const TimelineSeries& series : window.series) {
        if (!series.points.empty()) return false;
      }
      return true;
    }
    case AlertExprKind::kBurnRate: {
      const double fast = timeline.BadBucketFraction(
          rule.metric, rule.field, rule.fast_window_seconds, rule.budget);
      const double slow = timeline.BadBucketFraction(
          rule.metric, rule.field, rule.slow_window_seconds, rule.budget);
      if (fast < 0.0 || slow < 0.0) return false;
      *value = fast;
      return Compare(rule.cmp, fast, rule.threshold) &&
             Compare(rule.cmp, slow, rule.threshold);
    }
  }
  return false;
}

void AlertEngine::Transition(RuleState* rs, AlertState next,
                             uint64_t now_nanos, TraceRing* trace) {
  const AlertState prev = rs->state;
  if (prev == next) return;
  rs->state = next;
  rs->since_nanos = now_nanos;
  switch (next) {
    case AlertState::kPending:
      ++rs->pending_count;
      break;
    case AlertState::kFiring:
      ++rs->firing_count;
      break;
    case AlertState::kResolved:
      ++rs->resolved_count;
      break;
    case AlertState::kInactive:
      break;
  }
  if (trace != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kAlertTransition;
    event.query_id = static_cast<int64_t>(rs - rules_.data());
    event.start = static_cast<int64_t>(prev);
    event.end = static_cast<int64_t>(next);
    event.distance = rs->last_value;
    trace->Record(event);
  }
}

void AlertEngine::Evaluate(uint64_t now_nanos,
                           const MetricsSnapshot& snapshot,
                           const MetricsTimeline& timeline,
                           TraceRing* trace) {
  bool firing_page = false;
  for (RuleState& rs : rules_) {
    double value = 0.0;
    const bool holds =
        ConditionHolds(rs, now_nanos, snapshot, timeline, &value);
    rs.last_value = value;
    switch (rs.state) {
      case AlertState::kInactive:
      case AlertState::kResolved:
        if (holds) {
          rs.pending_since_nanos = now_nanos;
          if (rs.rule.for_seconds <= 0.0) {
            Transition(&rs, AlertState::kFiring, now_nanos, trace);
          } else {
            Transition(&rs, AlertState::kPending, now_nanos, trace);
          }
        }
        break;
      case AlertState::kPending:
        if (!holds) {
          Transition(&rs, AlertState::kInactive, now_nanos, trace);
        } else if (static_cast<double>(now_nanos - rs.pending_since_nanos) >=
                   rs.rule.for_seconds * kNanosPerSecond) {
          Transition(&rs, AlertState::kFiring, now_nanos, trace);
        }
        break;
      case AlertState::kFiring:
        if (!holds) {
          Transition(&rs, AlertState::kResolved, now_nanos, trace);
        }
        break;
    }
    if (rs.state == AlertState::kFiring &&
        rs.rule.severity == AlertSeverity::kPage) {
      firing_page = true;
    }
  }
  any_firing_page_ = firing_page;
}

std::vector<AlertStatus> AlertEngine::Statuses() const {
  std::vector<AlertStatus> statuses;
  statuses.reserve(rules_.size());
  for (const RuleState& rs : rules_) {
    AlertStatus status;
    status.name = rs.rule.name;
    status.severity = rs.rule.severity;
    status.kind = rs.rule.kind;
    status.state = rs.state;
    status.expr = rs.expr;
    status.value = rs.last_value;
    status.threshold = rs.rule.threshold;
    status.for_seconds = rs.rule.for_seconds;
    status.since_nanos = rs.since_nanos;
    status.pending_count = rs.pending_count;
    status.firing_count = rs.firing_count;
    status.resolved_count = rs.resolved_count;
    statuses.push_back(std::move(status));
  }
  return statuses;
}

std::string RenderAlertzJson(const std::vector<AlertStatus>& statuses,
                             uint64_t now_nanos) {
  int64_t firing = 0;
  int64_t firing_page = 0;
  std::string out = "{\"rules\":[";
  for (size_t i = 0; i < statuses.size(); ++i) {
    const AlertStatus& status = statuses[i];
    if (status.state == AlertState::kFiring) {
      ++firing;
      if (status.severity == AlertSeverity::kPage) ++firing_page;
    }
    if (i > 0) out.push_back(',');
    const double since_seconds_ago =
        status.since_nanos == 0
            ? -1.0
            : static_cast<double>(now_nanos - status.since_nanos) /
                  kNanosPerSecond;
    out += util::StrFormat(
        "{\"name\":\"%s\",\"severity\":\"%s\",\"kind\":\"%s\","
        "\"state\":\"%s\",\"expr\":\"%s\",\"value\":%s,\"threshold\":%s,"
        "\"for_seconds\":%s,\"since_seconds_ago\":%s,"
        "\"pending_count\":%lld,\"firing_count\":%lld,"
        "\"resolved_count\":%lld}",
        EscapeJson(status.name).c_str(),
        std::string(AlertSeverityName(status.severity)).c_str(),
        std::string(AlertExprKindName(status.kind)).c_str(),
        std::string(AlertStateName(status.state)).c_str(),
        EscapeJson(status.expr).c_str(), Num(status.value).c_str(),
        Num(status.threshold).c_str(), Num(status.for_seconds).c_str(),
        Num(since_seconds_ago).c_str(),
        static_cast<long long>(status.pending_count),
        static_cast<long long>(status.firing_count),
        static_cast<long long>(status.resolved_count));
  }
  out += util::StrFormat("],\"firing\":%lld,\"firing_page\":%lld}",
                         static_cast<long long>(firing),
                         static_cast<long long>(firing_page));
  return out;
}

}  // namespace obs
}  // namespace springdtw
