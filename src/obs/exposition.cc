#include "obs/exposition.h"

#include <cmath>

#include "util/string_util.h"

namespace springdtw {
namespace obs {
namespace {

std::string FormatDouble(double v) {
  // %.17g round-trips doubles; trim to a plain integer rendering when exact
  // so counters-as-gauges stay readable.
  if (std::isfinite(v) && std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<int64_t>(v))) {
    return util::StrFormat("%lld", static_cast<long long>(v));
  }
  return util::StrFormat("%.17g", v);
}

/// JSON has no inf/nan literals; render those as null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return FormatDouble(v);
}

std::string PrometheusLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].key + "=\"" + EscapePrometheusLabel(labels[i].value) +
           "\"";
  }
  out += "}";
  return out;
}

/// Labels with one extra pair appended (for summary quantile lines).
Labels WithLabel(Labels labels, const std::string& key,
                 const std::string& value) {
  labels.push_back(Label{key, value});
  return labels;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + EscapeJson(labels[i].key) + "\":\"" +
           EscapeJson(labels[i].value) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string EscapePrometheusLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const FamilySnapshot& family : snapshot.families) {
    if (!family.help.empty()) {
      out += "# HELP " + family.name + " " + family.help + "\n";
    }
    // Histograms are exposed as precomputed-quantile summaries.
    const std::string type =
        family.kind == MetricKind::kHistogram
            ? "summary"
            : std::string(MetricKindName(family.kind));
    out += "# TYPE " + family.name + " " + type + "\n";
    for (const SeriesSnapshot& series : family.series) {
      switch (family.kind) {
        case MetricKind::kCounter:
          out += family.name + PrometheusLabels(series.labels) + " " +
                 util::StrFormat("%lld",
                                 static_cast<long long>(series.counter_value)) +
                 "\n";
          break;
        case MetricKind::kGauge:
          out += family.name + PrometheusLabels(series.labels) + " " +
                 FormatDouble(series.gauge_value) + "\n";
          break;
        case MetricKind::kHistogram: {
          const HistogramSnapshot& h = series.histogram;
          out += family.name +
                 PrometheusLabels(
                     WithLabel(series.labels, "quantile", "0.5")) +
                 " " + FormatDouble(h.Quantile(0.5)) + "\n";
          out += family.name +
                 PrometheusLabels(
                     WithLabel(series.labels, "quantile", "0.9")) +
                 " " + FormatDouble(h.Quantile(0.9)) + "\n";
          out += family.name +
                 PrometheusLabels(
                     WithLabel(series.labels, "quantile", "0.99")) +
                 " " + FormatDouble(h.Quantile(0.99)) + "\n";
          out += family.name + "_sum" + PrometheusLabels(series.labels) +
                 " " + FormatDouble(h.sum()) + "\n";
          out += family.name + "_count" + PrometheusLabels(series.labels) +
                 " " + util::StrFormat("%lld",
                                       static_cast<long long>(h.count())) +
                 "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first_family = true;
  for (const FamilySnapshot& family : snapshot.families) {
    if (!first_family) out += ",";
    first_family = false;
    out += "{\"name\":\"" + EscapeJson(family.name) + "\",\"type\":\"" +
           std::string(MetricKindName(family.kind)) + "\",\"help\":\"" +
           EscapeJson(family.help) + "\",\"series\":[";
    bool first_series = true;
    for (const SeriesSnapshot& series : family.series) {
      if (!first_series) out += ",";
      first_series = false;
      out += "{\"labels\":" + JsonLabels(series.labels) + ",";
      switch (family.kind) {
        case MetricKind::kCounter:
          out += "\"value\":" +
                 util::StrFormat("%lld",
                                 static_cast<long long>(series.counter_value));
          break;
        case MetricKind::kGauge:
          out += "\"value\":" + JsonNumber(series.gauge_value);
          break;
        case MetricKind::kHistogram: {
          const HistogramSnapshot& h = series.histogram;
          out += "\"count\":" +
                 util::StrFormat("%lld", static_cast<long long>(h.count())) +
                 ",\"sum\":" + JsonNumber(h.sum()) +
                 ",\"min\":" + JsonNumber(h.min()) +
                 ",\"max\":" + JsonNumber(h.max()) +
                 ",\"mean\":" + JsonNumber(h.mean()) +
                 ",\"p50\":" + JsonNumber(h.Quantile(0.5)) +
                 ",\"p90\":" + JsonNumber(h.Quantile(0.9)) +
                 ",\"p99\":" + JsonNumber(h.Quantile(0.99));
          break;
        }
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string RenderSummaryLine(const MetricsSnapshot& snapshot) {
  std::string out = "[obs]";
  for (const FamilySnapshot& family : snapshot.families) {
    switch (family.kind) {
      case MetricKind::kCounter: {
        int64_t total = 0;
        for (const SeriesSnapshot& s : family.series) {
          total += s.counter_value;
        }
        out += util::StrFormat(" %s=%lld", family.name.c_str(),
                               static_cast<long long>(total));
        break;
      }
      case MetricKind::kGauge: {
        double total = 0.0;
        for (const SeriesSnapshot& s : family.series) total += s.gauge_value;
        out += " " + family.name + "=" + FormatDouble(total);
        break;
      }
      case MetricKind::kHistogram: {
        util::LogHistogram all;
        for (const SeriesSnapshot& s : family.series) all.Merge(s.histogram);
        out += " " + family.name + "{p50=" + FormatDouble(all.Quantile(0.5)) +
               ",p99=" + FormatDouble(all.Quantile(0.99)) +
               ",n=" + util::StrFormat("%lld",
                                       static_cast<long long>(all.count())) +
               "}";
        break;
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace springdtw
