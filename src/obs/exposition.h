#ifndef SPRINGDTW_OBS_EXPOSITION_H_
#define SPRINGDTW_OBS_EXPOSITION_H_

#include <string>

#include "obs/metrics.h"

namespace springdtw {
namespace obs {

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): "# HELP" / "# TYPE" headers per family, one "name{labels} value"
/// line per series. Histograms render as Prometheus summaries (quantile
/// label + _sum/_count).
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// Renders a snapshot as a single JSON object:
///   {"metrics":[{"name":...,"type":"counter","help":...,
///                "series":[{"labels":{...},"value":...}]}, ...]}
/// Histogram series carry count/sum/min/max/mean/p50/p90/p99 instead
/// of "value". Non-finite values render as null so output always parses.
std::string RenderJson(const MetricsSnapshot& snapshot);

/// Renders a compact single-line summary of the snapshot — counter and
/// gauge totals per family, and p50/p99/count of each histogram family's
/// merged series — for the periodic stats reporter and log files. No
/// trailing newline.
std::string RenderSummaryLine(const MetricsSnapshot& snapshot);

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string EscapePrometheusLabel(const std::string& value);

/// Escapes a JSON string body (quotes, backslashes, control characters).
std::string EscapeJson(const std::string& value);

}  // namespace obs
}  // namespace springdtw

#endif  // SPRINGDTW_OBS_EXPOSITION_H_
