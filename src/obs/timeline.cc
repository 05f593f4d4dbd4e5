#include "obs/timeline.h"

#include <algorithm>
#include <cmath>

#include "obs/exposition.h"
#include "util/string_util.h"

namespace springdtw {
namespace obs {
namespace {

constexpr double kNanosPerSecond = 1e9;

/// Default wheel: two minutes at 1s, fifteen at 10s, two hours at 1m.
std::vector<TimelineTier> DefaultTiers() {
  return {{1.0, 120}, {10.0, 90}, {60.0, 120}};
}

/// Renders a double as JSON, "null" for non-finite (matching the
/// exposition layer's convention so output always parses).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  return util::StrFormat("%.17g", v);
}

int64_t EpochOf(uint64_t now_nanos, double width_seconds) {
  return static_cast<int64_t>(static_cast<double>(now_nanos) /
                              (width_seconds * kNanosPerSecond));
}

}  // namespace

std::string_view ChannelAggName(ChannelAgg agg) {
  switch (agg) {
    case ChannelAgg::kDelta:
      return "delta";
    case ChannelAgg::kGauge:
      return "gauge";
  }
  return "unknown";
}

MetricsTimeline::MetricsTimeline(TimelineOptions options)
    : max_channels_(std::max<int64_t>(options.max_channels, 0)) {
  std::vector<TimelineTier> requested =
      options.tiers.empty() ? DefaultTiers() : std::move(options.tiers);
  for (const TimelineTier& tier : requested) {
    if (tier.width_seconds <= 0.0 || tier.slots <= 0) continue;
    if (!tiers_.empty()) {
      // Coarser tiers must nest on the finest tier's boundaries so the
      // downsampling fold is exact; drop tiers that do not.
      const double ratio = tier.width_seconds / tiers_.front().width_seconds;
      if (ratio < 1.0 || std::abs(ratio - std::round(ratio)) > 1e-9) continue;
    }
    tiers_.push_back(tier);
  }
  if (tiers_.empty()) tiers_ = DefaultTiers();
}

int64_t MetricsTimeline::FindOrCreateFamily(std::string_view name,
                                            MetricKind kind) {
  for (size_t i = 0; i < families_.size(); ++i) {
    if (families_[i].name == name) return static_cast<int64_t>(i);
  }
  families_.push_back({std::string(name), kind});
  return static_cast<int64_t>(families_.size()) - 1;
}

MetricsTimeline::Channel* MetricsTimeline::FindOrCreateChannel(
    int64_t family, std::string_view field, const Labels& labels,
    ChannelAgg agg) {
  key_scratch_.clear();
  key_scratch_ += std::to_string(family);
  key_scratch_ += '\x1f';
  key_scratch_ += field;
  for (const Label& label : labels) {
    key_scratch_ += '\x1f';
    key_scratch_ += label.key;
    key_scratch_ += '\x1e';
    key_scratch_ += label.value;
  }
  const auto it = channel_index_.find(key_scratch_);
  if (it != channel_index_.end()) return &channels_[it->second];
  if (static_cast<int64_t>(channels_.size()) >= max_channels_) {
    ++dropped_channels_;
    return nullptr;
  }
  Channel channel;
  channel.family = family;
  channel.field = std::string(field);
  channel.labels = labels;
  channel.agg = agg;
  channel.rings.resize(tiers_.size());
  for (size_t i = 0; i < tiers_.size(); ++i) {
    channel.rings[i].resize(static_cast<size_t>(tiers_[i].slots));
  }
  channels_.push_back(std::move(channel));
  channel_index_.emplace(key_scratch_, channels_.size() - 1);
  return &channels_.back();
}

void MetricsTimeline::RecordSample(uint64_t now_nanos, Channel* channel,
                                   double sample) {
  double contribution = sample;
  if (channel->agg == ChannelAgg::kDelta) {
    if (channel->has_prev) {
      contribution = sample - channel->prev;
      // A cumulative value moving backwards means the source registry was
      // reset (restore, shard replacement); count the post-reset total as
      // the increase, like Prometheus increase().
      if (contribution < 0.0) contribution = sample;
    } else {
      // First sighting: the increase since "before" is unknowable.
      contribution = 0.0;
    }
    channel->prev = sample;
    channel->has_prev = true;
  }
  for (size_t i = 0; i < tiers_.size(); ++i) {
    const TimelineTier& tier = tiers_[i];
    const int64_t epoch = EpochOf(now_nanos, tier.width_seconds);
    Bucket& bucket =
        channel->rings[i][static_cast<size_t>(epoch % tier.slots)];
    if (bucket.epoch != epoch) {
      bucket.epoch = epoch;
      bucket.value = 0.0;
      bucket.min = contribution;
      bucket.max = contribution;
      bucket.samples = 0;
    }
    if (channel->agg == ChannelAgg::kDelta) {
      bucket.value += contribution;
    } else {
      bucket.value = contribution;
    }
    bucket.min = std::min(bucket.min, contribution);
    bucket.max = std::max(bucket.max, contribution);
    ++bucket.samples;
  }
}

void MetricsTimeline::Record(uint64_t now_nanos,
                             const MetricsSnapshot& snapshot) {
  ++records_;
  last_record_nanos_ = now_nanos;
  for (const FamilySnapshot& family : snapshot.families) {
    const int64_t family_id = FindOrCreateFamily(family.name, family.kind);
    for (const SeriesSnapshot& series : family.series) {
      switch (family.kind) {
        case MetricKind::kCounter: {
          Channel* c = FindOrCreateChannel(family_id, "", series.labels,
                                           ChannelAgg::kDelta);
          if (c != nullptr) {
            RecordSample(now_nanos, c,
                         static_cast<double>(series.counter_value));
          }
          break;
        }
        case MetricKind::kGauge: {
          Channel* c = FindOrCreateChannel(family_id, "", series.labels,
                                           ChannelAgg::kGauge);
          if (c != nullptr) RecordSample(now_nanos, c, series.gauge_value);
          break;
        }
        case MetricKind::kHistogram: {
          const HistogramSnapshot& h = series.histogram;
          struct Field {
            const char* name;
            double value;
            ChannelAgg agg;
          };
          const Field fields[] = {
              {"count", static_cast<double>(h.count()), ChannelAgg::kDelta},
              {"sum", h.sum(), ChannelAgg::kDelta},
              {"p50", h.Quantile(0.5), ChannelAgg::kGauge},
              {"p90", h.Quantile(0.9), ChannelAgg::kGauge},
              {"p99", h.Quantile(0.99), ChannelAgg::kGauge},
          };
          for (const Field& field : fields) {
            Channel* c = FindOrCreateChannel(family_id, field.name,
                                             series.labels, field.agg);
            if (c != nullptr) RecordSample(now_nanos, c, field.value);
          }
          break;
        }
      }
    }
  }
}

std::vector<const MetricsTimeline::Channel*> MetricsTimeline::MatchChannels(
    std::string_view metric, std::string_view field) const {
  std::vector<const Channel*> matched;
  if (metric.empty()) return matched;
  for (const Channel& channel : channels_) {
    if (families_[static_cast<size_t>(channel.family)].name != metric) {
      continue;
    }
    if (channel.field != field) continue;
    matched.push_back(&channel);
  }
  return matched;
}

TimelineWindow MetricsTimeline::Query(std::string_view metric,
                                      std::string_view field,
                                      double window_seconds) const {
  TimelineWindow window;
  window.window_seconds = window_seconds > 0.0
                              ? window_seconds
                              : tiers_.front().width_seconds *
                                    static_cast<double>(tiers_.front().slots);
  size_t tier_index = tiers_.size() - 1;
  for (size_t i = 0; i < tiers_.size(); ++i) {
    const double span =
        tiers_[i].width_seconds * static_cast<double>(tiers_[i].slots);
    if (span >= window.window_seconds) {
      tier_index = i;
      break;
    }
  }
  const TimelineTier& tier = tiers_[tier_index];
  window.tier = tier;
  const int64_t epoch_hi = EpochOf(last_record_nanos_, tier.width_seconds);
  const int64_t buckets_wanted = std::min<int64_t>(
      tier.slots,
      static_cast<int64_t>(std::ceil(window.window_seconds /
                                     tier.width_seconds)));
  const int64_t epoch_lo = epoch_hi - buckets_wanted + 1;
  for (const Channel* channel : MatchChannels(metric, field)) {
    TimelineSeries series;
    series.metric = std::string(metric);
    series.field = channel->field;
    series.labels = channel->labels;
    series.agg = channel->agg;
    const std::vector<Bucket>& ring = channel->rings[tier_index];
    for (int64_t epoch = std::max<int64_t>(epoch_lo, 0); epoch <= epoch_hi;
         ++epoch) {
      const Bucket& bucket =
          ring[static_cast<size_t>(epoch % tier.slots)];
      if (bucket.epoch != epoch) continue;
      TimelinePoint point;
      point.start_seconds =
          static_cast<double>(epoch) * tier.width_seconds;
      point.value = bucket.value;
      point.min = bucket.min;
      point.max = bucket.max;
      point.rate = channel->agg == ChannelAgg::kDelta
                       ? bucket.value / tier.width_seconds
                       : 0.0;
      point.samples = bucket.samples;
      series.points.push_back(point);
    }
    window.series.push_back(std::move(series));
  }
  return window;
}

double MetricsTimeline::DeltaOver(std::string_view metric,
                                  std::string_view field,
                                  double window_seconds) const {
  const TimelineTier& tier = tiers_.front();
  const int64_t epoch_hi = EpochOf(last_record_nanos_, tier.width_seconds);
  const int64_t buckets = std::min<int64_t>(
      tier.slots,
      std::max<int64_t>(
          1, static_cast<int64_t>(
                 std::ceil(window_seconds / tier.width_seconds))));
  const int64_t epoch_lo = std::max<int64_t>(epoch_hi - buckets + 1, 0);
  double total = 0.0;
  for (const Channel* channel : MatchChannels(metric, field)) {
    if (channel->agg != ChannelAgg::kDelta) continue;
    const std::vector<Bucket>& ring = channel->rings.front();
    for (int64_t epoch = epoch_lo; epoch <= epoch_hi; ++epoch) {
      const Bucket& bucket =
          ring[static_cast<size_t>(epoch % tier.slots)];
      if (bucket.epoch == epoch) total += bucket.value;
    }
  }
  return total;
}

bool MetricsTimeline::LatestGauge(std::string_view metric,
                                  std::string_view field,
                                  double* out) const {
  double total = 0.0;
  bool any = false;
  for (const Channel* channel : MatchChannels(metric, field)) {
    if (channel->agg != ChannelAgg::kGauge) continue;
    const std::vector<Bucket>& ring = channel->rings.front();
    const Bucket* newest = nullptr;
    for (const Bucket& bucket : ring) {
      if (bucket.epoch < 0) continue;
      if (newest == nullptr || bucket.epoch > newest->epoch) {
        newest = &bucket;
      }
    }
    if (newest != nullptr) {
      total += newest->value;
      any = true;
    }
  }
  if (any) *out = total;
  return any;
}

double MetricsTimeline::BadBucketFraction(std::string_view metric,
                                          std::string_view field,
                                          double window_seconds,
                                          double threshold) const {
  const TimelineTier& tier = tiers_.front();
  const int64_t epoch_hi = EpochOf(last_record_nanos_, tier.width_seconds);
  const int64_t buckets = std::min<int64_t>(
      tier.slots,
      std::max<int64_t>(
          1, static_cast<int64_t>(
                 std::ceil(window_seconds / tier.width_seconds))));
  const int64_t epoch_lo = std::max<int64_t>(epoch_hi - buckets + 1, 0);
  const std::vector<const Channel*> matched = MatchChannels(metric, field);
  int64_t filled = 0;
  int64_t bad = 0;
  for (int64_t epoch = epoch_lo; epoch <= epoch_hi; ++epoch) {
    bool epoch_filled = false;
    bool epoch_bad = false;
    for (const Channel* channel : matched) {
      const Bucket& bucket =
          channel->rings.front()[static_cast<size_t>(epoch % tier.slots)];
      if (bucket.epoch != epoch) continue;
      epoch_filled = true;
      if (bucket.value > threshold) epoch_bad = true;
    }
    if (epoch_filled) {
      ++filled;
      if (epoch_bad) ++bad;
    }
  }
  if (filled == 0) return -1.0;
  return static_cast<double>(bad) / static_cast<double>(filled);
}

std::vector<MetricsTimeline::CatalogEntry> MetricsTimeline::Catalog() const {
  std::vector<CatalogEntry> catalog;
  for (const Channel& channel : channels_) {
    const std::string& name =
        families_[static_cast<size_t>(channel.family)].name;
    CatalogEntry* entry = nullptr;
    for (CatalogEntry& existing : catalog) {
      if (existing.metric == name && existing.field == channel.field) {
        entry = &existing;
        break;
      }
    }
    if (entry == nullptr) {
      catalog.push_back({name, channel.field, channel.agg, 0});
      entry = &catalog.back();
    }
    ++entry->series;
  }
  std::sort(catalog.begin(), catalog.end(),
            [](const CatalogEntry& a, const CatalogEntry& b) {
              return a.metric != b.metric ? a.metric < b.metric
                                          : a.field < b.field;
            });
  return catalog;
}

std::vector<std::pair<std::string, std::string>> ParseQueryParams(
    std::string_view query) {
  std::vector<std::pair<std::string, std::string>> params;
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        params.emplace_back(std::string(pair), std::string());
      } else {
        params.emplace_back(std::string(pair.substr(0, eq)),
                            std::string(pair.substr(eq + 1)));
      }
    }
    pos = amp + 1;
  }
  return params;
}

namespace {

void AppendLabelsJson(const Labels& labels, std::string* out) {
  out->push_back('{');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(util::StrFormat("\"%s\":\"%s\"",
                                EscapeJson(labels[i].key).c_str(),
                                EscapeJson(labels[i].value).c_str()));
  }
  out->push_back('}');
}

}  // namespace

std::string RenderTimezJson(const MetricsTimeline& timeline,
                            std::string_view query) {
  std::string metric;
  std::string field;
  double window_seconds = 60.0;
  for (const auto& [key, value] : ParseQueryParams(query)) {
    if (key == "metric") {
      metric = value;
    } else if (key == "field") {
      field = value;
    } else if (key == "window") {
      double parsed = 0.0;
      if (util::ParseDouble(value, &parsed) && parsed > 0.0) {
        window_seconds = parsed;
      }
    }
  }

  std::string out;
  if (metric.empty()) {
    // Catalog document: what is recorded, at which resolutions.
    out += "{\"tiers\":[";
    for (size_t i = 0; i < timeline.tiers().size(); ++i) {
      const TimelineTier& tier = timeline.tiers()[i];
      if (i > 0) out.push_back(',');
      out += util::StrFormat(
          "{\"width_seconds\":%s,\"slots\":%lld}",
          Num(tier.width_seconds).c_str(),
          static_cast<long long>(tier.slots));
    }
    out += util::StrFormat("],\"records\":%lld,\"dropped_channels\":%lld,",
                           static_cast<long long>(timeline.records()),
                           static_cast<long long>(
                               timeline.dropped_channels()));
    out += "\"channels\":[";
    const auto catalog = timeline.Catalog();
    for (size_t i = 0; i < catalog.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += util::StrFormat(
          "{\"metric\":\"%s\",\"field\":\"%s\",\"agg\":\"%s\","
          "\"series\":%lld}",
          EscapeJson(catalog[i].metric).c_str(),
          EscapeJson(catalog[i].field).c_str(),
          std::string(ChannelAggName(catalog[i].agg)).c_str(),
          static_cast<long long>(catalog[i].series));
    }
    out += "]}";
    return out;
  }

  const TimelineWindow window =
      timeline.Query(metric, field, window_seconds);
  out += util::StrFormat(
      "{\"metric\":\"%s\",\"field\":\"%s\",\"window_seconds\":%s,"
      "\"tier\":{\"width_seconds\":%s,\"slots\":%lld},\"series\":[",
      EscapeJson(metric).c_str(), EscapeJson(field).c_str(),
      Num(window.window_seconds).c_str(),
      Num(window.tier.width_seconds).c_str(),
      static_cast<long long>(window.tier.slots));
  for (size_t i = 0; i < window.series.size(); ++i) {
    const TimelineSeries& series = window.series[i];
    if (i > 0) out.push_back(',');
    out += "{\"labels\":";
    AppendLabelsJson(series.labels, &out);
    out += util::StrFormat(",\"agg\":\"%s\",\"points\":[",
                           std::string(ChannelAggName(series.agg)).c_str());
    for (size_t p = 0; p < series.points.size(); ++p) {
      const TimelinePoint& point = series.points[p];
      if (p > 0) out.push_back(',');
      out += util::StrFormat(
          "{\"t\":%s,\"value\":%s,\"min\":%s,\"max\":%s,\"rate\":%s,"
          "\"samples\":%lld}",
          Num(point.start_seconds).c_str(), Num(point.value).c_str(),
          Num(point.min).c_str(), Num(point.max).c_str(),
          Num(point.rate).c_str(), static_cast<long long>(point.samples));
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace springdtw
