#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "core/subsequence_scan.h"
#include "gen/masked_chirp.h"
#include "gen/signal.h"
#include "gen/warp.h"
#include "monitor/sharded_monitor.h"
#include "ts/series.h"
#include "util/codec.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {

using namespace springdtw;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* const kWorkloads = [] {
    auto* specs = new std::vector<WorkloadSpec>();

    WorkloadSpec chirp;
    chirp.name = "chirp_q64";
    chirp.num_streams = 4;
    chirp.queries_per_stream = 64;
    chirp.m = 256;
    chirp.tape_length = 65536;
    chirp.connections = 1;
    chirp.batch_ticks = 256;
    chirp.batches_per_window = 1;
    chirp.checked_queries_per_stream = 3;
    specs->push_back(chirp);

    WorkloadSpec fleet;
    fleet.name = "fleet_ingest";
    fleet.num_streams = 64;
    fleet.queries_per_stream = 1;
    fleet.m = 16;
    fleet.tape_length = 16384;
    fleet.connections = 4;
    fleet.batch_ticks = 256;
    fleet.batches_per_window = 2;
    fleet.wal = true;
    fleet.observability = true;
    fleet.check_planted = true;
    specs->push_back(fleet);

    WorkloadSpec alert;
    alert.name = "alert_latency";
    alert.num_streams = 16;
    alert.queries_per_stream = 4;
    alert.m = 64;
    alert.tape_length = 65536;
    alert.connections = 1;
    alert.rate_ticks_per_s = 100000.0;
    alert.batch_period_ms = 1.0;
    alert.check_planted = true;
    specs->push_back(alert);
    return specs;
  }();
  return *kWorkloads;
}

util::StatusOr<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return spec;
  }
  return util::InvalidArgumentError("unknown workload: " + name);
}

void Inputs::Fill(int64_t s, int64_t pos, std::span<double> out) const {
  const std::vector<double>& tape = streams[static_cast<size_t>(s)].tape;
  const int64_t length = static_cast<int64_t>(tape.size());
  int64_t at = pos % length;
  for (double& value : out) {
    value = tape[static_cast<size_t>(at)];
    if (++at == length) at = 0;
  }
}

namespace {

/// Picks `count` stream names "<prefix>-<k>" so each worker of a
/// kWorkers-worker monitor owns count / kWorkers of them, in stream order
/// alternating between workers.
std::vector<std::string> BalancedStreamNames(const std::string& prefix,
                                             int64_t count) {
  SPRINGDTW_CHECK_EQ(count % kWorkers, 0);
  monitor::ShardedMonitorOptions options;
  options.num_workers = kWorkers;
  monitor::ShardedMonitor probe(options);
  std::vector<std::vector<std::string>> per_worker(kWorkers);
  const size_t quota = static_cast<size_t>(count / kWorkers);
  for (int64_t k = 0;; ++k) {
    std::string name = util::StrFormat("%s-%lld", prefix.c_str(),
                                       static_cast<long long>(k));
    const int64_t id = probe.AddStream(name);
    auto& bucket = per_worker[static_cast<size_t>(probe.worker_of_stream(id))];
    if (bucket.size() < quota) bucket.push_back(std::move(name));
    bool full = true;
    for (const auto& b : per_worker) full = full && b.size() == quota;
    if (full) break;
  }
  std::vector<std::string> names;
  for (size_t i = 0; i < quota; ++i) {
    for (const auto& bucket : per_worker) names.push_back(bucket[i]);
  }
  return names;
}

std::vector<double> WavePacket(int64_t length, double period, double phase) {
  std::vector<double> values = gen::Sine(length, period, 1.0, phase);
  gen::MultiplyInPlace(values, gen::HannWindow(length));
  return values;
}

// chirp_q64: MaskedChirp tapes (paper Section 5.1); every stream carries the
// same 64 sine-packet queries with periods spread over the episode range,
// each thresholded on a clean episode of its own period.
void MakeChirp(util::Rng& root, Inputs* in) {
  const WorkloadSpec& spec = in->spec;
  constexpr double kMinPeriod = 150.0;
  constexpr double kMaxPeriod = 450.0;
  constexpr double kNoise = 0.05;
  for (int64_t s = 0; s < spec.num_streams; ++s) {
    gen::MaskedChirpOptions options;
    options.length = spec.tape_length;
    options.num_episodes = spec.tape_length / 8192;
    options.min_period = kMinPeriod;
    options.max_period = kMaxPeriod;
    options.noise_sigma = kNoise;
    options.seed = root.Fork(100 + static_cast<uint64_t>(s)).NextUint64();
    // The generator's own query is not used; the shortest one is cheapest.
    gen::MaskedChirpData data =
        gen::GenerateMaskedChirp(options, /*query_length=*/2);
    in->streams[static_cast<size_t>(s)].tape =
        std::move(data.stream.values());
  }
  std::vector<std::vector<double>> templates;
  std::vector<double> epsilons;
  for (int64_t k = 0; k < spec.queries_per_stream; ++k) {
    const double period =
        kMinPeriod + (kMaxPeriod - kMinPeriod) * static_cast<double>(k) /
                         static_cast<double>(spec.queries_per_stream - 1);
    util::Rng rng = root.Fork(200 + static_cast<uint64_t>(k));
    std::vector<double> query = WavePacket(spec.m, period, 0.0);
    gen::AddGaussianNoise(rng, query, kNoise);
    std::vector<double> episode = WavePacket(3000, period, 0.0);
    gen::AddGaussianNoise(rng, episode, kNoise);
    epsilons.push_back(core::CalibrateEpsilon(ts::Series(std::move(episode)),
                                              ts::Series(query), {{0, 2999}},
                                              /*slack=*/1.1));
    templates.push_back(std::move(query));
  }
  for (int64_t s = 0; s < spec.num_streams; ++s) {
    for (int64_t k = 0; k < spec.queries_per_stream; ++k) {
      in->queries.push_back(
          QueryInput{s, util::StrFormat("period-%lld", static_cast<long long>(k)),
                     templates[static_cast<size_t>(k)],
                     epsilons[static_cast<size_t>(k)]});
    }
  }
}

// fleet_ingest: random-walk tapes with one short random-walk query each;
// four exact copies of the query per tape cycle are the only matches under
// the tiny threshold.
void MakeFleet(util::Rng& root, Inputs* in) {
  const WorkloadSpec& spec = in->spec;
  constexpr int64_t kCopiesPerCycle = 4;
  const int64_t slot = spec.tape_length / kCopiesPerCycle;
  for (int64_t s = 0; s < spec.num_streams; ++s) {
    util::Rng rng = root.Fork(300 + static_cast<uint64_t>(s));
    std::vector<double> query =
        gen::RandomWalk(rng, spec.m, rng.Uniform(-5.0, 5.0), 1.0);
    StreamInput& stream = in->streams[static_cast<size_t>(s)];
    stream.tape = gen::RandomWalk(rng, spec.tape_length, 0.0, 1.0);
    for (int64_t c = 0; c < kCopiesPerCycle; ++c) {
      const int64_t start =
          c * slot + rng.UniformInt(spec.m, slot - 3 * spec.m);
      std::copy(query.begin(), query.end(),
                stream.tape.begin() + static_cast<std::ptrdiff_t>(start));
      stream.planted.push_back(Planted{start, spec.m, s});
    }
    in->queries.push_back(QueryInput{s, "walk", std::move(query), 1e-6});
  }
}

// alert_latency: quiet noise tapes; about every 500 ticks a time-warped
// instance of one of the stream's four wave-packet queries is planted.
void MakeAlert(util::Rng& root, Inputs* in) {
  const WorkloadSpec& spec = in->spec;
  constexpr double kNoise = 0.05;
  for (int64_t s = 0; s < spec.num_streams; ++s) {
    util::Rng rng = root.Fork(400 + static_cast<uint64_t>(s));
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(s) /
                         static_cast<double>(spec.num_streams);
    std::vector<std::vector<double>> queries;
    for (int64_t j = 0; j < spec.queries_per_stream; ++j) {
      queries.push_back(WavePacket(
          spec.m, static_cast<double>(spec.m) / static_cast<double>(j + 1),
          phase));
    }
    StreamInput& stream = in->streams[static_cast<size_t>(s)];
    stream.tape = gen::GaussianNoise(rng, spec.tape_length, kNoise);
    int64_t start = rng.UniformInt(100, 500);
    while (true) {
      const int64_t j = rng.UniformInt(0, spec.queries_per_stream - 1);
      std::vector<double> instance = gen::RandomlyWarp(
          rng, queries[static_cast<size_t>(j)], /*num_knots=*/3,
          /*max_stretch=*/0.3);
      const int64_t length = static_cast<int64_t>(instance.size());
      if (start + length + spec.m >= spec.tape_length) break;
      for (int64_t t = 0; t < length; ++t) {
        stream.tape[static_cast<size_t>(start + t)] +=
            instance[static_cast<size_t>(t)];
      }
      stream.planted.push_back(
          Planted{start, length, s * spec.queries_per_stream + j});
      start += length + rng.UniformInt(350, 550);
    }
    const ts::Series tape(stream.tape);
    for (int64_t j = 0; j < spec.queries_per_stream; ++j) {
      std::vector<std::pair<int64_t, int64_t>> regions;
      for (const Planted& p : stream.planted) {
        if (p.query == s * spec.queries_per_stream + j) {
          regions.emplace_back(p.start, p.start + p.length - 1);
        }
      }
      SPRINGDTW_CHECK(!regions.empty());
      const double epsilon = core::CalibrateEpsilon(
          tape, ts::Series(queries[static_cast<size_t>(j)]), regions,
          /*slack=*/1.5);
      in->queries.push_back(
          QueryInput{s, util::StrFormat("cycles-%lld", static_cast<long long>(j + 1)),
                     std::move(queries[static_cast<size_t>(j)]), epsilon});
    }
  }
}

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.spec = spec;
  in.seed = seed;
  in.streams.resize(static_cast<size_t>(spec.num_streams));
  const std::vector<std::string> names =
      BalancedStreamNames(spec.name.substr(0, spec.name.find('_')),
                          spec.num_streams);
  for (size_t s = 0; s < names.size(); ++s) in.streams[s].name = names[s];
  util::Rng root(seed);
  if (spec.name == "chirp_q64") {
    MakeChirp(root, &in);
  } else if (spec.name == "fleet_ingest") {
    MakeFleet(root, &in);
  } else {
    MakeAlert(root, &in);
  }
  SPRINGDTW_CHECK_EQ(static_cast<int64_t>(in.queries.size()),
                     spec.num_queries());
  return in;
}

std::vector<uint8_t> SerializeInputs(const Inputs& inputs) {
  util::ByteWriter writer;
  writer.WriteString(inputs.spec.name);
  writer.WriteU64(inputs.seed);
  for (const StreamInput& stream : inputs.streams) {
    writer.WriteString(stream.name);
    writer.WriteDoubleVector(stream.tape);
    for (const Planted& p : stream.planted) {
      writer.WriteI64(p.start);
      writer.WriteI64(p.length);
      writer.WriteI64(p.query);
    }
  }
  for (const QueryInput& query : inputs.queries) {
    writer.WriteI64(query.stream);
    writer.WriteString(query.name);
    writer.WriteDoubleVector(query.values);
    writer.WriteDouble(query.epsilon);
  }
  return writer.buffer();
}

}  // namespace perfbench
