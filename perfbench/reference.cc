#include "reference.h"

#include <algorithm>
#include <bit>
#include <thread>
#include <tuple>

#include "core/spring.h"
#include "util/string_util.h"

namespace perfbench {

using springdtw::core::Match;

namespace {

auto Key(const Match& m) {
  return std::make_tuple(m.start, m.end, m.report_time,
                         std::bit_cast<uint64_t>(m.distance));
}

std::vector<Match> Reference(const Inputs& inputs, int64_t query,
                             int64_t ticks) {
  const QueryInput& q = inputs.queries[static_cast<size_t>(query)];
  springdtw::core::SpringOptions options;
  options.epsilon = q.epsilon;
  springdtw::core::SpringMatcher matcher(q.values, options);
  std::vector<Match> out;
  std::vector<double> chunk(4096);
  for (int64_t pos = 0; pos < ticks;) {
    const int64_t n = std::min<int64_t>(ticks - pos, 4096);
    inputs.Fill(q.stream, pos, std::span<double>(chunk.data(), static_cast<size_t>(n)));
    for (int64_t i = 0; i < n; ++i) {
      Match match;
      if (matcher.Update(chunk[static_cast<size_t>(i)], &match)) {
        out.push_back(match);
      }
    }
    pos += n;
  }
  return out;
}

}  // namespace

std::vector<int64_t> CheckedQueries(const Inputs& inputs) {
  const WorkloadSpec& spec = inputs.spec;
  std::vector<int64_t> queries;
  const int64_t per_stream = spec.checked_queries_per_stream < 0
                                 ? spec.queries_per_stream
                                 : spec.checked_queries_per_stream;
  for (int64_t s = 0; s < spec.num_streams; ++s) {
    for (int64_t k = 0; k < per_stream; ++k) {
      // Evenly spread over the stream's queries, always including the
      // first and the last.
      const int64_t local =
          per_stream == 1 ? 0
                          : k * (spec.queries_per_stream - 1) / (per_stream - 1);
      queries.push_back(s * spec.queries_per_stream + local);
    }
  }
  return queries;
}

CheckReport CheckOutputs(const Inputs& inputs,
                         std::span<const int64_t> ticks_sent,
                         const std::vector<DeliveredMatch>& delivered) {
  const std::vector<int64_t> checked = CheckedQueries(inputs);
  std::vector<std::vector<Match>> expected(checked.size());
  {
    std::thread helper([&] {
      for (size_t i = 1; i < checked.size(); i += 2) {
        const int64_t q = checked[i];
        expected[i] = Reference(inputs, q, ticks_sent[static_cast<size_t>(
                                               inputs.queries[static_cast<size_t>(q)].stream)]);
      }
    });
    for (size_t i = 0; i < checked.size(); i += 2) {
      const int64_t q = checked[i];
      expected[i] = Reference(
          inputs, q,
          ticks_sent[static_cast<size_t>(inputs.queries[static_cast<size_t>(q)].stream)]);
    }
    helper.join();
  }

  std::vector<std::vector<Match>> got(inputs.queries.size());
  for (const DeliveredMatch& d : delivered) {
    got[static_cast<size_t>(d.query)].push_back(d.match);
  }

  CheckReport report;
  report.checked_queries = static_cast<int64_t>(checked.size());
  auto note = [&report](std::string text) {
    if (report.problems.size() < 8) report.problems.push_back(std::move(text));
  };
  for (size_t i = 0; i < checked.size(); ++i) {
    const int64_t q = checked[i];
    std::vector<Match> want = expected[i];
    std::vector<Match> have = got[static_cast<size_t>(q)];
    report.expected_matches += static_cast<int64_t>(want.size());
    const auto less = [](const Match& a, const Match& b) { return Key(a) < Key(b); };
    std::sort(want.begin(), want.end(), less);
    std::sort(have.begin(), have.end(), less);
    std::vector<Match> diff;
    std::set_difference(want.begin(), want.end(), have.begin(), have.end(),
                        std::back_inserter(diff), less);
    for (const Match& m : diff) {
      note("query " + inputs.queries[static_cast<size_t>(q)].name + " missing " +
           m.ToString());
    }
    report.missing += static_cast<int64_t>(diff.size());
    diff.clear();
    std::set_difference(have.begin(), have.end(), want.begin(), want.end(),
                        std::back_inserter(diff), less);
    for (const Match& m : diff) {
      note("query " + inputs.queries[static_cast<size_t>(q)].name + " extra " +
           m.ToString());
    }
    report.extra += static_cast<int64_t>(diff.size());
  }

  if (inputs.spec.check_planted) {
    // A planted episode that ended 4m ticks before the stream stopped must
    // have been reported: no false dismissals.
    for (size_t s = 0; s < inputs.streams.size(); ++s) {
      const StreamInput& stream = inputs.streams[s];
      const int64_t cycle = static_cast<int64_t>(stream.tape.size());
      for (int64_t base = 0; base < ticks_sent[s]; base += cycle) {
        for (const Planted& p : stream.planted) {
          const int64_t start = base + p.start;
          const int64_t end = start + p.length - 1;
          if (end + 4 * inputs.spec.m >= ticks_sent[s]) continue;
          ++report.planted_checked;
          const auto& have = got[static_cast<size_t>(p.query)];
          const bool found = std::any_of(have.begin(), have.end(), [&](const Match& m) {
            return m.start <= end && start <= m.end;
          });
          if (!found) {
            ++report.planted_missed;
            note(springdtw::util::StrFormat(
                "stream %s: planted episode [%lld, %lld] of query %s not detected",
                stream.name.c_str(), static_cast<long long>(start),
                static_cast<long long>(end),
                inputs.queries[static_cast<size_t>(p.query)].name.c_str()));
          }
        }
      }
    }
  }
  return report;
}

}  // namespace perfbench
