// springdtw_feed: replay a stored series into a running springdtw_serve.
//
//   springdtw_feed --port=PORT [--host=127.0.0.1]
//       --stream=FILE [--stream_name=stream] [--resume]
//       [--query=FILE --epsilon=EPS [--query_name=query]
//        [--distance=squared|absolute] [--max_length=0] [--min_length=0]]
//       [--rate=0] [--batch=256] [--subscribe] [--checkpoint]
//       [--remove_query] [--list]
//   springdtw_feed --replay_wal=DIR [--dump]
//
// Files may be CSV (one value per line, "nan" = missing) or binary .sdtw.
// The feeder opens (or joins, by name) the stream, optionally registers a
// query, optionally subscribes to match fan-out, then replays the series
// in --batch-value TICK_BATCH frames, paced to --rate ticks/second (0 =
// full speed). It finishes with a DRAIN barrier, so every match the
// replay caused has been printed before exit:
//
//   MATCH stream=<name> query=<name> start=<s> end=<e> dist=<d> report=<t>
//
// A match produced by a tick additionally carries " seq=<n>", the tick's
// global sequence number (flush matches have none) — the (seq, query) pair
// is the stable identity consumers dedup re-deliveries by after a crash
// recovery (docs/DURABILITY.md).
//
// --resume skips the prefix of --stream the server already holds (the
// STREAM_OPENED tick count), so re-running the same feed against a
// recovered server continues the series instead of re-ingesting it.
//
// --checkpoint requests a server-side checkpoint after the drain.
// --remove_query retires the query after the drain (printing any match the
// removal flushed); --list prints the server's live query table with its
// per-query cost columns (DTW cells, last match seq, estimated CPU nanos).
//
// --replay_wal=DIR is an offline mode: no server, no --stream. It restores
// DIR/checkpoint.ckpt (if present) to learn the covered sequence range,
// scans DIR's write-ahead log exactly as server recovery would, and prints
// one "WAL ..." summary line — replayable records/values, torn-tail flag,
// delivery watermark. --dump additionally prints every replayable tick as
// "WAL_TICK seq=<n> stream=<id> value=<v>" for diffing against the
// original series.

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "monitor/sharded_monitor.h"
#include "net/client.h"
#include "ts/binary_io.h"
#include "ts/csv.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "wal/env.h"
#include "wal/wal.h"

namespace {

using namespace springdtw;

util::StatusOr<ts::Series> LoadSeries(const std::string& path) {
  if (path.size() > 5 && path.substr(path.size() - 5) == ".sdtw") {
    return ts::ReadSeriesBinary(path);
  }
  return ts::ReadSeriesCsv(path);
}

void PrintMatch(const net::MatchEventPayload& event) {
  std::printf(
      "MATCH stream=%s query=%s start=%lld end=%lld dist=%.17g report=%lld",
      event.stream_name.c_str(), event.query_name.c_str(),
      static_cast<long long>(event.match.start),
      static_cast<long long>(event.match.end), event.match.distance,
      static_cast<long long>(event.match.report_time));
  if (event.match_seq >= 0) {
    std::printf(" seq=%lld", static_cast<long long>(event.match_seq));
  }
  std::printf("\n");
  std::fflush(stdout);
}

int Fail(const char* what, const util::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

/// --replay_wal: offline scan of a WAL directory, printed for humans and
/// for byte-level diffing (--dump) against the originally fed series.
int ReplayWal(const std::string& dir, bool dump) {
  wal::Env* const env = wal::Env::Default();
  uint64_t start_seq = 0;
  const std::string checkpoint_path = dir + "/checkpoint.ckpt";
  std::ifstream probe(checkpoint_path, std::ios::binary);
  if (probe.good()) {
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(probe)),
                               std::istreambuf_iterator<char>());
    if (probe.bad()) {
      return Fail("checkpoint read", util::IoError(checkpoint_path));
    }
    // Restore into a throwaway monitor purely to learn where the
    // checkpoint's coverage ends; checkpoints are reshard-safe, so one
    // worker always suffices.
    monitor::ShardedMonitorOptions options;
    options.num_workers = 1;
    monitor::ShardedMonitor monitor(options);
    const util::Status restored = monitor.RestoreState(bytes);
    if (!restored.ok()) return Fail("checkpoint restore", restored);
    start_seq = monitor.next_seq();
  }
  auto recovered = wal::RecoverWal(env, dir, start_seq);
  if (!recovered.ok()) return Fail("WAL scan", recovered.status());
  std::printf(
      "WAL dir=%s start_seq=%llu chunks=%zu values=%lld "
      "records_replayed=%lld records_scanned=%lld segments=%lld "
      "torn_tail=%d",
      dir.c_str(), static_cast<unsigned long long>(start_seq),
      recovered->chunks.size(), static_cast<long long>(recovered->values),
      static_cast<long long>(recovered->records_replayed),
      static_cast<long long>(recovered->records_scanned),
      static_cast<long long>(recovered->segments),
      recovered->torn_tail ? 1 : 0);
  if (recovered->has_watermark) {
    std::printf(" watermark_seq=%llu watermark_query=%lld",
                static_cast<unsigned long long>(recovered->watermark_seq),
                static_cast<long long>(recovered->watermark_query_id));
  }
  std::printf("\n");
  if (dump) {
    for (const auto& chunk : recovered->chunks) {
      uint64_t seq = chunk.seq0;
      for (const double value : chunk.values) {
        std::printf("WAL_TICK seq=%llu stream=%lld value=%.17g\n",
                    static_cast<unsigned long long>(seq++),
                    static_cast<long long>(chunk.stream_id), value);
      }
    }
  }
  std::fflush(stdout);
  return 0;
}

int Run(int argc, char** argv) {
  // Every accepted flag is read here, before anything connects, so a typo
  // or a retired flag fails loudly instead of being ignored.
  util::FlagParser flags(argc, argv);
  const std::string replay_wal = flags.GetString("replay_wal", "");
  const bool dump = flags.GetBool("dump", false);
  const std::string stream_path = flags.GetString("stream", "");
  const std::string stream_name = flags.GetString("stream_name", "stream");
  const std::string query_path = flags.GetString("query", "");
  const std::string query_name = flags.GetString("query_name", "query");
  core::SpringOptions options;
  options.epsilon = flags.GetDouble("epsilon", 0.0);
  options.local_distance =
      flags.GetString("distance", "squared") == "absolute"
          ? dtw::LocalDistance::kAbsolute
          : dtw::LocalDistance::kSquared;
  options.max_match_length = flags.GetInt64("max_length", 0);
  options.min_match_length = flags.GetInt64("min_length", 0);
  net::StreamClientOptions client_options;
  client_options.host = flags.GetString("host", "127.0.0.1");
  client_options.port = static_cast<int>(flags.GetInt64("port", 0));
  client_options.peer_name = "springdtw_feed";
  const bool subscribe = flags.GetBool("subscribe", false);
  const double rate = flags.GetDouble("rate", 0.0);
  const int64_t batch = std::max<int64_t>(1, flags.GetInt64("batch", 256));
  const bool resume = flags.GetBool("resume", false);
  const bool checkpoint = flags.GetBool("checkpoint", false);
  const bool remove_query = flags.GetBool("remove_query", false);
  const bool list = flags.GetBool("list", false);
  const std::vector<std::string> flag_errors = flags.Errors();
  for (const std::string& error : flag_errors) {
    std::fprintf(stderr, "springdtw_feed: %s\n", error.c_str());
  }
  if (!flag_errors.empty()) return 2;

  if (!replay_wal.empty()) return ReplayWal(replay_wal, dump);
  if (stream_path.empty()) {
    std::fprintf(stderr, "--stream is required\n");
    return 1;
  }
  auto series = LoadSeries(stream_path);
  if (!series.ok()) return Fail("load stream", series.status());
  net::StreamClient client(client_options);

  int64_t matches = 0;
  client.SetMatchCallback([&matches](const net::MatchEventPayload& event) {
    ++matches;
    PrintMatch(event);
  });

  util::Status status = client.Connect();
  if (!status.ok()) return Fail("connect", status);

  auto stream_id = client.OpenStream(stream_name);
  if (!stream_id.ok()) return Fail("open stream", stream_id.status());

  int64_t query_id = -1;
  if (!query_path.empty()) {
    auto query = LoadSeries(query_path);
    if (!query.ok()) return Fail("load query", query.status());
    auto added =
        client.AddQuery(*stream_id, query_name, query->values(), options);
    if (!added.ok()) return Fail("add query", added.status());
    query_id = *added;
  }

  if (subscribe) {
    status = client.SubscribeMatches();
    if (!status.ok()) return Fail("subscribe", status);
  }

  const std::vector<double>& values = series->values();
  const int64_t start_nanos = util::Stopwatch::NowNanos();
  int64_t sent = 0;
  if (resume) {
    // The server already holds this many ticks of the stream: skip that
    // prefix so the combined ingest is the series exactly once.
    const int64_t held = std::max<int64_t>(0, client.last_stream_ticks());
    sent = std::min<int64_t>(held, static_cast<int64_t>(values.size()));
    std::printf("RESUME skipped=%lld\n", static_cast<long long>(sent));
  }
  while (sent < static_cast<int64_t>(values.size())) {
    const int64_t count = std::min<int64_t>(
        batch, static_cast<int64_t>(values.size()) - sent);
    status = client.TickBatch(
        *stream_id, std::span<const double>(values)
                        .subspan(static_cast<size_t>(sent),
                                 static_cast<size_t>(count)));
    if (!status.ok()) return Fail("tick", status);
    sent += count;
    if (rate > 0) {
      // Paced feeding is about what the SERVER sees per second, so force
      // the client's pipelining buffer (tick_flush_bytes) onto the wire
      // each batch — otherwise a sub-64KB replay arrives as one burst at
      // the final drain and the server's rate metrics read zero all feed.
      status = client.Flush();
      if (!status.ok()) return Fail("flush", status);
      // Pace against the wall clock: sleep until `sent` ticks worth of
      // time has elapsed.
      const double due_nanos = static_cast<double>(sent) / rate * 1e9;
      while (static_cast<double>(util::Stopwatch::NowNanos() - start_nanos) <
             due_nanos) {
        timespec ts{0, 1 * 1000 * 1000};
        nanosleep(&ts, nullptr);
      }
    }
  }

  auto drained = client.Drain();
  if (!drained.ok()) return Fail("drain", drained.status());

  if (checkpoint) {
    auto bytes = client.Checkpoint();
    if (!bytes.ok()) return Fail("checkpoint", bytes.status());
    std::printf("CHECKPOINT_BYTES=%llu\n",
                static_cast<unsigned long long>(*bytes));
  }

  if (remove_query && query_id >= 0) {
    auto flushed = client.RemoveQuery(query_id);
    if (!flushed.ok()) return Fail("remove query", flushed.status());
    std::printf("REMOVED query=%lld flushed=%lld\n",
                static_cast<long long>(query_id),
                static_cast<long long>(*flushed));
  }

  if (list) {
    auto entries = client.ListQueries();
    if (!entries.ok()) return Fail("list queries", entries.status());
    for (const auto& entry : *entries) {
      std::printf(
          "QUERY id=%lld stream=%s name=%s ticks=%lld matches=%lld "
          "cells=%lld last_match_seq=%lld est_cpu_nanos=%lld\n",
          static_cast<long long>(entry.query_id), entry.stream_name.c_str(),
          entry.name.c_str(), static_cast<long long>(entry.ticks),
          static_cast<long long>(entry.matches),
          static_cast<long long>(entry.cells),
          static_cast<long long>(entry.last_match_seq),
          static_cast<long long>(entry.est_cpu_nanos));
    }
  }

  std::printf("FED ticks=%lld matches=%lld\n", static_cast<long long>(sent),
              static_cast<long long>(matches));
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
