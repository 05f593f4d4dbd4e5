// Writes valid snapshot/checkpoint seed inputs for fuzz_checkpoint into the
// directory given as argv[1], and — when argv[2] is given — valid wire
// frames for fuzz_net_frame into that directory. Run as a ctest fixture so
// the smoke replays always exercise the parse-succeeds path (the committed
// corpora cover the reject paths with handcrafted corrupt files, which stay
// valid even if a format rolls its version).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/spring.h"
#include "core/vector_spring.h"
#include "monitor/engine.h"
#include "net/protocol.h"
#include "ts/vector_series.h"
#include "wal/record.h"

namespace {

bool WriteFile(const std::filesystem::path& path,
               const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

}  // namespace

namespace {

// One frame per wire payload type the server or client actually parses,
// plus a multi-frame stream, so the cut loop's happy path is always in the
// replayed corpus.
bool WriteNetFrameCorpus(const std::filesystem::path& dir) {
  namespace net = springdtw::net;
  bool ok = true;
  auto write_frame = [&](const char* name, net::FrameType type,
                         const auto& payload) {
    std::vector<uint8_t> wire;
    net::AppendPayloadFrame(type, payload, &wire);
    ok = WriteFile(dir / name, wire) && ok;
    return wire;
  };

  net::HelloPayload hello;
  hello.peer_name = "fuzz";
  const std::vector<uint8_t> hello_wire =
      write_frame("hello.bin", net::FrameType::kHello, hello);

  net::OpenStreamPayload open_stream;
  open_stream.request_id = 1;
  open_stream.name = "s0";
  write_frame("open_stream.bin", net::FrameType::kOpenStream, open_stream);

  net::StreamOpenedPayload stream_opened;
  stream_opened.request_id = 1;
  stream_opened.ticks = 4096;
  write_frame("stream_opened.bin", net::FrameType::kStreamOpened,
              stream_opened);

  net::AddQueryPayload add_query;
  add_query.request_id = 2;
  add_query.stream_id = 0;
  add_query.name = "q";
  add_query.values = {1.0, 2.0, 3.0};
  add_query.epsilon = 0.5;
  add_query.local_distance = 0;
  const std::vector<uint8_t> add_query_wire =
      write_frame("add_query.bin", net::FrameType::kAddQuery, add_query);

  net::TickBatchPayload batch;
  batch.stream_id = 0;
  batch.values = {0.0, 1.0, 2.0, 3.0, 2.0, 1.0};
  batch.send_nanos = 987654321;
  const std::vector<uint8_t> batch_wire =
      write_frame("tick_batch.bin", net::FrameType::kTickBatch, batch);

  net::MatchEventPayload event;
  event.delivery_seq = 7;
  event.stream_name = "s0";
  event.query_name = "q";
  event.match.start = 3;
  event.match.end = 7;
  event.match.report_time = 8;
  event.match_seq = 8;
  write_frame("match_event.bin", net::FrameType::kMatchEvent, event);

  net::ListQueriesPayload list_queries;
  list_queries.request_id = 3;
  const std::vector<uint8_t> list_queries_wire = write_frame(
      "list_queries.bin", net::FrameType::kListQueries, list_queries);

  net::QueryListPayload list;
  list.request_id = 3;
  net::QueryListPayload::Entry entry;
  entry.name = "q";
  entry.stream_name = "s0";
  entry.ticks = 6;
  entry.cells = 4096;
  entry.last_match_seq = 11;
  entry.est_cpu_nanos = 250000;
  list.entries.push_back(entry);
  write_frame("query_list.bin", net::FrameType::kQueryList, list);

  write_frame("error.bin", net::FrameType::kError,
              net::MakeErrorPayload(
                  4, springdtw::util::NotFoundError("no such query")));

  // A realistic session prefix: HELLO, ADD_QUERY, TICK_BATCH and
  // LIST_QUERIES back to back.
  std::vector<uint8_t> session = hello_wire;
  session.insert(session.end(), add_query_wire.begin(), add_query_wire.end());
  session.insert(session.end(), batch_wire.begin(), batch_wire.end());
  session.insert(session.end(), list_queries_wire.begin(),
                 list_queries_wire.end());
  ok = WriteFile(dir / "session.bin", session) && ok;
  return ok;
}

// Valid WAL segment shapes for fuzz_wal: what a healthy shard leaves on
// disk (header + tick runs), a marks file, and a mixed multi-record
// segment. The committed corpus/wal covers the torn/hostile shapes.
bool WriteWalCorpus(const std::filesystem::path& dir) {
  namespace wal = springdtw::wal;
  bool ok = true;

  std::vector<uint8_t> segment;
  wal::SegmentHeader header;
  header.shard = 0;
  header.index = 3;
  wal::AppendRecord(wal::RecordType::kSegmentHeader, header.Encode(),
                    &segment);
  ok = WriteFile(dir / "header_only.bin", segment) && ok;

  wal::TicksRecord ticks;
  ticks.seq0 = 0;
  ticks.stream_id = 0;
  ticks.values = {1.0, 2.5, -3.0};
  wal::AppendRecord(wal::RecordType::kTicks, ticks.Encode(), &segment);
  wal::TicksRecord more;
  more.seq0 = 3;
  more.stream_id = 1;
  more.values.assign(64, 0.25);
  wal::AppendRecord(wal::RecordType::kTicks, more.Encode(), &segment);
  ok = WriteFile(dir / "segment_ticks.bin", segment) && ok;

  std::vector<uint8_t> marks;
  wal::SegmentHeader marks_header;
  marks_header.shard = static_cast<uint64_t>(-1);
  marks_header.index = 4;
  wal::AppendRecord(wal::RecordType::kSegmentHeader, marks_header.Encode(),
                    &marks);
  wal::DeliveryMark mark;
  mark.seq = 66;
  mark.query_id = 2;
  wal::AppendRecord(wal::RecordType::kDeliveryMark, mark.Encode(), &marks);
  ok = WriteFile(dir / "marks.bin", marks) && ok;

  // A mixed segment with a mark interleaved (scanner must not assume
  // record-type ordering) and a NaN tick value.
  std::vector<uint8_t> mixed = segment;
  wal::AppendRecord(wal::RecordType::kDeliveryMark, mark.Encode(), &mixed);
  wal::TicksRecord weird;
  weird.seq0 = 67;
  weird.stream_id = 0;
  weird.values = {std::numeric_limits<double>::quiet_NaN(), 0.0};
  wal::AppendRecord(wal::RecordType::kTicks, weird.Encode(), &mixed);
  ok = WriteFile(dir / "mixed.bin", mixed) && ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 4) {
    std::fprintf(stderr,
                 "usage: %s <checkpoint-dir> [net-frame-dir] [wal-dir]\n",
                 argv[0]);
    return 2;
  }
  const std::filesystem::path dir(argv[1]);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  using springdtw::core::Match;
  using springdtw::core::SpringMatcher;
  using springdtw::core::SpringOptions;
  using springdtw::core::VectorSpringMatcher;

  bool ok = true;
  Match match;

  // Scalar matcher: fresh, mid-stream, and with a pending candidate.
  {
    SpringOptions options;
    options.epsilon = 2.0;
    SpringMatcher matcher({1.0, 2.0, 3.0}, options);
    ok = WriteFile(dir / "scalar_fresh.bin", matcher.SerializeState()) && ok;
    for (const double x : {5.0, 1.1, 2.0, 2.9, 5.0, 6.0}) {
      matcher.Update(x, &match);
    }
    ok = WriteFile(dir / "scalar_mid.bin", matcher.SerializeState()) && ok;
  }
  {
    SpringOptions options;
    options.epsilon = 0.5;
    SpringMatcher matcher({1.0, 2.0}, options);
    for (const double x : {9.0, 1.0, 2.0}) matcher.Update(x, &match);
    ok = WriteFile(dir / "scalar_candidate.bin", matcher.SerializeState()) &&
         ok;
  }

  // Vector matcher, 2-dimensional.
  {
    springdtw::ts::VectorSeries query(2, "q");
    query.AppendRow(std::vector<double>{0.0, 1.0});
    query.AppendRow(std::vector<double>{1.0, 0.0});
    SpringOptions options;
    options.epsilon = 1.0;
    VectorSpringMatcher matcher(std::move(query), options);
    for (int t = 0; t < 5; ++t) {
      const std::vector<double> row = {0.1 * t, 1.0 - 0.1 * t};
      matcher.Update(row, &match);
    }
    ok = WriteFile(dir / "vector_mid.bin", matcher.SerializeState()) && ok;
  }

  // Engine checkpoint: two scalar streams, one vector stream, mixed queries.
  {
    springdtw::monitor::MonitorEngine engine;
    const int64_t s0 = engine.AddStream("cpu");
    const int64_t s1 = engine.AddStream("temp", /*repair_missing=*/false);
    SpringOptions options;
    options.epsilon = 4.0;
    (void)engine.AddQuery(s0, "spike", {0.0, 1.0, 0.0}, options);
    (void)engine.AddQuery(s1, "ramp", {1.0, 2.0, 3.0, 4.0}, options);
    springdtw::ts::VectorSeries query(2, "diag");
    query.AppendRow(std::vector<double>{0.0, 0.0});
    query.AppendRow(std::vector<double>{1.0, 1.0});
    const int64_t v0 = engine.AddVectorStream("gyro", 2);
    (void)engine.AddVectorQuery(v0, "diag", std::move(query), options);
    for (int t = 0; t < 12; ++t) {
      (void)engine.Push(s0, 0.5 * t);
      (void)engine.Push(s1, 12.0 - t);
      const std::vector<double> row = {0.25 * t, 0.25 * t};
      (void)engine.PushRow(v0, row);
    }
    ok = WriteFile(dir / "engine_mixed.bin", engine.SerializeState()) && ok;
  }

  if (argc >= 3) {
    const std::filesystem::path net_dir(argv[2]);
    std::filesystem::create_directories(net_dir, ec);
    ok = WriteNetFrameCorpus(net_dir) && ok;
  }

  if (argc >= 4) {
    const std::filesystem::path wal_dir(argv[3]);
    std::filesystem::create_directories(wal_dir, ec);
    ok = WriteWalCorpus(wal_dir) && ok;
  }

  if (!ok) {
    std::fprintf(stderr, "failed writing seed corpus to %s\n", argv[1]);
    return 1;
  }
  std::printf("seed corpus written to %s\n", argv[1]);
  return 0;
}
