#!/usr/bin/env bash
# Correctness matrix for springdtw (docs/CORRECTNESS.md):
#
#   default     Release build + full ctest suite (includes the fuzz corpus
#               smokes and the lint ctest entry)
#   asan-ubsan  AddressSanitizer + UBSan preset, invariant checks forced on
#   tsan        ThreadSanitizer preset (concurrency tests), invariant
#               checks forced on
#   lint        tools/springdtw_lint over src/ (also runs inside ctest;
#               this leg gives it a named line in the summary)
#   analyze     Compile-time concurrency verification: the lint rules, then
#               (when clang is installed) the `analyze` preset with
#               -Wthread-safety promoted to an error, clang-tidy
#               (bugprone/concurrency/performance/clang-analyzer) and
#               `clang --analyze` over the tree, diffed against
#               scripts/analyze_baseline.txt. Without clang the clang-only
#               steps are skipped — the annotations are no-ops under gcc —
#               and CI runs them on a clang-equipped runner.
#   fuzz-smoke  Replays the seed corpora through the fuzz harnesses
#   bench-smoke Runs bench_scaleout on a small workload (fails if the
#               batched single-thread path loses to the scalar path) and a
#               reduced bench_fig7_walltime and bench_net_ingest --smoke;
#               writes fresh BENCH_*.json blobs to a temp dir (the
#               committed ones at the repo root stay untouched), validates
#               them with springdtw_metrics_check, then compares each
#               against the committed baseline with scripts/bench_diff.py
#               (warn-only: baselines come from other hardware)
#   introspect-smoke
#               Starts a 4-worker springdtw_match with --introspect_port=0,
#               polls /healthz to 200, scrapes /metrics for the
#               pipeline-stage and end-to-end span histogram families,
#               asserts /queryz and /spanz serve non-empty JSON, then
#               validates the spring_e2e_latency_nanos histograms with
#               springdtw_metrics_check on a merged-snapshot dump
#   serve-smoke Boots springdtw_serve on an ephemeral port, replays a
#               planted pattern through springdtw_feed and asserts the
#               exact match arrives over the subscription, checks
#               /healthz and the spring_net_* metric splice, SIGTERMs the
#               daemon (must exit 0 and leave a checkpoint), then restarts
#               from the checkpoint and asserts the restored query keeps
#               matching and, with telemetry off, lists nonzero cells
#               (docs/SERVING.md)
#   alert-smoke Boots springdtw_serve with --timeline and a page-severity
#               rate rule, drives a paced feed hot enough to trip it, and
#               walks the rule through its full lifecycle over /alertz:
#               firing while the feed runs (and /healthz 503, because the
#               rule pages), resolved after the feed stops (and /healthz
#               back to 200) — then validates the scraped /timez //alertz
#               documents with springdtw_metrics_check and renders one
#               plain springdtw_top frame (docs/OBSERVABILITY.md)
#   crash-smoke Boots springdtw_serve with --wal_dir, streams a planted
#               pattern, SIGKILLs the daemon mid-flight (no checkpoint,
#               no drain), restarts against the same WAL directory, and
#               asserts the daemon logs a WAL_RECOVERY line, the query
#               and every accepted tick survived, and the planted match
#               is reported exactly once across both incarnations —
#               deduplicated by its stable seq= tag (docs/DURABILITY.md)
#
# Usage: scripts/check.sh [leg ...]   (no args = all legs)
# Exits non-zero if any leg fails; prints a per-leg summary either way.
set -u

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

LEGS=("$@")
if [ ${#LEGS[@]} -eq 0 ]; then
  LEGS=(default asan-ubsan tsan lint analyze fuzz-smoke bench-smoke
    introspect-smoke serve-smoke alert-smoke crash-smoke)
fi

NAMES=()
RESULTS=()

build_and_test_preset() {
  local preset="$1"
  cmake --preset "$preset" &&
    cmake --build --preset "$preset" -j"$JOBS" &&
    ctest --preset "$preset" -j"$JOBS"
}

leg_default() { build_and_test_preset default; }
leg_asan_ubsan() { build_and_test_preset asan-ubsan; }
leg_tsan() { build_and_test_preset tsan; }

leg_lint() {
  cmake --preset default &&
    cmake --build --preset default -j"$JOBS" --target springdtw_lint &&
    ./build/tools/springdtw_lint src
}

# Diffs the normalized analyzer report against scripts/analyze_baseline.txt.
# Findings are normalized to `<path>: <text>` with line:column stripped so
# the baseline survives unrelated edits. `MODE: bootstrap` in the baseline
# downgrades new findings to advisory (printed + left in the report file for
# the CI artifact) instead of failing the leg.
analyze_diff_baseline() {
  local report="$1"
  local baseline=scripts/analyze_baseline.txt
  local norm=build-analyze/analyze_findings.txt
  grep -E '(warning|error):' "$report" 2>/dev/null |
    sed -e "s|$(pwd)/||g" -e 's/:[0-9][0-9]*:[0-9][0-9]*:/:/' |
    sort -u >"$norm"
  local new_findings
  new_findings="$(grep -vxFf <(grep -v '^#' "$baseline" |
    grep -v '^MODE:') "$norm")"
  if [ -z "$new_findings" ]; then
    echo "analyze: no findings beyond baseline"
    return 0
  fi
  echo "analyze: findings not in ${baseline}:"
  echo "$new_findings"
  if grep -q '^MODE: bootstrap' "$baseline"; then
    echo "analyze: baseline is in bootstrap mode; recording, not failing"
    return 0
  fi
  echo "analyze: fix the code or baseline the finding (with a why comment)"
  return 1
}

leg_analyze() {
  # The mechanical rules (memory-order, raw-mutex, thread-annotation, ...)
  # are dependency-free and run under any toolchain.
  leg_lint || return 1

  # Everything past this point needs the clang frontend. The thread-safety
  # annotations compile as no-ops under gcc, so there is nothing more to
  # verify locally; CI installs clang + clang-tidy and runs the full leg.
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "analyze: clang++ not found; skipping -Wthread-safety and" \
      "clang-tidy (full run happens on a clang-equipped machine / CI)"
    return 0
  fi

  # Thread Safety Analysis: the whole tree must compile clean with
  # -Wthread-safety promoted to an error (SPRINGDTW_ANALYZE=ON).
  cmake --preset analyze &&
    cmake --build --preset analyze -j"$JOBS" || return 1

  local report=build-analyze/analyze_report.txt
  : >"$report"

  # clang-tidy (bugprone-*, concurrency-*, performance-*, clang-analyzer-*)
  # over the exported compilation database, first-party TUs only.
  if command -v clang-tidy >/dev/null 2>&1; then
    local files
    files="$(sed -n 's/^ *"file": *"\(.*\)",*$/\1/p' \
      build-analyze/compile_commands.json |
      grep -E "^$(pwd)/(src|tools|bench|examples)/" | sort -u)"
    if [ -z "$files" ]; then
      echo "analyze: no first-party TUs in compile_commands.json"
      return 1
    fi
    rm -f build-analyze/tidy.*.out
    echo "$files" | xargs -P "$JOBS" -n 1 -I{} sh -c \
      'clang-tidy -p build-analyze --quiet "$1" \
         >"build-analyze/tidy.$$.out" 2>/dev/null; true' _ {}
    cat build-analyze/tidy.*.out >>"$report" 2>/dev/null
    rm -f build-analyze/tidy.*.out
  else
    echo "analyze: clang-tidy not found; skipping the tidy pass"
  fi

  # Core static analyzer (clang --analyze) over the library and tool TUs;
  # these build with just -Isrc, so no database replay is needed.
  local f
  for f in src/*/*.cc tools/*.cc; do
    clang++ --analyze --analyzer-output text -std=c++20 -Isrc \
      "$f" >>"$report" 2>&1 || {
      echo "analyze: clang --analyze failed on $f"
      tail -40 "$report"
      return 1
    }
  done

  analyze_diff_baseline "$report"
}

leg_fuzz_smoke() {
  cmake --preset default &&
    cmake --build --preset default -j"$JOBS" \
      --target fuzz_csv fuzz_codec fuzz_checkpoint fuzz_net_frame fuzz_wal \
      fuzz_gen_seed_corpus &&
    ctest --test-dir build -R '^fuzz_' --output-on-failure
}

leg_bench_smoke() {
  # The fresh blobs go to a temp dir, so the committed baselines at the
  # repo root stay untouched; bench_diff compares fresh numbers against
  # them warn-only (hardware varies between the machine that committed a
  # baseline and this one, so regressions print but never fail the leg).
  # A file bench_diff cannot read (exit 2) does fail it.
  local fresh
  fresh="$(mktemp -d)" || return 1
  cmake --preset default &&
    cmake --build --preset default -j"$JOBS" \
      --target bench_scaleout bench_fig7_walltime springdtw_metrics_check &&
    ./build/bench/bench_scaleout --smoke \
      --json_out="$fresh/BENCH_scaleout.json" &&
    ./build/bench/bench_fig7_walltime --max_n=100000 --overhead_n=50000 \
      --json_out="$fresh/BENCH_fig7.json" &&
    ./build/tools/springdtw_metrics_check --in="$fresh/BENCH_scaleout.json" \
      --require=bench_scaleout_ticks_per_sec,bench_scaleout_batch_speedup &&
    ./build/tools/springdtw_metrics_check --in="$fresh/BENCH_fig7.json" \
      --require=bench_spring_us_per_tick,bench_engine_metrics_overhead_pct &&
    cmake --build --preset default -j"$JOBS" --target bench_net_ingest &&
    ./build/bench/bench_net_ingest --smoke \
      --json_out="$fresh/BENCH_net.json" &&
    ./build/tools/springdtw_metrics_check --in="$fresh/BENCH_net.json" \
      --require=bench_net_ingest_ticks_per_sec,bench_net_ingest_wire_overhead,bench_net_ingest_tracing_overhead_pct,bench_net_ingest_wal_overhead_pct,bench_net_ingest_timeline_overhead_pct ||
    { rm -rf "$fresh"; return 1; }
  local bench rc=0
  for bench in BENCH_scaleout.json BENCH_fig7.json BENCH_net.json; do
    if [ -f "$bench" ]; then
      echo "--- bench_diff $bench (vs committed baseline, warn-only) ---"
      python3 scripts/bench_diff.py --warn-only --quiet \
        "$bench" "$fresh/$bench" || rc=1
    fi
  done
  rm -rf "$fresh"
  return "$rc"
}

# One HTTP GET over bash's /dev/tcp (no curl dependency in the container);
# prints status line + headers + body.
introspect_get() {
  local port="$1" path="$2"
  exec 3<>"/dev/tcp/127.0.0.1/${port}" || return 1
  printf 'GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' \
    "$path" >&3
  cat <&3
  exec 3<&- 3>&-
}

leg_introspect_smoke() {
  cmake --preset default &&
    cmake --build --preset default -j"$JOBS" \
      --target springdtw_datagen springdtw_match || return 1

  local tmp
  tmp="$(mktemp -d)" || return 1
  (cd "$tmp" && "$OLDPWD/build/tools/springdtw_datagen" --dataset=chirp \
    --length=20000 --out=smoke) || { rm -rf "$tmp"; return 1; }

  # Staleness budget must exceed the linger window: during the linger no
  # ticks flow, and a budget shorter than the linger would flip /healthz to
  # 503 before we finish scraping.
  ./build/tools/springdtw_match \
    --stream="$tmp/smoke_stream.csv" --query="$tmp/smoke_query.csv" \
    --epsilon=500 --threads=4 --introspect_port=0 \
    --introspect_linger_ms=20000 --introspect_staleness_ms=60000 \
    >"$tmp/match.out" 2>&1 &
  local match_pid=$!

  local port="" i
  for i in $(seq 1 100); do
    port="$(sed -n 's/^INTROSPECT_PORT=//p' "$tmp/match.out" | head -1)"
    [ -n "$port" ] && break
    kill -0 "$match_pid" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "introspect-smoke: no INTROSPECT_PORT line from springdtw_match"
    cat "$tmp/match.out"
    kill "$match_pid" 2>/dev/null
    wait "$match_pid" 2>/dev/null
    rm -rf "$tmp"
    return 1
  fi

  local ok=1
  for i in $(seq 1 100); do
    if introspect_get "$port" /healthz 2>/dev/null |
      head -1 | grep -q '200'; then
      ok=0
      break
    fi
    sleep 0.1
  done
  if [ "$ok" -ne 0 ]; then
    echo "introspect-smoke: /healthz never returned 200 on port $port"
  else
    # The cost and span snapshots publish at the FlushAll barrier; wait for
    # the match count line (printed right after FlushAll, before the linger)
    # so the scrapes below see the completed run rather than racing it.
    for i in $(seq 1 200); do
      grep -q '^# ' "$tmp/match.out" && break
      kill -0 "$match_pid" 2>/dev/null || break
      sleep 0.1
    done
    if ! grep -q '^# ' "$tmp/match.out"; then
      echo "introspect-smoke: match run never reached its FlushAll barrier"
      ok=1
    fi
    introspect_get "$port" /metrics >"$tmp/metrics.out" 2>/dev/null
    grep -q 'spring_ticks_total' "$tmp/metrics.out" &&
      grep -q 'spring_ring_occupancy' "$tmp/metrics.out" &&
      grep -q 'spring_e2e_latency_nanos' "$tmp/metrics.out" &&
      grep -q 'spring_trace_dropped_total' "$tmp/metrics.out" || {
      echo "introspect-smoke: /metrics is missing expected families:"
      head -40 "$tmp/metrics.out"
      ok=1
    }
    # The cost-accounting and span endpoints serve non-empty JSON docs.
    introspect_get "$port" /queryz >"$tmp/queryz.out" 2>/dev/null
    head -1 "$tmp/queryz.out" | grep -q '200' &&
      grep -q '"queries":\[{' "$tmp/queryz.out" || {
      echo "introspect-smoke: /queryz did not serve per-query rows:"
      cat "$tmp/queryz.out"
      ok=1
    }
    introspect_get "$port" /spanz >"$tmp/spanz.out" 2>/dev/null
    head -1 "$tmp/spanz.out" | grep -q '200' &&
      grep -q '"spans":\[{' "$tmp/spanz.out" || {
      echo "introspect-smoke: /spanz did not serve completed spans:"
      cat "$tmp/spanz.out"
      ok=1
    }
  fi

  kill "$match_pid" 2>/dev/null
  wait "$match_pid" 2>/dev/null

  # A natural-exit sharded run dumps the merged snapshot; the end-to-end
  # stage histograms and trace drop counter must validate as families.
  if [ "$ok" -eq 0 ]; then
    cmake --build --preset default -j"$JOBS" \
      --target springdtw_metrics_check >/dev/null &&
      ./build/tools/springdtw_match \
        --stream="$tmp/smoke_stream.csv" --query="$tmp/smoke_query.csv" \
        --epsilon=500 --threads=4 --introspect_port=0 \
        --introspect_linger_ms=0 --metrics=json \
        --metrics_out="$tmp/e2e_metrics.json" >/dev/null 2>&1 &&
      ./build/tools/springdtw_metrics_check --in="$tmp/e2e_metrics.json" \
        --require=spring_trace_dropped_total \
        --require_histogram=spring_e2e_latency_nanos || {
      echo "introspect-smoke: e2e span families failed metrics_check"
      ok=1
    }
  fi
  rm -rf "$tmp"
  return "$ok"
}

# Waits for a `KEY=value` line to appear in a daemon's stdout capture;
# prints the value. Fails when the process dies first.
wait_for_port_line() {
  local key="$1" file="$2" pid="$3" port="" i
  for i in $(seq 1 100); do
    port="$(sed -n "s/^${key}=//p" "$file" | head -1)"
    [ -n "$port" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  [ -n "$port" ] || return 1
  echo "$port"
}

leg_serve_smoke() {
  cmake --preset default &&
    cmake --build --preset default -j"$JOBS" \
      --target springdtw_serve springdtw_feed || return 1

  local tmp
  tmp="$(mktemp -d)" || return 1
  # Planted pattern: the query {1,2,3,2,1} occurs exactly at indices 3..7
  # (and the trailing 9s force the commit), so the subscribed feeder must
  # print MATCH ... start=3 end=7 dist=0 report=8 — a deterministic,
  # byte-checkable report (docs/SERVING.md "Example session").
  printf '0\n0\n0\n1\n2\n3\n2\n1\n0\n0\n9\n9\n9\n9\n9\n9\n' \
    >"$tmp/stream.csv"
  printf '1\n2\n3\n2\n1\n' >"$tmp/query.csv"

  local serve_pid port iport
  ./build/tools/springdtw_serve --port=0 --workers=2 \
    --checkpoint="$tmp/state.ckpt" --introspect_port=0 \
    --staleness_ms=60000 >"$tmp/serve.out" 2>&1 &
  serve_pid=$!
  port="$(wait_for_port_line SERVE_PORT "$tmp/serve.out" "$serve_pid")" || {
    echo "serve-smoke: no SERVE_PORT line from springdtw_serve"
    cat "$tmp/serve.out"
    kill "$serve_pid" 2>/dev/null
    wait "$serve_pid" 2>/dev/null
    rm -rf "$tmp"
    return 1
  }

  local ok=0
  ./build/tools/springdtw_feed --port="$port" --stream="$tmp/stream.csv" \
    --query="$tmp/query.csv" --epsilon=0.25 --subscribe --list \
    >"$tmp/feed.out" 2>&1 || ok=1
  grep -q 'MATCH stream=stream query=query start=3 end=7 dist=0 report=8' \
    "$tmp/feed.out" || {
    echo "serve-smoke: expected planted match missing from feed output:"
    cat "$tmp/feed.out"
    ok=1
  }
  grep -q 'QUERY .*name=query ticks=16 matches=1 cells=[1-9]' \
    "$tmp/feed.out" || {
    echo "serve-smoke: LIST_QUERIES row missing:"
    cat "$tmp/feed.out"
    ok=1
  }

  # The daemon splices its spring_net_* families into /metrics and serves
  # /healthz through the monitor's introspection server.
  iport="$(wait_for_port_line INTROSPECT_PORT "$tmp/serve.out" \
    "$serve_pid")" || ok=1
  if [ "$ok" -eq 0 ]; then
    introspect_get "$iport" /healthz 2>/dev/null | head -1 | grep -q 200 || {
      echo "serve-smoke: /healthz not 200"
      ok=1
    }
    introspect_get "$iport" /metrics >"$tmp/metrics.out" 2>/dev/null
    grep -q 'spring_net_frames_total' "$tmp/metrics.out" &&
      grep -q 'spring_net_connections' "$tmp/metrics.out" || {
      echo "serve-smoke: spring_net_* families missing from /metrics:"
      head -40 "$tmp/metrics.out"
      ok=1
    }
  fi

  # SIGTERM: drain, checkpoint, exit 0.
  kill -TERM "$serve_pid" 2>/dev/null
  wait "$serve_pid"
  local rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "serve-smoke: springdtw_serve exited $rc on SIGTERM"
    cat "$tmp/serve.out"
    ok=1
  fi
  [ -f "$tmp/state.ckpt" ] || {
    echo "serve-smoke: no checkpoint written on shutdown"
    ok=1
  }

  # Restart from the checkpoint: the stream and query are restored, so a
  # replay of the same pattern (ticks 16..31) must match at 19..23 without
  # re-registering anything. This daemon runs without telemetry, and its
  # LIST_QUERIES row must still carry the engine's cells.
  if [ "$ok" -eq 0 ]; then
    ./build/tools/springdtw_serve --port=0 --workers=2 \
      --checkpoint="$tmp/state.ckpt" >"$tmp/serve2.out" 2>&1 &
    serve_pid=$!
    port="$(wait_for_port_line SERVE_PORT "$tmp/serve2.out" \
      "$serve_pid")" || ok=1
    if [ "$ok" -eq 0 ]; then
      ./build/tools/springdtw_feed --port="$port" \
        --stream="$tmp/stream.csv" --subscribe --list \
        >"$tmp/feed2.out" 2>&1 || ok=1
      grep -q \
        'MATCH stream=stream query=query start=19 end=23 dist=0 report=24' \
        "$tmp/feed2.out" || {
        echo "serve-smoke: restored daemon did not keep matching:"
        cat "$tmp/feed2.out"
        ok=1
      }
      grep -q 'QUERY .*name=query ticks=32 matches=2 cells=[1-9]' \
        "$tmp/feed2.out" || {
        echo "serve-smoke: restored daemon's LIST_QUERIES row missing:"
        cat "$tmp/feed2.out"
        ok=1
      }
    fi
    kill -TERM "$serve_pid" 2>/dev/null
    wait "$serve_pid" 2>/dev/null
  fi

  rm -rf "$tmp"
  return "$ok"
}

# Strips the HTTP status line and headers off an introspect_get capture,
# leaving the JSON body for springdtw_metrics_check.
http_body() {
  sed '1,/^\r\{0,1\}$/d' "$1"
}

# SLO alerting smoke (docs/OBSERVABILITY.md): drives a rate rule through
# its complete lifecycle against a live daemon. Severity is `page` so the
# firing state must also gate /healthz — the staleness budget is set far
# above the leg's runtime so a 503 can only mean the alert.
leg_alert_smoke() {
  cmake --preset default &&
    cmake --build --preset default -j"$JOBS" \
      --target springdtw_serve springdtw_feed springdtw_top \
      springdtw_metrics_check || return 1

  local tmp
  tmp="$(mktemp -d)" || return 1
  # 2000 ticks at --rate=400 is five seconds of sustained ingest: well
  # past the rule's 2s hold at ~8x its 50 ticks/s threshold. A query must
  # be registered — spring_ticks_total counts query-ticks, so with no
  # query the counter never exists and a rate rule can never trip.
  seq 1 2000 | awk '{print $1 % 17}' >"$tmp/stream.csv"
  printf '1\n2\n3\n2\n1\n' >"$tmp/query.csv"
  printf 'alert hot_ingest page rate(spring_ticks_total) > 50 for 2s\n' \
    >"$tmp/rules.txt"

  local serve_pid port iport
  ./build/tools/springdtw_serve --port=0 --workers=2 --introspect_port=0 \
    --staleness_ms=120000 --timeline --alert_rules="$tmp/rules.txt" \
    >"$tmp/serve.out" 2>&1 &
  serve_pid=$!
  port="$(wait_for_port_line SERVE_PORT "$tmp/serve.out" "$serve_pid")" &&
    iport="$(wait_for_port_line INTROSPECT_PORT "$tmp/serve.out" \
      "$serve_pid")" || {
    echo "alert-smoke: springdtw_serve did not print its ports"
    cat "$tmp/serve.out"
    kill "$serve_pid" 2>/dev/null
    wait "$serve_pid" 2>/dev/null
    rm -rf "$tmp"
    return 1
  }

  local ok=0
  ./build/tools/springdtw_feed --port="$port" --stream="$tmp/stream.csv" \
    --query="$tmp/query.csv" --epsilon=0.25 --rate=400 \
    >"$tmp/feed.out" 2>&1 &
  local feed_pid=$!

  # The rule holds 2s before firing; poll rather than sleep.
  local fired=1 i
  for i in $(seq 1 120); do
    introspect_get "$iport" /alertz >"$tmp/alertz.out" 2>/dev/null
    if grep -q '"state":"firing"' "$tmp/alertz.out"; then
      fired=0
      break
    fi
    sleep 0.1
  done
  if [ "$fired" -ne 0 ]; then
    echo "alert-smoke: rule never reached firing while feeding:"
    cat "$tmp/alertz.out"
    ok=1
  else
    introspect_get "$iport" /healthz 2>/dev/null | head -1 | grep -q 503 || {
      echo "alert-smoke: /healthz not 503 while a page rule fires"
      ok=1
    }
  fi

  wait "$feed_pid" 2>/dev/null

  # With the feed gone the 2s rate window drains and the rule must resolve
  # (and liveness recover) on its own — no restart, no manual reset.
  if [ "$ok" -eq 0 ]; then
    local resolved=1
    for i in $(seq 1 150); do
      introspect_get "$iport" /alertz >"$tmp/alertz.out" 2>/dev/null
      if grep -q '"state":"resolved"' "$tmp/alertz.out"; then
        resolved=0
        break
      fi
      sleep 0.1
    done
    if [ "$resolved" -ne 0 ]; then
      echo "alert-smoke: rule never resolved after the feed stopped:"
      cat "$tmp/alertz.out"
      ok=1
    else
      introspect_get "$iport" /healthz 2>/dev/null | head -1 |
        grep -q 200 || {
        echo "alert-smoke: /healthz did not recover after resolve"
        ok=1
      }
      # One full pending -> firing -> resolved walk leaves the
      # ever-increasing lifecycle counters non-zero.
      if grep -q '"firing_count":0' "$tmp/alertz.out"; then
        echo "alert-smoke: firing_count still 0 after a full lifecycle:"
        cat "$tmp/alertz.out"
        ok=1
      fi
    fi
  fi

  # The scraped documents validate structurally, and the dashboard can
  # render one plain frame from the same endpoints.
  if [ "$ok" -eq 0 ]; then
    introspect_get "$iport" \
      "/timez?metric=spring_ticks_total&window=120" \
      >"$tmp/timez.raw" 2>/dev/null
    http_body "$tmp/timez.raw" >"$tmp/timez.json"
    http_body "$tmp/alertz.out" >"$tmp/alertz.json"
    ./build/tools/springdtw_metrics_check --timez="$tmp/timez.json" \
      --alertz="$tmp/alertz.json" || {
      echo "alert-smoke: scraped /timez //alertz failed metrics_check"
      ok=1
    }
    ./build/tools/springdtw_top --port="$iport" --frames=1 --plain \
      >"$tmp/top.out" 2>&1 || {
      echo "alert-smoke: springdtw_top exited non-zero"
      cat "$tmp/top.out"
      ok=1
    }
    grep -q 'hot_ingest' "$tmp/top.out" || {
      echo "alert-smoke: dashboard frame does not list the rule:"
      cat "$tmp/top.out"
      ok=1
    }
  fi

  kill -TERM "$serve_pid" 2>/dev/null
  wait "$serve_pid" 2>/dev/null
  rm -rf "$tmp"
  return "$ok"
}

# Crash-injection smoke (docs/DURABILITY.md): SIGKILL — not SIGTERM — so
# nothing shuts down cleanly; durability must come from the WAL alone.
# fsync=os survives kill -9 because the page cache belongs to the kernel,
# which keeps running; only the machine dying loses it.
leg_crash_smoke() {
  cmake --preset default &&
    cmake --build --preset default -j"$JOBS" \
      --target springdtw_serve springdtw_feed || return 1

  local tmp
  tmp="$(mktemp -d)" || return 1
  # Same planted pattern as serve-smoke: query {1,2,3,2,1} matches exactly
  # at 3..7 (report=8), and again at 19..23 when the stream is replayed.
  printf '0\n0\n0\n1\n2\n3\n2\n1\n0\n0\n9\n9\n9\n9\n9\n9\n' \
    >"$tmp/stream.csv"
  printf '1\n2\n3\n2\n1\n' >"$tmp/query.csv"

  local serve_pid port
  ./build/tools/springdtw_serve --port=0 --workers=2 \
    --wal_dir="$tmp/wal" --fsync=os >"$tmp/serve.out" 2>&1 &
  serve_pid=$!
  port="$(wait_for_port_line SERVE_PORT "$tmp/serve.out" "$serve_pid")" || {
    echo "crash-smoke: no SERVE_PORT line from springdtw_serve"
    cat "$tmp/serve.out"
    kill -9 "$serve_pid" 2>/dev/null
    wait "$serve_pid" 2>/dev/null
    rm -rf "$tmp"
    return 1
  }

  local ok=0
  ./build/tools/springdtw_feed --port="$port" --stream="$tmp/stream.csv" \
    --query="$tmp/query.csv" --epsilon=0.25 --subscribe \
    >"$tmp/feed.out" 2>&1 || ok=1
  local seq1
  seq1="$(sed -n \
    's/^MATCH stream=stream query=query start=3 end=7 .* seq=\([0-9]*\)$/\1/p' \
    "$tmp/feed.out")"
  [ "$(echo "$seq1" | grep -c .)" -eq 1 ] || {
    echo "crash-smoke: planted match not delivered exactly once pre-crash:"
    cat "$tmp/feed.out"
    ok=1
  }

  # Give the event loop a beat to log the delivery mark, then crash hard.
  sleep 0.3
  kill -9 "$serve_pid" 2>/dev/null
  wait "$serve_pid" 2>/dev/null

  if [ "$ok" -eq 0 ]; then
    ./build/tools/springdtw_serve --port=0 --workers=2 \
      --wal_dir="$tmp/wal" --fsync=os >"$tmp/serve2.out" 2>&1 &
    serve_pid=$!
    port="$(wait_for_port_line SERVE_PORT "$tmp/serve2.out" \
      "$serve_pid")" || {
      echo "crash-smoke: restarted daemon printed no SERVE_PORT"
      cat "$tmp/serve2.out"
      ok=1
    }
  fi
  if [ "$ok" -eq 0 ]; then
    # Unclean shutdown must be detected and reported with the replay size.
    grep -q 'WAL_RECOVERY .*replayed_values=16' "$tmp/serve2.out" || {
      echo "crash-smoke: no WAL_RECOVERY line after kill -9:"
      cat "$tmp/serve2.out"
      ok=1
    }
    # Query and held ticks survived; replaying the stream appends 16..31,
    # so the restored matcher must fire at 19..23 — exactly once.
    ./build/tools/springdtw_feed --port="$port" --stream="$tmp/stream.csv" \
      --subscribe --list >"$tmp/feed2.out" 2>&1 || ok=1
    grep -q 'QUERY .*name=query ticks=32' "$tmp/feed2.out" || {
      echo "crash-smoke: recovered query missing or ticks lost:"
      cat "$tmp/feed2.out"
      ok=1
    }
    [ "$(grep -c \
      'MATCH stream=stream query=query start=19 end=23 dist=0 report=24' \
      "$tmp/feed2.out")" -eq 1 ] || {
      echo "crash-smoke: post-restart planted match not exactly once:"
      cat "$tmp/feed2.out"
      ok=1
    }
    # The pre-crash match may be re-delivered only as crash-window replay,
    # i.e. carrying the same seq as the original delivery — the dedup key
    # clients use. A different seq (double count) or a missing seq tag
    # would break exactly-once.
    local redelivered
    redelivered="$(sed -n \
      's/^MATCH stream=stream query=query start=3 end=7 .* seq=\([0-9]*\)$/\1/p' \
      "$tmp/feed2.out")"
    if [ -n "$redelivered" ] && [ "$redelivered" != "$seq1" ]; then
      echo "crash-smoke: re-delivered match seq $redelivered != $seq1:"
      cat "$tmp/feed2.out"
      ok=1
    fi
    kill -9 "$serve_pid" 2>/dev/null
    wait "$serve_pid" 2>/dev/null
  fi

  rm -rf "$tmp"
  return "$ok"
}

run_leg() {
  local leg="$1"
  echo
  echo "=== check.sh leg: ${leg} ==="
  local status=PASS
  case "$leg" in
    default) leg_default || status=FAIL ;;
    asan-ubsan) leg_asan_ubsan || status=FAIL ;;
    tsan) leg_tsan || status=FAIL ;;
    lint) leg_lint || status=FAIL ;;
    analyze) leg_analyze || status=FAIL ;;
    fuzz-smoke) leg_fuzz_smoke || status=FAIL ;;
    bench-smoke) leg_bench_smoke || status=FAIL ;;
    introspect-smoke) leg_introspect_smoke || status=FAIL ;;
    serve-smoke) leg_serve_smoke || status=FAIL ;;
    alert-smoke) leg_alert_smoke || status=FAIL ;;
    crash-smoke) leg_crash_smoke || status=FAIL ;;
    *)
      echo "unknown leg: ${leg} (known: default asan-ubsan tsan lint" \
        "analyze fuzz-smoke bench-smoke introspect-smoke serve-smoke" \
        "alert-smoke crash-smoke)"
      status=FAIL
      ;;
  esac
  NAMES+=("$leg")
  RESULTS+=("$status")
}

for leg in "${LEGS[@]}"; do
  run_leg "$leg"
done

echo
echo "=== check.sh summary ==="
exit_code=0
for i in "${!NAMES[@]}"; do
  printf '  %-12s %s\n' "${NAMES[$i]}" "${RESULTS[$i]}"
  if [ "${RESULTS[$i]}" != PASS ]; then
    exit_code=1
  fi
done
exit "$exit_code"
