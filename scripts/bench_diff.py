#!/usr/bin/env python3
"""Compare two BENCH_*.json files series-by-series and flag regressions.

    scripts/bench_diff.py BASELINE.json CURRENT.json
        [--threshold_pct=10] [--warn-only] [--quiet]

Both inputs are BENCH_METRICS_JSON documents as written by the benches'
--json_out flag:

    {"metrics": [{"name": ..., "type": ..., "help": ...,
                  "series": [{"labels": {...}, "value": N}, ...]}, ...]}

Series are keyed by (metric name, sorted label set); a histogram series
(count, sum, p50, p90, p99, ... instead of a value) becomes the two keys
"NAME:p50" and "NAME:p99". Only keys present in BOTH files are compared —
added or removed series are reported as informational lines, never as
failures, so a bench gaining a new leg does not break history comparison.

Direction is inferred from the metric name: names containing one of
"overhead", "_pct", "us_per_tick", "latency", "delay" measure cost (lower
is better); everything else measures capacity (higher is better). A
change past --threshold_pct in the bad direction is a regression.
Series carrying an `unreliable` label on either side (e.g. differential
overheads measured on one hardware thread) are compared and printed but
never counted as regressions — the producing bench already decided the
number is noise.

Exit status: 0 when no regression (or --warn-only), 1 on regressions,
2 on usage/parse errors. Intended use in scripts/check.sh is warn-only —
the committed BENCH_*.json baselines come from whatever machine last
refreshed them, so a hard gate would fail on every hardware change.
"""

import json
import sys

COST_MARKERS = ("overhead", "_pct", "us_per_tick", "latency", "delay")


def series_map(doc, path):
    """Flatten a BENCH metrics doc to {(name, labels-tuple): value}.

    Histogram series contribute their p50 and p99 as "name:p50" and
    "name:p99"."""
    out = {}
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        raise ValueError(f"{path}: no 'metrics' array")
    for metric in metrics:
        name = metric.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{path}: metric without a name")
        for series in metric.get("series", []):
            labels = series.get("labels", {})
            if not isinstance(labels, dict):
                raise ValueError(f"{path}: {name}: labels is not an object")
            if metric.get("type") == "histogram":
                points = {f"{name}:{q}": series.get(q) for q in ("p50", "p99")}
            else:
                points = {name: series.get("value")}
            for point, value in points.items():
                if not isinstance(value, (int, float)):
                    raise ValueError(f"{path}: {point}: non-numeric value")
                out[(point, tuple(sorted(labels.items())))] = float(value)
    return out


def label_str(labels):
    inner = ",".join(f"{k}={v}" for k, v in labels if k != "bench")
    return "{" + inner + "}" if inner else ""


def lower_is_better(name):
    return any(marker in name for marker in COST_MARKERS)


def main(argv):
    threshold_pct = 10.0
    warn_only = False
    quiet = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold_pct="):
            threshold_pct = float(arg.split("=", 1)[1])
        elif arg == "--warn-only":
            warn_only = True
        elif arg == "--quiet":
            quiet = True
        elif arg.startswith("--"):
            print(f"unknown flag: {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print(f"expected 2 files, got {len(paths)}", file=sys.stderr)
        return 2

    try:
        docs = []
        for path in paths:
            with open(path, encoding="utf-8") as f:
                docs.append(series_map(json.load(f), path))
    except (OSError, ValueError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2
    baseline, current = docs

    regressions = 0
    for key in sorted(set(baseline) | set(current)):
        name, labels = key
        tag = f"{name}{label_str(labels)}"
        if key not in baseline:
            if not quiet:
                print(f"  NEW      {tag} = {current[key]:.6g}")
            continue
        if key not in current:
            if not quiet:
                print(f"  REMOVED  {tag} (was {baseline[key]:.6g})")
            continue
        base, cur = baseline[key], current[key]
        if base == 0.0:
            delta_pct = 0.0 if cur == 0.0 else float("inf")
        else:
            delta_pct = (cur - base) / abs(base) * 100.0
        bad = -delta_pct if lower_is_better(name) else delta_pct
        unreliable = any(k == "unreliable" for k, _ in labels)
        regressed = bad < -threshold_pct and not unreliable
        if regressed:
            regressions += 1
        if regressed or not quiet:
            marker = "REGRESS " if regressed else ("noisy   " if unreliable
                                                   else "ok      ")
            print(f"  {marker} {tag}: {base:.6g} -> {cur:.6g} "
                  f"({delta_pct:+.2f}%)")

    if regressions:
        print(f"bench_diff: {regressions} regression(s) past "
              f"{threshold_pct:g}% threshold")
        return 0 if warn_only else 1
    print("bench_diff: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
