#!/usr/bin/env python3
"""Serving-stack benchmark for springdtw (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload chirp_q64 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 20
  python3 perfbench/run.py --compare A.json B.json
  python3 perfbench/run.py --self-test

A run builds the benchmark package (perfbench/CMakeLists.txt, which also
builds springdtw_serve from the repository sources) into the build directory
($CARGO_TARGET_DIR, default .bench_build), then runs the load generator. The
last line of stdout is the JSON result; a copy with the host block is kept
under <build dir>/results/ for --compare, which refuses results from
different hosts.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = 2
WORKLOADS = ["chirp_q64", "fleet_ingest", "alert_latency"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def cmake_dir():
    return os.path.join(build_root(), "perfbench-cmake")


def build(targets):
    """Configures (once) and builds `targets`; output goes to stderr."""
    out = cmake_dir()
    # A configure that failed leaves a cache but no Makefile; redo it.
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)


def read_cache(name):
    try:
        with open(os.path.join(cmake_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    files = os.path.join(cmake_dir(), "CMakeFiles")
    for version_dir in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, version_dir, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            fields = {}
            with open(path) as f:
                for line in f:
                    for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                        if line.startswith(f"set({key} "):
                            fields[key] = line.split('"')[1]
            return (f"{fields.get('CMAKE_CXX_COMPILER_ID', '?')} "
                    f"{fields.get('CMAKE_CXX_COMPILER_VERSION', '?')}")
    return "unknown"


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"


def host_block():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                if key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu_model": model,
        "hardware_threads": os.cpu_count(),
        "isa": {"avx2": "avx2" in flags, "avx512f": "avx512f" in flags},
        "compiler": compiler(),
        "build_type": read_cache("CMAKE_BUILD_TYPE"),
        "git_sha": git_sha(),
        "workers": WORKERS,
    }


def comparable_host(host):
    """The host block without the fields two compared commits may differ in."""
    return {k: v for k, v in host.items() if k != "git_sha"}


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if comparable_host(a["host"]) != comparable_host(b["host"]):
        log("refusing to compare results from different hosts:")
        log(f"  {path_a}: {json.dumps(comparable_host(a['host']))}")
        log(f"  {path_b}: {json.dumps(comparable_host(b['host']))}")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("refusing to compare different workloads or trace modes")
        return 3
    print(f"{a['workload']} trace={a['trace']}: {a['host']['git_sha']} -> "
          f"{b['host']['git_sha']}")
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None or ma["value"] in (0, None) or mb["value"] is None:
            print(f"  {name:36s} {ma['value']} -> {mb and mb['value']} {ma['unit']}")
            continue
        ratio = mb["value"] / ma["value"]
        print(f"  {name:36s} {ma['value']:.6g} -> {mb['value']:.6g} {ma['unit']}"
              f"  (x{ratio:.4f})")
    return 0


def self_test():
    build(["perfbench_tests"])
    return subprocess.run([os.path.join(cmake_dir(), "perfbench_tests")]).returncode


def stop_group(child):
    """Kills what is left of `child`'s process group and waits until it is gone."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_all(args):
    """Runs every workload end to end and repeats their rows at the end."""
    rows = []
    for workload in WORKLOADS:
        args.workload, args.trace = workload, 0
        lines = run(args)
        if lines is None:
            return 1
        rows += [line for line in lines if line.startswith("ROW ")]
    print("\n".join(rows))
    return 0


def run(args):
    build(["springdtw_serve", "perfbench_load"])
    work_dir = os.path.join(build_root(), "work",
                            f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    command = [
        os.path.join(cmake_dir(), "perfbench_load"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--serve={os.path.join(cmake_dir(), 'springdtw_tools', 'springdtw_serve')}",
        f"--work_dir={work_dir}",
    ]
    if args.trace:
        spans = os.path.join(build_root(), "spans")
        os.makedirs(spans, exist_ok=True)
        command.append(f"--spans_out={os.path.join(spans, f'{args.workload}-seed{args.seed}.jsonl')}")
    # The generator and the daemons it spawns share a new process group, so
    # whatever happens to the generator, every process is stopped and gone
    # before this returns.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"load generator exceeded {RUN_TIMEOUT_S} s\n"
    finally:
        stop_group(child)
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"load generator failed (exit {child.returncode})")
        return None
    result = json.loads(lines[-1])
    host = host_block()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "result": result}
    results = os.path.join(build_root(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("HOST " + json.dumps(host))
    print(json.dumps(result), flush=True)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload end to end, one row each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.self_test:
            return self_test()
        if args.all:
            return run_all(args)
        if not args.workload:
            parser.error("--workload or --all is required")
        return 0 if run(args) is not None else 1
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        log(str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
