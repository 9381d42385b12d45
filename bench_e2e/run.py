#!/usr/bin/env python3
"""End-to-end benchmark of the topology join (see README.md beside this file).

One run of one workload:

    python3 bench_e2e/run.py --workload buildings-parks --seed 1 \
        --seconds 10 --trace 0

builds the bench_e2e driver (first use only), generates the workload's two
WKT inputs from the seed (untimed, in a separate process), runs the driver
in a fresh process, and prints a run-record line followed by the result
line: one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics and writes a Chrome trace-event file under .bench_build/traces/.

Every workload, untraced and traced, as a table:

    python3 bench_e2e/run.py --all [--seed 1] [--seconds 10]

Everything the benchmark writes stays under .bench_build/ at the root of
the source tree. Each result is also appended to
.bench_build/bench_e2e_trajectory.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
WORK = os.path.join(OUT, "bench_e2e_work")
TRACES = os.path.join(OUT, "traces")
TRAJECTORY = os.path.join(OUT, "bench_e2e_trajectory.jsonl")
# Compiler and tool temporaries stay inside the tree as well.
ENV = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"))

# A run must end within 180 s; generation and the driver share this budget.
DEADLINE_S = 170


def log(msg):
    print(f"[bench_e2e] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, log_path, timeout):
    """Runs cmd with its output in log_path; returns True on exit code 0."""
    with open(log_path, "w") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False, env=ENV)
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def build():
    """Configures (once) and builds the driver; exits 2 when that fails."""
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    build_log = os.path.join(OUT, "bench_e2e_build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", "4"])
    for cmd in steps:
        if not run_quiet(cmd, build_log, timeout=850):
            with open(build_log) as f:
                sys.stderr.write(f.read()[-4000:])
            log("build failed")
            sys.exit(2)


def source_revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench_e2e", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def generate(workload, seed, timeout):
    """Returns the directory holding the seed's inputs, generating them when
    absent. Only one seed per workload is kept on disk."""
    base = os.path.join(WORK, workload)
    data = os.path.join(base, f"seed-{seed}")
    marker = os.path.join(data, "complete")
    if os.path.exists(marker):
        return data
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(data)
    gen_log = os.path.join(OUT, "bench_e2e_gen.log")
    if not run_quiet([BINARY, "gen", "--workload", workload, "--seed",
                      str(seed), "--out", data], gen_log, timeout):
        with open(gen_log) as f:
            sys.stderr.write(f.read()[-2000:])
        log(f"input generation failed for {workload}")
        sys.exit(1)
    open(marker, "w").close()
    return data


def run_workload(workload, seed, seconds, trace, revision):
    """Runs one workload in a fresh driver process and returns (record,
    result) as parsed JSON; exits 1 when the driver fails."""
    start = time.monotonic()
    data = generate(workload, seed, DEADLINE_S)
    os.makedirs(TRACES, exist_ok=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--data", data,
           "--revision", revision]
    if trace:
        cmd += ["--trace-out", os.path.join(TRACES, f"{workload}.trace.json")]
    remaining = max(10.0, DEADLINE_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, check=False, env=ENV)
    except subprocess.TimeoutExpired:
        log(f"{workload}: driver exceeded {remaining:.0f} s")
        sys.exit(1)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log(f"{workload}: driver exited with {proc.returncode}")
        sys.exit(1)
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    with open(TRAJECTORY, "a") as f:
        f.write(json.dumps({"record": record, "result": result}) + "\n")
    return record, result


def workloads():
    proc = subprocess.run([BINARY, "list"], capture_output=True, text=True,
                          check=True, env=ENV)
    return proc.stdout.split()


def run_all(seed, seconds, revision):
    """Every workload untraced then traced; prints a table, returns the exit
    code (0 when every run was correct with zero failed operations)."""
    ok = True
    for workload in workloads():
        _, plain = run_workload(workload, seed, seconds, 0, revision)
        _, traced = run_workload(workload, seed, seconds, 1, revision)
        print(f"\n== {workload} (seed {seed}) ==")
        for label, result in (("end-to-end", plain), ("per-layer", traced)):
            print(f"-- {label}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:34s} {metric['value']:16.6f} "
                      f"{metric['unit']}")
            ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")

    build()
    revision = source_revision()
    if args.all:
        sys.exit(run_all(args.seed, args.seconds, revision))
    if args.workload not in workloads():
        parser.error(f"unknown workload {args.workload!r}")
    record, result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, revision)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
