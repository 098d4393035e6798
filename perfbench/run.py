#!/usr/bin/env python3
"""Scenario-fleet benchmark: build perfbench from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stadium_dense --seed 2026 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run in a checkout compiles. The last
line of standard output is the run's JSON result; --trace 1 also writes the
benchmark's spans as a Chrome trace next to the build.

--selftest runs every workload at one shard and checks that each metric named
in BENCHMARK.json is emitted with its unit, and that a wrong pinned value is
reported as a failure.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
EXE = BUILD / "perfbench"
RUN_LIMIT_S = 175  # the whole run, build excluded, must end within 180 s


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "scn" / "runtime.hpp").is_file() or not (
        ROOT / "scenarios"
    ).is_dir():
        die(f"repository sources (src/, scenarios/) not found in {ROOT}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            + gen
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def run_bench(args, capture=False):
    """Runs the binary; returns (exit code, stdout or None)."""
    cmd = [str(EXE), "--scenario-dir", str(ROOT / "scenarios")] + args
    try:
        done = subprocess.run(
            cmd,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            name = w["name"]
            code, out = run_bench(
                ["--workload", name, "--shards", "1", "--seconds", "1",
                 "--trace", str(trace)],
                capture=True,
            )
            res = last_json(out)
            if code != 0 or res is None or res.get("correct") is not True:
                problems.append(f"{name} trace {trace}: run failed (exit {code})")
                continue
            got = res["metrics"]
            for m, unit in want.items():
                v = got.get(m)
                if v is None:
                    problems.append(f"{name} trace {trace}: {m} missing")
                elif v.get("unit") != unit or not isinstance(
                    v.get("value"), (int, float)
                ):
                    problems.append(f"{name} trace {trace}: {m} has {v}")
            for m in set(got) - set(want):
                problems.append(f"{name} trace {trace}: {m} not in BENCHMARK.json")
    # A wrong pinned value must surface as a failure, not as a pass.
    w = spec["workloads"][0]["name"]
    code, out = run_bench(
        ["--workload", w, "--shards", "1", "--seconds", "1", "--trace", "0",
         "--corrupt-pin"],
        capture=True,
    )
    res = last_json(out)
    if code == 0 or res is None or res["correct"] or res["failed"] != res["attempted"]:
        problems.append(f"{w}: wrong pin was not reported as a failure")
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if a.selftest:
        return selftest()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out", str(BUILD / f"spans-{a.workload}-{a.seed}.json")]
    code, _ = run_bench(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
