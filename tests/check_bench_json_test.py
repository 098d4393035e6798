#!/usr/bin/env python3
"""Runs scripts/check_bench_json.py on the committed BENCH_*.json artifacts,
which must pass when checked as themselves (--reference) and be refused
otherwise, on mutants of them, each of which must be rejected, on a
metrics export whose only distribution kind is "hdr", and on metrics at the
intentional layer (accepted) and at an unknown one (refused).

Usage: check_bench_json_test.py   (ctest registers it as check_bench_json)
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CHECKER = os.path.join(ROOT, "scripts", "check_bench_json.py")
BENCHES = ("kernel", "fleet", "rfb", "obs")


def run_checker(paths):
    return subprocess.run([sys.executable, CHECKER, *paths],
                          capture_output=True, text=True)


def load(bench):
    with open(os.path.join(ROOT, f"BENCH_{bench}.json"),
              encoding="utf-8") as f:
        return json.load(f)


def first_gate(doc, timing):
    return next(g for g in doc["gates"]
                if (g["noise"] is not None) == timing and g["pass"])


def contradicting_pass(doc):
    g = first_gate(doc, timing=False)
    g["value"] = g["threshold"] - 1 if g["op"] != "<=" else g["threshold"] + 1


def failing_gate(doc):
    contradicting_pass(doc)
    first_gate(doc, timing=False)["pass"] = False


def timing_without_noise(doc):
    first_gate(doc, timing=True)["noise"] = None


def too_few_pairs(doc):
    first_gate(doc, timing=True)["noise"]["pairs"] = 6


def iqr_straddles(doc):
    g = first_gate(doc, timing=True)
    if g["op"] == ">=":
        g["noise"]["q1"] = g["threshold"] - 0.01
    else:
        g["noise"]["q3"] = g["threshold"] + 0.01


def equal_two_values(doc):
    values = doc["equal"][0]["values"]
    values[-1] = "0x" + ("0" if values[-1][2] != "0" else "1") + values[-1][3:]


def golden_mismatch(doc):
    g = next(g for g in doc["goldens"] if g["seed"] == 2026)
    g["events"] += 1


def missing_gate(doc):
    del doc["gates"][-1]


def missing_timing_gate(doc):
    doc["gates"] = [g for g in doc["gates"]
                    if g["name"] != "radio_256.dominant_category_speedup"]


def missing_equal_group(doc):
    doc["equal"] = [e for e in doc["equal"]
                    if e["name"] != "recovery.fingerprint"]


def missing_goldens(doc):
    doc["goldens"] = []


# (bench artifact to mutate, mutation, text the rejection must carry)
MUTANTS = [
    ("kernel", contradicting_pass, '"pass" is True but'),
    ("rfb", failing_gate, "does not hold"),
    ("kernel", timing_without_noise, "timing gate in the reference"),
    ("rfb", too_few_pairs, "fewer than 7"),
    ("fleet", iqr_straddles, '"pass" is True but q1 '),
    ("obs", iqr_straddles, '"pass" is True but q3 '),
    ("rfb", equal_two_values, "distinct values"),
    ("fleet", golden_mismatch, "pinned"),
    ("fleet", missing_gate, "missing ["),
    ("kernel", missing_timing_gate,
     "missing ['radio_256.dominant_category_speedup']"),
    ("fleet", missing_equal_group, "missing ['recovery.fingerprint']"),
    ("fleet", missing_goldens, "goldens differ"),
]


# cs_projector's rfb.server.update_bytes as the registry exports it (an HDR),
# and as the fixed-bin "histogram" kind it had before, which the checker no
# longer knows.
UPDATE_BYTES_HDR = {"layer": "abstract", "kind": "hdr", "count": 11,
                    "saturated": 0, "min": 3276, "max": 4620,
                    "mean": 3901.454545, "p50": 3903, "p99": 4620,
                    "p999": 4620}
UPDATE_BYTES_HISTOGRAM = {"layer": "abstract", "kind": "histogram",
                          "count": 11, "clamped": 0, "p50": 3456,
                          "p99": 6068.906667,
                          "bins": [0, 8, 3] + [0] * 29}


def check_metrics_export(tmp, failures):
    for entry, accepted in ((UPDATE_BYTES_HDR, True),
                            (UPDATE_BYTES_HISTOGRAM, False)):
        path = os.path.join(tmp, f"metrics_{entry['kind']}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"cs_projector": {"rfb.server.update_bytes": entry}}, f)
        result = run_checker([path])
        if accepted and result.returncode != 0:
            failures.append(f"metrics/{entry['kind']}: rejected: "
                            f"{result.stderr.strip()}")
        elif not accepted and "unknown kind 'histogram'" not in result.stderr:
            failures.append(f"metrics/{entry['kind']}: not rejected for its "
                            f"kind: {result.returncode} "
                            f"{result.stderr.strip()}")


# diag/monitor.cpp's diag.monitor.samples sits at the intentional layer;
# a layer obs::layer_label never emits is refused.
MONITOR_SAMPLES = {"layer": "intentional", "kind": "counter", "value": 42}


def check_metric_layers(tmp, failures):
    for layer, accepted in (("intentional", True), ("spiritual", False)):
        path = os.path.join(tmp, f"metrics_layer_{layer}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"diag": {"diag.monitor.samples":
                                dict(MONITOR_SAMPLES, layer=layer)}}, f)
        result = run_checker([path])
        if accepted and result.returncode != 0:
            failures.append(f"metrics/layer {layer}: rejected: "
                            f"{result.stderr.strip()}")
        elif (not accepted and
              f"unknown LPC layer '{layer}'" not in result.stderr):
            failures.append(f"metrics/layer {layer}: not rejected for its "
                            f"layer: {result.returncode} "
                            f"{result.stderr.strip()}")


def main():
    failures = []
    committed = [os.path.join(ROOT, f"BENCH_{b}.json") for b in BENCHES]
    result = run_checker(["--reference", *committed])
    if result.returncode != 0:
        failures.append(f"committed artifacts rejected:\n{result.stderr}")
    # Without --reference, a run written over its own reference is refused.
    result = run_checker(committed[:1])
    if result.returncode == 0 or "reference itself" not in result.stderr:
        failures.append(f"a committed artifact passed as a run: "
                        f"{result.stderr.strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        check_metrics_export(tmp, failures)
        check_metric_layers(tmp, failures)
        for bench, mutate, reason in MUTANTS:
            doc = copy.deepcopy(load(bench))
            mutate(doc)
            path = os.path.join(tmp, f"{bench}_{mutate.__name__}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            result = run_checker([path])
            if result.returncode == 0:
                failures.append(f"{bench}/{mutate.__name__}: accepted")
            elif reason not in result.stderr:
                failures.append(f"{bench}/{mutate.__name__}: rejected for "
                                f"another reason: {result.stderr.strip()}")
            else:
                print(f"rejected {bench}/{mutate.__name__}: "
                      f"{result.stderr.strip()}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
