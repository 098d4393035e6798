#!/usr/bin/env python3
"""Validate bench artifacts (BENCH_<bench>.json) and the BENCH_metrics.json
metrics export.

Usage: check_bench_json.py [--reference] BENCH_kernel.json [...]

Every bench artifact shares one schema (bench/common.hpp, benchsup::Gates):

  {"bench": str, "seed": int,
   "host":    {"cores", "cpu", "compiler", "build", "simd"},
   "gates":   [{"name", "value", "op", "threshold", "noise", "pass"}],
   "equal":   [{"name", "values"}],
   "goldens": [{"scenario", "seed", "shards", "fingerprint", "events"}],
   ...bench-specific report fields, never checked here}

Each gate is defined once, in its bench. This checker holds no gate of its
own: it validates the schema and recomputes every `pass` by the benches'
rule: `value op threshold`, and for a timing gate (non-null `noise`, at
least 7 pairs, median within its quartiles) the near quartile (q1 for
">=", q3 for "<=") meeting the threshold too. It re-derives each `equal`
group (one fingerprint value, "0x" + 16 hex) and each golden against
scenarios/goldens.txt. The committed BENCH_<bench>.json at this repo's root
is the reference: an artifact must hold its gates (same kind and op), its
equal groups and, at its seed, its goldens, so a bench that stops emitting
one fails. A name component of digits only is a CLI-chosen shard count
and matches any other. An artifact at the reference's own path is refused
unless --reference says the committed files are being checked as
themselves. A document with no "bench" field is validated as a metrics
export.
"""
import json
import math
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDENS_PATH = os.path.join(ROOT, "scenarios", "goldens.txt")
MIN_PAIRS = 7
MIN_CORES = 4
OPS = {
    ">=": lambda v, t: v >= t,
    "<=": lambda v, t: v <= t,
    "==": lambda v, t: v == t,
}
HOST_KEYS = {"cores": int, "cpu": str, "compiler": str, "build": str,
             "simd": str}


class CheckError(Exception):
    pass


def fail(msg):
    raise CheckError(msg)


def is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def check_fingerprint(value, what):
    if not (isinstance(value, str) and len(value) == 18 and
            value.startswith("0x") and
            all(c in "0123456789abcdef" for c in value[2:])):
        fail(f"{what}: fingerprint {value!r} is not 0x + 16 lowercase hex")


def read_goldens(path):
    """(scenario, seed, shards) -> (fleet fingerprint, events) for the fleet
    lines of scenarios/goldens.txt (format: src/scn/golden.hpp)."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            tok = line.split("#", 1)[0].split()
            if not tok:
                continue
            if tok[0] not in ("fleet", "shard") or \
                    len(tok) != (6 if tok[0] == "fleet" else 5):
                fail(f"{path}:{lineno}: malformed golden record")
            if tok[0] == "fleet":
                out[(tok[1], int(tok[2]), int(tok[3]))] = (tok[4],
                                                           int(tok[5]))
    return out


def check_host(doc):
    host = doc.get("host")
    if not isinstance(host, dict):
        fail('top-level "host" missing')
    for key, typ in HOST_KEYS.items():
        if not isinstance(host.get(key), typ) or isinstance(host[key], bool):
            fail(f'"host.{key}" missing or not {typ.__name__}')
    if host["cores"] < 1:
        fail('"host.cores" < 1')
    return host


def check_gate(g, host):
    """Validates one gate record."""
    if not isinstance(g, dict):
        fail(f"gate {g!r} is not an object")
    name = g.get("name")
    if not isinstance(name, str) or not name:
        fail(f"gate {g!r} has no name")
    what = f'gate "{name}"'
    for key in ("value", "op", "threshold", "noise", "pass"):
        if key not in g:
            fail(f'{what} is missing "{key}"')
    if g["op"] not in OPS:
        fail(f'{what} has unknown op {g["op"]!r}')
    if not is_number(g["threshold"]):
        fail(f"{what} has a non-numeric threshold")
    noise = g["noise"]
    timing = noise is not None
    if timing:
        if not isinstance(noise, dict) or set(noise) != {"pairs", "q1", "q3"}:
            fail(f"{what}: noise must be {{pairs, q1, q3}}")
        if not isinstance(noise["pairs"], int) or \
                not is_number(noise["q1"]) or not is_number(noise["q3"]):
            fail(f"{what}: noise fields are not numbers")
    passed = g["pass"]
    if passed is None:
        # Only a build or host that cannot run the gate may leave it
        # unjudged.
        if host["cores"] >= MIN_CORES and host["simd"] != "scalar" and \
                "sanitized" not in host["build"]:
            fail(f"{what} was skipped on a {host['cores']}-core "
                 f"{host['simd']} {host['build']} build that can run it")
        return
    if not isinstance(passed, bool):
        fail(f'{what}: "pass" is {passed!r}, not a bool or null')
    value, op, threshold = g["value"], g["op"], g["threshold"]
    if not is_number(value):
        fail(f"{what} has a non-numeric value")
    verdict, why = OPS[op](value, threshold), f"{value} {op} {threshold}"
    if timing:
        if op == "==":
            fail(f"{what}: a timing gate cannot be an equality")
        if noise["pairs"] < MIN_PAIRS:
            fail(f'{what} measured {noise["pairs"]} pairs, fewer than '
                 f"{MIN_PAIRS}")
        if not noise["q1"] <= value <= noise["q3"]:
            fail(f'{what}: median {value} outside its quartiles '
                 f'{noise["q1"]}-{noise["q3"]}')
        # A gate inside its own noise measures nothing: the near quartile
        # must meet the threshold too.
        near = "q1" if op == ">=" else "q3"
        if verdict and not OPS[op](noise[near], threshold):
            verdict, why = False, f"{near} {noise[near]} {op} {threshold}"
    if verdict != passed:
        fail(f'{what}: "pass" is {passed} but {why} is {verdict}')
    if not passed:
        fail(f"{what} failed: {why} does not hold")


def check_equal(e):
    if not isinstance(e, dict) or not isinstance(e.get("name"), str):
        fail(f"equal group {e!r} has no name")
    what = f'equal group "{e["name"]}"'
    values = e.get("values")
    if not isinstance(values, list) or len(values) < 2:
        fail(f"{what} needs at least 2 values")
    for v in values:
        check_fingerprint(v, what)
    if len(set(values)) != 1:
        fail(f"{what} holds {len(set(values))} distinct values: "
             f"{sorted(set(values))}")


def check_golden(g, goldens):
    if not isinstance(g, dict):
        fail(f"golden {g!r} is not an object")
    key = (g.get("scenario"), g.get("seed"), g.get("shards"))
    what = f"golden {key[0]} seed {key[1]} x{key[2]}"
    check_fingerprint(g.get("fingerprint"), what)
    if not isinstance(g.get("events"), int):
        fail(f'{what}: "events" is not an integer')
    pinned = goldens.get(key)
    if pinned is None:
        fail(f"{what}: no fleet line in scenarios/goldens.txt")
    if (g["fingerprint"], g["events"]) != pinned:
        fail(f'{what}: {g["fingerprint"]} / {g["events"]} events, pinned '
             f"{pinned[0]} / {pinned[1]}")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def family(name):
    """`name` with each digits-only component (a CLI-chosen shard count)
    read as "#", so that sweep.8 and sweep.256 name one family."""
    return ".".join("#" if p.isdigit() else p for p in name.split("."))


def families(doc):
    """The families of the gates, equal groups and goldens `doc` holds."""
    return {
        "gates": {family(g["name"]) for g in doc["gates"]},
        "equal groups": {family(e["name"]) for e in doc["equal"]},
        "goldens": {family(f'{g["scenario"]}.{g["shards"]}')
                    for g in doc["goldens"]},
    }


def check_reference(doc, path, as_reference):
    """Compares an artifact with the committed BENCH_<bench>.json."""
    ref_path = os.path.join(ROOT, f'BENCH_{doc["bench"]}.json')
    if not os.path.exists(ref_path):
        fail(f"no committed reference {ref_path}")
    if os.path.samefile(path, ref_path):
        if as_reference:
            return
        fail("this is the committed reference itself: write the run "
             "elsewhere with --json, or pass --reference to check the "
             "committed file as itself")
    ref = load(ref_path)
    want, have = families(ref), families(doc)
    if doc["seed"] != ref["seed"]:
        del want["goldens"], have["goldens"]
    for key in want:
        if want[key] != have[key]:
            fail(f"{key} differ from {os.path.basename(ref_path)}: missing "
                 f"{sorted(want[key] - have[key])}, unexpected "
                 f"{sorted(have[key] - want[key])}")
    ref_kinds = {family(g["name"]): (g["noise"] is not None, g["op"])
                 for g in ref["gates"]}
    for g in doc["gates"]:
        timing, op = ref_kinds[family(g["name"])]
        if g["pass"] is not None and timing != (g["noise"] is not None):
            kind = "timing" if timing else "deterministic"
            fail(f'gate "{g["name"]}" is a {kind} gate in the reference')
        if op != g["op"]:
            fail(f'gate "{g["name"]}" op {g["op"]} != reference {op}')


def check_bench(doc, goldens, path, as_reference):
    bench = doc["bench"]
    if not isinstance(bench, str) or not bench.isidentifier():
        fail(f'"bench" is {bench!r}')
    if not isinstance(doc.get("seed"), int):
        fail('top-level "seed" missing or not an integer')
    host = check_host(doc)
    for key in ("gates", "equal", "goldens"):
        if not isinstance(doc.get(key), list):
            fail(f'top-level "{key}" missing or not a list')
    names = [g.get("name") if isinstance(g, dict) else None
             for g in doc["gates"]]
    if len(set(names)) != len(names):
        fail("gate names are not unique")
    for g in doc["gates"]:
        check_gate(g, host)
    for e in doc["equal"]:
        check_equal(e)
    for g in doc["goldens"]:
        check_golden(g, goldens)
    if not doc["gates"]:
        fail('"gates" is empty')
    # The committed artifact names what this bench must emit, so a bench
    # that stops emitting a gate, group or golden fails with no list kept
    # twice.
    check_reference(doc, path, as_reference)
    skipped = sum(1 for g in doc["gates"] if g["pass"] is None)
    return (f"{bench}: {len(doc['gates'])} gates ({skipped} skipped), "
            f"{len(doc['equal'])} equal groups, {len(doc['goldens'])} "
            f"goldens")


METRIC_KINDS = {"counter", "gauge", "hdr"}
# obs::layer_label's names for the five LPC layers.
METRIC_LAYERS = {"environment", "physical", "resource", "abstract",
                 "intentional"}


def check_metrics(doc):
    """A metrics export: {section: {metric-name: {layer, kind, ...}}}.

    Written by the figure benches and extended by obs_bench (the "obs"
    section: the fleet's merged registry, HDRs included).
    """
    if not doc:
        fail("metrics document is empty")
    hdrs = 0
    for section, metrics in doc.items():
        if not isinstance(metrics, dict) or not metrics:
            fail(f'metrics section "{section}" is not a non-empty object')
        for name, m in metrics.items():
            what = f'metric "{section}"."{name}"'
            if not isinstance(m, dict):
                fail(f"{what} is not an object")
            if m.get("kind") not in METRIC_KINDS:
                fail(f'{what} has unknown kind {m.get("kind")!r}')
            if m.get("layer") not in METRIC_LAYERS:
                fail(f'{what} has unknown LPC layer {m.get("layer")!r}')
            if m["kind"] in ("counter", "gauge"):
                keys = ("value",)
            else:
                keys = ("count", "p50", "p99", "p999", "min", "max", "mean")
                hdrs += 1
            for key in keys:
                if not is_number(m.get(key)):
                    fail(f'{what} has no numeric "{key}"')
            if m["kind"] == "hdr" and not m["p50"] <= m["p99"] <= m["p999"]:
                fail(f"{what} percentiles are not monotone")
    return (f"metrics: {len(doc)} sections, "
            f"{sum(len(m) for m in doc.values())} metrics, {hdrs} HDR tracks")


def check_file(path, goldens, as_reference):
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: not a JSON object")
    if "bench" in doc:
        return check_bench(doc, goldens, path, as_reference)
    if all(isinstance(v, dict) for v in doc.values()):
        return check_metrics(doc)
    fail(f'{path}: no "bench" field and not a metrics export')


def main(args):
    as_reference = "--reference" in args
    paths = [a for a in args if a != "--reference"]
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    goldens = read_goldens(GOLDENS_PATH)
    status = 0
    for path in paths:
        try:
            print(f"check_bench_json: OK ({path}: "
                  f"{check_file(path, goldens, as_reference)})")
        except (CheckError, OSError, ValueError, KeyError, TypeError) as e:
            print(f"check_bench_json: FAIL: {path}: {e}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
