#!/usr/bin/env python3
"""Validate the machine-readable output of bench/kernel_bench,
bench/fleet_bench, bench/rfb_bench, bench/snap_bench, bench/obs_bench,
bench/disco_bench, and bench/scn_bench, plus the BENCH_metrics.json
metrics export.

Usage: check_bench_json.py BENCH_kernel.json [BENCH_obs.json ...]

Dispatches on each document's top-level "bench" field ("kernel", "fleet",
"rfb", "snap", "obs", "disco", or "scn"); a document with no "bench" field
is validated as a metrics export. Checks structure plus machine-independent invariants (replica
fingerprints, byte ratios) -- never absolute performance, which is
machine-dependent. CI runs this after the bench smoke runs so a refactor
that silently stops emitting a field (or the per-category profiler
breakdown) fails the build.
"""
import json
import os
import sys

EXPECTED_SCENARIOS = {"churn", "timers", "radio_8", "radio_64", "radio_256"}
SCENARIO_KEYS = {
    "scenario": str,
    "events": int,
    "wall_sec": float,
    "events_per_sec": float,
    "peak_pending": int,
    "fingerprint": str,
    "categories": dict,
}
# sim/profiler.hpp's EventCategory names; category maps must not invent keys.
KNOWN_CATEGORIES = {
    "none", "timer", "mac", "radio", "stream", "lease",
    "discovery", "rfb", "diag", "app", "other",
}
KERNEL_BATCHING_KEYS = {
    "scalar_wall_sec": float,
    "scalar_fingerprint": str,
    "fingerprint_match": bool,
    "speedup": float,
    "absorbed": int,
    "dispatched": int,
    "per_category": list,
}
KERNEL_RADIO_KEYS = {
    "resolve_calls": int,
    "queries": int,
    "memo_hits": int,
    "memo_misses": int,
    "fallback_queries": int,
    "sweep_hits": int,
    "sweep_misses": int,
    "cca_hits": int,
    "cca_misses": int,
}

FLEET_RUN_KEYS = {
    "shards": int,
    "workers": int,
    "wall_s": float,
    "events": int,
    "events_per_s": float,
    "efficiency_vs_1_worker": float,
    "steals": int,
    "stolen_tasks": int,
    "fleet_fingerprint": str,
}
FLEET_ALLOC_KEYS = {
    "shards": int,
    "heap_allocs_arena_off": int,
    "heap_allocs_arena_on": int,
    "arena_allocations": int,
    "arena_recycled": int,
    "arena_heap_fallbacks": int,
    "arena_chunks": int,
    "fingerprint_match": bool,
}
FLEET_SCALE_RUN_KEYS = {
    "workers": int,
    "wall_s": float,
    "events": int,
    "rooms_per_s": float,
    "events_per_s": float,
    "efficiency_vs_1_worker": float,
    "control_bytes": int,
    "control_frames": int,
    "control_bytes_per_event": float,
    "fleet_fingerprint": str,
}
FLEET_MIGRATION_KEYS = {
    "shards": int,
    "workers": int,
    "planned": int,
    "migrations": int,
    "latency": dict,
    "fingerprint_match": bool,
    "checkpoints_streamed": int,
    "control_bytes": int,
    "control_bytes_per_checkpoint": float,
}
FLEET_RECOVERY_KEYS = {
    "shards": int,
    "workers": int,
    "killed_worker": int,
    "kill_mode": str,
    "worker_deaths": int,
    "lost_shards": int,
    "recovery_ms": float,
    "issues_filed": int,
    "fingerprint_match": bool,
}


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_keys(obj, spec, what):
    for key, typ in spec.items():
        if key not in obj:
            fail(f'{what} is missing key "{key}"')
        val = obj[key]
        # JSON integers satisfy float fields.
        if typ is float and isinstance(val, int):
            val = float(val)
        if not isinstance(val, typ):
            fail(f'{what} key "{key}" has type '
                 f"{type(obj[key]).__name__}, expected {typ.__name__}")


def check_fingerprint(value, what):
    if not (value.startswith("0x") and len(value) == 18):
        fail(f"{what} fingerprint is not 0x + 16 hex chars: {value!r}")
    try:
        int(value, 16)
    except ValueError:
        fail(f"{what} fingerprint is not hex: {value!r}")


GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "scenarios", "goldens.txt")


def read_smart_projector_goldens(path, seed):
    """shards -> (fleet fingerprint, executed events) for the smart_projector
    fleet lines of scenarios/goldens.txt at `seed` (format:
    src/scn/golden.hpp). tests/scn_test.cpp and bench/scn_bench.cpp read the
    same file."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            tok = line.split("#", 1)[0].split()
            if not tok:
                continue
            if tok[0] not in ("fleet", "shard") or \
                    len(tok) != (6 if tok[0] == "fleet" else 5):
                fail(f"{path}:{lineno}: malformed golden record")
            if tok[0] == "fleet" and tok[1] == "smart_projector" and \
                    int(tok[2]) == seed:
                out[int(tok[3])] = (tok[4], int(tok[5]))
    return out


# Pinned fleet results of scenarios/smart_projector.scn at GOLDEN_SEED;
# fleet, snap and scn artifacts recorded at this seed must reproduce them.
GOLDEN_SEED = 2026
SMART_PROJECTOR_GOLDENS = read_smart_projector_goldens(GOLDENS_PATH,
                                                       GOLDEN_SEED)


def check_golden(doc, shards, fingerprint, events, what):
    """Fails when a smart_projector fleet result at the golden seed drifts
    from its pinned value. Returns True when a golden applied."""
    golden = SMART_PROJECTOR_GOLDENS.get(shards)
    if doc.get("seed") != GOLDEN_SEED or golden is None:
        return False
    if fingerprint != golden[0]:
        fail(f"{what}: fingerprint {fingerprint} != pinned {golden[0]}")
    if events is not None and events != golden[1]:
        fail(f"{what}: {events} events != pinned {golden[1]}")
    return True


def check_kernel(doc):
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        fail('top-level "scenarios" missing or empty')

    names = set()
    for s in scenarios:
        name = s.get("scenario", "<unnamed>")
        names.add(name)
        check_keys(s, SCENARIO_KEYS, f'scenario "{name}"')
        if s["events"] <= 0:
            fail(f'scenario "{name}" reports no events')
        if s["events_per_sec"] <= 0:
            fail(f'scenario "{name}" reports non-positive throughput')
        if len(s["fingerprint"]) != 16:
            fail(f'scenario "{name}" fingerprint is not 16 hex chars: '
                 f'{s["fingerprint"]!r}')
        cats = s["categories"]
        if not cats:
            fail(f'scenario "{name}" has an empty "categories" breakdown')
        unknown = set(cats) - KNOWN_CATEGORIES
        if unknown:
            fail(f'scenario "{name}" has unknown categories: {sorted(unknown)}')
        if any(not isinstance(v, int) or v < 0 for v in cats.values()):
            fail(f'scenario "{name}" has non-integer category counts')
        if sum(cats.values()) != s["events"]:
            fail(f'scenario "{name}": category counts sum to '
                 f'{sum(cats.values())}, but "events" is {s["events"]}')

        # Batching efficacy: scalar-vs-batched leg comparison, re-checked
        # from the artifact. Fingerprints must match (batching is a pure
        # mechanical optimization) and the absorbed/dispatched split must
        # account for every event.
        b = s.get("batching")
        if not isinstance(b, dict):
            fail(f'scenario "{name}" is missing its "batching" section')
        check_keys(b, KERNEL_BATCHING_KEYS, f'scenario "{name}" batching')
        if not b["fingerprint_match"]:
            fail(f'scenario "{name}": scalar and batched legs disagree '
                 f'({b["scalar_fingerprint"]} vs {s["fingerprint"]})')
        if b["scalar_fingerprint"] != s["fingerprint"]:
            fail(f'scenario "{name}": fingerprint_match contradicts the '
                 f"fingerprints")
        if b["absorbed"] + b["dispatched"] != s["events"]:
            fail(f'scenario "{name}": absorbed {b["absorbed"]} + dispatched '
                 f'{b["dispatched"]} != events {s["events"]}')
        for co in b["per_category"]:
            cname = co.get("category", "<unnamed>")
            if co.get("absorbed", 0) > co.get("executed", 0):
                fail(f'scenario "{name}" category "{cname}": absorbed '
                     f"exceeds executed")
        if name.startswith("radio"):
            radio = b.get("radio")
            if not isinstance(radio, dict):
                fail(f'scenario "{name}" batching is missing "radio" stats')
            check_keys(radio, KERNEL_RADIO_KEYS, f'"{name}" batching.radio')
            if radio["queries"] <= 0:
                fail(f'scenario "{name}": batch path resolved no queries')
        gate = b.get("gate")
        if name == "radio_256":
            if not isinstance(gate, dict):
                fail('scenario "radio_256" is missing its self-gate record')
            if gate.get("passed") is not True:
                fail(f'radio_256 gate failed: {gate.get("category")} speedup '
                     f'{gate.get("speedup")} < {gate.get("min_speedup")}')
            if gate.get("speedup", 0) < gate.get("min_speedup", 2.0):
                fail('radio_256 gate "passed" contradicts its speedup')

    missing = EXPECTED_SCENARIOS - names
    # A substring filter run is allowed, but the default CI smoke runs all.
    if missing:
        fail(f"missing scenarios: {sorted(missing)}")

    print(f"check_bench_json: OK ({len(scenarios)} scenarios, "
          f"{sum(s['events'] for s in scenarios)} events total)")


def check_fleet(doc):
    if not isinstance(doc.get("hw_workers"), int) or doc["hw_workers"] < 1:
        fail('"hw_workers" missing or < 1')
    if not isinstance(doc.get("efficiency_gate_active"), bool):
        fail('"efficiency_gate_active" missing or not a bool')

    alloc = doc.get("alloc")
    if not isinstance(alloc, dict):
        fail('top-level "alloc" missing')
    check_keys(alloc, FLEET_ALLOC_KEYS, '"alloc"')
    if not alloc["fingerprint_match"]:
        fail("arena on/off runs produced different fingerprints")
    if alloc["arena_allocations"] <= 0:
        fail("arena served no allocations -- the arena is not wired in")
    if alloc["heap_allocs_arena_on"] >= alloc["heap_allocs_arena_off"]:
        fail("arena mode did not reduce heap allocations "
             f'({alloc["heap_allocs_arena_on"]} >= '
             f'{alloc["heap_allocs_arena_off"]})')

    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail('top-level "runs" missing or empty')
    by_shards = {}
    for r in runs:
        what = (f'run shards={r.get("shards")} workers={r.get("workers")}')
        check_keys(r, FLEET_RUN_KEYS, what)
        if r["events"] <= 0:
            fail(f"{what} reports no events")
        if r["events_per_s"] <= 0:
            fail(f"{what} reports non-positive throughput")
        check_fingerprint(r["fleet_fingerprint"], what)
        by_shards.setdefault(r["shards"], set()).add(r["fleet_fingerprint"])
    # The determinism contract, re-checked from the artifact itself: every
    # worker count at a given shard count reports one fingerprint.
    for shards, fps in by_shards.items():
        if len(fps) != 1:
            fail(f"shards={shards} has {len(fps)} distinct fingerprints: "
                 f"{sorted(fps)}")

    det = doc.get("determinism")
    if not isinstance(det, dict) or not det.get("fingerprints_identical"):
        fail('"determinism.fingerprints_identical" is not true')

    # The in-process fleet runs the compiled smart_projector scenario: at
    # the golden seed every pinned shard count must land on its golden.
    goldens_hit = 0
    for r in runs:
        goldens_hit += check_golden(
            doc, r["shards"], r["fleet_fingerprint"], r["events"],
            f'run shards={r["shards"]} workers={r["workers"]}')
    if doc.get("seed") == GOLDEN_SEED and goldens_hit == 0:
        fail("no fleet run at a pinned shard count "
             f"{sorted(SMART_PROJECTOR_GOLDENS)}")

    # Multi-process legs (src/fleet): scale-out across worker processes,
    # 1-vs-N equivalence, live migration, kill recovery, zero-alloc
    # checkpoint streaming. Every gate is re-checked from the artifact.
    proc = doc.get("proc")
    if not isinstance(proc, dict):
        fail('top-level "proc" missing')
    if "error" in proc:
        fail(f'multi-process legs aborted: {proc["error"]!r}')

    # Scale-out runs rooms of one compiled scenario; smart_projector at the
    # golden seed must land on its pinned fleet result at every worker count.
    scale = proc.get("scale_out")
    if not isinstance(scale, dict):
        fail('"proc.scale_out" missing')
    check_keys(scale, {"scenario": str, "shards": int,
                       "single_process_events": int},
               '"proc.scale_out"')
    for key in ("matches_single_process", "fingerprints_identical",
                "efficiency_ok"):
        if scale.get(key) is not True:
            fail(f'"proc.scale_out.{key}" is not true')
    check_fingerprint(scale.get("single_process_fingerprint", ""),
                      "proc.scale_out")
    scale_runs = scale.get("runs")
    if not isinstance(scale_runs, list) or not scale_runs:
        fail('"proc.scale_out.runs" missing or empty')
    scale_fps = set()
    for r in scale_runs:
        what = f'scale-out run workers={r.get("workers")}'
        check_keys(r, FLEET_SCALE_RUN_KEYS, what)
        if r["events"] <= 0 or r["events_per_s"] <= 0 or r["rooms_per_s"] <= 0:
            fail(f"{what} reports no throughput")
        if r["events"] != scale["single_process_events"]:
            fail(f'{what}: {r["events"]} events != single-process '
                 f'{scale["single_process_events"]}')
        check_fingerprint(r["fleet_fingerprint"], what)
        scale_fps.add(r["fleet_fingerprint"])
    if scale_fps != {scale["single_process_fingerprint"]}:
        fail(f"scale-out fingerprints {sorted(scale_fps)} != single-process "
             f'{scale["single_process_fingerprint"]}')
    if scale["scenario"] == "smart_projector":
        check_golden(doc, scale["shards"], scale["single_process_fingerprint"],
                     scale["single_process_events"], "proc.scale_out")

    equiv = proc.get("equivalence")
    if not isinstance(equiv, dict):
        fail('"proc.equivalence" missing')
    for key in ("fingerprint_match", "events_match", "metrics_match"):
        if equiv.get(key) is not True:
            fail(f'"proc.equivalence.{key}" is not true')
    check_fingerprint(equiv.get("fleet_fingerprint", ""), "proc.equivalence")

    mig = proc.get("migration")
    if not isinstance(mig, dict):
        fail('"proc.migration" missing')
    check_keys(mig, FLEET_MIGRATION_KEYS, '"proc.migration"')
    if not mig["fingerprint_match"]:
        fail("live migration changed the fleet fingerprint")
    if mig["migrations"] < 1 or mig["migrations"] != mig["planned"]:
        fail(f'executed {mig["migrations"]} of {mig["planned"]} planned '
             "migrations")
    lat = mig["latency"]
    check_keys(lat, {"count": int, "p50_ns": int, "p99_ns": int},
               '"proc.migration.latency"')
    if lat["count"] != mig["migrations"]:
        fail("migration latency HDR count disagrees with the migration "
             "counter")
    if not 0 < lat["p50_ns"] <= lat["p99_ns"]:
        fail("migration latency percentiles are not monotone positive")
    if mig["checkpoints_streamed"] <= 0 or mig["control_bytes"] <= 0:
        fail("migration leg streamed no checkpoints")

    recov = proc.get("recovery")
    if not isinstance(recov, dict):
        fail('"proc.recovery" missing')
    check_keys(recov, FLEET_RECOVERY_KEYS, '"proc.recovery"')
    if not recov["fingerprint_match"]:
        fail("kill recovery changed the fleet fingerprint")
    if recov["worker_deaths"] != 1:
        fail(f'expected exactly 1 worker death, got {recov["worker_deaths"]}')
    if recov["lost_shards"] != 0:
        fail(f'{recov["lost_shards"]} shards were lost after the kill')
    if recov["issues_filed"] < 1:
        fail("the worker death filed no lpc-classified issue")

    # Gated: the checkpoint serialization and the Channel send the worker
    # repeats. sim_heap_allocs (the room's simulation between checkpoints)
    # is reported, not gated: simulation allocates by design.
    za = proc.get("zero_alloc")
    if not isinstance(za, dict):
        fail('"proc.zero_alloc" missing')
    check_keys(za, {"scenario": str, "iterations": int, "heap_allocs": int,
                    "sim_heap_allocs": int, "ok": bool},
               '"proc.zero_alloc"')
    if za.get("ok") is not True or za.get("heap_allocs") != 0:
        fail(f'checkpoint streaming allocated {za.get("heap_allocs")!r} '
             f'times over {za.get("iterations")!r} iterations')
    if za.get("iterations", 0) <= 0:
        fail('"proc.zero_alloc.iterations" is not positive')

    print(f"check_bench_json: OK (fleet: {len(runs)} runs, "
          f"{len(by_shards)} shard counts, arena saved "
          f"{alloc['heap_allocs_arena_off'] - alloc['heap_allocs_arena_on']}"
          f" heap allocs; proc: {len(scale_runs)} scale-out runs over "
          f'{scale["shards"]} {scale["scenario"]} rooms, '
          f'{mig["migrations"]} migrations '
          f'p99 {lat["p99_ns"]/1e3:.0f}us, recovery '
          f'{recov["recovery_ms"]:.2f}ms, 0 steady-state allocs)')


RFB_RUN_KEYS = {
    "scenario": str,
    "encoding": str,
    "bitrate_mbps": float,
    "updates_sent": int,
    "bytes_sent": int,
    "effective_fps": float,
    "tiles_encoded": int,
    "cache_hits": int,
    "tiles_skipped": int,
    "cache_hit_rate": float,
    "decode_errors": int,
    "replica_hash": str,
    "synced": bool,
}
RFB_THROUGHPUT_KEYS = {
    "encoding": str,
    "zero_copy_mb_s": float,
    "reference_mb_s": float,
    "speedup": float,
    "bytes_equal": bool,
}
RFB_KERNEL_KEYS = {
    "kernel": str,
    "simd_mb_s": float,
    "reference_mb_s": float,
    "speedup": float,
    "oracle_equal": bool,
}
RFB_SCENARIOS = {"slides", "animation", "typing"}
RFB_ENCODINGS = {"raw", "rle", "tiled", "cached"}
RFB_SIMD_KERNELS = {"tile_hash", "solid_scan", "rle_scan"}


def check_rfb(doc):
    runs = doc.get("scenarios")
    if not isinstance(runs, list) or not runs:
        fail('top-level "scenarios" missing or empty')

    by_point = {}
    slides_bytes = {}
    min_bitrate = min(float(r.get("bitrate_mbps", 1e9)) for r in runs)
    for r in runs:
        what = (f'rfb run {r.get("scenario")}/{r.get("encoding")}'
                f'@{r.get("bitrate_mbps")}Mbps')
        check_keys(r, RFB_RUN_KEYS, what)
        if r["scenario"] not in RFB_SCENARIOS:
            fail(f'{what} has unknown scenario {r["scenario"]!r}')
        if r["encoding"] not in RFB_ENCODINGS:
            fail(f'{what} has unknown encoding {r["encoding"]!r}')
        if not r["synced"]:
            fail(f"{what} did not converge to an identical replica")
        if r["decode_errors"] != 0:
            fail(f'{what} reports {r["decode_errors"]} decode errors')
        if r["updates_sent"] <= 0 or r["bytes_sent"] <= 0:
            fail(f"{what} sent no updates")
        check_fingerprint(r["replica_hash"], what)
        by_point.setdefault((r["scenario"], r["bitrate_mbps"]),
                            set()).add(r["replica_hash"])
        if r["scenario"] == "slides" and r["bitrate_mbps"] == min_bitrate:
            slides_bytes[r["encoding"]] = r["bytes_sent"]

    # Observational equivalence, re-derived from the artifact: every
    # encoding at a given (scenario, bitrate) ends with the same replica.
    for point, hs in by_point.items():
        if len(hs) != 1:
            fail(f"scenario {point} has {len(hs)} distinct replica hashes: "
                 f"{sorted(hs)}")

    # The cache must pay on slide revisits, re-derived from byte counts.
    gates = doc.get("gates")
    if not isinstance(gates, dict):
        fail('top-level "gates" missing')
    min_ratio = gates.get("min_cached_ratio")
    if not isinstance(min_ratio, (int, float)):
        fail('"gates.min_cached_ratio" missing')
    if "tiled" not in slides_bytes or "cached" not in slides_bytes:
        fail("slides runs at the lowest bitrate are missing tiled/cached")
    ratio = slides_bytes["tiled"] / slides_bytes["cached"]
    if ratio < min_ratio:
        fail(f"slides cached/tiled byte ratio {ratio:.2f} < {min_ratio}")
    for key in ("all_synced", "replica_hash_consistent"):
        if gates.get(key) is not True:
            fail(f'"gates.{key}" is not true')

    tp = doc.get("encode_throughput")
    if not isinstance(tp, list) or not tp:
        fail('top-level "encode_throughput" missing or empty')
    for t in tp:
        what = f'throughput {t.get("encoding")}'
        check_keys(t, RFB_THROUGHPUT_KEYS, what)
        if not t["bytes_equal"]:
            fail(f"{what}: zero-copy output differed from the reference")
        if t["zero_copy_mb_s"] <= 0:
            fail(f"{what} reports non-positive throughput")

    # SIMD inner loops: oracle equality always; the tile-hash speedup gate
    # only when a SIMD backend was compiled in (scalar builds skip it).
    batching = doc.get("batching")
    if not isinstance(batching, dict):
        fail('top-level "batching" missing')
    if not isinstance(batching.get("simd_backend"), str):
        fail('"batching.simd_backend" missing')
    if not isinstance(batching.get("simd_enabled"), bool):
        fail('"batching.simd_enabled" missing')
    kernels = batching.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        fail('"batching.kernels" missing or empty')
    seen_kernels = set()
    for k in kernels:
        what = f'simd kernel {k.get("kernel")}'
        check_keys(k, RFB_KERNEL_KEYS, what)
        seen_kernels.add(k["kernel"])
        if not k["oracle_equal"]:
            fail(f"{what}: disagrees with its scalar oracle")
        if k["simd_mb_s"] <= 0 or k["reference_mb_s"] <= 0:
            fail(f"{what}: non-positive throughput")
    if seen_kernels != RFB_SIMD_KERNELS:
        fail(f"simd kernels {sorted(seen_kernels)} != "
             f"{sorted(RFB_SIMD_KERNELS)}")
    if gates.get("simd_oracles_equal") is not True:
        fail('"gates.simd_oracles_equal" is not true')
    if batching["simd_enabled"]:
        if gates.get("simd_gate_applied") is not True:
            fail("SIMD backend compiled in but the speedup gate did not run")
        if gates.get("simd_gate_ok") is not True:
            fail(f'tile-hash speedup {gates.get("tile_hash_speedup")} below '
                 f'gate {gates.get("min_simd_speedup")}')
    backend = batching["simd_backend"]

    print(f"check_bench_json: OK (rfb: {len(runs)} display runs, "
          f"{len(by_point)} scenario points, slide cache ratio {ratio:.1f}x, "
          f"simd backend {backend})")


SNAP_RUN_KEYS = {
    "shards": int,
    "capture_workers": int,
    "restore_workers": int,
    "blob_bytes_total": int,
    "blob_bytes_avg": float,
    "reference_wall_s": float,
    "restore_wall_s": float,
    "reference_fingerprint": str,
    "checkpointed_fingerprint": str,
    "restored_fingerprint": str,
    "checkpoint_match": bool,
    "restore_match": bool,
}
SNAP_INCR_KEYS = {
    "cadence_s": float,
    "cycles": int,
    "full_bytes": int,
    "incremental_bytes_avg": float,
    "incremental_bytes_max": int,
    "ratio": float,
    "min_ratio_gate": float,
    "chain_materializes": bool,
    "deferral_steps": int,
}
SNAP_THROUGHPUT_KEYS = {
    "blob_bytes": int,
    "save_iters": int,
    "save_mb_per_s": float,
    "restore_iters": int,
    "restore_mb_per_s": float,
}


def check_snap(doc):
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail('top-level "runs" missing or empty')
    for r in runs:
        what = f'snap run shards={r.get("shards")}'
        check_keys(r, SNAP_RUN_KEYS, what)
        if r["blob_bytes_total"] <= 0:
            fail(f"{what} wrote an empty checkpoint blob")
        for key in ("reference_fingerprint", "checkpointed_fingerprint",
                    "restored_fingerprint"):
            check_fingerprint(r[key], f"{what} {key}")
        # The durability contract, re-checked from the artifact itself:
        # checkpointing must not perturb the run, and the restored fleet
        # (different worker count) must land on the reference fingerprint.
        if r["checkpointed_fingerprint"] != r["reference_fingerprint"]:
            fail(f"{what}: checkpointing perturbed the run")
        if r["restored_fingerprint"] != r["reference_fingerprint"]:
            fail(f"{what}: restored fleet diverged from the reference")
        if not (r["checkpoint_match"] and r["restore_match"]):
            fail(f"{what}: match flags contradict the fingerprints")
        check_golden(doc, r["shards"], r["reference_fingerprint"], None,
                     what)

    incr = doc.get("incremental")
    if not isinstance(incr, dict):
        fail('top-level "incremental" missing')
    check_keys(incr, SNAP_INCR_KEYS, '"incremental"')
    if not incr["chain_materializes"]:
        fail("incremental chain did not materialize the full blob")
    if incr["ratio"] < incr["min_ratio_gate"]:
        fail(f'incremental ratio {incr["ratio"]:.2f} < gate '
             f'{incr["min_ratio_gate"]}')

    tp = doc.get("throughput")
    if not isinstance(tp, dict):
        fail('top-level "throughput" missing')
    check_keys(tp, SNAP_THROUGHPUT_KEYS, '"throughput"')
    if tp["save_mb_per_s"] <= 0 or tp["restore_mb_per_s"] <= 0:
        fail("non-positive save/restore throughput")

    gates = doc.get("gates")
    if not isinstance(gates, dict):
        fail('top-level "gates" missing')
    for key in ("fingerprints_match", "incremental_ratio_ok",
                "chain_materializes"):
        if gates.get(key) is not True:
            fail(f'"gates.{key}" is not true')

    print(f"check_bench_json: OK (snap: {len(runs)} shard counts, "
          f'incremental ratio {incr["ratio"]:.1f}x, '
          f'blob {incr["full_bytes"]} B)')


OBS_RUN_KEYS = {
    "shards": int,
    "workers": int,
    "reps": int,
    "plane_off_wall_s": float,
    "plane_on_wall_s": float,
    "overhead_pct": float,
    "overhead_gated": bool,
    "plane_off_fingerprint": str,
    "plane_on_fingerprint": str,
    "fingerprint_match": bool,
}
OBS_FAULT_KEYS = {
    "fired": bool,
    "fires": int,
    "fire_at_ns": int,
    "dump_bytes": int,
    "dump_parses": bool,
    "replay_reaches_fault": bool,
    "replay_events": int,
}
OBS_GATES = (
    "fingerprints_match", "overhead_ok", "latency_instrumented",
    "stall_detected", "jam_detected", "stall_replay_reaches_fault",
    "jam_replay_reaches_fault",
)


def check_obs(doc):
    max_overhead = doc.get("max_overhead_pct")
    if not isinstance(max_overhead, (int, float)):
        fail('"max_overhead_pct" missing')

    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail('top-level "runs" missing or empty')
    gated = []
    for r in runs:
        what = f'obs run shards={r.get("shards")}'
        check_keys(r, OBS_RUN_KEYS, what)
        for key in ("plane_off_fingerprint", "plane_on_fingerprint"):
            check_fingerprint(r[key], f"{what} {key}")
        # The perturbation contract, re-checked from the artifact: the
        # plane-on fleet must land on the plane-off fingerprint.
        if r["plane_off_fingerprint"] != r["plane_on_fingerprint"]:
            fail(f"{what}: the plane perturbed the run")
        if not r["fingerprint_match"]:
            fail(f"{what}: fingerprint_match contradicts the fingerprints")
        if r["plane_off_wall_s"] <= 0 or r["plane_on_wall_s"] <= 0:
            fail(f"{what}: non-positive wall time")
        if r["overhead_gated"]:
            gated.append(r)
    if len(gated) != 1:
        fail(f"expected exactly 1 overhead-gated run, found {len(gated)}")
    if gated[0]["shards"] != max(r["shards"] for r in runs):
        fail("the overhead gate did not run at the largest shard count")
    if gated[0]["overhead_pct"] > max_overhead:
        fail(f'gated overhead {gated[0]["overhead_pct"]:.2f}% > '
             f"{max_overhead}%")

    latency = doc.get("latency")
    if not isinstance(latency, dict) or not latency:
        fail('top-level "latency" missing or empty')
    for name, track in latency.items():
        what = f'latency "{name}"'
        check_keys(track, {"count": int, "p50": float, "p99": float,
                           "p999": float}, what)
        if track["count"] <= 0:
            fail(f"{what} recorded no values")
        if not track["p50"] <= track["p99"] <= track["p999"]:
            fail(f"{what} percentiles are not monotone")

    faults = doc.get("faults")
    if not isinstance(faults, dict):
        fail('top-level "faults" missing')
    for name in ("stall", "jam"):
        f_ = faults.get(name)
        if not isinstance(f_, dict):
            fail(f'"faults.{name}" missing')
        what = f'fault "{name}"'
        check_keys(f_, OBS_FAULT_KEYS, what)
        # The detect-and-time-travel contract: the watchdog fired, its
        # black box parsed, and the replay reached the faulting event.
        if not f_["fired"] or f_["fires"] < 1:
            fail(f"{what}: watchdog stayed silent")
        if f_["dump_bytes"] <= 0 or not f_["dump_parses"]:
            fail(f"{what}: flight dump missing or unparseable")
        if not f_["replay_reaches_fault"] or f_["replay_events"] <= 0:
            fail(f"{what}: replay never reached the dump's last event")

    gates = doc.get("gates")
    if not isinstance(gates, dict):
        fail('top-level "gates" missing')
    for key in OBS_GATES:
        if gates.get(key) is not True:
            fail(f'"gates.{key}" is not true')

    print(f"check_bench_json: OK (obs: {len(runs)} shard counts, gated "
          f'overhead {gated[0]["overhead_pct"]:.2f}% <= {max_overhead}%, '
          f"{len(latency)} latency tracks, both faults replayed)")


DISCO_INDEX_KEYS = {
    "services": int,
    "equality_queries": int,
    "fp_indexed": str,
    "fp_scan": str,
    "indexed_ops_per_sec": float,
    "scan_ops_per_sec": float,
    "speedup": float,
}
DISCO_CACHE_KEYS = {
    "probes": int,
    "hits": int,
    "misses": int,
    "negative_hits": int,
    "invalidations": int,
    "evictions": int,
    "hit_rate": float,
}
DISCO_OVERLOAD_KEYS = {
    "offered_per_sec": float,
    "lookups_offered": int,
    "answered": int,
    "answered_nonempty": int,
    "shed": int,
    "max_queue": int,
    "capacity": int,
    "issues_filed": int,
    "hdr_count": int,
    "p50_us": int,
    "p99_us": int,
    "p99_bound_us": int,
}
DISCO_GATEWAY_KEYS = {
    "sessions": int,
    "renewals_per_session": int,
    "naive_wakeups": int,
    "gateway_wakeups": int,
    "expired": int,
    "reduction": float,
    "sessions_per_sec": float,
    "fingerprint": str,
}
DISCO_GATES = (
    "index_matches_oracle", "index_speedup_ok", "cache_hit_rate_ok",
    "overload_shed_engaged", "overload_queue_bounded", "overload_p99_bounded",
    "gateway_reduction_ok", "gateway_deterministic",
    "fleet_fingerprint_stable",
)


def check_disco(doc):
    idx = doc.get("index")
    if not isinstance(idx, dict):
        fail('top-level "index" missing')
    check_keys(idx, DISCO_INDEX_KEYS, '"index"')
    check_fingerprint(idx["fp_indexed"], "index fp_indexed")
    check_fingerprint(idx["fp_scan"], "index fp_scan")
    # The oracle contract, re-checked from the artifact itself: the inverted
    # index must return bit-identical ids to the retained linear scan.
    if idx["fp_indexed"] != idx["fp_scan"]:
        fail(f'indexed matching diverged from the scan oracle '
             f'({idx["fp_indexed"]} vs {idx["fp_scan"]})')
    if idx["equality_queries"] <= 0:
        fail("index leg compared no queries against the oracle")
    if idx["indexed_ops_per_sec"] <= 0 or idx["scan_ops_per_sec"] <= 0:
        fail("index leg reports non-positive throughput")
    speedup = idx["indexed_ops_per_sec"] / idx["scan_ops_per_sec"]
    if speedup < 5.0:
        fail(f"index speedup {speedup:.1f}x below the 5x gate")
    if abs(speedup - idx["speedup"]) > 0.01 * max(speedup, idx["speedup"]):
        fail(f'reported speedup {idx["speedup"]:.2f} contradicts the '
             f"throughput fields ({speedup:.2f})")

    cache = doc.get("cache")
    if not isinstance(cache, dict):
        fail('top-level "cache" missing')
    check_keys(cache, DISCO_CACHE_KEYS, '"cache"')
    if cache["hits"] + cache["misses"] != cache["probes"]:
        fail(f'cache hits {cache["hits"]} + misses {cache["misses"]} != '
             f'probes {cache["probes"]}')
    hit_rate = cache["hits"] / cache["probes"]
    if hit_rate < 0.8:
        fail(f"cache hit rate {hit_rate:.3f} below the 0.80 gate")
    if cache["invalidations"] <= 0:
        fail("cache leg never exercised epoch invalidation")

    ov = doc.get("overload")
    if not isinstance(ov, dict):
        fail('top-level "overload" missing')
    check_keys(ov, DISCO_OVERLOAD_KEYS, '"overload"')
    if ov["shed"] <= 0:
        fail("overload leg never shed a lookup -- admission not engaged")
    if ov["max_queue"] > ov["capacity"]:
        fail(f'admission queue {ov["max_queue"]} exceeded capacity '
             f'{ov["capacity"]}')
    if ov["answered"] != ov["lookups_offered"]:
        fail(f'{ov["lookups_offered"]} lookups offered but only '
             f'{ov["answered"]} answered')
    if ov["hdr_count"] <= 0:
        fail("overload leg recorded no lookup latencies in the HDR track")
    if not 0 < ov["p50_us"] <= ov["p99_us"]:
        fail("overload latency percentiles are not monotone positive")
    if ov["p99_us"] > ov["p99_bound_us"]:
        fail(f'overload p99 {ov["p99_us"]}us breaches the computed bound '
             f'{ov["p99_bound_us"]}us')
    if ov["issues_filed"] <= 0:
        fail("shedding engaged but no lpc issues were filed")

    gw = doc.get("gateway")
    if not isinstance(gw, dict):
        fail('top-level "gateway" missing')
    check_keys(gw, DISCO_GATEWAY_KEYS, '"gateway"')
    check_fingerprint(gw["fingerprint"], "gateway")
    if gw["expired"] != gw["sessions"]:
        fail(f'{gw["sessions"]} sessions churned but {gw["expired"]} expired')
    if gw["gateway_wakeups"] <= 0:
        fail("gateway leg armed no wakeups")
    reduction = gw["naive_wakeups"] / gw["gateway_wakeups"]
    if reduction < 5.0:
        fail(f"gateway wakeup reduction {reduction:.1f}x below the 5x gate")

    fleet = doc.get("fleet")
    if not isinstance(fleet, dict):
        fail('top-level "fleet" missing')
    fps = fleet.get("fingerprints")
    workers = fleet.get("worker_counts")
    if not isinstance(fps, list) or not fps:
        fail('"fleet.fingerprints" missing or empty')
    if not isinstance(workers, list) or len(workers) != len(fps):
        fail('"fleet.worker_counts" does not pair with the fingerprints')
    for fp in fps:
        check_fingerprint(fp, "fleet")
    if len(set(fps)) != 1:
        fail(f"fleet fingerprint depends on the worker count: {sorted(set(fps))}")

    gates = doc.get("gates")
    if not isinstance(gates, dict):
        fail('top-level "gates" missing')
    for key in DISCO_GATES:
        if gates.get(key) is not True:
            fail(f'"gates.{key}" is not true')

    print(f"check_bench_json: OK (disco: index {speedup:.1f}x over oracle, "
          f"cache {hit_rate:.2f} hit rate, {ov['shed']} shed under overload "
          f"p99 {ov['p99_us']/1e3:.0f}ms, gateway {reduction:.1f}x fewer "
          f"wakeups over {gw['sessions']} sessions)")


SCN_LIBRARY = {
    "smart_projector", "office_tower", "conference_hall",
    "hospital_ward", "stadium", "campus_mesh",
}
SCN_COMPILE_KEYS = {
    "scenario": str,
    "blob_bytes": int,
    "folds": int,
    "trains_lowered": int,
    "class_modulus": int,
    "kernel_trains": bool,
    "compile_twice_identical": bool,
    "dump_recompile_stable": bool,
}
SCN_GOLDEN_RUN_KEYS = {
    "shards": int,
    "fingerprint": str,
    "events": int,
    "golden_fingerprint": str,
    "golden_events": int,
    "wall_s": float,
    "match": bool,
}
SCN_LIBRARY_RUN_KEYS = {
    "scenario": str,
    "shards": int,
    "fleet_fingerprint": str,
    "events": int,
    "absorbed": int,
    "pings": int,
    "goals_succeeded": int,
    "wall_s": float,
    "fingerprints_identical": bool,
}


def check_scn(doc):
    if doc.get("cost_model") not in ("measured", "defaults"):
        fail(f'"cost_model" is {doc.get("cost_model")!r}, expected '
             '"measured" or "defaults"')

    compiles = doc.get("compile")
    if not isinstance(compiles, list) or not compiles:
        fail('top-level "compile" missing or empty')
    names = set()
    lowered_total = 0
    for c in compiles:
        name = c.get("scenario", "<unnamed>")
        names.add(name)
        if "error" in c:
            fail(f'scenario "{name}" failed to compile: {c["error"]!r}')
        check_keys(c, SCN_COMPILE_KEYS, f'compile "{name}"')
        if c["blob_bytes"] <= 0:
            fail(f'scenario "{name}" compiled to an empty blob')
        # The determinism contract for the compiler itself, re-checked from
        # the artifact: same source -> same bytes, and dump -> recompile is
        # a fixpoint.
        if not c["compile_twice_identical"]:
            fail(f'scenario "{name}": compiling twice produced different '
                 "blobs")
        if not c["dump_recompile_stable"]:
            fail(f'scenario "{name}": dump -> recompile is not a fixpoint')
        if c["kernel_trains"] and c["trains_lowered"] == 0:
            fail(f'scenario "{name}": kernel_trains set with no lowered '
                 "trains")
        lowered_total += c["trains_lowered"]
    missing = SCN_LIBRARY - names
    if missing:
        fail(f"missing library scenarios: {sorted(missing)}")
    if lowered_total == 0:
        fail("no scenario train-lowered any traffic -- the trains pass is "
             "not wired in")

    # The goldens: at the golden seed the compiled smart_projector fleet
    # must land on its pinned fingerprints and event counts.
    golden = doc.get("golden")
    if not isinstance(golden, dict):
        fail('top-level "golden" missing')
    runs = golden.get("runs")
    if not isinstance(runs, list) or not runs:
        fail('"golden.runs" missing or empty')
    gated = doc.get("seed") == GOLDEN_SEED
    if golden.get("gated") is not gated:
        fail(f'"golden.gated" should be {gated} at seed {doc.get("seed")}')
    for r in runs:
        what = f'golden run shards={r.get("shards")}'
        check_keys(r, SCN_GOLDEN_RUN_KEYS, what)
        check_fingerprint(r["fingerprint"], what)
        pinned = SMART_PROJECTOR_GOLDENS.get(r["shards"])
        if pinned != (r["golden_fingerprint"], r["golden_events"]):
            fail(f"{what}: reports golden {r['golden_fingerprint']} / "
                 f"{r['golden_events']}, pinned is {pinned}")
        check_golden(doc, r["shards"], r["fingerprint"], r["events"], what)
        if gated and not r["match"]:
            fail(f'{what}: "match" contradicts the fingerprints')
    if golden.get("ok") is not True:
        fail('"golden.ok" is not true')

    # Train lowering efficacy: the full pipeline must absorb events into
    # kernel trains; with the pass disabled nothing may be absorbed.
    trains = doc.get("trains")
    if not isinstance(trains, dict):
        fail('top-level "trains" missing')
    if "error" in trains:
        fail(f'trains leg aborted: {trains["error"]!r}')
    check_keys(trains, {"shards": int, "events_full": int,
                        "absorbed_full": int, "events_passes_off": int,
                        "absorbed_passes_off": int,
                        "absorbed_per_event_full": float,
                        "fingerprint_stable_full": bool,
                        "fingerprint_stable_passes_off": bool,
                        "ok": bool}, '"trains"')
    if trains["absorbed_full"] <= 0:
        fail("full pipeline absorbed no events into kernel trains")
    if trains["absorbed_passes_off"] != 0:
        fail(f'passes-off run absorbed {trains["absorbed_passes_off"]} '
             "events; lowering leaked through the disabled pass")
    if not (trains["fingerprint_stable_full"]
            and trains["fingerprint_stable_passes_off"]):
        fail("trains leg fingerprints drift across worker counts")
    if not trains["ok"]:
        fail('"trains.ok" is not true')

    # The scenario library: every .scn runs to completion with a fleet
    # fingerprint invariant across worker counts.
    lib = doc.get("library")
    if not isinstance(lib, dict):
        fail('top-level "library" missing')
    lib_runs = lib.get("runs")
    if not isinstance(lib_runs, list) or not lib_runs:
        fail('"library.runs" missing or empty')
    lib_names = set()
    for r in lib_runs:
        name = r.get("scenario", "<unnamed>")
        lib_names.add(name)
        what = f'library run "{name}"'
        check_keys(r, SCN_LIBRARY_RUN_KEYS, what)
        check_fingerprint(r["fleet_fingerprint"], what)
        if r["events"] <= 0:
            fail(f"{what} executed no events")
        if r["pings"] <= 0:
            fail(f"{what} delivered no pings")
        if not r["fingerprints_identical"]:
            fail(f"{what}: fleet fingerprint depends on the worker count")
    if lib_names != SCN_LIBRARY:
        fail(f"library runs {sorted(lib_names)} != {sorted(SCN_LIBRARY)}")
    if lib.get("ok") is not True:
        fail('"library.ok" is not true')

    if doc.get("ok") is not True:
        fail('top-level "ok" is not true')

    print(f"check_bench_json: OK (scn: {len(compiles)} scenarios compiled, "
          f"{lowered_total} traffic decls train-lowered, goldens "
          f"{'matched' if gated else 'reported'} at {len(runs)} shard counts, "
          f'{trains["absorbed_per_event_full"]*100:.1f}% of trains-leg '
          f"events absorbed, {len(lib_runs)} library runs)")


METRIC_KINDS = {"counter", "gauge", "histogram", "hdr"}
METRIC_LAYERS = {"environment", "physical", "resource", "abstract"}


def check_metrics(doc):
    """A metrics export: {section: {metric-name: {layer, kind, ...}}}.

    Written by model_bench (figure sections) and extended by obs_bench
    (the "obs" section: the fleet's merged registry, HDRs included).
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
                if not isinstance(m.get("value"), (int, float)):
                    fail(f"{what} has no numeric value")
            else:
                check_keys(m, {"count": int, "p50": float, "p99": float},
                           what)
                if m["kind"] == "hdr":
                    check_keys(m, {"p999": float, "min": float, "max": float,
                                   "mean": float}, what)
                    if not m["p50"] <= m["p99"] <= m["p999"]:
                        fail(f"{what} percentiles are not monotone")
                    hdrs += 1
    print(f"check_bench_json: OK (metrics: {len(doc)} sections, "
          f"{sum(len(m) for m in doc.values())} metrics, {hdrs} HDR tracks)")


def looks_like_metrics(doc):
    return (isinstance(doc, dict) and "bench" not in doc and doc and
            all(isinstance(v, dict) for v in doc.values()))


def main(paths):
    for path in paths:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        kind = doc.get("bench")
        if kind == "kernel":
            check_kernel(doc)
        elif kind == "fleet":
            check_fleet(doc)
        elif kind == "rfb":
            check_rfb(doc)
        elif kind == "snap":
            check_snap(doc)
        elif kind == "obs":
            check_obs(doc)
        elif kind == "disco":
            check_disco(doc)
        elif kind == "scn":
            check_scn(doc)
        elif kind is None and looks_like_metrics(doc):
            # BENCH_metrics.json carries no "bench"/"seed" envelope; it is
            # a bare {section: {metric: ...}} export.
            check_metrics(doc)
            continue
        else:
            fail(f'{path}: top-level "bench" is {kind!r}, expected '
                 f'"kernel", "fleet", "rfb", "snap", "obs", "disco", or '
                 f'"scn" (or a metrics export)')
        if not isinstance(doc.get("seed"), int):
            fail(f'{path}: top-level "seed" missing or not an integer')


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1:])
