#!/usr/bin/env python3
"""The repository benchmark: host cost of the simulator, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call builds the simulator library from src/ and the perfbench
binary into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench).
Human-readable tables go to standard output; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics. perfbench/README.md
documents every metric, workload and the recorded baseline.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gate", "sweep", "observed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(bdir, "perfbench")


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(exe, workload, seed, seconds, trace, tiny=False):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: binary timed out")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"perfbench: binary exited with {proc.returncode}")
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3) of the samples; quartiles as statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


# --- end-to-end (--trace 0) --------------------------------------------------

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "body_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Host times are reported at the reference host's speed. The host shares
# its cores, caches and memory with other tenants, whose load slows a
# repetition by up to 1.5x in stretches of seconds to minutes, far more than
# a change the 0.25 bounds should catch. Each repetition's process runs a
# fixed calibration kernel (workloads.hpp) right after it, and its host
# times are scaled by this reference over the kernel's seconds: a repetition
# on a slower, or busier, host reads what it would have read on the
# reference host. The kernel shares no code with the simulator, so a change
# to the simulator moves the scaled times as it moves the raw ones.
# The reference is a fixed constant within the kernel's range on a 4-vCPU
# KVM guest (Intel Xeon, 2.1 GHz; GCC 12.2 -O2): 0.014 s idle, 0.024 s busy.
REF_CALIBRATION_S = 0.02


def end_to_end(raw):
    reps = raw["untraced"]
    if not reps:
        log("perfbench: no repetition passed its checks: " + "; ".join(raw["errors"]))
        sys.exit(1)
    scale = [REF_CALIBRATION_S / r["calibration_s"] for r in reps]
    samples = {
        "wall_s": [r["wall_s"] * k for r, k in zip(reps, scale)],
        "cpu_s": [r["cpu_s"] * k for r, k in zip(reps, scale)],
        "body_steps_per_s": [raw["body_steps"] / (r["wall_s"] * k) for r, k in zip(reps, scale)],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in reps],
        "setup_s": [r["setup_s"] * k for r, k in zip(reps, scale)],
    }
    return samples


def print_host(raw):
    """The unscaled figures behind the scaled ones."""
    reps = raw["untraced"]
    med, q1, q3 = spread([r["calibration_s"] for r in reps])
    print(f"\nhost calibration kernel: median {med:.6f} s (q1 {q1:.6f}, q3 {q3:.6f}, "
          f"n {len(reps)}), reference {REF_CALIBRATION_S} s")
    med, q1, q3 = spread([r["wall_s"] for r in reps])
    print(f"unscaled wall_s: median {med:.6f} s (q1 {q1:.6f}, q3 {q3:.6f})")


# --- per layer (--trace 1) ---------------------------------------------------

# Virtual (simulated) times get their own unit: they are exact, never timed.
LAYER_UNITS = {
    "harness.setup_s": "s",
    "harness.baseline_s": "s",
    "harness.moments_s": "s",
    "harness.partition_s": "s",
    "harness.integrate_s": "s",
    "harness.results_s": "s",
    "treebuild.build_s": "s",
    "treebuild.cells": "count",
    "treebuild.lock_acquires": "count",
    "bh.gather_s": "s",
    "bh.evaluate_s": "s",
    "bh.writeback_s": "s",
    "bh.interactions": "count",
    "bh.evaluate_ns_per_interaction": "ns",
    "mem.accesses": "count",
    "mem.read_misses": "count",
    "mem.remote_misses": "count",
    "mem.page_faults": "count",
    "mem.diffs": "count",
    "mem.invalidations_sent": "count",
    "mem.host_ns_per_access": "ns",
    "sim.run_s": "s",
    "sim.outside_phases_s": "s",
    "sim.ordered_ops": "count",
    "trace.host_s": "s",
    "race.host_s": "s",
    "prof.host_s": "s",
    "sight.host_s": "s",
    "anatomy.host_s": "s",
    "observers.report_s": "s",
    "virtual.seq_s": "virtual_s",
    "virtual.par_s": "virtual_s",
    "virtual.speedup": "x",
    "virtual.treebuild_s": "virtual_s",
    "traced.wall_s": "s",
    "traced.overhead_s": "s",
    "traced.gap_s": "s",
}

# Waterfall rows: the traced pass's host-time buckets, in pipeline order.
WATERFALL = ["harness.setup", "harness.baseline", "treebuild.build", "harness.moments",
             "harness.partition", "bh.gather", "bh.evaluate", "bh.writeback",
             "harness.integrate", "sim.outside_phases", "harness.results",
             "observers.reports"]


def layer_values(t):
    """Per-layer metrics of one traced iteration."""
    L, c, o, v = t["layers"], t["counts"], t["observers"], t["virtual"]
    accesses = c["reads"] + c["writes"]
    out = {
        "harness.setup_s": L["harness.setup"],
        "harness.baseline_s": L["harness.baseline"],
        "harness.moments_s": L["harness.moments"],
        "harness.partition_s": L["harness.partition"],
        "harness.integrate_s": L["harness.integrate"],
        "harness.results_s": L["harness.results"],
        "treebuild.build_s": L["treebuild.build"],
        "treebuild.cells": c["cells"],
        "treebuild.lock_acquires": c["lock_acquires"],
        "bh.gather_s": L["bh.gather"],
        "bh.evaluate_s": L["bh.evaluate"],
        "bh.writeback_s": L["bh.writeback"],
        "bh.interactions": c["interactions"],
        "bh.evaluate_ns_per_interaction": L["bh.evaluate"] * 1e9 / max(1, c["interactions"]),
        "mem.accesses": accesses,
        "mem.read_misses": c["read_misses"],
        "mem.remote_misses": c["remote_misses"],
        "mem.page_faults": c["page_faults"],
        "mem.diffs": c["diffs"],
        "mem.invalidations_sent": c["invalidations_sent"],
        "mem.host_ns_per_access": t["sim_run_s"] * 1e9 / max(1, accesses),
        "sim.run_s": t["sim_run_s"],
        "sim.outside_phases_s": L["sim.outside_phases"],
        "sim.ordered_ops": c["ordered_ops"],
        "trace.host_s": o["trace_s"],
        "race.host_s": o["race_s"],
        "prof.host_s": o["prof_s"],
        "sight.host_s": o["sight_s"],
        "anatomy.host_s": o["anatomy_s"],
        "observers.report_s": o["report_s"],
        "virtual.seq_s": v["seq_s"],
        "virtual.par_s": v["par_s"],
        "virtual.speedup": v["speedup"],
        "virtual.treebuild_s": v["treebuild_s"],
        "traced.wall_s": t["wall_s"],
        "traced.overhead_s": t["wall_s"] - t["untraced_wall_s"],
        "traced.gap_s": t["wall_s"] - sum(L.values()),
    }
    assert set(out) == set(LAYER_UNITS), set(out) ^ set(LAYER_UNITS)
    return out


def per_layer(raw):
    rows = [layer_values(t) for t in raw["traced"]]
    return {k: [r[k] for r in rows] for k in LAYER_UNITS}


def print_waterfall(raw):
    """Host waterfall of the traced repetition with the median wall time."""
    reps = sorted(raw["traced"], key=lambda t: t["wall_s"])
    t = reps[(len(reps) - 1) // 2]
    total = t["wall_s"]
    print(f"\nhost waterfall of the median traced repetition (of {len(reps)}):")
    print(f"  {'span':<22}{'seconds':>12}{'share':>9}")
    covered = 0.0
    for name in WATERFALL:
        sec = t["layers"][name]
        covered += sec
        print(f"  {name:<22}{sec:>12.4f}{100 * sec / total:>8.1f}%")
    gap = total - covered
    print(f"  {'(gap: not spanned)':<22}{gap:>12.4f}{100 * gap / total:>8.1f}%")
    print(f"  {'traced wall total':<22}{total:>12.4f}{100.0:>8.1f}%")


def fmt(v):
    if v == 0 or 1e-3 <= abs(v) < 1e7:
        return f"{v:.6g}"
    return f"{v:.4e}"


def print_table(title, samples, units):
    print(f"\n{title}")
    print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for name, vals in samples.items():
        med, q1, q3 = spread(vals)
        print(f"  {name:<34}{fmt(med):>14}{fmt(q1):>14}{fmt(q3):>14}{len(vals):>4}  "
              f"{units[name]}")


def measure(exe, workload, seed, seconds, trace, tiny=False):
    """Runs the binary once, prints its tables and returns the result line."""
    raw = run_binary(exe, workload, seed, seconds, trace, tiny)
    prov = raw["provenance"]
    prov["source_digest"] = source_digest()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if trace == 0:
        samples, units = end_to_end(raw), E2E_UNITS
        print_table(f"end-to-end metrics, workload {workload}", samples, units)
        print_host(raw)
    else:
        samples, units = per_layer(raw), LAYER_UNITS
        print_table(f"per-layer metrics, workload {workload}", samples, units)
        print_waterfall(raw)
        worst = max(raw["traced"], key=lambda t: t["checks"]["accel_max_err_vs_rms"])["checks"]
        print(f"\naccelerations vs direct summation (worst traced repetition): median "
              f"relative error {worst['accel_median_rel_err']:.4f}, largest error "
              f"{worst['accel_max_err_vs_rms']:.4f} of the RMS acceleration")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"\n  failed_frac = {failed}/{attempted} = {failed / attempted:.3f} "
          f"(failed repetitions / attempted)")
    for e in raw["errors"]:
        print(f"  FAILED: {e}")
    metrics = {}
    for name, vals in samples.items():
        value = statistics.median(vals)
        if not math.isfinite(value):
            failed += 1
        metrics[name] = {"value": value, "unit": units[name]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def selftest(exe):
    """Tiny-size run of every workload in both modes: every metric of
    BENCHMARK.json prints with its unit, outputs check, and the traced copy
    matches ExperimentRunner::run (the binary's own check)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(exe, w["name"], 7, 0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                ok = False
                log(f"selftest: {w['name']} --trace {trace}: metrics differ from "
                    f"BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")
            if not result["correct"]:
                ok = False
                log(f"selftest: {w['name']} --trace {trace}: outputs failed their checks")
    log("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="tiny-size check of every workload and metric")
    args = ap.parse_args()
    exe = build()
    if args.selftest:
        return selftest(exe)
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(exe, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
