#!/usr/bin/env python3
"""Pins the outputs of ptbsim's observers and of every ptbfig entry to
checked-in digests.

Observer mode (--ptbsim) runs a few ptbsim configurations, each in a fresh
temporary directory with fixed report names, masks the build provenance
(`git_sha`, `build_type`) in the JSON reports, and compares the SHA-256 of
stdout, stderr, the exit code and every report with
tests/golden/observers.sha256. The trace alone is about 9 MB, hence digests
rather than the files. A few usage errors (exit 2) are pinned alongside.

Figure mode (--ptbfig) runs `ptbfig --figure=<id> --sizes=1024 --warmup=1
--steps=1` for every entry, one two-entry invocation whose stdout must equal
the two single outputs back to back, and the usage errors (exit 2), against
tests/golden/figures.sha256. --shard K/N runs every N-th configuration from
the K-th, so a ctest shard stays short on a Debug build.

    tools/golden.py --ptbsim build/examples/ptbsim                # all configs
    tools/golden.py --ptbsim build/examples/ptbsim --config elided
    tools/golden.py --ptbsim build/examples/ptbsim --update       # re-baseline
    tools/golden.py --ptbfig build/bench/ptbfig --shard 1/4

On a mismatch the outputs are kept (the path is printed) and each differing
artifact is named. A change that needs --update re-baselines the outputs
deliberately and says why in EXPERIMENTS.md.

Exit codes: 0 match (or updated), 1 mismatch, 2 usage error.
"""

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

REPORTS = {"--trace": "trace.json", "--prof": "prof.json", "--sight": "sight.json",
           "--anatomy": "anatomy.json"}

# name -> (ptbsim arguments, expected exit code, config whose digests it must equal)
OBSERVER_CONFIGS = {
    "all": (["--platform", "paragon", "--algorithm", "ORIG", "--n", "1024", "--procs", "8",
             "--race", "--sight", "--prof", "--trace", "--anatomy", "--csv"], 0, None),
    "all-parallel": (["--platform", "paragon", "--algorithm", "ORIG", "--n", "1024",
                      "--procs", "8", "--race", "--sight", "--prof", "--trace", "--anatomy",
                      "--csv", "--backend", "parallel", "--workers", "2"], 0, "all"),
    # Without prof a span charge reaches the observers as one event, so this
    # covers the span path the per-element configurations above do not.
    "noprof": (["--platform", "origin2000", "--algorithm", "SPACE", "--n", "1024",
                "--procs", "8", "--warmup", "1", "--steps", "1", "--race", "--sight",
                "--trace", "--anatomy", "--csv"], 0, None),
    # The detector's negative control: lock elision must race (exit 2). With
    # sight and the tracer on, a charge that races and moves a line's class
    # emits both observers' instants, which pins their notification order.
    "elided": (["--platform", "challenge", "--algorithm", "ORIG", "--n", "512", "--procs",
                "2", "--warmup", "1", "--steps", "1", "--race", "--elide-locks", "--sight",
                "--trace"], 2, None),
    # Counts ptbsim cannot run, names it does not know, a negative opening
    # angle and an argument that is not a flag: each is a usage error
    # (exit 2) before anything is simulated.
    "zero-steps": (["--n", "1024", "--procs", "4", "--steps", "0", "--csv"], 2, None),
    "negative-warmup": (["--n", "1024", "--procs", "4", "--warmup", "-1", "--steps", "1",
                         "--csv"], 2, None),
    "zero-procs": (["--n", "1024", "--procs", "0"], 2, None),
    "too-many-procs": (["--n", "1024", "--procs", "65"], 2, None),
    "zero-bodies": (["--n", "0", "--procs", "4"], 2, None),
    "leaf-cap-over": (["--n", "1024", "--leaf-cap", "17"], 2, None),
    "unknown-partitioner": (["--n", "1024", "--partitioner=ORB"], 2, None),
    "unknown-algorithm": (["--n", "1024", "--algorithm", "bogus"], 2, None),
    "unknown-platform": (["--n", "1024", "--platform", "bogus"], 2, None),
    "negative-theta": (["--n", "1024", "--theta", "-1"], 2, None),
    "positional-argument": (["foo"], 2, None),
}

# Every ptbfig entry, in the driver's order. A new entry changes the pinned
# "unknown-figure" stderr, which lists them all, so this list cannot fall behind.
FIGURES = ["table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "fig12",
           "fig13", "fig14", "sec442_sc", "fig15", "portability", "ablate_leafcap",
           "ablate_spacethresh", "ablate_lockcost", "ablate_lockhash",
           "ablate_distribution", "ablate_partitioner"]
SMALL = ["--sizes=1024", "--warmup=1", "--steps=1"]

# name -> (ptbfig arguments, expected exit code, entries whose single stdouts,
# back to back, it must print)
FIGURE_CONFIGS = {f: ([f"--figure={f}"] + SMALL, 0, None) for f in FIGURES}
FIGURE_CONFIGS.update({
    "pair": (["--figure=table1,fig13"] + SMALL, 0, ["table1", "fig13"]),
    "empty-sizes": (["--figure=fig7", "--sizes="], 2, None),
    "zero-procs": (["--figure=fig8", "--procs=0"], 2, None),
    "zero-steps": (["--figure=fig8", "--steps=0"], 2, None),
    "unknown-figure": (["--figure=fig7,fig99"], 2, None),
    "too-many-procs": (["--figure=fig8", "--procs=65"], 2, None),
})

# --ptbsim / --ptbfig -> (configurations, digest file)
MODES = {"ptbsim": (OBSERVER_CONFIGS, "observers.sha256"),
         "ptbfig": (FIGURE_CONFIGS, "figures.sha256")}

PROVENANCE_RE = re.compile(rb'"(git_sha|build_type)": "[^"]*"')


def mask(data):
    return PROVENANCE_RE.sub(rb'"\1": "*"', data)


def digest(data):
    return hashlib.sha256(mask(data)).hexdigest()


def expand(args):
    """Gives each report flag its fixed file name."""
    out = []
    for a in args:
        out.append(a)
        if a in REPORTS:
            out.append(REPORTS[a])
    return out


def run(binary, args, workdir):
    # PTB_* variables select observers, windows and backends: scrub them so
    # the configuration is exactly what the table says.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PTB_")}
    return subprocess.run([binary] + expand(args), cwd=workdir, env=env, capture_output=True)


def run_config(binary, args, workdir):
    """Runs one configuration in `workdir`; returns ({artifact: digest}, stdout,
    exit code)."""
    proc = run(binary, args, workdir)
    for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        with open(os.path.join(workdir, stream), "wb") as fh:
            fh.write(data)
    got = {"exit": hashlib.sha256(str(proc.returncode).encode()).hexdigest(),
           "stdout": digest(proc.stdout), "stderr": digest(proc.stderr)}
    for flag, fname in sorted(REPORTS.items(), key=lambda kv: kv[1]):
        if flag in args:
            path = os.path.join(workdir, fname)
            if not os.path.exists(path):
                got[fname] = "missing"
                continue
            with open(path, "rb") as fh:
                got[fname] = digest(fh.read())
    return got, proc.stdout, proc.returncode


def read_golden(path):
    want = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            sha, key = line.split(None, 1)
            want[key] = sha
    return want


def write_golden(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# SHA-256 of ptbsim / ptbfig outputs (git_sha/build_type masked),\n"
                 "# checked by tools/golden.py. Regenerate with --update only for a\n"
                 "# deliberate re-baseline, explained in EXPERIMENTS.md.\n")
        for key in sorted(entries):
            fh.write(f"{entries[key]}  {key}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    binary_arg = ap.add_mutually_exclusive_group(required=True)
    binary_arg.add_argument("--ptbsim", help="path to the ptbsim binary (observer mode)")
    binary_arg.add_argument("--ptbfig", help="path to the ptbfig binary (figure mode)")
    ap.add_argument("--config", action="append",
                    help="run only these configurations (repeatable; default: all)")
    ap.add_argument("--shard", help="K/N: run every N-th configuration from the K-th")
    ap.add_argument("--update", action="store_true", help="rewrite the digest file")
    args = ap.parse_args()
    mode = "ptbsim" if args.ptbsim else "ptbfig"
    configs, golden_name = MODES[mode]
    golden = os.path.join(GOLDEN_DIR, golden_name)
    binary = os.path.abspath(args.ptbsim or args.ptbfig)
    if not os.access(binary, os.X_OK):
        print(f"golden: {binary} is not an executable", file=sys.stderr)
        return 2
    names = args.config or list(configs)
    unknown = [n for n in names if n not in configs]
    if unknown:
        print(f"golden: unknown --config {', '.join(unknown)} (want {', '.join(configs)})",
              file=sys.stderr)
        return 2
    if args.shard:
        k, n = (int(x) for x in args.shard.split("/"))
        names = names[k - 1::n]
    want = read_golden(golden) if os.path.exists(golden) else {}
    if not args.update and not want:
        print(f"golden: no digests at {golden} (run with --update)", file=sys.stderr)
        return 2

    keep = tempfile.mkdtemp(prefix="ptb-golden-")
    failures = []
    results = {}
    for name in names:
        workdir = os.path.join(keep, name)
        os.makedirs(workdir)
        got, stdout, code = run_config(binary, configs[name][0], workdir)
        results[name] = got
        expected_exit = configs[name][1]
        if code != expected_exit:
            failures.append(f"{name}: exit {code}, expected {expected_exit}")
        for artifact, sha in got.items():
            key = f"{name}/{artifact}"
            if args.update:
                continue
            if key not in want:
                failures.append(f"{key}: no pinned digest")
            elif want[key] != sha:
                failures.append(f"{key}: digest differs")
        print(f"golden: {name}: {len(got)} artifacts, exit {code}")
        parts = configs[name][2]
        if mode == "ptbfig" and parts is not None:
            # The parts run here too, so a shard need not hold them.
            singles = b"".join(run(binary, configs[p][0], workdir).stdout for p in parts)
            if singles != stdout:
                failures.append(f"{name}: stdout is not {' + '.join(parts)} back to back")
    for name in names if mode == "ptbsim" else []:
        twin = configs[name][2]
        if twin is not None and twin in results and results[twin] != results[name]:
            diff = sorted(a for a in results[name] if results[name][a] != results[twin].get(a))
            failures.append(f"{name}: differs from {twin} in {', '.join(diff)}")

    if failures:
        print(f"golden: {len(failures)} failure(s); outputs kept under {keep}")
        for msg in failures:
            print("  FAIL:", msg)
        return 1
    if args.update:
        entries = {k: v for k, v in want.items() if k.split("/", 1)[0] not in names}
        for name, got in results.items():
            for artifact, sha in got.items():
                entries[f"{name}/{artifact}"] = sha
        write_golden(golden, entries)
        print(f"golden: wrote {len(entries)} digests to {golden}")
    shutil.rmtree(keep, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
