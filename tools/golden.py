#!/usr/bin/env python3
"""Pins every observer output of a few ptbsim runs to checked-in digests.

Each configuration runs ptbsim in a fresh temporary directory with fixed
report names, masks the build provenance (`git_sha`, `build_type`) in the
JSON reports, and compares the SHA-256 of stdout, stderr, the exit code and
every report with tests/golden/observers.sha256. The trace alone is about
9 MB, hence digests rather than the files.

    tools/golden.py --ptbsim build/examples/ptbsim                # all configs
    tools/golden.py --ptbsim build/examples/ptbsim --config elided
    tools/golden.py --ptbsim build/examples/ptbsim --update       # re-baseline

On a mismatch the outputs are kept (the path is printed) and each differing
artifact is named. A change that needs --update re-baselines the observers
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
GOLDEN = os.path.join(ROOT, "tests", "golden", "observers.sha256")

REPORTS = {"--trace": "trace.json", "--prof": "prof.json", "--sight": "sight.json",
           "--anatomy": "anatomy.json"}

# name -> (ptbsim arguments, expected exit code, config whose digests it must equal)
CONFIGS = {
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
}

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


def run_config(ptbsim, name, workdir):
    """Runs one configuration in `workdir`; returns {artifact: digest}."""
    args, _, _ = CONFIGS[name]
    # PTB_* variables select observers, windows and backends: scrub them so
    # the configuration is exactly what the table says.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PTB_")}
    proc = subprocess.run([ptbsim] + expand(args), cwd=workdir, env=env,
                          capture_output=True)
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
    return got, proc.returncode


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
        fh.write("# SHA-256 of ptbsim observer outputs (git_sha/build_type masked),\n"
                 "# checked by tools/golden.py. Regenerate with --update only for a\n"
                 "# deliberate re-baseline, explained in EXPERIMENTS.md.\n")
        for key in sorted(entries):
            fh.write(f"{entries[key]}  {key}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ptbsim", required=True, help="path to the ptbsim binary")
    ap.add_argument("--config", action="append", choices=sorted(CONFIGS),
                    help="run only these configurations (repeatable; default: all)")
    ap.add_argument("--update", action="store_true", help="rewrite the digest file")
    args = ap.parse_args()
    ptbsim = os.path.abspath(args.ptbsim)
    if not os.access(ptbsim, os.X_OK):
        print(f"golden: {ptbsim} is not an executable", file=sys.stderr)
        return 2
    names = args.config or list(CONFIGS)
    want = read_golden(GOLDEN) if os.path.exists(GOLDEN) else {}
    if not args.update and not want:
        print(f"golden: no digests at {GOLDEN} (run with --update)", file=sys.stderr)
        return 2

    keep = tempfile.mkdtemp(prefix="ptb-golden-")
    failures = []
    results = {}
    for name in names:
        workdir = os.path.join(keep, name)
        os.makedirs(workdir)
        got, code = run_config(ptbsim, name, workdir)
        results[name] = got
        expected_exit = CONFIGS[name][1]
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
    for name in names:
        twin = CONFIGS[name][2]
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
        write_golden(GOLDEN, entries)
        print(f"golden: wrote {len(entries)} digests to {GOLDEN}")
    shutil.rmtree(keep, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
