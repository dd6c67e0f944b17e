#!/usr/bin/env python3
"""Fixture harness for ptblint (tools/ptblint/).

Each fixture under tests/lint/fixtures/ carries its own oracle:

    // ptblint-path: src/sim/fixture_x.cpp          <- policy path override
    // ptblint-expect: wall-clock 3 1               <- check, unsuppressed, suppressed

The harness lints every fixture in one ptblint invocation and compares the
JSON findings against the embedded expectations, per fixture file and per
check (checks not named in any ptblint-expect line of a fixture are expected
to report nothing for it — a planted violation must never leak findings of
the wrong class).

Exit 0 on success, 1 with a diff on any mismatch.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")
EXPECT_RE = re.compile(r"ptblint-expect:\s*([\w-]+)\s+(\d+)\s+(\d+)")


def read_expectations(path):
    exp = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            m = EXPECT_RE.search(line)
            if m:
                exp[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    return exp


def main():
    cmd = [sys.executable, os.path.join(ROOT, "tools", "ptblint", "ptblint.py")]

    fixtures = sorted(
        os.path.join(FIXTURES, f) for f in os.listdir(FIXTURES) if f.endswith(".cpp"))
    if not fixtures:
        print("no fixtures found under", FIXTURES)
        return 1

    with tempfile.TemporaryDirectory() as td:
        out_json = os.path.join(td, "findings.json")
        proc = subprocess.run(
            cmd + ["--root", ROOT, "--json", out_json, "--quiet"] + fixtures,
            capture_output=True, text=True)
        # Exit 1 (unsuppressed findings) is the expected outcome over planted
        # violations; anything else is an engine failure.
        if proc.returncode not in (0, 1):
            print("ptblint failed:", proc.returncode)
            print(proc.stdout)
            print(proc.stderr)
            return 1
        with open(out_json, encoding="utf-8") as fh:
            doc = json.load(fh)

    # Tally findings per (fixture basename, check).
    got = {}
    for f in doc["findings"]:
        key = (os.path.basename(f["file"]), f["check"])
        uns, sup = got.get(key, (0, 0))
        if f["suppressed"]:
            got[key] = (uns, sup + 1)
        else:
            got[key] = (uns + 1, sup)

    failures = []
    checks_seen = set(doc["checks"])
    total_expected_unsuppressed = 0
    for fx in fixtures:
        base = os.path.basename(fx)
        exp = read_expectations(fx)
        unknown = set(exp) - checks_seen
        if unknown:
            failures.append(f"{base}: expectation names unknown check(s): {sorted(unknown)}")
        for check in checks_seen:
            want = exp.get(check, (0, 0))
            have = got.pop((base, check), (0, 0))
            total_expected_unsuppressed += want[0]
            if want != have:
                failures.append(
                    f"{base}: check {check}: expected {want[0]} unsuppressed /"
                    f" {want[1]} suppressed, got {have[0]} / {have[1]}")
    for (base, check), have in sorted(got.items()):
        failures.append(f"{base}: unexpected findings for {check}: {have}")

    # The planted violations must also drive the exit code.
    if total_expected_unsuppressed > 0 and proc.returncode != 1:
        failures.append(
            f"expected exit code 1 over planted violations, got {proc.returncode}")

    # JSON count block must agree with the findings list.
    uns = sum(1 for f in doc["findings"] if not f["suppressed"])
    sup = sum(1 for f in doc["findings"] if f["suppressed"])
    c = doc["counts"]
    if (c["unsuppressed"], c["suppressed"], c["total"]) != (uns, sup, uns + sup):
        failures.append(f"counts block inconsistent with findings list: {c}")
    # Suppressed findings must carry their reason through to the JSON.
    for f in doc["findings"]:
        if f["suppressed"] and not f["reason"]:
            failures.append(f"suppressed finding without a reason in JSON: {f}")

    if failures:
        print(f"ptblint fixture harness: {len(failures)} failure(s)")
        for msg in failures:
            print("  FAIL:", msg)
        return 1
    nf = len(doc["findings"])
    print(f"ptblint fixture harness: {len(fixtures)} fixtures, {nf} findings, "
          "all expectations met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
