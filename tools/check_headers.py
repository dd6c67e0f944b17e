#!/usr/bin/env python3
"""Header self-containment check: compiles every src/**/*.hpp as a
standalone translation unit.

run-clang-tidy's HeaderFilterRegex only analyzes headers that some scanned
.cpp happens to include, and a header that free-rides on its includers'
includes breaks the first new TU that includes it alone. This check catches
that at CI time: for each header H, compile `#include "H"` with
-fsyntax-only and the library's include directory.

Usage: check_headers.py [--root DIR] [--compiler CXX] [--jobs N] [headers...]
Exit 0 when every header compiles standalone, 1 otherwise (with the
compiler's diagnostics), 2 on usage error.
"""

import argparse
import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile


def find_headers(src_dir):
    out = []
    for dirpath, _dirnames, filenames in os.walk(src_dir):
        for fn in sorted(filenames):
            if fn.endswith((".hpp", ".h")):
                out.append(os.path.join(dirpath, fn))
    return sorted(out)


def check_one(cxx, root, header):
    rel = os.path.relpath(header, os.path.join(root, "src"))
    with tempfile.TemporaryDirectory() as td:
        tu = os.path.join(td, "tu.cpp")
        with open(tu, "w", encoding="utf-8") as fh:
            fh.write(f'#include "{rel}"\n')
        cmd = [cxx, "-std=c++20", "-fsyntax-only", "-Wall", "-Wextra",
               "-I", os.path.join(root, "src"), tu]
        proc = subprocess.run(cmd, capture_output=True, text=True)
    return rel, proc.returncode, proc.stderr


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("headers", nargs="*",
                    help="headers to check (default: all of <root>/src)")
    ap.add_argument("--root", default=None)
    ap.add_argument("--compiler", default=os.environ.get("CXX") or "c++")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if shutil.which(args.compiler) is None:
        print(f"check_headers: compiler not found: {args.compiler}", file=sys.stderr)
        return 2

    headers = [os.path.abspath(h) for h in args.headers] or \
        find_headers(os.path.join(root, "src"))
    if not headers:
        print("check_headers: no headers found", file=sys.stderr)
        return 2

    failures = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as ex:
        futs = [ex.submit(check_one, args.compiler, root, h) for h in headers]
        for fut in concurrent.futures.as_completed(futs):
            rel, rc, err = fut.result()
            if rc != 0:
                failures.append((rel, err))

    if failures:
        print(f"check_headers: {len(failures)}/{len(headers)} headers are not "
              "self-contained:")
        for rel, err in sorted(failures):
            print(f"\n=== src/{rel} ===")
            sys.stdout.write(err)
        return 1
    print(f"check_headers: {len(headers)} headers compile standalone "
          f"({args.compiler})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
