#!/usr/bin/env python3
"""Compare saved benchmark outputs of two commits, per metric.

    python3 perfbench/compare.py --base .perfbench/results/A*.json --new B*.json

Each file is one run as written by run.py under .perfbench/results/. The
comparison is refused when any two runs differ in workload, trace mode, toy
size or environment record (cores, Python/numpy/scipy, numba, CONWILL_THREADS,
BLAS and its thread setting), since such numbers are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths: list[str]) -> list[dict]:
    out = []
    for p in paths:
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def identity(run: dict) -> dict:
    return {k: run[k] for k in ("workload", "trace", "toy", "env")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    ref = identity(base[0])
    for path, run in zip(args.base + args.new, base + new):
        if identity(run) != ref:
            diff = {k: (ref[k], v) for k, v in identity(run).items() if ref[k] != v}
            print(f"refusing to compare: {path} differs from {args.base[0]}: {diff}")
            return 2
    print(f"{'metric':<36}{'base median':>14}{'new median':>14}{'new/base':>10}  unit")
    for name, m in base[0]["result"]["metrics"].items():
        b = statistics.median(r["result"]["metrics"][name]["value"] for r in base)
        n = statistics.median(r["result"]["metrics"][name]["value"] for r in new)
        ratio = f"{n / b:10.3f}" if b else f"{'-':>10}"
        print(f"{name:<36}{b:14.6g}{n:14.6g}{ratio}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
