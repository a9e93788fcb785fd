#!/usr/bin/env python3
"""Benchmark of the conwill pipeline: four seeded workloads, checked against references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]
    python3 perfbench/run.py --self-check     # every workload at toy size, schema check
    python3 perfbench/run.py --record         # rewrite references.json from trusted code only

Workloads (see workloads.py and BENCHMARK.json): certify_mix, gradient_sweep,
elastica_hopf, build_export. Each is a closed loop with one caller in this
process. The seed fixes the job list; conwill only receives the generated
inputs. Whole rounds run until their summed job time reaches --seconds.

--trace 0 prints the end-to-end metrics: jobs_per_s (successful jobs per second
of job time), job_p50_s (median per-job wall time), peak_rss_mb (this
process), setup_s (median over fresh processes of the time from launch to
ready: interpreter start, import, input generation and warm-up). The 90th
percentile job time is printed beside them with the number of jobs beyond it;
it is not in BENCHMARK.json because on a shared 2-vCPU x86-64 host its
run-to-run spread over ten seeds reached 0.28, above the largest bound (0.25).

--trace 1 runs every round twice, untraced and traced, in alternating order,
and prints the per-layer metrics derived from spans recorded around each
conwill module's public functions (spans.py), per traced job.

The last stdout line is the result object. The lines before it carry the
environment record, the job count, and, with --trace 1, per-size rows.
Everything a run writes goes under .perfbench/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("certify_mix", "gradient_sweep", "elastica_hopf", "build_export")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
POOL_THREADS = {"gradient_sweep": 2}
SETUP_REPLICAS = 5
SUBPROCESS_TIMEOUT = 170

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_calls") or name == "builders.calls":
        return "count/job"
    if name == "export.bytes_written":
        return "B/job"
    if name == "geom_core.mnodes_per_s":
        return "Mnodes/s"
    if name == "export.mb_per_s":
        return "MB/s"
    if name.endswith("_frac"):
        return "ratio"
    return "s/job"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy grid sizes (self-check)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (args.workload or args.self_check or args.record):
        ap.error("--workload is required")
    return args


def pool_threads(workload: str | None) -> int:
    return min(POOL_THREADS.get(workload, 1), len(os.sched_getaffinity(0)))


def pin_environment(workload: str | None) -> None:
    """BLAS at one thread, so that pool threads x BLAS threads <= nproc; set before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["CONWILL_THREADS"] = str(pool_threads(workload))


def import_conwill():
    src = ROOT / "src"
    if not (src / "conwill" / "__init__.py").is_file():
        sys.exit(f"benchmark: no conwill sources under {src}")
    sys.path.insert(0, str(src))
    import conwill

    if Path(conwill.__file__).resolve().parent != (src / "conwill").resolve():
        sys.exit(f"benchmark: imported conwill from {conwill.__file__}, not from {src}")
    return conwill


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "CONWILL_THREADS": os.environ.get("CONWILL_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def load_references() -> dict:
    with open(HERE / "references.json") as fh:
        return json.load(fh)


def setup(args, workdir: str):
    """Everything before the first timed job: references, seeded inputs, warm-up."""
    from workloads import TOY, FULL, WORKLOADS

    refs = load_references()
    wl = WORKLOADS[args.workload]
    scale = TOY if args.toy else FULL
    rng = random.Random(args.seed)
    first = wl.round(rng, scale, workdir)
    wl.warmup(workdir)
    return wl, scale, rng, first, refs


def run_job(job, state, refs, tracer=None):
    """Time one job, then check its output untimed; returns (seconds, problems)."""
    from workloads import check

    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = job.run(state)
        else:
            with tracer.span("bench.job", "bench", job.label):
                out = job.run(state)
    except Exception as exc:  # a failing job is counted and the loop goes on
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        try:
            return dt, check(job.summarize(out), refs.get(job.key), job.rules)
        except Exception as exc:
            return dt, [f"check raised {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self):
        self.times: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.failed = 0

    def add(self, job, dt: float, problems: list[str]) -> None:
        self.times.append(dt)
        self.by_label.setdefault(job.label, []).append(dt)
        if problems:
            self.failed += 1
            print(f"FAILED {job.key}: {'; '.join(problems)}", file=sys.stderr)


def timed_rounds(args, wl, scale, rng, first, refs, workdir, tracer=None):
    """Untraced: whole rounds until job time reaches --seconds.

    Traced: each round runs untraced and traced, order alternating, on fresh state.
    """
    plain, traced = Tally(), Tally()
    jobs, r = first, 0
    while True:
        passes = [False] if tracer is None else ([False, True] if r % 2 == 0 else [True, False])
        for use_trace in passes:
            state: dict = {}
            if use_trace:
                tracer.install()
            try:
                for i, job in enumerate(jobs):
                    if use_trace:
                        tracer.job = (r, i)
                    dt, problems = run_job(job, state, refs, tracer if use_trace else None)
                    (traced if use_trace else plain).add(job, dt, problems)
            finally:
                if use_trace:
                    tracer.uninstall()
        r += 1
        if sum(plain.times) + sum(traced.times) >= args.seconds:
            return plain, traced
        jobs = wl.round(rng, scale, workdir)


def setup_seconds(args) -> list[float]:
    """Launch-to-ready time of fresh processes doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    samples = []
    for _ in range(SETUP_REPLICAS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    import spans as tr

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, scale, rng, first, refs = setup(args, str(workdir))
        tracer = tr.Tracer() if args.trace else None
        plain, traced = timed_rounds(args, wl, scale, rng, first, refs, str(workdir), tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    tallies = (plain, traced) if tracer else (plain,)
    attempted = sum(len(t.times) for t in tallies)
    failed = sum(t.failed for t in tallies)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "env": env}
    notes = [{"env": env}]
    if tracer is None:
        times = plain.times
        setups = setup_seconds(args)
        metrics = {
            "jobs_per_s": (len(times) - plain.failed) / sum(times),
            "job_p50_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        out = {name: metric(v, END_TO_END_UNITS[name]) for name, v in metrics.items()}
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        notes.append({"jobs": len(times), "job_p50_s": metrics["job_p50_s"],
                      "job_p90_s": p90, "jobs_beyond_p90": sum(t > p90 for t in times),
                      "setup_samples_s": setups,
                      "median_s_by_kind": {label: [len(d), statistics.median(d)]
                                           for label, d in sorted(plain.by_label.items())}})
    else:
        spans = tracer.spans
        layer = tr.layer_metrics(spans, len(traced.times), pool_threads(args.workload))
        layer["trace.job_s"] = sum(traced.times) / len(traced.times)
        layer["trace.overhead_frac"] = sum(traced.times) / sum(plain.times) - 1.0
        out = {name: metric(v, per_layer_unit(name)) for name, v in layer.items()}
        rows = tr.size_rows(spans)
        # share of the time inside traced conwill functions; pool threads add up
        self_s = {name[:-len(".self_s")]: v for name, v in layer.items() if name.endswith(".self_s")}
        notes.append({"traced_jobs": len(traced.times), "layer_share": {
            name: v / sum(self_s.values()) for name, v in self_s.items()}})
        notes += [{"row": row} for row in rows]
        record["rows"] = rows
        record["spans"] = tracer.spans_as_dicts()

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    record["result"] = result
    record["notes"] = notes
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh)
    for note in notes:
        print(json.dumps(note))
    print(json.dumps(result))
    return 0


def setup_only(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(time.monotonic()))
    return 0


def record_references() -> int:
    """Summaries of every catalogue job, full and toy size, from the current commit."""
    from workloads import FULL, TOY, WORKLOADS, check

    refs, bad = {}, 0
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for wl in WORKLOADS.values():
            state: dict = {}  # keys carry sizes, so both scales can share it
            for scale in (FULL, TOY):
                for job in wl.catalogue(scale, str(workdir)):
                    if job.key in refs:
                        continue
                    summary = job.summarize(job.run(state))
                    problems = check(summary, summary, job.rules)
                    if problems:
                        bad += 1
                        print(f"{job.key}: {problems}", file=sys.stderr)
                    refs[job.key] = summary
                    print(f"recorded {job.key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


def self_check() -> int:
    """Run each workload at toy size, traced and untraced, and validate the output."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for wl in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=SUBPROCESS_TIMEOUT)
            where = f"{wl['name']} trace={trace}"
            found = validate(proc.returncode, proc.stdout, expected[trace], trace == 0)
            if proc.returncode != 0:
                found.append(f"stderr: {proc.stderr.strip()[-400:]}")
            errors += [f"{where}: {e}" for e in found]
            print(f"{where}: {'ok' if not found else 'FAILED'}", file=sys.stderr)
    for e in errors:
        print(e)
    print("self-check", "passed" if not errors else "FAILED")
    return 1 if errors else 0


def validate(returncode: int, stdout: str, expected: dict, positive: bool) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        res = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
        return errs
    if res["correct"] is not True or res["failed"] != 0:
        errs.append(f"correct={res['correct']} failed={res['failed']}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        errs.append(f"attempted={res['attempted']!r}")
    if set(res["metrics"]) != set(expected):
        errs.append(f"metric names differ: {sorted(set(res['metrics']) ^ set(expected))}")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            errs.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)) or (positive and not m["value"] > 0):
            errs.append(f"{name}: value {m['value']!r}")
    return errs


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_check:
        return self_check()
    pin_environment(args.workload)
    import_conwill()
    sys.path.insert(0, str(HERE))
    if args.record:
        return record_references()
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
