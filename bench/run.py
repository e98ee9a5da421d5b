#!/usr/bin/env python3
"""Benchmark of amboost on three workloads.

    python3 bench/run.py --workload greedy_wide --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each workload runs in its own process with BLAS and OpenMP pinned to one
thread. ``--workload all`` starts one such process per workload, one
after another.

Untraced (``--trace 0``): set up three times, then repeat the timed body
until ``--seconds`` have passed (at least twice), checking every
repetition's outputs. Reports ``setup_s`` (the median time to import
amboost in a fresh interpreter plus the median set-up), ``run_s`` (median body time), ``steps_per_s`` (median over
repetitions of engine steps per second inside ``run_boost`` and
``gbcd_gsq``) and ``peak_rss_mb``.

Traced (``--trace 1``): repeats the untraced body for the first half of
``--seconds``, then wraps every public amboost function and runs traced
rounds, each a set-up and one body, for the second half. Reports the
per-layer metrics of ``tracer.LAYER_METRICS`` as medians over rounds,
and writes every span to ``bench/out``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it holds the
environment record. The exit code is 0 when every check passed, 1 when
one failed, and 2 when the library cannot be found in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("paper_experiments", "greedy_wide", "cox_survival")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
MIN_REPS = 2
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import amboost, amboost.cli; "
    "print(time.perf_counter() - t0)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs each workload on small inputs, for the benchmark's tests",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "amboost_source_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "amboost").glob("*.py"))
        ),
    }


def import_seconds():
    """Median time to import the library, each time in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_reps(wl, state, memo, until, min_reps, clock=None):
    """Repeat the body until ``until`` (at least ``min_reps`` times)."""
    reps = []
    while len(reps) < min_reps or perf_counter() < until:
        if clock is not None:
            clock.reset()
        t0 = perf_counter()
        outcome = wl.body(state)
        body_s = perf_counter() - t0
        reps.append({
            "body_s": body_s,
            "engine_s": clock.seconds if clock is not None else None,
            "steps": clock.steps if clock is not None else None,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "errors": outcome.errors,
            "check_failures": wl.check(state, outcome, memo),
        })
    return reps


def measure_untraced(wl, args, work):
    import tracer

    import_s = import_seconds()
    clock = tracer.EngineClock()
    clock.install()
    try:
        setups = []
        state = None
        for _ in range(SETUP_REPEATS):
            state = None  # let the previous inputs go before building new ones
            t0 = perf_counter()
            state = wl.setup(args.seed, args.size, work)
            setups.append(perf_counter() - t0)
        reps = run_reps(wl, state, {}, perf_counter() + args.seconds, MIN_REPS, clock)
    finally:
        clock.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rates = [r["steps"] / r["engine_s"] for r in reps if r["engine_s"]]
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "run_s": (statistics.median(r["body_s"] for r in reps), "s"),
        "steps_per_s": (statistics.median(rates) if rates else 0.0, "steps/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return metrics, reps, {"setup_s": setups, "import_s": import_s}, []


def measure_traced(wl, args, work):
    import tracer

    start = perf_counter()
    memo = {}
    state = wl.setup(args.seed, args.size, work)
    reps = run_reps(wl, state, memo, start + args.seconds / 2, 1)
    state = None

    tr = tracer.Tracer()
    tr.install()
    rounds, problems = [], []
    try:
        while not rounds or perf_counter() < start + args.seconds:
            lo = len(tr)
            tr.take_counts()
            state = None
            with tr.span(tracer.SETUP_SPAN):
                state = wl.setup(args.seed, args.size, work)
            with tr.span(tracer.BODY_SPAN):
                outcome = wl.body(state)
            hi = len(tr)
            counts = tr.take_counts()
            # the checks run outside the round; library calls they make
            # get spans after ``hi`` and do not count
            metrics, self_sum = tracer.layer_metrics(tr, lo, hi, counts)
            total = metrics["trace.setup_s"] + metrics["trace.body_s"]
            if tr.open_spans() or abs(self_sum - total) > 1e-9 * total:
                problems.append(
                    f"trace: self times sum to {self_sum!r}, round lasted {total!r}"
                )
            rounds.append(metrics)
            reps.append({
                "body_s": metrics["trace.body_s"],
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "errors": outcome.errors,
                "check_failures": wl.check(state, outcome, memo),
            })
    finally:
        tr.uninstall()
    untraced = statistics.median(r["body_s"] for r in reps[: len(reps) - len(rounds)])
    metrics = {}
    for name, unit in tracer.LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(r["trace.body_s"] for r in rounds) - untraced
        elif unit in ("count", "bytes"):
            value = statistics.median_low(r[name] for r in rounds)
        else:
            value = statistics.median(r[name] for r in rounds)
        metrics[name] = (value, unit)
    tr.write(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    return metrics, reps, {"rounds": rounds}, problems


def run_one(args):
    sys.path.insert(0, str(SRC))
    try:
        import amboost
    except ImportError as exc:
        print(f"cannot import amboost from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(amboost.__file__).resolve().is_relative_to(SRC):
        print(f"amboost was imported from {amboost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT))
    try:
        if args.trace:
            metrics, reps, detail, problems = measure_traced(wl, args, work)
        else:
            metrics, reps, detail, problems = measure_untraced(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = problems + [msg for r in reps for msg in r["check_failures"]]
    for msg in failures + [e for r in reps for e in r["errors"]]:
        print(f"{wl.name}: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "result": result, "reps": reps, **detail}
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {wl.name}: {len(reps)} repetitions, seed {args.seed}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """One process per workload; prints each, then their union as the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode not in (0, 1):
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return code


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
