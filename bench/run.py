"""Seeded end-to-end benchmark of indomatic.

    python3 bench/run.py --workload {solve,law-sweep,criticality} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from its
``src`` directory.  It runs whole passes over the workload's operations
until the passes add up to S seconds, with a few set-ups before each pass
and the package's caches cleared around it.  Answers are checked once the
passes are over; an operation whose answer fails its check counts as
failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one traced pass follows the
untraced ones and the object holds the per-layer metrics instead.  See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"
SETUPS_PER_PASS = 5


def load_package():
    """Import indomatic afresh from the checkout's ``src`` directory."""
    for name in [m for m in sys.modules if m == "indomatic" or m.startswith("indomatic.")]:
        del sys.modules[name]
    ind = importlib.import_module("indomatic")
    importlib.import_module("indomatic.cli")
    if Path(ind.__file__).resolve().parent != SRC / "indomatic":
        raise ImportError(f"indomatic was imported from {ind.__file__}, not from {SRC}")
    return ind


def set_up(workload: str, seed: int, workdir: str):
    """Import, input generation, CLI input files and warm-up."""
    ind = load_package()
    ops = workloads.build(workload, ind, random.Random(seed), workdir)
    for op in workloads.warm_up_ops(workload, workdir):
        workloads.run_op(ind, op)
    return ind, ops


def run_pass(ind, ops, caches, tracer=None):
    """One pass over ``ops``: (wall seconds, per-op seconds, answers)."""
    for cache in caches:
        cache.cache_clear()
    times, answers = [], []
    start = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            answer = workloads.run_op(ind, op)
        except Exception as exc:  # a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            answer = ("raised", repr(exc))
        times.append(perf_counter() - t0)
        answers.append(answer)
        if tracer is not None:
            tracer.end_op()
    return perf_counter() - start, times, answers


def count_failed(ind, ops, passes) -> int:
    import checks  # numpy stays out of the process until peak RSS is read

    verdicts = {}
    failed = 0
    for answers in passes:
        for i, answer in enumerate(answers):
            key = (i, answer)
            if key not in verdicts:
                verdicts[key] = answer[0] != "raised" and checks.check_answer(ind, ops[i], answer)
                if not verdicts[key]:
                    print(f"check failed: op {i} {ops[i].kind} n={ops[i].n} answer={answer!r}",
                          file=sys.stderr)
            failed += not verdicts[key]
    return failed


def measure(args, workdir: str) -> dict:
    setup_times, walls, op_times, passes = [], [], [], []
    while not passes or sum(walls) < args.seconds:
        # A few set-ups before every pass, so that their median does not
        # hang on one stretch of the machine's speed.
        for _ in range(SETUPS_PER_PASS):
            gc.collect()
            t0 = perf_counter()
            ind, ops = set_up(args.workload, args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        caches = tracing.package_caches()
        wall, times, answers = run_pass(ind, ops, caches)
        for cache in caches:
            cache.cache_clear()
        walls.append(wall)
        op_times.extend(times)
        passes.append(answers)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(walls)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, _, answers = run_pass(ind, ops, caches, tracer)
        finally:
            tracer.uninstall()
        passes.append(answers)
        cache_entries = sum(cache.cache_info().currsize for cache in caches)
        metrics = tracer.layer_metrics(cache_entries, traced_wall - wall_s)
        print(tracer.table(), file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (statistics.median(op_times) * 1000, "ms"),
            "op_p90_ms": (statistics.quantiles(op_times, n=10)[8] * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    failed = count_failed(ind, ops, passes)
    attempted = len(ops) * len(passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "indomatic" / "__init__.py").is_file():
        print(f"no indomatic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
