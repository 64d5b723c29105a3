"""Benchmark entry point.

    python3 benchmarks/run.py --workload {pipeline,train,translate}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The run repeats whole rounds, each a fresh set-up followed
by the workload's fixed work, while the next round still fits in
``--seconds`` (at least MIN_ROUNDS rounds).  It reports the median set-up
time and the work done per second over all rounds.  Output checks run
after the timed phase.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from wrapped calls with ``--trace 1``).
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: one thread, so that runs do
# not depend on how many cores the machine has free.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3


def _load_program():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "transference", "__init__.py")):
        sys.exit(f"run.py: no program at {SRC}/transference; "
                 "run from the root of a source checkout")
    sys.path[:0] = [SRC, HERE]
    import transference
    if not os.path.abspath(transference.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported transference from {transference.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "train", "translate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()

    import numpy as np
    import spans
    import workloads

    # First BLAS calls happen before anything is timed.
    a = np.ones((64, 64), dtype=np.float32)
    (a @ a).sum()

    root = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(root)
    try:
        result = _run(args, root, workloads, spans)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(root))
        except OSError:
            pass        # another run still works there
    print(json.dumps(result))
    return 0


def _run(args, root: str, workloads, spans) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    tracer = spans.Tracer()
    wl.tracer = tracer
    if args.trace:
        tracer.install()
    setup_times, plain, traced = [], [], []
    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            begun = time.perf_counter()
            # Every round gets a fresh set-up, so set-up and round times
            # sample the same stretch of the run.
            setup_times.append(workloads.timed(wl.setup)[0])
            # A traced run alternates plain and traced rounds, so the
            # tracing overhead is measured in the same process.
            tracer.on = bool(args.trace) and len(plain) > len(traced)
            (traced if tracer.on else plain).append(wl.round())
            tracer.on = False
            rounds = len(plain) + len(traced)
            now = time.perf_counter()
            # Stop before a round that would end past the deadline, so a
            # run lasts about --seconds however long its rounds are.
            if rounds >= MIN_ROUNDS and now + (now - begun) > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            layer = spans.layer_metrics(tracer.spans, len(traced))
            layer["training.step_peak_mb"] = (
                wl.step_peak_mb() if hasattr(wl, "step_peak_mb") else 0.0)
            layer["trace.overhead_pct"] = 100.0 * (
                statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
    finally:
        tracer.uninstall()

    fails = wl.check()
    for fail in fails:
        print(f"check failed: {fail}", file=sys.stderr)
    if hasattr(wl, "hypothesis_lengths"):
        lengths = wl.hypothesis_lengths()
        print(f"hypothesis lengths: {sorted(lengths)}", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds, {wl.items} items per round, "
          f"round seconds {[round(t, 3) for t in plain + traced]}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in _per_layer_units().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": wl.items * len(plain) / sum(plain),
                            "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not fails, "attempted": rounds * wl.operations,
            "failed": wl.failed, "metrics": metrics}


def _per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
