"""Steadiness self-check: run each workload repeatedly and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 benchmarks/steadiness.py [--runs 10]
        [--workloads pipeline train translate] [--baseline FILE]

Runs ``benchmarks/run.py`` once per seed (seeds 1 .. runs), one workload
after another, with the run length from BENCHMARK.json, and prints each
run's metrics and wall time.  For each metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread, the
quartile distance as a share of the median.  With ``--baseline`` (a JSON
file an earlier check wrote) it also prints how far each median moved,
in the metric's worse direction, as a share of the earlier median.

Writes ``.bench_results/steadiness-<time>.json`` and exits 1 if a run was
not correct, if the failed share differed between runs, if a spread
other than ``setup_s`` exceeds its bound, or if a median got worse than
the baseline's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)["summary"]

    ok = True
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in workloads:
        runs[workload] = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, bench["run_seconds"])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                + f", wall {result['wall_s']:.1f} s", flush=True)
        results = runs[workload]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run was not correct")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            print(f"{workload}: failed shares differ between runs: {shares}")
            ok = False
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"{workload:10s} {name:12s} median {median:10.4g}  "
                    f"q1 {q1:10.4g}  q3 {q3:10.4g}  spread {spread:6.3f}  "
                    f"bound {bound}")
            if name != "setup_s" and spread > bound:
                line += "  SPREAD OVER BOUND"
                ok = False
            before = baseline.get(workload, {}).get(name)
            if before:
                sign = 1 if metric["better"] == "lower" else -1
                worse = sign * (median - before["median"]) / before["median"]
                line += f"  worse than baseline by {worse:+.3f}"
                if worse > bound:
                    line += "  OVER BOUND"
                    ok = False
            print(line)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": bound,
                                       "values": values}

    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steadiness-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "runs": runs}, fh, indent=1)
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
