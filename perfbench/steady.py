"""Steadiness and exact-counter checks over fresh ``run.py`` processes.

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --counters --seconds 4

The first form runs every workload of BENCHMARK.json ``--runs`` times,
run ``i`` (from 0) with seed ``1 + i``, alternating the workload order
from run to run.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, and flags every
spread that exceeds the metric's bound in BENCHMARK.json.  It also
checks that every run was correct and failed the same share of its
operations.

With ``--runs 1`` it is the one command that runs all three workloads.

``--counters`` instead runs each workload traced twice with seed 1, the
second time for twice as long, and checks that every exact counter
(``count``, ``bits`` and the hit ratios) is identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = 1


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])
    return result


def steadiness(spec, workloads, runs: int, seconds: float) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run(workload, SEED + i, seconds, 0)
            info = result["info"]
            print(f"run {i + 1:2d} {workload:15s} seed {SEED + i}: "
                  f"{info['operations']} ops, wall_p50_ms "
                  f"{info['wall_p50_ms']:.2f}, host.ref_kernel_ms "
                  f"{info['host.ref_kernel_ms']:.3f}", flush=True)
            results[workload].append(result)
    flagged = 0
    print(f"\n{'workload':15s} {'metric':19s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for workload, rows in results.items():
        shares = {r["failed"] / r["attempted"] for r in rows}
        if not all(r["correct"] for r in rows) or len(shares) != 1:
            print(f"{workload}: incorrect run or unequal failed share {shares}")
            flagged += 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med
            over = spread > bound
            flagged += over
            print(f"{workload:15s} {name:19s} {med:10.4f} {q1:10.4f} "
                  f"{q3:10.4f} {spread:7.3f} {bound:6.2f}"
                  f"{'  OVER BOUND' if over else ''}")
    return 1 if flagged else 0


def counters(spec, workloads, seconds: float) -> int:
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "bits") or m["name"].endswith("hit_ratio")]
    differ = 0
    for workload in workloads:
        first = run(workload, SEED, seconds, 1)["metrics"]
        second = run(workload, SEED, 2 * seconds, 1)["metrics"]
        for name in exact:
            a, b = first[name]["value"], second[name]["value"]
            same = a == b
            differ += not same
            print(f"{workload:15s} {name:28s} {a!r:>22} {b!r:>22}"
                  f"{'' if same else '  DIFFERS'}")
    return 1 if differ else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--counters", action="store_true")
    args = parser.parse_args()
    if args.counters:
        return counters(spec, names, args.seconds)
    return steadiness(spec, names, args.runs, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
