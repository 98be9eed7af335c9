"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fp-deep-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it describes the run: the resolved backend, strategy
and compile setting, the raw wall-clock median (``wall_p50_ms``) and
the reference kernel's own median (``host.ref_kernel_ms``).

Time metrics with unit ``ref`` are multiples of the duration of the
reference kernel (``refkernel.py``), run before and after each round.
See README.md for the workloads, the metrics and the layer each one
belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Environment variables that would change what the program runs; every
#: workload runs with them removed.
PINNED_ENV = (
    "REPRO_BENCH_BACKEND",
    "REPRO_COMPILE",
    "REPRO_BENCH_JOBS",
    "REPRO_BENCH_DEADLINE",
)

WORKLOADS = ("fp-deep-sparse", "fo-path-packed", "serve-rw")

#: Set-ups timed per run, each in a fresh interpreter; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 5

#: The reference kernel's typical duration on the machine this benchmark
#: was built on (2 CPUs, CPython 3.11).  Each set-up is scaled by this over
#: the kernel's duration measured right after it, so ``setup_s`` is in
#: seconds at that host speed and the host's drift cancels out of it.
REF_NOMINAL_S = 0.020

#: A run goes on past ``--seconds`` until it holds this many operations
#: of its class, so that ``latency_p90_ref`` has ten samples beyond it.
MIN_OPS = 100

#: A run stops after this many seconds whatever it holds.
MAX_SECONDS = 150.0

#: Exact counters are taken over this many rounds at the start of a run,
#: so they do not depend on how long the run was.
COUNTER_ROUNDS = 6


def fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def make_workload(name: str):
    if name == "fp-deep-sparse":
        from inproc import fp_deep_sparse

        return fp_deep_sparse()
    if name == "fo-path-packed":
        from inproc import fo_path_packed

        return fo_path_packed()
    from serve_rw import ServeReadWrite

    return ServeReadWrite()


def set_up(name: str, seed: int):
    """Import the program and set the workload up; returns the workload,
    the set-up's seconds and the seconds its parse/prepare step took."""
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up)

    workload = make_workload(name)
    prepare_s = workload.setup(seed)
    return workload, time.perf_counter() - start, prepare_s


def fresh_setup_seconds(name: str, seed: int) -> tuple:
    """One set-up in a fresh interpreter, where the imports are cold:
    its raw seconds and its seconds scaled to ``REF_NOMINAL_S``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        fail(f"set-up of {name} failed:\n{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["setup_s"] * REF_NOMINAL_S / sample["ref_s"]


def setup_only(name: str, seed: int) -> int:
    from measure import median
    from refkernel import timed_reference

    workload, setup_s, _ = set_up(name, seed)
    ref_s = median(timed_reference() for _ in range(3))
    workload.close()
    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
    return 0


def measure(workload, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` have passed and ``MIN_OPS``
    operations are done.  A reference-kernel run comes before every round
    and after the last one.  In a traced run every second round is traced."""
    from refkernel import timed_reference

    refs, rounds = [timed_reference()], []
    ops = 0
    start = time.perf_counter()
    while True:
        index = len(rounds)
        began = time.perf_counter()
        rounds.append(workload.run_round(index, traced=trace and index % 2 == 1))
        rounds[-1].wall = time.perf_counter() - began
        refs.append(timed_reference())
        ops += len(rounds[-1].latencies)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and ops >= MIN_OPS):
            return refs, rounds


def end_to_end(refs, rounds, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics.  Every time in a round is divided by the
    mean of the two reference-kernel runs around that round, so drift in
    the host's speed during the run cancels out of each sample.
    Throughput is completed operations over the rounds' wall time, so it
    also sees the time between program calls."""
    from measure import quantile

    paired = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    latencies = [s / ref for ref, r in zip(paired, rounds) for s in r.latencies]
    writes = [s / ref for ref, r in zip(paired, rounds) for s in r.writes]
    done = sum(r.attempted - r.failed for r in rounds)
    wall = sum(r.wall / ref for ref, r in zip(paired, rounds))
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ref": (quantile(latencies, 0.5), "ref"),
        "latency_p90_ref": (quantile(latencies, 0.9), "ref"),
        "throughput_ops_ref": (done / wall, "ops/ref"),
        "write_p50_ref": (quantile(writes, 0.5), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


#: Per-layer metrics that are exact counts: per evaluation over the run's
#: first ``COUNTER_ROUNDS`` rounds (peaks are maxima).
COUNTERS = {
    "core.table_ops": "count",
    "core.fixpoint_iterations": "count",
    "core.max_intermediate_rows": "count",
    "kernel.tables": "count",
    "kernel.mask_bits_peak": "bits",
    "kernel.cache.hits": "count",
    "kernel.cache.misses": "count",
    "cache.read_hits": "count",
    "cache.read_misses": "count",
}

#: Per-layer time metrics: the mean over traced evaluations, in ms (means
#: add up, so a saving in one layer shows as its share of the total).
LAYER_TIMES = (
    "evaluate.self_ms",
    "fo.self_ms",
    "fp.solve.self_ms",
    "fp.iteration.self_ms",
    "kernel.project.self_ms",
    "kernel.join.self_ms",
    "kernel.fixpoint_check.self_ms",
    "database.mutate_ms",
    "serve.http_ms",
    "serve.queue_wait_ms",
    "serve.ipc_ms",
    "serve.worker_eval_ms",
    "serve.bookkeeping_ms",
)


def per_layer(rounds, prepare_s: float) -> dict:
    from measure import median

    window = rounds[:COUNTER_ROUNDS]
    per_op = max(1, sum(r.evaluations for r in window))
    metrics = {"logic.prepare_ms": (prepare_s * 1000.0, "ms")}
    for name, unit in COUNTERS.items():
        values = [r.counters.get(name, 0) for r in window]
        if "peak" in name or "max_" in name:
            value = max(values)
        else:
            value = sum(values) / per_op
        metrics[name] = (value, unit)

    hits = sum(r.counters.get("kernel.cache.hits", 0) for r in window)
    misses = sum(r.counters.get("kernel.cache.misses", 0) for r in window)
    metrics["kernel.cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["cache.read_hit_ratio"] = (
        sum(r.counters.get("cache.read_hit_ratio", 0) for r in window) / per_op,
        "ratio")
    for name in LAYER_TIMES:
        samples = [v for r in rounds for v in r.layers.get(name, ())]
        metrics[name] = (sum(samples) / len(samples) if samples else 0.0, "ms")
    traced = [s for i, r in enumerate(rounds) if i % 2 == 1 for s in r.latencies]
    plain = [s for i, r in enumerate(rounds) if i % 2 == 0 for s in r.latencies]
    metrics["obs.trace_overhead"] = (median(traced) / median(plain), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        return setup_only(args.workload, args.seed)

    from measure import median, own_peak_rss_mb

    # a traced run reports no set-up time, so it takes no set-up samples
    samples = [
        fresh_setup_seconds(args.workload, args.seed)
        for _ in range(0 if args.trace else SETUP_SAMPLES)
    ]
    workload, _, prepare_s = set_up(args.workload, args.seed)
    try:
        info = workload.describe()
        if args.trace:
            workload.instrument()
        refs, rounds = measure(workload, args.seconds, bool(args.trace))
        rss_mb = own_peak_rss_mb() + workload.extra_rss_mb()
    finally:
        workload.close()

    wrong = [w for r in rounds for w in r.wrong]
    latencies = [s for r in rounds for s in r.latencies]
    info.update({
        "seed": args.seed,
        "rounds": len(rounds),
        "operations": len(latencies),
        "wall_p50_ms": median(latencies) * 1000.0,
        "host.ref_kernel_ms": median(refs) * 1000.0,
        "setup_raw_s": [raw for raw, _ in samples],
    })
    print(json.dumps(info))
    for problem in wrong[:20]:
        print(f"run.py: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(rounds, prepare_s)
    else:
        metrics = end_to_end(
            refs, rounds, median(scaled for _, scaled in samples), rss_mb)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
