"""Measurement helpers shared by the workloads: quantiles, span self time,
resident memory, and the per-round record every workload returns."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_ms(spans: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """Self time per span name, in ms: a span's duration minus the part
    of it its child spans cover (children of one span never overlap)."""
    spans = list(spans)
    child_total: Dict[object, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + float(span["duration"])
    out: Dict[str, float] = {}
    for span in spans:
        own = float(span["duration"]) - child_total.get(span["span_id"], 0.0)
        name = str(span["name"])
        out[name] = out.get(name, 0.0) + max(own, 0.0) * 1000.0
    return out


def layer_self_ms(spans: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """The span self times the per-layer metrics read, for one operation."""
    own = self_ms(spans)
    return {
        "evaluate.self_ms": own.get("evaluate", 0.0),
        "fo.self_ms": sum(v for k, v in own.items() if k.startswith("fo.")),
        "fp.solve.self_ms": own.get("fp.solve", 0.0),
        "fp.iteration.self_ms": own.get("fp.iteration", 0.0),
        "kernel.project.self_ms": own.get("kernel.project", 0.0),
        "kernel.join.self_ms": own.get("kernel.join", 0.0),
        "kernel.fixpoint_check.self_ms": own.get("kernel.fixpoint_check", 0.0),
    }


def own_peak_rss_mb() -> float:
    """This process's peak resident set, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Round:
    """What one round of a workload did.

    ``latencies`` are the seconds of the workload's operation class (the
    one ``latency_p50_ref`` reports); ``writes`` the seconds of its data
    loads or mutations; ``wall`` the round's whole wall-clock seconds,
    the client's input generation and answer checks included.
    ``layers`` maps a per-layer time metric to its samples (traced rounds
    only) and ``counters`` holds the exact counts of the round's
    ``evaluations`` program evaluations.
    """

    latencies: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    evaluations: int = 0
    wrong: List[str] = field(default_factory=list)
    layers: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def sample(self, name: str, value: float) -> None:
        self.layers.setdefault(name, []).append(value)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)
