"""The two in-process workloads: one ``evaluate`` call per operation.

``fp-deep-sparse``  FP^3 transitive closure (the T2-FP query) under
                    ``strategy=seminaive`` on the default (sparse) backend,
                    over a seeded random relabeling of a path of n = 128
                    vertices.  Every input takes the same n rounds of the
                    fixpoint loop, and no two inputs are equal.
``fo-path-packed``  The FO^3 path-4 query on ``backend="packed"``, over a
                    fresh seeded G(n, p) graph with n = 115 and p chosen so
                    that about half of all pairs are answers.

Each operation loads its input with ``Database.from_tuples`` (the
workload's write), evaluates once, and checks the answer against
:mod:`oracles`.  Only the two program calls are timed.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, List, Set, Tuple

import oracles
from measure import Round, layer_self_ms

Edge = Tuple[int, int]

#: Vertices of the relabeled path; a point of the scale ladder
#: (26, 64, 128, 200) where one semi-naive closure takes well over 50 ms.
FP_N = 128

#: Vertices of the G(n, p) graphs; the largest n at which a packed path-4
#: query stays near 0.1 s, so a run holds well over 100 operations.
FO_N = 115

#: Path length of the FO^3 path query (k = 3 variables by reuse).
FO_PATH_LEN = 4

#: Edge probability making about half of all pairs joined by a walk of
#: length 4: the expected number of such walks per pair is n^3 p^4, and
#: 1 - exp(-n^3 p^4) = 1/2 at n^3 p^4 = ln 2.
FO_P = (math.log(2) / FO_N ** 3) ** 0.25

#: The T2-FP transitive-closure query (as in ``repro.perf.experiments``).
TC_QUERY = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"


def path_query_text(length: int, edge: str = "E") -> str:
    """The text of the paper's FO^3 path query, by variable reuse:
    ``p1 = E(x, y)``, ``p(m+1) = exists z. (E(x, z) & exists x. (x = z & pm))``."""
    text = f"{edge}(x, y)"
    for _ in range(length - 1):
        text = f"exists z. ({edge}(x, z) & exists x. (x = z & {text}))"
    return text


def input_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def relabeled_path(seed: int, index: int) -> List[Edge]:
    order = list(range(FP_N))
    input_rng(seed, index).shuffle(order)
    return list(zip(order, order[1:]))


def gnp(seed: int, index: int) -> List[Edge]:
    rng = input_rng(seed, index)
    return [
        (a, b) for a in range(FO_N) for b in range(FO_N) if rng.random() < FO_P
    ]


class InProcessWorkload:
    """Fresh seeded inputs, one ``evaluate`` each, checked by an oracle."""

    def __init__(
        self,
        name: str,
        query_text: str,
        output_vars: Tuple[str, str],
        n: int,
        make_edges: Callable[[int, int], List[Edge]],
        oracle: Callable[[List[Edge]], Set[Edge]],
        strategy: str,
        backend: str | None,
    ):
        self.name = name
        self.query_text = query_text
        self.output_vars = output_vars
        self.n = n
        self.make_edges = make_edges
        self.oracle = oracle
        self.strategy = strategy
        self.backend = backend

    def setup(self, seed: int) -> float:
        """Import the program, parse the query, make the first input.

        Returns the seconds the query parse took (the ``logic`` layer)."""
        from repro import Database, EvalOptions, FixpointStrategy, Query, evaluate
        from repro.obs import Tracer

        self._db_from = Database.from_tuples
        self._evaluate = evaluate
        self._tracer = Tracer
        start = time.perf_counter()
        self.query = Query.parse(self.query_text, output_vars=self.output_vars)
        parsed = time.perf_counter() - start
        self._options = lambda trace=None: EvalOptions(
            strategy=FixpointStrategy(self.strategy),
            backend=self.backend,
            trace=trace,
        )
        self.seed = seed
        self._next_edges = self.make_edges(seed, 0)
        return parsed

    def describe(self) -> dict:
        from repro.kernel.backend import resolve_backend
        from repro.perf.compile import resolve_compile

        db = self._db_from(range(self.n), {})
        return {
            "workload": self.name,
            "n": self.n,
            "backend": resolve_backend(self.backend, db.domain).name,
            "strategy": self.strategy,
            "compile": resolve_compile(None),
        }

    def instrument(self) -> None:
        pass

    def close(self) -> None:
        pass

    def extra_rss_mb(self) -> float:
        return 0.0

    def run_round(self, index: int, traced: bool) -> Round:
        out = Round(attempted=2)
        edges = self._next_edges
        universe = range(self.n)
        try:
            start = time.perf_counter()
            db = self._db_from(universe, {"E": (2, edges)})
            loaded = time.perf_counter()
            tracer = self._tracer() if traced else None
            result = self._evaluate(
                self.query.formula, db, self.output_vars, self._options(tracer)
            )
            done = time.perf_counter()
        except Exception as exc:  # counted, the run goes on
            out.failed = out.attempted
            out.wrong.append(f"round {index}: {type(exc).__name__}: {exc}")
            self._next_edges = self.make_edges(self.seed, index + 1)
            return out
        out.writes.append(loaded - start)
        out.latencies.append(done - loaded)
        if set(result.relation.tuples) != self.oracle(edges):
            out.wrong.append(f"round {index}: answer differs from the oracle")
        stats = result.stats.as_dict()
        out.evaluations = 1
        out.count("core.table_ops", stats["table_ops"])
        out.count("core.fixpoint_iterations", stats["fixpoint_iterations"])
        out.peak("core.max_intermediate_rows", stats["max_intermediate_rows"])
        snapshot = result.stats.registry.snapshot()
        out.count("kernel.tables", snapshot.get("kernel.tables", 0))
        out.peak("kernel.mask_bits_peak", snapshot.get("kernel.mask_bits", 0))
        out.count("kernel.cache.hits", sum(
            v for k, v in snapshot.items()
            if k.startswith("kernel.cache.") and k.endswith("_hits")
        ))
        out.count("kernel.cache.misses", sum(
            v for k, v in snapshot.items()
            if k.startswith("kernel.cache.") and k.endswith("_misses")
        ))
        if traced:
            spans = [span.to_dict() for span in tracer.spans]
            for name, value in layer_self_ms(spans).items():
                out.sample(name, value)
        out.sample("database.mutate_ms", (loaded - start) * 1000.0)
        # the next input is made here, outside the timed calls
        self._next_edges = self.make_edges(self.seed, index + 1)
        return out


def fp_deep_sparse() -> InProcessWorkload:
    return InProcessWorkload(
        "fp-deep-sparse", TC_QUERY, ("u", "v"), FP_N,
        relabeled_path, oracles.closure, strategy="seminaive", backend=None,
    )


def fo_path_packed() -> InProcessWorkload:
    return InProcessWorkload(
        "fo-path-packed", path_query_text(FO_PATH_LEN), ("x", "y"), FO_N,
        gnp, lambda edges: oracles.walks(edges, FO_PATH_LEN),
        strategy="monotone", backend="packed",
    )


__all__ = ["fo_path_packed", "fp_deep_sparse"]
