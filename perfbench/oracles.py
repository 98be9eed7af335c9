"""Independent answers for every query the benchmark runs.

Plain Python over sets of edges; nothing here imports ``repro``, so a
fault in the program cannot hide by also being in its checker.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

Edge = Tuple[int, int]


def _successors(edges: Iterable[Edge]) -> Dict[int, Set[int]]:
    succ: Dict[int, Set[int]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    return succ


def closure(edges: Iterable[Edge]) -> Set[Edge]:
    """Pairs ``(u, v)`` joined by a walk of one or more edges (BFS per source)."""
    succ = _successors(edges)
    pairs: Set[Edge] = set()
    for source in succ:
        seen: Set[int] = set()
        frontier = list(succ[source])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(succ.get(node, ()))
        pairs.update((source, node) for node in seen)
    return pairs


def walks(edges: Iterable[Edge], length: int) -> Set[Edge]:
    """Pairs ``(x, y)`` joined by a walk of exactly ``length`` edges."""
    succ = _successors(edges)
    pairs: Set[Edge] = set()
    for source in succ:
        level = {source}
        for _ in range(length):
            level = {b for a in level for b in succ.get(a, ())}
        pairs.update((source, node) for node in level)
    return pairs
