"""The reference kernel: a fixed unit of pure-Python work to time against.

Every time metric of the benchmark is reported as a multiple of this
kernel's duration, measured in the same process next to the operation it
is paired with.  The host this runs on drifts in speed from minute to
minute; a ratio of two durations taken seconds apart cancels most of
that drift, where raw milliseconds do not.

The kernel imports nothing from ``repro``, so no change to the program
can change it.  Its work has the same character as the program's: a
semi-naive closure over tuples held in sets and dicts (the sparse
algebra), then bit-mask folds with big-int shifts, ands and ors (the
packed kernel).  It returns a checksum so that its result is used and
any fault in it shows as a wrong value.
"""

from __future__ import annotations

import time

#: Vertices of the closure part's fixed graphs.
N = 48

#: Closures computed per run, each over a different fixed graph.
ROUNDS = 6

#: Width in bits of the mask part's integer: 128 KiB, as large as the
#: packed kernel's masks at n ~ 100, k = 3, so that it feels the same
#: memory traffic they do.
MASK_BITS = 1 << 20

#: Folds over the wide mask per run.
FOLDS = 4

#: The checksum :func:`reference_kernel` must return.
CHECKSUM = 11976788


def _closures() -> int:
    """Semi-naive closures over tuples in sets, then small mask folds."""
    checksum = 0
    for rep in range(ROUNDS):
        succ = {
            v: ((v * (2 * rep + 3) + rep) % N, (v * 5 + rep + 1) % N)
            for v in range(N)
        }
        reach = {(v, w) for v in range(N) for w in succ[v]}
        frontier = set(reach)
        while frontier:
            step = {(v, x) for (v, w) in frontier for x in succ[w]}
            frontier = step - reach
            reach |= frontier
        mask = 0
        for v, w in reach:
            mask |= 1 << (v * N + w)
        full = (1 << (N * N)) - 1
        row = (1 << N) - 1
        for _ in range(8):
            acc = mask
            shift = N
            while shift < N * N:
                acc |= acc >> shift
                shift *= 2
            checksum = (checksum * 31 + (acc & row).bit_count()) & 0xFFFFFF
            mask = (mask << 1 | mask >> 1) & full
        checksum = (checksum + len(reach)) & 0xFFFFFF
    return checksum


def _wide_folds() -> int:
    """Doubling or-folds, ands and shifts over one wide integer."""
    full = (1 << MASK_BITS) - 1
    mask = full ^ (full // 3)
    checksum = 0
    for _ in range(FOLDS):
        acc = mask
        shift = 1 << 10
        while shift < MASK_BITS:
            acc |= acc >> shift
            acc &= mask | (mask << 1)
            shift *= 2
        checksum = (checksum * 31 + (acc & 0xFFFFFFFF).bit_count()) & 0xFFFFFF
        mask = ((mask << 3) | (mask >> 7)) & full
    return checksum


def reference_kernel() -> int:
    """Run the fixed kernel once and return its checksum."""
    return (_closures() * 31 + _wide_folds()) & 0xFFFFFF


def timed_reference() -> float:
    """One kernel run's duration in seconds; raises if its checksum is wrong."""
    start = time.perf_counter()
    value = reference_kernel()
    elapsed = time.perf_counter() - start
    if value != CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {value} != {CHECKSUM}")
    return elapsed
