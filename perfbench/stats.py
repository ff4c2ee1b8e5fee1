"""Arithmetic the benchmark reports with: percentiles, self time, failures.

Kept free of any ``repro`` import so the unit tests in this directory
run without the program on the path.
"""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot be the whole tail.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100) of *values*.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples
    lie beyond the rank: p90 needs at least 100 samples, p50 at least
    20, and p99 at least 1000.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q / 100 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"need at least {MIN_BEYOND}")
    return ordered[rank - 1]


def covered(start: float, end: float, children) -> float:
    """Length of ``[start, end]`` covered by the union of *children*.

    Children are ``(start, end)`` intervals; they may nest, overlap
    each other (threads, interleaved tasks) or stick out of the parent,
    and only the part inside the parent counts, once.
    """
    total = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part its children cover."""
    return (end - start) - covered(start, end, children)


def failed_ratio(outcomes) -> tuple[int, int, float]:
    """``(attempted, failed, failed / attempted)`` over logical requests.

    Each outcome is a mapping with ``ok`` (the request finally
    succeeded and its output matched the oracle) and optionally
    ``refusals`` (admission refusals retried before that).  A request
    counts once however many times it was refused and retried; it
    fails only if its last attempt errored, its retries ran out, or its
    output differed from the oracle.
    """
    outcomes = list(outcomes)
    attempted = len(outcomes)
    if attempted == 0:
        raise ValueError("no requests attempted")
    failed = sum(1 for outcome in outcomes if not outcome["ok"])
    return attempted, failed, failed / attempted
