"""Timing statistics: medians and the tail-percentile rule."""

from __future__ import annotations

import math
import statistics


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Nearest rank: percentile p is the k-th smallest sample with
    k = ceil(p n / 100), and n - k samples lie beyond it.  Returns
    (p, value), or None when fewer than 11 samples leave no such
    percentile.
    """
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    p = max(q for q in range(1, 100) if math.ceil(q * n / 100) <= n - 10)
    return p, ordered[math.ceil(p * n / 100) - 1]


def describe(samples: list[float]) -> str:
    """'median ... | pNN ... | n=K' for a human-readable report line."""
    if not samples:
        return "no samples"
    text = f"p50 {statistics.median(samples):.4f}"
    tail = tail_percentile(samples)
    text += f" | p{tail[0]} {tail[1]:.4f}" if tail else " | tail n/a (<11 samples)"
    return text + f" | n={len(samples)}"


def tally(records: list[dict]) -> tuple[int, int]:
    """(attempted, failed): every timed command, and those with a problem."""
    return len(records), sum(1 for r in records if r["problems"])
