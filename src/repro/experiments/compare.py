"""Pairwise series comparison primitives."""

from __future__ import annotations

from typing import Sequence


def _check(a: Sequence[float], b: Sequence[float]) -> None:
    if len(a) != len(b):
        raise ValueError(f"series lengths differ: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("series must be non-empty")


def dominance_fraction(
    candidate: Sequence[float],
    baseline: Sequence[float],
    higher_is_better: bool = True,
    tolerance: float = 0.0,
) -> float:
    """Fraction of sweep points at which the candidate wins (ties excluded
    unless within ``tolerance``, which counts as a win)."""
    _check(candidate, baseline)
    wins = 0
    for c, b in zip(candidate, baseline):
        delta = (c - b) if higher_is_better else (b - c)
        if delta >= -tolerance:
            wins += 1
    return wins / len(candidate)


def crossover_points(
    x_values: Sequence[float],
    a: Sequence[float],
    b: Sequence[float],
) -> list[float]:
    """Approximate x positions where series ``a`` and ``b`` cross.

    Linear interpolation between adjacent sweep points; exact ties at a
    grid point report that grid x.
    """
    _check(a, b)
    if len(x_values) != len(a):
        raise ValueError("x_values must align with the series")
    crossings: list[float] = []
    diffs = [ai - bi for ai, bi in zip(a, b)]
    for i in range(1, len(diffs)):
        d0, d1 = diffs[i - 1], diffs[i]
        if d0 == 0.0:
            crossings.append(float(x_values[i - 1]))
        elif d0 * d1 < 0.0:
            # Interpolate the zero of the difference.
            t = d0 / (d0 - d1)
            x = x_values[i - 1] + t * (x_values[i] - x_values[i - 1])
            crossings.append(float(x))
    if diffs[-1] == 0.0:
        crossings.append(float(x_values[-1]))
    return crossings


def trend(values: Sequence[float], tolerance: float = 0.0) -> str:
    """Classify a series as 'increasing', 'decreasing', 'flat' or 'mixed'.

    The classification is by net direction of consecutive steps with
    ``tolerance`` absorbing noise.
    """
    if len(values) < 2:
        return "flat"
    ups = downs = 0
    for prev, cur in zip(values, values[1:]):
        if cur > prev + tolerance:
            ups += 1
        elif cur < prev - tolerance:
            downs += 1
    if ups and not downs:
        return "increasing"
    if downs and not ups:
        return "decreasing"
    if not ups and not downs:
        return "flat"
    return "mixed"
