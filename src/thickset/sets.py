"""Finite unions of open intervals, optionally periodic, with exact measure.

A set is a sorted tuple of disjoint (lo, hi) pairs.  A periodic set stores
one fundamental cell inside [0, period] and repeats it over the whole line.
Window measures and the sliding-window density ("thickness") are computed
exactly: the map t -> |E intersect (t, t+a)| is piecewise linear, so its
minimum over one period is attained at an endpoint breakpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    EmptySetError,
    InvalidGammaError,
    InvalidIntervalError,
    InvalidWindowError,
)

# Endpoints closer than this are merged; measure is insensitive to it.
MERGE_TOL = 1e-12


def _merge(pairs) -> tuple[tuple[float, float], ...]:
    out: list[list[float]] = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1] + MERGE_TOL:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint intervals; `period` repeats them along the line."""

    intervals: tuple[tuple[float, float], ...]
    period: float | None = None

    def __post_init__(self) -> None:
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise EmptySetError("an interval set needs at least one interval")
        prev_hi = None
        for lo, hi in ivs:
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise InvalidIntervalError(f"invalid interval ({lo}, {hi})")
            if prev_hi is not None and lo < prev_hi - MERGE_TOL:
                raise InvalidIntervalError("intervals overlap; use normalize()")
            prev_hi = hi
        if self.period is not None:
            L = float(self.period)
            object.__setattr__(self, "period", L)
            if not math.isfinite(L) or L <= 0:
                raise InvalidIntervalError(f"invalid period {self.period}")
            if ivs[0][0] < -MERGE_TOL or ivs[-1][1] > L + MERGE_TOL:
                raise InvalidIntervalError("periodic cell must lie in [0, period]")

    @property
    def measure(self) -> float:
        """Total length of one cell (of the whole set when aperiodic)."""
        return float(sum(hi - lo for lo, hi in self.intervals))

    def materialize(self, lo: float, hi: float) -> tuple[tuple[float, float], ...]:
        """Concrete disjoint intervals of the set inside the window (lo, hi).

        Periodic sets are unrolled; pieces that touch across a period
        boundary are merged.  Returns () for an empty intersection.
        """
        if hi <= lo:
            return ()
        pieces: list[tuple[float, float]] = []
        if self.period is None:
            for a, b in self.intervals:
                if b > lo and a < hi:
                    pieces.append((max(a, lo), min(b, hi)))
        else:
            L = self.period
            k0 = math.floor(lo / L) - 1
            k1 = math.floor(hi / L) + 1
            for k in range(k0, k1 + 1):
                off = k * L
                for a, b in self.intervals:
                    aa, bb = a + off, b + off
                    if bb > lo and aa < hi:
                        pieces.append((max(aa, lo), min(bb, hi)))
        if not pieces:
            return ()
        return _merge(pieces)


def normalize(
    raw_intervals, period: float | None = None
) -> IntervalSet:
    """Sort, validate and merge raw (lo, hi) pairs into an IntervalSet."""
    pairs = [(float(lo), float(hi)) for lo, hi in raw_intervals]
    if not pairs:
        raise EmptySetError("no intervals given")
    for lo, hi in pairs:
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise InvalidIntervalError(f"invalid interval ({lo}, {hi})")
    return IntervalSet(_merge(pairs), period)


def period_ratio(E: IntervalSet, period: float) -> int:
    """Number q of set periods in a torus of length `period`; 1 if aperiodic.

    A periodic set lives on the torus only when its period divides the
    torus length; otherwise ValueError.
    """
    if E.period is None:
        return 1
    ratio = float(period) / E.period
    q = round(ratio)
    if abs(ratio - q) > 1e-9 or q < 1:
        raise ValueError("set period must divide the torus period")
    return q


def measure_within(E: IntervalSet, window: tuple[float, float]) -> float:
    """Exact Lebesgue measure of E intersected with the open window."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise InvalidWindowError(f"invalid window ({lo}, {hi})")
    return float(sum(b - a for a, b in E.materialize(lo, hi)))


@dataclass(frozen=True)
class ThicknessCertificate:
    """Window length and the exact worst-case relative density."""

    window: float
    gamma: float


def thickness(
    E: IntervalSet, a: float, domain: tuple[float, float] | None = None
) -> ThicknessCertificate:
    """Exact gamma = min_t |E intersect (t, t+a)| / a.

    Parameters
    ----------
    E : IntervalSet
        Periodic sets are scanned over one period.  Aperiodic sets need an
        explicit compact `domain`; windows range over [domain lo, domain hi - a].
    a : float
        Window length, a > 0.
    """
    if not (a > 0 and math.isfinite(a)):
        raise InvalidWindowError(f"window length must be positive, got {a}")
    candidates: set[float] = set()
    if E.period is not None:
        L = E.period
        for lo, hi in E.intervals:
            for e in (lo, hi):
                candidates.add(e % L)
                candidates.add((e - a) % L)
        candidates.add(0.0)
    else:
        if domain is None:
            raise InvalidWindowError("aperiodic thickness needs a compact domain")
        d_lo, d_hi = float(domain[0]), float(domain[1])
        if d_hi - d_lo < a:
            raise InvalidWindowError("domain shorter than the window")
        t_hi = d_hi - a
        candidates.update((d_lo, t_hi))
        for lo, hi in E.intervals:
            for e in (lo, hi):
                for t in (e, e - a):
                    if d_lo <= t <= t_hi:
                        candidates.add(t)
    worst = min(measure_within(E, (t, t + a)) for t in sorted(candidates))
    gamma = min(max(worst / a, 0.0), 1.0)
    return ThicknessCertificate(window=a, gamma=gamma)


def two_sliver_set(gamma: float) -> IntervalSet:
    """1-periodic set of density gamma, one sliver around each half-integer.

    Within the window [-1/2, 1/2] the set shows as two slivers of width
    gamma/2 hugging the endpoints; the periodic extension is an interval of
    length gamma centered on every half-integer, so each unit window holds
    exactly measure gamma while the integers stay in the middle of the gaps.
    """
    g = float(gamma)
    if not (0.0 < g <= 1.0) or not math.isfinite(g):
        raise InvalidGammaError(f"gamma must be in (0, 1], got {gamma}")
    if g == 1.0:
        return IntervalSet(((0.0, 1.0),), period=1.0)
    return IntervalSet(((0.5 - g / 2.0, 0.5 + g / 2.0),), period=1.0)
