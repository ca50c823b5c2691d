"""Finite unions of open intervals, optionally periodic, with exact measure.

A set is a sorted tuple of disjoint (lo, hi) pairs.  A periodic set stores
one fundamental cell inside [0, period] and repeats it over the whole line.
Windows are measured by one cumulative measure M(x) = |E intersect (c, x)|
(c = 0 if periodic, else -inf): a running sum of lengths, then a bisect per x.
t -> |E intersect (t, t+a)| is piecewise linear, and its minimum ties with one
at a right end or a range end: K + 2 candidates, O(K log K), no unrolling.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import ThicksetError

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
            raise ThicksetError("an interval set needs at least one interval")
        prev_hi = None
        for lo, hi in ivs:
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ThicksetError(f"invalid interval ({lo}, {hi})")
            if prev_hi is not None and lo < prev_hi - MERGE_TOL:
                raise ThicksetError("intervals overlap; use normalize()")
            prev_hi = hi
        if self.period is not None:
            L = float(self.period)
            object.__setattr__(self, "period", L)
            if not math.isfinite(L) or L <= 0:
                raise ThicksetError(f"invalid period {self.period}")
            if ivs[0][0] < -MERGE_TOL or ivs[-1][1] > L + MERGE_TOL:
                raise ThicksetError("periodic cell must lie in [0, period]")

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
        L = self.period
        offsets = [0.0] if L is None else [
            k * L for k in range(math.floor(lo / L) - 1, math.floor(hi / L) + 2)]
        return _merge((max(a + off, lo), min(b + off, hi)) for off in offsets
                      for a, b in self.intervals if b + off > lo and a + off < hi)


def normalize(raw_intervals, period: float | None = None) -> IntervalSet:
    """Sort, validate and merge raw (lo, hi) pairs into an IntervalSet."""
    pairs = [(float(lo), float(hi)) for lo, hi in raw_intervals]
    if not pairs:
        raise ThicksetError("no intervals given")
    for lo, hi in pairs:
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ThicksetError(f"invalid interval ({lo}, {hi})")
    return IntervalSet(_merge(pairs), period)


def period_ratio(E: IntervalSet, period: float) -> int:
    """Number q of set periods in a torus of length `period`; 1 if aperiodic.

    A periodic set lives on the torus only when its period divides the
    torus length; otherwise ThicksetError.  Modes are reduced mod q in int64,
    so a q from 2^63 is refused.
    """
    if E.period is None:
        return 1
    ratio = float(period) / E.period
    if not ratio < 2.0**63:
        raise ThicksetError(f"the torus holds q = {ratio:g} set periods, past the int64 range")
    q = round(ratio)
    if abs(ratio - q) > 1e-9 or q < 1:
        raise ThicksetError("set period must divide the torus period")
    return q


def _cumulative(E: IntervalSet, xs) -> list[float]:
    """M(x) for each x; a periodic x is first split by divmod into periods."""
    los, his = zip(*E.intervals)
    cum = [0.0, *accumulate(hi - lo for lo, hi in E.intervals)]
    out = []
    for x in xs:
        q, r = (0.0, x) if E.period is None else divmod(x, E.period)
        i = bisect_right(los, r)
        part = cum[i - 1] + (min(r, his[i - 1]) - los[i - 1]) if i else 0.0
        out.append(q * cum[-1] + part)
    return out


def measure_within(E: IntervalSet, window: tuple[float, float]) -> float:
    """Exact Lebesgue measure of E in the open window: M(hi) - M(lo)."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ThicksetError(f"invalid window ({lo}, {hi})")
    m_lo, m_hi = _cumulative(E, (lo, hi))
    return m_hi - m_lo


@dataclass(frozen=True)
class ThicknessCertificate:
    """Window length and the exact worst-case relative density."""

    window: float
    gamma: float


def thickness(
    E: IntervalSet, a: float, domain: tuple[float, float] | None = None
) -> ThicknessCertificate:
    """Exact gamma = min_t |E intersect (t, t+a)| / a for a window length a > 0.

    Window t holds M(t + a) - M(t); it stops falling at t = hi or at t = lo - a, where it
    stays flat until t = hi or it falls again.  So the minimum ties with one at a right end hi
    (mod the period) or a range end: (0, period + a) if periodic, else [lo, hi - a] of `domain`.
    """
    if not (a > 0 and math.isfinite(a)):
        raise ThicksetError(f"window length must be positive, got {a}")
    L = E.period
    if L is not None:
        domain = (0.0, L + a)
    elif domain is None:
        raise ThicksetError("aperiodic thickness needs a compact domain")
    d_lo, d_hi = float(domain[0]), float(domain[1])
    if d_hi - d_lo < a:
        raise ThicksetError("domain shorter than the window")
    t_hi = d_hi - a
    ends = {hi % L if L else hi for _, hi in E.intervals}
    ts = list({d_lo, t_hi}.union(t for t in ends if d_lo <= t <= t_hi))
    m = _cumulative(E, ts + [t + a for t in ts])
    worst = min(hi - lo for lo, hi in zip(m, m[len(ts):]))
    return ThicknessCertificate(window=a, gamma=min(max(worst / a, 0.0), 1.0))


def two_sliver_set(gamma: float) -> IntervalSet:
    """1-periodic set of density gamma, one sliver around each half-integer.

    Within the window [-1/2, 1/2] the set shows as two slivers of width
    gamma/2 hugging the endpoints; the periodic extension is an interval of
    length gamma centered on every half-integer, so each unit window holds
    exactly measure gamma while the integers stay in the middle of the gaps.
    """
    g = float(gamma)
    if not (0.0 < g <= 1.0) or not math.isfinite(g):
        raise ThicksetError(f"gamma must be in (0, 1], got {gamma}")
    return IntervalSet(((0.5 - g / 2.0, 0.5 + g / 2.0),), period=1.0)
