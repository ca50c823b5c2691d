"""Trigonometric polynomials as the computable model of band-limited functions.

A function lives on a torus of length ``period`` and is a finite sum
``f(x) = sum_j c_j exp(i nu_j x)`` over lattice frequencies
``nu_j = 2 pi m_j / period`` with distinct integers ``m_j``.  Derivatives are
exact and termwise; Lp norms are composite Gauss-Legendre integrals whose
panel width tracks the highest frequency, so the p = 2 norm can be checked
against the exact coefficient formula ``integral |f|^2 = period * sum |c_j|^2``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateFrequencyError,
    EmptyBandError,
    EmptySetError,
    InvalidBandError,
    InvalidDegreeError,
    InvalidExponentError,
    InvalidIntervalError,
    ZeroFunctionError,
)
from .quadrature import panel_nodes, panel_width, sup_abs
from .sets import IntervalSet, period_ratio


# Cap on nodes * (baby + giant steps) per evaluation block, to bound memory.
_EVAL_BLOCK = 2_000_000


@dataclass(frozen=True)
class BandSpec:
    """Union of n bands of common width centered at increasing frequencies."""

    centers: tuple[float, ...]
    width: float

    def __post_init__(self) -> None:
        centers = tuple(float(c) for c in self.centers)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "width", float(self.width))
        if not centers:
            raise InvalidBandError("a band spec needs at least one center")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise InvalidBandError(f"band width must be positive, got {self.width}")
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise InvalidBandError("band centers must be strictly increasing")

    @property
    def count(self) -> int:
        return len(self.centers)

    def bands(self) -> tuple[tuple[float, float], ...]:
        h = 0.5 * self.width
        return tuple((c - h, c + h) for c in self.centers)

    def min_gap(self) -> float:
        """Smallest center-to-center spacing (inf for a single band)."""
        if self.count == 1:
            return math.inf
        return min(b - a for a, b in zip(self.centers, self.centers[1:]))

    def well_separated(self) -> bool:
        """Spacing of at least twice the width between consecutive centers."""
        return self.min_gap() >= 2.0 * self.width - 1e-12

    def overlapping(self) -> bool:
        return self.min_gap() < self.width - 1e-12


@dataclass(frozen=True)
class TrigPoly:
    """Immutable trig polynomial: integer lattice modes and complex weights."""

    period: float
    ms: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        period = float(self.period)
        if not (period > 0 and math.isfinite(period)):
            raise InvalidIntervalError(f"period must be positive and finite, got {self.period}")
        ms = np.asarray(self.ms, dtype=np.int64).ravel()
        coeffs = np.asarray(self.coeffs, dtype=np.complex128).ravel()
        if ms.shape != coeffs.shape:
            raise ValueError("ms and coeffs must have matching lengths")
        order = np.argsort(ms, kind="stable")
        ms = ms[order].copy()
        coeffs = coeffs[order].copy()
        if ms.size > 1 and np.any(np.diff(ms) == 0):
            raise DuplicateFrequencyError("repeated lattice mode")
        ms.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "ms", ms)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_terms(cls, period: float, terms) -> "TrigPoly":
        ms = [int(m) for m, _ in terms]
        cs = [complex(c) for _, c in terms]
        return cls(period, np.array(ms, dtype=np.int64), np.array(cs))

    @property
    def frequencies(self) -> np.ndarray:
        return math.tau * self.ms / self.period

    @property
    def max_frequency(self) -> float:
        live = np.abs(self.coeffs) > 0
        if not np.any(live):
            return 0.0
        return float(np.max(np.abs(self.frequencies[live])))

    @property
    def spectrum(self) -> np.ndarray:
        """Frequencies carrying a nonzero coefficient."""
        return self.frequencies[np.abs(self.coeffs) > 0]

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    @cached_property
    def _step_table(self) -> np.ndarray:
        """Coefficient of mode ms[0] + q*B + j at [q, j]; B = ceil(sqrt(span)), absent modes 0."""
        span = int(self.ms[-1] - self.ms[0]) + 1
        baby = math.isqrt(span - 1) + 1
        table = np.zeros(-(-span // baby) * baby, dtype=np.complex128)
        table[self.ms - self.ms[0]] = self.coeffs
        return table.reshape(-1, baby)

    def eval(self, x):
        """Value(s) of f at x: a complex for a scalar, else an array of x's shape.

        Powers of z = exp(2 pi i (x mod L) / L) over the mode range: baby
        steps z^0..z^B, one matrix product with the step table, Horner in
        z^B over its rows, times z^m_min.  x and x + L give the same bits
        when x + L is exact.  Error against 40-digit references: below
        1e-13 * ||c||_2 at span 257, about 2e-11 * ||c||_2 at span 65537.
        """
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel()
        out = np.zeros(flat.size, dtype=np.complex128)
        if self.ms.size:
            table = self._step_table
            giant, baby = table.shape
            block = max(1, _EVAL_BLOCK // (baby + giant))
            for i in range(0, flat.size, block):
                turns = np.mod(flat[i : i + block], self.period) / self.period
                z = np.exp(1j * (math.tau * turns))
                powers = np.empty((baby + 1, z.size), dtype=np.complex128)
                powers[0] = 1.0
                for j in range(1, baby + 1):
                    np.multiply(powers[j - 1], z, out=powers[j])
                rows = table @ powers[:baby]
                acc = rows[-1]
                for q in range(giant - 2, -1, -1):
                    acc *= powers[baby]
                    acc += rows[q]
                shift = np.exp(1j * (math.tau * np.mod(self.ms[0] * turns, 1.0)))
                out[i : i + block] = acc * shift
        if xs.ndim == 0:
            return complex(out[0])
        return out.reshape(xs.shape)

    def derivative(self, order: int = 1) -> "TrigPoly":
        """Termwise derivative of the given nonnegative integer order."""
        if int(order) != order or order < 0:
            raise InvalidDegreeError(f"derivative order must be an integer >= 0, got {order}")
        factors = (1j * self.frequencies) ** int(order)
        return TrigPoly(self.period, self.ms, self.coeffs * factors)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if abs(other.period - self.period) > 1e-12 * max(1.0, self.period):
            raise ValueError("cannot add trig polynomials with different periods")
        merged: dict[int, complex] = {}
        for m, c in zip(self.ms.tolist(), self.coeffs.tolist()):
            merged[m] = merged.get(m, 0j) + c
        for m, c in zip(other.ms.tolist(), other.coeffs.tolist()):
            merged[m] = merged.get(m, 0j) + c
        items = sorted(merged.items())
        return TrigPoly.from_terms(self.period, items)

    def __mul__(self, scalar) -> "TrigPoly":
        return TrigPoly(self.period, self.ms, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def to_json(self) -> str:
        terms = [
            [int(m), float(c.real), float(c.imag)]
            for m, c in zip(self.ms.tolist(), self.coeffs.tolist())
        ]
        return json.dumps({"L": self.period, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "TrigPoly":
        data = json.loads(text)
        terms = [(int(m), complex(re, im)) for m, re, im in data["terms"]]
        return cls.from_terms(float(data["L"]), terms)


@dataclass(frozen=True)
class NormQuery:
    """Which Lp norm to take and over which set, with a panel oversampling."""

    p: float
    set: IntervalSet
    resolution: int = 8

    def __post_init__(self) -> None:
        p = float(self.p)
        object.__setattr__(self, "p", p)
        if not (p >= 1.0):  # also rejects NaN
            raise InvalidExponentError(f"p must be in [1, inf], got {self.p}")
        if int(self.resolution) != self.resolution or self.resolution < 1:
            raise InvalidExponentError(f"resolution must be a positive integer")
        object.__setattr__(self, "resolution", int(self.resolution))


def full_torus(period: float) -> IntervalSet:
    """The whole torus of the given length as a periodic IntervalSet."""
    return IntervalSet(((0.0, float(period)),), period=float(period))


def lp_norm(f: TrigPoly, query: NormQuery) -> float:
    """Lp norm of f over the query set.

    Parameters
    ----------
    f : TrigPoly
    query : NormQuery
        For finite p the result is a composite Gauss-Legendre integral with
        panel width ``min(1, 2 pi / nu_max) / resolution``, the nodes of all
        pieces evaluated in one call.  For ``p = inf`` the maximum of |f| is
        taken over a grid with the same spacing on every piece and refined
        around each piece's grid argmax by one ``quadrature.sup_abs`` call,
        whose per-piece maxima are reduced with ``.max()``; a peak away from
        those argmaxes may be missed.

    Returns
    -------
    float
        ``( integral_E |f|^p )^(1/p)`` or the refined sup for ``p = inf``.
    """
    E = query.set
    period_ratio(E, f.period)  # raises unless E's period divides f's
    pieces = E.intervals if E.period is None else E.materialize(0.0, f.period)
    if not pieces or sum(b - a for a, b in pieces) <= 0:
        raise EmptySetError("norm query over a set of zero measure")
    width = panel_width(f.max_frequency, query.resolution)
    if math.isinf(query.p):
        counts = [max(3, int(math.ceil((hi - lo) / width)) + 1) for lo, hi in pieces]
        return float(sup_abs(f.eval, pieces, counts).max())
    panels = [panel_nodes(lo, hi, width) for lo, hi in pieces]
    xs = np.concatenate([x for x, _ in panels])
    ws = np.concatenate([w for _, w in panels])
    return float(ws @ np.abs(f.eval(xs)) ** query.p) ** (1.0 / query.p)


def lattice_indices(spec: BandSpec, period: float) -> np.ndarray:
    """Sorted integer modes m with 2 pi m / period inside some band."""
    found: set[int] = set()
    for lo, hi in spec.bands():
        m_lo = math.ceil(lo * period / math.tau - 1e-9)
        m_hi = math.floor(hi * period / math.tau + 1e-9)
        if m_hi < m_lo:
            raise EmptyBandError(
                f"band ({lo:g}, {hi:g}) holds no lattice frequency at period {period:g}"
            )
        found.update(range(m_lo, m_hi + 1))
    return np.array(sorted(found), dtype=np.int64)


def random_bandlimited(
    spec: BandSpec,
    period: float,
    budget: int | None = None,
    seed: int = 0,
) -> TrigPoly:
    """Random function with spectrum inside the given bands.

    Coefficients are independent complex Gaussians on the lattice
    frequencies of the bands; `budget` (if given) keeps a uniformly chosen
    subset of at most that many modes.  Deterministic in `seed`.
    """
    ms = lattice_indices(spec, period)
    rng = np.random.default_rng(seed)
    if budget is not None:
        if budget < 1:
            raise ValueError("budget must be at least 1")
        if budget < ms.size:
            keep = rng.choice(ms.size, size=budget, replace=False)
            ms = ms[np.sort(keep)]
    coeffs = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    return TrigPoly(period, ms, coeffs)


def bernstein_ratio(f: TrigPoly, p: float) -> float:
    """Norm ratio ||f'||_p / ||f||_p over the full torus.

    Bounded by the top spectral frequency for every p in [1, inf]; for
    p = 2 the exact value is the coefficient-weighted RMS frequency.
    """
    if f.is_zero:
        raise ZeroFunctionError("Bernstein ratio of the zero function")
    torus = full_torus(f.period)
    num = lp_norm(f.derivative(1), NormQuery(p, torus))
    den = lp_norm(f, NormQuery(p, torus))
    return num / den
