"""Trigonometric polynomials as the computable model of band-limited functions.

A function lives on a torus of length ``period`` and is a finite sum
``f(x) = sum_j c_j exp(i nu_j x)`` over lattice frequencies
``nu_j = 2 pi m_j / period`` with distinct integers ``m_j``.  Derivatives are
exact and termwise.  ``TrigPoly.eval`` is the one evaluator of scattered points;
every mass integral |g|^p over pieces, of lp_norm and the proof checks alike, is
one ``piece_masses`` call: at p = 2 a closed form exact up to its rounding bound,
with no node, else composite Gauss-Legendre on the nodes of one base cell only,
whose panel width tracks the highest frequency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import check_exponent
from .errors import ThicksetError
from .quadrature import TAYLOR_ORDER, base_cell, panel_width, piece_integrals
from .quadrature import set_transform, sup_abs
from .sets import IntervalSet, period_ratio


# Cap on points * (table + output entries) per evaluation block: 1 MB of complex128.
_EVAL_BLOCK = 1 << 16

_MAX_MODES = 1 << 20  # modes of one spectrum: 16 MB of complex128 coefficients


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
            raise ThicksetError("a band spec needs at least one center")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ThicksetError(f"band width must be positive, got {self.width}")
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ThicksetError("band centers must be strictly increasing")

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

    def overlapping(self) -> bool:
        return self.min_gap() < self.width - 1e-12


@dataclass(frozen=True)
class TrigPoly:
    """Immutable trig polynomial: lattice modes and complex weights; norms evaluate ``unit``."""

    period: float
    ms: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        period = float(self.period)
        if not (period > 0 and math.isfinite(period)):
            raise ThicksetError(f"period must be positive and finite, got {self.period}")
        ms = np.asarray(self.ms, dtype=np.int64).ravel()
        coeffs = np.asarray(self.coeffs, dtype=np.complex128).ravel()
        if ms.shape != coeffs.shape:
            raise ValueError("ms and coeffs must have matching lengths")
        order = np.argsort(ms, kind="stable")
        ms = ms[order].copy()
        coeffs = coeffs[order].copy()
        if ms.size > 1 and np.any(np.diff(ms) == 0):
            raise ThicksetError("repeated lattice mode")
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

    @cached_property
    def max_frequency(self) -> float:
        live = np.abs(self.coeffs) > 0
        if not np.any(live):
            return 0.0
        return float(np.max(np.abs(self.frequencies[live])))

    @cached_property
    def unit(self) -> tuple[float, "TrigPoly"]:
        """(s, f / s), s = 2^e with max|c_j| in [2^(e-1), 2^e), e <= 1023 (s = 1 for f = 0):
        s is a power of two, so s * (f / s).eval(x) has the bits of f.eval(x)."""
        s = math.ldexp(1.0, min(math.frexp(float(np.abs(self.coeffs).max(initial=0.0)))[1], 1023))
        unit = object.__new__(TrigPoly)  # f's modes, neither re-sorted nor re-validated
        unit.__dict__.update(period=self.period, ms=self.ms, coeffs=self.coeffs / s)
        unit.coeffs.setflags(write=False)
        return s, unit

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    def _step_table(self, derivatives: int) -> np.ndarray:
        tables = self.__dict__.setdefault("_tables", {})
        if derivatives not in tables:  # the powers (i nu)^r by running products
            powers = np.tile(1j * self.frequencies, (derivatives + 1, 1))
            powers[0] = 1.0
            tables[derivatives] = _step_tables(self.ms, self.coeffs * np.cumprod(powers, axis=0))
        return tables[derivatives]

    def eval(self, x, derivatives: int = 0):
        """Value(s) of f at x: a complex for a scalar, else an array of x's shape.

        With derivatives = d >= 1, shape (d + 1,) + x's shape with f^(r)(x) in
        row r.  ``_eval_rows`` on the (d + 1)-row step table: baby steps, one
        matrix product, Horner in z^B, times z^m_min, over blocks of at most
        _EVAL_BLOCK // (table rows + B) points.  x and x + L give the same bits
        when x + L is exact.  Error against 40-digit references: below 1e-13 *
        ||c||_2 at span 257, about 2e-11 * ||c||_2 at span 65537.
        """
        if int(derivatives) != derivatives or derivatives < 0:
            raise ThicksetError(f"derivatives must be an integer >= 0, got {derivatives}")
        xs, k = np.asarray(x, dtype=float), int(derivatives) + 1
        flat, out = xs.ravel(), np.zeros((k, xs.size), dtype=np.complex128)
        if self.ms.size:
            table, m0 = self._step_table(k - 1), self.ms[0]
            block = max(1, _EVAL_BLOCK // sum(table.shape))
            for i in range(0, flat.size, block):
                out[:, i : i + block] = _eval_rows(table, k, self.period, m0, flat[i : i + block])
        out = out.reshape((k,) + xs.shape) if k > 1 else out[0].reshape(xs.shape)
        return complex(out) if out.ndim == 0 else out

    def derivative(self, order: int = 1) -> "TrigPoly":
        """Termwise derivative of the given nonnegative integer order."""
        if int(order) != order or order < 0:
            raise ThicksetError(f"derivative order must be an integer >= 0, got {order}")
        factors = (1j * self.frequencies) ** int(order)
        return TrigPoly(self.period, self.ms, self.coeffs * factors)


def _step_tables(ms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Coefficient rows over the sorted modes ms as one stacked step table.

    Shape (giant*k, B) with B = ceil(sqrt(span)): row r's coefficient of
    mode ms[0] + q*B + j sits at [q*k + r, j], absent modes 0.
    """
    span = int(ms[-1] - ms[0]) + 1
    baby = math.isqrt(span - 1) + 1
    table = np.zeros((rows.shape[0], -(-span // baby) * baby), dtype=np.complex128)
    table[:, ms - ms[0]] = rows
    return table.reshape(rows.shape[0], -1, baby).transpose(1, 0, 2).reshape(-1, baby)


def _eval_rows(table: np.ndarray, k: int, period: float, m_min, x: np.ndarray) -> np.ndarray:
    """The k rows sum_m c_rm z^m at the 1-D points x, shape (k, x.size).

    table = _step_tables(ms, c) and z = exp(2 pi i (x mod L) / L): powers
    z^0..z^B, one product with the table, Horner in z^B over all k rows at
    once, times z^m_min unless m_min = 0.
    """
    baby = table.shape[1]
    turns = np.mod(x, period) / period
    z = np.exp(1j * (math.tau * turns))
    powers = np.empty((baby + 1, z.size), dtype=np.complex128)
    powers[0] = 1.0
    for j in range(1, baby + 1):
        np.multiply(powers[j - 1], z, out=powers[j])
    rows = table @ powers[:baby]
    acc, step = rows[-k:], powers[baby:]  # (1, n): one-row work runs on same-shape loops
    for q in range(table.shape[0] // k - 2, -1, -1):
        acc *= step
        acc += rows[q * k : (q + 1) * k]
    if m_min == 0:
        return acc
    return acc * np.exp(1j * (math.tau * np.mod(m_min * turns, 1.0)))[None, :]


def _eval_translates(ms: np.ndarray, rows: np.ndarray, period: float, copies: int):
    """Evaluator of k coefficient rows on the sorted modes ms at Q = copies translates.

    evaluate(x0) is every row at x = x0 + r L / Q, r = 0..Q-1, times e^(-2 pi i ms[0] x / L),
    a unit factor that no modulus sees; shape (k, Q, x0.size).  entries is its table and
    output entries per point.  With u = (m - ms[0]) mod Q, w = e^(2 pi i x0 / L) and g_u(x0)
    w^u times the modes of residue u as period-L/Q rows through ``_eval_rows``, that is
    sum_u e^(2 pi i u r / Q) g_u(x0): one inverse FFT.  w^u = w^(aB) w^b, u = aB + b and
    B = ceil(sqrt(u_max + 1)), comes from w by products: two exponentials per point in all
    (w and ``_eval_rows``'s), with a phase error of about u eps.
    """
    k = rows.shape[0]
    t, s = np.divmod(ms - ms[0], copies)
    live = np.flatnonzero(np.bincount(s, minlength=copies))  # the residues that carry a mode
    split = np.zeros((k, live.size, t[-1] + 1), dtype=np.complex128)
    split[:, np.searchsorted(live, s), t] = rows
    table = _step_tables(np.arange(t[-1] + 1), split.reshape(k * live.size, -1))
    baby = math.isqrt(int(live[-1])) + 1
    high, low = np.divmod(live, baby)  # the a and b of u = aB + b

    def evaluate(x0: np.ndarray) -> np.ndarray:
        powers = np.empty((baby + high[-1] + 2, x0.size), dtype=np.complex128)
        powers[0] = powers[baby + 1] = 1.0  # w^0..w^B, then w^(aB) for a = 0..high[-1]
        powers[1] = np.exp(1j * (math.tau * (np.mod(x0, period) / period)))
        for j in range(2, baby + 1):
            np.multiply(powers[j - 1], powers[1], out=powers[j])
        for j in range(baby + 2, powers.shape[0]):
            np.multiply(powers[j - 1], powers[baby], out=powers[j])
        phases = powers[low]
        phases *= powers[baby + 1 + high]
        values = _eval_rows(table, k * live.size, period / copies, 0, x0).reshape(k, live.size, -1)
        residues = np.zeros((k, copies, x0.size), dtype=np.complex128)
        residues[:, live] = values * phases
        return np.fft.ifft(residues, axis=1, norm="forward")

    return evaluate, sum(table.shape) + k * copies


def piece_masses(f: TrigPoly, rows, pieces, copies: int, p: float) -> np.ndarray:
    """Masses integral |sum_m rows[r, m] e^(i nu_m x)|^p over each piece, shape (k, len(pieces)).

    p = 2 is ``_quadratic_masses``; else only the nodes of ``quadrature.base_cell`` at
    ``quadrature.panel_width`` (`copies` as there) are built, in runs of at most _EVAL_BLOCK
    entries, each at all Q translates.  Callers pass ``TrigPoly.unit`` rows, u in row 0:
    |u|^p is raised in linear space, so a p that puts a mass of a nonzero u at 0 or inf on
    some piece, where no norm or label can be read, is refused.
    """
    if not (f.ms.size and len(pieces)):  # no step table, or no piece to fold back into
        return np.zeros((len(rows), len(pieces)))
    if p == 2:
        return _quadratic_masses(f, rows, pieces, copies)
    width = panel_width(f.max_frequency)
    base, copies = base_cell(pieces, width, f.period, copies)
    evaluate, entries = _eval_translates(f.ms, rows, f.period, copies)
    block = max(1, _EVAL_BLOCK // entries)
    with np.errstate(over="ignore"):  # an inf mass is refused below
        masses = piece_integrals(lambda x, _: np.abs(evaluate(x)) ** p, base, width, block)
    masses = masses.reshape(len(rows), len(pieces), -1).sum(axis=-1)
    if rows[0].any() and not ((masses[0] > 0) & (masses[0] < math.inf)).all():
        raise ThicksetError(f"p = {p:g} puts an interval mass of |u|^p past the double range")
    return masses


def _quadratic_masses(f: TrigPoly, rows, pieces, copies: int) -> np.ndarray:
    """``piece_masses`` at p = 2: L Re sum_d r(d) K(d), r(d) = sum_m rows[:, m + d] rows[:, m]*.

    r comes from one FFT; r(-d) K(-d) conjugates r(d) K(d), so d >= 0 is summed with weights
    1, 2, 2, ...  K = ``set_transform`` is built on the base cell (``base_cell`` at one panel
    a piece: translates by L/Q) in runs of at most _EVAL_BLOCK entries; translate t scales
    K(d) by e^(2 pi i d t / Q), so one length-Q FFT over d mod Q gives every translate.  A
    row-0 mass not above its rounding bound (2 span + 1) eps L (|r| @ |K|) is refused.
    """
    span, k = int(f.ms[-1] - f.ms[0]) + 1, len(rows)
    base, copies = base_cell(pieces, f.period, f.period, copies)
    dense = np.zeros((k, 1 << (2 * span - 1).bit_length()), dtype=np.complex128)
    dense[:, f.ms - f.ms[0]] = rows
    lags = np.zeros((k, -(-span // copies) * copies), dtype=np.complex128)
    lags[:, :span] = np.fft.ifft(np.abs(np.fft.fft(dense)) ** 2)[:, :span]
    lags[:, 1:] *= 2.0
    lags = lags.reshape(k, -1, copies).transpose(2, 0, 1)  # [d mod Q, row, d // Q]
    sums, floor = np.zeros((copies, k, len(base)), dtype=np.complex128), np.zeros(len(base))
    block = max(1, _EVAL_BLOCK // (copies * len(base)))
    for i in range(0, lags.shape[2], block):
        d = np.arange(i * copies, min(i + block, lags.shape[2]) * copies)
        K = set_transform(d, base, f.period).reshape(-1, copies, len(base)).transpose(1, 0, 2)
        sums += lags[:, :, i : i + block] @ K
        floor += np.abs(lags[:, 0, i : i + block]).ravel() @ np.abs(K).reshape(-1, len(base))
    masses = np.fft.ifft(sums, axis=0, norm="forward").real  # [translate, row, piece], over L
    if rows[0].any() and not (masses[:, 0] > (2 * span + 1) * np.finfo(float).eps * floor).all():
        raise ThicksetError("a p = 2 interval mass of u is not above its rounding bound")
    return f.period * masses.transpose(1, 0, 2).reshape(k, -1)


@dataclass(frozen=True)
class NormQuery:
    """Which Lp norm to take and over which set; the panels are ``quadrature.panel_width``'s."""

    p: float
    set: IntervalSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_exponent(self.p))


def full_torus(period: float) -> IntervalSet:
    """The whole torus of the given length as a periodic IntervalSet."""
    return IntervalSet(((0.0, float(period)),), period=float(period))


def lp_norm(f: TrigPoly, query: NormQuery) -> float:
    """Lp norm of f over the query set.

    Parameters
    ----------
    f : TrigPoly
    query : NormQuery
        At p = 2 ``piece_masses`` takes the closed form; for other finite p the
        result is a composite Gauss-Legendre integral with panel width
        ``quadrature.panel_width``, min(1, 2 pi / nu_max) / 8, taken by
        ``piece_masses``: on the full torus or an unmerged periodic set only
        one cell's nodes are built and evaluated, and the other cells'
        values come from one length-Q FFT.  At that width, p = 1 torus
        norms of the benchmark ``restriction`` spectra are off by 1.4e-8 to
        3.7e-7 relative (panels 16 times narrower as reference): |f| is nearly
        kinked at zeros of f near the real axis.
        For ``p = inf`` one ``quadrature.sup_abs`` call, (s, u) = f.unit,
        samples u.eval on a grid with that spacing on every piece and models u
        at each piece's grid argmax from u.eval(x, derivatives=TAYLOR_ORDER);
        a peak away from those argmaxes may be missed.

    Returns
    -------
    float
        ``( integral_E |f|^p )^(1/p)`` or the refined sup: u's times s, inf past the range.
        ``piece_masses`` refuses a p that puts u's mass at 0 or inf (p = 2: at its floor).
    """
    E = query.set
    q = period_ratio(E, f.period)  # raises unless E's period divides f's
    pieces = E.intervals if E.period is None else E.materialize(0.0, f.period)
    if not pieces or sum(b - a for a, b in pieces) <= 0:
        raise ThicksetError("norm query over a set of zero measure")
    width, (s, u) = panel_width(f.max_frequency), f.unit
    if math.isinf(query.p):
        counts = [max(3, int(math.ceil((hi - lo) / width)) + 1) for lo, hi in pieces]
        expand = lambda x: u.eval(x, derivatives=TAYLOR_ORDER)
        return float(sup_abs(u.eval, expand, pieces, [counts]).max()) * s
    mass = piece_masses(f, u.coeffs[None], pieces, q, query.p).sum()
    return float(mass) ** (1.0 / query.p) * s


def lattice_indices(spec: BandSpec, period: float) -> np.ndarray:
    """Sorted integer modes m with 2 pi m / period inside some band; at most _MAX_MODES."""
    runs: list[range] = []  # bands come in increasing order, and so do their ends
    for lo, hi in spec.bands():
        m_lo = math.ceil(lo * period / math.tau - 1e-9)
        m_hi = math.floor(hi * period / math.tau + 1e-9)
        if m_hi < m_lo:
            raise ThicksetError(f"band ({lo:g}, {hi:g}) holds no lattice frequency "
                                f"at period {period:g}")
        start = runs.pop().start if runs and m_lo <= runs[-1].stop else m_lo  # one run if touching
        runs.append(range(start, m_hi + 1))
    if sum(r.stop - r.start for r in runs) > _MAX_MODES:  # counted before anything is built
        raise ThicksetError(f"b = {spec.width:g} at L = {period:g} needs over {_MAX_MODES} modes")
    return np.concatenate([np.arange(r.start, r.stop, dtype=np.int64) for r in runs])


def random_bandlimited(spec: BandSpec, period: float, *, seed: int = 0) -> TrigPoly:
    """Random function with spectrum inside the given bands.

    Coefficients are independent complex Gaussians on the lattice
    frequencies of the bands.  Deterministic in `seed`.
    """
    ms = lattice_indices(spec, period)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    return TrigPoly(period, ms, coeffs)

