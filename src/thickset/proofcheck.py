"""Executable forms of the constructive steps behind the sampling bounds.

Each helper turns one inequality of the derivation into a measurable check:
interval classification by derivative growth, the good-interval mass budget,
the local estimate on good intervals, the off-interval growth envelope, the
Taylor split of a multi-band function into an exponential sum plus an
integral remainder, and the norm-transfer verifier for exponential sums with
polynomial weights.  Everything is quadrature-based and deterministic.
The checks on good intervals take the classification and read p and every
integral_I |f|^p from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bandlimited import BandSpec, NormQuery, TrigPoly, full_torus, lp_norm, piece_masses
from .bounds import (
    _LN10,
    DEFAULT_CONSTANTS,
    BoundConstants,
    _exp,
    check_exponent,
    finite_exponent,
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
    InvalidWindowError,
    SizeLimitError,
    ThicksetError,
    ZeroFunctionError,
)
from .quadrature import (
    RESOLUTION, TAYLOR_ORDER, kinked_integrals, panel_width, piece_integrals, sup_abs
)
from .sets import IntervalSet


# ---------------------------------------------------------------------------
# interval classification

# Bound on the classifier's untested mass-budget tail; sets the default alpha_max.
TAIL_EPS = 1e-6


@dataclass(frozen=True)
class ClassifierParams:
    """Constants of the derivative-growth classifier.

    An interval I is bad when some derivative order alpha <= alpha_max has
    integral_I |f^(alpha)|^p >= (A * C * b)^(alpha p) integral_I |f|^p with
    A = bad_threshold and C = bernstein_constant.  The default alpha_max
    keeps the untested tail sum_{alpha > alpha_max} A^(-alpha p) below
    TAIL_EPS.  Masses use panels of the default ``quadrature.RESOLUTION``.
    """

    p: float
    bad_threshold: float = 3.0
    bernstein_constant: float = 0.5
    alpha_max: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", finite_exponent(self.p, "the classifier"))
        if not self.bad_threshold > 1.0:
            raise ValueError("bad_threshold must exceed 1")
        if not self.bernstein_constant > 0.0:
            raise ValueError("bernstein_constant must be positive")
        if self.alpha_max is not None and (int(self.alpha_max) != self.alpha_max or self.alpha_max < 1):
            raise ValueError("alpha_max must be a positive integer")

    def resolved_alpha_max(self) -> int:
        if self.alpha_max is not None:
            return int(self.alpha_max)
        depth = math.log(1.0 / TAIL_EPS) / (self.p * math.log(self.bad_threshold))
        return max(1, math.ceil(depth))


@dataclass(frozen=True)
class IntervalClassification:
    """Labels plus the per-interval |f|^p masses used to produce them."""

    intervals: tuple[tuple[float, float], ...]
    good: np.ndarray
    mass: np.ndarray
    first_bad_order: np.ndarray
    params: ClassifierParams

    @property
    def good_intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(iv for iv, g in zip(self.intervals, self.good.tolist()) if g)


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
    g_alpha = f^(alpha) / (A C b)^alpha against the mass of f, term by term on
    the spectrum of (s, u) = f.unit: no overflow at any order or scale.  One ``piece_masses``
    call takes every order's rows; ``mass`` is u's times s^p (inf or 0 past the range).
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
    damping = 1j * f.frequencies / (params.bad_threshold * params.bernstein_constant * band_width)
    (s, u), rows = f.unit, np.empty((params.resolved_alpha_max() + 1, f.ms.size), complex)
    rows[0] = u.coeffs
    for alpha in range(1, rows.shape[0]):
        rows[alpha] = rows[alpha - 1] * damping
    masses = piece_masses(f, rows, partition, len(partition), params.p, RESOLUTION)
    bad = masses[1:] >= masses[0]
    first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0) + 1, 0)
    scale = s ** params.p if params.p * math.log2(s) < 1024 else math.inf  # not OverflowError
    good, mass = first_bad == 0, masses[0] * scale
    for arr in (good, mass, first_bad):
        arr.setflags(write=False)
    return IntervalClassification(partition, good, mass, first_bad, params)


def _in_range(masses: np.ndarray) -> np.ndarray:
    """The masses a check reads, refused where one fell past the double range."""
    if not ((masses > 0) & (masses < math.inf)).all():
        raise ThicksetError("an interval mass of |f|^p is 0 or inf, past the double range")
    return masses


def good_mass_check(labels: IntervalClassification) -> float:
    """Fraction of integral |f|^p carried by the good intervals, read off ``labels.mass``."""
    total = float(_in_range(labels.mass).sum())
    if not total > 0:
        raise ZeroFunctionError("no mass on the partition")
    return float(labels.mass[labels.good].sum()) / total


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
    labels: IntervalClassification,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> tuple[LocalEstimate, ...]:
    """Check integral_{E i I} |f|^p >= (gamma_I/C)^(C b p + 2) integral_I |f|^p on each good I.

    One estimate per good interval of `labels`, in order.  gamma_I is the
    density of E in I and b the tightest symmetric band holding the
    spectrum.  The pieces of E in every partition interval go through one
    ``piece_masses`` call with one copy per interval, so a 1-periodic E on
    the unit partition builds the nodes of its pieces in [0, 1] only.  The
    verdict compares logs; the reported rhs underflows to 0 below double range.
    """
    p, c, b_eff = labels.params.p, constants.c_one, 2.0 * f.max_frequency
    _in_range(labels.mass[labels.good])
    piece_lists = [E.materialize(lo, hi) for lo, hi in labels.intervals]
    pieces, copies, (s, u) = sum(piece_lists, ()), len(piece_lists), f.unit
    masses = piece_masses(f, u.coeffs[None], pieces, copies, p, RESOLUTION)[0] * s ** p
    checks, start = [], 0
    for (lo, hi), own, good, whole in zip(
        labels.intervals, piece_lists, labels.good.tolist(), labels.mass.tolist()
    ):
        lhs, start = float(masses[start : start + len(own)].sum()), start + len(own)
        if not good:
            continue
        density = sum(b - a for a, b in own) / (hi - lo)
        if density <= 0:
            raise EmptySetError("the set misses a good interval entirely")
        log_factor = (c * b_eff * p + 2.0) * math.log(density / c)
        holds = lhs > 0 and math.log(lhs) >= log_factor + math.log(whole)
        rhs = _exp(log_factor) * whole
        checks.append(LocalEstimate(lhs, rhs, holds, density, log_factor / math.log(10.0)))
    return tuple(checks)


# growth_envelope samples a window's grid on every mode at once: 2^20 phases are 16 MB.
MAX_GROWTH_PHASES = 2**20


@dataclass(frozen=True)
class GrowthEnvelope:
    """Measured off-interval growth against the exponential envelope."""

    ratio: float
    bound: float
    holds: bool


def growth_envelope(
    f: TrigPoly, labels: IntervalClassification, radius: float
) -> tuple[GrowthEnvelope, ...]:
    """Max of |f| within `radius` of each good interval's center over its Lp norm.

    One envelope per good interval of `labels`, in order, with the norm
    ``labels.mass[i] ** (1/p)``.  The contract is ratio <= 2^(1/p) exp(b (radius + 1/2)), b
    the tightest band width, compared in log space.  The measured side is the max of |f| on
    a grid at the quadrature spacing, refined around each window's grid argmax by one
    ``quadrature.sup_abs`` call with each window a piece of its one function (its Taylor
    model from u.eval's rows u .. u^(TAYLOR_ORDER) at the argmax, (s, u) = f.unit), so a
    higher peak elsewhere in a window can be missed.  A radius whose window grid (points x
    modes) needs more than MAX_GROWTH_PHASES phases is refused, as is a mass past the range.
    """
    if not radius > 0:
        raise InvalidWindowError(f"radius must be positive, got {radius}")
    width = panel_width(f.max_frequency, RESOLUTION)
    if not (2.0 * radius / width + 1.0) * f.ms.size <= MAX_GROWTH_PHASES:  # points x modes
        raise SizeLimitError(f"radius {radius:g} needs over {MAX_GROWTH_PHASES} grid phases")
    p, goods, (s, u) = labels.params.p, labels.good_intervals, f.unit
    if not goods:
        return ()
    wholes = _in_range(labels.mass[labels.good])
    n = max(9, int(math.ceil(2.0 * radius / width)) + 1)
    # Dense phases, not f.eval, sample the grid: a window wider than the period
    # holds grid points one period apart, which f.eval's argument reduction makes
    # tie; unreduced phases, in a product on three columns (f, f', f''), break the
    # ties as the benchmark's recorded growth rows (seeds 501724, 473638, 169677)
    # expect.  One window's grid per product keeps the phase matrix small.
    columns = u.coeffs[:, None] * (1j * f.frequencies[:, None]) ** np.arange(3)
    sample = lambda x: np.concatenate(
        [np.exp(1j * np.outer(x[0, i : i + n], f.frequencies)) @ columns
         for i in range(0, x.shape[1], n)]
    ).T[:1]
    windows = tuple((0.5 * (lo + hi) - radius, 0.5 * (lo + hi) + radius) for lo, hi in goods)
    expand = lambda x: u.eval(x, derivatives=TAYLOR_ORDER)
    (peaks,) = sup_abs(sample, expand, windows, [(n,) * len(windows)])
    b_eff = 2.0 * f.max_frequency
    bound = (2.0 ** inv_p(p)) * _exp(b_eff * (radius + 0.5))
    log_bound = math.log(2.0) * inv_p(p) + b_eff * (radius + 0.5)
    ratios = (peak / (whole ** (1.0 / p) / s) for peak, whole in zip(peaks, wholes))
    return tuple(GrowthEnvelope(float(r), bound, math.log(r) <= log_bound) for r in ratios)


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
        lams = np.array(self.centers)[None]
        table = _expsum_table(lams[0], self.poly_coeffs, 1)[:, None]
        out = _expsum_closure(lams, table, self.base)(xs.reshape(1, -1))[0, 0].reshape(xs.shape)
        return complex(out[0]) if np.ndim(x) == 0 else out

    def remainder(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        ends, m = xs.ravel(), self.degree
        # one rule over every x's panels: each component is evaluated once;
        # x = base gives an empty piece, so a zero remainder
        integrals = piece_integrals(
            lambda t, piece: np.stack([g.eval(t) for g in self.mth_derivatives])
            * (ends[piece] - t) ** (m - 1),
            [(min(self.base, v), max(self.base, v)) for v in ends.tolist()],
            panel_width(max(g.max_frequency for g in self.mth_derivatives), RESOLUTION),
        )
        acc = (np.exp(1j * np.outer(self.centers, ends)) * integrals).sum(axis=0)
        out = (np.sign(ends - self.base) * acc / math.factorial(m - 1)).reshape(xs.shape)
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
    if not -math.inf < lo < hi < math.inf:
        raise InvalidWindowError(f"invalid interval ({lo}, {hi})")
    factorials = np.cumprod(np.maximum(np.arange(degree), 1.0))
    polys = [np.atleast_1d(g.eval(lo, derivatives=degree - 1)) / factorials for g in components]
    for coeffs in polys:
        coeffs.setflags(write=False)
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


def taylor_remainder_bound_log10(split: TaylorSplit, p: float) -> float:
    """log10 of the budget n^(p-1) a^(pm) / (m!)^p * sum_k integral_I |f_k^(m)|^p, from logs."""
    p = finite_exponent(p, "the remainder budget")
    n, m, a = len(split.components), split.degree, split.length
    logs = ((p - 1.0) * math.log(n), p * m * math.log(a), p * math.lgamma(m + 1.0))
    if max(logs) > np.log(np.finfo(float).max):
        raise InvalidDegreeError(
            f"degree m = {m} at p = {p:g} puts n^(p-1), a^(pm) or (m!)^p beyond double range"
        )
    window = IntervalSet(((split.base, split.base + a),))
    norms = [lp_norm(g, NormQuery(p, window)) for g in split.mth_derivatives if not g.is_zero]
    top = max(norms, default=0.0)
    if top == 0.0:
        return -math.inf
    log_total = p * math.log(top) + math.log(sum((v / top) ** p for v in norms))
    return (logs[0] + logs[1] - logs[2] + log_total) / _LN10


def taylor_remainder_bound(split: TaylorSplit, p: float) -> float:
    """Closed-form budget n^(p-1) a^(pm) / (m!)^p * sum_k integral_I |f_k^(m)|^p."""
    return _exp(taylor_remainder_bound_log10(split, p) * _LN10)


# ---------------------------------------------------------------------------
# band components


@dataclass(frozen=True)
class BandComponentNorms:
    """Per-band spectral projections, their norm ratios and the norm of f itself."""

    norms: tuple[float, ...]
    ratios: tuple[float, ...]
    max_ratio: float
    components: tuple[TrigPoly, ...]
    total: float


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
    components = [TrigPoly(f.period, f.ms[assignment == k], f.coeffs[assignment == k])
                  for k in range(spec.count)]
    torus = full_torus(f.period)
    total = lp_norm(f, NormQuery(p, torus))
    norms = tuple(0.0 if g.is_zero else lp_norm(g, NormQuery(p, torus)) for g in components)
    ratios = tuple(v / total for v in norms)
    return BandComponentNorms(
        norms=norms,
        ratios=ratios,
        max_ratio=max(ratios),
        components=tuple(components),
        total=total,
    )


# ---------------------------------------------------------------------------
# exponential sums with polynomial weights


@dataclass(frozen=True)
class ExpSumCheck:
    """Measured norm-transfer ratio of an exponential sum next to its bounds."""

    ratio: float
    bound: float
    holds: bool
    norm_I: float
    norm_E: float
    nazarov_bound: float | None
    remez_bound: float | None


def _expsum_table(lams: np.ndarray, coeff_arrays, rows: int) -> np.ndarray:
    """Rows x terms x powers coefficients of f = sum_k p_k(x - x0) exp(i lam_k x), zero-padded.

    Row r is sum_k q_k(x - x0) exp(i lam_k x) with q = p in row 0 and q' + i lam q
    in the next: the rows f, f', ..., f^(rows - 1).
    """
    poly = np.zeros((rows, len(coeff_arrays), max(arr.size for arr in coeff_arrays)), np.complex128)
    for row, arr in zip(poly[0], coeff_arrays):
        row[: arr.size] = arr
    lam, powers = 1j * lams[:, None], np.arange(1, poly.shape[2])
    for r in range(1, rows):
        poly[r] = lam * poly[r - 1]
        poly[r, :, :-1] += poly[r - 1, :, 1:] * powers
    return poly


def _expsum_closure(lams: np.ndarray, table: np.ndarray, x0: float):
    """Vectorized x -> the ``_expsum_table`` rows at x, shape (rows, K, n).

    x is (K, n), row k holding points of function k, lams (K, terms) and the
    table (rows, K, terms, powers).  Horner runs over the whole table at once,
    with the operations and order of a per-term ``npoly.polyval``; the terms
    are then added one at a time, so a value depends neither on the other points
    nor on the other rows: table[:1] gives row 0's bits.
    """

    def evaluate(xs: np.ndarray) -> np.ndarray:
        u = (xs - x0)[..., None, :]
        acc = table[..., -1:]
        for j in range(table.shape[-1] - 2, -1, -1):
            acc = acc * u + table[..., j : j + 1]
        terms = acc * np.exp(1j * (lams[..., None] * xs[..., None, :]))
        total = terms[..., 0, :]
        for t in range(1, terms.shape[-2]):
            total = total + terms[..., t, :]
        return total

    return evaluate


def exp_sum_verifier(
    instances,
    interval: tuple[float, float],
    sets,
    p: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> tuple[tuple[ExpSumCheck, ...], ...]:
    """Measure ||r||_{Lp(I)} / ||r||_{Lp(E)} for each instance r and each E in `sets`.

    Parameters
    ----------
    instances : sequence of term sequences
        At least one r = sum_k p_k(x) e^(i lam_k x), given as (lam, coeffs)
        pairs: distinct real frequencies with ascending-power polynomial
        coefficients in x - midpoint(I).  Errors name the instance's index.
    interval : (lo, hi)
        The ambient interval I.
    sets : sequence of IntervalSet
        Observation subsets E, at least one; only their parts inside I are
        used, materialized once for every instance.
    p : float
        Exponent in [1, inf]; for p = inf sups are used.

    Returns per instance, in order, one check per set.  Each instance is measured once on
    each cell of I cut at every set's endpoints, in one call over every instance,
    instance-major: ``sup_abs`` at p = inf (the table's value row samples, its rows
    f .. f^(TAYLOR_ORDER) expand), else ``piece_integrals`` at even p and
    ``kinked_integrals`` at other p, each instance at its own panel width.  A set takes the
    max or the sum over its cells, norm_I over all.  Checks have the bits of a call on
    their instance alone, and do not change when sets are permuted or repeated; a call on
    one set cuts I elsewhere, so agrees to quadrature accuracy.  Coefficients are divided
    by their largest modulus, which the ratio does not see, and the norms scaled back.
    The `bound` is the norm-transfer bound with the configured constants; the Nazarov
    (pure exponential sums, p = inf) and Remez (single zero-frequency polynomial,
    p = inf) forms are attached when they apply.
    """
    p = check_exponent(p)
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise InvalidWindowError(f"invalid interval ({lo}, {hi})")
    length, mid = hi - lo, 0.5 * (lo + hi)
    parsed, shapes, scales = [], [], []  # parsed: lams, coefficients; shapes: n, m, Remez degree
    for i, terms in enumerate(instances):
        lams = np.array([float(lam) for lam, _ in terms])
        arrays = [np.asarray(coeffs, dtype=np.complex128).ravel() for _, coeffs in terms]
        if np.any(np.diff(np.sort(lams)) == 0):
            raise DuplicateFrequencyError(f"instance {i}: repeated exponential frequency")
        if any(arr.size == 0 for arr in arrays):
            raise InvalidDegreeError(f"instance {i}: each term needs at least one coefficient")
        if all(np.all(arr == 0) for arr in arrays):  # an instance with no term, too
            raise ZeroFunctionError(f"instance {i}: the zero exponential sum has no norm ratio")
        pure_poly = lams.size == 1 and lams[0] == 0.0
        degree = int(np.max(np.nonzero(arrays[0] != 0)[0])) if pure_poly else None
        shapes.append((lams.size, max(arr.size for arr in arrays), degree))
        scales.append(max(float(np.max(np.abs(arr))) for arr in arrays))
        parsed.append((lams, [arr / scales[-1] for arr in arrays]))
    if not parsed:
        raise ValueError("need at least one instance")
    piece_lists = [E.materialize(lo, hi) for E in sets]
    if not piece_lists:
        raise ValueError("need at least one set")
    measures = [sum(b - a for a, b in pieces) for pieces in piece_lists]
    if min(measures) <= 0:
        raise EmptySetError("a set misses the interval entirely")
    cuts = sorted({lo, hi}.union(*sum(piece_lists, ())))
    cells = tuple(zip(cuts[:-1], cuts[1:]))
    member = np.zeros((1 + len(piece_lists), len(cells)), dtype=bool)  # rows: I, then each set
    for row, pieces in zip(member, [((lo, hi),)] + piece_lists):
        for a, b in np.searchsorted(cuts, pieces):  # every endpoint is a cut
            row[a:b] = True
    # one row of n terms per instance: zero terms and powers add exact zeros
    K, n = len(parsed), max(shape[0] for shape in shapes)
    lams = np.array([np.pad(row, (0, n - row.size)) for row, _ in parsed])
    padded = [arr for _, arrays in parsed for arr in arrays + [np.zeros(1)] * (n - len(arrays))]
    table = _expsum_table(lams.ravel(), padded, TAYLOR_ORDER + 1 if math.isinf(p) else 1)
    table = table.reshape(len(table), K, n, -1)
    widths = [panel_width(float(np.max(np.abs(row))), RESOLUTION) for row in lams]
    if math.isinf(p):
        counts = [[max(17, 2 * int(math.ceil((b - a) / w)) + 1) for a, b in cells] for w in widths]
        sample = _expsum_closure(lams, table[:1], mid)
        values = sup_abs(lambda x: sample(x)[0], _expsum_closure(lams, table, mid), cells, counts)
    else:
        evaluators = [_expsum_closure(lams[k : k + 1], table[:, k : k + 1], mid) for k in range(K)]
        firsts = np.arange(1, K) * len(cells)  # the first piece of each later instance

        def integrand(x, piece):
            runs = np.split(x, np.searchsorted(piece, firsts))
            return np.abs(np.concatenate([f(r[None])[0, 0] for f, r in zip(evaluators, runs)])) ** p

        rule = piece_integrals if p % 2 == 0 else kinked_integrals  # |r|^p kinks at zeros of r
        values = rule(integrand, cells * K, np.repeat(widths, len(cells))).reshape(K, -1)
    held = np.where(member, values[:, None], 0.0)  # instance x (I, sets) x cell
    norms = held.max(axis=2) if math.isinf(p) else held.sum(axis=2) ** (1.0 / p)
    # a sum that underflows on E has ratio inf, and fails its bound
    ratio = np.divide(norms[:, :1], norms[:, 1:], out=np.full_like(norms[:, 1:], np.inf),
                      where=norms[:, 1:] > 0)
    norms *= np.array(scales)[:, None]

    @cache
    def bounds(meas: float, n: int, m: int, degree: int | None):
        nazarov = remez = None
        if math.isinf(p) and m == 1:
            nazarov = nazarov_remez_bounds(length, meas, n, constants).nazarov
        if math.isinf(p) and degree is not None:
            remez = nazarov_remez_bounds(length, meas, degree, constants).remez
        return lemma3_bound(length, meas, n, m, p, constants), nazarov, remez

    # the bound is attained with equality by a single pure exponential at
    # p = inf, so the verdict carries a small relative tolerance
    return tuple(
        tuple(
            ExpSumCheck(r, bound, r <= bound * (1.0 + 1e-9), norm_I, norm_E, nazarov, remez)
            for meas, r, norm_E in zip(measures, ratios, norm_Es)
            for bound, nazarov, remez in (bounds(meas, *shape),)
        )
        for shape, ratios, (norm_I, *norm_Es) in zip(shapes, ratio.tolist(), norms.tolist())
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
