"""Closed-form evaluators for the sampling-inequality constants.

All bounds share the convention that for p = inf the terms 1/p and
(p-1)/p are read as 0 and 1.  Evaluators compute in log space internally,
so extreme exponents underflow to 0.0 (or overflow to inf) instead of
raising; `..._log10` siblings expose the exact order of magnitude for
reporting when the linear value leaves the double range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    EmptySetError,
    InvalidExponentError,
    InvalidGammaError,
    InvalidMError,
)

_LN10 = math.log(10.0)


def _exp(x: float) -> float:
    """exp with graceful saturation instead of OverflowError."""
    if x > 709.0:
        return math.inf
    if x < -745.0:
        return 0.0
    return math.exp(x)


def check_exponent(p: float) -> float:
    """Validate p in [1, inf] and return it as a float."""
    p = float(p)
    if math.isinf(p) and p > 0:
        return p
    if not p >= 1.0:  # also rejects NaN
        raise InvalidExponentError(f"p must be in [1, inf], got {p}")
    return p


def finite_exponent(p: float, what: str) -> float:
    """check_exponent(p), refusing p = inf as well: `what` is an integral."""
    p = check_exponent(p)
    if math.isinf(p):
        raise InvalidExponentError(f"{what} is integral-based; p must be finite")
    return p


def inv_p(p: float) -> float:
    """1/p with the p = inf convention 1/inf = 0."""
    p = check_exponent(p)
    return 0.0 if math.isinf(p) else 1.0 / p


def holder_share(p: float) -> float:
    """(p-1)/p with the p = inf convention = 1."""
    p = check_exponent(p)
    return 1.0 if math.isinf(p) else (p - 1.0) / p


@dataclass(frozen=True)
class BoundConstants:
    """Tunable absolute constants shared by the bound evaluators.

    c_one      base constant of the single-band bound, finite p
    c_one_sup  base constant of the single-band bound at p = inf
    k_one      slope multiplying the duration-bandwidth product ab
    c_multi    base constant of the multi-band (tower) bounds
    c_aux      base constant of the local / exponential-sum estimates
    """

    c_one: float = 300.0
    c_one_sup: float = 100.0
    k_one: float = 33.0
    c_multi: float = 300.0
    c_aux: float = 300.0

    def __post_init__(self) -> None:
        for name in ("c_one", "c_one_sup", "k_one", "c_multi", "c_aux"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not (value > 1.0 and math.isfinite(value)):
                raise ValueError(f"constant {name} must exceed 1, got {value}")


DEFAULT_CONSTANTS = BoundConstants()


def _check_gamma_unit(gamma: float) -> float:
    gamma = float(gamma)
    if not (0.0 < gamma <= 1.0):
        raise InvalidGammaError(f"gamma must be in (0, 1], got {gamma}")
    return gamma


def _check_gamma_positive(gamma: float) -> float:
    gamma = float(gamma)
    if not gamma > 0.0:
        raise InvalidGammaError(f"gamma must be positive, got {gamma}")
    return gamma


def _check_ab(ab: float) -> float:
    ab = float(ab)
    if ab < 0 or not math.isfinite(ab):
        raise ValueError(f"duration-bandwidth product must be >= 0, got {ab}")
    return ab


def _check_count(n, name: str = "n") -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n}")
    return int(n)


def theorem1_bound_log10(
    gamma: float, ab: float, p: float, constants: BoundConstants = DEFAULT_CONSTANTS
) -> float:
    """log10 of the single-band lower bound (gamma/C)^(K*ab + 2/p)."""
    gamma = _check_gamma_unit(gamma)
    ab = _check_ab(ab)
    p = check_exponent(p)
    if math.isinf(p):
        return (constants.k_one * ab + 1.0) * math.log10(gamma / constants.c_one_sup)
    return (constants.k_one * ab + 2.0 / p) * math.log10(gamma / constants.c_one)


def theorem1_bound(
    gamma: float, ab: float, p: float, constants: BoundConstants = DEFAULT_CONSTANTS
) -> float:
    """Single-band norm-ratio lower bound.

    Finite p: (gamma / c_one)^(k_one * ab + 2/p).
    p = inf:  (gamma / c_one_sup)^(k_one * ab + 1).
    """
    return _exp(theorem1_bound_log10(gamma, ab, p, constants) * _LN10)


def _tower_exponent(
    gamma: float, n: int, ab: float, p: float, c: float
) -> tuple[float, float]:
    """(log_base, exponent) of the n-band bound (c/gamma)^(-ab (c/gamma)^n - n + (p-1)/p)."""
    log_base = math.log(c / gamma)
    tower = _exp(n * log_base)
    first = 0.0 if ab == 0 else -ab * tower
    return log_base, first - n + holder_share(p)


def theorem2_bound_log10(
    gamma: float,
    n: int,
    ab: float,
    p: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> float:
    gamma = _check_gamma_positive(gamma)
    n = _check_count(n)
    ab = _check_ab(ab)
    check_exponent(p)
    log_base, expo = _tower_exponent(gamma, n, ab, p, constants.c_multi)
    return expo * log_base / _LN10


def theorem2_bound(
    gamma: float,
    n: int,
    ab: float,
    p: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> float:
    """n-band lower bound in reciprocal form:
    (C/gamma)^(-ab (C/gamma)^n - n + (p-1)/p).
    """
    return _exp(theorem2_bound_log10(gamma, n, ab, p, constants) * _LN10)


@dataclass(frozen=True)
class Remark1Bounds:
    """Sharpened small-ab / near-full-density bounds; None when inapplicable."""

    small_ab: float | None
    near_full: float | None


def remark1_bounds(gamma: float, ab: float, p: float) -> Remark1Bounds:
    """Regime-restricted lower bounds.

    small_ab:  gamma^(1/p) / 2 whenever ab <= 1.
    near_full: (1/2)^(1/p) whenever 1 - gamma <= 1 / (2 + p*ab), finite p.
    """
    gamma = _check_gamma_unit(gamma)
    ab = _check_ab(ab)
    p = check_exponent(p)
    small = 0.5 * gamma ** inv_p(p) if ab <= 1.0 else None
    near = None
    if not math.isinf(p) and 1.0 - gamma <= 1.0 / (2.0 + p * ab):
        near = 0.5 ** (1.0 / p)
    return Remark1Bounds(small_ab=small, near_full=near)


def lemma1_corollary_bound(
    meas_E: float,
    M: float,
    p: float | None = None,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> float:
    """Doubling-growth sup bound (C/|E|)^(ln M / ln 2), with +1/p for the Lp form.

    `M` is the doubling ratio of the function on nested windows; `p=None`
    (or inf) selects the sup form.
    """
    meas_E = float(meas_E)
    if meas_E <= 0:
        raise EmptySetError(f"subset measure must be positive, got {meas_E}")
    if meas_E > 1.0 + 1e-12:
        raise ValueError(f"subset measure must be at most 1, got {meas_E}")
    if M < 1.0:
        raise InvalidMError(f"growth ratio M must be >= 1, got {M}")
    expo = math.log(M) / math.log(2.0)
    if p is not None:
        expo += inv_p(p)
    return _exp(expo * math.log(constants.c_aux / meas_E))


def lemma3_bound(
    len_I: float,
    meas_E: float,
    n: int,
    m: int,
    p: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> float:
    """Exponential-sum norm-transfer bound (C |I| / |E|)^(n m - (p-1)/p)."""
    len_I = float(len_I)
    meas_E = float(meas_E)
    if meas_E <= 0:
        raise EmptySetError(f"subset measure must be positive, got {meas_E}")
    if len_I <= 0 or meas_E > len_I + 1e-12:
        raise ValueError("need 0 < |E| <= |I|")
    n = _check_count(n)
    m = _check_count(m, "m")
    check_exponent(p)
    expo = n * m - holder_share(p)
    return _exp(expo * math.log(constants.c_aux * len_I / meas_E))


@dataclass(frozen=True)
class NazarovRemezBounds:
    """Sup-norm transfer constants for exponential sums and polynomials."""

    nazarov: float
    remez: float


def nazarov_remez_bounds(
    len_I: float,
    meas_E: float,
    n: int,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> NazarovRemezBounds:
    """(C |I|/|E|)^(n-1) for n-term exponential sums and (4 |I|/|E|)^n for
    degree-n polynomials.  n = 0 is allowed and gives the trivial constants."""
    len_I = float(len_I)
    meas_E = float(meas_E)
    if meas_E <= 0:
        raise EmptySetError(f"subset measure must be positive, got {meas_E}")
    if len_I <= 0 or meas_E > len_I + 1e-12:
        raise ValueError("need 0 < |E| <= |I|")
    if int(n) != n or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n}")
    n = int(n)
    naz = _exp(max(n - 1, 0) * math.log(constants.c_aux * len_I / meas_E))
    rem = _exp(n * math.log(4.0 * len_I / meas_E))
    return NazarovRemezBounds(nazarov=naz, remez=rem)


@dataclass(frozen=True)
class MultiDimParams:
    """Dimension and the per-axis duration-bandwidth products."""

    d: int
    ab_products: tuple[float, ...]

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        products = tuple(float(v) for v in self.ab_products)
        object.__setattr__(self, "ab_products", products)
        if len(products) != self.d:
            raise ValueError("need one ab product per axis")
        if any(v < 0 for v in products):
            raise ValueError("ab products must be >= 0")


def multidim_bound(
    gamma: float,
    params: MultiDimParams,
    p: float,
    n: int | None = None,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> float:
    """Product-domain bounds.

    Single band per axis (n is None):
        (gamma / C^d)^(C (d + sum_k a_k b_k)),  C = c_one.
    n bands per axis:
        (C^d / gamma)^(-(C^d/gamma)^n sum_k a_k b_k - n + (p-1)/p),  C = c_multi.
    """
    gamma = _check_gamma_positive(gamma)
    check_exponent(p)
    s = sum(params.ab_products)
    if n is None:
        c = constants.c_one
        log_base = math.log(gamma) - params.d * math.log(c)
        return _exp(c * (params.d + s) * log_base)
    n = _check_count(n)
    log_cd = params.d * math.log(constants.c_multi)
    log_base = log_cd - math.log(gamma)
    tower = _exp(n * log_base)
    first = 0.0 if s == 0 else -s * tower
    expo = first - n + holder_share(p)
    if math.isinf(expo):
        return 0.0 if log_base > 0 else math.inf
    return _exp(expo * log_base)
