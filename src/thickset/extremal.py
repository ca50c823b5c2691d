"""Near-extremal sinc-power family against two-sliver periodic sets.

The family f(x) = (sin(2 pi x) / x)^m with m = floor(b / 4 pi) has spectrum
inside [-b/2, b/2] and nearly saturates the single-band bound on the
two-sliver set of density gamma: its norm ratio scales like gamma^(m + 1/p)
up to a geometric constant, so log-log regressions of ratio against gamma
recover a slope linear in b with coefficient close to 1 / (4 pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import finite_exponent
from .errors import (
    BandTooSmallError,
    InsufficientDataError,
    InvalidWindowError,
    NonIntegrableError,
)
from .quadrature import panel_nodes
from .sets import IntervalSet, two_sliver_set

FOUR_PI = 4.0 * math.pi

# Below this the kernel switches to its even Taylor expansion; the next
# omitted term is ~ (2 pi x)^6 / 5040 < 1e-19 at the cutoff.
_SMALL_X = 1e-4

# default_truncation keeps the kernel tail below this fraction of the mass.
TRUNCATION_REL_TOL = 1e-10


def _unit_kernel(x: np.ndarray) -> np.ndarray:
    """sin(2 pi x) / (2 pi x) with a stable series through the origin."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < _SMALL_X
    u = math.tau * x[small]
    u2 = u * u
    out[small] = 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    xl = x[~small]
    out[~small] = np.sin(math.tau * xl) / (math.tau * xl)
    return out


@dataclass(frozen=True)
class ExtremalInstance:
    """Sinc power matched to a bandwidth, with its two-sliver test set."""

    bandwidth: float
    power: int
    gamma: float
    set: IntervalSet

    def eval(self, x) -> np.ndarray:
        """(sin(2 pi x)/x)^m divided by its peak (2 pi)^m."""
        return _unit_kernel(x) ** self.power


def extremal_pair(bandwidth: float, gamma: float) -> ExtremalInstance:
    """Instance for a bandwidth b >= 4 pi and a sliver density gamma."""
    b = float(bandwidth)
    if not b >= FOUR_PI:
        raise BandTooSmallError(f"bandwidth must be at least 4 pi, got {b}")
    m = int(math.floor(b / FOUR_PI + 1e-12))
    return ExtremalInstance(bandwidth=b, power=m, gamma=float(gamma), set=two_sliver_set(gamma))


def _log_mass(pieces, mp: float) -> float:
    """log of sum w |kernel|^mp over Gauss-Legendre panels of width 0.5/mp.

    Every piece's nodes go through one kernel evaluation and one
    log-sum-exp, so the mass never underflows; -inf when no node carries mass.
    """
    xs, ws = panel_nodes(pieces, 0.5 / mp)
    with np.errstate(divide="ignore"):
        terms = np.log(ws) + mp * np.log(np.abs(_unit_kernel(xs)))
    top = terms.max(initial=-np.inf)
    if top == -np.inf:
        return -math.inf
    return float(top + np.log(np.exp(terms - top).sum()))


def default_truncation(inst: ExtremalInstance, p: float) -> float:
    """Half-width X making the closed-form tail below TRUNCATION_REL_TOL of the mass.

    Uses |kernel(x)| <= 1/(2 pi |x|), so the tail beyond X is at most
    2 (2 pi)^(-mp) X^(1-mp) / (mp - 1); the central mass on [-2, 2] is twice
    the even kernel's quadrature on [0, 2] at panel width 0.5/(mp).
    """
    p = finite_exponent(p, "the extremal ratio")
    mp = inst.power * p
    if mp <= 1.0:
        raise NonIntegrableError(f"kernel power m*p = {mp:g} is not integrable")
    log_target = math.log(TRUNCATION_REL_TOL) + math.log(2.0) + _log_mass([(0.0, 2.0)], mp)
    log_tail_at_one = math.log(2.0) - mp * math.log(math.tau) - math.log(mp - 1.0)
    # tail(X) = exp(log_tail_at_one) * X^(1-mp) <= target
    log_x = (log_target - log_tail_at_one) / (1.0 - mp)
    x = math.exp(min(log_x, 700.0))
    if x > 1e6:
        raise InvalidWindowError(
            "truncation would be impractically wide; pass it explicitly"
        )
    return float(max(4.0, math.ceil(x)))


def extremal_ratio(inst: ExtremalInstance, p: float, truncation: float | None = None) -> float:
    """||f||_{Lp(E)} / ||f||_p on [-X, X], X the (supplied or derived) half-width.

    Finite p only; mp <= 1 diverges.  Both masses are log-sum-exps over
    panels of width 0.5/(mp): the total is twice the even kernel's mass on
    [0, X], the kept mass runs over the pieces of E in [-X, X] as they are.
    Both use the normalized kernel, so the ratio is exact for the
    unnormalized family as well, and it underflows only below ~1e-308.
    """
    p = finite_exponent(p, "the extremal ratio")
    mp = inst.power * p
    if mp <= 1.0:
        raise NonIntegrableError(f"kernel power m*p = {mp:g} is not integrable")
    if truncation is None:
        truncation = default_truncation(inst, p)
    x_max = float(truncation)
    if not x_max > 0:
        raise InvalidWindowError(f"truncation must be positive, got {truncation}")
    log_total = math.log(2.0) + _log_mass([(0.0, x_max)], mp)
    log_kept = _log_mass(inst.set.materialize(-x_max, x_max), mp)
    return math.exp((log_kept - log_total) / p)


@dataclass(frozen=True)
class ExponentFit:
    """Log-log slopes of the measured ratios over a (bandwidth, gamma) grid."""

    bandwidths: tuple[float, ...]
    gammas: tuple[float, ...]
    p: float
    ratios: tuple[tuple[float, ...], ...]
    slopes: tuple[float, ...]
    slope_of_slopes: float
    intercept: float
    r_squared: float
    example_rate: float
    fitted_base: float


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def exponent_fit(
    bandwidths,
    gammas,
    p: float,
    truncation: float | None = None,
) -> ExponentFit:
    """Fit log(ratio) against log(gamma) per bandwidth, then slope against b.

    Needs at least three bandwidths and three gammas.  `fitted_base` is the
    smallest c with ratio <= (gamma/c)^(m-1) across gammas at the largest
    bandwidth (the near-extremal upper envelope).
    """
    b_list = tuple(float(b) for b in bandwidths)
    g_list = tuple(float(g) for g in gammas)
    if len(b_list) < 3 or len(g_list) < 3:
        raise InsufficientDataError("need at least 3 bandwidths and 3 gammas")
    ratio_rows: list[tuple[float, ...]] = []
    slopes: list[float] = []
    for b in b_list:
        row = []
        for g in g_list:
            inst = extremal_pair(b, g)
            row.append(extremal_ratio(inst, p, truncation))
        ratio_rows.append(tuple(row))
        s, _, _ = _line_fit(np.log(np.array(g_list)), np.log(np.array(row)))
        slopes.append(s)
    slope2, intercept, r2 = _line_fit(np.array(b_list), np.array(slopes))
    top = len(b_list) - 1
    m_top = extremal_pair(b_list[top], g_list[0]).power
    fitted_base = math.inf
    for g, ratio in zip(g_list, ratio_rows[top]):
        if m_top > 1 and ratio > 0:
            fitted_base = min(fitted_base, g * ratio ** (-1.0 / (m_top - 1)))
    return ExponentFit(
        bandwidths=b_list,
        gammas=g_list,
        p=float(p),
        ratios=tuple(ratio_rows),
        slopes=tuple(slopes),
        slope_of_slopes=slope2,
        intercept=intercept,
        r_squared=r2,
        example_rate=1.0 / FOUR_PI,
        fitted_base=fitted_base,
    )
