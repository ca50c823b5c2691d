"""Near-extremal sinc-power family against two-sliver periodic sets.

The family f(x) = (sin(2 pi x) / x)^m with m = floor(b / 4 pi) has spectrum
inside [-b/2, b/2] and nearly saturates the single-band bound on the
two-sliver set of density gamma: its norm ratio scales like gamma^(m + 1/p)
up to a geometric constant, so log-log regressions of ratio against gamma
recover a slope linear in b with coefficient close to 1 / (4 pi).

Each ratio takes two quadratures on a window [-X, X] set by a closed-form lower bound
on the central mass; each builds only the set's pieces within a reach of 0, from a
closed-form panel count, so a truncation up to MAX_TRUNCATION costs no more than the default.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import finite_exponent
from .errors import ThicksetError
from .quadrature import panel_nodes
from .sets import IntervalSet, two_sliver_set

FOUR_PI = 4.0 * math.pi

# default_truncation keeps the kernel tail below this fraction of the mass; no X,
# supplied or derived, may exceed MAX_TRUNCATION, as [-X, X] holds 2X slivers.
TRUNCATION_REL_TOL = 1e-10
MAX_TRUNCATION = 1e6
# A mass keeps about 0.3 m p panels of 16 nodes: m p = 1.2e6 took 1.3 s and 580 MB (2 vCPUs).
MAX_POWER = 1e5


def _unit_kernel(x: np.ndarray) -> np.ndarray:
    """sin(2 pi x) / (2 pi x), 1 at the origin: ``np.sinc(2 x)``, as in ``gram_matrix``."""
    return np.sinc(2.0 * np.asarray(x, dtype=float))


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
        raise ThicksetError(f"bandwidth must be at least 4 pi, got {b}")
    if b == math.inf:
        raise ThicksetError(f"b = {b} gives an infinite kernel power m")
    m = int(math.floor(b / FOUR_PI + 1e-12))
    return ExtremalInstance(bandwidth=b, power=m, gamma=float(gamma), set=two_sliver_set(gamma))


# _log_mass drops panels holding at most 2^-CUT_BITS of the mass, guessed to within
# 2^_GUESS_BITS first.
CUT_BITS = 60
_GUESS_BITS = 16


def _log_sum(pieces, mp: float) -> float:
    """log of sum w |kernel|^mp over the panel_nodes of `pieces` at width 0.5/mp."""
    xs, ws = panel_nodes(pieces, 0.5 / mp)
    with np.errstate(divide="ignore"):
        terms = np.log(ws) + mp * np.log(np.abs(_unit_kernel(xs)))
    top = terms.max(initial=-np.inf)
    return -math.inf if top == -np.inf else float(top + np.log(np.exp(terms - top).sum()))


def _log_mass(E: IntervalSet, x_max: float, mp: float) -> float:
    """log of sum w |kernel|^mp over the panels of width w = 0.5/mp on E within (-X, X).

    |kernel(x)| <= 1 / (2 pi |x|), so a panel beyond |x| = reach, where
    log w - mp log(2 pi reach) = c, has log mass below the cut c; E is materialized only
    to reach + w, for one log-sum-exp of log mass M.  As 2X/w + K (2X/P + 2) bounds the
    window's panels (K cell intervals, P the period, or X if aperiodic), c <= M - CUT_BITS
    ln 2 - ln(that bound) keeps the dropped mass under 2^-CUT_BITS of M.  c takes M to be at
    least 2^-_GUESS_BITS of one panel, of width min(w, its length), at the kernel's value on
    the piece nearest 0, sought over one period (or the window if shorter, or E aperiodic);
    if not, E's whole window is summed.
    """
    width, period = 0.5 / mp, E.period or x_max
    half = x_max if E.period is None else min(x_max, 0.5 * period)
    x, length = min(((math.tau * abs(max(lo, min(hi, 0.0))), hi - lo)  # the piece nearest 0
                     for lo, hi in E.materialize(-half, half)), default=(0.0, width))
    floor = math.log(min(width, length)) - _GUESS_BITS * math.log(2.0)
    floor += mp * min(0.0, math.log(abs(math.sin(x)) / x)) if x else 0.0
    panels = 2.0 * x_max / width + len(E.intervals) * (2.0 * x_max / period + 2.0)
    cut = floor - CUT_BITS * math.log(2.0) - math.log(panels)
    reach = min(math.exp(min((math.log(width) - cut) / mp, 700.0)) / math.tau + width, x_max)
    # a window that misses E sums no panel, here or in the fallback: -inf
    mass = _log_sum(E.materialize(-reach, reach), mp)
    return mass if mass >= floor else _log_sum(E.materialize(-x_max, x_max), mp)


def _log_central_mass(mp: float) -> float:
    """log of a lower bound on the integral of |kernel|^mp over [0, 2].

    With u = 2 pi x, sin u / u >= 1 - u^2/6 >= 0 on [0, sqrt 6], and (1 - u^2/6)^mp
    integrates there to sqrt(6 pi) Gamma(mp + 1) / (2 Gamma(mp + 3/2)) in u.
    """
    return (0.5 * math.log(6.0 * math.pi) + math.lgamma(mp + 1.0) - math.lgamma(mp + 1.5)
            - math.log(2.0 * math.tau))


def _kernel_power(inst: ExtremalInstance, p: float) -> float:
    """m p, refused unless in (1, MAX_POWER]: the kernel is not integrable at m p <= 1."""
    p = finite_exponent(p, "the extremal ratio")
    mp = inst.power * p
    if mp <= 1.0:
        raise ThicksetError(f"kernel power m*p = {mp:g} is not integrable")
    if not mp <= MAX_POWER:
        raise ThicksetError(
            f"kernel power m*p = {mp:g} exceeds {MAX_POWER:g}: lower b = {inst.bandwidth:g} or p"
        )
    return mp


def default_truncation(inst: ExtremalInstance, p: float) -> float:
    """Half-width X making the closed-form tail below TRUNCATION_REL_TOL of the mass.

    Uses |kernel(x)| <= 1/(2 pi |x|), so the tail beyond X is at most
    2 (2 pi)^(-mp) X^(1-mp) / (mp - 1); the central mass on [-2, 2] is at least
    twice _log_central_mass, a closed-form lower bound, which can only widen X.
    X is at least 4; an X beyond MAX_TRUNCATION raises ThicksetError.
    """
    mp = _kernel_power(inst, p)
    log_target = math.log(TRUNCATION_REL_TOL) + math.log(2.0) + _log_central_mass(mp)
    log_tail_at_one = math.log(2.0) - mp * math.log(math.tau) - math.log(mp - 1.0)
    # tail(X) = exp(log_tail_at_one) * X^(1-mp) <= target
    log_x = (log_target - log_tail_at_one) / (1.0 - mp)
    if log_x > math.log(MAX_TRUNCATION):
        raise ThicksetError(f"truncation would exceed {MAX_TRUNCATION:g}; pass one explicitly")
    return float(max(4.0, math.ceil(math.exp(log_x))))


def extremal_ratio(inst: ExtremalInstance, p: float, truncation: float | None = None) -> float:
    """log10 of ||f||_{Lp(E)} / ||f||_p on [-X, X], X the (supplied or derived) half-width.

    Finite p only; mp <= 1 diverges.  Both masses are log-sum-exps over
    panels of width 0.5/(mp): the total is twice the even kernel's mass on
    [0, X], the kept mass runs over the pieces of E in [-X, X] as they are.
    Both use the normalized kernel, so the ratio is exact for the
    unnormalized family as well; its log10 never underflows, and it is
    -inf only when E carries no mass in the window.  X > MAX_TRUNCATION is refused.
    """
    mp = _kernel_power(inst, p)
    if truncation is None:
        truncation = default_truncation(inst, p)
    x_max = float(truncation)
    if not 0.0 < x_max <= MAX_TRUNCATION:
        raise ThicksetError(f"truncation must be in (0, {MAX_TRUNCATION:g}], got {truncation}")
    log_total = math.log(2.0) + _log_mass(IntervalSet(((0.0, x_max),)), x_max, mp)
    log_kept = _log_mass(inst.set, x_max, mp)
    return (log_kept - log_total) / (p * math.log(10.0))


@dataclass(frozen=True)
class ExponentFit:
    """Log-log slopes of the measured ratios over a (bandwidth, gamma) grid."""

    bandwidths: tuple[float, ...]
    gammas: tuple[float, ...]
    p: float
    ratios: tuple[tuple[float, ...], ...]
    slopes: tuple[float, ...]
    slope_of_slopes: float
    r_squared: float


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and r^2 of the least-squares line through (x, y)."""
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def exponent_fit(bandwidths, gammas, p: float) -> ExponentFit:
    """Fit log(ratio) against log(gamma) per bandwidth, then slope against b.

    Needs at least three bandwidths and three gammas; each ratio takes the
    derived ``default_truncation``.  The family predicts a slope of slopes
    near 1 / FOUR_PI.
    """
    b_list = tuple(float(b) for b in bandwidths)
    g_list = tuple(float(g) for g in gammas)
    if len(b_list) < 3 or len(g_list) < 3:
        raise ThicksetError("need at least 3 bandwidths and 3 gammas")
    log10s = [[extremal_ratio(extremal_pair(b, g), p) for g in g_list] for b in b_list]
    slopes = [_line_fit(np.log10(np.array(g_list)), np.array(row))[0] for row in log10s]
    slope2, r2 = _line_fit(np.array(b_list), np.array(slopes))
    return ExponentFit(
        bandwidths=b_list,
        gammas=g_list,
        p=float(p),
        ratios=tuple(tuple(10.0 ** r for r in row) for row in log10s),
        slopes=tuple(slopes),
        slope_of_slopes=slope2,
        r_squared=r2,
    )
