"""The sinc-power family that pins the exponent's linear shape."""
import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from thickset import (
    BandTooSmallError,
    InsufficientDataError,
    IntervalSet,
    InvalidExponentError,
    NonIntegrableError,
    default_truncation,
    exponent_fit,
    extremal_pair,
    extremal_ratio,
    theorem1_bound_log10,
)
from thickset import extremal as extremal_mod
from thickset.extremal import ExtremalInstance

FOUR_PI = 4.0 * math.pi
REF_DPS = 30
REF_ORDER = 20


@lru_cache(maxsize=None)
def _legendre_rule(n: int = REF_ORDER) -> tuple:
    """Gauss-Legendre (node, weight) pairs on [-1, 1] by Newton on P_n."""
    with mpmath.workdps(REF_DPS + 10):
        rule = []
        for i in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (4 * i - 1) / (4 * n + 2))
            for _ in range(100):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                step = p1 / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -(REF_DPS + 5):
                    break
            rule.append((x, 2 / ((1 - x * x) * dp * dp)))
        return tuple(rule)


def _reference_mass(pieces, mp: int, panels_per_unit: int):
    """Sum of w |sin(2 pi x)/(2 pi x)|^mp over a composite rule, in mpmath.

    sin at the nodes comes by angle addition from one sin/cos pair per panel.
    """
    tau = 2 * mpmath.pi
    total = mpmath.mpf(0)
    for a, b in pieces:
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        n = int(mpmath.ceil((b - a) * panels_per_unit))
        h = (b - a) / (2 * n)
        offsets = [(mpmath.cos(tau * h * x), mpmath.sin(tau * h * x), tau * h * x, h * w)
                   for x, w in _legendre_rule()]
        for j in range(n):
            mid = tau * (a + (2 * j + 1) * h)
            cos_mid, sin_mid = mpmath.cos(mid), mpmath.sin(mid)
            for cos_off, sin_off, du, hw in offsets:
                u = mid + du
                total += hw * abs((sin_mid * cos_off + cos_mid * sin_off) / u) ** mp
    return total


@lru_cache(maxsize=None)
def _reference_log10_ratio(inst, p: int, x_max: float, refine: int = 1) -> float:
    """log10 of the Lp(E) / Lp([-X, X]) ratio at 30 digits.

    Panels of width 1/(refine m p); the total uses the kernel's evenness, the
    kept mass runs over the pieces of E as they are.
    """
    mp = inst.power * p
    with mpmath.workdps(REF_DPS):
        total = 2 * _reference_mass([(0.0, x_max)], mp, refine * mp)
        kept = _reference_mass(inst.set.materialize(-x_max, x_max), mp, refine * mp)
        return float(mpmath.log10(kept / total) / p)


REFERENCE_CASES = {
    "40pi-0.05-4": (extremal_pair(40.0 * math.pi, 0.05), 4),
    "320pi-0.05-4": (extremal_pair(320.0 * math.pi, 0.05), 4),
    "8pi-0.3-2": (extremal_pair(8.0 * math.pi, 0.3), 2),
    # not symmetric about 0: a kept mass that assumed E = -E would be off
    "asymmetric-set": (
        ExtremalInstance(bandwidth=40.0 * math.pi, power=10, gamma=0.2,
                         set=IntervalSet(((0.1, 0.3),), period=1.0)),
        2,
    ),
}


class TestExtremalPair:
    def test_minimal_bandwidth(self):
        inst = extremal_pair(FOUR_PI, 0.3)
        assert inst.power == 1

    def test_power_floors(self):
        assert extremal_pair(10.0 * FOUR_PI, 0.3).power == 10
        assert extremal_pair(10.5 * FOUR_PI, 0.3).power == 10

    def test_band_too_small(self):
        with pytest.raises(BandTooSmallError):
            extremal_pair(FOUR_PI - 0.1, 0.3)

    def test_peak_value(self):
        # removable singularity: the unnormalized kernel peaks at (2 pi)^m
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        got = inst.eval(0.0, normalized=False)
        assert math.isclose(got, (2.0 * math.pi) ** 2, rel_tol=1e-12)

    def test_series_matches_direct_near_zero(self):
        inst = extremal_pair(FOUR_PI, 0.3)
        # just outside the series cutoff the direct formula applies; just
        # inside, the Taylor series: both agree to near machine precision
        for x in (9e-5, 1.1e-4):
            direct = math.sin(2.0 * math.pi * x) / (2.0 * math.pi * x)
            assert math.isclose(inst.eval(x), direct, rel_tol=1e-10)

    def test_zeros_at_half_integers(self):
        inst = extremal_pair(FOUR_PI, 0.3)
        assert abs(inst.eval(0.5)) < 1e-15
        assert abs(inst.eval(1.0)) < 1e-15
        assert abs(inst.eval(2.5)) < 1e-15

    def test_sliver_set_avoids_peak(self):
        # the test set hugs the half-integers, leaving the peak at 0 out
        inst = extremal_pair(FOUR_PI, 0.2)
        pieces = inst.set.materialize(-1.0, 1.0)
        for lo, hi in pieces:
            assert not (lo <= 0.0 <= hi)


class TestSpectralSupport:
    def test_mass_outside_band_tiny(self):
        # FFT of the kernel power on [-8, 8) at 16 times the band's Nyquist
        # rate: the energy beyond |omega| = b/2 is what the decayed tails leak
        inst = extremal_pair(10.0 * FOUR_PI, 0.3)
        dx = 1.0 / (2.0 * inst.power * 16)
        n = int(round(16.0 / dx))
        energy = np.abs(np.fft.fft(inst.eval(-8.0 + dx * np.arange(n)))) ** 2
        outside = np.abs(math.tau * np.fft.fftfreq(n, d=dx)) > inst.bandwidth / 2.0 + 1e-9
        assert energy[outside].sum() / energy.sum() <= 1e-6


class TestExtremalRatio:
    def test_non_integrable(self):
        inst = extremal_pair(FOUR_PI, 0.3)  # m = 1
        with pytest.raises(NonIntegrableError):
            extremal_ratio(inst, 1.0)  # m p = 1 diverges

    def test_sup_rejected(self):
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        with pytest.raises(InvalidExponentError):
            extremal_ratio(inst, math.inf)

    @pytest.mark.parametrize("p", [math.nan, 0.5])
    @pytest.mark.parametrize("fn", [extremal_ratio, default_truncation])
    def test_invalid_exponent_rejected(self, fn, p):
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        with pytest.raises(InvalidExponentError):
            fn(inst, p)

    def test_ratio_in_unit_interval(self):
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        r = extremal_ratio(inst, 2.0)
        assert 0.0 < r < 1.0

    def test_monotone_in_bandwidth(self):
        rs = [
            extremal_ratio(extremal_pair(k * FOUR_PI, 0.3), 2.0)
            for k in (2, 4, 8)
        ]
        assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_above_closed_form_bound(self):
        for k in (2, 5, 10):
            for gamma in (0.1, 0.4):
                inst = extremal_pair(k * FOUR_PI, gamma)
                r = extremal_ratio(inst, 2.0)
                assert math.log10(r) >= theorem1_bound_log10(gamma, k * FOUR_PI, 2.0)

    def test_truncation_override(self):
        inst = extremal_pair(4.0 * FOUR_PI, 0.3)
        a = extremal_ratio(inst, 2.0)
        b = extremal_ratio(inst, 2.0, truncation=2.0 * default_truncation(inst, 2.0))
        assert math.isclose(a, b, rel_tol=1e-6)

    def test_default_truncation_positive(self):
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        assert default_truncation(inst, 2.0) >= 4.0

    def test_window_without_set_is_zero(self):
        # the slivers of density 0.1 sit in [0.45, 0.55] + Z, outside the window
        inst = extremal_pair(4.0 * FOUR_PI, 0.1)
        assert extremal_ratio(inst, 2.0, truncation=0.3) == 0.0

    def test_exact_kernel_zeros_are_silent(self, monkeypatch):
        # floating-point sin never hits 0 at the nodes, so zero the kernel by hand
        kernel = extremal_mod._unit_kernel
        inst = extremal_pair(4.0 * FOUR_PI, 0.1)
        ratio = extremal_ratio(inst, 2.0, truncation=4.0)

        def zero_beyond(cut):
            monkeypatch.setattr(extremal_mod, "_unit_kernel",
                                lambda x: np.where(np.abs(x) < cut, kernel(x), 0.0))

        zero_beyond(0.5)  # part of the kept mass
        assert 0.0 < extremal_ratio(inst, 2.0, truncation=4.0) < ratio
        zero_beyond(0.4)  # all of it: the slivers lie in [0.45, 0.55] + Z
        assert extremal_ratio(inst, 2.0, truncation=4.0) == 0.0

    def test_node_count(self, monkeypatch):
        nodes = []

        def counted(pieces, width):
            xs, ws = panel_nodes(pieces, width)
            nodes.append(xs.size)
            return xs, ws

        panel_nodes = extremal_mod.panel_nodes
        monkeypatch.setattr(extremal_mod, "panel_nodes", counted)
        extremal_ratio(extremal_pair(320.0 * math.pi, 0.4), 4.0)
        assert 0 < sum(nodes) <= 100_000


class TestExtremalReference:
    """Against a 30-digit composite Gauss-Legendre rule in mpmath."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_reference_converged(self, case):
        inst, p = REFERENCE_CASES[case]
        x_max = default_truncation(inst, p)
        coarse = _reference_log10_ratio(inst, p, x_max)
        assert abs(_reference_log10_ratio(inst, p, x_max, refine=2) - coarse) <= 1e-13

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference(self, case):
        inst, p = REFERENCE_CASES[case]
        want = _reference_log10_ratio(inst, p, default_truncation(inst, p))
        assert abs(math.log10(extremal_ratio(inst, p)) - want) <= 1e-11

    def test_underflowing_cell_value(self):
        inst, p = REFERENCE_CASES["320pi-0.05-4"]
        want = _reference_log10_ratio(inst, p, default_truncation(inst, p))
        assert want == pytest.approx(-103.0465293361389, abs=1e-12)

    def test_asymmetric_set_not_symmetrized(self):
        # E = [0.1, 0.3] + Z keeps a different mass on [-X, 0] than on [0, X],
        # so a kept mass doubled from one half would miss the reference
        inst, p = REFERENCE_CASES["asymmetric-set"]
        x_max = default_truncation(inst, p)
        mp = inst.power * p
        with mpmath.workdps(REF_DPS):
            right = _reference_mass(inst.set.materialize(0.0, x_max), mp, mp)
            both = _reference_mass(inst.set.materialize(-x_max, x_max), mp, mp)
            assert abs(mpmath.log10(2 * right / both)) / p > 1e-3


class TestExponentFit:
    def test_slope_tracks_power(self):
        bw = [10.0 * FOUR_PI, 20.0 * FOUR_PI, 40.0 * FOUR_PI]
        gammas = [0.1, 0.2, 0.4]
        fit = exponent_fit(bw, gammas, 2.0)
        # per-bandwidth slope of log ratio against log gamma grows like
        # m + 1/p; with m = 10, 20, 40 expect roughly 10.5, 21, 42
        assert 8.0 <= fit.slopes[0] <= 14.0
        assert 17.0 <= fit.slopes[1] <= 26.0
        assert 34.0 <= fit.slopes[2] <= 52.0
        assert fit.r_squared >= 0.9
        # slope of the slopes against bandwidth stays near 1/(4 pi)
        assert fit.slope_of_slopes == pytest.approx(fit.example_rate, rel=4.0)

    def test_needs_three_gammas(self):
        with pytest.raises(InsufficientDataError):
            exponent_fit([10.0 * FOUR_PI, 20.0 * FOUR_PI, 40.0 * FOUR_PI], [0.1, 0.2], 2.0)

    def test_needs_three_bandwidths(self):
        with pytest.raises(InsufficientDataError):
            exponent_fit([10.0 * FOUR_PI], [0.1, 0.2, 0.4], 2.0)
