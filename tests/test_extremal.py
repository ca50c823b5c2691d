"""The sinc-power family that pins the exponent's linear shape."""
import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thickset import (
    IntervalSet,
    ThicksetError,
    default_truncation,
    exponent_fit,
    extremal_pair,
    extremal_ratio,
    normalize,
    theorem1_bound_log10,
    two_sliver_set,
)
from thickset import extremal as extremal_mod
from thickset.extremal import ExtremalInstance
from thickset.quadrature import panel_nodes

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
        with pytest.raises(ThicksetError, match="bandwidth must be at least 4 pi"):
            extremal_pair(FOUR_PI - 0.1, 0.3)

    def test_peak_value(self):
        # removable singularity: the kernel, divided by its peak (2 pi)^m, is 1 at 0
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        assert inst.eval(0.0) == 1.0

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
        with pytest.raises(ThicksetError, match="is not integrable"):
            extremal_ratio(inst, 1.0)  # m p = 1 diverges

    def test_sup_rejected(self):
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        with pytest.raises(ThicksetError, match="p must be finite"):
            extremal_ratio(inst, math.inf)

    @pytest.mark.parametrize("p", [math.nan, 0.5])
    @pytest.mark.parametrize("fn", [extremal_ratio, default_truncation])
    def test_invalid_exponent_rejected(self, fn, p):
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        with pytest.raises(ThicksetError, match=r"p must be in \[1, inf\]"):
            fn(inst, p)

    def test_ratio_in_unit_interval(self):
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        assert -math.inf < extremal_ratio(inst, 2.0) < 0.0  # log10 of a ratio in (0, 1)

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
                assert extremal_ratio(inst, 2.0) >= theorem1_bound_log10(gamma, k * FOUR_PI, 2.0)

    def test_truncation_override(self):
        inst = extremal_pair(4.0 * FOUR_PI, 0.3)
        a = extremal_ratio(inst, 2.0)
        b = extremal_ratio(inst, 2.0, truncation=2.0 * default_truncation(inst, 2.0))
        assert abs(a - b) <= math.log10(1.0 + 1e-6)

    @pytest.mark.parametrize("truncation", [math.inf, 1e300, 2e6, math.nan, 0.0])
    def test_truncation_out_of_range(self, truncation):
        # [-X, X] holds 2X slivers: inf and 1e300 overflowed, 1e7 ran out of memory
        inst = extremal_pair(40.0 * math.pi, 0.1)
        with pytest.raises(ThicksetError, match=r"truncation must be in \(0, 1e\+06\]"):
            extremal_ratio(inst, 2.0, truncation=truncation)

    def test_two_quadratures(self, monkeypatch):
        # the total on [0, X] and the kept mass: the truncation takes none
        calls = []
        log_mass = extremal_mod._log_mass
        monkeypatch.setattr(extremal_mod, "_log_mass",
                            lambda E, x_max, mp: calls.append(E) or log_mass(E, x_max, mp))
        extremal_ratio(extremal_pair(320.0 * math.pi, 0.05), 4.0)
        assert len(calls) == 2

    def test_truncation_cap_materializes_within_reach(self, monkeypatch):
        # [-1e6, 1e6] holds 2e6 slivers, but only those within reach of 0 are built
        sizes = []
        materialize = IntervalSet.materialize
        spy = lambda E, lo, hi: sizes.append(len(out := materialize(E, lo, hi))) or out
        monkeypatch.setattr(IntervalSet, "materialize", spy)
        inst = extremal_pair(40.0 * math.pi, 0.1)
        capped = extremal_ratio(inst, 2.0, truncation=1e6)
        assert 0 < sum(sizes) <= 1_000
        assert capped == pytest.approx(extremal_ratio(inst, 2.0), rel=1e-9)

    def test_default_truncation_positive(self):
        inst = extremal_pair(2.0 * FOUR_PI, 0.3)
        assert default_truncation(inst, 2.0) >= 4.0

    def test_window_without_set_is_zero(self):
        # the slivers of density 0.1 sit in [0.45, 0.55] + Z, outside the window
        inst = extremal_pair(4.0 * FOUR_PI, 0.1)
        assert extremal_ratio(inst, 2.0, truncation=0.3) == -math.inf

    def test_exact_kernel_zeros_are_silent(self, monkeypatch):
        # floating-point sin never hits 0 at the nodes, so zero the kernel by hand
        kernel = extremal_mod._unit_kernel
        inst = extremal_pair(4.0 * FOUR_PI, 0.1)
        ratio = extremal_ratio(inst, 2.0, truncation=4.0)

        def zero_beyond(cut):
            monkeypatch.setattr(extremal_mod, "_unit_kernel",
                                lambda x: np.where(np.abs(x) < cut, kernel(x), 0.0))

        zero_beyond(0.5)  # part of the kept mass
        assert -math.inf < extremal_ratio(inst, 2.0, truncation=4.0) < ratio
        zero_beyond(0.4)  # all of it: the slivers lie in [0.45, 0.55] + Z
        assert extremal_ratio(inst, 2.0, truncation=4.0) == -math.inf

    def test_node_count(self, monkeypatch):
        nodes = []

        def counted(pieces, width):
            xs, ws = panel_nodes(pieces, width)
            nodes.append(xs.size)
            return xs, ws

        panel_nodes = extremal_mod.panel_nodes
        monkeypatch.setattr(extremal_mod, "panel_nodes", counted)
        extremal_ratio(extremal_pair(320.0 * math.pi, 0.4), 4.0)
        assert 0 < sum(nodes) <= 8_000


def _full_log_mass(pieces, mp: float) -> float:
    """The log-sum-exp over every panel of width 0.5/mp, none cut, summed by fsum.

    The kernel is even, so each piece is laid from its end nearer the peak at 0:
    panels laid from a far end put edges near 0 off by the rounding of that end.
    """
    pieces = [(-hi, -lo) if abs(lo) > abs(hi) else (lo, hi) for lo, hi in pieces]
    xs, ws = panel_nodes(pieces, 0.5 / mp)
    with np.errstate(divide="ignore"):  # a zero of the kernel, or a weight that underflows
        terms = np.log(ws) + mp * np.log(np.abs(extremal_mod._unit_kernel(xs)))
    top = terms.max(initial=-np.inf)
    if top == -np.inf:
        return -math.inf
    return float(top + math.log(math.fsum(np.exp(terms - top))))


PRUNE_SETS = {
    "gamma-1": two_sliver_set(1.0),  # one piece through 0
    "asymmetric": IntervalSet(((0.1, 0.3),), period=1.0),
    "gamma-0.05": two_sliver_set(0.05),
}


class TestPanelCut:
    """_log_mass materializes and evaluates only the pieces within reach of 0."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    @pytest.mark.parametrize("truncation", [None, 0.3, 50.0])
    @pytest.mark.parametrize("name", sorted(PRUNE_SETS))
    def test_matches_every_panel(self, name, truncation, p):
        inst = extremal_pair(40.0 * math.pi, 0.1)  # m = 10
        x_max = default_truncation(inst, p) if truncation is None else truncation
        mp = inst.power * p
        for E in (IntervalSet(((0.0, x_max),)), PRUNE_SETS[name]):
            want = _full_log_mass(E.materialize(-x_max, x_max), mp)
            got = extremal_mod._log_mass(E, x_max, mp)
            assert got == want or abs(got - want) <= 1e-14 * abs(want)

    def test_short_guess_falls_back_to_every_panel(self, monkeypatch):
        # a guess 2^8 above the mass sets a cut the kept mass cannot vouch for,
        # so E's whole window is evaluated after all
        monkeypatch.setattr(extremal_mod, "_GUESS_BITS", -8)
        sums = []
        log_sum = extremal_mod._log_sum
        monkeypatch.setattr(extremal_mod, "_log_sum",
                            lambda pieces, mp: sums.append(pieces) or log_sum(pieces, mp))
        for E in (IntervalSet(((0.0, 4.0),)), two_sliver_set(0.05)):
            sums.clear()
            got = extremal_mod._log_mass(E, 4.0, 320.0)
            window = E.materialize(-4.0, 4.0)
            assert len(sums) == 2 and sums[1] == window and got == log_sum(window, 320.0)

    def test_far_panels_get_no_nodes(self, monkeypatch):
        # at m p = 40, |kernel|^40 < e^-73 beyond |x| = 1, against a mass ~ e^-3:
        # one panel_nodes call, on panels of [0, 1] only
        sizes = []

        def counted(pieces, width):
            xs, ws = panel_nodes(pieces, width)
            sizes.append(xs.size)
            return xs, ws

        monkeypatch.setattr(extremal_mod, "panel_nodes", counted)
        extremal_mod._log_mass(IntervalSet(((0.0, 50.0),)), 50.0, 40.0)
        assert len(sizes) == 1 and 0 < sizes[0] <= 16 * 80

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.floats(0.0, 0.9), st.floats(0.01, 1.0)),
                       min_size=1, max_size=8),
        period=st.none() | st.floats(0.25, 8.0),
        x_max=st.floats(0.1, 40.0),
        mp=st.floats(1.01, 2000.0),
    )
    @example(cells=[(13.0 / 30.0, 0.625)], period=None, x_max=40.0, mp=2000.0)  # through 0
    @example(cells=[(0.45, 0.1)], period=1.0, x_max=4.0, mp=40.0)  # slivers at gamma 0.1
    @example(cells=[(0.9, 0.1)], period=None, x_max=40.0, mp=2000.0)  # far out only
    @example(cells=[(0.9, 0.1)], period=None, x_max=10.0, mp=10.0)  # none in the window
    @example(cells=[(0.2774141174352404, 1.0)], period=8.0, x_max=6.0, mp=900.0)  # ends at the peak
    def test_matches_every_panel_on_random_sets(self, cells, period, x_max, mp):
        # cells (start, share) of [0, P] when periodic, else of [-30, 30], of total
        # length <= P or 8; the masses agree to 1e-14 relative, so their logs to
        # 1e-14 absolute (or relative, beyond 1)
        lo, span, total = (-30.0, 60.0, 8.0) if period is None else (0.0, period, period)
        starts = [(lo + span * start, total * share / len(cells)) for start, share in cells]
        E = normalize([(left, min(lo + span, left + length)) for left, length in starts], period)
        got = extremal_mod._log_mass(E, x_max, mp)
        want = _full_log_mass(E.materialize(-x_max, x_max), mp)
        assert got == want or abs(got - want) <= 1e-14 * max(1.0, abs(want))


def _central_mass(mp: float):
    """The integral of |sin(2 pi x) / (2 pi x)|^mp over [0, 2] at 30 digits."""
    with mpmath.workdps(REF_DPS):
        scale = 1 / (2 * mpmath.pi * mpmath.sqrt(mp))  # the width of the peak at 0
        points = [mpmath.mpf(0)] + [scale * 2 ** k for k in range(8) if scale * 2 ** k < 0.5]
        points += [mpmath.mpf(k) / 2 for k in range(1, 5)]  # the zeros of sin
        return mpmath.quad(lambda x: abs(mpmath.sin(2 * mpmath.pi * x) / (2 * mpmath.pi * x)) ** mp,
                           points)


class TestDefaultTruncation:
    """X from a closed-form lower bound on the central mass."""

    @pytest.mark.parametrize("mp", [1.01, 1.5, 2.0, 4.0, 8.0, 20.0, 80.0, 320.0, 2000.0])
    def test_central_mass_bound_is_below(self, mp):
        # a lower bound can only widen X, so the tail stays below the tolerance
        want = _central_mass(mp)
        bound = extremal_mod._log_central_mass(mp)
        assert bound <= float(mpmath.log(want))
        assert bound >= float(mpmath.log(want / 2))  # and not vacuous

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("b_over_pi", [40, 80, 160, 320])
    def test_sandwich_grid_is_four(self, b_over_pi, p):
        for gamma in (0.05, 0.1, 0.2, 0.4):
            assert default_truncation(extremal_pair(b_over_pi * math.pi, gamma), p) == 4.0

    @pytest.mark.parametrize("m, p, x", [(1, 3.0, 10636.0), (1, 4.0, 239.0), (3, 1.5, 82.0),
                                          (2, 3.0, 12.0), (5, 1.0, 37.0)])
    def test_small_powers(self, m, p, x):
        assert default_truncation(extremal_pair(m * FOUR_PI, 0.1), p) == x

    @pytest.mark.parametrize("m, p", [(1, 2.0), (2, 1.0), (1, 1.5)])
    def test_too_wide_raises(self, m, p):
        with pytest.raises(ThicksetError, match="truncation would exceed 1e"):
            default_truncation(extremal_pair(m * FOUR_PI, 0.1), p)


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
        assert abs(extremal_ratio(inst, p) - want) <= 1e-11

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
        assert fit.slope_of_slopes == pytest.approx(1 / FOUR_PI, rel=4.0)

    def test_needs_three_gammas(self):
        with pytest.raises(ThicksetError, match="need at least 3 bandwidths and 3 gammas"):
            exponent_fit([10.0 * FOUR_PI, 20.0 * FOUR_PI, 40.0 * FOUR_PI], [0.1, 0.2], 2.0)

    def test_needs_three_bandwidths(self):
        with pytest.raises(ThicksetError, match="need at least 3 bandwidths and 3 gammas"):
            exponent_fit([10.0 * FOUR_PI], [0.1, 0.2, 0.4], 2.0)
