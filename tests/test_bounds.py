"""Closed-form lower bounds: frozen values, edge cases, and monotonicity."""
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from thickset import (
    BoundConstants,
    ThicksetError,
    Verdict,
    lemma1_corollary_bound,
    lemma3_bound,
    lemma3_bound_log10,
    multidim_bound,
    nazarov_remez_bounds,
    remark1_bounds,
    theorem1_bound,
    theorem1_bound_log10,
    theorem2_bound,
    theorem2_bound_log10,
)


class TestTheorem1:
    def test_degenerate_band_sup(self):
        # gamma = 1, ab = 0, p = inf: (1/100)^1
        assert math.isclose(theorem1_bound(1.0, 0.0, math.inf), 0.01, rel_tol=1e-12)

    def test_degenerate_band_finite_p(self):
        # gamma = 1, ab = 0, p = 2: (1/300)^(2/2) = 1/300
        assert math.isclose(theorem1_bound(1.0, 0.0, 2.0), 1.0 / 300.0, rel_tol=1e-12)

    def test_p_one_exponent(self):
        # p = 1: exponent 33 ab + 2
        got = theorem1_bound(0.5, 1.0, 1.0)
        want = (0.5 / 300.0) ** 35
        assert math.isclose(got, want, rel_tol=1e-10)

    def test_log10_matches_linear(self):
        got = theorem1_bound_log10(0.3, 2.0, 2.0)
        want = (33.0 * 2.0 + 1.0) * math.log10(0.3 / 300.0)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_underflow_saturates_to_zero(self):
        assert theorem1_bound(0.1, 500.0, 2.0) == 0.0
        assert theorem1_bound_log10(0.1, 500.0, 2.0) < -10_000

    def test_gamma_domain(self):
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ThicksetError, match=r"gamma must be in \(0, 1\]"):
                theorem1_bound(bad, 1.0, 2.0)

    def test_invalid_p(self):
        with pytest.raises(ThicksetError, match=r"p must be in \[1, inf\]"):
            theorem1_bound(0.5, 1.0, 0.5)

    def test_monotone_in_gamma(self):
        vals = [theorem1_bound(g, 1.0, 2.0) for g in (0.1, 0.3, 0.5, 0.9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_ab(self):
        vals = [theorem1_bound(0.5, ab, 2.0) for ab in (0.0, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_custom_constants(self):
        consts = BoundConstants(c_one=10.0, c_one_sup=10.0)
        got = theorem1_bound(1.0, 0.0, math.inf, consts)
        assert math.isclose(got, 0.1, rel_tol=1e-12)


class TestTheorem2:
    def test_two_dim_zero_band_sup(self):
        # n = 2, ab = 0, p = inf: exponent -2 + 1 = -1 -> gamma/C
        got = theorem2_bound(0.5, 2, 0.0, math.inf)
        assert math.isclose(got, 0.5 / 300.0, rel_tol=1e-12)

    def test_one_dim_zero_band_sup_is_one(self):
        # n = 1, ab = 0, p = inf: exponent -1 + 1 = 0 -> bound 1
        assert math.isclose(theorem2_bound(0.5, 1, 0.0, math.inf), 1.0, rel_tol=1e-12)

    def test_hypothetical_base_one(self):
        # gamma equal to the constant collapses the base to 1
        assert math.isclose(theorem2_bound(300.0, 2, 1.0, 2.0), 1.0, rel_tol=1e-12)

    def test_prime_form_agrees(self):
        # 40-digit reference of the direct form (gamma/C)^(ab (C/gamma)^n + n - (p-1)/p)
        smallest = mpmath.mpf(2.0) ** -1074
        with mpmath.workdps(40):
            c = mpmath.mpf(300.0)
            ab = mpmath.mpf(0.7)
            for gamma in (0.1, 0.4, 0.9):
                g = mpmath.mpf(gamma)
                for n in (1, 2, 3):
                    for p in (1.0, 2.0, math.inf):
                        share = 1 if math.isinf(p) else (mpmath.mpf(p) - 1) / p
                        ref = (g / c) ** (ab * (c / g) ** n + n - share)
                        got = theorem2_bound(gamma, n, 0.7, p)
                        if ref < smallest:
                            assert got == 0.0
                        else:
                            assert math.isclose(got, float(ref), rel_tol=1e-9)
                        got_log10 = theorem2_bound_log10(gamma, n, 0.7, p)
                        assert got_log10 == pytest.approx(float(mpmath.log10(ref)), rel=1e-9)

    def test_decreasing_in_n(self):
        vals = [theorem2_bound(0.3, n, 0.5, 2.0) for n in (1, 2, 3)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_below_theorem1_for_moderate_band(self):
        # the tower-form constant is never better than the single-band one
        # once the band product is bounded away from zero
        for gamma in (0.1, 0.3, 0.7):
            for ab in (0.05, 0.5, 2.0):
                for p in (1.0, 2.0, math.inf):
                    t2 = theorem2_bound(gamma, 1, ab, p)
                    t1 = theorem1_bound(gamma, ab, p)
                    assert t2 <= t1 * (1.0 + 1e-12)

    def test_gamma_above_one_allowed(self):
        # the tower form stays meaningful for gamma past 1 (monotone growth);
        # compared in log10 since the linear values underflow
        from thickset import theorem2_bound_log10

        assert theorem2_bound_log10(1.5, 1, 1.0, 2.0) > theorem2_bound_log10(0.9, 1, 1.0, 2.0)


class TestRemark1:
    def test_small_band_product(self):
        # ab <= 1: constant gamma^(1/p) / 2
        pair = remark1_bounds(0.25, 0.5, 2.0)
        assert pair.small_ab is not None
        assert math.isclose(pair.small_ab, 0.5 * math.sqrt(0.25), rel_tol=1e-12)

    def test_small_band_sup(self):
        pair = remark1_bounds(0.25, 1.0, math.inf)
        assert pair.small_ab is not None
        assert math.isclose(pair.small_ab, 0.5, rel_tol=1e-12)

    def test_small_band_gate(self):
        pair = remark1_bounds(0.25, 1.5, 2.0)
        assert pair.small_ab is None

    def test_near_full_density(self):
        # 1 - gamma <= 1/(2 + p ab) activates the (1/2)^(1/p) bound
        gamma, ab, p = 0.95, 2.0, 1.0
        assert 1.0 - gamma <= 1.0 / (2.0 + p * ab)
        pair = remark1_bounds(gamma, ab, p)
        assert pair.near_full is not None
        assert math.isclose(pair.near_full, 0.5, rel_tol=1e-12)

    def test_near_full_gate_closed(self):
        pair = remark1_bounds(0.5, 2.0, 1.0)
        assert pair.near_full is None

    def test_near_full_not_for_sup(self):
        pair = remark1_bounds(0.999, 0.5, math.inf)
        assert pair.near_full is None


class TestLemma1:
    def test_doubling_ratio_two(self):
        # M = 2: exponent ln 2 / ln 2 = 1 -> factor C / |E|
        got = lemma1_corollary_bound(0.5, 2.0)
        assert math.isclose(got, 300.0 / 0.5, rel_tol=1e-12)

    def test_value_shape(self):
        # the comparison factor is (C/|E|)^(ln M / ln 2)
        meas, M = 0.25, 4.0
        got = lemma1_corollary_bound(meas, M)
        want = (300.0 / meas) ** (math.log(M) / math.log(2.0))
        assert math.isclose(got, want, rel_tol=1e-10)

    def test_lp_variant_adds_inverse_p(self):
        meas, M, p = 0.25, 4.0, 2.0
        got = lemma1_corollary_bound(meas, M, p)
        want = (300.0 / meas) ** (math.log(M) / math.log(2.0) + 0.5)
        assert math.isclose(got, want, rel_tol=1e-10)

    def test_m_below_one_rejected(self):
        with pytest.raises(ThicksetError, match="growth ratio M must be >= 1"):
            lemma1_corollary_bound(0.5, 0.5)

    def test_empty_set_rejected(self):
        with pytest.raises(ThicksetError, match="subset measure must be positive"):
            lemma1_corollary_bound(0.0, 2.0)

    def test_default_is_sup_form(self):
        assert lemma1_corollary_bound(0.25, 4.0) == lemma1_corollary_bound(0.25, 4.0, math.inf)


class TestLemma3:
    def test_single_exponential_sup(self):
        # n = 1, m = 1, p = inf: exponent 1*1 - 1 = 0 -> bound 1
        assert math.isclose(lemma3_bound(1.0, 0.3, 1, 1, math.inf), 1.0, rel_tol=1e-12)

    def test_single_exponential_l2(self):
        # n = m = 1, p = 2: exponent 1/2
        got = lemma3_bound(1.0, 0.3, 1, 1, 2.0)
        want = (300.0 / 0.3) ** 0.5
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_growth_in_nm(self):
        vals = [lemma3_bound(1.0, 0.3, n, 2, 2.0) for n in (1, 2, 3)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n, m, p", [(1, 1, 2.0), (2, 3, math.inf), (3, 2, 1.0)])
    def test_log10_form(self, n, m, p):
        want = math.log10(lemma3_bound(1.0, 0.3, n, m, p))
        assert math.isclose(lemma3_bound_log10(1.0, 0.3, n, m, p), want, rel_tol=1e-14)

    def test_log10_form_past_the_double_range(self):
        # n m = 400 puts (300 / 0.1)^(400 - 1/2) near 10^1389, where the linear form reads inf
        assert lemma3_bound(1.0, 0.1, 1, 400, 2.0) == math.inf
        want = float(mpmath.mpf(399.5) * mpmath.log10(3000))
        assert math.isclose(lemma3_bound_log10(1.0, 0.1, 1, 400, 2.0), want, rel_tol=1e-14)

    def test_measures_checked(self):
        with pytest.raises(ThicksetError, match="subset measure must be positive"):
            lemma3_bound(1.0, 0.0, 1, 1, 2.0)
        with pytest.raises(ValueError):
            lemma3_bound(1.0, 1.5, 1, 1, 2.0)
        with pytest.raises(ValueError):
            lemma3_bound(0.0, 0.3, 1, 1, 2.0)


class TestVerdict:
    """A check lhs <= rhs decided on log10 lhs and log10 rhs."""

    @staticmethod
    def classes(verdict):
        """(holds, fails, unresolved): unresolved is neither of the other two."""
        return verdict.holds, verdict.fails, not (verdict.holds or verdict.fails)

    def test_three_classes(self):
        holds, fails, unresolved = Verdict.of(-3.0, -2.0), Verdict.of(-2.0, -3.0), Verdict(-1.0, 1.0)
        assert self.classes(holds) == (True, False, False)
        assert self.classes(fails) == (False, True, False)
        assert self.classes(unresolved) == (False, False, True)
        assert (holds.low, holds.high, fails.low, fails.high) == (1.0, 1.0, -1.0, -1.0)

    def test_zero_margin_holds(self):
        verdict = Verdict.of(-17.25, -17.25)
        assert verdict.low == verdict.high == 0.0 and verdict.holds and not verdict.fails
        assert Verdict(0.0, 0.0).holds
        assert self.classes(Verdict(-1e-300, 1.0)) == (False, False, True)

    @pytest.mark.parametrize("log10_rhs", [-math.inf, -400.0, 0.0, math.inf])
    def test_lhs_of_zero_holds(self, log10_rhs):
        # 0 <= rhs whatever rhs is, a rhs of 0 too
        verdict = Verdict.of(-math.inf, log10_rhs)
        assert verdict.holds and verdict.low == verdict.high == math.inf

    def test_rhs_of_zero_or_infinite_lhs_fails(self):
        assert Verdict.of(-400.0, -math.inf).fails
        assert Verdict.of(math.inf, 400.0).fails

    @pytest.mark.parametrize("ends", [(math.nan, 0.0), (0.0, math.nan), (math.inf, math.inf)])
    def test_nan_margin_is_refused(self, ends):
        # a side past the double range gives no margin: no verdict, not a quiet pass
        with pytest.raises(ThicksetError, match="margin is nan"):
            Verdict.of(*ends)
        with pytest.raises(ThicksetError, match="margin is nan"):
            Verdict(-1.0, math.nan)


class TestNazarovRemez:
    def test_remez_shape(self):
        pair = nazarov_remez_bounds(1.0, 0.25, 3)
        assert math.isclose(pair.remez, (4.0 / 0.25) ** 3, rel_tol=1e-12)

    def test_nazarov_shape(self):
        pair = nazarov_remez_bounds(1.0, 0.25, 3)
        assert math.isclose(pair.nazarov, (300.0 / 0.25) ** 2, rel_tol=1e-12)

    def test_degree_zero(self):
        pair = nazarov_remez_bounds(1.0, 0.5, 0)
        assert pair.remez == 1.0
        assert pair.nazarov == 1.0

    def test_measures_checked(self):
        with pytest.raises(ThicksetError, match="subset measure must be positive"):
            nazarov_remez_bounds(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            nazarov_remez_bounds(1.0, 1.5, 2)
        with pytest.raises(ValueError):
            nazarov_remez_bounds(0.0, 0.3, 2)


class TestMultiDim:
    # small constants keep every value inside double range, where the
    # default ones underflow to 0.0 and no comparison could fail
    SMALL = BoundConstants(c_one=2.0, c_multi=2.0)

    def test_product_form_shape(self):
        got = multidim_bound(0.5, (1.0, 2.0), 2.0, constants=self.SMALL)
        want = (0.5 / 2.0 ** 2) ** (2.0 * (2 + 3.0))  # 2^-30 = 9.31e-10
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_tower_form_decreasing_in_n(self):
        # (C^d/gamma)^(-(C^d/gamma)^n sum ab - n + 1/2): 2.74e-16, then 2.11e-202
        vals = [multidim_bound(0.3, (0.5, 0.5), 2.0, n, self.SMALL) for n in (1, 2)]
        with mpmath.workdps(40):
            base = mpmath.mpf(2.0) ** 2 / mpmath.mpf(0.3)
            refs = [base ** (-(base**n) - n + mpmath.mpf(0.5)) for n in (1, 2)]
        for got, ref in zip(vals, refs):
            assert math.isclose(got, float(ref), rel_tol=1e-12)
        assert vals[0] > vals[1] > 0.0

    def test_one_axis_tower_is_theorem2(self):
        # d = 1: the n-band product bound is the n-band line bound, 4^-0.9 = 0.28717...
        got = multidim_bound(0.5, (0.1,), 2.0, 1, self.SMALL)
        assert math.isclose(got, theorem2_bound(0.5, 1, 0.1, 2.0, self.SMALL), rel_tol=1e-14)
        assert math.isclose(got, 4.0**-0.9, rel_tol=1e-14)

    def test_infinite_ab_sum_rejected(self):
        with pytest.raises(ValueError):
            multidim_bound(0.5, (1e308, 1e308), 2.0, 1)


@settings(max_examples=80, deadline=None)
@given(
    gamma=st.floats(min_value=0.01, max_value=1.0),
    ab=st.floats(min_value=0.0, max_value=20.0),
    p=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
)
def test_theorem1_in_unit_range(gamma, ab, p):
    v = theorem1_bound(gamma, ab, p)
    assert 0.0 <= v <= 1.0


@settings(max_examples=80, deadline=None)
@given(
    gamma=st.floats(min_value=0.01, max_value=0.99),
    ab=st.floats(min_value=0.01, max_value=5.0),
    p=st.sampled_from([1.0, 2.0, math.inf]),
    n=st.integers(min_value=1, max_value=3),
)
def test_tower_below_single_band(gamma, ab, p, n):
    t2 = theorem2_bound(gamma, n, ab, p)
    t1 = theorem1_bound(gamma, ab, p)
    assert t2 <= t1 * (1.0 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(
    g1=st.floats(min_value=0.01, max_value=0.5),
    delta=st.floats(min_value=0.01, max_value=0.49),
    ab=st.floats(min_value=0.0, max_value=10.0),
    p=st.sampled_from([1.0, 2.0, math.inf]),
)
def test_theorem1_monotone_in_gamma_property(g1, delta, ab, p):
    lo = theorem1_bound(g1, ab, p)
    hi = theorem1_bound(g1 + delta, ab, p)
    assert lo <= hi * (1.0 + 1e-12)
