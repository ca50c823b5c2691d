"""Constructive checks: interval classifier, local estimates, Taylor split,
band component norms, and the exponential-sum transfer verifier."""
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from thickset import (
    BandOverlapError,
    BandSpec,
    ClassifierParams,
    DuplicateFrequencyError,
    IntervalSet,
    InvalidBandError,
    InvalidExponentError,
    InvalidWindowError,
    NormQuery,
    TrigPoly,
    ZeroFunctionError,
    band_component_norms,
    classify_intervals,
    exp_sum_verifier,
    full_torus,
    good_mass_check,
    growth_envelope,
    local_estimate_check,
    lp_norm,
    minimal_transfer_constant,
    random_bandlimited,
    taylor_remainder_bound,
    taylor_split,
    two_sliver_set,
    unit_partition,
)
from thickset import proofcheck

B4 = 4.0 * math.pi
L = 8.0


def make_poly(b=B4, seed=0, period=L):
    return random_bandlimited(BandSpec((0.0,), b), period, seed=seed)


class TestClassifierParams:
    def test_sup_exponent_rejected(self):
        with pytest.raises(InvalidExponentError):
            ClassifierParams(p=math.inf)

    def test_alpha_max_resolves_tail(self):
        params = ClassifierParams(p=2.0)
        assert params.resolved_alpha_max() >= 1
        assert params.truncation_tail() <= params.tail_eps

    def test_unit_partition(self):
        cells = unit_partition(8.0)
        assert len(cells) == 8
        assert cells[0] == (0.0, 1.0)
        assert cells[-1] == (7.0, 8.0)

    def test_unit_partition_needs_integer_period(self):
        with pytest.raises(InvalidWindowError):
            unit_partition(7.5)


class TestClassifier:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_mass_budget(self, p, seed):
        f = make_poly(seed=seed)
        params = ClassifierParams(p=p)
        labels = classify_intervals(f, B4, params)
        good_fraction = good_mass_check(f, labels)
        budget = 1.0 / (params.bad_threshold ** p - 1.0)
        assert 1.0 - good_fraction <= budget + 1e-4
        assert good_fraction >= 0.5 - 1e-4

    def test_band_too_small_rejected(self):
        f = make_poly()
        with pytest.raises(InvalidBandError):
            classify_intervals(f, f.max_frequency, ClassifierParams(p=2.0))

    def test_zero_function_rejected(self):
        f = TrigPoly.from_terms(L, [(0, 0.0)])
        with pytest.raises(ZeroFunctionError):
            classify_intervals(f, 1.0, ClassifierParams(p=2.0))

    def test_labels_cover_partition(self):
        f = make_poly(seed=7)
        labels = classify_intervals(f, B4, ClassifierParams(p=2.0))
        assert len(labels.intervals) == 8
        assert len(labels.good_intervals) + len(labels.bad_intervals) == 8

    def test_constant_function_all_good(self):
        # a constant has zero derivatives: every interval is good
        f = TrigPoly.from_terms(L, [(0, 2.0)])
        labels = classify_intervals(f, 1.0, ClassifierParams(p=2.0))
        assert all(labels.good.tolist())


class TestLocalEstimate:
    def test_superset_always_holds(self):
        # E containing the interval makes lhs = int_I |f|^p >= rhs trivially
        f = make_poly(seed=3)
        E = IntervalSet(((0.0, 8.0),))
        check = local_estimate_check(f, E, (2.0, 3.0), 2.0)
        assert check.holds
        assert math.isclose(check.local_density, 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("gamma", [0.2, 0.6])
    def test_good_intervals_pass(self, gamma):
        f = make_poly(seed=11)
        labels = classify_intervals(f, B4, ClassifierParams(p=2.0))
        E = two_sliver_set(gamma)
        for iv in labels.good_intervals:
            check = local_estimate_check(f, E, iv, 2.0)
            assert check.holds

    def test_sup_exponent_rejected(self):
        f = make_poly()
        with pytest.raises(InvalidExponentError):
            local_estimate_check(f, two_sliver_set(0.5), (0.0, 1.0), math.inf)


class TestGrowthEnvelope:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_random_instances_hold(self, p):
        f = make_poly(seed=13)
        for iv in ((0.0, 1.0), (3.0, 4.0)):
            env = growth_envelope(f, iv, 4.5, p)
            assert env.holds
            assert env.ratio > 0

    def test_bound_formula(self):
        f = make_poly(seed=13)
        env = growth_envelope(f, (0.0, 1.0), 2.0, 1.0)
        b_eff = 2.0 * f.max_frequency
        want = 2.0 * math.exp(b_eff * 2.5)
        assert math.isclose(env.bound, want, rel_tol=1e-12)


class TestTaylorSplit:
    def test_identity_and_budget(self):
        b = 2.0 * math.pi
        comps = [make_poly(b=b, seed=21), make_poly(b=b, seed=22)]
        centers = (0.0, 3.0 * b)
        interval = (1.0, 1.5)
        split = taylor_split(comps, centers, interval, 3)
        xs = np.linspace(*interval, 13)
        direct = split.total(xs)
        rebuilt = split.exp_sum(xs) + split.remainder(xs)
        scale = float(np.max(np.abs(direct)))
        assert float(np.max(np.abs(direct - rebuilt))) <= 1e-9 * scale

    def test_remainder_budget(self):
        b = 2.0 * math.pi
        comps = [make_poly(b=b, seed=31), make_poly(b=b, seed=32)]
        centers = (0.0, 3.0 * b)
        interval = (1.0, 1.5)
        for degree in (2, 3, 4):
            split = taylor_split(comps, centers, interval, degree)
            p = 2.0
            from thickset.quadrature import panel_nodes

            xs, ws = panel_nodes(*interval, 0.05)
            lhs = float(ws @ np.abs(split.remainder(xs)) ** p)
            rhs = taylor_remainder_bound(split, p)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_single_component_matches_taylor_series(self):
        # one pure mode: the split's polynomial part is the usual Taylor
        # polynomial of e^{i nu (x - lo)} times the carrier
        f = TrigPoly.from_terms(L, [(2, 1.0)])
        interval = (0.5, 1.0)
        split = taylor_split([f], (0.0,), interval, 4)
        x = 0.75
        nu = 2.0 * math.pi * 2 / L
        u = x - interval[0]
        series = sum((1j * nu * u) ** k / math.factorial(k) for k in range(4))
        want = np.exp(1j * nu * interval[0]) * series
        assert abs(split.exp_sum(x) - want) < 1e-12


class TestBandComponentNorms:
    def test_parseval_split(self):
        b = 2.0 * math.pi
        spec = BandSpec((0.0, 3.0 * b), b)
        f = random_bandlimited(spec, L, seed=41)
        report = band_component_norms(f, spec, 2.0)
        total = lp_norm(f, NormQuery(2.0, full_torus(L)))
        assert math.isclose(sum(v * v for v in report.norms), total * total, rel_tol=1e-9)
        assert report.max_ratio <= 1.0 + 1e-9

    def test_overlapping_bands_rejected(self):
        spec = BandSpec((0.0, 1.0), 4.0)
        f = random_bandlimited(BandSpec((0.0,), 2.0), L, seed=1)
        with pytest.raises(BandOverlapError):
            band_component_norms(f, spec, 2.0)

    def test_stray_frequency_rejected(self):
        spec = BandSpec((0.0,), 2.0)
        f = TrigPoly.from_terms(L, [(0, 1.0), (10, 1.0)])
        with pytest.raises(InvalidBandError):
            band_component_norms(f, spec, 2.0)

    def test_empty_component_allowed(self):
        b = 2.0 * math.pi
        spec = BandSpec((0.0, 4.0 * b), b)
        f = TrigPoly.from_terms(L, [(0, 1.0)])  # all mass in the first band
        report = band_component_norms(f, spec, 2.0)
        assert report.norms[1] == 0.0


class TestExpSumVerifier:
    def test_single_exponential_l2_exact(self):
        # |r| constant: ratio = (|I| / |E|)^(1/2) exactly
        E = IntervalSet(((0.0, 0.4),))
        check = exp_sum_verifier([(3.0, [1.0 + 0.5j])], (0.0, 1.0), E, 2.0)
        assert math.isclose(check.ratio, math.sqrt(1.0 / 0.4), rel_tol=1e-10)
        assert check.holds

    def test_single_exponential_sup_is_one(self):
        E = IntervalSet(((0.0, 0.4),))
        check = exp_sum_verifier([(3.0, [2.0])], (0.0, 1.0), E, math.inf)
        assert math.isclose(check.ratio, 1.0, rel_tol=1e-12)
        assert math.isclose(check.bound, 1.0, rel_tol=1e-12)
        assert check.holds

    def test_chebyshev_oracle(self):
        # p = T_3(x / 0.45) with E = [-0.45, 0.45] inside
        # I = [-1, 1]: sup_E = 1 while sup_I = T_3(1/0.45).
        u = 1.0 / 0.45
        coeffs = [0.0, -3.0 * u, 0.0, 4.0 * u ** 3]
        E = IntervalSet(((-0.45, 0.45),))
        check = exp_sum_verifier([(0.0, coeffs)], (-1.0, 1.0), E, math.inf)
        want = 4.0 * u ** 3 - 3.0 * u
        assert math.isclose(check.ratio, want, rel_tol=1e-9)
        assert check.remez_bound is not None
        assert check.ratio <= check.remez_bound
        assert math.isclose(check.remez_bound, (4.0 * 2.0 / 0.9) ** 3, rel_tol=1e-12)

    def test_nazarov_bound_attached_for_pure_exponentials(self):
        E = IntervalSet(((0.0, 0.25),))
        terms = [(1.0, [1.0]), (4.0, [0.5]), (9.0, [1.0j])]
        check = exp_sum_verifier(terms, (0.0, 1.0), E, math.inf)
        assert check.nazarov_bound is not None
        assert check.ratio <= check.nazarov_bound * (1.0 + 1e-9)

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(DuplicateFrequencyError):
            exp_sum_verifier(
                [(1.0, [1.0]), (1.0, [2.0])], (0.0, 1.0), IntervalSet(((0.0, 0.5),)), 2.0
            )

    def test_zero_sum_rejected(self):
        with pytest.raises(ZeroFunctionError):
            exp_sum_verifier([(1.0, [0.0])], (0.0, 1.0), IntervalSet(((0.0, 0.5),)), 2.0)

    def test_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(5)
        E = IntervalSet(((0.1, 0.3), (0.6, 0.7)))
        for n, m in ((1, 2), (2, 1), (2, 2), (3, 3)):
            lams = np.sort(rng.uniform(-20.0, 20.0, size=n))
            terms = [
                (float(lam), rng.standard_normal(m) + 1j * rng.standard_normal(m))
                for lam in lams
            ]
            for p in (2.0, math.inf):
                check = exp_sum_verifier(terms, (0.0, 1.0), E, p)
                assert check.holds


    def test_sup_norms_match_dense_scan(self, monkeypatch):
        rng = np.random.default_rng(12)
        terms = [
            (float(lam), rng.standard_normal(m) + 1j * rng.standard_normal(m))
            for lam, m in ((-17.0, 2), (4.5, 3), (21.0, 1))
        ]
        E = IntervalSet(((0.05, 0.2), (0.45, 0.6), (0.8, 0.95)))
        calls = []
        real_sup_abs = proofcheck.sup_abs

        def counted(*args):
            calls.append(args[1])
            return real_sup_abs(*args)

        monkeypatch.setattr(proofcheck, "sup_abs", counted)
        check = exp_sum_verifier(terms, (0.0, 1.0), E, math.inf)
        # both sups come from one search, the interval first
        assert len(calls) == 1
        assert calls[0] == ((0.0, 1.0),) + E.intervals

        def fn(xs):
            u = xs - 0.5
            return sum(npoly.polyval(u, c) * np.exp(1j * lam * xs) for lam, c in terms)

        def scan(a, b):
            # a 10^5-point scan, then a second one around its argmax whose
            # spacing (~4e-10) leaves it ~1e-16 relative below the peak
            xs = np.linspace(a, b, 100_001)
            k = int(np.argmax(np.abs(fn(xs))))
            h = xs[1] - xs[0]
            fine = np.linspace(max(a, xs[k] - 2 * h), min(b, xs[k] + 2 * h), 100_001)
            return float(np.max(np.abs(fn(fine))))

        assert math.isclose(check.norm_I, scan(0.0, 1.0), rel_tol=1e-12)
        assert math.isclose(
            check.norm_E, max(scan(a, b) for a, b in E.intervals), rel_tol=1e-12
        )


class TestExpSumClosure:
    def test_stacked_horner_matches_per_term_polyval(self):
        rng = np.random.default_rng(3)
        lams = np.array([-7.5, 0.0, 12.25])
        coeff_arrays = [
            rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (1, 3, 2)
        ]
        x0 = 0.3
        xs = np.linspace(-1.0, 2.0, 1001)
        got = proofcheck._expsum_closure(lams, coeff_arrays, x0)(xs)
        want = np.zeros(xs.shape, dtype=np.complex128)
        scale = np.zeros(xs.shape)
        for lam, coeffs in zip(lams.tolist(), coeff_arrays):
            term = npoly.polyval(xs - x0, coeffs)
            want += term * np.exp(1j * lam * xs)
            scale += np.abs(term)
        assert got.shape == xs.shape
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


class TestMinimalTransferConstant:
    def test_recovers_planted_constant(self):
        # ratios = (2.5 s)^1.5 force the smallest grid point >= 2.5,
        # which is 2^(3/2)
        samples = [(s, (2.5 * s) ** 1.5) for s in (2.0, 4.0, 8.0)]
        got = minimal_transfer_constant(samples, 1.5)
        assert got == pytest.approx(2.0 ** 1.5, rel=1e-12)

    def test_unit_constant_for_flat_ratios(self):
        samples = [(s, 1.0) for s in (2.0, 4.0)]
        assert minimal_transfer_constant(samples, 0.0) == 1.0

    def test_none_when_no_grid_point_works(self):
        samples = [(2.0, 1e12)]
        assert minimal_transfer_constant(samples, 1.0) is None
