"""Constructive checks: interval classifier, local estimates, Taylor split,
band component norms, and the exponential-sum transfer verifier."""
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from thickset import (
    BandOverlapError,
    BandSpec,
    BoundConstants,
    ClassifierParams,
    DuplicateFrequencyError,
    EmptySetError,
    InvalidDegreeError,
    IntervalSet,
    InvalidBandError,
    InvalidExponentError,
    InvalidWindowError,
    NormQuery,
    ThicksetError,
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
    taylor_remainder_bound_log10,
    taylor_split,
    two_sliver_set,
    unit_partition,
)
from thickset import proofcheck
from thickset.proofcheck import TAIL_EPS
from thickset.quadrature import RESOLUTION, TAYLOR_ORDER, panel_nodes, panel_width

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
        k = params.resolved_alpha_max()
        assert k >= 1
        ap = params.bad_threshold ** (-params.p)  # tail sum_{alpha > k} A^(-alpha p)
        assert ap ** (k + 1) / (1.0 - ap) <= TAIL_EPS

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
        good_fraction = good_mass_check(labels)
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
        assert len(labels.good_intervals) + int((~labels.good).sum()) == 8

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_labels_of_any_scale(self, c, p):
        # the labels come from f.unit's masses, so c f is labelled as f is; its masses
        # c^p integral_I |f|^p reach 1e-400 or 1e400 at p = 2, where every check that
        # reads them refuses, and at p = 1 the checks give f's verdicts
        f = make_poly(seed=0)
        g = TrigPoly(f.period, f.ms, c * f.coeffs)
        labels = classify_intervals(f, B4, ClassifierParams(p=p))
        scaled = classify_intervals(g, B4, ClassifierParams(p=p))
        assert np.array_equal(scaled.good, labels.good) and scaled.good.all()
        assert np.array_equal(scaled.first_bad_order, labels.first_bad_order)
        E = two_sliver_set(0.3)
        if p == 2.0:
            assert np.all(scaled.mass == (0.0 if c < 1.0 else math.inf))
            for check in (lambda: good_mass_check(scaled), lambda: local_estimate_check(g, E, scaled),
                          lambda: growth_envelope(g, scaled, 4.5)):
                with pytest.raises(ThicksetError, match="past the double range"):
                    check()
            return
        np.testing.assert_allclose(scaled.mass, c * labels.mass, rtol=1e-13)
        assert math.isclose(good_mass_check(scaled), good_mass_check(labels), rel_tol=1e-13)
        for ours, theirs in zip(local_estimate_check(g, E, scaled), local_estimate_check(f, E, labels)):
            assert math.isclose(ours.lhs, c * theirs.lhs, rel_tol=1e-13) and ours.holds == theirs.holds
        for ours, theirs in zip(growth_envelope(g, scaled, 4.5), growth_envelope(f, labels, 4.5)):
            assert math.isclose(ours.ratio, theirs.ratio, rel_tol=1e-13) and ours.holds == theirs.holds

    def test_constant_function_all_good(self):
        # a constant has zero derivatives: every interval is good
        f = TrigPoly.from_terms(L, [(0, 2.0)])
        labels = classify_intervals(f, 1.0, ClassifierParams(p=2.0))
        assert all(labels.good.tolist())


def _dense_classify(f, band_width, params, partition):
    """Reference: per interval, a nodes x modes character matrix and one matvec per order."""
    damping = 1j * f.frequencies / (params.bad_threshold * params.bernstein_constant * band_width)
    width = panel_width(f.max_frequency, RESOLUTION)
    good, mass, first_bad = [], [], []
    for lo, hi in partition:
        xs, ws = panel_nodes([(lo, hi)], width)
        characters = np.exp(1j * np.outer(xs, f.frequencies))
        base_mass = float(ws @ np.abs(characters @ f.coeffs) ** params.p)
        current = f.coeffs.copy()
        order = 0
        for alpha in range(1, params.resolved_alpha_max() + 1):
            current = current * damping
            if float(ws @ np.abs(characters @ current) ** params.p) >= base_mass:
                order = alpha
                break
        good.append(order == 0)
        mass.append(base_mass)
        first_bad.append(order)
    return np.array(good), np.array(mass), np.array(first_bad)


class TestClassifierOracle:
    """The stacked evaluation against the per-interval dense algorithm."""

    def _check(self, f, b, params, partition=None):
        labels = classify_intervals(f, b, params, partition)
        good, mass, first_bad = _dense_classify(f, b, params, labels.intervals)
        assert np.array_equal(labels.good, good)
        assert np.array_equal(labels.first_bad_order, first_bad)
        np.testing.assert_allclose(labels.mass, mass, rtol=1e-12, atol=0.0)
        kept = float(mass[good].sum()) / float(mass.sum())
        assert math.isclose(good_mass_check(labels), kept, rel_tol=1e-12)
        return labels

    # The defaults damp every order by at least 1/(2 A C) = 1/3, so no
    # interval is bad; A = 1.5, C = 0.3 gives good intervals and first bad
    # orders from 1 to about 35 on these instances.
    SHARP = {"bad_threshold": 1.5, "bernstein_constant": 0.3}

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("period", [8.0, 32.0])
    @pytest.mark.parametrize("b", [B4, 4.0 * B4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("constants", [{}, SHARP])
    def test_matches_dense(self, p, period, b, seed, constants):
        f = make_poly(b=b, seed=seed, period=period)
        self._check(f, b, ClassifierParams(p=p, **constants))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("alpha_max", [2, 3])
    def test_explicit_alpha_max(self, p, alpha_max):
        # interval [1, 2] of this instance first fails at order 3
        params = ClassifierParams(p=p, alpha_max=alpha_max, **self.SHARP)
        labels = self._check(make_poly(seed=6), B4, params)
        assert labels.first_bad_order.tolist() == [0, 3 if alpha_max == 3 else 0] + [0] * 6

    def test_empty_partition(self):
        labels = classify_intervals(make_poly(seed=6), B4, ClassifierParams(p=2.0), ())
        assert labels.good.shape == labels.mass.shape == labels.first_bad_order.shape == (0,)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("constants", [{}, SHARP])
    def test_uneven_partition(self, p, constants):
        partition = ((0.0, 0.5), (0.5, 2.0), (2.0, 8.0))
        labels = self._check(make_poly(seed=6), B4, ClassifierParams(p=p, **constants), partition)
        assert labels.intervals == partition

    def test_unit_partition_builds_one_interval(self, monkeypatch):
        # the unit partition of a length-32 torus is 32 translates of [0, 1]:
        # the classifier builds that interval's nodes only, the good-mass
        # check builds none, and the local estimate on a 1-periodic set builds
        # the nodes of its one sliver in [0, 1] only
        from thickset import quadrature

        f = make_poly(seed=4, period=32.0)
        built = []

        def counting(*args, **kwargs):
            xs, ws = panel_nodes(*args, **kwargs)
            built.append(xs.size)
            return xs, ws

        monkeypatch.setattr(quadrature, "panel_nodes", counting)
        labels = classify_intervals(f, B4, ClassifierParams(p=1.0))
        good_mass_check(labels)
        width = panel_width(f.max_frequency, 8)
        one = panel_nodes([(0.0, 1.0)], width)[0].size
        assert built == [one]
        local_estimate_check(f, two_sliver_set(0.3), labels)
        assert built == [one, panel_nodes([(0.35, 0.65)], width)[0].size]

    def test_wide_band_memory(self):
        # the dense route builds a 2048 x 1025 character matrix (about 34 MB)
        # per interval here, a 100 MB peak; chunked, the peak is about 3 MB
        import tracemalloc

        b = 16.0 * B4
        f = make_poly(b=b, seed=2, period=32.0)
        tracemalloc.start()
        try:
            labels = classify_intervals(f, b, ClassifierParams(p=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(labels.intervals) == 32
        assert peak < 8e6


def _dense_mass(f, pieces, p):
    """Reference: integral of |f|^p over the pieces, one dense character matrix at resolution 8."""
    xs, ws = panel_nodes(pieces, panel_width(f.max_frequency, 8))
    return float(ws @ np.abs(np.exp(1j * np.outer(xs, f.frequencies)) @ f.coeffs) ** p)


UNEVEN = ((0.0, 0.5), (0.5, 2.0), (2.0, 3.0), (3.0, 8.0))


def _some_bad(labels):
    """The labels with every third interval marked bad: the checks must skip those."""
    good = labels.good & (np.arange(len(labels.intervals)) % 3 != 0)
    assert 0 < good.sum() < good.size
    return replace(labels, good=good)


class TestLocalEstimate:
    def test_superset_always_holds(self):
        # E containing every interval makes lhs = int_I |f|^p >= rhs trivially
        f = make_poly(seed=3)
        labels = classify_intervals(f, B4, ClassifierParams(p=2.0))
        checks = local_estimate_check(f, IntervalSet(((0.0, 8.0),)), labels)
        assert len(checks) == len(labels.good_intervals) > 0
        for check in checks:
            assert check.holds
            assert math.isclose(check.local_density, 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("gamma", [0.2, 0.6])
    def test_good_intervals_pass(self, gamma):
        f = make_poly(seed=11)
        labels = classify_intervals(f, B4, ClassifierParams(p=2.0))
        checks = local_estimate_check(f, two_sliver_set(gamma), labels)
        assert len(checks) == len(labels.good_intervals) > 0
        assert all(check.holds for check in checks)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("partition", [None, UNEVEN])
    def test_matches_per_interval(self, p, partition):
        f = make_poly(seed=5)
        labels = _some_bad(classify_intervals(f, B4, ClassifierParams(p=p), partition))
        E = two_sliver_set(0.3)
        checks = local_estimate_check(f, E, labels)
        assert len(checks) == len(labels.good_intervals)
        c = proofcheck.DEFAULT_CONSTANTS.c_one
        for (lo, hi), check in zip(labels.good_intervals, checks):
            pieces = E.materialize(lo, hi)
            density = sum(b - a for a, b in pieces) / (hi - lo)
            log_factor = (c * 2.0 * f.max_frequency * p + 2.0) * math.log(density / c)
            assert math.isclose(check.lhs, _dense_mass(f, pieces, p), rel_tol=1e-13)
            assert math.isclose(check.local_density, density, rel_tol=1e-13)
            assert math.isclose(check.log10_factor, log_factor / math.log(10.0), rel_tol=1e-13)

    def test_can_fail(self):
        # with C = 2 the factor is about e^-36, well inside double range: the
        # true masses pass, and masses inflated by 1e300 put every rhs above lhs
        f = make_poly(seed=3)
        labels = classify_intervals(f, B4, ClassifierParams(p=2.0))
        constants = BoundConstants(c_one=2.0)
        E = two_sliver_set(0.7)
        assert all(check.holds for check in local_estimate_check(f, E, labels, constants))
        inflated = replace(labels, mass=labels.mass * 1e300)
        checks = local_estimate_check(f, E, inflated, constants)
        assert checks and not any(check.holds for check in checks)
        assert all(check.rhs > check.lhs for check in checks)

    def test_decided_below_double_range(self):
        # the default factor is about 10^-19850: rhs underflows to 0, the
        # verdict still compares logs, and inflated masses cannot flip it
        f = make_poly(seed=3)
        labels = classify_intervals(f, B4, ClassifierParams(p=2.0))
        inflated = replace(labels, mass=labels.mass * 1e300)
        for check in local_estimate_check(f, two_sliver_set(0.7), inflated):
            assert check.rhs == 0.0 and check.log10_factor < -19000
            assert check.holds

    def test_missed_good_interval_rejected(self):
        f = make_poly(seed=3)
        labels = classify_intervals(f, B4, ClassifierParams(p=2.0))
        with pytest.raises(EmptySetError):
            local_estimate_check(f, IntervalSet(((7.5, 8.0),)), labels)


class TestGrowthEnvelope:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_random_instances_hold(self, p):
        f = make_poly(seed=13)
        labels = classify_intervals(f, B4, ClassifierParams(p=p))
        envelopes = growth_envelope(f, labels, 4.5)
        assert len(envelopes) == len(labels.good_intervals) > 0
        for env in envelopes:
            assert env.holds
            assert env.ratio > 0

    def test_bound_formula(self):
        f = make_poly(seed=13)
        labels = classify_intervals(f, B4, ClassifierParams(p=1.0))
        b_eff = 2.0 * f.max_frequency
        want = 2.0 * math.exp(b_eff * 2.5)
        for env in growth_envelope(f, labels, 2.0):
            assert math.isclose(env.bound, want, rel_tol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("partition", [None, UNEVEN])
    def test_matches_per_interval(self, p, partition):
        from thickset.quadrature import sup_abs

        f = make_poly(seed=5)
        labels = _some_bad(classify_intervals(f, B4, ClassifierParams(p=p), partition))
        envelopes = growth_envelope(f, labels, 4.5)
        assert len(envelopes) == len(labels.good_intervals)
        columns = f.coeffs[:, None] * (1j * f.frequencies[:, None]) ** np.arange(3)
        sample = lambda x: (np.exp(1j * np.outer(x, f.frequencies)) @ columns).T[:1]
        expand = lambda x: f.eval(x, derivatives=TAYLOR_ORDER)
        n = int(math.ceil(9.0 / panel_width(f.max_frequency, 8))) + 1
        for (lo, hi), env in zip(labels.good_intervals, envelopes):
            center = 0.5 * (lo + hi)
            peak = sup_abs(sample, expand, ((center - 4.5, center + 4.5),), [(n,)])[0, 0]
            want = peak / _dense_mass(f, ((lo, hi),), p) ** (1.0 / p)
            assert math.isclose(env.ratio, want, rel_tol=1e-13)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_can_fail(self, p):
        # masses shrunk by 1e-300 raise every ratio by 1e300^(1/p), far above
        # the envelope 2^(1/p) e^(5 b)
        f = make_poly(seed=13)
        labels = classify_intervals(f, B4, ClassifierParams(p=p))
        assert all(env.holds for env in growth_envelope(f, labels, 4.5))
        envelopes = growth_envelope(f, replace(labels, mass=labels.mass * 1e-300), 4.5)
        assert envelopes and not any(env.holds for env in envelopes)
        assert all(env.ratio > env.bound for env in envelopes)


    def test_wide_band_memory(self):
        # one product over all 32 windows' grids peaks at about 76 MB here;
        # one window's grid per product peaks near 3 MB
        import tracemalloc

        b = 4.0 * B4
        f = make_poly(b=b, seed=2, period=32.0)
        labels = classify_intervals(f, b, ClassifierParams(p=2.0))
        tracemalloc.start()
        try:
            envelopes = growth_envelope(f, labels, 4.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(envelopes) == 32
        assert peak < 8e6


class TestOneCallPerClassification:
    def test_calls(self, monkeypatch):
        # one piece_masses call for the local estimate, one sup_abs call and
        # no lp_norm call for the growth envelope, nothing for the mass check
        calls = {"piece_masses": 0, "sup_abs": 0, "lp_norm": 0}

        def counted(name):
            inner = getattr(proofcheck, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(proofcheck, name, wrapper)

        f = make_poly(seed=13)
        labels = classify_intervals(f, B4, ClassifierParams(p=2.0))
        assert len(labels.good_intervals) > 1
        for name in calls:
            counted(name)
        good_mass_check(labels)
        assert calls == {"piece_masses": 0, "sup_abs": 0, "lp_norm": 0}
        local_estimate_check(f, two_sliver_set(0.3), labels)
        assert calls == {"piece_masses": 1, "sup_abs": 0, "lp_norm": 0}
        growth_envelope(f, labels, 4.5)
        assert calls == {"piece_masses": 1, "sup_abs": 1, "lp_norm": 0}


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
            xs, ws = panel_nodes([interval], 0.05)
            lhs = float(ws @ np.abs(split.remainder(xs)) ** p)
            rhs = taylor_remainder_bound(split, p)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_budget_past_the_double_range(self):
        # ||f_k^(98)|| reaches ~1e196 at b = 64 pi, so its square overflows a
        # double (the budget raised OverflowError); summed in logs it is finite
        b, m, interval = 64.0 * math.pi, 98, (1.0, 1.5)
        comps = [make_poly(b=b, seed=41), make_poly(b=b, seed=42)]
        split = taylor_split(comps, (0.0, 3.0 * b), interval, m)
        window = IntervalSet((interval,))
        norms = [lp_norm(g, NormQuery(2.0, window)) for g in split.mth_derivatives]
        with pytest.raises(OverflowError):
            max(norms) ** 2.0
        with mpmath.workdps(40):
            a = mpmath.mpf(interval[1] - interval[0])
            want = 2 * a ** (2 * m) / mpmath.factorial(m) ** 2 * sum(mpmath.mpf(v) ** 2 for v in norms)
            want_log10 = float(mpmath.log10(want))
        assert taylor_remainder_bound_log10(split, 2.0) == pytest.approx(want_log10, abs=1e-12)
        assert taylor_remainder_bound(split, 2.0) == pytest.approx(float(want), rel=1e-11)

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
        assert report.total == total
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
        # |r| constant: ratio = (|I| / |E|)^(1/2) exactly, whatever the pieces
        sets = (
            IntervalSet(((0.0, 0.4),)),
            IntervalSet(((0.1, 0.2), (0.5, 0.8))),
            IntervalSet(((0.0, 0.05), (0.3, 0.35), (0.9, 1.0))),
        )
        (checks,) = exp_sum_verifier([[(3.0, [1.0 + 0.5j])]], (0.0, 1.0), sets, 2.0)
        for meas, check in zip((0.4, 0.4, 0.2), checks):
            assert math.isclose(check.ratio, math.sqrt(1.0 / meas), rel_tol=1e-10)
            assert check.holds

    def test_single_exponential_sup_is_one(self):
        E = IntervalSet(((0.0, 0.4),))
        ((check,),) = exp_sum_verifier([[(3.0, [2.0])]], (0.0, 1.0), (E,), math.inf)
        assert math.isclose(check.ratio, 1.0, rel_tol=1e-12)
        assert math.isclose(check.bound, 1.0, rel_tol=1e-12)
        assert check.holds

    def test_chebyshev_oracle(self):
        # p = T_3(x / 0.45) with E = [-0.45, 0.45] inside
        # I = [-1, 1]: sup_E = 1 while sup_I = T_3(1/0.45).
        u = 1.0 / 0.45
        coeffs = [0.0, -3.0 * u, 0.0, 4.0 * u ** 3]
        E = IntervalSet(((-0.45, 0.45),))
        ((check,),) = exp_sum_verifier([[(0.0, coeffs)]], (-1.0, 1.0), (E,), math.inf)
        want = 4.0 * u ** 3 - 3.0 * u
        assert math.isclose(check.ratio, want, rel_tol=1e-9)
        assert check.remez_bound is not None
        assert check.ratio <= check.remez_bound
        assert math.isclose(check.remez_bound, (4.0 * 2.0 / 0.9) ** 3, rel_tol=1e-12)

    def test_nazarov_bound_attached_for_pure_exponentials(self):
        E = IntervalSet(((0.0, 0.25),))
        terms = [(1.0, [1.0]), (4.0, [0.5]), (9.0, [1.0j])]
        ((check,),) = exp_sum_verifier([terms], (0.0, 1.0), (E,), math.inf)
        assert check.nazarov_bound is not None
        assert check.ratio <= check.nazarov_bound * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([(1.0, [1.0]), (1.0, [2.0])], DuplicateFrequencyError),
            ([(1.0, [0.0]), (2.0, [0.0, 0.0])], ZeroFunctionError),
            ([(1.0, [1.0]), (2.0, [])], InvalidDegreeError),
            ([], ZeroFunctionError),  # no term at all: the zero sum
        ],
    )
    def test_bad_instance_rejected_by_index(self, bad, error):
        good = [(3.0, [1.0])]
        for instances, index in (([bad], 0), ([good, good, bad], 2)):
            with pytest.raises(error, match=f"^instance {index}: "):
                exp_sum_verifier(instances, (0.0, 1.0), (IntervalSet(((0.0, 0.5),)),), 2.0)

    def test_empty_instance_list_rejected(self):
        with pytest.raises(ValueError, match="at least one instance"):
            exp_sum_verifier([], (0.0, 1.0), (IntervalSet(((0.0, 0.5),)),), 2.0)

    def test_empty_set_list_rejected(self):
        with pytest.raises(ValueError, match="at least one set"):
            exp_sum_verifier([[(1.0, [1.0])]], (0.0, 1.0), (), 2.0)

    def test_set_missing_the_interval_rejected(self):
        sets = (IntervalSet(((0.0, 0.5),)), IntervalSet(((2.0, 3.0),)))
        with pytest.raises(EmptySetError):
            exp_sum_verifier([[(1.0, [1.0])]], (0.0, 1.0), sets, 2.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("pure_poly", [False, True])
    def test_sets_match_one_set_at_a_time(self, p, pure_poly):
        # piece counts 2, 1, 3 and 1, so a slice off by one piece reads a
        # neighbouring set's value
        sets = (
            IntervalSet(((0.1, 0.3), (0.6, 0.7))),
            IntervalSet(((0.0, 0.5),)),
            IntervalSet(((0.05, 0.15), (0.4, 0.45), (0.8, 0.98))),
            IntervalSet(((0.55, 0.9),)),
        )
        rng = np.random.default_rng(21)
        if pure_poly:
            terms = [(0.0, rng.standard_normal(4) + 1j * rng.standard_normal(4))]
        else:
            terms = [
                (lam, rng.standard_normal(m) + 1j * rng.standard_normal(m))
                for lam, m in ((-13.0, 2), (2.5, 3), (18.0, 1))
            ]
        (together,) = exp_sum_verifier([terms], (0.0, 1.0), sets, p)
        assert len(together) == len(sets)
        # a set's cells depend on the other sets' endpoints, so the norms agree
        # to quadrature accuracy
        for E, got in zip(sets, together):
            ((want,),) = exp_sum_verifier([terms], (0.0, 1.0), (E,), p)
            for name in ("norm_I", "norm_E", "ratio"):
                assert math.isclose(getattr(got, name), getattr(want, name), rel_tol=1e-13)
            got = replace(got, norm_I=want.norm_I, norm_E=want.norm_E, ratio=want.ratio)
            assert got == want
        # the sets differ, so a swapped or shifted slice cannot pass
        assert len({c.norm_E for c in together}) == len(sets)

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
                ((check,),) = exp_sum_verifier([terms], (0.0, 1.0), (E,), p)
                assert check.holds

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_instances_match_one_instance_at_a_time(self, p):
        # n, m and max |lam| differ, so do the panel widths and grid counts;
        # the pure polynomial keeps its Remez bound
        rng = np.random.default_rng(34)
        shapes = (
            ((-13.0, 2), (2.5, 3), (18.0, 1)),
            ((0.0, 4),),
            ((4.0, 1), (-40.0, 1)),
            ((7.5, 2),),
        )
        instances = [
            [(lam, rng.standard_normal(m) + 1j * rng.standard_normal(m)) for lam, m in shape]
            for shape in shapes
        ]
        widths = {panel_width(max(abs(lam) for lam, _ in shape), RESOLUTION) for shape in shapes}
        assert len(widths) == len(shapes)
        sets = (
            IntervalSet(((0.1, 0.3), (0.6, 0.7))),
            IntervalSet(((0.0, 0.5),)),
            IntervalSet(((0.05, 0.15), (0.4, 0.45), (0.8, 0.98))),
        )
        together = exp_sum_verifier(instances, (0.0, 1.0), sets, p)
        assert len(together) == len(instances)
        for terms, got in zip(instances, together):
            (want,) = exp_sum_verifier([terms], (0.0, 1.0), sets, p)
            assert repr(got) == repr(want)  # repr round-trips every float bit
        assert all(c.remez_bound is not None for c in together[1]) == math.isinf(p)
        assert all(c.remez_bound is None for i in (0, 2, 3) for c in together[i])
        # the instances differ, so a swapped or shifted slice cannot pass
        assert len({checks[0].norm_I for checks in together}) == len(instances)


    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_set_order_and_repeats_keep_bits(self, p):
        # the cells are cut at the union of the endpoints, which neither a
        # permutation nor a repeated set changes
        rng = np.random.default_rng(40)
        instances = [
            [(lam, rng.standard_normal(m) + 1j * rng.standard_normal(m)) for lam, m in shape]
            for shape in (((-9.0, 2), (3.5, 1)), ((0.0, 3),), ((14.0, 2),))
        ]
        sets = [
            IntervalSet(((0.1, 0.3), (0.6, 0.7))),
            IntervalSet(((0.0, 0.5),)),
            IntervalSet(((0.05, 0.15), (0.4, 0.45), (0.8, 0.98))),
        ]
        base = exp_sum_verifier(instances, (0.0, 1.0), sets, p)
        for order in ((2, 0, 1), (1, 1, 0, 2, 0)):
            got = exp_sum_verifier(instances, (0.0, 1.0), [sets[s] for s in order], p)
            for want_row, got_row in zip(base, got):
                assert repr(got_row) == repr(tuple(want_row[s] for s in order))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_tiny_coefficients_do_not_underflow(self, p):
        # |r|^2 = 1e-400 underflows; the ratio does not see the scale
        E = (IntervalSet(((0.0, 0.5),)),)
        ((tiny,),) = exp_sum_verifier([[(3.0, [1e-200])]], (0.0, 1.0), E, p)
        ((unit,),) = exp_sum_verifier([[(3.0, [1.0])]], (0.0, 1.0), E, p)
        assert math.isclose(tiny.ratio, unit.ratio, rel_tol=1e-15)
        assert math.isclose(tiny.norm_I, 1e-200 * unit.norm_I, rel_tol=1e-15)
        assert math.isclose(tiny.norm_E, 1e-200 * unit.norm_E, rel_tol=1e-15)
        assert tiny.holds

    @pytest.mark.parametrize("pure_poly", [False, True])
    def test_sup_norms_match_dense_scan(self, monkeypatch, pure_poly):
        rng = np.random.default_rng(12)
        # a pure polynomial takes the same search as every other sum
        shape = ((0.0, 4),) if pure_poly else ((-17.0, 2), (4.5, 3), (21.0, 1))
        terms = [
            (float(lam), rng.standard_normal(m) + 1j * rng.standard_normal(m))
            for lam, m in shape
        ]
        E = IntervalSet(((0.05, 0.2), (0.45, 0.6), (0.8, 0.95)))
        calls = []
        real_sup_abs = proofcheck.sup_abs

        def counted(*args):
            calls.append(args[2])
            return real_sup_abs(*args)

        monkeypatch.setattr(proofcheck, "sup_abs", counted)
        ((check,),) = exp_sum_verifier([terms], (0.0, 1.0), (E,), math.inf)
        # both sups come from one search over the cells that E's endpoints cut I into
        assert len(calls) == 1
        ends = (0.0, 0.05, 0.2, 0.45, 0.6, 0.8, 0.95, 1.0)
        assert calls[0] == tuple(zip(ends[:-1], ends[1:]))

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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_norms_near_a_zero_match_a_dense_rule(self, monkeypatch, p):
        # |r| = |1 + 0.999 e^(i 20 x)| dips to 1e-3 at x = (2j + 1) pi / 20, so
        # |r|^p bends sharply there unless p is even; 2^14 panels resolve it
        E = IntervalSet(((0.1, 0.3), (0.6, 0.7)))
        calls = []

        def counted(name):
            real = getattr(proofcheck, name)
            monkeypatch.setattr(proofcheck, name, lambda *args: calls.append(name) or real(*args))

        counted("piece_integrals")
        counted("kinked_integrals")
        ((check,),) = exp_sum_verifier([[(0.0, [1.0]), (20.0, [0.999])]], (0.0, 1.0), (E,), p)
        # one call over the cells: the fixed rule at even p, the kink-aware one otherwise
        assert calls == ["piece_integrals" if p == 2.0 else "kinked_integrals"]
        nodes, weights = np.polynomial.legendre.leggauss(16)

        def dense(a, b):
            edges = np.linspace(a, b, 2**14 + 1)
            half = (edges[1:] - edges[:-1])[:, None] / 2
            xs = (edges[:-1, None] + half) + half * nodes
            return float(np.sum(half * weights * np.abs(1 + 0.999 * np.exp(20j * xs)) ** p))

        assert math.isclose(check.norm_I, dense(0.0, 1.0) ** (1 / p), rel_tol=1e-13)
        want_E = (dense(0.1, 0.3) + dense(0.6, 0.7)) ** (1 / p)
        assert math.isclose(check.norm_E, want_E, rel_tol=1e-13)

    @pytest.mark.parametrize("lam", [7.0, 20.0, 31.4, math.pi / 0.7001])
    def test_l1_norms_at_zeros_match_closed_form(self, lam):
        # r = 1 + e^(i lam x) vanishes at x = (2j + 1) pi / lam, where |r| has a
        # kink, and int_0^x |r| = (4 / lam) int_0^(lam x / 2) |cos|.  At lam = 31.4
        # the zero near 0.1 lies 5e-5 past an inner panel edge of the cell [0, 0.2];
        # at pi / 0.7001, 1e-4 past 0.7, the middle of the cell [0.5, 0.9]
        def exact(x):
            q, v = divmod(lam * x / 2, math.pi)
            return 4 / lam * (2 * q + (math.sin(v) if v <= math.pi / 2 else 2 - math.sin(v)))

        sets = (IntervalSet(((0.0, 0.5),)), IntervalSet(((0.2, 0.9),)))
        instance = [(0.0, [1.0]), (lam, [1.0])]
        ((first, second),) = exp_sum_verifier([instance], (0.0, 1.0), sets, 1.0)
        assert math.isclose(first.norm_I, exact(1.0), rel_tol=1e-13)
        assert math.isclose(first.norm_E, exact(0.5), rel_tol=1e-13)
        assert math.isclose(second.norm_E, exact(0.9) - exact(0.2), rel_tol=1e-13)


class TestExpSumClosure:
    def test_stacked_horner_matches_per_term_polyval(self):
        rng = np.random.default_rng(3)
        lams = np.array([-7.5, 0.0, 12.25])
        coeff_arrays = [
            rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (1, 3, 2)
        ]
        x0 = 0.3
        xs = np.linspace(-1.0, 2.0, 1001)
        rows = TAYLOR_ORDER + 1
        table = proofcheck._expsum_table(lams, coeff_arrays, rows)
        got = proofcheck._expsum_closure(lams[None], table[:, None], x0)(xs[None])[:, 0]
        want = np.zeros((rows,) + xs.shape, dtype=np.complex128)
        scale = np.zeros((rows,) + xs.shape)
        for lam, coeffs in zip(lams.tolist(), coeff_arrays):
            # (p e^(i lam x))^(r) = sum_j C(r, j) (i lam)^(r - j) p^(j) e^(i lam x)
            derivs = [npoly.polyval(xs - x0, npoly.polyder(coeffs, j)) for j in range(rows)]
            for r in range(rows):
                for j in range(r + 1):
                    term = math.comb(r, j) * (1j * lam) ** (r - j) * derivs[j]
                    want[r] += term * np.exp(1j * lam * xs)
                    scale[r] += np.abs(term)
        assert got.shape == (rows,) + xs.shape
        assert np.all(np.abs(got[0] - want[0]) <= 1e-15 * scale[0])
        assert np.all(np.abs(got[1:] - want[1:]) <= 1e-14 * scale[1:])
        # a one-row table evaluates f with the bits of the value row
        value = proofcheck._expsum_closure(lams[None], table[:1, None], x0)(xs[None])
        assert value.shape == (1, 1) + xs.shape and value[0, 0].tobytes() == got[0].tobytes()

    def test_value_does_not_depend_on_other_points(self):
        # five terms: numpy's own sum over them regroups when one point is
        # evaluated alone; a batched sup search needs each value's bits fixed
        rng = np.random.default_rng(13)
        lams = np.array([-21.0, -4.5, 0.0, 9.0, 17.5])
        coeff_arrays = [
            rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (2, 1, 3, 2, 1)
        ]
        table = proofcheck._expsum_table(lams, coeff_arrays, 3)
        evaluate = proofcheck._expsum_closure(lams[None], table[:, None], 0.5)
        xs = rng.uniform(0.0, 1.0, 24)
        full = evaluate(xs[None])[:, 0]
        for i, x in enumerate(xs):
            assert evaluate(xs[None, i : i + 1])[:, 0, 0].tobytes() == full[:, i].tobytes()
        # two functions, one row of points each
        both = proofcheck._expsum_closure(
            np.stack([lams, lams[::-1]]), np.stack([table, table[:, ::-1]], axis=1), 0.5
        )
        rows = both(np.stack([xs, xs[::-1]]))
        assert rows.shape == (3, 2, xs.size)
        assert rows[:, 0].tobytes() == full.tobytes()

    def test_value_row_keeps_taylor_exp_sum(self):
        # the value row is what TaylorSplit.exp_sum returns, bit for bit
        rng = np.random.default_rng(8)
        lams = np.array([-3.0, 5.5])
        coeff_arrays = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (4, 2)]
        xs = np.linspace(0.0, 1.0, 257)
        table = proofcheck._expsum_table(lams, coeff_arrays, 1)
        rows = proofcheck._expsum_closure(lams[None], table[:, None], 0.0)(xs[None])[:, 0]
        table = np.zeros((2, 4), np.complex128)
        table[0], table[1, :2] = coeff_arrays
        acc = table[:, -1:]
        for j in range(2, -1, -1):
            acc = acc * xs + table[:, j : j + 1]
        want = (acc * np.exp(1j * (lams[:, None] * xs))).sum(axis=0)
        assert rows[0].tobytes() == want.tobytes()


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
