"""Interval sets, measure bookkeeping, and thickness certificates."""
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from thickset import (
    IntervalSet,
    ThicksetError,
    measure_within,
    normalize,
    thickness,
    two_sliver_set,
)
from thickset.sets import period_ratio


class TestIntervalSet:
    def test_measure_of_disjoint_union(self):
        E = IntervalSet(((0.0, 0.1), (0.5, 0.8)))
        assert math.isclose(E.measure, 0.4, rel_tol=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ThicksetError, match="an interval set needs at least one interval"):
            IntervalSet(())

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ThicksetError, match=r"invalid interval \(0.3, 0.1\)"):
            IntervalSet(((0.3, 0.1),))

    def test_rejects_overlap(self):
        with pytest.raises(ThicksetError, match="intervals overlap"):
            IntervalSet(((0.0, 0.5), (0.4, 0.9)))

    def test_periodic_cell_must_fit(self):
        with pytest.raises(ThicksetError, match=r"periodic cell must lie in \[0, period\]"):
            IntervalSet(((0.0, 1.5),), period=1.0)

    def test_normalize_merges_touching(self):
        E = normalize([(0.0, 0.5), (0.5, 1.0)])
        assert E.intervals == ((0.0, 1.0),)

    def test_normalize_sorts(self):
        E = normalize([(0.6, 0.9), (0.0, 0.2)])
        assert E.intervals == ((0.0, 0.2), (0.6, 0.9))

    def test_materialize_unrolls_period(self):
        E = IntervalSet(((0.25, 0.5),), period=1.0)
        pieces = E.materialize(0.0, 3.0)
        assert len(pieces) == 3
        assert math.isclose(sum(hi - lo for lo, hi in pieces), 0.75, rel_tol=1e-12)

    def test_materialize_joins_across_boundary(self):
        E = IntervalSet(((0.0, 0.1), (0.9, 1.0)), period=1.0)
        pieces = E.materialize(0.0, 2.0)
        total = sum(hi - lo for lo, hi in pieces)
        assert math.isclose(total, 0.4, rel_tol=1e-12)
        # the sliver straddling x = 1 comes out as one piece
        assert any(lo < 1.0 < hi for lo, hi in pieces)


class TestMeasureWithin:
    def test_aperiodic_window(self):
        E = IntervalSet(((0.0, 0.1), (0.5, 0.8)))
        assert math.isclose(measure_within(E, (0.05, 0.6)), 0.15, rel_tol=1e-12)

    def test_periodic_window_longer_than_period(self):
        E = two_sliver_set(0.2)
        assert math.isclose(measure_within(E, (0.0, 2.0)), 0.4, rel_tol=1e-12)


class TestPeriodRatio:
    def test_copies_of_the_cell(self):
        assert period_ratio(two_sliver_set(0.2), 32.0) == 32
        assert period_ratio(IntervalSet(((0.0, 1.0),), period=2.5), 7.5) == 3

    def test_aperiodic_set_is_one(self):
        assert period_ratio(IntervalSet(((0.0, 1.0),)), 8.0) == 1

    @pytest.mark.parametrize("period", [3.5, 0.5])
    def test_period_must_divide(self, period):
        with pytest.raises(ValueError, match="set period must divide"):
            period_ratio(IntervalSet(((0.0, 0.5),), period=1.0), period)


class TestThickness:
    def test_two_sliver_oracle(self):
        # breakpoint sweep: every unit window of the 0.2-density
        # periodic sliver set holds exactly measure 0.2.
        cert = thickness(two_sliver_set(0.2), 1.0)
        assert math.isclose(cert.gamma, 0.2, rel_tol=1e-9)

    def test_spec_cell_layout_same_thickness(self):
        # same density with the slivers parked at the cell ends instead
        E = normalize([(0.0, 0.1), (0.9, 1.0)], period=1.0)
        cert = thickness(E, 1.0)
        assert math.isclose(cert.gamma, 0.2, rel_tol=1e-9)

    def test_half_density(self):
        cert = thickness(two_sliver_set(0.5), 1.0)
        assert math.isclose(cert.gamma, 0.5, rel_tol=1e-9)

    def test_full_density(self):
        cert = thickness(two_sliver_set(1.0), 1.0)
        assert math.isclose(cert.gamma, 1.0, rel_tol=1e-12)

    def test_short_window_in_gap(self):
        # a window of length 0.5 fits inside the gap between slivers
        cert = thickness(two_sliver_set(0.2), 0.5)
        assert cert.gamma == 0.0

    def test_grid_indicator_oracle(self):
        # dense-sweep oracle: minimum over 10^5 window positions
        # agrees with the breakpoint sweep.
        E = normalize([(0.05, 0.15), (0.4, 0.45), (0.7, 0.95)], period=1.0)
        a = 0.3
        cert = thickness(E, a)
        lo = math.inf
        for i in range(100_000):
            t = i / 100_000
            lo = min(lo, measure_within(E, (t, t + a)) / a)
        assert cert.gamma <= lo + 1e-9
        assert cert.gamma >= lo - 1e-4

    def test_aperiodic_needs_domain(self):
        E = IntervalSet(((0.0, 0.5),))
        with pytest.raises(ThicksetError, match="aperiodic thickness needs a compact domain"):
            thickness(E, 0.25)

    def test_aperiodic_with_domain(self):
        E = IntervalSet(((0.0, 0.5),))
        cert = thickness(E, 0.25, domain=(0.0, 1.0))
        assert cert.gamma == 0.0  # windows inside (0.5, 1.0) see nothing

    def test_invalid_gamma_rejected(self):
        for bad in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ThicksetError, match=r"gamma must be in \(0, 1\]"):
                two_sliver_set(bad)


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(min_value=0.01, max_value=1.0),
    factor=st.floats(min_value=0.1, max_value=10.0),
)
def test_scaling_preserves_relative_density(gamma, factor):
    E = two_sliver_set(gamma)
    cert = thickness(E, 1.0)
    dilated = IntervalSet(tuple((lo * factor, hi * factor) for lo, hi in E.intervals), E.period * factor)
    scaled = thickness(dilated, factor)
    assert math.isclose(cert.gamma, scaled.gamma, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(min_value=0.01, max_value=0.99))
def test_density_lower_bounds_window_measure(gamma):
    E = two_sliver_set(gamma)
    cert = thickness(E, 1.0)
    for t in (0.0, 0.13, 0.5, 0.77):
        assert measure_within(E, (t, t + 1.0)) >= cert.gamma - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.9),
            st.floats(min_value=0.001, max_value=0.1),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_normalize_measure_never_exceeds_raw_total(raw):
    intervals = [(lo, lo + w) for lo, w in raw]
    E = normalize(intervals)
    raw_total = sum(w for _, w in raw)
    assert E.measure <= raw_total + 1e-12
    assert E.measure > 0


def scan_oracle(E, a, domain=None):
    """gamma by the O(K^2) scan: every breakpoint window is materialized and summed."""
    if E.period is not None:
        L = E.period
        ts = {0.0} | {t % L for iv in E.intervals for e in iv for t in (e, e - a)}
    else:
        d_lo, t_hi = domain[0], domain[1] - a
        ts = {d_lo, t_hi} | {
            t for iv in E.intervals for e in iv for t in (e, e - a) if d_lo <= t <= t_hi
        }
    worst = min(sum(hi - lo for lo, hi in E.materialize(t, t + a)) for t in ts)
    return min(max(worst / a, 0.0), 1.0)


@st.composite
def random_sets(draw):
    """(set, window length, domain): K <= 40 intervals, periodic or aperiodic."""
    scale = draw(st.floats(min_value=0.25, max_value=4.0))
    ends = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=80))
    ends = sorted(scale * e for e in ends)
    pairs = [(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi]
    assume(pairs)
    a = draw(st.floats(min_value=0.05, max_value=3.0)) * scale
    if draw(st.booleans()):
        return normalize(pairs, scale), a, None
    d_lo = draw(st.floats(min_value=-1.0, max_value=1.0)) * scale
    d_hi = d_lo + a + draw(st.floats(min_value=0.0, max_value=2.0)) * scale
    assume(d_hi - d_lo >= a)
    return normalize(pairs), a, (d_lo, d_hi)


class TestCumulativeMeasure:
    @settings(max_examples=200, deadline=None)
    @given(case=random_sets())
    def test_thickness_matches_the_materialized_scan(self, case):
        E, a, domain = case
        assert thickness(E, a, domain).gamma == pytest.approx(scan_oracle(E, a, domain), abs=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(
        case=random_sets(),
        lo=st.floats(min_value=-60.0, max_value=60.0),
        length=st.floats(min_value=1e-6, max_value=40.0),
    )
    def test_measure_within_matches_the_materialized_sum(self, case, lo, length):
        # windows at negative x and windows spanning many periods
        E = case[0]
        pieces = E.materialize(lo, lo + length)
        assert measure_within(E, (lo, lo + length)) == pytest.approx(
            math.fsum(hi - a for a, hi in pieces), abs=1e-11
        )

    def test_short_window_keeps_its_digits(self):
        # the error is relative to the window ends, not to the set's total
        # measure (1000 here, whose ulp is 1e-13)
        E = IntervalSet(((0.0, 1000.0),))
        assert measure_within(E, (1.0, 1.0 + 1e-9)) == pytest.approx(1e-9, rel=1e-6, abs=0.0)
        periodic = IntervalSet(((0.0, 999.0),), period=1000.0)
        assert measure_within(periodic, (1.0, 1.0 + 1e-9)) == pytest.approx(1e-9, rel=1e-6, abs=0.0)

    def test_nothing_is_materialized(self, monkeypatch):
        def refuse(self, lo, hi):
            raise AssertionError("materialize called")

        monkeypatch.setattr(IntervalSet, "materialize", refuse)
        assert thickness(two_sliver_set(0.2), 1.0).gamma == pytest.approx(0.2, rel=1e-12)
        E = IntervalSet(((0.0, 0.5),))
        assert thickness(E, 0.25, domain=(-1.0, 1.0)).gamma == 0.0
        assert thickness(E, 0.25, domain=(0.0, 0.5)).gamma == 1.0
        assert measure_within(two_sliver_set(0.2), (-3.05, 4.0)) == pytest.approx(1.4, rel=1e-12)
        assert measure_within(E, (-2.0, 0.25)) == 0.25
