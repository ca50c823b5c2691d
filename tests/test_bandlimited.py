"""Trigonometric polynomials, norms, spectra, and derivative ratios."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thickset import (
    BandSpec,
    IntervalSet,
    NormQuery,
    ThicksetError,
    TrigPoly,
    full_torus,
    lattice_indices,
    lp_norm,
    random_bandlimited,
    two_sliver_set,
)
from thickset import bandlimited, quadrature
from thickset.bandlimited import piece_masses
from thickset.quadrature import base_cell, panel_nodes, panel_width
from thickset.sets import period_ratio

TWO_PI = 2.0 * math.pi


class TestTrigPoly:
    def test_eval_single_mode(self):
        f = TrigPoly.from_terms(TWO_PI, [(1, 1.0 + 0.0j)])
        x = 0.25
        expected = np.exp(1j * x)
        assert abs(f.eval(x) - expected) < 1e-14

    def test_duplicate_mode_rejected(self):
        with pytest.raises(ThicksetError, match="repeated lattice mode"):
            TrigPoly.from_terms(1.0, [(0, 1.0), (0, 2.0)])

    def test_derivative_multiplies_by_frequency(self):
        f = TrigPoly.from_terms(TWO_PI, [(3, 2.0 - 1.0j)])
        g = f.derivative()
        x = 0.7
        assert abs(g.eval(x) - 3j * f.eval(x)) < 1e-13

    def test_max_frequency_ignores_dead_modes(self):
        f = TrigPoly.from_terms(TWO_PI, [(1, 1.0), (7, 0.0)])
        assert math.isclose(f.max_frequency, 1.0, rel_tol=1e-15)

    @pytest.mark.parametrize("c", [1e-300, 1.0, 3.0, 1e280])
    def test_unit_keeps_the_value_bits(self, c):
        # s is a power of two, so s * u.eval has the bits of f.eval, derivative rows too
        g = random_bandlimited(BandSpec((0.0,), 16.0 * math.pi), 8.0, seed=4)
        f = TrigPoly(g.period, g.ms, c * g.coeffs)
        s, u = f.unit
        assert math.frexp(s)[0] == 0.5 and 0.5 <= np.abs(u.coeffs).max() < 1.0
        assert u.ms is f.ms and u.max_frequency == f.max_frequency and f.unit[1] is u
        x = np.random.default_rng(1).uniform(-3.0, 11.0, 40)
        assert (s * u.eval(x, derivatives=2)).tobytes() == f.eval(x, derivatives=2).tobytes()

    def test_unit_of_the_zero_function_and_of_the_largest_weights(self):
        assert TrigPoly.from_terms(1.0, [(0, 0.0), (2, 0.0)]).unit[0] == 1.0
        s, u = TrigPoly.from_terms(1.0, [(0, 1e308), (1, -1.0)]).unit
        assert s == 2.0 ** 1023 and u.coeffs[0] * s == 1e308


def _mp_reference(f, xs, dps=40):
    """Values of f at xs in `dps`-digit arithmetic, for consecutive modes.

    f(x) = z^m_min * sum_k c_k z^k with z = exp(2 pi i x / L), the sum by
    mpmath's Horner scheme; its rounding (span * 10^-dps) is far below
    double precision.
    """
    import mpmath

    assert np.array_equal(np.diff(f.ms), np.ones(f.ms.size - 1))
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpc(c.real, c.imag) for c in f.coeffs[::-1]]
        out = []
        for x in xs:
            z = mpmath.expj(2 * mpmath.pi * mpmath.mpf(float(x)) / f.period)
            out.append(complex(z ** int(f.ms[0]) * mpmath.polyval(coeffs, z)))
        return np.array(out)


class TestEval:
    @pytest.mark.parametrize("span, m_min, n_points", [(257, -128, 8), (4097, 1000, 8), (65537, -40000, 1)])
    def test_matches_mpmath_reference(self, span, m_min, n_points):
        rng = np.random.default_rng(span)
        L = 8.0
        coeffs = rng.standard_normal(span) + 1j * rng.standard_normal(span)
        f = TrigPoly(L, np.arange(m_min, m_min + span), coeffs)
        xs = np.concatenate([[0.0, L - 1e-3, -3.3], rng.uniform(-2 * L, 2 * L, n_points)])
        err = np.max(np.abs(f.eval(xs) - _mp_reference(f, xs)))
        assert err <= 1e-10 * np.linalg.norm(coeffs)

    def test_period_shift_is_bitwise(self):
        f = random_bandlimited(BandSpec((0.0, 12.0 * math.pi), 4.0 * math.pi), 8.0, seed=3)
        xs = np.arange(-64, 64) / 16.0  # x + 8 is exact for these
        assert np.array_equal(f.eval(xs + 8.0), f.eval(xs))
        assert np.array_equal(f.eval(xs - 16.0), f.eval(xs))

    def test_input_shapes(self):
        f = TrigPoly.from_terms(8.0, [(-2, 1.0 + 2.0j), (5, -0.5j)])
        grid = np.linspace(0.0, 8.0, 12).reshape(3, 4)
        values = f.eval(grid)
        assert values.shape == (3, 4)
        assert isinstance(f.eval(1.25), complex)
        assert isinstance(f.eval(np.float64(1.25)), complex)
        assert f.eval(np.array(1.25)) == f.eval(1.25)
        assert f.eval([1.25]).shape == (1,)
        assert f.eval(np.empty(0)).shape == (0,)
        assert values[1, 2] == f.eval(grid[1, 2])

    def test_derivative_rows(self):
        f = random_bandlimited(BandSpec((0.0, 12.0 * math.pi), 4.0 * math.pi), 8.0, seed=3)
        xs = np.linspace(-3.0, 11.0, 50).reshape(5, 10)
        rows = f.eval(xs, derivatives=2)
        assert rows.shape == (3, 5, 10)
        assert np.array_equal(f.eval(xs, derivatives=0), f.eval(xs))
        for r in range(3):
            g = f.derivative(r)
            assert np.max(np.abs(rows[r] - g.eval(xs))) <= 1e-13 * np.linalg.norm(g.coeffs)
        assert f.eval(1.25, derivatives=1).shape == (2,)
        assert isinstance(f.eval(1.25, derivatives=0), complex)
        empty = TrigPoly(8.0, np.array([], dtype=np.int64), np.array([], dtype=complex))
        assert np.array_equal(empty.eval(np.ones(4), derivatives=2), np.zeros((3, 4)))

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_derivatives_must_be_natural(self, bad):
        f = TrigPoly.from_terms(8.0, [(-2, 1.0 + 2.0j), (5, -0.5j)])
        with pytest.raises(ThicksetError, match="derivatives must be an integer >= 0"):
            f.eval(0.5, derivatives=bad)

    def test_empty_spectrum_is_zero(self):
        f = TrigPoly(8.0, np.array([], dtype=np.int64), np.array([], dtype=complex))
        assert f.eval(0.5) == 0j
        assert np.array_equal(f.eval(np.ones((2, 3))), np.zeros((2, 3), dtype=complex))

    def test_sparse_spectrum_within_block_cap(self):
        # two modes span 60001 lattice steps: the step table covers the
        # whole range, and blocks of nodes keep the temporaries bounded
        import tracemalloc

        L = 8.0
        f = TrigPoly.from_terms(L, [(0, 1.0 - 1.0j), (60000, 0.5j)])
        xs = np.linspace(-1.0, 9.0, 40_000)
        tracemalloc.start()
        try:
            got = f.eval(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        phase = 2.0 * np.pi * np.mod(60000 * (np.mod(xs, L) / L), 1.0)
        want = (1.0 - 1.0j) + 0.5j * np.exp(1j * phase)
        assert np.max(np.abs(got - want)) < 1e-10
        # one block of nodes * (baby + giant steps) complex temporaries is
        # 32 MB; 40k nodes unblocked would take about 300 MB
        assert peak < 100e6


def _parent_eval(f, x, cap):
    """Reference copy of the one-table evaluator, blocks of cap // (baby + giant) points."""
    span = int(f.ms[-1] - f.ms[0]) + 1
    baby = math.isqrt(span - 1) + 1
    table = np.zeros(-(-span // baby) * baby, dtype=np.complex128)
    table[f.ms - f.ms[0]] = f.coeffs
    table = table.reshape(-1, baby)
    giant = table.shape[0]
    flat = np.asarray(x, dtype=float).ravel()
    out = np.zeros(flat.size, dtype=np.complex128)
    block = max(1, cap // (baby + giant))
    for i in range(0, flat.size, block):
        turns = np.mod(flat[i : i + block], f.period) / f.period
        z = np.exp(1j * (math.tau * turns))
        powers = np.empty((baby + 1, z.size), dtype=np.complex128)
        powers[0] = 1.0
        for j in range(1, baby + 1):
            np.multiply(powers[j - 1], z, out=powers[j])
        rows = table @ powers[:baby]
        acc = rows[-1]
        for q in range(giant - 2, -1, -1):
            acc *= powers[baby]
            acc += rows[q]
        shift = np.exp(1j * (math.tau * np.mod(f.ms[0] * turns, 1.0)))
        out[i : i + block] = acc * shift
    return out


# Spans of at least 3 give the one-row table two or more rows, and blocks
# of at least two points keep every product a BLAS gemm and every complex
# multiply a vector one: numpy sends one-point and one-row work to other
# kernels, whose last bits differ.
STACK_CASES = [
    (TrigPoly.from_terms(8.0, [(-2, 1.0 + 2.0j), (5, -0.5j)]), 3),
    (random_bandlimited(BandSpec((0.0,), 4.0 * math.pi), 32.0, seed=1), 14),
    (random_bandlimited(BandSpec((0.0, 12.0 * math.pi), 4.0 * math.pi), 8.0, seed=2), 5),
]


class TestStackedEval:
    @pytest.mark.parametrize("f, _", STACK_CASES)
    @pytest.mark.parametrize("n_points", [1, 7, 1000, 5003])
    def test_eval_matches_parent_routine(self, monkeypatch, f, _, n_points):
        from thickset import bandlimited

        xs = np.random.default_rng(n_points).uniform(-20.0, 40.0, n_points)
        assert f.eval(xs).tobytes() == _parent_eval(f, xs, bandlimited._EVAL_BLOCK).tobytes()
        # a small cap splits the larger node counts into many blocks
        monkeypatch.setattr(bandlimited, "_EVAL_BLOCK", 97)
        assert f.eval(xs).tobytes() == _parent_eval(f, xs, 97).tobytes()
        for x in xs[:20].tolist():
            assert np.complex128(f.eval(x)).tobytes() == _parent_eval(f, x, 97).tobytes()

    @pytest.mark.parametrize("f, k", STACK_CASES)
    @pytest.mark.parametrize("block", [2, 13, 400])
    def test_stacked_rows_match_separate_evals(self, monkeypatch, f, k, block):
        from thickset import bandlimited

        rng = np.random.default_rng(k)
        rows = rng.standard_normal((k, f.ms.size)) + 1j * rng.standard_normal((k, f.ms.size))
        xs = rng.uniform(-20.0, 40.0, 1000)  # crosses block boundaries, no one-point block
        table = bandlimited._step_tables(f.ms, rows)
        stacked = np.concatenate(
            [
                bandlimited._eval_rows(table, k, f.period, f.ms[0], xs[i : i + block])
                for i in range(0, xs.size, block)
            ],
            axis=1,
        )
        # the one-row evals then use the same blocks of points
        monkeypatch.setattr(bandlimited, "_EVAL_BLOCK", block * (table.shape[1] + table.shape[0] // k))
        for r in range(k):
            separate = TrigPoly(f.period, f.ms, rows[r]).eval(xs)
            assert stacked[r].tobytes() == separate.tobytes()


# (b / pi, set, seed) whose torus sup the search misses: the grid argmax sits on
# a peak 0.72% below the highest one, and only that peak is refined
SUP_MISSES = {(64, "torus", 2)}


class TestLpNorm:
    def test_unimodular_on_set(self):
        # |f| = 1 for a single unit-coefficient mode, so the
        # Lp norm over E is |E|^(1/p).
        f = TrigPoly.from_terms(1.0, [(3, 1.0)])
        E = IntervalSet(((0.0, 0.1), (0.5, 0.7)))
        got = lp_norm(f, NormQuery(2.0, E))
        assert math.isclose(got, math.sqrt(0.3), rel_tol=1e-12)

    def test_parseval_two_sqrt_pi(self):
        # ||f||_2^2 = L * sum |c|^2 on the full torus:
        # L = 2 pi, coefficients (1, 1) -> norm = sqrt(4 pi) = 2 sqrt(pi).
        f = TrigPoly.from_terms(TWO_PI, [(0, 1.0), (1, 1.0)])
        got = lp_norm(f, NormQuery(2.0, full_torus(TWO_PI)))
        assert math.isclose(got, 2.0 * math.sqrt(math.pi), rel_tol=1e-12)

    def test_parseval_random(self):
        rng = np.random.default_rng(11)
        L = 8.0
        terms = [(m, complex(rng.standard_normal(), rng.standard_normal())) for m in range(-6, 7)]
        f = TrigPoly.from_terms(L, terms)
        exact = math.sqrt(L * sum(abs(c) ** 2 for _, c in terms))
        got = lp_norm(f, NormQuery(2.0, full_torus(L)))
        assert math.isclose(got, exact, rel_tol=1e-11)

    def test_additivity_over_disjoint_pieces(self):
        f = random_bandlimited(BandSpec((0.0,), 4.0 * math.pi), 8.0, seed=5)
        p = 2.0
        whole = lp_norm(f, NormQuery(p, IntervalSet(((0.0, 3.0),)))) ** p
        left = lp_norm(f, NormQuery(p, IntervalSet(((0.0, 1.2),)))) ** p
        right = lp_norm(f, NormQuery(p, IntervalSet(((1.2, 3.0),)))) ** p
        assert math.isclose(whole, left + right, rel_tol=1e-9)

    def test_monotone_in_set(self):
        f = random_bandlimited(BandSpec((0.0,), 4.0 * math.pi), 8.0, seed=6)
        small = lp_norm(f, NormQuery(1.0, IntervalSet(((0.5, 1.0),))))
        large = lp_norm(f, NormQuery(1.0, IntervalSet(((0.0, 2.0),))))
        assert small <= large * (1.0 + 1e-12)

    def test_sup_norm_constant(self):
        f = TrigPoly.from_terms(1.0, [(0, 3.0 - 4.0j)])
        got = lp_norm(f, NormQuery(math.inf, full_torus(1.0)))
        assert math.isclose(got, 5.0, rel_tol=1e-12)

    def test_sup_norm_cosine(self):
        # f = 2 cos(x) on [0, 2 pi] peaks at 2
        f = TrigPoly.from_terms(TWO_PI, [(1, 1.0), (-1, 1.0)])
        got = lp_norm(f, NormQuery(math.inf, full_torus(TWO_PI)))
        assert math.isclose(got, 2.0, rel_tol=1e-10)

    @pytest.mark.parametrize("b", [4.0 * math.pi, 16.0 * math.pi, 64.0 * math.pi])
    @pytest.mark.parametrize("where", ["torus", "sliver"])
    def test_sup_norm_matches_dense_scan(self, b, where):
        # a 10^5-point scan of each piece, then a second one around its argmax
        # whose spacing leaves it below the peak by at most ~1e-10 relative; the
        # norm may sit below it by f.eval's rounding, which a different row count
        # of the step table moves (about 1e-13 ||c||_2 at 257 modes)
        E = full_torus(8.0) if where == "torus" else two_sliver_set(0.3)
        for seed in range(10):
            f = random_bandlimited(BandSpec((0.0,), b), 8.0, seed=seed)
            scans = []
            for lo, hi in E.materialize(0.0, 8.0):
                xs = np.linspace(lo, hi, 100_000)
                k, step = int(np.argmax(np.abs(f.eval(xs)))), xs[1] - xs[0]
                fine = np.linspace(max(lo, xs[k] - step), min(hi, xs[k] + step), 1001)
                scans.append(float(np.max(np.abs(f.eval(fine)))))
            got, top = lp_norm(f, NormQuery(math.inf, E)), max(scans)
            if (round(b / math.pi), where, seed) in SUP_MISSES:
                # the grid comes within cos(nu h / 2) >= cos(pi / 8) of the sup
                assert top * math.cos(math.pi / 8) <= got < top * (1.0 - 1e-3)
            else:
                assert top * (1.0 - 1e-13) <= got <= top * (1.0 + 1e-7)

    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e250, 1e280, 1e300, 1e307])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_scale_covariant(self, c, p):
        # every route evaluates f.unit: |f|^p and the sup's derivative rows of c f
        # neither under- nor overflow, and a norm past the double range reads inf
        f = random_bandlimited(BandSpec((0.0,), 64.0 * math.pi), 8.0, seed=3)
        scaled = TrigPoly(f.period, f.ms, c * f.coeffs)
        for E in (two_sliver_set(0.3), full_torus(8.0)):
            want = c * lp_norm(f, NormQuery(p, E))
            got = lp_norm(scaled, NormQuery(p, E))
            assert got == want == math.inf if c == 1e307 else math.isclose(got, want, rel_tol=1e-13)

    def test_mass_past_the_double_range_refused(self):
        # u = f / 2 peaks at 5 / 2 on five unit modes, so |u|^1000 overflows; one unit mode
        # has |u| = 1/2 and |u|^(1e6) underflows: a norm of inf or 0, which band_norms
        # divided into a max_ratio of nan
        message = r"puts an interval mass of \|u\|\^p past the double range"
        five = TrigPoly.from_terms(1.0, [(k, 1.0) for k in range(5)])
        with warnings.catch_warnings():  # the refusal comes alone, with no overflow warning
            warnings.simplefilter("error")
            with pytest.raises(ThicksetError, match="p = 1000 " + message):
                lp_norm(five, NormQuery(1000.0, full_torus(1.0)))
        one = TrigPoly.from_terms(1.0, [(3, 1.0)])
        with pytest.raises(ThicksetError, match=r"p = 1e\+06 " + message):
            lp_norm(one, NormQuery(1e6, full_torus(1.0)))
        assert lp_norm(one, NormQuery(1000.0, full_torus(1.0))) == 1.0

    def test_zero_coefficients_have_norm_zero(self):
        zero = TrigPoly.from_terms(1.0, [(0, 0.0), (2, 0.0)])
        for p in (1.0, 1000.0, 1e6):
            assert lp_norm(zero, NormQuery(p, full_torus(1.0))) == 0.0

    def test_invalid_exponent(self):
        f = TrigPoly.from_terms(1.0, [(0, 1.0)])
        with pytest.raises(ThicksetError, match=r"p must be in \[1, inf\]"):
            NormQuery(0.5, full_torus(1.0))

    def test_degenerate_interval_rejected_at_construction(self):
        with pytest.raises(ThicksetError, match=r"invalid interval \(0.0, 0.0\)"):
            IntervalSet(((0.0, 0.0),))


def _panel_pieces(f, E):
    """The pieces lp_norm integrates over and its panel width."""
    pieces = E.intervals if E.period is None else E.materialize(0.0, f.period)
    return pieces, panel_width(f.max_frequency)


def _dense_norm(f, E, p):
    """The finite-p norm with every panel node through f.eval."""
    pieces, width = _panel_pieces(f, E)
    xs, ws = panel_nodes(pieces, width)
    return float(ws @ np.abs(f.eval(xs)) ** p) ** (1.0 / p)


def _copies(f, E):
    pieces, width = _panel_pieces(f, E)
    return base_cell(pieces, width, f.period, period_ratio(E, f.period))[1]


def _random_terms(L, ms, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(ms)) + 1j * rng.standard_normal(len(ms))
    return TrigPoly(L, np.array(ms), coeffs)


TRANSLATE_SETS = {
    "torus": full_torus(8.0),
    "sliver_0.1": two_sliver_set(0.1),
    "sliver_0.7": two_sliver_set(0.7),
    "sliver_1.0": two_sliver_set(1.0),  # one cell merges into one full-period piece
    "period_L/3": IntervalSet(((0.2, 0.9), (1.3, 2.1)), period=8.0 / 3.0),
}

TRANSLATE_FUNCTIONS = {
    "single_mode": lambda: TrigPoly.from_terms(8.0, [(-5, 0.3 - 1.2j)]),
    "negative_m_min": lambda: _random_terms(8.0, list(range(-23, -9)), 1),
    "three_bands": lambda: random_bandlimited(
        BandSpec((0.0, 12.0 * math.pi, 24.0 * math.pi), 4.0 * math.pi), 8.0, seed=2
    ),
    "span_below_copies": lambda: _random_terms(8.0, [3, 4, 6], 3),  # span 4 < 8 copies of a sliver
    "wide": lambda: random_bandlimited(BandSpec((0.0,), 64.0 * math.pi), 8.0, seed=4),
}


class TestTranslateRoute:
    """Finite-p norms on translated node sets against f.eval on the same nodes."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("set_name", sorted(TRANSLATE_SETS))
    @pytest.mark.parametrize("f_name", sorted(TRANSLATE_FUNCTIONS))
    def test_matches_dense_eval(self, f_name, set_name, p):
        f, E = TRANSLATE_FUNCTIONS[f_name](), TRANSLATE_SETS[set_name]
        assert _copies(f, E) > 1
        got = lp_norm(f, NormQuery(p, E))
        assert math.isclose(got, _dense_norm(f, E, p), rel_tol=1e-13)

    @pytest.mark.parametrize("set_name", ["torus", "sliver_0.1", "period_L/3"])
    def test_builds_base_cell_nodes_only(self, monkeypatch, set_name):
        f, E = TRANSLATE_FUNCTIONS["wide"](), TRANSLATE_SETS[set_name]
        pieces, width = _panel_pieces(f, E)
        full = panel_nodes(pieces, width)[0].size
        built = []

        def counting(*args, **kwargs):
            xs, ws = panel_nodes(*args, **kwargs)
            built.append(xs.size)
            return xs, ws

        monkeypatch.setattr(quadrature, "panel_nodes", counting)
        lp_norm(f, NormQuery(1.0, E))
        assert built == [full // _copies(f, E)]

    @pytest.mark.parametrize("set_name", ["torus", "sliver_0.1", "period_L/3"])
    def test_p2_builds_no_nodes(self, monkeypatch, set_name):
        # p = 2 masses come from the closed form: no node is built and f is never evaluated
        f, E = TRANSLATE_FUNCTIONS["wide"](), TRANSLATE_SETS[set_name]

        def refuse(*args, **kwargs):
            raise AssertionError("a p = 2 mass built quadrature nodes or evaluated f")

        monkeypatch.setattr(quadrature, "panel_nodes", refuse)
        monkeypatch.setattr(bandlimited, "_eval_translates", refuse)
        assert math.isclose(lp_norm(f, NormQuery(2.0, E)), _dense_norm(f, E, 2.0), rel_tol=1e-13)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_classifier_derivative_rows(self, p):
        # the classifier's rows f, g_1, ..., g_k on the unit partition of L = 32: Q = 32
        f = random_bandlimited(BandSpec((0.0,), 16.0 * math.pi), 32.0, seed=7)
        partition = tuple((float(i), i + 1.0) for i in range(32))
        damping = 1j * f.frequencies / (3.0 * 0.5 * 16.0 * math.pi)
        rows = f.coeffs * damping ** np.arange(5)[:, None]
        got = piece_masses(f, rows, partition, len(partition), p)
        assert base_cell(partition, panel_width(f.max_frequency), 32.0, 32)[1] == 32
        xs, ws = panel_nodes(partition, panel_width(f.max_frequency))
        owner = np.repeat(np.arange(32), xs.size // 32)
        for r, row in enumerate(rows):
            values = ws * np.abs(TrigPoly(32.0, f.ms, row).eval(xs)) ** p
            want = np.bincount(owner, weights=values, minlength=32)
            np.testing.assert_allclose(got[r], want, rtol=1e-13, atol=0.0)

    def test_span_on_both_sides_of_copies(self):
        E = two_sliver_set(0.1)
        narrow = TRANSLATE_FUNCTIONS["span_below_copies"]()
        wide = TRANSLATE_FUNCTIONS["wide"]()
        assert np.ptp(narrow.ms) + 1 < _copies(narrow, E) < np.ptp(wide.ms) + 1

    @pytest.mark.parametrize(
        "E",
        [
            IntervalSet(((0.0, 0.2), (0.6, 1.0)), period=1.0),  # cell merged across 0 and 1
            IntervalSet(((0.3, 2.1),)),  # aperiodic
            # four equal pieces whose offsets miss 2 * r by up to 6e-10
            IntervalSet(((0.2, 0.5),), period=2.0 * (1.0 + 1e-10)),
        ],
        ids=["merged_boundary", "aperiodic", "not_translates"],
    )
    @pytest.mark.parametrize("p", [1.0, 3.5])
    def test_fallback_to_eval(self, E, p):
        f = random_bandlimited(BandSpec((0.0,), 8.0 * math.pi), 8.0, seed=6)
        assert _copies(f, E) == 1
        got = lp_norm(f, NormQuery(p, E))
        assert math.isclose(got, _dense_norm(f, E, p), rel_tol=1e-13)


def _mp_masses(period, ms, rows, pieces, dps=30):
    """integral_piece |sum_m row[m] e^(2 pi i m x / L)|^2 dx by `dps`-digit mpmath quadrature.

    Nothing of thickset is used: the integrand is z^m_min times mpmath's Horner sum in
    z = exp(2 pi i x / L) at mpmath's own nodes, each piece cut into unit-length panels.
    """
    import mpmath

    with mpmath.workdps(dps):
        L, m0 = mpmath.mpf(period), int(ms[0])
        out = []
        for row in rows:
            dense = [0] * (int(ms[-1]) - m0 + 1)
            for m, c in zip(ms, row):
                dense[int(m) - m0] = mpmath.mpc(c.real, c.imag)
            dense.reverse()

            def square(x):
                z = mpmath.expj(2 * mpmath.pi * x / L)
                return abs(z**m0 * mpmath.polyval(dense, z)) ** 2

            out.append([float(mpmath.quad(square, mpmath.linspace(lo, hi, math.ceil(hi - lo) + 1),
                                          method="gauss-legendre"))
                        for lo, hi in pieces])
        return np.array(out)


class TestClosedFormMasses:
    """p = 2 masses L Re sum_d r(d) K(d) against 30-digit quadrature and the Gram matrix."""

    @pytest.mark.parametrize("gamma", [0.1, 0.7])
    def test_two_sliver_pieces_match_mpmath(self, gamma):
        f = random_bandlimited(BandSpec((0.0,), 4.0 * math.pi), 8.0, seed=11)
        pieces, u = two_sliver_set(gamma).materialize(0.0, 8.0), f.unit[1]
        got = piece_masses(f, u.coeffs[None], pieces, 8, 2.0)
        want = _mp_masses(8.0, f.ms, u.coeffs[None], pieces)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_classifier_rows_match_mpmath(self):
        # f and its damped derivative rows g_1, g_2 on the unit partition of L = 32: Q = 32
        f = random_bandlimited(BandSpec((0.0,), 4.0 * math.pi), 32.0, seed=5)
        partition = tuple((float(i), i + 1.0) for i in range(32))
        rows = f.unit[1].coeffs * (1j * f.frequencies / (1.5 * 4.0 * math.pi)) ** np.arange(3)[:, None]
        got = piece_masses(f, rows, partition, len(partition), 2.0)
        some = [0, 1, 13, 22, 31]  # translates t of [0, 1] for several residues of the fold
        want = _mp_masses(32.0, f.ms, rows, [partition[t] for t in some])
        np.testing.assert_allclose(got[:, some], want, rtol=1e-13, atol=0.0)

    def test_aperiodic_window_across_zero_matches_mpmath(self):
        # the taylor budget's norms of f_k^(m) on an aperiodic window; this one straddles 0
        g = random_bandlimited(BandSpec((0.0,), 4.0 * math.pi), 8.0, seed=2).derivative(3)
        window = ((-0.6, 1.4),)
        got = lp_norm(g, NormQuery(2.0, IntervalSet(window))) ** 2
        want = _mp_masses(8.0, g.ms, g.coeffs[None], window)[0, 0]
        assert math.isclose(got, want, rel_tol=1e-13)

    @pytest.mark.parametrize("E", [two_sliver_set(0.3), IntervalSet(((0.3, 2.2), (5.0, 7.9)))])
    def test_rayleigh_quotient_of_the_gram_matrix(self, E):
        # G[j, k] = (1/L) integral_E e_j conj(e_k), so integral_E |f|^2 = L c^T G conj(c)
        from thickset.concentration import gram_matrix

        f = random_bandlimited(BandSpec((0.0,), 16.0 * math.pi), 8.0, seed=4)
        G = gram_matrix(f.ms, E, 8.0).matrix
        want = 8.0 * (f.coeffs @ G @ f.coeffs.conj()).real
        assert math.isclose(lp_norm(f, NormQuery(2.0, E)) ** 2, want, rel_tol=1e-13)

    def test_mass_below_its_rounding_bound_refused(self):
        # f = (1 - z)^8 vanishes to order 8 at 0: on (0, 1e-3) |f|^2 < 1e-35, far below the
        # rounding of the sum over lags, which would return noise as the mass
        f = TrigPoly.from_terms(1.0, [(k, math.comb(8, k) * (-1) ** k) for k in range(9)])
        with pytest.raises(ThicksetError, match="p = 2 interval mass of u is not above its rounding"):
            lp_norm(f, NormQuery(2.0, IntervalSet(((0.0, 1e-3),))))
        far = _mp_masses(1.0, f.ms, f.coeffs[None], ((0.4, 0.6),))[0, 0]
        assert math.isclose(lp_norm(f, NormQuery(2.0, IntervalSet(((0.4, 0.6),)))) ** 2, far,
                            rel_tol=1e-13)


class TestLatticeAndRandom:
    def test_lattice_indices_single_band(self):
        # L = 2 pi -> frequencies are the integers; band [-2, 2]
        ms = lattice_indices(BandSpec((0.0,), 4.0), TWO_PI)
        assert ms.tolist() == [-2, -1, 0, 1, 2]

    def test_lattice_indices_offset_band(self):
        ms = lattice_indices(BandSpec((10.0,), 2.0), TWO_PI)
        assert ms.tolist() == [9, 10, 11]

    def test_empty_band_raises(self):
        with pytest.raises(ThicksetError, match="holds no lattice frequency"):
            lattice_indices(BandSpec((0.5,), 0.25), TWO_PI)

    def test_mode_cap_counted_before_building(self):
        # two bands of 600001 modes each pass the 2**20 cap together: refused before either
        # is built, where the first band's set of ints alone was about 40 MB
        tracemalloc.start()
        try:
            with pytest.raises(ThicksetError, match="b = 600000 at L = 6.28319 needs over 1048576"):
                lattice_indices(BandSpec((0.0, 1e7), 6e5), TWO_PI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_random_bandlimited_spectrum_inside_band(self):
        b = 4.0 * math.pi
        f = random_bandlimited(BandSpec((0.0,), b), 8.0, seed=9)
        assert f.max_frequency <= b / 2.0 + 1e-9

    def test_random_bandlimited_deterministic(self):
        a = random_bandlimited(BandSpec((0.0,), 10.0), 8.0, seed=42)
        b = random_bandlimited(BandSpec((0.0,), 10.0), 8.0, seed=42)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = random_bandlimited(BandSpec((0.0,), 10.0), 8.0, seed=43)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_random_bandlimited_fills_every_mode(self):
        spec = BandSpec((0.0, 6.0), 2.0)
        f = random_bandlimited(spec, TWO_PI, seed=3)
        assert f.ms.tolist() == lattice_indices(spec, TWO_PI).tolist()
        assert np.all(f.coeffs != 0)

    def test_random_bandlimited_seed_is_keyword_only(self):
        with pytest.raises(TypeError):
            random_bandlimited(BandSpec((0.0,), 10.0), 8.0, 42)


def _bernstein_ratio(f, p):
    """||f'||_p / ||f||_p over the full torus."""
    torus = full_torus(f.period)
    return lp_norm(f.derivative(1), NormQuery(p, torus)) / lp_norm(f, NormQuery(p, torus))


class TestBernstein:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_ratio_bounded_by_max_frequency(self, p):
        f = random_bandlimited(BandSpec((0.0,), 6.0 * math.pi), 8.0, seed=int(p if p != math.inf else 99))
        nu_max = f.max_frequency
        assert _bernstein_ratio(f, p) <= nu_max * (1.0 + 1e-9) + 1e-12

    def test_pure_mode_attains_frequency(self):
        f = TrigPoly.from_terms(TWO_PI, [(4, 1.0)])
        assert math.isclose(_bernstein_ratio(f, 2.0), 4.0, rel_tol=1e-10)

    def test_zero_function_has_no_ratio(self):
        # both norms vanish, so the ratio is undefined
        f = TrigPoly.from_terms(1.0, [(0, 0.0)])
        assert lp_norm(f, NormQuery(2.0, full_torus(1.0))) == 0.0
        assert lp_norm(f.derivative(1), NormQuery(2.0, full_torus(1.0))) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_restriction_never_exceeds_full_norm(seed, p):
    f = random_bandlimited(BandSpec((0.0,), 4.0 * math.pi), 8.0, seed=seed)
    full = lp_norm(f, NormQuery(p, full_torus(8.0)))
    part = lp_norm(f, NormQuery(p, IntervalSet(((1.0, 2.5),))))
    assert part <= full * (1.0 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_quadrature_matches_parseval(seed):
    rng = np.random.default_rng(seed)
    L = 4.0
    terms = [(m, complex(rng.standard_normal(), rng.standard_normal())) for m in (-3, -1, 0, 2)]
    f = TrigPoly.from_terms(L, terms)
    exact = math.sqrt(L * sum(abs(c) ** 2 for _, c in terms))
    got = lp_norm(f, NormQuery(2.0, full_torus(L)))
    assert math.isclose(got, exact, rel_tol=1e-10)


def _lattice_by_set(spec, period):
    """The modes of each band gathered in a set of ints and sorted, band by band."""
    found = set()
    for lo, hi in spec.bands():
        m_lo = math.ceil(lo * period / math.tau - 1e-9)
        m_hi = math.floor(hi * period / math.tau + 1e-9)
        if m_hi < m_lo:
            return None
        found.update(range(m_lo, m_hi + 1))
    return sorted(found)


@settings(max_examples=100, deadline=None)
@given(
    centers=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=5, unique=True),
    width=st.floats(0.1, 40.0),
    period=st.sampled_from([1.0, TWO_PI, 8.0, 32.0]),
)
def test_lattice_indices_match_the_set_union(centers, width, period):
    # bands that overlap, touch, nest at the lattice or hold no mode at all
    spec = BandSpec(tuple(sorted(centers)), width)
    want = _lattice_by_set(spec, period)
    if want is None:
        with pytest.raises(ThicksetError, match="holds no lattice frequency"):
            lattice_indices(spec, period)
        return
    ms = lattice_indices(spec, period)
    assert ms.dtype == np.int64 and ms.tolist() == want
