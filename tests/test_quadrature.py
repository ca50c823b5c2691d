"""Panel Gauss-Legendre rule, per-piece integrals and the batched Taylor-model sup search."""
import math

import numpy as np
import pytest

from thickset import quadrature
from thickset.bandlimited import TrigPoly
from thickset.quadrature import (
    GL_ORDER,
    TAYLOR_ORDER,
    base_cell,
    kinked_integrals,
    panel_count,
    panel_nodes,
    panel_width,
    piece_integrals,
    sup_abs,
)


def test_panel_count_ceils():
    assert panel_count(0.0, 1.0, 0.5) == 2
    assert panel_count(0.0, 1.0, 0.3) == 4
    assert panel_count(0.0, 1.0, 2.0) == 1


def test_high_degree_polynomial_exact():
    # order-16 Gauss-Legendre integrates degree <= 31 exactly per panel
    xs, ws = panel_nodes([(0.0, 1.0)], 1.0)
    got = float(ws @ xs ** 31)
    assert math.isclose(got, 1.0 / 32.0, rel_tol=1e-13)


def test_oscillatory_integral():
    xs, ws = panel_nodes([(0.0, 2.0 * math.pi)], 0.25)
    got = float(ws @ np.sin(xs) ** 2)
    assert math.isclose(got, math.pi, rel_tol=1e-12)


def test_weights_far_from_origin():
    # 116 panels of width ~0.0078 at lo = 31: each half-width is step / 2,
    # not ((lo + step) - lo) / 2, which rounds at lo's scale
    lo, hi, width = 31.0, 31.9, 1.0 / 128.0
    n = panel_count(lo, hi, width)
    _, ws = panel_nodes([(lo, hi)], width)
    _, w = np.polynomial.legendre.leggauss(GL_ORDER)
    want = np.tile(0.5 * ((hi - lo) / n) * w, n)
    assert n > 1
    assert np.all(np.abs(ws - want) <= 4.0 * np.spacing(want))


def test_weights_sum_to_length():
    xs, ws = panel_nodes([(-1.5, 4.0)], 0.37)
    assert math.isclose(float(ws.sum()), 5.5, rel_tol=1e-13)
    assert len(xs) % GL_ORDER == 0


def _one_piece_rule(lo, hi, max_width):
    """Reference: the composite rule of one piece, built on its own."""
    n = panel_count(lo, hi, max_width)
    if n == 0:
        return np.empty(0), np.empty(0)
    edges = np.linspace(lo, hi, n + 1)
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    half = 0.5 * ((hi - lo) / n)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return (mids[:, None] + half * x[None, :]).ravel(), np.broadcast_to(half * w, (n, GL_ORDER)).ravel()


@pytest.mark.parametrize(
    "pieces, width",
    [
        ([], 0.1),
        ([(0.0, 1.0)], 0.3),
        ([(0.0, 1e-13), (1e-13, 2e-13), (0.5, 0.5 + 4e-16), (-5e-324, 0.0)], 0.1),  # tiny
        ([(-1.5, 0.2), (0.2, 0.7), (0.7, 3.1)], 0.37),  # adjacent
        ([(0.0, 0.0), (1.0, 2.0), (2.0, 2.0), (3.0, 2.5), (4.0, 4.25)], 0.05),  # zero-length
        ([(0.45, 0.55), (1.45, 1.55), (-7.55, -7.45), (10.0, 42.0)], 1.0 / 256),
    ],
)
def test_multi_piece_rule_is_concatenation(pieces, width):
    xs, ws = panel_nodes(pieces, width)
    rules = [_one_piece_rule(lo, hi, width) for lo, hi in pieces]
    assert xs.tobytes() == np.concatenate([np.empty(0)] + [x for x, _ in rules]).tobytes()
    assert ws.tobytes() == np.concatenate([np.empty(0)] + [w for _, w in rules]).tobytes()


# (piece, width): tiny, adjacent, zero-length and far pieces at five widths
_WIDE = [
    ((0.0, 1.0), 0.3),
    ((0.0, 1e-13), 0.1),
    ((-1.5, 0.2), 0.37),
    ((0.2, 0.7), 0.37),
    ((0.7, 3.1), 0.05),
    ((0.0, 0.0), 0.05),
    ((3.0, 2.5), 0.37),
    ((4.0, 4.25), 0.05),
    ((0.45, 0.55), 1.0 / 256),
    ((10.0, 42.0), 1.0 / 256),
]


def test_per_piece_widths_are_concatenation():
    pieces, widths = [p for p, _ in _WIDE], [w for _, w in _WIDE]
    xs, ws = panel_nodes(pieces, widths)
    rules = [panel_nodes([piece], width) for piece, width in _WIDE]
    assert xs.tobytes() == np.concatenate([x for x, _ in rules]).tobytes()
    assert ws.tobytes() == np.concatenate([w for _, w in rules]).tobytes()
    # one width for every piece, as a float or repeated per piece: the same bits
    for width in (0.37, 1.0 / 256):
        want = panel_nodes(pieces, width)
        got = panel_nodes(pieces, [width] * len(pieces))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    with pytest.raises(ValueError):
        panel_nodes(pieces, widths[:-1])


def _stacked(x, piece):
    """Two positive rows, the second complex and depending on the piece index."""
    return np.stack([2.0 + np.cos(3.0 * x), (1.0 + 0.5j) * (piece + 1) * (1.0 + x * x)])


# zero-length pieces first, between and last; 16-node panels, so runs of
# 5 and 97 nodes split pieces and panels
_PIECES = [(0.0, 0.0), (-1.5, 0.2), (0.2, 0.2), (0.7, 3.1), (3.0, 2.5), (4.0, 4.25), (5.0, 5.0)]


@pytest.mark.parametrize("block", [1, 5, 97, None])
def test_piece_integrals_match_per_piece_rule(block):
    sizes = []

    def integrand(x, piece):
        sizes.append(x.size)
        return _stacked(x, piece)

    got = piece_integrals(integrand, _PIECES, 0.37, block=block)
    want = np.zeros((2, len(_PIECES)), dtype=complex)
    for j, piece in enumerate(_PIECES):
        xs, ws = panel_nodes([piece], 0.37)
        want[:, j] = _stacked(xs, np.full(xs.size, j)) @ ws
    assert got.shape == (2, len(_PIECES)) and got.dtype == complex
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert got[:, [0, 2, 4, 6]].tolist() == [[0.0] * 4] * 2
    n_nodes = sum(GL_ORDER * panel_count(lo, hi, 0.37) for lo, hi in _PIECES)
    assert sum(sizes) == n_nodes
    assert max(sizes) == (n_nodes if block is None else block)


def test_piece_integrals_per_piece_widths():
    pieces, widths = [p for p, _ in _WIDE], [w for _, w in _WIDE]
    seen = []

    def integrand(x, piece):
        seen.append((x, piece))
        return _stacked(x, piece)

    got = piece_integrals(integrand, pieces, widths)
    ((x, piece),) = seen
    assert x.tobytes() == panel_nodes(pieces, widths)[0].tobytes()
    for j, (one, width) in enumerate(_WIDE):
        xs, ws = panel_nodes([one], width)
        assert x[piece == j].tobytes() == xs.tobytes()
        want = piece_integrals(lambda t, _: _stacked(t, np.full(t.size, j)), [one], width)
        assert got[:, j].tobytes() == want[:, 0].tobytes()


def test_piece_integrals_one_row_and_no_nodes():
    got = piece_integrals(lambda x, _: np.sin(x) ** 2, [(0.0, 2.0 * math.pi)], 0.25, block=7)
    assert got.shape == (1,)
    assert math.isclose(got[0], math.pi, rel_tol=1e-12)
    # every piece empty: one empty run fixes the shape and dtype of the zeros
    empty = piece_integrals(_stacked, [(1.0, 1.0), (3.0, 2.0)], 0.1)
    assert empty.shape == (2, 2) and empty.dtype == complex and not empty.any()
    assert piece_integrals(_stacked, [], 0.1).shape == (2, 0)


def _abs_cos_integral(lam, a, b):
    """int_a^b |cos lam x| dx for 0 <= a <= b, from int_0^u |cos| = 2q + (sin v or 2 - sin v)."""

    def up_to(u):
        q, v = divmod(u, math.pi)
        return 2 * q + (math.sin(v) if v <= math.pi / 2 else 2 - math.sin(v))

    return (up_to(lam * b) - up_to(lam * a)) / lam


# cos(lam x) vanishes at pi / (2 lam) = 0.25 + 5e-5, just past the panel edge 0.25
# of (0, 1) at width 1/8; the other pieces put zeros inside their panels
_KINK = math.pi / (2 * 0.25005)
_KINKED = [(0.0, 1.0), (1.0, 1.7), (2.05, 3.3)]


def test_kinked_integrals_match_closed_form_near_a_zero():
    integrand = lambda x, _: np.abs(np.cos(_KINK * x))
    got = kinked_integrals(integrand, _KINKED, [0.125] * 3)
    want = [_abs_cos_integral(_KINK, a, b) for a, b in _KINKED]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    # the fixed rule alone misses the kink by far more
    fixed = piece_integrals(integrand, _KINKED, 0.125)
    assert abs(fixed[0] - want[0]) > 1e-9 * want[0]


def test_kinked_integrals_see_the_callers_pieces_in_order():
    seen = []

    def integrand(x, piece):
        seen.append((x, piece))
        return (piece + 1) * np.abs(np.cos(_KINK * x))

    got = kinked_integrals(integrand, _KINKED, [0.125, 0.2, 0.3])
    want = [(j + 1) * _abs_cos_integral(_KINK, a, b) for j, (a, b) in enumerate(_KINKED)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert len(seen) > 2  # refinement rounds ran
    for x, piece in seen:
        assert piece.dtype.kind == "i" and np.all(np.diff(piece) >= 0)
        ends = np.array(_KINKED)[piece]
        assert np.all((ends[:, 0] <= x) & (x <= ends[:, 1]))


def test_kinked_integrals_of_an_empty_piece_are_zero():
    pieces = [(0.5, 0.5), (0.0, 1.0), (2.0, 1.5)]
    got = kinked_integrals(lambda x, _: np.abs(np.cos(_KINK * x)), pieces, [0.125] * 3)
    assert got[0] == 0.0 and got[2] == 0.0
    assert math.isclose(got[1], _abs_cos_integral(_KINK, 0.0, 1.0), rel_tol=1e-13)


def test_kinked_integrals_of_a_smooth_integrand_take_one_round():
    calls = []

    def integrand(x, piece):
        calls.append(x.size)
        return 2.0 + np.cos(3.0 * x)

    got = kinked_integrals(integrand, _KINKED, [0.125] * 3)
    # one piece_integrals pass over both rules, and no cut
    assert len(calls) == 1
    want = [2 * (b - a) + (math.sin(3 * b) - math.sin(3 * a)) / 3 for a, b in _KINKED]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_panel_width_tracks_top_frequency():
    assert panel_width(0.0) == 1.0 / 8
    assert panel_width(4.0 * math.pi) == 0.5 / 8


def _taylor(rows):
    """sup_abs's (sample, expand) from rows(t) -> f, f', ..., padded with zero rows.

    rows(t) returns shape (r,) + t.shape; sample takes row 0, expand pads the
    rows to TAYLOR_ORDER + 1, exact for a polynomial of degree below r.
    """

    def expand(t):
        got = rows(t)
        return np.concatenate([got, np.zeros((TAYLOR_ORDER + 1 - len(got),) + t.shape)])

    return (lambda t: rows(t)[0]), expand


def _trig_rows(freqs, coeffs):
    """Rows f, ..., f^(TAYLOR_ORDER) of f(t) = sum_j coeffs_j exp(i freqs_j t), shape (21,) + t.shape."""
    columns = coeffs * (1j * freqs) ** np.arange(TAYLOR_ORDER + 1)[:, None]
    return lambda t: (columns @ np.exp(1j * np.outer(freqs, t))).reshape((-1,) + t.shape)


def _recorded(evaluate, calls):
    """One-argument wrapper that keeps a copy of each call's x."""

    def recorded(t):
        calls.append(t.copy())
        return evaluate(t)

    return recorded


def _recorded_search(rows):
    """_taylor(rows) with each callable recorded: (sample, expand, sampled x, expanded x)."""
    sampled, expanded = [], []
    sample, expand = _taylor(rows)
    return _recorded(sample, sampled), _recorded(expand, expanded), sampled, expanded


def test_sup_interior_quadratic_peak():
    # the model of a quadratic is exact, and its vertex lies between grid points
    fn = lambda t: np.stack([-(t - 1.3) ** 2 + 2.0, -2.0 * (t - 1.3), np.full(t.shape, -2.0)])
    got = sup_abs(*_taylor(fn), ((0.0, 3.0),), [(5,)])
    assert got.shape == (1, 1)
    assert math.isclose(got[0, 0], 2.0, rel_tol=0.0, abs_tol=1e-15)


def test_sup_endpoint_maximum():
    one, zero = np.ones, np.zeros
    rising = lambda t: np.stack([t, one(t.shape), zero(t.shape)])
    falling = lambda t: np.stack([1.0 - t, -one(t.shape), zero(t.shape)])
    assert sup_abs(*_taylor(rising), ((0.0, 1.0),), [(4,)])[0, 0] == 1.0
    assert sup_abs(*_taylor(falling), ((0.0, 1.0),), [(4,)])[0, 0] == 1.0


def test_sup_several_pieces_in_one_call():
    z = 0.1 + 3j  # f = Re e^(z t) = e^(0.1 t) cos 3t, and its derivatives
    fn = lambda t: np.multiply.outer(z ** np.arange(TAYLOR_ORDER + 1), np.exp(z * t)).real
    sample, expand, sampled, expanded = _recorded_search(fn)
    # |f| peaks near 2 pi / 3 in the second piece and near 4 pi / 3 in the
    # third, the higher one; one sample call serves every piece's grid and
    # one expand call every piece's argmax
    pieces = ((0.1, 0.9), (1.5, 2.5), (4.0, 4.5))
    got = sup_abs(sample, expand, pieces, [(9, 9, 9)])
    want = float(np.max(np.abs(fn(np.linspace(4.0, 4.5, 1_000_001))[0])))
    assert got.shape == (1, 3)
    assert math.isclose(got.max(), want, rel_tol=1e-12)
    assert [x.shape for x in sampled] == [(1, 27)] and [x.shape for x in expanded] == [(1, 3)]


def test_sup_matches_dense_scan():
    rng = np.random.default_rng(4)
    freqs = rng.uniform(-20.0, 20.0, 6)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    fn = _trig_rows(freqs, coeffs)
    pieces = ((-1.0, 0.3), (0.5, 2.0))
    got = sup_abs(*_taylor(fn), pieces, [(80, 80)]).max()
    scan = max(float(np.max(np.abs(fn(np.linspace(a, b, 100_000))[0]))) for a, b in pieces)
    # the scan's spacing (~1.5e-5) leaves it below the true peak by at most
    # |f''| h^2 / 8 ~ 1e-7 relative
    assert scan <= got <= scan * (1.0 + 1e-7)


def test_sup_per_piece_maxima():
    # each entry is its own piece's sup, not the sup of the union
    rng = np.random.default_rng(9)
    freqs = rng.uniform(-15.0, 15.0, 5)
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    fn = _trig_rows(freqs, coeffs)
    pieces = ((-2.0, -0.8), (0.0, 0.7), (1.1, 2.9))
    got = sup_abs(*_taylor(fn), pieces, [(60, 40, 90)])
    scans = [float(np.max(np.abs(fn(np.linspace(a, b, 100_000))[0]))) for a, b in pieces]
    assert got.shape == (1, 3)
    assert len(set(scans)) == 3
    # same spacing argument as test_sup_matches_dense_scan
    for value, scan in zip(got[0], scans):
        assert scan <= value <= scan * (1.0 + 1e-7)


def test_sup_off_grid_peak_in_few_calls():
    # sum_{|m| <= 8} e^(i m (x - sqrt 2)) peaks at 17 at x = sqrt 2, between grid points
    ms = np.arange(-8, 9)
    f = TrigPoly(2.0 * math.pi, ms, np.exp(-1j * ms * math.sqrt(2.0)))
    sampled, expanded = [], []
    n = int(math.ceil(2.0 * math.pi / panel_width(f.max_frequency))) + 1
    sample = _recorded(f.eval, sampled)
    expand = _recorded(lambda t: f.eval(t, derivatives=TAYLOR_ORDER), expanded)
    got = sup_abs(sample, expand, ((0.0, 2.0 * math.pi),), [(n,)])
    assert not np.any(np.linspace(0.0, 2.0 * math.pi, n) == math.sqrt(2.0))
    assert math.isclose(got[0, 0], 17.0, rel_tol=1e-13)
    assert len(sampled) == len(expanded) == 1


@pytest.mark.parametrize(
    "fn, piece, want",
    [
        # cos^2 is concave at u = 0.5, where g' < 0 points out of the piece
        (lambda u: np.stack([np.cos(u + r * math.pi / 2) for r in range(TAYLOR_ORDER + 1)]),
         (0.5, 1.5), math.cos(0.5)),
        # (1 + u^2)^2 is convex at u = -1, where g' < 0 points out of the piece
        (lambda u: np.stack([1.0 + u * u, 2.0 * u, np.full(u.shape, 2.0)]), (-1.0, 0.5), 2.0),
    ],
    ids=["concave", "convex"],
)
def test_sup_endpoint_maximum_in_few_calls(fn, piece, want):
    sample, expand, sampled, expanded = _recorded_search(fn)
    got = sup_abs(sample, expand, (piece,), [(9,)])
    assert got[0, 0] == want
    assert len(sampled) == len(expanded) == 1


def test_sup_constant_modulus_in_two_calls():
    # |e^(i lam x)| = 1 everywhere: the model's peak is 1 to rounding
    lam = 7.3
    fn = lambda t: np.multiply.outer((1j * lam) ** np.arange(TAYLOR_ORDER + 1), np.exp(1j * lam * t))
    sample, expand, sampled, expanded = _recorded_search(fn)
    got = sup_abs(sample, expand, ((0.0, 3.0), (4.0, 4.5)), [(40, 9)])
    assert np.allclose(got, 1.0, rtol=1e-15, atol=0.0)
    assert len(sampled) == len(expanded) == 1


def test_sup_zero_length_piece(recwarn):
    # h = 0 on the pieces (0.3, 0.3) and (2, 2): the model is f's value there, with
    # no warning; its row 0 may round apart from f.eval's value by an ulp
    f = TrigPoly(8.0, np.arange(-5, 6), np.linspace(1.0, 2.0, 11) + 0.5j)
    expand = lambda t: f.eval(t, derivatives=TAYLOR_ORDER)
    got = sup_abs(f.eval, expand, ((0.3, 0.3), (1.0, 2.0), (2.0, 2.0)), [(5, 9, 2)])
    assert math.isclose(got[0, 0], abs(f.eval(0.3)), rel_tol=1e-15)
    assert math.isclose(got[0, 2], abs(f.eval(2.0)), rel_tol=1e-15)
    assert got[0, 1] >= np.max(np.abs(f.eval(np.linspace(1.0, 2.0, 10_001))))
    assert not recwarn.list


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("nu", [4.0, 200.0])
def test_model_peak_matches_f_at_its_point(seed, nu):
    # the model's peak is |f| at the point it reports, and no point of a fine scan
    # of the bracket lies above it, at the widest spacing callers use: nu h = pi / 4
    rng = np.random.default_rng(seed)
    freqs = np.concatenate([[-nu, nu], rng.uniform(-nu, nu, 6)])
    coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    value = lambda t: np.exp(1j * np.multiply.outer(t, freqs)) @ coeffs
    h, x = math.pi / (4.0 * nu), rng.uniform(-1.0, 1.0, 6)
    # interior brackets, brackets at the end of a piece (one side empty), a point
    lo, hi = np.array([-h, -h, -h, 0.0, -h, 0.0]), np.array([h, h, h, h, 0.0, 0.0])
    peak, at = quadrature._model_peaks(_trig_rows(freqs, coeffs)(x), lo, hi)
    assert np.all((lo <= at) & (at <= hi))
    assert np.all(np.abs(peak - np.abs(value(x + at))) <= 1e-14 * peak)
    fine = np.abs(value(x + np.linspace(lo, hi, 20_001)))
    assert np.all(fine.max(axis=0) <= peak * (1.0 + 1e-14))


def test_sup_refuses_short_grids():
    fn = _trig_rows(np.array([1.0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        sup_abs(*_taylor(fn), ((0.0, 1.0), (2.0, 3.0)), [(5, 1)])


def _wave(freqs, coeffs):
    """Rows f, ..., f^(TAYLOR_ORDER) of sum_j coeffs_j exp(i freqs_j t), one term added at a time.

    Shape (21,) + t.shape.  Each value depends on its own point alone, as a
    K-function search needs.
    """

    def rows(t):
        total = np.zeros((TAYLOR_ORDER + 1,) + t.shape, dtype=np.complex128)
        for lam, c in zip(freqs, coeffs):
            powers = c * (1j * lam) ** np.arange(TAYLOR_ORDER + 1)
            total = total + np.multiply.outer(powers, np.exp(1j * lam * t))
        return total

    return rows


def _together(fns, hull):
    """(sample, expand) of K functions on (K, n) points, each recording a copy of its calls' x.

    Both refuse points outside `hull`, so padding may only repeat a row's own points.
    """
    sampled, expanded = [], []

    def rows(x):
        assert np.all((hull[0] <= x) & (x <= hull[1]))
        return np.stack([fn(row) for fn, row in zip(fns, x)], axis=1)

    sample, expand = _taylor(rows)
    return _recorded(sample, sampled), _recorded(expand, expanded), sampled, expanded


@pytest.mark.parametrize("take", [slice(None), slice(0, 1)], ids=["five", "one"])
def test_sup_k_functions_match_separate_searches(take):
    rng = np.random.default_rng(17)
    fns = [
        _wave(rng.uniform(-20.0, 20.0, 4), rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        _wave([7.3], [1.0]),  # constant modulus
        lambda t: np.stack([-(t - 2.3) ** 2 + 2.0, -2.0 * (t - 2.3), np.full(t.shape, -2.0)]
                           + [np.zeros(t.shape)] * (TAYLOR_ORDER - 2)),
        lambda t: np.stack([t, np.ones(t.shape)] + [np.zeros(t.shape)] * (TAYLOR_ORDER - 1)),
        _wave(rng.uniform(-5.0, 5.0, 2), rng.standard_normal(2) + 1j * rng.standard_normal(2)),
    ]
    pieces = ((0.5, 1.3), (1.5, 3.0), (3.0, 3.1), (3.5, 5.0))
    counts = [(40, 60, 5, 80), (9, 9, 9, 9), (5, 17, 3, 11), (2, 4, 6, 8), (90, 7, 2, 30)]
    fns, counts = fns[take], counts[take]
    sample, expand, sampled, expanded = _together(fns, (0.5, 5.0))
    got = sup_abs(sample, expand, pieces, counts)
    assert got.shape == (len(fns), len(pieces))
    # one grid call of K rows and one expansion at every (function, piece) pair
    assert len(sampled) == len(expanded) == 1
    assert sampled[0].shape == (len(fns), max(map(sum, counts)))
    assert expanded[0].shape == (len(fns), len(pieces))
    for k, (fn, row) in enumerate(zip(fns, counts)):
        sample, expand, own_sampled, own_expanded = _together([fn], (0.5, 5.0))
        alone = sup_abs(sample, expand, pieces, [row])
        assert repr(got[k].tolist()) == repr(alone[0].tolist())
        # function k's grid and argmaxes are those of its search alone
        assert sampled[0][k, : sum(row)].tobytes() == own_sampled[0][0, : sum(row)].tobytes()
        assert expanded[0][k].tobytes() == own_expanded[0][0].tobytes()


def test_sup_copy_of_last_point_brackets_its_cells():
    # row 0 is 0, 0.25, ..., 1 and four copies of 1; values that drift with the
    # column rank a copy above the real last point, which is expanded all the same,
    # with the cell to its left: the model finds the vertex 2 at 0.9, inside that cell
    rows = lambda t: np.stack([2.0 - (t - 0.9) ** 2, -2.0 * (t - 0.9), np.full(t.shape, -2.0)])
    drift = lambda t: rows(t)[0] + 1e-9 * np.arange(t.shape[-1])
    sample, expand, sampled, expanded = _recorded_search(rows)
    got = sup_abs(_recorded(drift, sampled), expand, [(0.0, 1.0)], [(5,), (9,)])
    assert sampled[0][0].tolist() == [0.0, 0.25, 0.5, 0.75] + [1.0] * 5
    assert expanded[0][0, 0] == 1.0
    assert math.isclose(got[0, 0], 2.0, rel_tol=0.0, abs_tol=1e-15)


@pytest.mark.parametrize(
    "counts",
    [
        [(9, 9), (9,)],  # ragged rows
        [(9, 9, 9), (9, 9, 9)],  # rows longer than the pieces
        [9],  # 1-D, one entry short
        [9, 9],  # 1-D: one function's counts still need shape (1, P)
        [[(9, 9)]],  # 3-D
    ],
    ids=["ragged", "long-rows", "short-1d", "1d", "3d"],
)
def test_sup_refuses_counts_that_do_not_match_pieces(counts):
    fn = _trig_rows(np.array([1.0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        sup_abs(*_taylor(fn), ((0.0, 1.0), (2.0, 3.0)), counts)


def test_golden_max_is_sup_abs():
    assert quadrature.golden_max is quadrature.sup_abs


def test_base_cell_layouts():
    width = 0.05
    # one full-period piece: 160 translates of its first panel
    assert base_cell([(0.0, 8.0)], width, 8.0, 1) == (((0.0, 0.05),), 160)
    sliver = [(0.1, 0.3), (4.1, 4.3)]
    assert base_cell(sliver, width, 8.0, 2) == (((0.1, 0.3),), 2)
    assert base_cell(sliver, width, 8.0, 1) == (tuple(sliver), 1)  # an aperiodic set
    # the fallbacks: offset is not 4; lengths and panel counts differ; a merged cell
    for pieces, period, copies in [
        ([(0.1, 0.3), (4.5, 4.7)], 8.0, 2),
        ([(0.1, 0.3), (4.1, 4.35)], 8.0, 2),
        ([(0.0, 0.2), (0.6, 1.2), (1.6, 2.0)], 2.0, 2),
    ]:
        assert base_cell(pieces, width, period, copies) == (tuple(pieces), 1)


def test_base_cell_partitions():
    # the classifier's unit partition of a length-32 torus is 32 translates of [0, 1]
    unit = [(float(i), float(i + 1)) for i in range(32)]
    assert base_cell(unit, 1.0 / 128.0, 32.0, len(unit)) == (((0.0, 1.0),), 32)
    uneven = [(0.0, 0.5), (0.5, 2.0), (2.0, 8.0)]
    assert base_cell(uneven, 0.0625, 8.0, len(uneven)) == (tuple(uneven), 1)


@pytest.mark.parametrize(
    "pieces, period, copies",
    [
        ([(0.0, 8.0)], 8.0, 1),
        ([(0.1, 0.3), (4.1, 4.3)], 8.0, 2),
        ([(float(i), i + 1.0) for i in range(8)], 8.0, 8),
    ],
    ids=["torus", "sliver", "unit_partition"],
)
def test_base_cell_nodes_lead_full_rule(pieces, period, copies):
    # the base rule has the bits of the first n/Q nodes and weights of the full rule
    base, q = base_cell(pieces, 0.05, period, copies)
    xs, ws = panel_nodes(pieces, 0.05)
    x0, w0 = panel_nodes(base, 0.05)
    assert q > 1 and x0.size * q == xs.size
    assert np.array_equal(x0, xs[: x0.size]) and np.array_equal(w0, ws[: w0.size])


# ---------------------------------------------------------------------------
# geometry caches: panel_nodes, base_cell and sup_abs's grid

_CACHES = (quadrature._rule, quadrature._base_cell, quadrature._sup_grid)


@pytest.fixture
def empty_caches():
    for cache in _CACHES:
        cache.cache_clear()
    yield
    for cache in _CACHES:
        cache.cache_clear()


def _geometries():
    """(pieces, period, copies) of every TRANSLATE_SETS set at L = 8, and extremal kept pieces."""
    from test_bandlimited import TRANSLATE_SETS

    from thickset.sets import period_ratio, two_sliver_set

    out = {
        name: (E.materialize(0.0, 8.0), 8.0, period_ratio(E, 8.0))
        for name, E in TRANSLATE_SETS.items()
    }
    out["extremal"] = (two_sliver_set(0.1).materialize(-4.0, 4.0), 8.0, 1)
    return out


@pytest.mark.parametrize("name", sorted(_geometries()))
@pytest.mark.parametrize("width", [1.0 / 128, 0.125, 0.3])
def test_cached_geometry_matches_builders(empty_caches, name, width):
    pieces, period, copies = _geometries()[name]
    rules = [_one_piece_rule(lo, hi, width) for lo, hi in pieces]
    # two functions with rows of unequal lengths: each row is its function's
    # np.linspace pieces, padded with its last point to the longest row
    counts = ([max(2, panel_count(lo, hi, width) + 1) for lo, hi in pieces],
              [2 + i % 3 for i in range(len(pieces))])
    lines = [np.concatenate([np.linspace(lo, hi, n) for (lo, hi), n in zip(pieces, row)])
             for row in counts]
    size = max(line.size for line in lines)
    grid = np.stack([np.pad(line, (0, size - line.size), mode="edge") for line in lines])
    ends = [k * size + np.cumsum(row) for k, row in enumerate(counts)]
    for _ in range(2):  # the building call, then the cached one
        xs, ws = panel_nodes(pieces, width)
        assert xs.tobytes() == np.concatenate([x for x, _ in rules]).tobytes()
        assert ws.tobytes() == np.concatenate([w for _, w in rules]).tobytes()
        cell = base_cell(pieces, width, period, copies)
        assert cell == quadrature._base_cell.__wrapped__(tuple(pieces), width, period, copies)
        got, first, last, span = quadrature._sup_grid(tuple(pieces), tuple(map(tuple, counts)))
        assert got.shape == grid.shape and got.tobytes() == grid.tobytes()
        assert first.tolist() == np.concatenate([e - row for e, row in zip(ends, counts)]).tolist()
        assert last.tolist() == (np.concatenate(ends) - 1).tolist()
        # each pair spans its points, and the last pair of a row its row's copies too
        spans = [list(row[:-1]) + [row[-1] + size - sum(row)] for row in counts]
        assert span.tolist() == sum(spans, [])
    nodes = GL_ORDER * sum(panel_count(lo, hi, width) for lo, hi in pieces)
    stored = nodes <= quadrature._CACHE_NODES  # else rebuilt, never stored
    assert [cache.cache_info().hits for cache in _CACHES] == [int(stored), 1, 1]


def test_cached_arrays_are_read_only(empty_caches):
    xs, ws = panel_nodes([(0.0, 1.0)], 0.25)
    calls = []

    def record(t):
        calls.append(t)
        return np.cos(t)

    expand = _taylor(_trig_rows(np.array([1.0]), np.array([1.0 + 0j])))[1]
    sup_abs(record, expand, [(0.0, 1.0)], [(9,)])
    start = len(calls)
    # K = 2 with rows of 14 and 11 points: the padded rectangle is cached too
    sup_abs(record, expand, [(0.0, 1.0), (2.0, 3.0)], [(9, 5), (4, 7)])
    assert calls[start].shape == (2, 14)
    for array in (xs, ws, calls[0], calls[start]):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_equal_geometry_hits_one_entry(empty_caches):
    forms = [
        ([(0.0, 0.5), (1.0, 1.25)], 0.1),
        (((0.0, 0.5), (1.0, 1.25)), np.float64(0.1)),
        ([[np.float64(0.0), 0.5], [1, 1.25]], [0.1, np.float64(0.1)]),
    ]
    first = panel_nodes(*forms[0])
    for pieces, width in forms[1:]:
        got = panel_nodes(pieces, width)
        assert got[0] is first[0] and got[1] is first[1]
    info = quadrature._rule.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    cell = base_cell([(0.0, 1.0)], 0.25, 8.0, 1)
    assert base_cell(((np.float64(0.0), 1),), np.float64(0.25), 8, np.int64(1)) == cell
    assert quadrature._base_cell.cache_info().hits == 1


def test_large_rule_is_never_stored(empty_caches):
    width = 1.0 / 256
    n = panel_count(0.0, 20.0, width)
    assert GL_ORDER * n > quadrature._CACHE_NODES
    a, b = panel_nodes([(0.0, 20.0)], width), panel_nodes([(0.0, 20.0)], width)
    assert a[0] is not b[0] and a[0].tobytes() == b[0].tobytes()
    assert quadrature._rule.cache_info().currsize == 0
    search = _taylor(_trig_rows(np.array([1.0]), np.array([1.0 + 0j])))
    sup_abs(*search, [(0.0, 1.0)], [(quadrature._CACHE_NODES + 1,)])
    # 2051 distinct points, but a 2 x 2049 rectangle: the bound counts what is stored
    sup_abs(*search, [(0.0, 1.0)], [(quadrature._CACHE_NODES // 2 + 1,), (2,)])
    assert quadrature._sup_grid.cache_info().currsize == 0


def test_caches_are_bounded(empty_caches):
    search = _taylor(_trig_rows(np.array([1.0]), np.array([1.0 + 0j])))
    for i in range(100):
        width = 0.5 / (i + 1)
        panel_nodes([(0.0, 1.0)], width)
        base_cell([(0.0, 1.0)], width, 1.0, 1)
        sup_abs(*search, [(0.0, 1.0)], [(i + 2,)])
    for cache in _CACHES:
        assert cache.cache_info().currsize <= quadrature._CACHE_ENTRIES == 32
