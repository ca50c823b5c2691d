"""Panel Gauss-Legendre rule, per-piece integrals and the batched sup search."""
import math

import numpy as np
import pytest

from thickset import quadrature
from thickset.bandlimited import TrigPoly
from thickset.quadrature import (
    GL_ORDER,
    base_cell,
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


def test_piece_integrals_one_row_and_no_nodes():
    got = piece_integrals(lambda x, _: np.sin(x) ** 2, [(0.0, 2.0 * math.pi)], 0.25, block=7)
    assert got.shape == (1,)
    assert math.isclose(got[0], math.pi, rel_tol=1e-12)
    # every piece empty: one empty run fixes the shape and dtype of the zeros
    empty = piece_integrals(_stacked, [(1.0, 1.0), (3.0, 2.0)], 0.1)
    assert empty.shape == (2, 2) and empty.dtype == complex and not empty.any()
    assert piece_integrals(_stacked, [], 0.1).shape == (2, 0)


def test_panel_width_tracks_top_frequency():
    assert panel_width(0.0, 8) == 1.0 / 8
    assert panel_width(math.pi, 4) == 1.0 / 4
    assert panel_width(4.0 * math.pi, 8) == 0.5 / 8


def _trig_rows(freqs, coeffs):
    """Rows f, f', f'' of f(t) = sum_j coeffs_j exp(i freqs_j t), as sup_abs takes them."""
    columns = coeffs * (1j * freqs) ** np.arange(3)[:, None]
    return lambda t: columns @ np.exp(1j * np.outer(freqs, t))


def _counted(evaluate, calls):
    """One-argument wrapper that records each call's point count."""

    def counted(t):
        calls.append(t.size)
        return evaluate(t)

    return counted


def test_sup_interior_quadratic_peak():
    # Newton on g = f^2 lands on the vertex; the value error is rounding
    fn = lambda t: np.stack([-(t - 1.3) ** 2 + 2.0, -2.0 * (t - 1.3), np.full(t.shape, -2.0)])
    got = sup_abs(fn, ((0.0, 3.0),), (5,))
    assert got.shape == (1,)
    assert math.isclose(got[0], 2.0, rel_tol=0.0, abs_tol=1e-15)


def test_sup_endpoint_maximum():
    one, zero = np.ones, np.zeros
    assert sup_abs(lambda t: np.stack([t, one(t.shape), zero(t.shape)]), ((0.0, 1.0),), (4,))[0] == 1.0
    assert sup_abs(lambda t: np.stack([1.0 - t, -one(t.shape), zero(t.shape)]), ((0.0, 1.0),), (4,))[0] == 1.0


def test_sup_several_pieces_in_one_call():
    def fn(t):
        c, s, e = np.cos(3.0 * t), np.sin(3.0 * t), np.exp(0.1 * t)
        return np.stack([c * e, (0.1 * c - 3.0 * s) * e, (-8.99 * c - 0.6 * s) * e])

    calls = []
    # |f| peaks near 2 pi / 3 in the second piece and near 4 pi / 3 in the
    # third, the higher one; the grids' argmaxes are refined together, so
    # one call serves every piece per round
    pieces = ((0.1, 0.9), (1.5, 2.5), (4.0, 4.5))
    got = sup_abs(_counted(fn, calls), pieces, (9, 9, 9))
    want = float(np.max(np.abs(fn(np.linspace(4.0, 4.5, 1_000_001))[0])))
    assert got.shape == (3,)
    assert math.isclose(got.max(), want, rel_tol=1e-12)
    assert calls[0] == 27
    assert calls[1] == 3 * 17
    assert all(size <= 3 for size in calls[2:])


def test_sup_matches_dense_scan():
    rng = np.random.default_rng(4)
    freqs = rng.uniform(-20.0, 20.0, 6)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    fn = _trig_rows(freqs, coeffs)
    pieces = ((-1.0, 0.3), (0.5, 2.0))
    got = sup_abs(fn, pieces, (80, 80)).max()
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
    got = sup_abs(fn, pieces, (60, 40, 90))
    scans = [float(np.max(np.abs(fn(np.linspace(a, b, 100_000))[0]))) for a, b in pieces]
    assert got.shape == (3,)
    assert len(set(scans)) == 3
    # same spacing argument as test_sup_matches_dense_scan
    for value, scan in zip(got, scans):
        assert scan <= value <= scan * (1.0 + 1e-7)


def test_sup_off_grid_peak_in_few_calls():
    # sum_{|m| <= 8} e^(i m (x - sqrt 2)) peaks at 17 at x = sqrt 2, between grid points
    ms = np.arange(-8, 9)
    f = TrigPoly(2.0 * math.pi, ms, np.exp(-1j * ms * math.sqrt(2.0)))
    calls = []
    n = int(math.ceil(2.0 * math.pi / panel_width(f.max_frequency, 8))) + 1
    got = sup_abs(_counted(lambda t: f.eval(t, derivatives=2), calls), ((0.0, 2.0 * math.pi),), (n,))
    assert not np.any(np.linspace(0.0, 2.0 * math.pi, n) == math.sqrt(2.0))
    assert math.isclose(got[0], 17.0, rel_tol=1e-13)
    assert len(calls) <= 8


@pytest.mark.parametrize(
    "fn, piece, want",
    [
        # cos^2 is concave at u = 0.5, where g' < 0 closes the bracket
        (lambda u: np.stack([np.cos(u), -np.sin(u), -np.cos(u)]), (0.5, 1.5), math.cos(0.5)),
        # (1 + u^2)^2 is convex at u = -1, where g' < 0 closes the bracket
        (lambda u: np.stack([1.0 + u * u, 2.0 * u, np.full(u.shape, 2.0)]), (-1.0, 0.5), 2.0),
    ],
    ids=["concave", "convex"],
)
def test_sup_endpoint_maximum_in_few_calls(fn, piece, want):
    calls = []
    got = sup_abs(_counted(fn, calls), (piece,), (9,))
    assert got[0] == want
    assert len(calls) <= 8


def test_sup_constant_modulus_stops_at_rounding():
    # |e^(i lam x)| = 1 everywhere: g' is rounding noise after the zoom round
    lam = 7.3
    fn = lambda t: np.exp(1j * lam * t) * np.array([1.0, 1j * lam, -lam * lam])[:, None]
    calls = []
    got = sup_abs(_counted(fn, calls), ((0.0, 3.0), (4.0, 4.5)), (40, 9))
    assert np.allclose(got, 1.0, rtol=1e-15, atol=0.0)
    assert len(calls) == 2


def test_sup_refuses_short_grids():
    fn = _trig_rows(np.array([1.0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        sup_abs(fn, ((0.0, 1.0), (2.0, 3.0)), (5, 1))


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
