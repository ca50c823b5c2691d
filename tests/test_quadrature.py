"""Panel Gauss-Legendre rule and the batched sup search."""
import math

import numpy as np

from thickset.quadrature import GL_ORDER, panel_count, panel_nodes, panel_width, sup_abs


def test_panel_count_ceils():
    assert panel_count(0.0, 1.0, 0.5) == 2
    assert panel_count(0.0, 1.0, 0.3) == 4
    assert panel_count(0.0, 1.0, 2.0) == 1


def test_high_degree_polynomial_exact():
    # order-16 Gauss-Legendre integrates degree <= 31 exactly per panel
    xs, ws = panel_nodes(0.0, 1.0, 1.0)
    got = float(ws @ xs ** 31)
    assert math.isclose(got, 1.0 / 32.0, rel_tol=1e-13)


def test_oscillatory_integral():
    xs, ws = panel_nodes(0.0, 2.0 * math.pi, 0.25)
    got = float(ws @ np.sin(xs) ** 2)
    assert math.isclose(got, math.pi, rel_tol=1e-12)


def test_weights_sum_to_length():
    xs, ws = panel_nodes(-1.5, 4.0, 0.37)
    assert math.isclose(float(ws.sum()), 5.5, rel_tol=1e-13)
    assert len(xs) % GL_ORDER == 0


def test_panel_width_tracks_top_frequency():
    assert panel_width(0.0, 8) == 1.0 / 8
    assert panel_width(math.pi, 4) == 1.0 / 4
    assert panel_width(4.0 * math.pi, 8) == 0.5 / 8


def test_sup_interior_quadratic_peak():
    # the zoom keeps the best sample of a 17-point grid, so the value error
    # is the square of the final bracket width
    fn = lambda t: -(t - 1.3) ** 2 + 2.0
    got = sup_abs(fn, ((0.0, 3.0),), (5,))
    assert got.shape == (1,)
    assert math.isclose(got[0], 2.0, rel_tol=0.0, abs_tol=1e-15)


def test_sup_endpoint_maximum():
    assert sup_abs(lambda t: t, ((0.0, 1.0),), (4,))[0] == 1.0
    assert sup_abs(lambda t: 1.0 - t, ((0.0, 1.0),), (4,))[0] == 1.0


def test_sup_several_pieces_in_one_call():
    fn = lambda t: np.cos(3.0 * t) * np.exp(0.1 * t)
    calls = []

    def counted(t):
        calls.append(t.size)
        return fn(t)

    # |f| peaks near 2 pi / 3 in the second piece and near 4 pi / 3 in the
    # third, the higher one; the grids' argmaxes are refined together, so
    # one call serves every piece per round
    pieces = ((0.1, 0.9), (1.5, 2.5), (4.0, 4.5))
    got = sup_abs(counted, pieces, (9, 9, 9))
    want = float(np.max(np.abs(fn(np.linspace(4.0, 4.5, 1_000_001)))))
    assert got.shape == (3,)
    assert math.isclose(got.max(), want, rel_tol=1e-12)
    assert calls[0] == 27
    assert all(size == 3 * 17 for size in calls[1:])


def test_sup_matches_dense_scan():
    rng = np.random.default_rng(4)
    freqs = rng.uniform(-20.0, 20.0, 6)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    fn = lambda t: np.exp(1j * np.outer(t, freqs)) @ coeffs
    pieces = ((-1.0, 0.3), (0.5, 2.0))
    got = sup_abs(fn, pieces, (80, 80)).max()
    scan = max(float(np.max(np.abs(fn(np.linspace(a, b, 100_000))))) for a, b in pieces)
    # the scan's spacing (~1.5e-5) leaves it below the true peak by at most
    # |f''| h^2 / 8 ~ 1e-7 relative
    assert scan <= got <= scan * (1.0 + 1e-7)


def test_sup_per_piece_maxima():
    # each entry is its own piece's sup, not the sup of the union
    rng = np.random.default_rng(9)
    freqs = rng.uniform(-15.0, 15.0, 5)
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    fn = lambda t: np.exp(1j * np.outer(t, freqs)) @ coeffs
    pieces = ((-2.0, -0.8), (0.0, 0.7), (1.1, 2.9))
    got = sup_abs(fn, pieces, (60, 40, 90))
    scans = [float(np.max(np.abs(fn(np.linspace(a, b, 100_000))))) for a, b in pieces]
    assert got.shape == (3,)
    assert len(set(scans)) == 3
    # same spacing argument as test_sup_matches_dense_scan
    for value, scan in zip(got, scans):
        assert scan <= value <= scan * (1.0 + 1e-7)
