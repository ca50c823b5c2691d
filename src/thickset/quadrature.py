"""Composite Gauss-Legendre panels and a batched sup search.

The fixed order-16 rule integrates polynomials up to degree 31 exactly per
panel; callers control accuracy through the panel width alone.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

GL_ORDER = 16

# Points per zoom round of sup_abs; each round narrows a bracket to 1/8.
ZOOM_POINTS = 17
# sup_abs stops when every bracket is this narrow (abscissa units), or
# after _ZOOM_ROUNDS rounds, for brackets that rounding keeps wider.
ZOOM_TOL = 1e-12
_ZOOM_ROUNDS = 64


@lru_cache(maxsize=8)
def _gl_rule(order: int = GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_width(nu_max: float, resolution: int) -> float:
    """Panel width min(1, 2 pi / nu_max) / resolution for top frequency nu_max."""
    base = 1.0 if nu_max == 0.0 else min(1.0, 2.0 * math.pi / nu_max)
    return base / resolution


def panel_count(lo: float, hi: float, max_width: float) -> int:
    """Number of equal panels of width <= max_width covering [lo, hi]."""
    if hi <= lo:
        return 0
    return max(1, int(math.ceil((hi - lo) / max_width - 1e-12)))


def panel_nodes(
    lo: float, hi: float, max_width: float, order: int = GL_ORDER
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [lo, hi]."""
    n = panel_count(lo, hi, max_width)
    if n == 0:
        return np.empty(0), np.empty(0)
    edges = np.linspace(lo, hi, n + 1)
    x, w = _gl_rule(order)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w, (n, order)).ravel()
    return nodes, weights.copy()


def sup_abs(evaluate, pieces, counts) -> np.ndarray:
    """Max of |evaluate| over each closed piece [lo, hi], one entry per piece.

    Piece i is sampled at counts[i] >= 2 equally spaced points, every piece
    in one call of the vectorized `evaluate`.  The two grid cells around
    each piece's grid argmax are then zoomed, all pieces in one call per
    round: ZOOM_POINTS equally spaced points, keeping the two cells around
    the best, until every bracket is at most ZOOM_TOL wide.  Entry i is the
    largest value sampled on piece i, so the sup over the union is the
    `.max()` of the result.  Like any local refinement it finds the peak the
    grid argmax sits on, which need not be the highest one.
    """
    grids = [np.linspace(lo, hi, n) for (lo, hi), n in zip(pieces, counts)]
    vals = np.split(np.abs(evaluate(np.concatenate(grids))), np.cumsum(counts)[:-1])
    best = np.array([v.max() for v in vals])
    argmax = [int(np.argmax(v)) for v in vals]
    lo = np.array([xs[max(i - 1, 0)] for xs, i in zip(grids, argmax)])
    hi = np.array([xs[min(i + 1, xs.size - 1)] for xs, i in zip(grids, argmax)])
    rows = np.arange(lo.size)
    steps = np.linspace(0.0, 1.0, ZOOM_POINTS)
    for _ in range(_ZOOM_ROUNDS):
        if np.all(hi - lo <= ZOOM_TOL):
            break
        xs = lo[:, None] + (hi - lo)[:, None] * steps
        xs[:, -1] = hi
        vals = np.abs(evaluate(xs.ravel())).reshape(xs.shape)
        k = np.argmax(vals, axis=1)
        best = np.maximum(best, vals[rows, k])
        lo = xs[rows, np.maximum(k - 1, 0)]
        hi = xs[rows, np.minimum(k + 1, ZOOM_POINTS - 1)]
    return best


# benchmark/tracing.py records the sup search under its former name.
golden_max = sup_abs
