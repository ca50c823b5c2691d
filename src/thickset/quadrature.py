"""Composite Gauss-Legendre panels, per-piece integrals and a batched sup search.

The fixed order-16 rule integrates polynomials up to degree 31 exactly per
panel; callers control accuracy through the panel width alone.  One call
of ``panel_nodes``, ``piece_integrals`` or ``sup_abs`` covers every piece
of a set at once, and only this module knows how nodes map to pieces.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

GL_ORDER = 16

# Default panel oversampling: a panel is 1/RESOLUTION of min(1, 2 pi / nu_max).
RESOLUTION = 8

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


def panel_nodes(pieces, max_width: float, order: int = GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on every piece (lo, hi), in order.

    Piece [lo, hi] gets panel_count(lo, hi, max_width) equal panels with the
    edges of np.linspace(lo, hi, n + 1), so the result has the bits of the
    single-piece rules concatenated; a piece with hi <= lo adds no node.
    """
    counts = np.array([panel_count(lo, hi, max_width) for lo, hi in pieces], dtype=np.int64)
    lo, hi = np.array(pieces, dtype=float).reshape(-1, 2)[counts > 0].T
    counts = counts[counts > 0]
    step, last = (hi - lo) / counts, np.cumsum(counts)
    j = np.arange(last[-1] if last.size else 0) - np.repeat(last - counts, counts)
    left = j * np.repeat(step, counts) + np.repeat(lo, counts)
    right = np.empty_like(left)  # the next panel's left edge, hi on a piece's last panel
    right[:-1] = left[1:]
    right[last - 1] = hi
    half = 0.5 * (np.where(counts == 1, hi, step + lo) - lo)[:, None]
    x, w = _gl_rule(order)
    nodes = (0.5 * (left + right))[:, None] + np.repeat(half * x, counts, axis=0)
    return nodes.ravel(), np.repeat(half * w, counts, axis=0).ravel()


def base_cell(pieces, max_width: float, period: float, copies: int) -> tuple[tuple, int]:
    """Base pieces and Q such that the rule on `pieces` is Q translates by period/Q of theirs.

    Q = 1 returns `pieces` (the full rule).  One piece of length `period` with n > 1
    panels is n translates of its first panel; else `copies` runs of pieces with equal
    panel counts and endpoints r * period / copies from the first run's, to rounding,
    are translates of the first run.  The translates, r-major, fall into len(pieces)
    equal runs; the base rule is the full rule's first n/Q nodes and weights, bitwise.
    """
    ends = np.array(pieces, dtype=float).reshape(-1, 2)
    tol = 16.0 * np.finfo(float).eps * period
    if len(ends) == 1 and abs(ends[0, 1] - ends[0, 0] - period) <= tol:
        (lo, hi), n = pieces[0], panel_count(*pieces[0], max_width)
        if n > 1:
            return ((lo, (hi - lo) / n + lo),), n
    elif copies > 1 and len(ends) % copies == 0:
        counts = np.array([panel_count(lo, hi, max_width) for lo, hi in ends]).reshape(copies, -1)
        runs = ends.reshape(copies, -1, 2) - (period / copies) * np.arange(copies)[:, None, None]
        if np.all(counts == counts[0]) and np.all(np.abs(runs - runs[0]) <= tol):
            return tuple(pieces[: len(ends) // copies]), copies
    return tuple(pieces), 1


def piece_integrals(integrand, pieces, max_width: float, block: int | None = None) -> np.ndarray:
    """Composite-rule integral of `integrand` over each piece, shape (..., len(pieces)).

    integrand(x, piece) gets 1-D ``panel_nodes`` x and each node's piece
    index, and returns shape (..., x.size).  Nodes go through it in runs of
    at most `block` (all at once for None), each added to its pieces' sums
    by np.add.reduceat, so a run may split a piece.  A piece with hi <= lo
    has no node and integrates to 0.
    """
    xs, ws = panel_nodes(pieces, max_width)
    sizes = [GL_ORDER * panel_count(lo, hi, max_width) for lo, hi in pieces]
    owner = np.repeat(np.arange(len(pieces)), sizes)
    run = max(1, xs.size if block is None else block)
    total = None
    for i in range(0, max(xs.size, 1), run):  # one empty run when there is no node
        ids = owner[i : i + run]
        cuts = np.flatnonzero(np.concatenate((ids[:1] + 1, ids[1:] - ids[:-1])))  # piece starts
        sums = np.add.reduceat(ws[i : i + run] * integrand(xs[i : i + run], ids), cuts, axis=-1)
        if total is None:
            total = np.zeros(sums.shape[:-1] + (len(pieces),), dtype=sums.dtype)
        total[..., ids[cuts]] += sums
    return total


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
