"""Composite Gauss-Legendre panels, per-piece integrals and a batched Newton sup search.

The fixed order-16 rule integrates polynomials up to degree 31 exactly per
panel; callers control accuracy through the panel width alone.  One call
of ``panel_nodes``, ``piece_integrals`` or ``sup_abs`` (rows f, f', f'')
covers every piece at once; only this module knows how nodes map to pieces.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

GL_ORDER = 16

# Default panel oversampling: a panel is 1/RESOLUTION of min(1, 2 pi / nu_max).
RESOLUTION = 8

# Points of sup_abs's one zoom round; it narrows a grid bracket to 1/8.
ZOOM_POINTS = 17
# sup_abs stops a piece when its Newton step or bracket is this small (abscissa
# units) or |g'| <= 2 _ROUNDING |f| |f'| (|f| constant), or after _ZOOM_ROUNDS rounds.
ZOOM_TOL = 1e-12
_ROUNDING = 4.0 * np.finfo(float).eps
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

    Piece [lo, hi] gets n = panel_count(lo, hi, max_width) equal panels with
    the edges of np.linspace(lo, hi, n + 1) and half-width (hi - lo) / (2 n),
    so the result has the bits of the single-piece rules concatenated; a
    piece with hi <= lo adds no node.
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
    half = 0.5 * step[:, None]  # not ((lo + step) - lo) / 2, which rounds far from 0
    x, w = _gl_rule(order)
    nodes = (0.5 * (left + right))[:, None] + np.repeat(half * x, counts, axis=0)
    return nodes.ravel(), np.repeat(half * w, counts, axis=0).ravel()


def base_cell(pieces, max_width: float, period: float, copies: int) -> tuple[tuple, int]:
    """Base pieces and Q such that the rule on `pieces` is Q translates by period/Q of theirs.

    Q = 1 returns `pieces` (the full rule).  One piece of length `period` with n > 1
    panels is n translates of its first panel; else `copies` runs of pieces with equal
    panel counts and endpoints r * period / copies from the first run's, to rounding,
    are translates of the first run.  The translates, r-major, fall into len(pieces)
    equal runs; the base rule is the full rule's first n/Q nodes and weights, bitwise
    (one piece: weights only when lo = 0, else to rounding).
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
    """Max of |f| over each closed piece, one entry per piece.

    evaluate(x) gives the rows f, f', f'' at the 1-D points x, shape (3, x.size);
    one call serves every piece still searched.  Piece i is sampled at
    counts[i] >= 2 equally spaced points and the two cells around its grid
    argmax are zoomed once at ZOOM_POINTS points.  Safeguarded Newton steps on
    g = |f|^2 then refine the zoom's best point x: the sign of g' = 2 Re(f* f')
    moves an end of the bracket (two zoom cells) to x, and the next point is
    x - g'/g'' if g'' < 0 and that lies in the bracket, else the bracket's
    midpoint.  A piece is done when its step or bracket is at most ZOOM_TOL (a
    maximum at a piece endpoint closes the bracket there), or |g'| is rounding
    noise (|f| constant).  Entry i is the largest value sampled on piece i.
    Like any local refinement it finds the peak the grid argmax sits on, which
    need not be the highest one.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.min() < 2:
        raise ValueError(f"sup_abs needs at least 2 grid points per piece, got {counts.min()}")
    start, stop = np.array(pieces, dtype=float).reshape(-1, 2).T
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    j = np.arange(last[-1] + 1) - np.repeat(first, counts)
    grid = j * np.repeat((stop - start) / (counts - 1), counts) + np.repeat(start, counts)
    grid[last] = stop  # the bits of np.linspace(start, stop, counts)
    vals = np.abs(evaluate(grid)[0])
    best = np.maximum.reduceat(vals, first)
    hits = np.flatnonzero(vals == np.repeat(best, counts))
    k = hits[np.searchsorted(hits, first)]  # each piece's first argmax
    lo, hi = grid[np.maximum(k - 1, first)], grid[np.minimum(k + 1, last)]
    xs = lo[:, None] + (hi - lo)[:, None] * (np.arange(ZOOM_POINTS) / (ZOOM_POINTS - 1))
    xs[:, -1] = hi
    rows = evaluate(xs.ravel()).reshape((3,) + xs.shape)
    live, k = np.arange(best.size), np.argmax(np.abs(rows[0]), axis=1)
    x, rows = xs[live, k], rows[:, live, k]
    lo, hi = xs[live, np.maximum(k - 1, 0)], xs[live, np.minimum(k + 1, ZOOM_POINTS - 1)]
    size, dsize = np.abs(rows[:2])
    best = np.maximum(best, size)
    for _ in range(_ZOOM_ROUNDS - 1):
        slope, curve = (rows[0].conj() * rows[1:]).real  # g'/2, and g''/2 less |f'|^2
        curve += dsize**2
        lo, hi = np.where(slope > 0, x, lo), np.where(slope < 0, x, hi)
        x1 = x + np.divide(slope, -curve, out=np.full_like(x, np.inf), where=curve < 0)
        x1 = np.where((lo <= x1) & (x1 <= hi), x1, (lo + hi) / 2)
        keep = np.minimum(hi - lo, np.abs(x1 - x)) > ZOOM_TOL
        keep &= np.abs(slope) > _ROUNDING * size * dsize
        live, x, lo, hi = live[keep], x1[keep], lo[keep], hi[keep]
        if not live.size:
            break
        rows = evaluate(x)
        size, dsize = np.abs(rows[:2])
        best[live] = np.maximum(best[live], size)
    return best


# benchmark/tracing.py records the sup search under its former name.
golden_max = sup_abs
