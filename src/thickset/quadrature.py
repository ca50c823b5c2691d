"""Composite Gauss-Legendre panels, per-piece integrals and a batched Taylor-model sup search.

The order-16 rule is exact on polynomials of degree <= 31 per panel; callers set accuracy
by the panel width, one for all pieces or one per piece, and ``kinked_integrals`` also cuts
pieces where a second rule disagrees.  One ``panel_nodes``, ``piece_integrals`` or
``sup_abs`` call covers every piece, and one ``sup_abs`` call searches K functions over
them, laid out as K rows; only this module knows how nodes map to pieces.  Node rules,
base cells and sup grids depend on the pieces and the panel or grid counts alone, so each
is built once per process and kept, read-only, in an LRU cache; a rule or grid of more
than _CACHE_NODES points is rebuilt per call.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

GL_ORDER = 16

# Default panel oversampling: a panel is 1/RESOLUTION of min(1, 2 pi / nu_max).
RESOLUTION = 8

# sup_abs models f at a grid argmax from its rows f .. f^(TAYLOR_ORDER): a scan, then Newton steps.
TAYLOR_ORDER, _NEWTON_STEPS = 20, 3
_ORDERS = np.arange(TAYLOR_ORDER + 1.0)
_SLOPE = np.diag(_ORDERS[1:], -1)  # coefficients of a polynomial to those of its derivative
_ROWS = np.stack([np.eye(len(_ORDERS)), _SLOPE, _SLOPE @ _SLOPE], 2).reshape(len(_ORDERS), -1) + 0j
_SCAN = np.linspace(-1.0, 1.0, 33)  # grid cells in 32 steps; 0 and +-1 among its points
_SCAN_POWERS = _SCAN ** _ORDERS[:, None] + 0j

# Entries of each geometry cache, and the most points of a rule or grid it keeps.
_CACHE_ENTRIES, _CACHE_NODES = 32, 4096


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=1)
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    return _read_only(*np.polynomial.legendre.leggauss(GL_ORDER))


def panel_width(nu_max: float, resolution: int) -> float:
    """Panel width min(1, 2 pi / nu_max) / resolution for top frequency nu_max."""
    base = 1.0 if nu_max == 0.0 else min(1.0, 2.0 * math.pi / nu_max)
    return base / resolution


def panel_count(lo: float, hi: float, max_width: float) -> int:
    """Number of equal panels of width <= max_width covering [lo, hi]."""
    if hi <= lo:
        return 0
    return max(1, int(math.ceil((hi - lo) / max_width - 1e-12)))


def _panel_counts(pieces, max_width) -> list[int]:
    """panel_count of each piece at `max_width`: one float, or a sequence of one per piece."""
    widths = [max_width] * len(pieces) if np.isscalar(max_width) else max_width
    return [panel_count(lo, hi, width) for (lo, hi), width in zip(pieces, widths, strict=True)]


def _cached(build, points: int, pieces, *key):
    """build(pieces as float pairs, *key), through its cache unless above _CACHE_NODES points."""
    pieces = tuple((float(lo), float(hi)) for lo, hi in pieces)
    return (build if points <= _CACHE_NODES else build.__wrapped__)(pieces, *key)


def panel_nodes(pieces, max_width) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on every piece (lo, hi), in order.

    Piece [lo, hi] gets n = panel_count(lo, hi, w) equal panels, w being
    `max_width` or, for a sequence, the piece's own entry, with the edges of
    np.linspace(lo, hi, n + 1) and half-width (hi - lo) / (2 n), so the
    result has the bits of the single-piece rules concatenated; a piece with
    hi <= lo adds no node.  The arrays are read-only and may be shared.
    """
    counts = tuple(_panel_counts(pieces, max_width))
    return _cached(_rule, GL_ORDER * sum(counts), pieces, counts)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _rule(pieces, counts) -> tuple[np.ndarray, np.ndarray]:
    """panel_nodes of the float pairs `pieces` at the given panel counts."""
    counts = np.array(counts, dtype=np.int64)
    lo, hi = np.array(pieces, dtype=float).reshape(-1, 2)[counts > 0].T
    counts = counts[counts > 0]
    step, last = (hi - lo) / counts, np.cumsum(counts)
    j = np.arange(last[-1] if last.size else 0) - np.repeat(last - counts, counts)
    left = j * np.repeat(step, counts) + np.repeat(lo, counts)
    right = np.empty_like(left)  # the next panel's left edge, hi on a piece's last panel
    right[:-1] = left[1:]
    right[last - 1] = hi
    half = 0.5 * step[:, None]  # not ((lo + step) - lo) / 2, which rounds far from 0
    x, w = _gl_rule()
    nodes = (0.5 * (left + right))[:, None] + np.repeat(half * x, counts, axis=0)
    return _read_only(nodes.ravel(), np.repeat(half * w, counts, axis=0).ravel())


def base_cell(pieces, max_width: float, period: float, copies: int) -> tuple[tuple, int]:
    """Base pieces and Q such that the rule on `pieces` is Q translates by period/Q of theirs.

    Q = 1 returns `pieces` (the full rule).  One piece of length `period` with n > 1
    panels is n translates of its first panel; else `copies` runs of pieces with equal
    panel counts and endpoints r * period / copies from the first run's, to rounding,
    are translates of the first run.  The translates, r-major, fall into len(pieces)
    equal runs; the base rule is the full rule's first n/Q nodes and weights, bitwise
    (one piece: weights only when lo = 0, else to rounding).
    """
    return _cached(_base_cell, 0, pieces, float(max_width), float(period), int(copies))


@lru_cache(maxsize=_CACHE_ENTRIES)
def _base_cell(pieces, max_width, period, copies) -> tuple[tuple, int]:
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


def piece_integrals(integrand, pieces, max_width, block: int | None = None) -> np.ndarray:
    """Composite-rule integral of `integrand` over each piece, shape (..., len(pieces)).

    integrand(x, piece) gets 1-D ``panel_nodes(pieces, max_width)`` x and
    each node's piece index, and returns shape (..., x.size).  Nodes go
    through it in runs of at most `block` (all at once for None), each added
    to its pieces' sums by np.add.reduceat, so a run may split a piece.  A
    piece with hi <= lo has no node and integrates to 0.
    """
    xs, ws = panel_nodes(pieces, max_width)
    sizes = [GL_ORDER * count for count in _panel_counts(pieces, max_width)]
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


def kinked_integrals(integrand, pieces, widths) -> np.ndarray:
    """``piece_integrals`` of a real integrand with kinks, such as |f|^p at p not even.

    A piece of n panels at its entry w of `widths` is also integrated on 2n + 1 panels,
    sharing no inner edge, and takes the finer value once the two agree to 1e-14 of its
    first finer value; else it is cut at 0.4 or 0.6 of its length, where the integrand is
    larger, and both halves go on at width 0.6 w.  Round 40 keeps the finer value.
    integrand(x, piece) sees the caller's piece indices in nondecreasing order.
    """
    ends = np.array(pieces, dtype=float).reshape(-1, 2)
    owner, total = np.arange(len(ends)), np.zeros(len(ends))
    width = np.array(widths, dtype=float)
    for depth in range(40):
        counts = np.array(_panel_counts(ends.tolist(), width.tolist()))
        rules = np.stack([width, (ends[:, 1] - ends[:, 0]) / (2 * counts + 0.5)], 1)
        got = piece_integrals(lambda x, piece: integrand(x, owner[piece // 2]),
                              ends.repeat(2, axis=0).tolist(), rules.ravel().tolist())
        got = got.reshape(-1, 2)
        scale = got[:, 1] if depth == 0 else scale
        done = (np.abs(got[:, 1] - got[:, 0]) <= 1e-14 * scale[owner]) | (depth == 39)
        np.add.at(total, owner[done], got[done, 1])
        bad = np.flatnonzero(~done)
        if not bad.size:
            return total
        tries = ends[bad] @ np.array([[0.6, 0.4], [0.4, 0.6]])
        size = integrand(tries.ravel(), owner[bad].repeat(2)).reshape(-1, 2)
        cut = tries[np.arange(bad.size), np.argmax(size, axis=1)]
        ends = np.stack([ends[bad, 0], cut, cut, ends[bad, 1]], 1).reshape(-1, 2)
        owner, width = owner[bad].repeat(2), (0.6 * width[bad]).repeat(2)


def sup_abs(sample, expand, pieces, counts) -> np.ndarray:
    """Max of |f| over each closed piece for K functions at once, shape (K, P).

    Function k samples piece i at counts[k, i] >= 2 equally spaced points.
    sample(x) gets x of shape (K, n), row k holding points of function k (a
    grid row is padded with copies of its last point, which count as it), and
    returns f there; expand(x) gets each (function, piece) pair's first grid
    argmax, shape (K, P), and returns the rows f, f', ..., f^(TAYLOR_ORDER)
    there, shape (TAYLOR_ORDER + 1, K, P).  Entry (k, i) is the larger of the
    grid's max and the peak of the Taylor model on the argmax's grid cells
    (``_model_peaks``): the peak the grid argmax sits on, not always the
    highest.  Bernstein's |f^(r)| <= nu^r ||f||_inf, nu the top frequency,
    bounds the model's error by (nu h)^21 / 21! ||f||_inf: 1e-22 ||f||_inf at
    the cell width h <= pi / (4 nu) of every caller, whose rows are of unit scale (N modes
    under 1, ``TrigPoly.unit``): |rows[r]| h^r / r! <= N (nu h)^r / r!.  Each function's
    maxima have the bits of a search on it alone if no value depends on the other points.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[1] != len(pieces) or counts.min() < 2:
        raise ValueError(f"sup_abs needs counts >= 2 of shape (K, {len(pieces)}), got {counts}")
    funcs, key = len(counts), tuple(map(tuple, counts.tolist()))
    grid, first, last, span = _cached(_sup_grid, funcs * max(map(sum, key)), pieces, key)
    vals = np.abs(sample(grid)).ravel()
    best = np.maximum.reduceat(vals, first)
    hits = np.flatnonzero(vals == np.repeat(best, span))
    k = np.minimum(hits[np.searchsorted(hits, first)], last)  # first argmax, copies as last point
    x = grid.flat[k]
    lo, hi = grid.flat[np.maximum(k - 1, first)] - x, grid.flat[np.minimum(k + 1, last)] - x
    peaks, _ = _model_peaks(expand(x.reshape(funcs, -1)).reshape(TAYLOR_ORDER + 1, -1), lo, hi)
    return np.maximum(best, peaks).reshape(funcs, -1)


def _model_peaks(rows, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Max of |sum_r rows[r] t^r / r!| over each column's t in [lo, hi] (lo <= 0 <= hi), and its t.

    In s = t / h, h = max(-lo, hi), with coefficients rows[r] h^r / r! of unit scale (``sup_abs``),
    the peak is the larger of _SCAN's best point in [sign lo, sign hi] and _NEWTON_STEPS Newton
    steps from it on |.|^2, clipped to its scan cells (uphill where not concave); h = 0: |rows[0]|.
    """
    h, left, right = np.maximum(-lo, hi), np.sign(lo)[:, None], np.sign(hi)[:, None]
    steps = np.ones((h.size, TAYLOR_ORDER + 1))  # of the products h^r / r!, then of s^r
    steps[:, 1:] = h[:, None] / _ORDERS[1:]
    coeffs = rows.T * np.multiply.accumulate(steps, axis=1)
    scan = np.abs(coeffs @ _SCAN_POWERS)
    j = np.argmax(np.where((left <= _SCAN) & (_SCAN <= right), scan, -1.0), axis=1)
    s, (lo, hi) = _SCAN[j], np.clip(_SCAN[np.clip(j[:, None] + [-1, 1], 0, 32)], left, right).T
    model = (coeffs @ _ROWS).reshape(h.size, -1, 3)
    for step in range(_NEWTON_STEPS + 1):
        steps[:, 1:] = s[:, None]
        rows = (np.multiply.accumulate(steps, axis=1)[:, None] @ model)[:, 0]  # P, P', P'' at s
        if step == _NEWTON_STEPS:
            return np.maximum(scan[np.arange(h.size), j], np.abs(rows[:, 0])), s * h
        slope, bend = (rows[:, :1].conj() * rows[:, 1:]).real.T  # g'/2, g''/2 - |P'|^2, g = |P|^2
        s = s - slope / np.minimum(bend + np.abs(rows[:, 1]) ** 2, -1e-280)  # |g'/2| < 4 N^2
        s = np.minimum(np.maximum(s, lo), hi)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _sup_grid(pieces, counts) -> tuple[np.ndarray, ...]:
    """sup_abs's (K, W) grid on the float pairs `pieces`: row k is its pieces'
    np.linspace points, then copies of its last point; with each pair's first
    and last flat index, function-major, and its span up to the next pair's first."""
    counts = np.array(counts, dtype=np.int64)
    real = np.arange(counts.sum(axis=1).max()) < counts.sum(axis=1)[:, None]
    start, stop = np.tile(np.array(pieces, dtype=float).T, len(counts))
    counts = counts.ravel()
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    j = np.arange(last[-1] + 1) - np.repeat(first, counts)
    points = j * np.repeat((stop - start) / (counts - 1), counts) + np.repeat(start, counts)
    points[last] = stop  # the bits of np.linspace(start, stop, counts)
    grid = np.full(real.shape, stop[-1])
    grid[real] = points
    first, last = np.flatnonzero(real)[[first, last]]
    return _read_only(grid, first, last, np.diff(first, append=grid.size))


# benchmark/tracing.py records the sup search under its former name.
golden_max = sup_abs
