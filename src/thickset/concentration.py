"""Concentration operator of a set on a torus, restricted to a finite band.

For lattice modes m_1..m_N and a set E inside one period, the Gram matrix

    G[j, k] = (1/L) integral_E exp(i 2 pi (m_j - m_k) x / L) dx

is Hermitian positive semidefinite with eigenvalues in [0, 1].  Its smallest
eigenvalue is the exact squared p = 2 constant: the worst value of
||f||_{L2(E)}^2 / ||f||_{L2(torus)}^2 over functions with that spectrum.

A set of period P = L / q covers the torus with q copies of one cell, and
the characters summed over the copies cancel unless q divides m_j - m_k.
So G is block diagonal over the residue classes m mod q, with exact zeros
between classes, and a within-class entry is the one-cell integral

    (1/P) integral_{E in [0, P]} exp(i 2 pi d x / P) dx,  d = (m_j - m_k) / q,

whose phase d x / P stays within d turns (an aperiodic set has q = 1 and
P = L).  Entries come from the closed form of that integral, so the matrix
is exact up to rounding and the module serves as the independent oracle for
the closed-form bounds.  Blocks are sections of one Toeplitz matrix, and one
whose steps d are a run 0, 1, .., n - 1 is skipped when a longer run is a
block too (Cauchy interlacing); the dense N x N matrix and full spectrum are
built on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bandlimited import BandSpec, lattice_indices
from .bounds import (
    _LN10,
    DEFAULT_CONSTANTS,
    BoundConstants,
    Verdict,
    _exp,
    _log10,
    theorem1_bound_log10,
    theorem2_bound_log10,
)
from .errors import ThicksetError
from .quadrature import set_transform
from .sets import IntervalSet, period_ratio, thickness


# The distinct Gram blocks hold at most MAX_DENSE_SIZE**2 entries; GramMatrix.matrix, N up to it.
MAX_DENSE_SIZE = 2000

MODE_LIMIT = 2**52  # bound on |m|: mode differences are exact in int64 and float64

# Residual contract: ||G v - lambda v|| <= RESIDUAL_TOL * ||G||_2.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class GramMatrix:
    """Frequencies, period and one Hermitian block per distinct class pattern.

    `stride` is the number q of set periods in the torus period; entries
    between modes of different residue classes m mod q are exact zeros.
    `groups` holds, per class size (largest first), the matrix indices of its residue
    classes (a row per class, in mode order), the distinct blocks (read-only) and each
    class's block index, `maximal` the blocks to solve; `matrix` is built on demand.
    """

    freqs: np.ndarray
    period: float
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    maximal: tuple[np.ndarray, ...]
    stride: int = 1

    @property
    def size(self) -> int:
        return len(self.freqs)

    @property
    def measure_fraction(self) -> float:
        """|E| / L; equals every diagonal entry."""
        return float(self.groups[0][1][0, 0, 0].real)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix (read-only), built on first read; refused past MAX_DENSE_SIZE."""
        if self.size > MAX_DENSE_SIZE:
            raise ThicksetError(f"{self.size} frequencies exceed the dense cap {MAX_DENSE_SIZE}")
        matrix = np.zeros((self.size, self.size), dtype=np.complex128)
        for ix, stack, carrier in self.groups:
            matrix[ix[:, :, None], ix[:, None, :]] = stack[carrier]
        matrix.setflags(write=False)
        return matrix


def gram_matrix(freqs, E: IntervalSet, period: float) -> GramMatrix:
    """Exact Gram matrix of the band-limited concentration operator.

    Parameters
    ----------
    freqs : iterable of int
        Distinct lattice modes m_j, |m_j| < 2**52 (frequency 2 pi m_j / period).
    E : IntervalSet
        Observation set; a periodic set's period must divide the torus
        period, an aperiodic set must lie inside [0, period].
    period : float
        Torus length L.

    Returns
    -------
    GramMatrix
        One block per distinct pattern d = (m - m_first) / q of the residue
        classes m mod q, and which are maximal.  Hermitian by construction: entries
        are computed for nonnegative steps and mirrored by conjugation.  Refused, before
        any block is built, past MAX_DENSE_SIZE**2 entries in the distinct blocks.
    """
    ms = np.asarray(freqs if isinstance(freqs, np.ndarray) else list(freqs))  # object past int64
    if not np.all((ms > -MODE_LIMIT) & (ms < MODE_LIMIT)):
        raise ThicksetError("lattice modes must satisfy |m| < 2**52")
    ms = ms.astype(np.int64)
    if ms.size == 0:
        raise ValueError("need at least one frequency")
    if np.any(np.diff(np.sort(ms)) == 0):
        raise ThicksetError("repeated lattice mode")
    period = float(period)
    q = period_ratio(E, period)
    cell = period / q
    if E.period is None:
        if E.intervals[0][0] < -1e-9 or E.intervals[-1][1] > period + 1e-9:
            raise ThicksetError("aperiodic set must lie inside one period [0, L]")
        pieces = E.intervals
    else:
        pieces = E.materialize(0.0, cell)

    order = np.lexsort((ms, ms % q))  # the classes m mod q, each in mode order
    ranked = ms[order]
    cuts = np.flatnonzero(np.concatenate(([True], np.diff(ranked % q) != 0, [True])))
    starts, sizes = cuts[:-1], np.diff(cuts)
    offsets = (ranked - np.repeat(ranked[starts], sizes)) // q  # each class's pattern d
    run, groups, maximal = False, [], []  # run: a larger class's pattern is 0, 1, .., M - 1
    for n in sorted(set(sizes.tolist()), reverse=True):  # larger patterns first
        members = starts[sizes == n][:, None] + np.arange(n)
        d = offsets[members]  # equal rows, as bytes, give equal blocks
        _, first, carrier = np.unique(d.view(f"V{d.strides[0]}"), return_index=True,
                                      return_inverse=True)
        d = d[first]
        runs = d[:, -1] == n - 1  # sorted distinct steps from 0 ending at n - 1: 0, 1, .., n - 1
        groups.append((order[members], d, carrier.ravel()))
        maximal.append(np.flatnonzero(~(runs & run)))  # a run inside a longer run is skipped
        run |= bool(runs.any())
    if sum(d.shape[0] * d.shape[1] ** 2 for _, d, _ in groups) > MAX_DENSE_SIZE**2:  # distinct blocks
        raise ThicksetError(f"the Gram blocks of {ms.size} modes exceed {MAX_DENSE_SIZE}^2 entries")
    steps = [d[:, :, None] - d[:, None, :] for _, d, _ in groups]
    unique = np.unique(np.abs(np.concatenate([s.ravel() for s in steps])), return_index=True)[0]
    values = set_transform(unique, pieces, cell).sum(axis=1)
    tables = [values[np.searchsorted(unique, np.abs(step))] for step in steps]
    groups = [(ix, np.where(step >= 0, table, np.conj(table)), carrier)
              for (ix, _, carrier), step, table in zip(groups, steps, tables)]
    for array in (ms, *maximal, *(array for group in groups for array in group)):
        array.setflags(write=False)
    return GramMatrix(freqs=ms, period=period, groups=tuple(groups), maximal=tuple(maximal),
                      stride=q)


@dataclass(frozen=True)
class ConcentrationResult:
    """Smallest eigenvalue, its witness, ||G||_2 and, solved on first read, the full spectrum."""

    lambda_min: float
    witness: np.ndarray
    norm: float
    residual: float
    gram: GramMatrix

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Sorted union of the spectra of all classes (read-only)."""
        spectra = [np.linalg.eigvalsh(stack)[carrier] for _, stack, carrier in self.gram.groups]
        eigenvalues = np.sort(np.concatenate([spectrum.ravel() for spectrum in spectra]))
        eigenvalues.setflags(write=False)
        return eigenvalues


def min_concentration(freqs, E: IntervalSet, period: float) -> ConcentrationResult:
    """Smallest concentration eigenvalue and a unit witness vector.

    LAPACK solves each maximal block once (one batched call per block size); the
    others' spectra lie within theirs, so lambda_min and ||G||_2 are read off them.
    No dense matrix is built, so N is not capped, only ``gram_matrix``'s blocks.
    The block with the smallest eigenvalue supplies lambda_min; its eigenvector,
    on the first class carrying that block and zero elsewhere, is the witness.
    The residual contract ``||G_b v - lambda v|| <= 1e-10 ||G||`` is checked on that
    block G_b; it equals the full-matrix residual, as entries between classes are zeros.
    """
    g = gram_matrix(freqs, E, period)
    lam, norm = math.inf, 0.0
    for (ix, stack, carrier), keep in filter(lambda pair: pair[1].size, zip(g.groups, g.maximal)):
        w, V = np.linalg.eigh(stack[keep])
        norm = max(norm, float(np.max(np.abs(w))))
        low = int(np.argmin(w[:, 0]))
        if w[low, 0] < lam:
            lam, block, vector = float(w[low, 0]), stack[keep[low]], V[low, :, 0]
            support = ix[np.argmax(carrier == keep[low])]
    vector = vector / np.linalg.norm(vector)
    residual = float(np.linalg.norm(block @ vector - lam * vector))
    if residual > RESIDUAL_TOL * max(norm, 1e-300):
        raise RuntimeError(f"eigensolver residual {residual:.3e} violates the contract")
    witness = np.zeros(g.size, dtype=np.complex128)
    witness[support] = vector
    witness.setflags(write=False)
    return ConcentrationResult(
        lambda_min=lam,
        witness=witness,
        norm=norm,
        residual=residual,
        gram=g,
    )


@dataclass(frozen=True)
class SharpnessReport:
    """Exact p = 2 constant next to the closed-form lower bound."""

    gamma: float
    ab: float
    n_bands: int
    n_freqs: int
    lambda_min: float
    exact: float
    bound: float
    log10_bound: float
    log10_margin: float
    verdict: Verdict


def sharpness_gap(
    spec: BandSpec,
    E: IntervalSet,
    period: float,
    constants: BoundConstants = DEFAULT_CONSTANTS,
    window: float = 1.0,
) -> SharpnessReport:
    """Compare sqrt(lambda_min) with the matching closed-form bound at p = 2.

    The thickness of E is certified at the given window length; the bound is
    the single-band form for one band and the n-band tower otherwise.
    `log10_margin` stays finite as long as the exact value is positive.  The
    verdict reads lambda_min as known to within eigh's backward error
    N eps ||G||_2, so it is unresolved while lambda_min is that close to 0.
    """
    ms = lattice_indices(spec, period)
    result = min_concentration(ms, E, period)
    cert = thickness(E, window)
    ab = window * spec.width
    exact = math.sqrt(max(result.lambda_min, 0.0))
    if spec.count == 1:
        log10_bound = theorem1_bound_log10(cert.gamma, ab, 2, constants)
    else:
        log10_bound = theorem2_bound_log10(cert.gamma, spec.count, ab, 2, constants)
    bound = _exp(log10_bound * _LN10)  # the bits of theorem1_bound or theorem2_bound
    log10_margin = _log10(exact) - log10_bound
    noise = ms.size * np.finfo(float).eps * result.norm
    low, high = (_log10(max(result.lambda_min + d, 0.0)) / 2.0 for d in (-noise, noise))
    return SharpnessReport(
        gamma=cert.gamma,
        ab=ab,
        n_bands=spec.count,
        n_freqs=int(ms.size),
        lambda_min=result.lambda_min,
        exact=exact,
        bound=bound,
        log10_bound=log10_bound,
        log10_margin=log10_margin,
        verdict=Verdict(low - log10_bound, high - log10_bound),
    )
