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
the closed-form bounds.  Classes with the same steps d carry identical
blocks, so there is one solve per distinct block, the residual is checked on
that block, and the dense N x N matrix is built only on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bandlimited import BandSpec, lattice_indices
from .bounds import (
    DEFAULT_CONSTANTS,
    BoundConstants,
    theorem1_bound,
    theorem1_bound_log10,
    theorem2_bound,
    theorem2_bound_log10,
)
from .errors import DuplicateFrequencyError, SizeLimitError
from .sets import IntervalSet, period_ratio, thickness


# Dense eigensolves above this size are refused.
MAX_DENSE_SIZE = 2000

MODE_LIMIT = 2**52  # bound on |m|: mode differences are exact in int64 and float64

# Residual contract: ||G v - lambda v|| <= RESIDUAL_TOL * ||G||_2.
RESIDUAL_TOL = 1e-10


def _residue_blocks(ms: np.ndarray, stride: int) -> list[np.ndarray]:
    residues = np.mod(ms, stride)
    order = np.argsort(residues, kind="stable")
    starts = np.flatnonzero(np.diff(residues[order], prepend=-1))
    sizes = np.diff(starts, append=ms.size)
    return [order[starts[sizes == n][:, None] + np.arange(n)] for n in np.unique(sizes)]


@dataclass(frozen=True)
class GramMatrix:
    """Frequencies, period and one Hermitian block per distinct class pattern.

    `stride` is the number q of set periods in the torus period; entries
    between modes of different residue classes m mod q are exact zeros.
    `groups` holds, per class size, the class indices of `blocks()`, the
    distinct blocks (read-only) and the block index of each class; the
    dense `matrix` is built from them on demand.
    """

    freqs: tuple[int, ...]
    period: float
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
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
        """The dense N x N matrix (read-only), built on first read."""
        matrix = np.zeros((self.size, self.size), dtype=np.complex128)
        for ix, stack, carrier in self.groups:
            matrix[ix[:, :, None], ix[:, None, :]] = stack[carrier]
        matrix.setflags(write=False)
        return matrix

    def blocks(self) -> list[np.ndarray]:
        """Matrix indices of the residue classes m mod stride, in mode order.

        One array per class size; each row holds the indices of one class.
        """
        return [ix for ix, _, _ in self.groups]


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
        classes m mod q.  Hermitian by construction: entries are computed
        for nonnegative steps and mirrored by conjugation.
    """
    ms = np.asarray(list(freqs))  # an object array if some |m| exceeds int64
    if not np.all((ms > -MODE_LIMIT) & (ms < MODE_LIMIT)):
        raise ValueError("lattice modes must satisfy |m| < 2**52")
    ms = ms.astype(np.int64)
    if ms.size == 0:
        raise ValueError("need at least one frequency")
    if np.unique(ms).size != ms.size:
        raise DuplicateFrequencyError("repeated lattice mode")
    period = float(period)
    q = period_ratio(E, period)
    cell = period / q
    if E.period is None:
        if E.intervals[0][0] < -1e-9 or E.intervals[-1][1] > period + 1e-9:
            raise ValueError("aperiodic set must lie inside one period [0, L]")
        pieces = E.intervals
    else:
        pieces = E.materialize(0.0, cell)
    starts = np.array([a for a, _ in pieces])
    stops = np.array([b for _, b in pieces])
    # integral over (a, b) of exp(i 2 pi d x / P) / P
    #   = w sinc(d w) exp(i 2 pi d c), with c the midpoint and w the width in cells
    centers = (starts + stops) / (2.0 * cell)
    widths = (stops - starts) / cell

    classes, steps, carriers = _residue_blocks(ms, q), [], []
    for ix in classes:
        d = (ms[ix] - ms[ix[:, :1]]) // q  # equal rows, as bytes, give equal blocks
        rows = d.view(f"V{d.strides[0]}")
        _, first, carrier = np.unique(rows, return_index=True, return_inverse=True)
        steps.append(d[first][:, :, None] - d[first][:, None, :])
        carriers.append(carrier.ravel())
    unique = np.unique(np.abs(np.concatenate([s.ravel() for s in steps])))
    phases = np.exp(1j * (math.tau * np.mod(np.outer(unique, centers), 1.0)))
    values = (phases * (widths * np.sinc(np.outer(unique, widths)))).sum(axis=1)
    groups = []
    for ix, step, carrier in zip(classes, steps, carriers):
        table = values[np.searchsorted(unique, np.abs(step))]
        groups.append((ix, np.where(step >= 0, table, np.conj(table)), carrier))
        for array in groups[-1]:
            array.setflags(write=False)
    return GramMatrix(freqs=tuple(ms.tolist()), period=period, groups=tuple(groups), stride=q)


@dataclass(frozen=True)
class ConcentrationResult:
    """Smallest eigenvalue with its witness and the full spectrum."""

    lambda_min: float
    witness: np.ndarray
    eigenvalues: np.ndarray
    residual: float
    gram: GramMatrix


def min_concentration(freqs, E: IntervalSet, period: float) -> ConcentrationResult:
    """Smallest concentration eigenvalue and a unit witness vector.

    LAPACK solves each distinct block once (one batched call per block size)
    and no dense matrix is built.  The block with the smallest eigenvalue
    supplies lambda_min; its eigenvector, on the first class carrying that
    block and zero elsewhere, is the witness.  `eigenvalues` is the sorted
    union of the spectra of all classes.  The residual contract
    ``||G_b v - lambda v|| <= 1e-10 ||G||`` is checked on that block G_b; it
    equals the full-matrix residual, as entries between classes are zeros.
    """
    freqs = list(freqs)
    if len(freqs) > MAX_DENSE_SIZE:
        raise SizeLimitError(f"{len(freqs)} frequencies exceed the dense cap {MAX_DENSE_SIZE}")
    g = gram_matrix(freqs, E, period)
    spectra = []
    lam = math.inf
    for ix, stack, carrier in g.groups:
        w, V = np.linalg.eigh(stack)
        spectra.append(w[carrier].ravel())
        low = int(np.argmin(w[:, 0]))
        if w[low, 0] < lam:
            lam, block, support = float(w[low, 0]), stack[low], ix[np.argmax(carrier == low)]
            witness = np.zeros(g.size, dtype=np.complex128)
            witness[support] = V[low, :, 0] / np.linalg.norm(V[low, :, 0])
    eigenvalues = np.sort(np.concatenate(spectra))
    norm = float(np.max(np.abs(eigenvalues)))
    residual = float(np.linalg.norm(block @ witness[support] - lam * witness[support]))
    if residual > RESIDUAL_TOL * max(norm, 1e-300):
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} violates the contract"
        )
    eigenvalues.setflags(write=False)
    witness.setflags(write=False)
    return ConcentrationResult(
        lambda_min=lam,
        witness=witness,
        eigenvalues=eigenvalues,
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
    holds: bool


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
    `log10_margin` stays finite as long as the exact value is positive.
    """
    ms = lattice_indices(spec, period)
    result = min_concentration(ms, E, period)
    cert = thickness(E, window)
    ab = window * spec.width
    exact = math.sqrt(max(result.lambda_min, 0.0))
    if spec.count == 1:
        bound = theorem1_bound(cert.gamma, ab, 2, constants)
        log10_bound = theorem1_bound_log10(cert.gamma, ab, 2, constants)
    else:
        bound = theorem2_bound(cert.gamma, spec.count, ab, 2, constants)
        log10_bound = theorem2_bound_log10(cert.gamma, spec.count, ab, 2, constants)
    log10_margin = math.log10(exact) - log10_bound if exact > 0 else -math.inf
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
        holds=exact >= bound,
    )
