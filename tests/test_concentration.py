"""Gram matrices of restricted characters and their smallest eigenvalues."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thickset import (
    BandSpec,
    IntervalSet,
    ThicksetError,
    gram_matrix,
    lattice_indices,
    min_concentration,
    sharpness_gap,
    theorem1_bound,
    theorem2_bound_log10,
    thickness,
    two_sliver_set,
)

TWO_PI = 2.0 * math.pi


def mpmath_lambda_min(modes, E, period, dps=40):
    """Smallest Gram eigenvalue at `dps` digits, independent of the package.

    Each entry integrates the character over every copy of the set's cell
    in [0, period].  Entries between modes that differ by a non-multiple of
    the copy count q are checked to vanish; the classes m mod q are then
    solved one at a time.
    """
    import mpmath

    modes = [int(m) for m in modes]
    q = round(period / E.period)
    with mpmath.workdps(dps):
        L = mpmath.mpf(period)
        P = mpmath.mpf(E.period)
        pieces = [
            (mpmath.mpf(a) + c * P, mpmath.mpf(b) + c * P)
            for c in range(q)
            for a, b in E.intervals
        ]

        def entry(delta):
            if delta == 0:
                return sum(b - a for a, b in pieces) / L
            k = 2 * mpmath.pi * delta / L
            seg = sum(mpmath.expj(k * b) - mpmath.expj(k * a) for a, b in pieces)
            return seg / (1j * k * L)

        values = {d: entry(d) for d in {abs(j - k) for j in modes for k in modes}}
        assert all(abs(v) < mpmath.mpf(10) ** (5 - dps) for d, v in values.items() if d % q)
        lowest = []
        for r in range(q):
            cls = [m for m in modes if m % q == r]
            if not cls:
                continue
            A = mpmath.matrix(
                [
                    [values[j - k] if j >= k else mpmath.conj(values[k - j]) for k in cls]
                    for j in cls
                ]
            )
            lowest.append(min(mpmath.eigh(A, eigvals_only=True)))
        return float(min(lowest))


def random_periodic_set(rng, cell):
    """Two to four random intervals inside [0, cell], repeated with that period."""
    edges = np.sort(rng.uniform(0.0, cell, size=2 * int(rng.integers(2, 5))))
    return IntervalSet(tuple(map(tuple, edges.reshape(-1, 2))), period=cell)


class TestGramMatrix:
    def test_half_circle_oracle(self):
        # frozen entries for modes {-1, 0, 1}, E = [0, pi], L = 2 pi:
        # diagonal 1/2; neighbor entries i/pi below, -i/pi above... concretely
        # G[j, k] = (1/L) int_E exp(i (m_j - m_k) x) dx.
        E = IntervalSet(((0.0, math.pi),))
        G = gram_matrix([-1, 0, 1], E, TWO_PI).matrix
        assert np.allclose(np.diag(G), 0.5, atol=1e-14)
        # delta = +1 entry: (1/2pi) int_0^pi e^{ix} dx = (e^{i pi} - 1)/(2 pi i) = i/pi
        assert abs(G[1, 0] - 1j / math.pi) < 1e-14
        assert abs(G[0, 1] + 1j / math.pi) < 1e-14
        # delta = 2 entry vanishes: int_0^pi e^{2ix} dx = 0
        assert abs(G[2, 0]) < 1e-14
        assert np.allclose(G, G.conj().T, atol=0)

    def test_hermitian_exactly(self):
        E = IntervalSet(((0.1, 0.7), (1.3, 2.0)))
        G = gram_matrix(list(range(-5, 6)), E, 4.0).matrix
        assert np.array_equal(G, G.conj().T)

    def test_full_period_is_identity(self):
        G = gram_matrix([-2, 0, 3], IntervalSet(((0.0, 4.0),)), 4.0).matrix
        assert np.allclose(G, np.eye(3), atol=1e-14)

    def test_trace_equals_n_times_fraction(self):
        E = IntervalSet(((0.0, 1.0), (2.0, 2.5),))
        G = gram_matrix(list(range(7)), E, 8.0)
        assert math.isclose(np.trace(G.matrix).real, 7 * 1.5 / 8.0, rel_tol=1e-12)

    def test_periodic_set_input(self):
        G = gram_matrix([0], two_sliver_set(0.2), 4.0).matrix
        assert math.isclose(G[0, 0].real, 0.2, rel_tol=1e-12)


class TestMinConcentration:
    def test_single_frequency_measure_fraction(self):
        # one mode: lambda = |E| / L exactly
        E = IntervalSet(((0.0, 1.0),))
        res = min_concentration([0], E, 8.0)
        assert math.isclose(res.lambda_min, 1.0 / 8.0, rel_tol=1e-12)

    def test_three_mode_half_circle_oracle(self):
        # modes {-1, 0, 1} on E = [0, pi], L = 2 pi: the smallest
        # eigenvalue of the 3x3 Gram matrix is 1/2 - sqrt(2)/pi.
        E = IntervalSet(((0.0, math.pi),))
        res = min_concentration([-1, 0, 1], E, TWO_PI)
        want = 0.5 - math.sqrt(2.0) / math.pi
        assert math.isclose(res.lambda_min, want, rel_tol=1e-10)

    def test_eigenvalues_in_unit_interval(self):
        res = min_concentration(list(range(-6, 7)), two_sliver_set(0.3), 4.0)
        assert res.eigenvalues[0] >= -1e-12
        assert res.eigenvalues[-1] <= 1.0 + 1e-12

    def test_residual_contract(self):
        res = min_concentration(list(range(-8, 9)), two_sliver_set(0.4), 8.0)
        assert res.residual <= 1e-10

    def test_witness_rayleigh_quotient(self):
        res = min_concentration(list(range(-5, 6)), two_sliver_set(0.5), 4.0)
        v = res.witness
        G = res.gram.matrix
        rayleigh = (v.conj() @ (G @ v)).real / (v.conj() @ v).real
        assert math.isclose(rayleigh, res.lambda_min, rel_tol=0, abs_tol=1e-6)

    @pytest.mark.parametrize(
        "gamma, modes, period",
        [
            (0.35, range(-4, 5), 4.0),
            (0.3, lattice_indices(BandSpec((0.0,), 16.0 * math.pi), 32.0), 32.0),
        ],
        ids=["gamma0.35-L4", "gamma0.3-b16pi-L32"],
    )
    def test_lambda_min_matches_mpmath(self, gamma, modes, period):
        E = two_sliver_set(gamma)
        res = min_concentration(list(modes), E, period)
        want = mpmath_lambda_min(modes, E, period)
        assert abs(res.lambda_min - want) <= 1e-14

    def test_size_cap(self):
        # refused before the 2001 x 2001 matrix is built
        tracemalloc.start()
        try:
            with pytest.raises(ThicksetError, match="the Gram blocks of 2001 modes exceed"):
                min_concentration(list(range(2001)), IntervalSet(((0.0, 1.0),)), 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_many_modes_in_small_blocks(self):
        # b = 128 pi, L = 32: 2049 modes, over the dense cap, in 32 residue classes of
        # 64 and 65 modes; each block is the L = 1 Gram of range(64) or range(65)
        E = two_sliver_set(0.9)
        res = min_concentration(lattice_indices(BandSpec((0.0,), 128.0 * math.pi), 32.0), E, 32.0)
        blocks = [min_concentration(range(n), E, 1.0).lambda_min for n in (64, 65)]
        assert res.gram.size == 2049
        assert res.lambda_min == min(blocks) == 2.7180446497842684e-08
        with pytest.raises(ThicksetError, match="2049 frequencies exceed the dense cap 2000"):
            res.gram.matrix


class TestBlockSolve:
    # (copies q of the set's cell in the torus, modes); the sparse lists
    # leave some residue classes empty and others with gaps
    CASES = [
        (1, list(range(-6, 7))),
        (2, [-9, -4, -3, 0, 1, 2, 7, 10, 15]),
        (3, list(range(-10, 11))),
        (3, [-13, -5, -2, 0, 4, 6, 11, 12]),
        (32, list(range(-40, 41))),
        (32, [-64, -33, -1, 0, 31, 32, 64, 96]),
    ]

    @pytest.mark.parametrize(
        "q, modes", CASES, ids=["q1", "q2-sparse", "q3", "q3-sparse", "q32", "q32-sparse"]
    )
    def test_blocks_match_dense_solve(self, q, modes):
        rng = np.random.default_rng([q, len(modes)])
        for _ in range(3):
            cell = float(rng.choice([0.5, 1.0, 2.0]))
            E = random_periodic_set(rng, cell)
            res = min_concentration(modes, E, q * cell)
            g = res.gram
            G = g.matrix
            assert g.stride == q
            assert np.array_equal(G, G.conj().T)
            diff = np.subtract.outer(modes, modes)
            assert np.all(G[diff % q != 0] == 0)
            assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(G), rtol=0, atol=1e-12)
            support = np.flatnonzero(res.witness)
            assert len({modes[i] % q for i in support}) == 1
            v = res.witness
            rayleigh = (v.conj() @ (G @ v)).real
            assert math.isclose(rayleigh, res.lambda_min, rel_tol=0, abs_tol=1e-14)

    def test_distinct_blocks_memory(self):
        # b = 64 pi, L = 32, gamma = 0.7: N = 1025 modes in 32 residue classes
        ms = lattice_indices(BandSpec((0.0,), 64.0 * math.pi), 32.0)
        E = two_sliver_set(0.7)
        min_concentration([0, 1], E, 32.0)  # first-call imports are not the solve's memory
        tracemalloc.start()
        try:
            res = min_concentration(ms, E, 32.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.gram.size == 1025
        assert peak < 1_000_000  # the dense 1025 x 1025 matrix alone is 16.8 MB
        G = res.gram.matrix
        assert np.array_equal(G, G.conj().T)
        assert np.all(G[np.subtract.outer(ms, ms) % 32 != 0] == 0)
        assert np.allclose(np.linalg.eigvalsh(G), res.eigenvalues, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "modes, E, period, sizes",
        [
            # classes of 32 and 33 consecutive modes: the 32-run lies inside the 33-run
            (lattice_indices(BandSpec((0.0,), 64.0 * math.pi), 32.0), two_sliver_set(0.7), 32.0,
             [33]),
            # classes 0 and 2 both have steps (0, 1, 2), class 1 has (0, 2, 3), and class 3's
            # (0) lies inside both
            ([-8, 1, 2, -4, 9, 6, 0, 3, 13, 10],
             IntervalSet(((0.1, 0.35), (0.6, 0.7)), period=1.0), 4.0, [3, 3]),
        ],
        ids=["two-sliver-N1025", "q4-sparse"],
    )
    def test_one_solve_per_maximal_pattern(self, monkeypatch, modes, E, period, sizes):
        solved = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            solved.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        res = min_concentration(modes, E, period)
        monkeypatch.undo()
        assert sorted(solved) == sizes
        G = res.gram.matrix
        assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(G), rtol=0, atol=1e-12)
        v = res.witness
        assert abs(res.residual - np.linalg.norm(G @ v - res.lambda_min * v)) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.sampled_from([1, 2, 3, 4, 32]),
        modes=st.lists(st.integers(-70, 70), min_size=1, max_size=40, unique=True),
        as_array=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_maximal_sections_decide(self, q, modes, as_array, seed):
        # random periodic sets, sparse and unsorted mode lists: only the maximal blocks are
        # solved, and interlacing is checked on every skipped block, not assumed.  Each solve
        # reads an eigenvalue to within N eps ||G||_2, so two solves agree to twice that
        rng = np.random.default_rng(seed)
        cell = float(rng.choice([0.5, 1.0, 2.0]))
        res = min_concentration(np.array(modes) if as_array else modes,
                                random_periodic_set(rng, cell), q * cell)
        G = res.gram.matrix
        dense = np.linalg.eigvalsh(G)
        noise = 2 * len(modes) * np.finfo(float).eps * np.max(np.abs(dense))
        assert abs(res.lambda_min - dense[0]) <= noise
        assert math.isclose(res.norm, dense[-1], rel_tol=0, abs_tol=noise)
        assert np.allclose(res.eigenvalues, dense, rtol=0, atol=1e-12)
        v = res.witness
        assert math.isclose((v.conj() @ (G @ v)).real, res.lambda_min, rel_tol=0, abs_tol=noise)
        for (_, stack, _), keep in zip(res.gram.groups, res.gram.maximal):
            for skipped in np.setdiff1d(np.arange(len(stack)), keep):
                assert np.linalg.eigvalsh(stack[skipped])[0] >= res.lambda_min - noise

    def test_aperiodic_set_has_stride_one(self):
        g = gram_matrix(list(range(-3, 4)), IntervalSet(((0.2, 0.9), (1.5, 3.0))), 4.0)
        assert g.stride == 1
        assert len(g.groups) == 1


class TestSharpnessGap:
    def test_single_frequency_margin(self):
        # one mode in band: exact = sqrt(|E|/L) far above the
        # closed-form bound
        report = sharpness_gap(BandSpec((0.0,), 0.1), two_sliver_set(0.25), 8.0)
        assert math.isclose(report.exact, math.sqrt(0.25), rel_tol=1e-9)
        assert report.verdict.holds
        assert report.log10_margin > 0

    def test_band_grid_holds(self):
        for gamma in (0.1, 0.5):
            report = sharpness_gap(BandSpec((0.0,), 4.0 * math.pi), two_sliver_set(gamma), 16.0)
            assert report.verdict.holds
            assert report.exact >= theorem1_bound(gamma, 4.0 * math.pi, 2.0)

    def test_lambda_within_noise_is_unresolved(self):
        # at b = 64 pi and L = 32 (N = 1025) eigh reads lambda_min ~ -2e-16 at gamma = 0.1,
        # inside its backward error N eps ||G||_2 ~ 2.3e-13: neither holds nor fails, where
        # it held against a bound that underflowed to 0.0; at gamma = 0.7 it is 2.7e-13
        spec = BandSpec((0.0,), 64.0 * math.pi)
        noise = 1025 * np.finfo(float).eps
        low = sharpness_gap(spec, two_sliver_set(0.1), 32.0)
        assert low.n_freqs == 1025 and abs(low.lambda_min) < noise and low.bound == 0.0
        assert not (low.verdict.holds or low.verdict.fails)  # unresolved
        assert low.verdict.low == -math.inf < 0.0 < low.verdict.high
        high = sharpness_gap(spec, two_sliver_set(0.7), 32.0)
        assert high.lambda_min > noise and high.verdict.holds
        assert math.isclose(high.verdict.low, high.log10_margin, rel_tol=1e-3)

    def test_two_bands_take_the_theorem2_bound(self):
        # the n-band branch: bands of width 4 pi at 0 and 12 pi hold 34 modes at L = 8
        spec, E = BandSpec((0.0, 12.0 * math.pi), 4.0 * math.pi), two_sliver_set(0.5)
        report, ms = sharpness_gap(spec, E, 8.0), lattice_indices(spec, 8.0)
        assert report.n_bands == 2 and report.n_freqs == ms.size == 34
        gamma = thickness(E, 1.0).gamma
        assert report.log10_bound == theorem2_bound_log10(gamma, 2, 4.0 * math.pi, 2)
        lam = min_concentration(ms, E, 8.0).lambda_min
        assert report.exact == math.sqrt(lam)
        assert abs(lam - mpmath_lambda_min(ms, E, 8.0)) <= 1e-14  # 0.0306
        assert report.verdict.holds

    # the resolved cells of the benchmark's sandwich grid (L = 32) keep the bits of solving
    # every distinct block, as eigh did before only the maximal sections were solved.  The
    # values are read to within N eps ||G||_2 per solve; 60-digit mpmath puts gamma = 0.7,
    # b = 64 pi at 2.7369e-13, outside eigh's noise of 2.3e-13
    @pytest.mark.parametrize(
        "gamma, b, lam",
        [
            (0.1, 4, 1.4542256671197546e-05),
            (0.3, 4, 0.0037162520007648515),
            (0.3, 16, 2.87394252532109e-10),
            (0.7, 4, 0.2523509062726334),
            (0.7, 16, 0.002066435456423593),
            (0.7, 32, 1.2140789919945408e-06),
            (0.7, 64, 2.7369e-13),
        ],
    )
    def test_resolved_sandwich_cells_keep_their_bits(self, gamma, b, lam):
        spec, E = BandSpec((0.0,), b * math.pi), two_sliver_set(gamma)
        report = sharpness_gap(spec, E, 32.0)
        g = gram_matrix(lattice_indices(spec, 32.0), E, 32.0)
        spectra = [np.linalg.eigh(stack)[0] for _, stack, _ in g.groups]
        assert report.lambda_min == min(float(w[:, 0].min()) for w in spectra)
        noise = g.size * np.finfo(float).eps * max(float(w.max()) for w in spectra)
        assert abs(report.lambda_min - lam) <= 2 * noise and report.verdict.holds

    def test_exact_decreases_with_bandwidth(self):
        wide = sharpness_gap(BandSpec((0.0,), 8.0 * math.pi), two_sliver_set(0.2), 16.0)
        narrow = sharpness_gap(BandSpec((0.0,), 2.0 * math.pi), two_sliver_set(0.2), 16.0)
        assert wide.exact <= narrow.exact * (1.0 + 1e-9)
