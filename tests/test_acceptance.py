"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test prints exactly one `[criterion N] PASS/FAIL` line (visible with
`pytest -s`); the assertion carries the same verdict.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from thickset import (
    BandSpec,
    ClassifierParams,
    IntervalSet,
    NormQuery,
    classify_intervals,
    exp_sum_verifier,
    exponent_fit,
    extremal_pair,
    extremal_ratio,
    full_torus,
    good_mass_check,
    gram_matrix,
    local_estimate_check,
    lp_norm,
    min_concentration,
    random_bandlimited,
    sharpness_gap,
    theorem1_bound,
    theorem1_bound_log10,
    two_sliver_set,
)
from thickset.cli import emit_csv, run

PI = math.pi


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def measured_ratio(f, E, p, period):
    num = lp_norm(f, NormQuery(p, E))
    den = lp_norm(f, NormQuery(p, full_torus(period)))
    return num / den


def test_criterion_1_single_band_dominance():
    # 200 random band-limited functions against the closed-form constant;
    # zero violations allowed, two-minute budget.
    t0 = time.monotonic()
    period = 8.0
    combos = [
        (b, p, gamma)
        for b in (4.0 * PI, 16.0 * PI, 40.0 * PI)
        for p in (1.0, 2.0, math.inf)
        for gamma in (0.1, 0.3, 0.7)
    ]
    violations = 0
    worst_margin = math.inf
    for i in range(200):
        b, p, gamma = combos[i % len(combos)]
        f = random_bandlimited(BandSpec((0.0,), b), period, seed=i)
        E = two_sliver_set(gamma)
        ratio = measured_ratio(f, E, p, period)
        bound = theorem1_bound(gamma, b, p)
        if ratio < bound:
            violations += 1
        if bound > 0:
            worst_margin = min(worst_margin, ratio / bound)
        elif ratio <= 0:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed <= 120.0
    report(1, ok, f"0 violations required, got {violations}; {elapsed:.1f}s of 120s")


def test_criterion_2_concentration_oracles():
    failures = []
    rng = np.random.default_rng(2024)
    # single frequency: eigenvalue is the measure fraction, 1e-12
    for k in range(10):
        lo = float(rng.uniform(0.0, 3.0))
        width = float(rng.uniform(0.2, 2.0))
        E = IntervalSet(((lo, lo + width),))
        res = min_concentration([int(rng.integers(-5, 6))], E, 8.0)
        if abs(res.lambda_min - width / 8.0) > 1e-12:
            failures.append(f"single-mode case {k}")
    # three modes on the half circle: closed form 1/2 - sqrt(2)/pi, 1e-10
    res = min_concentration([-1, 0, 1], IntervalSet(((0.0, PI),)), 2.0 * PI)
    want = 0.5 - math.sqrt(2.0) / PI
    if abs(res.lambda_min - want) > 1e-10:
        failures.append("half-circle closed form")
    # trace identity on 50 random instances, 1e-10
    for k in range(50):
        n = int(rng.integers(1, 12))
        freqs = rng.choice(np.arange(-15, 16), size=n, replace=False)
        L = float(rng.uniform(2.0, 10.0))
        pieces = []
        x = 0.0
        for _ in range(int(rng.integers(1, 4))):
            x += float(rng.uniform(0.05, 0.3)) * L
            w = float(rng.uniform(0.05, 0.2)) * L
            if x + w < L:
                pieces.append((x, x + w))
                x += w
        if not pieces:
            pieces = [(0.1 * L, 0.4 * L)]
        E = IntervalSet(tuple(pieces))
        G = gram_matrix([int(m) for m in freqs], E, L)
        trace = float(np.trace(G.matrix).real)
        want_tr = len(freqs) * E.measure / L
        if abs(trace - want_tr) > 1e-10:
            failures.append(f"trace case {k}")
    ok = not failures
    report(2, ok, f"oracle failures: {failures if failures else 'none'}")


def test_criterion_3_sharpness_sandwich():
    period = 16.0
    rows = []
    violations = 0
    max_n = 0
    for gamma in (0.1, 0.3, 0.7):
        for b in (4.0 * PI, 16.0 * PI, 32.0 * PI):
            rep = sharpness_gap(BandSpec((0.0,), b), two_sliver_set(gamma), period)
            max_n = max(max_n, rep.n_freqs)
            rows.append((gamma, b, rep.n_freqs, rep.log10_margin))
            if not rep.holds:
                violations += 1
    margins = ", ".join(f"g={g:g} b={b:.0f} N={n} log10margin={m:.1f}" for g, b, n, m in rows)
    ok = violations == 0 and max_n <= 257
    report(3, ok, f"0 violations, N_max={max_n} (<=257); margins: {margins}")


def test_criterion_4_good_bad_machinery():
    period = 8.0
    combos = [
        (b, p, gamma)
        for b in (4.0 * PI, 16.0 * PI)
        for p in (1.0, 2.0)
        for gamma in (0.1, 0.3, 0.7)
    ]
    bad_mass_failures = 0
    good_mass_failures = 0
    local_failures = 0
    for seed in range(100):
        b, p, gamma = combos[seed % len(combos)]
        f = random_bandlimited(BandSpec((0.0,), b), period, seed=seed)
        params = ClassifierParams(p=p)
        labels = classify_intervals(f, b, params)
        good_fraction = good_mass_check(f, labels)
        budget = 1.0 / (params.bad_threshold ** p - 1.0)
        if 1.0 - good_fraction > budget + 1e-4:
            bad_mass_failures += 1
        if good_fraction < 0.5 - 1e-4:
            good_mass_failures += 1
        E = two_sliver_set(gamma)
        for iv in labels.good_intervals:
            if not local_estimate_check(f, E, iv, p).holds:
                local_failures += 1
    ok = bad_mass_failures == 0 and good_mass_failures == 0 and local_failures == 0
    report(
        4,
        ok,
        "100 seeds: "
        f"bad-mass failures={bad_mass_failures}, good-mass failures={good_mass_failures}, "
        f"local-estimate failures={local_failures}",
    )


def test_criterion_5_transfer_shape():
    fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    interval = (0.0, 1.0)
    slope_failures = []
    bound_violations = 0
    rng_base = 9000
    sets = [IntervalSet(((0.0, fraction),)) for fraction in fractions]
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for p in (2.0, math.inf):
                # an instance does not depend on the fraction: one call checks all
                per_instance = []
                for i in range(6):
                    rng = np.random.default_rng(rng_base + 101 * i + 17 * n + 3 * m)
                    lams = np.sort(rng.uniform(-25.0, 25.0, size=n))
                    terms = [
                        (float(lam), rng.standard_normal(m) + 1j * rng.standard_normal(m))
                        for lam in lams
                    ]
                    per_instance.append(exp_sum_verifier(terms, interval, sets, p))
                bound_violations += sum(not c.holds for checks in per_instance for c in checks)
                worst = [max(c.ratio for c in column) for column in zip(*per_instance)]
                xs = np.log([1.0 / s for s in fractions])
                ys = np.log(worst)
                slope = float(np.polyfit(xs, ys, 1)[0])
                cap = n * m - (1.0 if p == math.inf else (p - 1.0) / p) + 0.1
                if slope > cap:
                    slope_failures.append((n, m, p, slope, cap))
    # Remez cell: pure polynomials at p = inf, the fixed comparison constant 4
    remez_violations = 0
    for degree in (1, 2, 3):
        for fraction in fractions:
            e = fraction  # E = [-fraction, fraction] inside I = [-1, 1]
            rng = np.random.default_rng(77 + degree)
            candidates = [rng.standard_normal(degree + 1) for _ in range(4)]
            cheb = np.polynomial.chebyshev.cheb2poly(
                np.eye(degree + 1)[degree]
            ) / (e ** np.arange(degree + 1))
            candidates.append(cheb)
            for coeffs in candidates:
                (check,) = exp_sum_verifier(
                    [(0.0, coeffs)], (-1.0, 1.0), (IntervalSet(((-e, e),)),), math.inf
                )
                if check.remez_bound is None or check.ratio > check.remez_bound:
                    remez_violations += 1
                if not math.isclose(check.remez_bound, (4.0 / fraction) ** degree, rel_tol=1e-12):
                    remez_violations += 1
    ok = not slope_failures and bound_violations == 0 and remez_violations == 0
    report(
        5,
        ok,
        f"slope failures={slope_failures if slope_failures else 'none'}, "
        f"bound violations={bound_violations}, remez violations={remez_violations}",
    )


def test_criterion_6_extremal_example():
    t0 = time.monotonic()
    bandwidths = [40.0 * PI, 80.0 * PI, 160.0 * PI]
    gammas = [0.1, 0.2, 0.4]
    p = 2.0
    cell_violations = 0
    for b in bandwidths:
        for gamma in gammas:
            inst = extremal_pair(b, gamma)
            ratio = extremal_ratio(inst, p)
            if math.log10(ratio) < theorem1_bound_log10(gamma, b, p):
                cell_violations += 1
    fit = exponent_fit(bandwidths, gammas, p)
    target = 1.0 / (4.0 * PI)
    factor = fit.slope_of_slopes / target
    elapsed = time.monotonic() - t0
    ok = (
        cell_violations == 0
        and 0.25 <= factor <= 4.0
        and fit.r_squared >= 0.98
        and elapsed <= 300.0
    )
    report(
        6,
        ok,
        f"0 cell violations (got {cell_violations}); slope-of-slopes={fit.slope_of_slopes:.4f} "
        f"({factor:.2f}x of 1/4pi); R^2={fit.r_squared:.5f}; {elapsed:.1f}s of 300s",
    )


def test_criterion_7_remark_regimes():
    period = 16.0
    violations = 0
    # small band product: b = 1 with a = 1 gives ab = 1 <= 1
    for p in (1.0, 2.0, math.inf):
        for gamma in (0.1, 0.3, 0.7):
            for seed in range(8):
                f = random_bandlimited(BandSpec((0.0,), 1.0), period, seed=seed)
                ratio = measured_ratio(f, two_sliver_set(gamma), p, period)
                floor = 0.5 if p == math.inf else 0.5 * gamma ** (1.0 / p)
                if ratio < floor:
                    violations += 1
    # near-full density: 1 - gamma <= 1/(2 + p ab) with ab = 4 pi
    b = 4.0 * PI
    for p, gamma in ((1.0, 0.95), (2.0, 0.97)):
        assert 1.0 - gamma <= 1.0 / (2.0 + p * b)
        for seed in range(8):
            f = random_bandlimited(BandSpec((0.0,), b), period, seed=100 + seed)
            ratio = measured_ratio(f, two_sliver_set(gamma), p, period)
            if ratio ** p < 0.5 - 1e-4:
                violations += 1
    ok = violations == 0
    report(7, ok, f"0 violations required across both regimes, got {violations}")


CANONICAL_CONFIGS = [
    {"command": "bound", "gamma_list": [0.1, 0.5, 1.0], "ab_list": [0, 1, 4], "p_list": [1, 2, "inf"]},
    {"command": "thickness", "set": {"two_sliver": 0.3}, "a_list": [0.5, 1, 2]},
    {
        "command": "concentration",
        "gamma_list": [0.2, 0.5],
        "b_list": [6.283185307179586, 12.566370614359172],
        "L": 8.0,
    },
    {
        "command": "verify",
        "suite": "good_bad",
        "seeds": 3,
        "b": 12.566370614359172,
        "p_list": [1, 2],
        "seed": 11,
    },
    {"command": "extremal", "b_list": [125.66370614359172], "gamma_list": [0.1, 0.2, 0.4], "p": 2},
    {"command": "classify", "seed": 7, "b": 12.566370614359172, "p": 2},
]


def test_criterion_8_determinism(tmp_path):
    mismatches = []
    for cfg in CANONICAL_CONFIGS:
        first = emit_csv(run(cfg).table)
        second = emit_csv(run(cfg).table)
        if first != second:
            mismatches.append(f"in-process {cfg['command']}")
    # full subprocess round trip on two representative configs
    for cfg in (CANONICAL_CONFIGS[3], CANONICAL_CONFIGS[5]):
        path = tmp_path / f"{cfg['command']}.json"
        path.write_text(json.dumps(cfg))
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "thickset", "--config", str(path)],
                capture_output=True,
                timeout=300,
            )
            if proc.returncode != 0:
                mismatches.append(f"subprocess {cfg['command']} rc={proc.returncode}")
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            mismatches.append(f"subprocess {cfg['command']} bytes differ")
    ok = not mismatches
    report(8, ok, f"byte-identical CSVs: {'yes' if ok else mismatches}")
