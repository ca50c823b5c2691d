"""The benchmark's workloads: cells made from a seed, and the checks on their output.

Every workload is a closed loop with one client: the runner sends a cell,
waits for it to finish, then sends the next.  A cell calls thickset only
through its public surface (the package exports, `thickset.cli.run` without
`jobs`, `thickset.cli.emit_csv`), looking the functions up at call time so
that a traced run sees the same calls.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import thickset
import thickset.cli

# lambda_min at or below this is noise of the dense eigensolve (about
# 4 N eps ||G|| at the largest N = 1025), so a verdict on it is unresolved.
NOISE_FLOOR = 1e-12

# Rounding slack for ratios that are at most 1 in exact arithmetic.
RATIO_SLACK = 1e-9

# Relative tolerance of the Parseval identity for the p = 2 torus norm.
PARSEVAL_TOL = 1e-10

# lp_norm's p = inf search starts from a grid of spacing h = min(1, 2 pi / nu)
# / 8 (nu the largest frequency, 8 the default resolution) and refines only
# the grid argmax.  Where |f| peaks at M, |f(x* + t)| >= M cos(nu t)
# (Bernstein), and a grid point lies within h / 2 <= pi / (8 nu) of the peak,
# so the grid comes within SUP_COS of M.  The search promises no more: it may
# settle on a lower peak.  Two correct sup searches may differ by that much,
# and the torus sup may fall that far below the sup on E.
SUP_COS = math.cos(math.pi / 8)
SUP_TOL = 1.0 / SUP_COS - 1.0

# Size of the FFT grid on which the benchmark finds the torus sup itself.
SUP_FFT_POINTS = 1 << 16

# (relative, absolute) tolerance per output column when comparing with the
# recorded reference; other float columns use DEFAULT_TOL.
DEFAULT_TOL = (1e-8, 1e-12)
COLUMN_TOL = {
    "lambda_min": (1e-8, NOISE_FLOOR),
    "exact": (1e-8, math.sqrt(NOISE_FLOOR)),
    "identity_error": (0.0, 1e-10),
    "parseval_gap": (0.0, 1e-10),
    "slope": (1e-8, 1e-10),
}
# Columns that rest on an lp_norm sup where p = inf; they match within SUP_TOL.
SUP_COLUMNS = ("norm_E", "norm_T", "ratio", "max_ratio")


@dataclass(frozen=True)
class Cell:
    """One request: `run` is the timed work, `finish` turns its value into an Outcome."""

    key: str
    run: Callable[[], object]
    finish: Callable[[str, object], "Outcome"]


@dataclass
class Outcome:
    """Output rows of one cell with its verdict counts and failed checks."""

    key: str
    header: tuple[str, ...]
    rows: list[list[str]]
    raw: bytes
    violations: tuple[str, ...] = ()
    unresolved: int = 0
    sup_shortfalls: int = 0
    failures: list[str] = field(default_factory=list)


def failed_outcome(key: str, message: str) -> Outcome:
    return Outcome(key, (), [], b"", failures=[message])


# ---------------------------------------------------------------------------
# restriction: library route, ||f||_{Lp(E)} / ||f||_{Lp(torus)}

RESTRICTION_L = 8.0
RESTRICTION_GAMMAS = (0.1, 0.3, 0.7)
RESTRICTION_PS = (1.0, 2.0, math.inf)
RESTRICTION_SPECTRA = {
    "b4pi": ((0.0,), 4.0 * math.pi),
    "b16pi": ((0.0,), 16.0 * math.pi),
    "b64pi": ((0.0,), 64.0 * math.pi),
    "three_bands": ((0.0, 12.0 * math.pi, 24.0 * math.pi), 4.0 * math.pi),
}
RESTRICTION_REPEATS = 3
RESTRICTION_HEADER = ("gamma", "p", "spectrum", "f_seed", "norm_E", "norm_T", "ratio", "bound_log10")


def _restriction_run(gamma: float, p: float, spectrum: str, f_seed: int):
    centers, width = RESTRICTION_SPECTRA[spectrum]
    spec = thickset.BandSpec(centers, width)
    E = thickset.two_sliver_set(gamma)
    f = thickset.random_bandlimited(spec, RESTRICTION_L, seed=f_seed)
    norm_E = thickset.lp_norm(f, thickset.NormQuery(p, E))
    norm_T = thickset.lp_norm(f, thickset.NormQuery(p, thickset.full_torus(RESTRICTION_L)))
    return f, norm_E, norm_T


def _restriction_bound_log10(gamma: float, p: float, spectrum: str) -> float:
    """log10 of the theorem's lower bound for the cell's set and spectrum."""
    centers, width = RESTRICTION_SPECTRA[spectrum]
    gamma_cert = thickset.thickness(thickset.two_sliver_set(gamma), 1.0).gamma
    if len(centers) == 1:
        return thickset.theorem1_bound_log10(gamma_cert, width, p)
    return thickset.theorem2_bound_log10(gamma_cert, len(centers), width, p)


def _restriction_finish(key: str, value) -> Outcome:
    f, norm_E, norm_T = value
    params = json.loads(key)
    ratio = norm_E / norm_T
    bound_log10 = _restriction_bound_log10(params["gamma"], params["p"], params["spectrum"])
    row = [repr(params["gamma"]), repr(params["p"]), params["spectrum"], str(params["f_seed"]),
           repr(norm_E), repr(norm_T), repr(ratio), repr(bound_log10)]
    out = Outcome(key, RESTRICTION_HEADER, [row], ",".join(row).encode())
    if ratio == 0.0:
        out.unresolved = 1
    elif math.log10(ratio) < bound_log10:
        out.violations = (f"restriction: ratio {ratio:.6g} below bound at {key}",)
    if ratio > 1.0 + RATIO_SLACK:
        out.sup_shortfalls = 1
    if math.isinf(params["p"]):
        lo, hi = torus_sup(f)
        if not SUP_COS * lo * (1.0 - RATIO_SLACK) <= norm_T <= hi * (1.0 + RATIO_SLACK):
            out.failures.append(f"torus sup {norm_T!r} outside [cos(pi/8), 1] x the sup {lo!r}")
        if not 0.0 <= norm_E <= hi * (1.0 + RATIO_SLACK):
            out.failures.append(f"sup on E {norm_E!r} above the torus sup {hi!r}")
    elif not 0.0 <= ratio <= 1.0 + RATIO_SLACK:
        out.failures.append(f"ratio {ratio!r} outside [0, 1]")
    if params["p"] == 2.0:
        parseval = math.sqrt(RESTRICTION_L * float(np.sum(np.abs(f.coeffs) ** 2)))
        if not abs(norm_T - parseval) <= PARSEVAL_TOL * parseval:
            out.failures.append(f"torus L2 norm {norm_T!r} misses Parseval value {parseval!r}")
    return out


def torus_sup(f) -> tuple[float, float]:
    """Bounds (lo, hi) on the sup of |f| over its torus, from a zero-padded FFT.

    The largest |f| on SUP_FFT_POINTS equispaced points is lo; by the same
    Bernstein bound as SUP_COS, hi = lo / cos(nu h / 2) for that grid's h.
    """
    values = np.zeros(SUP_FFT_POINTS, dtype=complex)
    np.add.at(values, f.ms % SUP_FFT_POINTS, f.coeffs)
    lo = float(np.max(np.abs(np.fft.ifft(values)))) * SUP_FFT_POINTS
    return lo, lo / math.cos(f.max_frequency * f.period / SUP_FFT_POINTS / 2.0)


def restriction_cells(seed: int) -> list[Cell]:
    rng = np.random.default_rng([seed, 1])
    cells = []
    for gamma in RESTRICTION_GAMMAS:
        for p in RESTRICTION_PS:
            for spectrum in RESTRICTION_SPECTRA:
                for _ in range(RESTRICTION_REPEATS):
                    f_seed = int(rng.integers(0, 2**31))
                    key = json.dumps({"gamma": gamma, "p": p, "spectrum": spectrum, "f_seed": f_seed})
                    cells.append(Cell(
                        key,
                        lambda g=gamma, q=p, s=spectrum, fs=f_seed: _restriction_run(g, q, s, fs),
                        _restriction_finish,
                    ))
    return cells


# ---------------------------------------------------------------------------
# CLI route: every grid point is its own thickset.cli.run call


def _cli_run(config: dict):
    result = thickset.cli.run(config)
    return thickset.cli.emit_csv(result.table), result.violations


def _column(header, rows, name) -> list[float]:
    if name not in header:
        return []
    i = header.index(name)
    return [float(row[i]) for row in rows]


def _cli_finish(key: str, value) -> Outcome:
    payload, violations = value
    table = list(csv.reader(io.StringIO(payload.decode("utf-8"))))
    header, rows = tuple(table[0]), table[1:]
    out = Outcome(key, header, rows, payload, tuple(violations))
    command = json.loads(key)["command"]
    if command == "concentration":
        lams = _column(header, rows, "lambda_min")
        out.unresolved = sum(lam <= NOISE_FLOOR for lam in lams)
        out.failures += [f"lambda_min {lam!r} outside [-floor, 1]" for lam in lams
                         if not -NOISE_FLOOR <= lam <= 1.0 + NOISE_FLOOR]
    elif command == "extremal":
        ratios = _column(header, rows, "ratio")
        out.unresolved = sum(r == 0.0 for r in ratios)
        out.failures += [f"ratio {r!r} outside [0, 1]" for r in ratios
                         if not 0.0 <= r <= 1.0 + RATIO_SLACK]
    elif command == "thickness":
        out.failures += [f"gamma {g!r} outside [0, 1]" for g in _column(header, rows, "gamma")
                         if not 0.0 <= g <= 1.0]
    return out


def _cli_cell(config: dict) -> Cell:
    return Cell(json.dumps(config, sort_keys=True), lambda c=config: _cli_run(c), _cli_finish)


SANDWICH_L = 32.0
SANDWICH_CONCENTRATION = ((0.1, 0.3, 0.7), (4, 16, 32, 64))  # gamma, b / pi
SANDWICH_EXTREMAL = ((40, 80, 160, 320), (0.05, 0.1, 0.2, 0.4), (2, 4))  # b / pi, gamma, p
SANDWICH_SWEEP = 6  # thickness sets and theorem-2 points per pass


def sandwich_cells(seed: int) -> list[Cell]:
    rng = np.random.default_rng([seed, 2])
    configs = []
    gammas, bs = SANDWICH_CONCENTRATION
    for gamma in gammas:
        for b in bs:
            configs.append({"command": "concentration", "gamma": gamma, "b": b * math.pi, "L": SANDWICH_L})
    bs, gammas, ps = SANDWICH_EXTREMAL
    for b in bs:
        for gamma in gammas:
            for p in ps:
                configs.append({"command": "extremal", "b": b * math.pi, "gamma": gamma, "p": p})
    for _ in range(SANDWICH_SWEEP):
        period = float(rng.choice([1.0, 2.0]))
        edges = np.sort(rng.uniform(0.0, period, size=2 * int(rng.integers(2, 6))))
        intervals = [[float(a), float(b)] for a, b in edges.reshape(-1, 2)]
        configs.append({"command": "thickness", "set": {"intervals": intervals, "period": period},
                        "a": float(rng.choice([0.25, 0.5, 1.0, 2.0]))})
    for _ in range(SANDWICH_SWEEP):
        configs.append({"command": "bound", "which": "theorem2",
                        "gamma": float(rng.uniform(0.05, 0.95)), "n": int(rng.integers(1, 4)),
                        "ab": float(rng.uniform(0.5, 8.0)), "p": ["inf", 1, 2][int(rng.integers(0, 3))]})
    order = rng.permutation(len(configs))
    return [_cli_cell(configs[i]) for i in order]


PROOF_SEEDS = {"good_bad": 10, "local_estimate": 5, "growth": 5, "taylor": 5, "band_norms": 5, "classify": 8}


def proof_suites_cells(seed: int) -> list[Cell]:
    rng = np.random.default_rng([seed, 3])

    def seeds(name):
        return [int(s) for s in rng.integers(0, 10**6, size=PROOF_SEEDS[name])]

    configs = []
    for p in (1, 2):
        configs += [{"command": "verify", "suite": "good_bad", "seeds": 1, "seed": s, "p": p}
                    for s in seeds("good_bad")]
    for p in (1, 2):
        for gamma in (0.1, 0.3, 0.7):
            configs += [{"command": "verify", "suite": "local_estimate", "seeds": 1, "seed": s,
                         "p": p, "gamma": gamma} for s in seeds("local_estimate")]
    for p in (1, 2):
        configs += [{"command": "verify", "suite": "growth", "seeds": 1, "seed": s, "p": p}
                    for s in seeds("growth")]
    configs += [{"command": "verify", "suite": "taylor", "seeds": 1, "seed": s} for s in seeds("taylor")]
    for p in (1, 2, "inf"):
        configs += [{"command": "verify", "suite": "band_norms", "seeds": 1, "seed": s, "p": p, "n": 3}
                    for s in seeds("band_norms")]
    base = int(rng.integers(0, 10**6))
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for p in (2, "inf"):
                configs.append({"command": "verify", "suite": "expsum", "seed": base, "n": n, "m": m, "p": p})
    for p in (1, 2):
        configs += [{"command": "classify", "seed": s, "p": p, "L": 32} for s in seeds("classify")]
    return [_cli_cell(c) for c in configs]


# ---------------------------------------------------------------------------
# checks that need more than a cell's own output


def gram_check(outcome: Outcome) -> list[str]:
    """Gram diagonal, trace identity and spectrum range of a concentration cell.

    Rebuilds the cell's Gram matrix through the library exports and checks
    that the CLI's lambda_min is its smallest eigenvalue.
    """
    config = json.loads(outcome.key)
    if config.get("command") != "concentration" or not outcome.rows:
        return []
    period = config["L"]
    E = thickset.two_sliver_set(config["gamma"])
    ms = thickset.lattice_indices(thickset.BandSpec((0.0,), config["b"]), period)
    result = thickset.min_concentration(ms, E, period)
    G = result.gram.matrix
    n = G.shape[0]
    fraction = sum(b - a for a, b in E.materialize(0.0, period)) / period
    failures = []
    if not np.allclose(np.diag(G), fraction, rtol=0.0, atol=1e-12):
        failures.append("Gram diagonal differs from |E|/L")
    trace = float(np.sum(result.eigenvalues))
    if not abs(trace - n * fraction) <= 1e-10 * n * fraction:
        failures.append(f"eigenvalue sum {trace!r} differs from N |E|/L = {n * fraction!r}")
    lo, hi = float(result.eigenvalues[0]), float(result.eigenvalues[-1])
    if not (-NOISE_FLOOR <= lo and hi <= 1.0 + NOISE_FLOOR):
        failures.append(f"eigenvalues [{lo!r}, {hi!r}] outside [-floor, 1]")
    cli_lam = float(outcome.rows[0][outcome.header.index("lambda_min")])
    if not abs(cli_lam - result.lambda_min) <= NOISE_FLOOR:
        failures.append(f"CLI lambda_min {cli_lam!r} is not the Gram minimum {result.lambda_min!r}")
    return failures


def _unresolved_columns(header, ref_row) -> set[str]:
    """Columns whose reference value rests on a quantity at its noise floor."""
    if "lambda_min" in header and float(ref_row[header.index("lambda_min")]) <= NOISE_FLOOR:
        return {"exact", "log10_margin", "holds"}
    if "power" in header and float(ref_row[header.index("ratio")]) == 0.0:
        return {"ratio", "holds"}
    return set()


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def compare_to_reference(outcome: Outcome, ref: dict) -> list[str]:
    """Failures of `outcome` against the recorded reference rows of its key.

    Columns are matched by name, so columns added later are ignored.
    Numbers match within COLUMN_TOL (which leaves counts and 0/1 flags
    exact), or SUP_TOL for SUP_COLUMNS in p = inf rows; other text exactly.
    emit_csv prints a real 0.0 as "0", so a column's type cannot be read from
    its text.
    """
    header, rows = ref["header"], ref["rows"]
    missing = [c for c in header if c not in outcome.header]
    if missing:
        return [f"columns {missing} missing"]
    if len(rows) != len(outcome.rows):
        return [f"{len(outcome.rows)} rows, reference has {len(rows)}"]
    failures = []
    for ref_row, row in zip(rows, outcome.rows):
        skip = _unresolved_columns(header, ref_row)
        sup_row = "p" in header and ref_row[header.index("p")] == "inf"
        for col, want in zip(header, ref_row):
            if col in skip:
                continue
            got = row[outcome.header.index(col)]
            if not _is_number(want):
                ok = got == want
            else:
                w, g = float(want), float(got)
                rel, abs_ = COLUMN_TOL.get(col, DEFAULT_TOL)
                if sup_row and col in SUP_COLUMNS:
                    rel = SUP_TOL
                ok = (w == g) or (math.isnan(w) and math.isnan(g)) or abs(g - w) <= rel * abs(w) + abs_
            if not ok:
                failures.append(f"{col}: {got} vs reference {want}")
    return failures


WORKLOADS = {
    "restriction": restriction_cells,
    "sandwich": sandwich_cells,
    "proof_suites": proof_suites_cells,
}

# Layers each workload must call at least once in a traced pass; a binding the
# tracer missed shows up as a zero here.
STRESSED = {
    "restriction": ("bandlimited.eval", "bandlimited.lp_norm", "bandlimited.random_bandlimited",
                    "quadrature.panel_nodes", "quadrature.golden_max", "sets.materialize"),
    "sandwich": ("concentration.gram_matrix", "concentration.min_concentration",
                 "concentration.sharpness_gap", "extremal.extremal_ratio",
                 "extremal.default_truncation", "quadrature.panel_nodes", "sets.materialize",
                 "sets.thickness", "bounds", "cli.run", "cli.emit_csv"),
    "proof_suites": ("proofcheck.classify_intervals", "proofcheck.good_mass_check",
                     "proofcheck.local_estimate_check", "proofcheck.growth_envelope",
                     "proofcheck.exp_sum_verifier", "proofcheck.taylor_split",
                     "proofcheck.band_component_norms", "quadrature.golden_max",
                     "quadrature.panel_nodes", "bandlimited.eval", "bandlimited.lp_norm",
                     "sets.materialize", "bounds", "cli.run", "cli.emit_csv"),
}
