"""Config-driven experiment runner with deterministic CSV output.

Subcommands (the "command" key of a JSON config): bound, thickness,
concentration, verify, extremal, classify.  Reals are rendered with 17
significant digits, rows in a fixed grid order, LF line endings; identical
configs and seeds produce byte-identical files.  Exit status is 0 when all
asserted contracts hold, 1 with a failure manifest otherwise, 2 for usage
or config-schema errors.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import proofcheck
from .bandlimited import BandSpec, NormQuery, full_torus, lp_norm, random_bandlimited
from .bounds import (
    BoundConstants,
    DEFAULT_CONSTANTS,
    holder_share,
    lemma1_corollary_bound,
    lemma3_bound,
    multidim_bound,
    MultiDimParams,
    nazarov_remez_bounds,
    remark1_bounds,
    theorem1_bound,
    theorem1_bound_log10,
    theorem2_bound,
    theorem2prime_bound,
)
from .concentration import min_concentration, sharpness_gap
from .errors import ConfigError, ThicksetError
from .extremal import extremal_pair, extremal_ratio
from .quadrature import panel_nodes, panel_width
from .sets import IntervalSet, normalize, thickness, two_sliver_set

SEED_ENV_VAR = "THICKSET_SEED"

COMMANDS = ("bound", "thickness", "concentration", "verify", "extremal", "classify")


@dataclass(frozen=True)
class ExperimentTable:
    """Header and rows of one experiment run."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class RunResult:
    table: ExperimentTable
    violations: tuple[str, ...]

    @property
    def exit_status(self) -> int:
        return 0 if not self.violations else 1


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    text = str(value)
    if any(ch in text for ch in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(table: ExperimentTable) -> bytes:
    """RFC-4180 CSV bytes with LF endings and 17-significant-digit reals."""
    lines = [",".join(table.header)]
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# config plumbing


def _fail(message: str) -> ConfigError:
    return ConfigError(message)


def _parse_p(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise _fail(f"unrecognized exponent {value!r}")
    return float(value)


def _listify(config: dict, key: str, default=None, parser=float) -> list:
    """Accept `key` as a scalar or `key`/`key_list` as a list."""
    if f"{key}_list" in config:
        raw = config[f"{key}_list"]
    elif key in config:
        raw = config[key]
    elif default is not None:
        raw = default
    else:
        raise _fail(f"config needs {key!r} or {key!r}_list")
    if not isinstance(raw, list):
        raw = [raw]
    if not raw:
        raise _fail(f"{key}_list must not be empty")
    return [parser(v) for v in raw]


def _set_from_config(data) -> IntervalSet:
    if not isinstance(data, dict):
        raise _fail("'set' must be an object")
    if "two_sliver" in data:
        return two_sliver_set(float(data["two_sliver"]))
    if "intervals" in data:
        return normalize(data["intervals"], period=data.get("period"))
    raise _fail("'set' needs either 'two_sliver' or 'intervals'")


def _constants_from_config(config: dict) -> BoundConstants:
    overrides = config.get("constants", {})
    if not isinstance(overrides, dict):
        raise _fail("'constants' must be an object")
    allowed = {"c_one", "c_one_sup", "k_one", "c_multi", "c_aux"}
    unknown = set(overrides) - allowed
    if unknown:
        raise _fail(f"unknown constants {sorted(unknown)}")
    return BoundConstants(**{k: float(v) for k, v in overrides.items()})


def _seed_base(config: dict) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _fail(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise _fail(f"'seed' must be a nonnegative integer, got {seed!r}")
    return seed


# ---------------------------------------------------------------------------
# subcommands


def _run_bound(config: dict) -> RunResult:
    which = config.get("which", "theorem1")
    constants = _constants_from_config(config)
    rows: list[tuple] = []
    if which in ("theorem1", "theorem2", "theorem2prime"):
        gammas = _listify(config, "gamma")
        abs_ = _listify(config, "ab")
        ps = _listify(config, "p", parser=_parse_p)
        ns = _listify(config, "n", default=[1], parser=int) if which != "theorem1" else [None]
        header = ("which", "gamma", "n", "ab", "p", "value")
        for gamma in gammas:
            for n in ns:
                for ab in abs_:
                    for p in ps:
                        if which == "theorem1":
                            value = theorem1_bound(gamma, ab, p, constants)
                        elif which == "theorem2":
                            value = theorem2_bound(gamma, n, ab, p, constants)
                        else:
                            value = theorem2prime_bound(gamma, n, ab, p, constants)
                        rows.append((which, gamma, 0 if n is None else n, ab, p, value))
    elif which == "remark1":
        header = ("which", "gamma", "ab", "p", "small_ab", "near_full")
        for gamma in _listify(config, "gamma"):
            for ab in _listify(config, "ab"):
                for p in _listify(config, "p", parser=_parse_p):
                    pair = remark1_bounds(gamma, ab, p)
                    rows.append((which, gamma, ab, p, pair.small_ab, pair.near_full))
    elif which == "lemma1":
        header = ("which", "meas_E", "M", "p", "value")
        ps = _listify(config, "p", parser=_parse_p) if ("p" in config or "p_list" in config) else [None]
        for meas in _listify(config, "meas_E"):
            for m_ratio in _listify(config, "M"):
                for p in ps:
                    value = lemma1_corollary_bound(meas, m_ratio, p, constants)
                    rows.append((which, meas, m_ratio, math.inf if p is None else p, value))
    elif which == "lemma3":
        header = ("which", "len_I", "meas_E", "n", "m", "p", "value")
        for len_i in _listify(config, "len_I", default=[1.0]):
            for meas in _listify(config, "meas_E"):
                for n in _listify(config, "n", parser=int):
                    for m in _listify(config, "m", parser=int):
                        for p in _listify(config, "p", parser=_parse_p):
                            value = lemma3_bound(len_i, meas, n, m, p, constants)
                            rows.append((which, len_i, meas, n, m, p, value))
    elif which == "nazarov_remez":
        header = ("which", "len_I", "meas_E", "n", "nazarov", "remez")
        for len_i in _listify(config, "len_I", default=[1.0]):
            for meas in _listify(config, "meas_E"):
                for n in _listify(config, "n", parser=int):
                    pair = nazarov_remez_bounds(len_i, meas, n, constants)
                    rows.append((which, len_i, meas, n, pair.nazarov, pair.remez))
    elif which == "multidim":
        header = ("which", "gamma", "d", "sum_ab", "n", "p", "value")
        products = tuple(float(v) for v in config.get("ab_products", [1.0]))
        params = MultiDimParams(d=len(products), ab_products=products)
        ns = _listify(config, "n", parser=int) if ("n" in config or "n_list" in config) else [None]
        for gamma in _listify(config, "gamma"):
            for n in ns:
                for p in _listify(config, "p", default=[2.0], parser=_parse_p):
                    value = multidim_bound(gamma, params, p, n, constants)
                    rows.append((which, gamma, params.d, sum(products), 0 if n is None else n, p, value))
    else:
        raise _fail(f"unknown bound evaluator {which!r}")
    return RunResult(ExperimentTable(header, tuple(rows)), ())


def _run_thickness(config: dict) -> RunResult:
    E = _set_from_config(config.get("set", {}))
    domain = config.get("domain")
    domain = tuple(float(v) for v in domain) if domain is not None else None
    rows = []
    for a in _listify(config, "a", default=[1.0]):
        cert = thickness(E, a, domain=domain)
        rows.append((a, cert.gamma))
    return RunResult(ExperimentTable(("a", "gamma"), tuple(rows)), ())


def _run_concentration(config: dict) -> RunResult:
    constants = _constants_from_config(config)
    violations: list[str] = []
    if "freqs" in config:
        freqs = [int(m) for m in config["freqs"]]
        E = _set_from_config(config.get("set", {}))
        period = float(config.get("L", 1.0))
        result = min_concentration(freqs, E, period)
        header = ("n_freqs", "measure_fraction", "lambda_min", "residual")
        rows = (
            (
                len(freqs),
                result.gram.measure_fraction,
                result.lambda_min,
                result.residual,
            ),
        )
        return RunResult(ExperimentTable(header, rows), ())
    gammas = _listify(config, "gamma")
    b_values = _listify(config, "b")
    period = float(config.get("L", 8.0))
    window = float(config.get("window", 1.0))
    header = (
        "gamma",
        "b",
        "n_freqs",
        "lambda_min",
        "exact",
        "bound",
        "log10_bound",
        "log10_margin",
        "holds",
    )
    cells = [(gamma, b) for gamma in gammas for b in b_values]

    def one(cell):
        gamma, b = cell
        report = sharpness_gap(
            BandSpec((0.0,), b), two_sliver_set(gamma), period, constants, window
        )
        return report

    reports = [one(cell) for cell in cells]
    rows = []
    for (gamma, b), report in zip(cells, reports):
        rows.append(
            (
                report.gamma,
                b,
                report.n_freqs,
                report.lambda_min,
                report.exact,
                report.bound,
                report.log10_bound,
                report.log10_margin,
                report.holds,
            )
        )
        if not report.holds:
            violations.append(
                f"concentration: exact {report.exact:.6g} below bound at gamma={gamma:g} b={b:g}"
            )
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _run_extremal(config: dict) -> RunResult:
    constants = _constants_from_config(config)
    gammas = _listify(config, "gamma")
    b_values = _listify(config, "b")
    ps = _listify(config, "p", default=[2.0], parser=_parse_p)
    truncation = config.get("truncation")
    truncation = float(truncation) if truncation is not None else None
    header = (
        "b",
        "gamma",
        "p",
        "power",
        "ratio",
        "bound_log10",
        "example_log10",
        "holds",
    )
    cells = [(b, gamma, p) for b in b_values for gamma in gammas for p in ps]

    def one(cell):
        b, gamma, p = cell
        inst = extremal_pair(b, gamma)
        ratio = extremal_ratio(inst, p, truncation)
        bound_log10 = theorem1_bound_log10(gamma, b, p, constants)
        example_log10 = (inst.power - 1) * math.log10(gamma)
        holds = math.log10(ratio) >= bound_log10 if ratio > 0 else False
        return inst, ratio, bound_log10, example_log10, holds

    results = [one(cell) for cell in cells]
    rows = []
    violations = []
    for (b, gamma, p), (inst, ratio, bound_log10, example_log10, holds) in zip(
        cells, results
    ):
        rows.append((b, gamma, p, inst.power, ratio, bound_log10, example_log10, holds))
        if not holds:
            violations.append(
                f"extremal: ratio {ratio:.6g} below bound at b={b:g} gamma={gamma:g} p={p:g}"
            )
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _run_classify(config: dict) -> RunResult:
    seed = _seed_base(config)
    b = float(config.get("b", 4.0 * math.pi))
    p = _parse_p(config.get("p", 2))
    period = float(config.get("L", 8.0))
    f = random_bandlimited(BandSpec((0.0,), b), period, seed=seed)
    params = proofcheck.ClassifierParams(p=p)
    labels = proofcheck.classify_intervals(f, b, params)
    good_fraction = proofcheck.good_mass_check(f, labels)
    bad_fraction = 1.0 - good_fraction
    budget = 1.0 / (params.bad_threshold ** p - 1.0)
    header = ("index", "lo", "hi", "good", "first_bad_order", "mass")
    rows = tuple(
        (i, lo, hi, bool(g), int(order), mass)
        for i, ((lo, hi), g, order, mass) in enumerate(
            zip(
                labels.intervals,
                labels.good.tolist(),
                labels.first_bad_order.tolist(),
                labels.mass.tolist(),
            )
        )
    )
    violations = []
    if bad_fraction > budget + 1e-4:
        violations.append(
            f"classify: bad mass fraction {bad_fraction:.6g} exceeds budget {budget:.6g}"
        )
    if good_fraction < 0.5 - 1e-4:
        violations.append(
            f"classify: good mass fraction {good_fraction:.6g} below one half"
        )
    return RunResult(ExperimentTable(header, rows), tuple(violations))


# ---------------------------------------------------------------------------
# verify suites


def _suite_good_bad(config: dict) -> RunResult:
    base = _seed_base(config)
    n_seeds = int(config.get("seeds", 10))
    period = float(config.get("L", 8.0))
    b_values = _listify(config, "b", default=[4.0 * math.pi])
    ps = _listify(config, "p", default=[1.0, 2.0], parser=_parse_p)
    header = (
        "seed",
        "b",
        "p",
        "n_bad",
        "bad_mass_fraction",
        "good_mass_fraction",
        "bad_budget",
    )
    cases = [
        (base + i, b, p) for b in b_values for p in ps for i in range(n_seeds)
    ]

    def one(case):
        seed, b, p = case
        f = random_bandlimited(BandSpec((0.0,), b), period, seed=seed)
        params = proofcheck.ClassifierParams(p=p)
        labels = proofcheck.classify_intervals(f, b, params)
        good_fraction = proofcheck.good_mass_check(f, labels)
        return labels, good_fraction, params

    results = [one(case) for case in cases]
    rows = []
    violations = []
    for (seed, b, p), (labels, good_fraction, params) in zip(cases, results):
        bad_fraction = 1.0 - good_fraction
        budget = 1.0 / (params.bad_threshold ** p - 1.0)
        n_bad = int((~labels.good).sum())
        rows.append((seed, b, p, n_bad, bad_fraction, good_fraction, budget))
        if bad_fraction > budget + 1e-4:
            violations.append(
                f"good_bad: seed={seed} b={b:g} p={p:g} bad mass {bad_fraction:.6g} over budget"
            )
        if good_fraction < 0.5 - 1e-4:
            violations.append(
                f"good_bad: seed={seed} b={b:g} p={p:g} good mass {good_fraction:.6g} under half"
            )
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _suite_local_estimate(config: dict) -> RunResult:
    base = _seed_base(config)
    n_seeds = int(config.get("seeds", 5))
    period = float(config.get("L", 8.0))
    constants = _constants_from_config(config)
    b_values = _listify(config, "b", default=[4.0 * math.pi])
    ps = _listify(config, "p", default=[1.0, 2.0], parser=_parse_p)
    gammas = _listify(config, "gamma", default=[0.1, 0.3, 0.7])
    header = ("seed", "b", "p", "gamma", "n_good", "n_holds", "all_hold")
    cases = [
        (base + i, b, p, gamma)
        for b in b_values
        for p in ps
        for gamma in gammas
        for i in range(n_seeds)
    ]

    def one(case):
        seed, b, p, gamma = case
        f = random_bandlimited(BandSpec((0.0,), b), period, seed=seed)
        labels = proofcheck.classify_intervals(f, b, proofcheck.ClassifierParams(p=p))
        E = two_sliver_set(gamma)
        n_holds = 0
        goods = labels.good_intervals
        for iv in goods:
            check = proofcheck.local_estimate_check(f, E, iv, p, constants)
            if check.holds:
                n_holds += 1
        return len(goods), n_holds

    results = [one(case) for case in cases]
    rows = []
    violations = []
    for (seed, b, p, gamma), (n_good, n_holds) in zip(cases, results):
        all_hold = n_holds == n_good
        rows.append((seed, b, p, gamma, n_good, n_holds, all_hold))
        if not all_hold:
            violations.append(
                f"local_estimate: seed={seed} b={b:g} p={p:g} gamma={gamma:g} "
                f"{n_good - n_holds} good intervals fail"
            )
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _suite_growth(config: dict) -> RunResult:
    base = _seed_base(config)
    n_seeds = int(config.get("seeds", 5))
    period = float(config.get("L", 8.0))
    radius = float(config.get("radius", 4.5))
    b_values = _listify(config, "b", default=[4.0 * math.pi])
    ps = _listify(config, "p", default=[1.0, 2.0], parser=_parse_p)
    header = ("seed", "b", "p", "interval_lo", "ratio", "bound", "holds")
    cases = [(base + i, b, p) for b in b_values for p in ps for i in range(n_seeds)]

    def one(case):
        seed, b, p = case
        f = random_bandlimited(BandSpec((0.0,), b), period, seed=seed)
        labels = proofcheck.classify_intervals(f, b, proofcheck.ClassifierParams(p=p))
        out = []
        for iv in labels.good_intervals:
            env = proofcheck.growth_envelope(f, iv, radius, p)
            out.append((iv[0], env.ratio, env.bound, env.holds))
        return out

    results = [one(case) for case in cases]
    rows = []
    violations = []
    for (seed, b, p), checks in zip(cases, results):
        for lo, ratio, bound, holds in checks:
            rows.append((seed, b, p, lo, ratio, bound, holds))
            if not holds:
                violations.append(
                    f"growth: seed={seed} b={b:g} p={p:g} interval at {lo:g} breaks the envelope"
                )
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _suite_taylor(config: dict) -> RunResult:
    base = _seed_base(config)
    n_seeds = int(config.get("seeds", 5))
    period = float(config.get("L", 8.0))
    b_values = _listify(config, "b", default=[2.0 * math.pi])
    ps = _listify(config, "p", default=[2.0], parser=_parse_p)
    degrees = _listify(config, "m", default=[3], parser=int)
    n_bands = int(config.get("n", 2))
    window = float(config.get("window", 0.5))
    header = ("seed", "b", "p", "m", "identity_error", "lhs", "rhs", "holds")
    cases = [
        (base + i, b, p, m)
        for b in b_values
        for p in ps
        for m in degrees
        for i in range(n_seeds)
    ]

    def one(case):
        seed, b, p, m = case
        centers = tuple(3.0 * b * k for k in range(n_bands))
        components = [
            random_bandlimited(BandSpec((0.0,), b), period, seed=seed + 1000 * k)
            for k in range(n_bands)
        ]
        interval = (1.0, 1.0 + window)
        split = proofcheck.taylor_split(components, centers, interval, m)
        xs = np.linspace(interval[0], interval[1], 17)
        direct = split.total(xs)
        rebuilt = split.exp_sum(xs) + split.remainder(xs)
        scale = float(np.max(np.abs(direct))) or 1.0
        identity_error = float(np.max(np.abs(direct - rebuilt))) / scale
        xs_q, ws_q = panel_nodes(interval[0], interval[1], panel_width(b / 2.0, 8))
        lhs = float(ws_q @ np.abs(split.remainder(xs_q)) ** p)
        rhs = proofcheck.taylor_remainder_bound(split, p)
        return identity_error, lhs, rhs

    results = [one(case) for case in cases]
    rows = []
    violations = []
    for (seed, b, p, m), (identity_error, lhs, rhs) in zip(cases, results):
        holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
        rows.append((seed, b, p, m, identity_error, lhs, rhs, holds))
        if identity_error > 1e-8:
            violations.append(
                f"taylor: seed={seed} b={b:g} m={m} identity error {identity_error:.3e}"
            )
        if not holds:
            violations.append(
                f"taylor: seed={seed} b={b:g} m={m} remainder mass over budget"
            )
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _suite_band_norms(config: dict) -> RunResult:
    base = _seed_base(config)
    n_seeds = int(config.get("seeds", 5))
    period = float(config.get("L", 8.0))
    b_values = _listify(config, "b", default=[2.0 * math.pi])
    ps = _listify(config, "p", default=[2.0], parser=_parse_p)
    n_bands = int(config.get("n", 2))
    header = ("seed", "b", "p", "n", "max_ratio", "parseval_gap")
    cases = [(base + i, b, p) for b in b_values for p in ps for i in range(n_seeds)]

    def one(case):
        seed, b, p = case
        spec = BandSpec(tuple(3.0 * b * k for k in range(n_bands)), b)
        f = random_bandlimited(spec, period, seed=seed)
        report = proofcheck.band_component_norms(f, spec, p)
        gap = math.nan
        if p == 2.0:
            total = lp_norm(f, NormQuery(2.0, full_torus(period)))
            gap = abs(sum(v * v for v in report.norms) - total * total) / total ** 2
        return report.max_ratio, gap

    results = [one(case) for case in cases]
    rows = []
    violations = []
    for (seed, b, p), (max_ratio, gap) in zip(cases, results):
        rows.append((seed, b, p, n_bands, max_ratio, gap))
        if p == 2.0 and max_ratio > 1.0 + 1e-6:
            violations.append(
                f"band_norms: seed={seed} b={b:g} component ratio {max_ratio:.6g} over 1 at p=2"
            )
        if p == 2.0 and gap > 1e-6:
            violations.append(
                f"band_norms: seed={seed} b={b:g} Parseval gap {gap:.3e}"
            )
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _suite_expsum(config: dict) -> RunResult:
    base = _seed_base(config)
    n_instances = int(config.get("seeds", 8))
    constants = _constants_from_config(config)
    ns = _listify(config, "n", default=[1, 2, 3], parser=int)
    ms = _listify(config, "m", default=[1, 2, 3], parser=int)
    ps = _listify(config, "p", default=[2.0, math.inf], parser=_parse_p)
    fractions = _listify(
        config, "fraction", default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    )
    header = (
        "n",
        "m",
        "p",
        "fraction",
        "worst_ratio",
        "bound",
        "slope",
        "slope_cap",
        "minimal_c",
    )
    rows = []
    violations = []
    interval = (0.0, 1.0)

    def cell_job(cell):
        n, m, p = cell
        worst: list[tuple[float, float]] = []
        failures: list[str] = []
        for fraction in fractions:
            E = IntervalSet(((0.0, fraction),))
            best = 0.0
            for i in range(n_instances):
                rng = np.random.default_rng(base + 7919 * i + 13 * n + 101 * m)
                lams = np.sort(rng.uniform(-25.0, 25.0, size=n))
                while np.unique(lams).size < n:
                    lams = np.sort(rng.uniform(-25.0, 25.0, size=n))
                terms = [
                    (
                        float(lam),
                        rng.standard_normal(m) + 1j * rng.standard_normal(m),
                    )
                    for lam in lams
                ]
                check = proofcheck.exp_sum_verifier(terms, interval, E, p, constants)
                best = max(best, check.ratio)
                if not check.holds:
                    failures.append(
                        f"expsum: n={n} m={m} p={p:g} fraction={fraction:g} ratio over bound"
                    )
            worst.append((1.0 / fraction, best))
        scales = np.log([s for s, _ in worst])
        ratios = np.log([r for _, r in worst])
        slope = float(np.polyfit(scales, ratios, 1)[0])
        cap = n * m - holder_share(p) + 0.1
        minimal = proofcheck.minimal_transfer_constant(worst, n * m - holder_share(p))
        return worst, slope, cap, minimal, failures

    cells = [(n, m, p) for n in ns for m in ms for p in ps]
    outcomes = [cell_job(cell) for cell in cells]
    for (n, m, p), (worst, slope, cap, minimal, failures) in zip(cells, outcomes):
        violations.extend(failures)
        if slope > cap:
            violations.append(
                f"expsum: n={n} m={m} p={p:g} slope {slope:.3f} over cap {cap:.3f}"
            )
        for (scale, best), fraction in zip(worst, fractions):
            bound = lemma3_bound(1.0, fraction, n, m, p, constants)
            rows.append((n, m, p, fraction, best, bound, slope, cap, minimal))
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


_SUITES = {
    "good_bad": _suite_good_bad,
    "local_estimate": _suite_local_estimate,
    "growth": _suite_growth,
    "taylor": _suite_taylor,
    "band_norms": _suite_band_norms,
    "expsum": _suite_expsum,
}


def _run_verify(config: dict) -> RunResult:
    suite = config.get("suite")
    if suite not in _SUITES:
        raise _fail(f"'suite' must be one of {sorted(_SUITES)}, got {suite!r}")
    return _SUITES[suite](config)


_RUNNERS = {
    "bound": _run_bound,
    "thickness": _run_thickness,
    "concentration": _run_concentration,
    "verify": _run_verify,
    "extremal": _run_extremal,
    "classify": _run_classify,
}


def run(config: dict) -> RunResult:
    """Validate and execute one experiment config."""
    if not isinstance(config, dict):
        raise _fail("config must be a JSON object")
    command = config.get("command")
    if command not in COMMANDS:
        raise _fail(f"'command' must be one of {COMMANDS}, got {command!r}")
    try:
        return _RUNNERS[command](config)
    except ThicksetError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise _fail(f"malformed config for {command!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thickset",
        description="Run sampling-inequality experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="CSV output path (default: config 'output' or stdout)")
    parser.add_argument("--verbose", action="store_true", help="print a run summary")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(config)
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2
    except ThicksetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = emit_csv(result.table)
    out_path = args.out or config.get("output")
    if out_path:
        with open(out_path, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    if args.verbose:
        print(
            f"{config['command']}: {len(result.table.rows)} rows, "
            f"{len(result.violations)} violations",
            file=sys.stderr,
        )
    for line in result.violations:
        print(f"violation: {line}", file=sys.stderr)
    return result.exit_status


if __name__ == "__main__":
    sys.exit(main())
