"""Config-driven experiment runner with deterministic CSV output.

Subcommands (the "command" key of a JSON config): bound, thickness,
concentration, verify, extremal, classify.  Reals are rendered with 17
significant digits, rows in a fixed grid order, LF line endings; identical
configs and seeds produce byte-identical files.  Exit status is 0 when all
asserted contracts hold, 1 with a failure manifest otherwise, 2 for usage
or config-schema errors.

Every command builds its table through one grid loop, `_tabulate`: a cell
function runs at each point of the cross product of the command's axes and
returns its rows and violations.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import proofcheck
from .bandlimited import BandSpec, random_bandlimited
from .bounds import (
    BoundConstants,
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
)
from .concentration import min_concentration, sharpness_gap
from .errors import ConfigError, ThicksetError
from .extremal import extremal_pair, extremal_ratio
from .quadrature import RESOLUTION, panel_width, piece_integrals
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


def _parse_float(value, key: str) -> float:
    """A real field: a JSON number (int or float), not a bool; true and "2" are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _parse_p(value, key: str) -> float:
    """An exponent: a number, or "inf"/"infinity" in any case."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"unrecognized exponent {value!r}")
    return _parse_float(value, key)


def _parse_int(value, key: str, positive: bool = False) -> int:
    """An integer field: an int, not a bool; 2.5, true and "2" are refused."""
    if not isinstance(value, int) or isinstance(value, bool) or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ConfigError(f"{key!r} must be {kind}, got {value!r}")
    return value


def _listify(config: dict, key: str, default=None, parser=_parse_float) -> list:
    """Accept `key` as a scalar or `key`/`key_list` as a list; `parser(value, key)` reads each."""
    if key in config and f"{key}_list" in config:
        raise ConfigError(f"config gives both {key!r} and {key + '_list'!r}")
    if f"{key}_list" in config:
        raw = config[f"{key}_list"]
    elif key in config:
        raw = config[key]
    elif default is not None:
        raw = default
    else:
        raise ConfigError(f"config needs {key!r} or {key + '_list'!r}")
    if not isinstance(raw, list):
        raw = [raw]
    if not raw:
        raise ConfigError(f"{key}_list must not be empty")
    return [parser(v, key) for v in raw]


def _set_from_config(data) -> IntervalSet:
    if not isinstance(data, dict):
        raise ConfigError("'set' must be an object")
    if "two_sliver" in data:
        return two_sliver_set(_parse_float(data["two_sliver"], "two_sliver"))
    if "intervals" in data:
        return normalize(data["intervals"], period=data.get("period"))
    raise ConfigError("'set' needs either 'two_sliver' or 'intervals'")


def _constants_from_config(config: dict) -> BoundConstants:
    overrides = config.get("constants", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'constants' must be an object")
    allowed = {"c_one", "c_one_sup", "k_one", "c_multi", "c_aux"}
    unknown = set(overrides) - allowed
    if unknown:
        raise ConfigError(f"unknown constants {sorted(unknown)}")
    return BoundConstants(**{k: _parse_float(v, k) for k, v in overrides.items()})


def _seed_base(config: dict) -> int:
    """First instance seed: THICKSET_SEED when set, else config `seed` (default 0)."""
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        name, seed = "'seed'", config.get("seed", 0)
    else:
        name, seed = SEED_ENV_VAR, env
        try:
            seed = int(env)
        except ValueError:
            pass  # a non-integer stays a string and is refused below
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{name} must be a nonnegative integer, got {seed!r}")
    return seed


def _seed_count(config: dict, default: int) -> int:
    """Number of instances per cell: `seeds`, an integer >= 1."""
    return _parse_int(config.get("seeds", default), "seeds", positive=True)


def _seeds(config: dict, default: int) -> list[int]:
    """Instance seeds base, base + 1, ... of a sweep of `seeds` instances."""
    base = _seed_base(config)
    return [base + i for i in range(_seed_count(config, default))]


def _tabulate(header: tuple[str, ...], axes, cell) -> RunResult:
    """Run `cell(*point)` over the product of `axes`, first axis outermost.

    Each cell returns (rows, violations); both are concatenated in grid order.
    """
    rows: list[tuple] = []
    violations: list[str] = []
    for point in itertools.product(*axes):
        cell_rows, cell_violations = cell(*point)
        rows.extend(cell_rows)
        violations.extend(cell_violations)
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _classified(b: float, p: float, period: float, seed: int):
    """A random instance with band [-b/2, b/2] and its good/bad classification."""
    f = random_bandlimited(BandSpec((0.0,), b), period, seed=seed)
    return f, proofcheck.classify_intervals(f, b, proofcheck.ClassifierParams(p=p))


def _mass_budget(labels, where: str) -> tuple[float, float, float, list[str]]:
    """Bad and good mass fractions, the bad-mass budget 1 / (A^p - 1) and the violated ones."""
    good = proofcheck.good_mass_check(labels)
    bad, budget = 1.0 - good, 1.0 / (labels.params.bad_threshold ** labels.params.p - 1.0)
    violations = []
    if bad > budget + 1e-4:
        violations.append(f"{where}: bad mass fraction {bad:.6g} exceeds budget {budget:.6g}")
    if good < 0.5 - 1e-4:
        violations.append(f"{where}: good mass fraction {good:.6g} below one half")
    return bad, good, budget, violations


# ---------------------------------------------------------------------------
# subcommands


def _run_bound(config: dict) -> RunResult:
    which = config.get("which", "theorem1")
    constants = _constants_from_config(config)
    if which == "theorem1":
        header = ("gamma", "n", "ab", "p", "value")
        axes = (
            _listify(config, "gamma"),
            _listify(config, "ab"),
            _listify(config, "p", parser=_parse_p),
        )

        def values(gamma, ab, p):
            return gamma, 0, ab, p, theorem1_bound(gamma, ab, p, constants)
    elif which == "theorem2":
        header = ("gamma", "n", "ab", "p", "value")
        axes = (
            _listify(config, "gamma"),
            _listify(config, "n", default=[1], parser=_parse_int),
            _listify(config, "ab"),
            _listify(config, "p", parser=_parse_p),
        )

        def values(gamma, n, ab, p):
            return gamma, n, ab, p, theorem2_bound(gamma, n, ab, p, constants)
    elif which == "remark1":
        header = ("gamma", "ab", "p", "small_ab", "near_full")
        axes = (
            _listify(config, "gamma"),
            _listify(config, "ab"),
            _listify(config, "p", parser=_parse_p),
        )

        def values(gamma, ab, p):
            pair = remark1_bounds(gamma, ab, p)
            return gamma, ab, p, pair.small_ab, pair.near_full
    elif which == "lemma1":
        # p = inf is the sup form, the one used when no p is given
        header = ("meas_E", "M", "p", "value")
        axes = (
            _listify(config, "meas_E"),
            _listify(config, "M"),
            _listify(config, "p", default=[math.inf], parser=_parse_p),
        )

        def values(meas, m_ratio, p):
            return meas, m_ratio, p, lemma1_corollary_bound(meas, m_ratio, p, constants)
    elif which == "lemma3":
        header = ("len_I", "meas_E", "n", "m", "p", "value")
        axes = (
            _listify(config, "len_I", default=[1.0]),
            _listify(config, "meas_E"),
            _listify(config, "n", parser=_parse_int),
            _listify(config, "m", parser=_parse_int),
            _listify(config, "p", parser=_parse_p),
        )

        def values(len_i, meas, n, m, p):
            return len_i, meas, n, m, p, lemma3_bound(len_i, meas, n, m, p, constants)
    elif which == "nazarov_remez":
        header = ("len_I", "meas_E", "n", "nazarov", "remez")
        axes = (
            _listify(config, "len_I", default=[1.0]),
            _listify(config, "meas_E"),
            _listify(config, "n", parser=_parse_int),
        )

        def values(len_i, meas, n):
            pair = nazarov_remez_bounds(len_i, meas, n, constants)
            return len_i, meas, n, pair.nazarov, pair.remez
    elif which == "multidim":
        # without n the single-band form is evaluated, printed as n = 0
        header = ("gamma", "d", "sum_ab", "n", "p", "value")
        products = tuple(_parse_float(v, "ab_products") for v in config.get("ab_products", [1.0]))
        params = MultiDimParams(d=len(products), ab_products=products)
        axes = (
            _listify(config, "gamma"),
            _listify(config, "n", parser=_parse_int) if ("n" in config or "n_list" in config) else [None],
            _listify(config, "p", default=[2.0], parser=_parse_p),
        )

        def values(gamma, n, p):
            value = multidim_bound(gamma, params, p, n, constants)
            return gamma, params.d, sum(products), 0 if n is None else n, p, value
    else:
        raise ConfigError(f"unknown bound evaluator {which!r}")
    return _tabulate(("which",) + header, axes, lambda *point: ([(which, *values(*point))], ()))


def _run_thickness(config: dict) -> RunResult:
    E = _set_from_config(config.get("set", {}))
    domain = config.get("domain")
    if domain is not None and (not isinstance(domain, list) or len(domain) != 2):
        raise ConfigError(f"'domain' must be a list of two numbers, got {domain!r}")
    domain = tuple(_parse_float(v, "domain") for v in domain) if domain is not None else None

    def cell(a):
        return [(a, thickness(E, a, domain=domain).gamma)], ()

    return _tabulate(("a", "gamma"), (_listify(config, "a", default=[1.0]),), cell)


def _run_concentration(config: dict) -> RunResult:
    constants = _constants_from_config(config)
    if "freqs" in config:
        freqs = [_parse_int(m, "freqs") for m in config["freqs"]]
        E = _set_from_config(config.get("set", {}))
        period = _parse_float(config.get("L", 1.0), "L")
        header = ("n_freqs", "measure_fraction", "lambda_min", "residual")

        def explicit():
            result = min_concentration(freqs, E, period)
            row = (len(freqs), result.gram.measure_fraction, result.lambda_min, result.residual)
            return [row], ()

        return _tabulate(header, (), explicit)
    period = _parse_float(config.get("L", 8.0), "L")
    window = _parse_float(config.get("window", 1.0), "window")
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

    def cell(gamma, b):
        report = sharpness_gap(
            BandSpec((0.0,), b), two_sliver_set(gamma), period, constants, window
        )
        row = (
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
        violations = [] if report.holds else [
            f"concentration: exact {report.exact:.6g} below bound at gamma={gamma:g} b={b:g}"
        ]
        return [row], violations

    axes = (_listify(config, "gamma"), _listify(config, "b"))
    return _tabulate(header, axes, cell)


def _run_extremal(config: dict) -> RunResult:
    constants = _constants_from_config(config)
    if "truncation_list" in config:
        raise ConfigError("'truncation_list' is not read: give one 'truncation' for the grid")
    truncation = config.get("truncation")
    truncation = _parse_float(truncation, "truncation") if truncation is not None else None
    header = ("b", "gamma", "p", "power", "ratio", "log10_ratio", "bound_log10",
              "example_log10", "holds")

    def cell(b, gamma, p):
        inst = extremal_pair(b, gamma)
        log10_ratio = extremal_ratio(inst, p, truncation)
        bound_log10 = theorem1_bound_log10(gamma, b, p, constants)
        example_log10 = (inst.power - 1) * math.log10(gamma)
        holds = log10_ratio >= bound_log10
        violations = [] if holds else [
            f"extremal: ratio 10^{log10_ratio:.6g} below bound at b={b:g} gamma={gamma:g} p={p:g}"
        ]
        row = (b, gamma, p, inst.power, 10.0 ** log10_ratio, log10_ratio)
        return [row + (bound_log10, example_log10, holds)], violations

    axes = (
        _listify(config, "b"),
        _listify(config, "gamma"),
        _listify(config, "p", default=[2.0], parser=_parse_p),
    )
    return _tabulate(header, axes, cell)


def _run_classify(config: dict) -> RunResult:
    seed = _seed_base(config)
    b = _parse_float(config.get("b", 4.0 * math.pi), "b")
    p = _parse_p(config.get("p", 2), "p")
    period = _parse_float(config.get("L", 8.0), "L")
    header = ("index", "lo", "hi", "good", "first_bad_order", "mass")

    def instance():
        labels = _classified(b, p, period, seed)[1]
        violations = _mass_budget(labels, "classify")[3]
        columns = (labels.good.tolist(), labels.first_bad_order.tolist(), labels.mass.tolist())
        indexed = enumerate(zip(labels.intervals, *columns))
        rows = [(i, lo, hi, *rest) for i, ((lo, hi), *rest) in indexed]
        return rows, violations

    return _tabulate(header, (), instance)


# ---------------------------------------------------------------------------
# verify suites


def _suite_good_bad(config: dict) -> RunResult:
    period = _parse_float(config.get("L", 8.0), "L")
    header = (
        "seed",
        "b",
        "p",
        "n_bad",
        "bad_mass_fraction",
        "good_mass_fraction",
        "bad_budget",
    )

    def cell(b, p, seed):
        labels = _classified(b, p, period, seed)[1]
        where = f"good_bad: seed={seed} b={b:g} p={p:g}"
        bad_fraction, good_fraction, budget, violations = _mass_budget(labels, where)
        n_bad = int((~labels.good).sum())
        return [(seed, b, p, n_bad, bad_fraction, good_fraction, budget)], violations

    axes = (
        _listify(config, "b", default=[4.0 * math.pi]),
        _listify(config, "p", default=[1.0, 2.0], parser=_parse_p),
        _seeds(config, 10),
    )
    return _tabulate(header, axes, cell)


def _suite_local_estimate(config: dict) -> RunResult:
    period = _parse_float(config.get("L", 8.0), "L")
    constants = _constants_from_config(config)
    header = ("seed", "b", "p", "gamma", "n_good", "n_holds", "all_hold")

    def cell(b, p, gamma, seed):
        f, labels = _classified(b, p, period, seed)
        checks = proofcheck.local_estimate_check(f, two_sliver_set(gamma), labels, constants)
        n_holds = sum(check.holds for check in checks)
        all_hold = n_holds == len(checks)
        violations = [] if all_hold else [
            f"local_estimate: seed={seed} b={b:g} p={p:g} gamma={gamma:g} "
            f"{len(checks) - n_holds} good intervals fail"
        ]
        return [(seed, b, p, gamma, len(checks), n_holds, all_hold)], violations

    axes = (
        _listify(config, "b", default=[4.0 * math.pi]),
        _listify(config, "p", default=[1.0, 2.0], parser=_parse_p),
        _listify(config, "gamma", default=[0.1, 0.3, 0.7]),
        _seeds(config, 5),
    )
    return _tabulate(header, axes, cell)


def _suite_growth(config: dict) -> RunResult:
    period = _parse_float(config.get("L", 8.0), "L")
    radius = _parse_float(config.get("radius", 4.5), "radius")
    header = ("seed", "b", "p", "interval_lo", "ratio", "bound", "holds")

    def cell(b, p, seed):
        f, labels = _classified(b, p, period, seed)
        rows = []
        violations = []
        envelopes = proofcheck.growth_envelope(f, labels, radius)
        for iv, env in zip(labels.good_intervals, envelopes):
            rows.append((seed, b, p, iv[0], env.ratio, env.bound, env.holds))
            if not env.holds:
                violations.append(
                    f"growth: seed={seed} b={b:g} p={p:g} interval at {iv[0]:g} breaks the envelope"
                )
        return rows, violations

    axes = (
        _listify(config, "b", default=[4.0 * math.pi]),
        _listify(config, "p", default=[1.0, 2.0], parser=_parse_p),
        _seeds(config, 5),
    )
    return _tabulate(header, axes, cell)


def _suite_taylor(config: dict) -> RunResult:
    period = _parse_float(config.get("L", 8.0), "L")
    n_bands = _parse_int(config.get("n", 2), "n")
    window = _parse_float(config.get("window", 0.5), "window")
    header = ("seed", "b", "p", "m", "identity_error", "lhs", "rhs", "holds")

    def cell(b, p, m, seed):
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
        remainder_mass = lambda x, _: np.abs(split.remainder(x)) ** p
        lhs = float(piece_integrals(remainder_mass, (interval,), panel_width(b / 2.0, RESOLUTION))[0])
        rhs = proofcheck.taylor_remainder_bound(split, p)
        holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
        violations = []
        if identity_error > 1e-8:
            violations.append(
                f"taylor: seed={seed} b={b:g} m={m} identity error {identity_error:.3e}"
            )
        if not holds:
            violations.append(
                f"taylor: seed={seed} b={b:g} m={m} remainder mass over budget"
            )
        return [(seed, b, p, m, identity_error, lhs, rhs, holds)], violations

    axes = (
        _listify(config, "b", default=[2.0 * math.pi]),
        _listify(config, "p", default=[2.0], parser=_parse_p),
        _listify(config, "m", default=[3], parser=_parse_int),
        _seeds(config, 5),
    )
    return _tabulate(header, axes, cell)


def _suite_band_norms(config: dict) -> RunResult:
    period = _parse_float(config.get("L", 8.0), "L")
    n_bands = _parse_int(config.get("n", 2), "n")
    header = ("seed", "b", "p", "n", "max_ratio", "parseval_gap")

    def cell(b, p, seed):
        spec = BandSpec(tuple(3.0 * b * k for k in range(n_bands)), b)
        f = random_bandlimited(spec, period, seed=seed)
        report = proofcheck.band_component_norms(f, spec, p)
        gap = math.nan
        violations = []
        if p == 2.0:
            total = report.total
            gap = abs(sum(v * v for v in report.norms) - total * total) / total ** 2
            if report.max_ratio > 1.0 + 1e-6:
                violations.append(
                    f"band_norms: seed={seed} b={b:g} component ratio "
                    f"{report.max_ratio:.6g} over 1 at p=2"
                )
            if gap > 1e-6:
                violations.append(f"band_norms: seed={seed} b={b:g} Parseval gap {gap:.3e}")
        return [(seed, b, p, n_bands, report.max_ratio, gap)], violations

    axes = (
        _listify(config, "b", default=[2.0 * math.pi]),
        _listify(config, "p", default=[2.0], parser=_parse_p),
        _seeds(config, 5),
    )
    return _tabulate(header, axes, cell)


def _suite_expsum(config: dict) -> RunResult:
    base = _seed_base(config)
    n_instances = _seed_count(config, 8)
    constants = _constants_from_config(config)
    fractions = _listify(
        config, "fraction", default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    )
    if len(set(fractions)) < 2:
        raise ConfigError("expsum needs at least two distinct 'fraction' values to fit a slope")
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
    sets = [IntervalSet(((0.0, fraction),)) for fraction in fractions]

    def cell(n, m, p):
        checks = []  # instance i depends on (i, n, m) only: one call checks every fraction
        for i in range(n_instances):
            rng = np.random.default_rng(base + 7919 * i + 13 * n + 101 * m)
            lams = np.sort(rng.uniform(-25.0, 25.0, size=n))
            while np.unique(lams).size < n:
                lams = np.sort(rng.uniform(-25.0, 25.0, size=n))
            terms = [
                (float(lam), rng.standard_normal(m) + 1j * rng.standard_normal(m))
                for lam in lams
            ]
            checks.append(proofcheck.exp_sum_verifier(terms, (0.0, 1.0), sets, p, constants))
        worst: list[tuple[float, float]] = []
        violations: list[str] = []
        for fraction, column in zip(fractions, zip(*checks)):
            best = 0.0
            for check in column:
                best = max(best, check.ratio)
                if not check.holds:
                    violations.append(
                        f"expsum: n={n} m={m} p={p:g} fraction={fraction:g} ratio over bound"
                    )
            worst.append((1.0 / fraction, best))
        scales = np.log([s for s, _ in worst])
        ratios = np.log([r for _, r in worst])
        slope = float(np.polyfit(scales, ratios, 1)[0])
        cap = n * m - holder_share(p) + 0.1
        minimal = proofcheck.minimal_transfer_constant(worst, n * m - holder_share(p))
        rows = []
        for (_, best), fraction in zip(worst, fractions):
            bound = lemma3_bound(1.0, fraction, n, m, p, constants)
            rows.append((n, m, p, fraction, best, bound, slope, cap, minimal))
        return rows, violations

    axes = (
        _listify(config, "n", default=[1, 2, 3], parser=_parse_int),
        _listify(config, "m", default=[1, 2, 3], parser=_parse_int),
        _listify(config, "p", default=[2.0, math.inf], parser=_parse_p),
    )
    return _tabulate(header, axes, cell)


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
        raise ConfigError(f"'suite' must be one of {sorted(_SUITES)}, got {suite!r}")
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
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"'command' must be one of {COMMANDS}, got {command!r}")
    try:
        return _RUNNERS[command](config)
    except ThicksetError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError(f"malformed config for {command!r}: {exc}") from exc


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
