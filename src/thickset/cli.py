"""Config-driven experiment runner with deterministic CSV output.

Subcommands (the "command" key of a JSON config): bound, thickness,
concentration, verify, extremal, classify.  Reals are rendered with 17
significant digits, rows in a fixed grid order, LF line endings; identical
configs and seeds produce byte-identical files.  Exit status is 0 when all
asserted contracts hold, 1 with a failure manifest otherwise, 2 for usage
or config-schema errors.

Every command, `verify` suite and `bound` evaluator declares its keys once,
in one table of `_ENTRIES`.  One reader, `_read`, parses a config against
its table, refuses the keys the table does not declare, and hands the
sweeping keys, in declared order, to one grid loop, `_tabulate`: a cell
function runs at each point of the cross product of the axes and returns
its rows and its checks, each a label with its `Verdict`.  A check that
fails is a violation; one that is unresolved is not.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from . import proofcheck
from .bandlimited import BandSpec, random_bandlimited
from .bounds import (
    _LN10,
    BoundConstants,
    Verdict,
    _exp,
    _log10,
    holder_share,
    lemma1_corollary_bound,
    lemma3_bound,
    multidim_bound,
    nazarov_remez_bounds,
    remark1_bounds,
    theorem1_bound,
    theorem1_bound_log10,
    theorem2_bound,
)
from .concentration import min_concentration, sharpness_gap
from .errors import ConfigError, ThicksetError
from .extremal import extremal_pair, extremal_ratio
from .quadrature import panel_width, piece_integrals
from .sets import IntervalSet, normalize, thickness, two_sliver_set

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
    output: str | None = None  # the config's "output" path

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
# key parsers: parser(value, key) returns the value or raises ConfigError naming key


def _parse_float(value, key: str) -> float:
    """A real field: a JSON number (int or float), not a bool or NaN; true and "2" are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _parse_finite(value, key: str) -> float:
    """A real field that must be finite, as a period is."""
    value = _parse_float(value, key)
    if not math.isfinite(value):
        raise ConfigError(f"{key!r} must be finite, got {value!r}")
    return value


def _parse_p(value, key: str) -> float:
    """An exponent: a number, or "inf"/"infinity" in any case."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"unrecognized exponent {value!r}")
    return _parse_float(value, key)


def _parse_int(value, key: str, least: int | None = None) -> int:
    """An integer field: an int, not a bool; 2.5, true and "2" are refused."""
    bad = not isinstance(value, int) or isinstance(value, bool)
    if bad or (least is not None and value < least):
        kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[least]
        raise ConfigError(f"{key!r} must be {kind}, got {value!r}")
    return value


# A verify suite builds each of its seeds, bands or terms, so a count past this is refused.
_MAX_COUNT = 1 << 20


def _parse_count(value, key: str) -> int:
    """A count of instances, bands or terms of a verify suite: an integer in [1, _MAX_COUNT]."""
    value = _parse_int(value, key, least=1)
    if value > _MAX_COUNT:
        raise ConfigError(f"{key!r} must be at most {_MAX_COUNT}, got {value}")
    return value


def _optional(parser):
    """`parser`, with null read as unset (None)."""
    return lambda value, key: None if value is None else parser(value, key)


def _parse_list(value, key: str, parser=_parse_float) -> list:
    """A non-empty JSON list, each item read by `parser`."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key!r} must be a non-empty list, got {value!r}")
    return [parser(item, key) for item in value]


def _parse_pair(value, key: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{key!r} must be a list of two numbers, got {value!r}")
    return _parse_float(value[0], key), _parse_float(value[1], key)


def _parse_set(value, key: str) -> IntervalSet:
    """`{"two_sliver": gamma}`, or `{"intervals": [[lo, hi], ...]}` with an optional "period"."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be an object, got {value!r}")
    for name in value:
        if name not in ("two_sliver", "intervals", "period"):
            raise ConfigError(f"unknown key {name!r} in {key!r}")
        if name != "two_sliver" and "two_sliver" in value:
            raise ConfigError(f"{key!r} gives both 'two_sliver' and {name!r}")
    if "two_sliver" in value:
        return two_sliver_set(_parse_float(value["two_sliver"], "two_sliver"))
    if "intervals" not in value:
        raise ConfigError(f"{key!r} needs either 'two_sliver' or 'intervals'")
    period = _parse_float(value["period"], "period") if "period" in value else None
    return normalize(_parse_list(value["intervals"], "intervals", _parse_pair), period=period)


def _parse_constants(value, key: str) -> BoundConstants:
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be an object, got {value!r}")
    unknown = set(value) - {field.name for field in fields(BoundConstants)}
    if unknown:
        raise ConfigError(f"unknown constants {sorted(unknown)}")
    return BoundConstants(**{k: _parse_float(v, k) for k, v in value.items()})


def _parse_output(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key!r} must be a non-empty string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# the reader
#
# A table row is (name, parser, default, sweeps).  A sweeping key (sweeps
# True) is given as `name` or `name_list` and is one axis of the grid, in
# declared order; sweeps _LIST reads `name` or `name_list` as one list that
# stays inside the cell; any other key takes one value for the whole grid.
# Defaults are config values and go through the parser; _REQUIRED marks a key
# without one.

_REQUIRED = object()
_LIST = "list"
_SELECTORS = {"bound": ("which", "theorem1"), "verify": ("suite", None)}
_SHARED = (("output", _optional(_parse_output), None, False),)


def _sweep(name, default=_REQUIRED, parser=_parse_float):
    return (name, parser, default, True)


def _one(name, default, parser=_parse_float):
    return (name, parser, default, False)


def _read(config) -> tuple:
    """The runner a config selects, its parsed keys by name and its grid axes."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"'command' must be one of {COMMANDS}, got {command!r}")
    selector, variant = _SELECTORS.get(command, (None, None))
    if command == "concentration":
        variant = "freqs" if "freqs" in config or "freqs_list" in config else "sharpness"
    elif selector is not None:
        variant = config.get(selector, variant)
    if (command, variant) not in _ENTRIES:
        choices = sorted(name for cmd, name in _ENTRIES if cmd == command)
        raise ConfigError(f"{selector!r} must be one of {choices}, got {variant!r}")
    table, runner = _ENTRIES[command, variant]
    table += _SHARED
    names = {row[0] for row in table}
    for key in config:
        listed = key.endswith("_list") and key[:-5] in names
        if key not in names and not listed and key not in ("command", selector):
            where = repr(command) if variant is None else f"{command!r} ({variant})"
            raise ConfigError(f"unknown key {key!r} for {where}")
    values, axes = ({selector: variant} if selector else {}), []
    for name, parser, default, sweeps in table:
        listed = name + "_list"
        if listed in config and not sweeps:
            raise ConfigError(f"{listed!r} is not read: {name!r} takes one value for the grid")
        if listed in config and name in config:
            raise ConfigError(f"config gives both {name!r} and {listed!r}")
        raw = config.get(listed, config.get(name, default))
        if raw is _REQUIRED:
            raise ConfigError(f"config needs {name!r}" + (f" or {listed!r}" if sweeps else ""))
        if not sweeps:
            values[name] = parser(raw, name)
            continue
        raw = raw if isinstance(raw, list) else [raw]
        if not raw:
            raise ConfigError(f"{listed} must not be empty")
        values[name] = [parser(item, name) for item in raw]
        if sweeps is True:
            axes.append(values[name])
    return runner, values, axes


def _seeds(values: dict) -> list[int]:
    """Instance seeds base, base + 1, ... of a sweep of `seeds` instances: the last axis."""
    return [values["seed"] + i for i in range(values["seeds"])]


def _tabulate(header: tuple[str, ...], axes, cell) -> RunResult:
    """Run `cell(*point)` over the product of `axes`, first axis outermost.

    Each cell returns (rows, checks), checks being (label, Verdict) pairs.  Rows
    are concatenated in grid order, and so are the labels of the checks that fail:
    the violations.
    """
    rows: list[tuple] = []
    violations: list[str] = []
    for point in itertools.product(*axes):
        cell_rows, checks = cell(*point)
        rows.extend(cell_rows)
        violations.extend(label for label, verdict in checks if verdict.fails)
    return RunResult(ExperimentTable(header, tuple(rows)), tuple(violations))


def _classified(b: float, p: float, period: float, seed: int):
    """A random instance with band [-b/2, b/2] and its good/bad classification."""
    f = random_bandlimited(BandSpec((0.0,), b), period, seed=seed)
    return f, proofcheck.classify_intervals(f, b, proofcheck.ClassifierParams(p=p))


def _mass_budget(labels, where: str) -> tuple[float, float, float, list]:
    """Bad and good mass fractions, the budget 1 / (A^p - 1) (0 past the range), their checks."""
    good, a, p = proofcheck.good_mass_check(labels), labels.params.bad_threshold, labels.params.p
    bad, budget = 1.0 - good, 1.0 / (a ** p - 1.0) if p * math.log2(a) < 1024 else 0.0
    return bad, good, budget, [
        (f"{where}: bad mass fraction {bad:.6g} exceeds budget {budget:.6g}",
         Verdict.of(_log10(bad), _log10(budget + 1e-4))),
        (f"{where}: good mass fraction {good:.6g} below one half",
         Verdict.of(_log10(0.5 - 1e-4), _log10(good))),
    ]


# ---------------------------------------------------------------------------
# subcommands: runner(values, axes) -> RunResult


def _bound(header: tuple[str, ...], evaluate):
    """A `bound` runner: one row (which, *evaluate(values, *point)) per grid point."""

    def runner(v, axes):
        cell = lambda *point: ([(v["which"], *evaluate(v, *point))], ())
        return _tabulate(("which",) + header, axes, cell)

    return runner


def _multidim(v, gamma, n, p):
    # without n the single-band form is evaluated, printed as n = 0
    products = v["ab_products"]
    value = multidim_bound(gamma, products, p, n, v["constants"])
    return gamma, len(products), sum(products), 0 if n is None else n, p, value


def _run_thickness(v, axes) -> RunResult:
    def cell(a):
        return [(a, thickness(v["set"], a, domain=v["domain"]).gamma)], ()

    return _tabulate(("a", "gamma"), axes, cell)


def _run_freqs(v, axes) -> RunResult:
    freqs = v["freqs"]
    header = ("n_freqs", "measure_fraction", "lambda_min", "residual")

    def explicit():
        result = min_concentration(freqs, v["set"], v["L"])
        row = (len(freqs), result.gram.measure_fraction, result.lambda_min, result.residual)
        return [row], ()

    return _tabulate(header, axes, explicit)


def _run_sharpness(v, axes) -> RunResult:
    header = ("gamma", "b", "n_freqs", "lambda_min", "exact", "bound", "log10_bound",
              "log10_margin", "holds", "verdict")

    def cell(gamma, b):
        report = sharpness_gap(
            BandSpec((0.0,), b), two_sliver_set(gamma), v["L"], v["constants"], v["window"]
        )
        row = (report.gamma, b, report.n_freqs, report.lambda_min, report.exact, report.bound,
               report.log10_bound, report.log10_margin, report.verdict.holds,
               "holds" if report.verdict.holds else "fails" if report.verdict.fails else "unresolved")
        label = f"concentration: exact {report.exact:.6g} below bound at gamma={gamma:g} b={b:g}"
        return [row], [(label, report.verdict)]

    return _tabulate(header, axes, cell)


def _run_extremal(v, axes) -> RunResult:
    header = ("b", "gamma", "p", "power", "ratio", "log10_ratio", "bound_log10",
              "example_log10", "holds")

    def cell(b, gamma, p):
        inst = extremal_pair(b, gamma)
        log10_ratio = extremal_ratio(inst, p, v["truncation"])
        bound_log10 = theorem1_bound_log10(gamma, b, p, v["constants"])
        example_log10 = (inst.power - 1) * math.log10(gamma)
        verdict = Verdict.of(bound_log10, log10_ratio)
        label = (f"extremal: ratio 10^{log10_ratio:.6g} below bound "
                 f"at b={b:g} gamma={gamma:g} p={p:g}")
        row = (b, gamma, p, inst.power, 10.0 ** log10_ratio, log10_ratio)
        return [row + (bound_log10, example_log10, verdict.holds)], [(label, verdict)]

    return _tabulate(header, axes, cell)


def _run_classify(v, axes) -> RunResult:
    header = ("index", "lo", "hi", "good", "first_bad_order", "mass")

    def instance():
        labels = _classified(v["b"], v["p"], v["L"], v["seed"])[1]
        columns = (labels.good.tolist(), labels.first_bad_order.tolist(), labels.mass.tolist())
        indexed = enumerate(zip(labels.intervals, *columns))
        rows = [(i, lo, hi, *rest) for i, ((lo, hi), *rest) in indexed]
        return rows, _mass_budget(labels, "classify")[3]

    return _tabulate(header, axes, instance)


# ---------------------------------------------------------------------------
# verify suites


def _suite_good_bad(v, axes) -> RunResult:
    header = ("seed", "b", "p", "n_bad", "bad_mass_fraction", "good_mass_fraction", "bad_budget")

    def cell(b, p, seed):
        labels = _classified(b, p, v["L"], seed)[1]
        where = f"good_bad: seed={seed} b={b:g} p={p:g}"
        bad_fraction, good_fraction, budget, checks = _mass_budget(labels, where)
        n_bad = int((~labels.good).sum())
        return [(seed, b, p, n_bad, bad_fraction, good_fraction, budget)], checks

    return _tabulate(header, axes + [_seeds(v)], cell)


def _suite_local_estimate(v, axes) -> RunResult:
    header = ("seed", "b", "p", "gamma", "n_good", "n_holds", "all_hold")

    def cell(b, p, gamma, seed):
        f, labels = _classified(b, p, v["L"], seed)
        verdicts = [check.verdict for check in proofcheck.local_estimate_check(
            f, two_sliver_set(gamma), labels, v["constants"])]
        n_holds = sum(verdict.holds for verdict in verdicts)
        label = (f"local_estimate: seed={seed} b={b:g} p={p:g} gamma={gamma:g} "
                 f"{sum(verdict.fails for verdict in verdicts)} good intervals fail")
        worst = min(verdicts, key=lambda verdict: verdict.high, default=Verdict(0.0, 0.0))
        all_hold = n_holds == len(verdicts)
        return [(seed, b, p, gamma, len(verdicts), n_holds, all_hold)], [(label, worst)]

    return _tabulate(header, axes + [_seeds(v)], cell)


def _suite_growth(v, axes) -> RunResult:
    header = ("seed", "b", "p", "interval_lo", "ratio", "bound", "holds")

    def cell(b, p, seed):
        f, labels = _classified(b, p, v["L"], seed)
        rows, checks = [], []
        envelopes = proofcheck.growth_envelope(f, labels, v["radius"])
        for (lo, _), env in zip(labels.good_intervals, envelopes):
            rows.append((seed, b, p, lo, env.ratio, env.bound, env.verdict.holds))
            label = f"growth: seed={seed} b={b:g} p={p:g} interval at {lo:g} breaks the envelope"
            checks.append((label, env.verdict))
        return rows, checks

    return _tabulate(header, axes + [_seeds(v)], cell)


def _suite_taylor(v, axes) -> RunResult:
    header = ("seed", "b", "p", "m", "identity_error", "lhs", "rhs", "holds")
    tol = 1e-8  # above it an identity error is a violation, and its rounding floor a refusal

    def cell(b, p, m, seed):
        centers = tuple(3.0 * b * k for k in range(v["n"]))
        components = [
            random_bandlimited(BandSpec((0.0,), b), v["L"], seed=seed + 1000 * k)
            for k in range(v["n"])
        ]
        interval = (1.0, 1.0 + v["window"])
        split = proofcheck.taylor_split(components, centers, interval, m)
        # the polynomial part sums terms up to (nu a)^j / j!, nu the top frequency and a the
        # window, so the identity rounds to about eps max_{j <= m} (nu a)^j / j!
        nu_a = max(g.max_frequency for g in components) * split.length
        j = int(min(nu_a, m))  # the largest term's j: nu a >= 1 unless j = 0
        floor = np.finfo(float).eps * _exp(j * math.log(max(nu_a, 1.0)) - math.lgamma(j + 1.0))
        if floor > tol:
            raise ThicksetError(
                f"taylor: b = {b:g}, m = {m}, window = {v['window']:g} put the identity's "
                f"rounding floor at {floor:.1e}, above {tol:g}")
        xs = np.linspace(interval[0], interval[1], 17)
        direct = split.total(xs)
        rebuilt = split.exp_sum(xs) + split.remainder(xs)
        scale = float(np.max(np.abs(direct))) or 1.0
        identity_error = float(np.max(np.abs(direct - rebuilt))) / scale
        remainder_mass = lambda x, _: np.abs(split.remainder(x)) ** p
        with np.errstate(over="ignore"):  # an lhs of inf is refused below
            lhs = float(piece_integrals(remainder_mass, (interval,), panel_width(b / 2.0))[0])
        # an lhs of inf skips the budget, whose lp_norm would refuse the same p in other words
        log10_rhs = proofcheck.taylor_remainder_bound_log10(split, p) if lhs < math.inf else lhs
        if not log10_rhs < math.inf:  # inf: lhs overflowed; nan: a norm of f_k^(m) did
            raise ThicksetError(f"taylor: p = {p:g} at m = {m} puts the remainder mass past the range")
        budget = Verdict.of(_log10(lhs), log10_rhs + math.log10(1.0 + 1e-9))
        checks = [
            (f"taylor: seed={seed} b={b:g} m={m} identity error {identity_error:.3e}",
             Verdict.of(_log10(identity_error), math.log10(tol))),
            (f"taylor: seed={seed} b={b:g} m={m} remainder mass over budget", budget),
        ]
        return [(seed, b, p, m, identity_error, lhs, _exp(log10_rhs * _LN10), budget.holds)], checks

    return _tabulate(header, axes + [_seeds(v)], cell)


def _suite_band_norms(v, axes) -> RunResult:
    header = ("seed", "b", "p", "n", "max_ratio", "parseval_gap")

    def cell(b, p, seed):
        spec = BandSpec(tuple(3.0 * b * k for k in range(v["n"])), b)
        f = random_bandlimited(spec, v["L"], seed=seed)
        report = proofcheck.band_component_norms(f, spec, p)
        gap, checks = math.nan, []
        if p == 2.0:
            total = report.total
            gap = abs(sum(x * x for x in report.norms) - total * total) / total ** 2
            checks = [
                (f"band_norms: seed={seed} b={b:g} component ratio "
                 f"{report.max_ratio:.6g} over 1 at p=2",
                 Verdict.of(_log10(report.max_ratio), math.log10(1.0 + 1e-6))),
                (f"band_norms: seed={seed} b={b:g} Parseval gap {gap:.3e}",
                 Verdict.of(_log10(gap), math.log10(1e-6))),
            ]
        return [(seed, b, p, v["n"], report.max_ratio, gap)], checks

    return _tabulate(header, axes + [_seeds(v)], cell)


def _suite_expsum(v, axes) -> RunResult:
    fractions = v["fraction"]
    if len(set(fractions)) < 2:
        raise ConfigError("expsum needs at least two distinct 'fraction' values to fit a slope")
    header = ("n", "m", "p", "fraction", "worst_ratio", "bound", "slope", "slope_cap", "minimal_c")
    sets = [IntervalSet(((0.0, fraction),)) for fraction in fractions]

    def cell(n, m, p):
        instances = []  # instance i depends on (i, n, m) only: one call checks every fraction
        for i in range(v["seeds"]):
            rng = np.random.default_rng(v["seed"] + 7919 * i + 13 * n + 101 * m)
            lams = np.sort(rng.uniform(-25.0, 25.0, size=n))
            while np.any(np.diff(lams) == 0):
                lams = np.sort(rng.uniform(-25.0, 25.0, size=n))
            instances.append([
                (float(lam), rng.standard_normal(m) + 1j * rng.standard_normal(m))
                for lam in lams
            ])
        checks = proofcheck.exp_sum_verifier(instances, (0.0, 1.0), sets, p, v["constants"])
        columns = list(zip(*checks))  # one per fraction
        labels = [f"expsum: n={n} m={m} p={p:g} fraction={fraction:g} ratio over bound"
                  for fraction in fractions]
        worst = [(1.0 / f, max(c.ratio for c in column)) for f, column in zip(fractions, columns)]
        slope = float(np.polyfit(*np.log(worst).T, 1)[0])
        exponent = n * m - holder_share(p)
        minimal = proofcheck.minimal_transfer_constant(worst, exponent)
        # |I| = 1 and |E| = fraction, so each bound is lemma3_bound(1, fraction, n, m, p)
        return [
            (n, m, p, fraction, best, column[0].bound, slope, exponent + 0.1, minimal)
            for fraction, (_, best), column in zip(fractions, worst, columns)
        ], [(label, check.verdict) for label, column in zip(labels, columns) for check in column]

    return _tabulate(header, axes, cell)


# ---------------------------------------------------------------------------
# the key tables: (command, "which" / "suite" / concentration mode) -> (table, runner)

_CONSTANTS = _one("constants", {}, _parse_constants)
_L = _one("L", 8.0, _parse_finite)
_SEED = _one("seed", 0, partial(_parse_int, least=0))


def _instances(count: int) -> tuple:
    """`seed`, the first instance seed, and `seeds`, the number of instances per cell."""
    return _SEED, _one("seeds", count, _parse_count)


_ENTRIES = {
    ("bound", "theorem1"): (
        (_sweep("gamma"), _sweep("ab"), _sweep("p", parser=_parse_p), _CONSTANTS),
        _bound(("gamma", "n", "ab", "p", "value"), lambda v, gamma, ab, p: (
            gamma, 0, ab, p, theorem1_bound(gamma, ab, p, v["constants"]))),
    ),
    ("bound", "theorem2"): (
        (_sweep("gamma"), _sweep("n", 1, _parse_int), _sweep("ab"), _sweep("p", parser=_parse_p),
         _CONSTANTS),
        _bound(("gamma", "n", "ab", "p", "value"), lambda v, gamma, n, ab, p: (
            gamma, n, ab, p, theorem2_bound(gamma, n, ab, p, v["constants"]))),
    ),
    ("bound", "remark1"): (
        (_sweep("gamma"), _sweep("ab"), _sweep("p", parser=_parse_p)),
        _bound(("gamma", "ab", "p", "small_ab", "near_full"), lambda v, gamma, ab, p: (
            gamma, ab, p, *astuple(remark1_bounds(gamma, ab, p)))),
    ),
    # p = inf is the sup form, the one used when no p is given
    ("bound", "lemma1"): (
        (_sweep("meas_E"), _sweep("M"), _sweep("p", "inf", _parse_p), _CONSTANTS),
        _bound(("meas_E", "M", "p", "value"), lambda v, meas, m_ratio, p: (
            meas, m_ratio, p, lemma1_corollary_bound(meas, m_ratio, p, v["constants"]))),
    ),
    ("bound", "lemma3"): (
        (_sweep("len_I", 1.0), _sweep("meas_E"), _sweep("n", parser=_parse_int),
         _sweep("m", parser=_parse_int), _sweep("p", parser=_parse_p), _CONSTANTS),
        _bound(("len_I", "meas_E", "n", "m", "p", "value"), lambda v, len_i, meas, n, m, p: (
            len_i, meas, n, m, p, lemma3_bound(len_i, meas, n, m, p, v["constants"]))),
    ),
    ("bound", "nazarov_remez"): (
        (_sweep("len_I", 1.0), _sweep("meas_E"), _sweep("n", parser=_parse_int), _CONSTANTS),
        _bound(("len_I", "meas_E", "n", "nazarov", "remez"), lambda v, len_i, meas, n: (
            len_i, meas, n, *astuple(nazarov_remez_bounds(len_i, meas, n, v["constants"])))),
    ),
    ("bound", "multidim"): (
        (_sweep("gamma"), _sweep("n", None, _optional(_parse_int)), _sweep("p", 2.0, _parse_p),
         _one("ab_products", [1.0], _parse_list), _CONSTANTS),
        _bound(("gamma", "d", "sum_ab", "n", "p", "value"), _multidim),
    ),
    ("thickness", None): (
        (_one("set", _REQUIRED, _parse_set), _one("domain", None, _optional(_parse_pair)),
         _sweep("a", 1.0)),
        _run_thickness,
    ),
    ("concentration", "freqs"): (
        (_one("freqs", _REQUIRED, partial(_parse_list, parser=_parse_int)),
         _one("set", _REQUIRED, _parse_set), _one("L", 1.0, _parse_finite)),
        _run_freqs,
    ),
    ("concentration", "sharpness"): (
        (_CONSTANTS, _L, _one("window", 1.0), _sweep("gamma"), _sweep("b")),
        _run_sharpness,
    ),
    ("extremal", None): (
        (_CONSTANTS, _one("truncation", None, _optional(_parse_float)), _sweep("b"),
         _sweep("gamma"), _sweep("p", 2.0, _parse_p)),
        _run_extremal,
    ),
    ("classify", None): (
        (_SEED, _one("b", 4.0 * math.pi), _one("p", 2.0, _parse_p), _L),
        _run_classify,
    ),
    ("verify", "good_bad"): (
        (_L, _sweep("b", 4.0 * math.pi), _sweep("p", [1.0, 2.0], _parse_p), *_instances(10)),
        _suite_good_bad,
    ),
    ("verify", "local_estimate"): (
        (_L, _CONSTANTS, _sweep("b", 4.0 * math.pi), _sweep("p", [1.0, 2.0], _parse_p),
         _sweep("gamma", [0.1, 0.3, 0.7]), *_instances(5)),
        _suite_local_estimate,
    ),
    ("verify", "growth"): (
        (_L, _one("radius", 4.5), _sweep("b", 4.0 * math.pi), _sweep("p", [1.0, 2.0], _parse_p),
         *_instances(5)),
        _suite_growth,
    ),
    ("verify", "taylor"): (
        (_L, _one("n", 2, _parse_count), _one("window", 0.5), _sweep("b", 2.0 * math.pi),
         _sweep("p", 2.0, _parse_p), _sweep("m", 3, _parse_int), *_instances(5)),
        _suite_taylor,
    ),
    ("verify", "band_norms"): (
        (_L, _one("n", 2, _parse_count), _sweep("b", 2.0 * math.pi), _sweep("p", 2.0, _parse_p),
         *_instances(5)),
        _suite_band_norms,
    ),
    # each cell checks every fraction on the same instances, so `fraction` is no axis
    ("verify", "expsum"): (
        (*_instances(8), _CONSTANTS,
         ("fraction", _parse_float, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], _LIST),
         _sweep("n", [1, 2, 3], _parse_count), _sweep("m", [1, 2, 3], _parse_count),
         _sweep("p", [2.0, "inf"], _parse_p)),
        _suite_expsum,
    ),
}


def run(config: dict) -> RunResult:
    """Validate and execute one experiment config."""
    try:
        runner, values, axes = _read(config)
        result = runner(values, axes)
    except ThicksetError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError(f"malformed config for {config['command']!r}: {exc}") from exc
    return RunResult(result.table, result.violations, values["output"])


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
    out_path = args.out or result.output
    if out_path:
        try:
            with open(out_path, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
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
