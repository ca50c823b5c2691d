"""Config parsing, CSV determinism, exit codes, and seed plumbing."""
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from thickset import ConfigError
from thickset import cli as cli_mod
from thickset.cli import (
    ExperimentTable,
    RunResult,
    emit_csv,
    main,
    run,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestEmitCsv:
    def test_single_row_two_lines(self):
        table = ExperimentTable(("a", "b"), ((1, 2.5),))
        text = emit_csv(table).decode()
        assert text == "a,b\n1,2.5\n"

    def test_float_17_digits_round_trip(self):
        x = 0.1 + 0.2
        table = ExperimentTable(("x",), ((x,),))
        cell = emit_csv(table).decode().splitlines()[1]
        assert float(cell) == x

    def test_quoting(self):
        table = ExperimentTable(("msg",), (('hello, "world"',),))
        assert emit_csv(table).decode().splitlines()[1] == '"hello, ""world"""'

    def test_bool_and_inf_rendering(self):
        table = ExperimentTable(("ok", "v"), ((True, math.inf), (False, math.nan)))
        lines = emit_csv(table).decode().splitlines()
        assert lines[1] == "1,inf"
        assert lines[2] == "0,nan"

    def test_lf_only(self):
        payload = emit_csv(ExperimentTable(("a",), ((1,),)))
        assert b"\r" not in payload


class TestRun:
    def test_bound_degenerate_example(self):
        result = run({"command": "bound", "gamma": 1, "ab": 0, "p": "inf"})
        assert result.exit_status == 0
        assert result.table.rows[0][-1] == pytest.approx(0.01, rel=1e-12)

    def test_thickness_two_sliver(self):
        result = run({"command": "thickness", "set": {"two_sliver": 0.2}, "a": 1})
        assert result.table.rows[0][1] == pytest.approx(0.2, rel=1e-9)

    def test_grid_order_deterministic(self):
        cfg = {
            "command": "bound",
            "gamma_list": [0.1, 0.5],
            "ab_list": [0, 1],
            "p_list": [1, 2],
        }
        a = emit_csv(run(cfg).table)
        b = emit_csv(run(cfg).table)
        assert a == b

    def test_readme_examples_run(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        configs = [c for c in map(json.loads, blocks) if "command" in c]
        assert configs
        for config in configs:
            assert run(config).exit_status == 0, config

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            run({"command": "frobnicate"})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            run({"command": "bound"})  # no gamma

    def test_missing_key_message_quotes_list_key(self):
        with pytest.raises(ConfigError, match=r"^config needs 'gamma' or 'gamma_list'$"):
            run({"command": "bound"})

    @pytest.mark.parametrize(
        "config",
        [
            {"command": "verify", "suite": "good_bad", "seeds": 0},
            {"command": "verify", "suite": "taylor", "seeds": -3},
            {"command": "verify", "suite": "expsum", "seeds": 0, "n": 1, "m": 1, "p": 2},
            {"command": "verify", "suite": "growth", "seeds": 2.5},
            {"command": "verify", "suite": "band_norms", "seeds": True},
        ],
    )
    def test_sweep_without_instances_rejected(self, config):
        with pytest.raises(ConfigError, match="'seeds' must be a positive integer"):
            run(config)

    @pytest.mark.parametrize("fraction", [{"fraction": 0.5}, {"fraction_list": [0.5, 0.5]}])
    def test_expsum_needs_two_fractions(self, fraction):
        # a slope through one point is arbitrary, so it is never checked
        config = {"command": "verify", "suite": "expsum", "seeds": 1, "n": 1, "m": 1, "p": 2}
        with pytest.raises(ConfigError, match="two distinct 'fraction'"):
            run({**config, **fraction})

    def test_bad_suite(self):
        with pytest.raises(ConfigError):
            run({"command": "verify", "suite": "nope"})

    def test_classify_deterministic_per_seed(self):
        cfg = {"command": "classify", "seed": 3, "b": 12.566370614359172, "p": 2}
        a = emit_csv(run(cfg).table)
        b = emit_csv(run(cfg).table)
        assert a == b
        c = emit_csv(run({**cfg, "seed": 4}).table)
        assert a != c

    def test_violation_exit_status(self):
        result = RunResult(ExperimentTable(("a",), ()), ("broken",))
        assert result.exit_status == 1


class TestGridOrder:
    """Rows follow itertools.product of the axes, first axis outermost."""

    def test_verify_rows(self):
        bs, ps = [2.0 * math.pi, 4.0 * math.pi], [1.0, 2.0]
        cfg = {"command": "verify", "suite": "good_bad", "b_list": bs, "p_list": ps,
               "seeds": 2, "seed": 4}
        rows = run(cfg).table.rows
        assert [(row[1], row[2], row[0]) for row in rows] == list(
            itertools.product(bs, ps, [4, 5])
        )

    def test_bound_rows(self):
        axes = ([0.1, 0.5], [1, 2], [0.0, 1.0], [1.0, 2.0])
        cfg = {"command": "bound", "which": "theorem2", "gamma_list": axes[0],
               "n_list": axes[1], "ab_list": axes[2], "p_list": axes[3]}
        table = run(cfg).table
        assert table.header[1:5] == ("gamma", "n", "ab", "p")
        assert [row[1:5] for row in table.rows] == list(itertools.product(*axes))

    def test_violation_names_failing_row(self, monkeypatch):
        from thickset import cli as cli_mod

        real = cli_mod.extremal_ratio
        chosen = (40.0 * math.pi, 0.4, 2.0)

        def fake(inst, p, truncation=None):
            if (inst.bandwidth, inst.gamma, p) == chosen:
                return -math.inf  # log10 of a ratio that underflowed to 0
            return real(inst, p, truncation)

        monkeypatch.setattr(cli_mod, "extremal_ratio", fake)
        cfg = {"command": "extremal", "b_list": [40.0 * math.pi, 320.0 * math.pi],
               "gamma_list": [0.05, 0.4], "p_list": [2, 4]}
        result = run(cfg)
        failing = [row for row in result.table.rows if not row[-1]]
        assert len(failing) == 1 and len(result.violations) == 1
        b, gamma, p = failing[0][:3]
        assert (b, gamma, p) == chosen
        assert f"b={b:g} gamma={gamma:g} p={p:g}" in result.violations[0]

    def test_tiny_extremal_ratio_holds(self):
        # the kept mass is ~1e-412 of the total here, far below the double
        # range, yet the log-space ratio (~1e-103) is resolved and holds
        cfg = {"command": "extremal", "b": 320.0 * math.pi, "gamma": 0.05, "p": 4}
        result = run(cfg)
        (row,) = result.table.rows
        assert row[-1] and not result.violations
        assert math.isclose(row[4], 8.984e-104, rel_tol=1e-4)

    def test_log10_ratio_below_double_range_holds(self, tmp_path, capsys):
        # the ratio (~1e-385) underflows to 0 as a double, its log10 does not
        cfg = {"command": "extremal", "b": 1200.0 * math.pi, "gamma": 0.05, "p": 4}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        header, line = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert float(row["ratio"]) == 0.0 and row["holds"] == "1"
        assert float(row["log10_ratio"]) == pytest.approx(-384.837, abs=1e-3)


class TestConcentrationVerdict:
    def test_lambda_within_noise_prints_zero(self, tmp_path, capsys):
        # at b = 64 pi and L = 32 eigh reads lambda_min ~ -2e-16 at gamma = 0.1, inside its
        # noise: the row printed holds 1 against a bound of 0.0; unresolved, it prints 0
        # and adds no violation, while gamma = 0.7 (lambda_min 2.7e-13) still holds
        cfg = {"command": "concentration", "gamma_list": [0.1, 0.7], "b": 64.0 * math.pi,
               "L": 32}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        out, err = capsys.readouterr()
        header, *lines = out.splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [row["holds"] for row in rows] == ["0", "1"] and "violation" not in err
        assert rows[0]["log10_margin"] == "-inf" and float(rows[1]["log10_margin"]) > 0

    def test_rows_print_the_verdict_class(self, tmp_path, capsys):
        # at gamma = 0.3, b = 32 pi the 17 x 17 section reads lambda_min ~ 5e-18, a finite
        # log10_margin but inside the noise: `holds` 0 alone does not say it is unresolved
        cfg = {"command": "concentration", "gamma_list": [0.1, 0.3, 0.7], "b": 32.0 * math.pi,
               "L": 32}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split(",")[-2:] == ["holds", "verdict"]
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [(row["holds"], row["verdict"]) for row in rows] == [
            ("0", "unresolved"), ("0", "unresolved"), ("1", "holds")]


class TestTaylorSuite:
    CFG = {"command": "verify", "suite": "taylor", "seeds": 1, "m": 98, "p": 2}

    def row(self, tmp_path, capsys):
        status = main(["--config", write_config(tmp_path, self.CFG)])
        header, line = capsys.readouterr().out.splitlines()
        return status, dict(zip(header.split(","), line.split(",")))

    def test_budget_below_double_range_is_printed(self, tmp_path, capsys):
        # a^(pm) / (m!)^p ~ 1e-367 underflowed before the sum (~7e97)
        # multiplied it, and rhs printed 0
        status, row = self.row(tmp_path, capsys)
        assert status == 0 and row["holds"] == "1"
        assert float(row["rhs"]) == pytest.approx(1.5171e-269, rel=1e-4, abs=0.0)
        assert 0.0 < float(row["lhs"]) < float(row["rhs"])

    def test_budget_below_lhs_fails(self, tmp_path, capsys, monkeypatch):
        lhs = float(self.row(tmp_path, capsys)[1]["lhs"])
        monkeypatch.setattr(cli_mod.proofcheck, "taylor_remainder_bound_log10",
                            lambda split, p: math.log10(lhs) - 1.0)
        status, row = self.row(tmp_path, capsys)
        assert status == 1 and row["holds"] == "0"
        assert float(row["rhs"]) == pytest.approx(lhs / 10.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m, floor", [(7, "3.6e-08"), (10, "6.3e-06"), (20, "9.7e-01"),
                                          (40, "3.1e+04")])
    def test_identity_below_rounding_floor_exits_two(self, tmp_path, capsys, m, floor):
        # at b = 64 pi and window 0.5 the identity read 3.7e-6, 0.84 and 3.1e4 at
        # m = 10, 20 and 40: rounding of terms up to (nu a)^j / j!, nu a ~ 50
        cfg = {"command": "verify", "suite": "taylor", "seeds": 1, "m": m, "b": 64.0 * math.pi}
        err = config_error(tmp_path, capsys, cfg)
        assert f"b = 201.062, m = {m}, window = 0.5" in err and f"floor at {floor}" in err

    @pytest.mark.parametrize("m, p", [(120, 2), (171, 1)])
    def test_factorial_power_past_the_double_range_runs(self, tmp_path, capsys, m, p):
        # (m!)^p passes the largest double, but the budget is a sum of logs that never forms it
        cfg = {"command": "verify", "suite": "taylor", "seeds": 1, "m": m, "p": p}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        header, line = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert row["holds"] == "1" and float(row["rhs"]) < math.inf

    @pytest.mark.parametrize("p", [2000, 1e6, 1e300])
    def test_remainder_mass_past_the_double_range_exits_two(self, tmp_path, capsys, p):
        # |R|^p overflows the remainder mass to inf, and no verdict can be read from it;
        # stderr is the one error line, with no RuntimeWarning from the power before it
        cfg = {"command": "verify", "suite": "taylor", "seeds": 1, "p": p}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = config_error(tmp_path, capsys, cfg)
        assert err == f"error: taylor: p = {p:g} at m = 3 puts the remainder mass past the range\n"

    def test_identity_above_rounding_floor_runs(self, tmp_path, capsys):
        # m = 6 puts the floor at 4.9e-9, below the 1e-8 tolerance, and the identity
        # error tracks it: 4.7e-9 on these seeds
        cfg = {"command": "verify", "suite": "taylor", "seeds": 3, "m": 6, "b": 64.0 * math.pi}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        errors = [float(dict(zip(header.split(","), line.split(",")))["identity_error"])
                  for line in lines]
        assert len(errors) == 3 and 1e-10 < max(errors) < 1e-8


class TestExpsumSuite:
    @pytest.mark.parametrize(
        "p, searches, integrals, kinked", [("inf", 1, 0, 0), (2, 0, 1, 0), (1, 0, 0, 1)]
    )
    def test_one_verifier_call_per_cell(self, monkeypatch, p, searches, integrals, kinked):
        from thickset import proofcheck

        calls = {"exp_sum_verifier": 0, "sup_abs": 0, "piece_integrals": 0, "kinked_integrals": 0}

        def counted(name):
            real = getattr(proofcheck, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(proofcheck, name, wrapper)

        for name in calls:
            counted(name)
        run({"command": "verify", "suite": "expsum", "seeds": 3, "n": 2, "m": 2, "p": p})
        # one call checks the three instances against all nine default fractions: one
        # sup search over them all at p = inf, one integral over them all at p = 2, and
        # one kink-aware integral at p = 1
        assert calls == {"exp_sum_verifier": 1, "sup_abs": searches,
                         "piece_integrals": integrals, "kinked_integrals": kinked}

    @pytest.mark.parametrize(
        "extra, tails",
        [
            ({"seed": 5}, ["fraction=0.9 ratio over bound"]),
            (
                {"seed": 0, "seeds": 12, "fraction_list": [0.95, 0.5, 0.9, 0.99]},
                [
                    "fraction=0.95 ratio over bound",
                    "fraction=0.5 ratio over bound",
                    "fraction=0.9 ratio over bound",
                    "fraction=0.9 ratio over bound",
                ],
            ),
        ],
    )
    def test_violations_fraction_major(self, extra, tails):
        # lines follow the fraction list, then the instances within a fraction
        config = {"command": "verify", "suite": "expsum", "n": 1, "m": 2, "p": "inf",
                  "constants": {"c_aux": 1.01}}
        result = run({**config, **extra})
        assert result.violations == tuple(f"expsum: n=1 m=2 p=inf {t}" for t in tails)

    @pytest.mark.parametrize("m, p", [(400, 2), (3000, "inf")])
    def test_exponent_past_the_double_range_runs(self, tmp_path, capsys, m, p):
        # (c s)^(nm - 1/p) overflowed in minimal_transfer_constant (OverflowError, exit 1)
        cfg = {"command": "verify", "suite": "expsum", "seeds": 1, "n": 1, "m": m, "p": p}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10

    def test_steep_slope_within_bound_passes(self, tmp_path):
        # near fraction 1 the fitted slope (1.52) exceeds nm - (p-1)/p + 0.1,
        # but every ratio is within its bound: the slope is reported, not checked
        config = {"command": "verify", "suite": "expsum", "n": 1, "m": 2, "p": "inf", "seed": 0,
                  "seeds": 12, "fraction_list": [0.95, 0.5, 0.9, 0.99]}
        result = run(config)
        assert result.violations == ()
        slope, cap = (result.table.header.index(name) for name in ("slope", "slope_cap"))
        assert all(row[slope] > row[cap] for row in result.table.rows)
        assert main(["--config", write_config(tmp_path, config)]) == 0


class TestLargeExponent:
    # piece_masses raises |u|^p in linear space, so from p ~ 650 a mass of u reaches 0 or
    # inf; no label, norm or check can be read from it, where growth printed ratio 0 and
    # holds 1, and band_norms max_ratio nan (inf / inf) with exit status 0
    @pytest.mark.parametrize("p", [1000, 1e6, 1e300])
    @pytest.mark.parametrize("config", [
        {"command": "verify", "suite": "good_bad", "seeds": 1},
        {"command": "verify", "suite": "local_estimate", "seeds": 1},
        {"command": "verify", "suite": "growth", "seeds": 1},
        {"command": "verify", "suite": "band_norms", "seeds": 1},
        {"command": "classify"},
    ], ids=["good_bad", "local_estimate", "growth", "band_norms", "classify"])
    def test_mass_past_the_double_range_exits_two(self, tmp_path, capsys, config, p):
        with warnings.catch_warnings():  # stderr holds the error line alone
            warnings.simplefilter("error")
            err = config_error(tmp_path, capsys, {**config, "p": p})
        assert len(err.splitlines()) == 1
        assert f"p = {p:g} puts an interval mass of |u|^p past the double range" in err

    def test_unit_masses_in_range_run(self, tmp_path, capsys):
        # at p = 700 f's masses s^p integral |u|^p pass the range (refused before the checks
        # read u's), and A^p = 3^700 does too: the bad-mass budget reads 0, not OverflowError
        for suite in ("good_bad", "local_estimate", "growth"):
            cfg = {"command": "verify", "suite": suite, "seeds": 1, "p": 700}
            assert main(["--config", write_config(tmp_path, cfg)]) == 0, suite
            header, *lines = capsys.readouterr().out.splitlines()
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
            assert rows and all(row.get("bad_budget", "0") == "0" for row in rows)
            assert all(row.get("holds", row.get("all_hold", "1")) == "1" for row in rows)

    @pytest.mark.parametrize("p", [1001, 1e6, 1e300])
    def test_expsum_mass_past_the_double_range_exits_two(self, tmp_path, capsys, p):
        # both expsum norms overflow and the ratio read inf / inf = nan, refused as a nan
        # margin after numpy's RuntimeWarnings; the masses are refused first, naming p.
        # At odd p the kinked rule refined a piece of inf for 40 rounds and ran out of memory
        cfg = {"command": "verify", "suite": "expsum", "seeds": 1, "p": p}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = config_error(tmp_path, capsys, cfg)
        assert err == f"error: p = {p:g} puts an interval mass of |f|^p past the double range\n"


class TestStrideOverflow:
    # the Gram build reduces int64 modes mod q = L / period: from q = 2**63 it raised
    # OverflowError (exit 1); below it a two-mode Gram on a half-density set still runs
    @pytest.mark.parametrize("L", [9e18, 9.3e18, 1e20, 1e300])
    def test_period_ratio_past_int64_exits_two(self, tmp_path, capsys, L):
        cfg = {"command": "concentration", "freqs": [0, 1], "set": {"two_sliver": 0.5}, "L": L}
        status = main(["--config", write_config(tmp_path, cfg)])
        out, err = capsys.readouterr()
        if L < 2.0**63:
            row = dict(zip(*(line.split(",") for line in out.splitlines())))
            assert status == 0 and row["lambda_min"] == "0.5"
        else:
            assert status == 2 and not out and f"q = {L:g} set periods" in err


class TestSupEvaluatorContract:
    """A search still runs when its sampler is wrapped as a one-argument callable.

    A tracer that counts evaluations wraps the first argument ``sup_abs``
    receives, its sampler, as ``counted(t)``, so the sampler must take its
    points as its only argument.  Every caller hands it points of shape (K, n),
    once per search.
    """

    @staticmethod
    def probe(monkeypatch) -> tuple[list, list]:
        """Wrap every module's sup_abs sampler as counted(t); returns the x.ndim of
        each sampler call, and one entry per search."""
        from thickset import bandlimited, proofcheck, quadrature

        real, probes, searches = quadrature.sup_abs, [], []

        def probed(sample, *args, **kwargs):
            def counted(t):
                probes.append(t.ndim)
                return sample(t)

            searches.append(None)
            return real(counted, *args, **kwargs)

        for module in (proofcheck, bandlimited):
            monkeypatch.setattr(module, "sup_abs", probed)
        return probes, searches

    @pytest.mark.parametrize(
        "config",
        [
            {"command": "verify", "suite": "expsum", "seeds": 3, "n": 2, "m": 2, "p": "inf"},
            {"command": "verify", "suite": "band_norms", "seeds": 2, "n": 3, "p": "inf"},
            {"command": "verify", "suite": "growth", "seeds": 2, "p": 1},  # the dense closure
        ],
        ids=["expsum", "band_norms", "growth"],
    )
    def test_one_argument_wrapper_keeps_rows(self, monkeypatch, config):
        want = run(config)
        probes, searches = self.probe(monkeypatch)
        got = run(config)
        assert probes and set(probes) == {2} and len(probes) == len(searches)
        assert got.table.rows == want.table.rows
        assert got.violations == want.violations

    def test_one_argument_wrapper_keeps_lp_norm(self, monkeypatch):
        from thickset import BandSpec, NormQuery, lp_norm, random_bandlimited, two_sliver_set

        f = random_bandlimited(BandSpec((0.0, 6.0 * math.pi), 2.0 * math.pi), 8.0, seed=4)
        query = NormQuery(math.inf, two_sliver_set(0.1))
        want = lp_norm(f, query)
        probes, searches = self.probe(monkeypatch)
        assert repr(lp_norm(f, query)) == repr(want)
        assert probes == [2] and len(searches) == 1


class TestProofSuites:
    @pytest.mark.parametrize(
        "config, name, cells",
        [
            ({"suite": "local_estimate", "gamma_list": [0.1, 0.7]}, "local_estimate_check", 2),
            ({"suite": "growth"}, "growth_envelope", 1),
        ],
    )
    def test_one_check_call_per_cell(self, monkeypatch, config, name, cells):
        # every good interval of an instance is checked in one call
        from thickset import proofcheck

        calls = []
        real = getattr(proofcheck, name)
        monkeypatch.setattr(proofcheck, name, lambda *a, **k: calls.append(1) or real(*a, **k))
        result = run({"command": "verify", "seeds": 3, "p_list": [1, 2], **config})
        assert result.exit_status == 0
        assert len(calls) == 3 * 2 * cells


class TestReadme:
    def test_quickstart_prints_its_comments(self):
        # each `print(...)  # value` line prints that value; "..." marks a prefix
        import contextlib
        import io

        (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        printed = out.getvalue().splitlines()
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        assert len(printed) == len(prints) == 4
        expected = [line.partition("#")[2].strip() for line in prints]
        assert expected[:3] == ["0.5", "0.6798...", "0.0093..."]
        for got, want in zip(printed, expected[:3]):
            if want.endswith("..."):
                assert got.startswith(want[:-3]), (got, want)
            else:
                assert got == want
        assert float(printed[3]) < 0


class TestMain:
    def test_stdout_output(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "bound", "gamma": 0.5, "ab": 1, "p": 2})
        rc = main(["--config", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("which,")

    def test_out_file(self, tmp_path):
        path = write_config(tmp_path, {"command": "thickness", "set": {"two_sliver": 0.5}, "a": 1})
        out = tmp_path / "table.csv"
        rc = main(["--config", path, "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"a,gamma\n")

    def test_config_output_key(self, tmp_path):
        out = tmp_path / "auto.csv"
        path = write_config(
            tmp_path,
            {"command": "thickness", "set": {"two_sliver": 0.5}, "a": 1, "output": str(out)},
        )
        assert main(["--config", path]) == 0
        assert out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 2

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "bound", "which": "nope", "gamma": 1})
        rc = main(["--config", path])
        assert rc == 2
        assert "bad config" in capsys.readouterr().err

    def test_unparsable_number_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "concentration", "gamma": "abc", "b": 12.566370614359172})
        assert main(["--config", path]) == 2
        assert "bad config" in capsys.readouterr().err

    def test_set_period_not_dividing_torus_exits_two(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"command": "concentration", "freqs": [0, 1, 2], "L": 8.0,
             "set": {"intervals": [[0.0, 0.5]], "period": 3.0}},
        )
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        # a domain error of a well-formed config, not a malformed config
        assert "set period must divide" in err and "bad config" not in err

    def test_zero_seeds_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "verify", "suite": "good_bad", "seeds": 0})
        assert main(["--config", path]) == 2
        assert "'seeds' must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", -1])
    def test_bad_seed_exits_two(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, {"command": "classify", "seed": seed})
        assert main(["--config", path]) == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"command": "bound", "gamma": 0.5, "gamma_list": [0.1], "ab": 1.0, "p": 2},
            {"command": "verify", "suite": "good_bad", "p": 1, "p_list": [2], "seeds": 1},
        ],
    )
    def test_key_and_key_list_together_exit_two(self, tmp_path, capsys, config):
        path = write_config(tmp_path, config)
        assert main(["--config", path]) == 2
        assert "config gives both" in capsys.readouterr().err

    def test_extremal_truncation_list_exits_two(self, tmp_path, capsys):
        # truncation is one value for the whole grid, so a list would run the default
        cfg = {"command": "extremal", "b": 40.0 * math.pi, "gamma": 0.1, "truncation_list": [4, 8]}
        assert main(["--config", write_config(tmp_path, cfg)]) == 2
        assert "'truncation_list'" in capsys.readouterr().err

    @pytest.mark.parametrize("truncation", [math.inf, 1e300, 2e6])
    def test_extremal_truncation_beyond_cap_exits_two(self, tmp_path, capsys, truncation):
        # [-X, X] holds 2X slivers: inf and 1e300 overflowed, and 1e7 ran out of memory
        cfg = {"command": "extremal", "b": 40.0 * math.pi, "gamma": 0.1, "truncation": truncation}
        assert main(["--config", write_config(tmp_path, cfg)]) == 2
        assert "truncation must be in (0, 1e+06]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"command": "extremal", "b": 1e20, "gamma": 0.1}, "lower b = 1e+20 or p"),
            ({"command": "extremal", "b": 1e308, "gamma": 0.1}, "lower b = 1e+308 or p"),
            ({"command": "verify", "suite": "growth", "seeds": 1, "radius": 1e300},
             "radius 1e+300 needs over 1048576 grid phases"),
            ({"command": "verify", "suite": "growth", "seeds": 1, "radius": 1e6},
             "radius 1e+06 needs over 1048576 grid phases"),
            ({"command": "verify", "suite": "taylor", "seeds": 1, "m": 172},
             "degree m = 172 puts"),
            ({"command": "extremal", "b": math.inf, "gamma": 0.1}, "b = inf gives"),
            ({"command": "verify", "suite": "taylor", "seeds": 1, "window": math.inf},
             "invalid interval (1.0, inf)"),
            ({"command": "classify", "b": 1e9}, "b = 1e+09 at L = 8 needs over 1048576 modes"),
        ],
        ids=["extremal-b-1e20", "extremal-b-1e308", "growth-radius-1e300", "growth-radius-1e6",
             "taylor-m-172", "extremal-b-inf", "taylor-window-inf", "classify-b-1e9"],
    )
    def test_domain_beyond_cap_exits_two(self, tmp_path, capsys, config, message):
        # each raised an uncaught overflow (exit 1), or ran out of time and memory
        # (radius 1e6, classify b 1e9), before the library refused it
        assert message in config_error(tmp_path, capsys, config)

    @pytest.mark.parametrize("value", [2.5, True, "2"])
    @pytest.mark.parametrize(
        "config, key, kind",
        [
            ({"command": "bound", "which": "theorem2", "gamma": 0.5, "ab": 1, "p": 2}, "n",
             "an integer"),
            ({"command": "bound", "which": "lemma3", "meas_E": 0.5, "n": 1, "p": 2}, "m",
             "an integer"),
            ({"command": "verify", "suite": "taylor", "seeds": 1}, "m", "an integer"),
            # the counts of a verify suite are read as positive integers
            ({"command": "verify", "suite": "taylor", "seeds": 1}, "n", "a positive integer"),
            ({"command": "verify", "suite": "band_norms", "seeds": 1}, "n", "a positive integer"),
            ({"command": "verify", "suite": "expsum", "seeds": 1, "m": 1, "p": 2}, "n",
             "a positive integer"),
            ({"command": "verify", "suite": "expsum", "seeds": 1, "n": 1, "p": 2}, "m",
             "a positive integer"),
        ],
    )
    def test_non_integer_field_exits_two(self, tmp_path, capsys, config, key, kind, value):
        # int() would run 2.5 as 2, true as 1 and "2" as 2
        path = write_config(tmp_path, {**config, key: value})
        assert main(["--config", path]) == 2
        assert f"'{key}' must be {kind}, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key, value",
        [
            ({"command": "thickness", "set": {"two_sliver": 0.5}, "a": True}, "a", True),
            ({"command": "thickness", "set": {"two_sliver": 0.5}, "a": "2"}, "a", "2"),
            ({"command": "verify", "suite": "band_norms", "seeds": 1, "L": True}, "L", True),
            ({"command": "thickness", "set": {"two_sliver": "0.5"}}, "two_sliver", "0.5"),
            ({"command": "bound", "gamma": 0.5, "ab": 1, "p": 2, "constants": {"c_one": "2"}},
             "c_one", "2"),
            ({"command": "extremal", "b": 40.0, "gamma": 0.1, "truncation": True},
             "truncation", True),
            ({"command": "classify", "b": "12"}, "b", "12"),
            ({"command": "classify", "p": True}, "p", True),
            ({"command": "verify", "suite": "growth", "seeds": 1, "radius": "4"}, "radius", "4"),
            ({"command": "concentration", "gamma": 0.3, "b": 12.0, "window": True},
             "window", True),
        ],
    )
    def test_non_number_real_field_exits_two(self, tmp_path, capsys, config, key, value):
        # float() would run true as 1.0 and "2" as 2.0
        path = write_config(tmp_path, config)
        assert main(["--config", path]) == 2
        assert f"'{key}' must be a number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"command": "classify", "seed": 0}, "L"),
            ({"command": "thickness", "set": {"two_sliver": 0.5}}, "a"),
        ],
    )
    def test_integer_real_field_accepted(self, config, key):
        as_int = emit_csv(run({**config, key: 32}).table)
        assert as_int == emit_csv(run({**config, key: 32.0}).table)

    def test_fractional_mode_exits_two(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"command": "concentration", "freqs": [0, 1.5], "L": 8.0,
             "set": {"intervals": [[0.0, 0.5]]}},
        )
        assert main(["--config", path]) == 2
        assert "'freqs' must be an integer, got 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "freqs", [[0, 10**20], [-5 * 10**18, 5 * 10**18]], ids=["beyond-int64", "wrapping-step"]
    )
    def test_out_of_range_mode_exits_two(self, tmp_path, capsys, freqs):
        # 10**20 does not fit int64; +-5e18 fit, but their difference wraps
        path = write_config(
            tmp_path,
            {"command": "concentration", "freqs": freqs, "L": 8.0,
             "set": {"intervals": [[0.0, 0.5]]}},
        )
        assert main(["--config", path]) == 2
        assert "lattice modes must satisfy |m| < 2**52" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", [[0], [0, 1, 5]])
    def test_thickness_domain_needs_two_numbers(self, tmp_path, capsys, domain):
        path = write_config(
            tmp_path,
            {"command": "thickness", "set": {"intervals": [[0.2, 0.4]]}, "a": 0.5, "domain": domain},
        )
        assert main(["--config", path]) == 2
        assert f"'domain' must be a list of two numbers, got {domain!r}" in capsys.readouterr().err

    def test_domain_error_exits_two(self, tmp_path, capsys):
        # schema is fine but the parameters are outside the math domain
        path = write_config(tmp_path, {"command": "bound", "gamma": 2.0, "ab": 1, "p": 2})
        assert main(["--config", path]) == 2

    def test_violation_manifest_exits_one(self, tmp_path, capsys, monkeypatch):
        from thickset import cli as cli_mod

        def fake(values, axes):
            return RunResult(ExperimentTable(("a",), ((1,),)), ("synthetic failure",))

        table = cli_mod._ENTRIES["thickness", None][0]
        monkeypatch.setitem(cli_mod._ENTRIES, ("thickness", None), (table, fake))
        path = write_config(tmp_path, {"command": "thickness", "set": {"two_sliver": 0.5}})
        rc = main(["--config", path])
        assert rc == 1
        assert "violation: synthetic failure" in capsys.readouterr().err


class TestSeedEnv:
    def test_environment_does_not_change_the_output(self, monkeypatch):
        # the config's seed is the one seed, so one config's bytes do not depend on the environment
        cfg = {"command": "classify", "seed": 3, "b": 12.566370614359172, "p": 2}
        baseline = emit_csv(run(cfg).table)
        monkeypatch.setenv("THICKSET_SEED", "99")
        assert emit_csv(run(cfg).table) == baseline


class TestCountCap:
    @pytest.mark.parametrize(
        "config, key",
        [
            ({"command": "verify", "suite": "band_norms", "seeds": 1, "n": 10**12}, "n"),
            ({"command": "verify", "suite": "taylor", "seeds": 1, "n": 10**12}, "n"),
            ({"command": "verify", "suite": "expsum", "seeds": 1, "n": 10**12, "m": 1, "p": 2},
             "n"),
            ({"command": "verify", "suite": "expsum", "seeds": 1, "n": 1, "m": 10**12, "p": 2},
             "m"),
            ({"command": "verify", "suite": "good_bad", "seeds": 10**12}, "seeds"),
        ],
        ids=["band_norms-n", "taylor-n", "expsum-n", "expsum-m", "good_bad-seeds"],
    )
    def test_huge_count_exits_two_before_building(self, tmp_path, capsys, config, key):
        # each built its 10**12 bands, terms or seeds first and ran out of memory (exit 1)
        path = write_config(tmp_path, config)
        tracemalloc.start()
        try:
            status = main(["--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert status == 2
        assert f"{key!r} must be at most 1048576, got {10**12}" in err
        assert "Traceback" not in err
        assert peak < 1_000_000


class TestDomainRefusal:
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"command": "bound", "gamma": 0.5, "ab": -1, "p": 2},
             "duration-bandwidth product must be >= 0, got -1.0"),
            ({"command": "bound", "which": "lemma3", "len_I": 1, "meas_E": 2, "n": 1, "m": 1,
              "p": 2}, "need 0 < |E| <= |I|"),
            ({"command": "bound", "which": "lemma1", "meas_E": 1.5, "M": 2},
             "subset measure must be at most 1, got 1.5"),
            ({"command": "bound", "which": "nazarov_remez", "meas_E": 0.5, "n": -1},
             "n must be an integer >= 0, got -1"),
            ({"command": "bound", "gamma": 0.5, "ab": 1, "p": 2, "constants": {"c_one": 0.5}},
             "constant c_one must exceed 1, got 0.5"),
            ({"command": "bound", "which": "multidim", "gamma": 0.5, "ab_products": [-1, 2]},
             "need one ab product >= 0 per axis, got (-1.0, 2.0)"),
            ({"command": "concentration", "freqs": [0, 1], "L": 1.0,
              "set": {"intervals": [[0.5, 1.5]]}},
             "aperiodic set must lie inside one period [0, L]"),
            ({"command": "concentration", "freqs": [0, 2**52], "L": 8.0,
              "set": {"intervals": [[0.0, 0.5]]}},
             "lattice modes must satisfy |m| < 2**52"),
        ],
        ids=["theorem1-ab", "lemma3-measures", "lemma1-measure", "nazarov_remez-n",
             "constants-c_one", "multidim-ab_products", "freqs-aperiodic-set", "freqs-mode"],
    )
    def test_library_refusal_is_not_a_bad_config(self, tmp_path, capsys, config, message):
        # a schema-valid config the library refuses prints `error: <message>`; these
        # printed `error: bad config: malformed config for ...`
        assert config_error(tmp_path, capsys, config) == f"error: {message}\n"


class TestSubprocess:
    def test_python_dash_m_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "command": "verify",
                "suite": "good_bad",
                "seeds": 2,
                "b": 12.566370614359172,
                "p_list": [1, 2],
                "seed": 5,
            },
        )
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "thickset", "--config", path],
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
        assert runs[0].startswith(b"seed,b,p,")

    def test_setup_calls_leave_numpy_ma_unimported(self):
        # a bare np.unique imports numpy.ma on first use (numpy 2.4), at about 18 ms
        script = (
            "import sys, thickset, thickset.cli\n"
            "thickset.cli.run({'command': 'concentration', 'freqs': [0, 1, 2],"
            " 'set': {'two_sliver': 0.5}, 'L': 1.0})\n"
            "f = thickset.TrigPoly(1.0, [0, 1], [1.0, 1.0])\n"
            "thickset.lp_norm(f, thickset.NormQuery(2.0, thickset.full_torus(1.0)))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"False\n"


# the smallest valid config of each entry of cli._ENTRIES, with cheap grids
MINIMAL = {
    ("bound", "theorem1"): {"gamma": 0.5, "ab": 1.0, "p": 2},
    ("bound", "theorem2"): {"gamma": 0.5, "ab": 1.0, "p": 2},
    ("bound", "remark1"): {"gamma": 0.5, "ab": 1.0, "p": 2},
    ("bound", "lemma1"): {"meas_E": 0.5, "M": 2.0},
    ("bound", "lemma3"): {"meas_E": 0.5, "n": 1, "m": 1, "p": 2},
    ("bound", "nazarov_remez"): {"meas_E": 0.5, "n": 1},
    ("bound", "multidim"): {"gamma": 0.5},
    ("thickness", None): {"set": {"two_sliver": 0.5}},
    ("concentration", "freqs"): {"freqs": [0, 1], "set": {"two_sliver": 0.5}},
    ("concentration", "sharpness"): {"gamma": 0.5, "b": 2.0 * math.pi},
    ("extremal", None): {"b": 40.0 * math.pi, "gamma": 0.4},
    ("classify", None): {},
    ("verify", "good_bad"): {"seeds": 1, "p": 2},
    ("verify", "local_estimate"): {"seeds": 1, "p": 2, "gamma": 0.3},
    ("verify", "growth"): {"seeds": 1, "p": 2},
    ("verify", "taylor"): {"seeds": 1},
    ("verify", "band_norms"): {"seeds": 1},
    ("verify", "expsum"): {"seeds": 1, "n": 1, "m": 1, "p": 2},
}
SELECTOR = {"bound": "which", "verify": "suite"}


def minimal(entry) -> dict:
    command, variant = entry
    config = {"command": command, **MINIMAL[entry]}
    if command in SELECTOR:
        config[SELECTOR[command]] = variant
    return config


def table_keys(*kinds):
    """(entry, key name, default) of every declared key that sweeps (kind True),
    takes one value (kind False) or is read as one list (kind "list")."""
    return [
        pytest.param(entry, name, default, id=f"{entry[0]}-{entry[1]}-{name}")
        for entry, (table, _) in cli_mod._ENTRIES.items()
        for name, _, default, sweeps in table
        if sweeps in kinds
    ]


def config_error(tmp_path, capsys, config) -> str:
    """Run `config` through main, require exit 2 and return its stderr."""
    assert main(["--config", write_config(tmp_path, config)]) == 2
    return capsys.readouterr().err


# Python's json reads NaN and Infinity.  A NaN bound parameter printed nan and
# exited 0, and an infinite period exited 1 with OverflowError.
PERIOD_ENTRIES = [entry for entry, (table, _) in cli_mod._ENTRIES.items()
                  if "L" in {row[0] for row in table}]
NON_FINITE = [
    pytest.param(entry, key, value, id=f"{entry[0]}-{entry[1]}-{key}={value}")
    for entry, key, value in [
        (("bound", "lemma1"), "meas_E", math.nan), (("bound", "lemma1"), "M", math.nan),
        (("bound", "lemma3"), "meas_E", math.nan), (("bound", "lemma3"), "len_I", math.nan),
        (("bound", "nazarov_remez"), "meas_E", math.nan),
        (("bound", "nazarov_remez"), "len_I", math.nan),
    ] + [(entry, "L", math.inf) for entry in PERIOD_ENTRIES]
]


class TestKeyTables:
    """Every entry refuses what its table does not declare, and sweeps what it does."""

    def test_period_entries(self):
        assert len(PERIOD_ENTRIES) == 8 and ("concentration", "freqs") in PERIOD_ENTRIES

    @pytest.mark.parametrize("entry, key, value", NON_FINITE)
    def test_nan_or_infinite_period_exits_two(self, tmp_path, capsys, entry, key, value):
        err = config_error(tmp_path, capsys, {**minimal(entry), key: value})
        assert f"{key!r} must be" in err

    def test_every_entry_has_a_minimal_config(self):
        assert set(MINIMAL) == set(cli_mod._ENTRIES)
        for entry in MINIMAL:
            assert run(minimal(entry)).exit_status == 0, entry

    @pytest.mark.parametrize("entry, name, default", table_keys(True, False, "list"))
    def test_misspelled_key_exits_two(self, tmp_path, capsys, entry, name, default):
        config = minimal(entry)
        value = config.get(name, default)
        for key in (name.swapcase(), name.swapcase() + "_list", name + "_lst"):
            assert key not in {row[0] for row in cli_mod._ENTRIES[entry][0]}
            err = config_error(tmp_path, capsys, {**config, key: value})
            assert f"unknown key {key!r}" in err

    @pytest.mark.parametrize("entry, name, default", table_keys(False))
    def test_one_value_key_as_list_exits_two(self, tmp_path, capsys, entry, name, default):
        config = minimal(entry)
        value = config.pop(name, default)
        err = config_error(tmp_path, capsys, {**config, f"{name}_list": [value]})
        assert f"'{name}_list' is not read" in err

    @pytest.mark.parametrize("entry, name, default", table_keys(True))
    def test_two_value_list_doubles_rows(self, entry, name, default):
        config = minimal(entry)
        value = config.pop(name, default)
        value = value[0] if isinstance(value, list) else value
        single = run({**config, name: value}).table.rows
        double = run({**config, f"{name}_list": [value, value]}).table.rows
        assert single and len(double) == 2 * len(single)

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"command": "concentration", "gama": 0.5, "gamma": 0.3, "b": 6.283185307179586},
             "'gama'"),
            ({"command": "verify", "suite": "growth", "radius_list": [1, 2]}, "'radius_list'"),
            ({"command": "verify", "suite": "band_norms", "n_list": [3]}, "'n_list'"),
            ({"command": "classify", "L_list": [16.0]}, "'L_list'"),
            ({"command": "verify", "suite": "taylor", "windw": 0.25}, "'windw'"),
            ({"command": "thickness", "set": {"two_sliver": 0.5, "perod": 3}}, "'perod'"),
            ({"command": "verify", "suite": "good_bad", "seeds_list": [1, 2]}, "'seeds_list'"),
            ({"command": "bound", "which": "remark1", "gamma": 0.5, "ab": 1, "p": 2,
              "constants": {}}, "'constants'"),
            ({"command": "concentration", "freqs": [0, 1], "set": {"two_sliver": 0.5},
              "gamma": 0.5}, "'gamma'"),
        ],
    )
    def test_silently_ignored_configs_exit_two(self, tmp_path, capsys, config, key):
        assert key in config_error(tmp_path, capsys, config)

    def test_list_key_stays_inside_the_cell(self):
        # expsum's fraction is one list per cell, not an axis: one cell, one row per fraction
        config = {**minimal(("verify", "expsum")), "fraction_list": [0.3, 0.6, 0.9]}
        assert [row[3] for row in run(config).table.rows] == [0.3, 0.6, 0.9]
        assert [param.values[1] for param in table_keys("list")] == ["fraction"]

    def test_multidim_without_n_is_the_single_band_form(self):
        rows = run(minimal(("bound", "multidim"))).table.rows
        assert [row[4] for row in rows] == [0]


class TestStructuredKeys:
    @pytest.mark.parametrize(
        "set_, message",
        [
            ({"two_sliver": 0.5, "perod": 3}, "unknown key 'perod' in 'set'"),
            ({"two_sliver": 0.5, "intervals": [[0, 0.1]]},
             "'set' gives both 'two_sliver' and 'intervals'"),
            ({"intervals": [[0, 0.5]], "period": True}, "'period' must be a number, got True"),
            ({"intervals": [[0, 0.5]], "period": "2"}, "'period' must be a number, got '2'"),
            ({"intervals": [[0, "0.5"]]}, "'intervals' must be a number, got '0.5'"),
            ({"intervals": [[0, 0.2, 0.5]]}, "'intervals' must be a list of two numbers"),
            ({"period": 2.0}, "'set' needs either 'two_sliver' or 'intervals'"),
        ],
        ids=["unknown-key", "two-sliver-and-intervals", "period-true", "period-string",
             "endpoint-string", "endpoint-triple", "no-intervals"],
    )
    def test_bad_set_exits_two(self, tmp_path, capsys, set_, message):
        config = {"command": "thickness", "a": 0.5, "set": set_}
        assert message in config_error(tmp_path, capsys, config)

    def test_integer_period_is_read_as_a_number(self):
        config = {"command": "thickness", "a": 0.5, "set": {"intervals": [[0, 1]], "period": 2}}
        as_float = {**config, "set": {"intervals": [[0.0, 1.0]], "period": 2.0}}
        assert emit_csv(run(config).table) == emit_csv(run(as_float).table)

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"command": "concentration", "freqs": 3, "set": {"two_sliver": 0.5}}, "freqs"),
            ({"command": "bound", "which": "multidim", "gamma": 0.5, "ab_products": 3},
             "ab_products"),
            ({"command": "bound", "which": "multidim", "gamma": 0.5, "ab_products": []},
             "ab_products"),
            ({"command": "thickness", "set": {"intervals": [[0.2, 0.4]]}, "domain": 3}, "domain"),
            ({"command": "bound", "gamma": 0.5, "ab": 1, "p": 2, "constants": [1]}, "constants"),
        ],
    )
    def test_structured_key_error_names_the_key(self, tmp_path, capsys, config, key):
        err = config_error(tmp_path, capsys, config)
        assert f"{key!r} must be" in err and "not iterable" not in err


class TestOutput:
    @pytest.mark.parametrize("value", [["x"], 7, "", True])
    def test_bad_output_exits_two(self, tmp_path, capsys, value):
        config = {"command": "thickness", "set": {"two_sliver": 0.5}, "output": value}
        assert f"'output' must be a non-empty string, got {value!r}" in config_error(
            tmp_path, capsys, config
        )

    def test_unwritable_config_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "table.csv"
        config = {"command": "thickness", "set": {"two_sliver": 0.5}, "output": str(out)}
        assert "error: cannot write output: " in config_error(tmp_path, capsys, config)
        assert not out.exists()

    def test_unwritable_out_flag_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "thickness", "set": {"two_sliver": 0.5}})
        assert main(["--config", path, "--out", str(tmp_path / "missing" / "t.csv")]) == 2
        assert "error: cannot write output: " in capsys.readouterr().err

    def test_out_flag_wins_over_config_output(self, tmp_path):
        config = {"command": "thickness", "set": {"two_sliver": 0.5},
                  "output": str(tmp_path / "config.csv")}
        flag = tmp_path / "flag.csv"
        assert main(["--config", write_config(tmp_path, config), "--out", str(flag)]) == 0
        assert flag.exists() and not (tmp_path / "config.csv").exists()


def readme_key_lines() -> list[str]:
    """The README's per-entry key list, as the declared tables render it."""
    lines = []
    for (command, variant), (table, _) in cli_mod._ENTRIES.items():
        groups = {True: [], cli_mod._LIST: [], False: []}
        for name, _, default, sweeps in table:
            text = f"`{name}`"
            if default is not cli_mod._REQUIRED:
                text += f" = `{json.dumps(default)}`"
            groups[sweeps].append(text)
        label = f"`{command}`" + (f" `{variant}`" if variant else "")
        parts = [
            f"{title} {', '.join(groups[kind])}"
            for title, kind in (("sweeps", True), ("list", cli_mod._LIST), ("one value", False))
            if groups[kind]
        ]
        lines.append(f"- {label}: " + "; ".join(parts))
    return lines


class TestReadmeKeys:
    def test_key_list_matches_the_tables(self):
        text = README.read_text()
        block = re.search(r"Keys per entry[^\n]*\n\n((?:- [^\n]*\n)+)", text)
        assert block is not None
        assert block.group(1).splitlines() == readme_key_lines()
