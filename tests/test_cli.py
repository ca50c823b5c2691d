"""Config parsing, CSV determinism, exit codes, and seed plumbing."""
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from thickset import ConfigError
from thickset.cli import (
    ExperimentTable,
    RunResult,
    SEED_ENV_VAR,
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
                return 0.0
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
        assert row[4] == pytest.approx(8.984e-104, rel=1e-4)


class TestExpsumSuite:
    def test_one_verifier_call_and_one_sup_search_per_instance(self, monkeypatch):
        from thickset import proofcheck

        calls = {"exp_sum_verifier": 0, "sup_abs": 0}

        def counted(name):
            real = getattr(proofcheck, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(proofcheck, name, wrapper)

        counted("exp_sum_verifier")
        counted("sup_abs")
        run({"command": "verify", "suite": "expsum", "seeds": 3, "n": 2, "m": 2, "p": "inf"})
        # each instance is checked against all nine default fractions at once
        assert calls == {"exp_sum_verifier": 3, "sup_abs": 3}

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
        assert "set period must divide" in capsys.readouterr().err

    def test_zero_seeds_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "verify", "suite": "good_bad", "seeds": 0})
        assert main(["--config", path]) == 2
        assert "'seeds' must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.5, True, "2"])
    @pytest.mark.parametrize(
        "config, key",
        [
            ({"command": "bound", "which": "theorem2", "gamma": 0.5, "ab": 1, "p": 2}, "n"),
            ({"command": "bound", "which": "lemma3", "meas_E": 0.5, "n": 1, "p": 2}, "m"),
            ({"command": "verify", "suite": "taylor", "seeds": 1}, "m"),
            ({"command": "verify", "suite": "taylor", "seeds": 1}, "n"),
            ({"command": "verify", "suite": "band_norms", "seeds": 1}, "n"),
            ({"command": "verify", "suite": "expsum", "seeds": 1, "m": 1, "p": 2}, "n"),
            ({"command": "verify", "suite": "expsum", "seeds": 1, "n": 1, "p": 2}, "m"),
        ],
    )
    def test_non_integer_field_exits_two(self, tmp_path, capsys, config, key, value):
        # int() would run 2.5 as 2, true as 1 and "2" as 2
        path = write_config(tmp_path, {**config, key: value})
        assert main(["--config", path]) == 2
        assert f"'{key}' must be an integer, got {value!r}" in capsys.readouterr().err

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

        def fake(config):
            return RunResult(ExperimentTable(("a",), ((1,),)), ("synthetic failure",))

        monkeypatch.setitem(cli_mod._RUNNERS, "thickness", fake)
        path = write_config(tmp_path, {"command": "thickness", "set": {"two_sliver": 0.5}})
        rc = main(["--config", path])
        assert rc == 1
        assert "violation: synthetic failure" in capsys.readouterr().err


class TestSeedEnv:
    def test_env_overrides_config_seed(self, tmp_path, monkeypatch):
        cfg = {"command": "classify", "seed": 3, "b": 12.566370614359172, "p": 2}
        baseline = emit_csv(run(cfg).table)
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        overridden = emit_csv(run(cfg).table)
        assert baseline != overridden
        monkeypatch.setenv(SEED_ENV_VAR, "3")
        assert emit_csv(run(cfg).table) == baseline

    @pytest.mark.parametrize("suite", ["expsum", "good_bad"])
    def test_negative_env_seed_exits_two(self, tmp_path, capsys, monkeypatch, suite):
        monkeypatch.setenv(SEED_ENV_VAR, "-3")
        path = write_config(tmp_path, {"command": "verify", "suite": suite, "seeds": 1})
        assert main(["--config", path]) == 2
        assert f"{SEED_ENV_VAR} must be a nonnegative integer, got -3" in capsys.readouterr().err

    def test_bad_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigError):
            run({"command": "classify", "seed": 3, "b": 12.566370614359172, "p": 2})


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
