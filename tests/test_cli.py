import argparse
import importlib.util
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levyheat import cli
from levyheat.cli import main
from levyheat.config import SCHEMA, ExperimentConfig
from levyheat.errors import ValidationError
from levyheat.kernel import KernelParams
from levyheat.solver import build_discrete_kernel

WORKED_BOUNDS = """
# worked atom example: beta0 = 16
model.d = 1
model.alpha = 1.0
levy.kind = atoms
levy.atoms = 1:1, -1:1
sigma.kind = linear
sigma.slope = 1.0
run.p = 1
bounds.c = 0
"""

SMALL_RUN = """
model.d = 1
model.alpha = 1.5
levy.atoms = 1:1, -1:1
sigma.slope = 1.0
u0.kind = constant
u0.value = 1.0
grid.L = 16
grid.nx = 64
grid.T = 1.0
grid.nt = 50
run.p = 2
run.replicas = 6
run.seed = 77
scan.eta = 0.2, 0.5
"""

TABLE_SIGMA = """
sigma.kind = table
sigma.table_x = -1, 0, 1
sigma.table_y = -2, 0, 2
"""


# the options every config-reading subcommand takes first, and the model
# flags, each as (option strings, dest)
CONFIG_OPTIONS = [("--config", "config"), ("--out", "out")]
MODEL_OPTIONS = [
    ("--alpha", "model.alpha"), ("--d", "model.d"), ("--grid-L", "grid.L"),
    ("--nx", "grid.nx"), ("--T", "grid.T"), ("--nt", "grid.nt"),
    ("--sigma", "sigma.slope"), ("--levy", "levy.atoms"),
    ("--seed", "run.seed"), ("--replicas", "run.replicas")]


def _flat(value):
    return ([v for item in value for v in _flat(item)]
            if isinstance(value, tuple) else [value])


def _float_keys():
    """A case per SCHEMA key whose parser yields floats: the key and the
    probe text it parses, with each number in turn replaced by nan, inf
    and -inf."""
    cases = []
    for key, (parser, _) in SCHEMA.items():
        for probe in ("0.5", "0.5:0.5"):
            try:
                value = parser(probe)
            except ValueError:
                continue
            if any(isinstance(v, float) for v in _flat(value)):
                parts = probe.split(":")
                texts = [":".join(parts[:i] + [bad] + parts[i + 1:])
                         for i in range(len(parts))
                         for bad in ("nan", "inf", "-inf")]
                cases.append(pytest.param(key, texts, id=key))
            break
    return cases


FLOAT_KEYS = _float_keys()


def run_cli_process(argv):
    """`levyheat <argv>` in a process of its own, stdout and stderr
    captured, outside the test run's warning filters."""
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", "levyheat.cli", *argv], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src + (
            os.pathsep + path if path else "")})


def read_trajectory_header(path):
    """magic, n_t, n_x, dt, dx, seed, replica, config hash"""
    return struct.unpack_from("<4sQQddqQQ", path.read_bytes())


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_text(SMALL_RUN)
        text = cfg.canonical_text()
        cfg2 = ExperimentConfig.from_text(text)
        assert cfg2.canonical_text() == text
        assert cfg2.config_hash() == cfg.config_hash()

    def test_hash_follows_resolved_config(self, monkeypatch):
        import levyheat.config
        default = ExperimentConfig().config_hash()
        assert ExperimentConfig.from_text("model.alpha = 1.5").config_hash() \
            == default
        assert ExperimentConfig.from_text("model.alpha = 1.4").config_hash() \
            != default
        monkeypatch.setattr(levyheat.config, "__version__", "0.0.0")
        assert ExperimentConfig().config_hash() != default

    def test_unknown_key_names_path(self):
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_text("model.banana = 3\n")
        assert "model.banana" in str(err.value)

    def test_bad_type_names_path(self):
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_text("grid.nx = not_a_number\n")
        assert "grid.nx" in str(err.value)

    def test_unknown_aggregator_names_key(self):
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_text(SMALL_RUN + "run.aggregator = median\n")
        assert err.value.key_path == "run.aggregator"
        for name in ("auto", "mom", "mean"):
            cfg = ExperimentConfig.from_text(f"run.aggregator = {name}\n")
            assert cfg.get("run.aggregator") == name

    def test_set_names_key(self):
        cfg = ExperimentConfig.from_text(SMALL_RUN)
        with pytest.raises(ValidationError) as err:
            cfg.set("run.aggregator", "median")
        assert err.value.key_path == "run.aggregator"
        assert "run.aggregator" in str(err.value)

    def test_set_parses_every_value(self):
        cfg = ExperimentConfig()
        with pytest.raises(ValidationError) as err:
            cfg.set("run.blocks", 1)
        assert err.value.key_path == "run.blocks"

    def test_float_keys_cover_every_float_kind(self):
        keys = {case.values[0] for case in FLOAT_KEYS}
        assert {"model.alpha", "model.rho", "sigma.slope", "sigma.table_x",
                "levy.atoms", "constants.k3", "run.p", "scan.eta",
                "renewal.T", "renewal.c3"} <= keys
        assert not keys & {"model.d", "grid.nx", "scan.r", "renewal.weight"}

    @pytest.mark.parametrize("key, texts", FLOAT_KEYS)
    def test_non_finite_float_rejected_naming_key(self, key, texts):
        cfg = ExperimentConfig()
        for text in texts:
            with pytest.raises(ValidationError) as err:
                cfg.set(key, text)
            assert err.value.key_path == key

    def test_scan_r_keeps_its_text(self):
        assert ExperimentConfig.from_text("scan.r = 1.0").config_hash() \
            == ExperimentConfig().config_hash()
        for text in ("subexp", "0.5", "1e-1"):
            cfg = ExperimentConfig.from_text(f"scan.r = {text}")
            assert cfg.get("scan.r") == text
        for text in ("nan", "inf"):
            with pytest.raises(ValidationError) as err:
                ExperimentConfig.from_text(f"scan.r = {text}")
            assert err.value.key_path == "scan.r"

    def test_semantic_violation_caught_at_parse(self):
        bad = SMALL_RUN + "model.rho = 0.5\n"     # d >= alpha would be fine...
        cfg_text = bad.replace("model.alpha = 1.5", "model.alpha = 0.8")
        with pytest.raises(ValidationError):
            ExperimentConfig.from_text(cfg_text)

    @pytest.mark.parametrize("lines, key", [
        ("grid.L = -1", "grid.L"),
        ("grid.T = -1", "grid.T"),
        ("grid.nx = 100", "grid.nx"),
        ("grid.nt = 0", "grid.nt"),
        ("levy.kind = stable", "levy.kind"),
        ("levy.atoms = 0:1", "levy.atoms"),
        ("levy.kind = truncated_power\nlevy.delta_in = 0", "levy.delta_in"),
        ("levy.kind = truncated_power\nlevy.outer = 0.1", "levy.outer"),
        ("levy.kind = truncated_power\nlevy.amplitude = 0",
         "levy.amplitude"),
        (TABLE_SIGMA + "sigma.table_x = 0, 0, 1", "sigma.table_x"),
    ])
    def test_field_error_names_its_key(self, lines, key):
        # the model classes name their field; the config raises the error
        # again under the key the table maps that field to
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_text(lines + "\n")
        assert err.value.key_path == key
        assert str(err.value) == f"{key}: {err.value.message}"

    def test_builds_model_and_grid(self):
        cfg = ExperimentConfig.from_text(SMALL_RUN)
        ms = cfg.build_model()
        grid = cfg.build_grid()
        assert ms.kp.alpha == 1.5
        assert grid.n_x == 64
        assert cfg.get("run.p") == (2.0,)


class TestCLI:
    def test_specfun_eval(self, capsys):
        assert main(["specfun", "eval", "--fn", "gamma", "--x", "5"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(24.0, rel=1e-12)

    def test_specfun_bessel(self, capsys):
        assert main(["specfun", "eval", "--fn", "bessel-k", "--nu", "0.5",
                     "--x", "1"]) == 0
        expect = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert float(capsys.readouterr().out) == pytest.approx(expect, rel=1e-9)

    def test_bounds_worked_example(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(WORKED_BOUNDS)
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "bounds.json").read_text())
        assert payload["reports"][0]["beta0"] == pytest.approx(16.0, rel=1e-8)
        assert payload["assumptions"]
        assert payload["config_hash"]

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--not-a-flag"])
        assert exc.value.code == 2

    def test_validation_error_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("model.banana = 3\n")
        assert main(["bounds", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("key", ["constants.c1_g", "constants.c2_g"])
    def test_derived_envelope_pair_is_no_key(self, tmp_path, capsys, key):
        # kernel.envelope_constants derives the pair; a config still
        # setting it fails as an unknown key
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = 1\n")
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert f"{key}: unknown configuration key" in capsys.readouterr().err
        assert not (tmp_path / "bounds.json").exists()

    def test_missing_config_exits_3(self):
        assert main(["bounds", "--config", "/nonexistent/cfg"]) == 3

    def test_renewal_solve_oracle(self, tmp_path):
        assert main(["renewal", "--c3", "1", "--c4", "1", "--weight", "exp:2,1",
                     "--T", "4", "--dt", "0.001", "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "renewal.csv", delimiter=",", skiprows=2)
        t, f = data[:, 0], data[:, 1]
        assert np.abs(f - (2.0 * np.exp(t) - 1.0)).max() < 1e-6

    def test_renewal_check_failure_exits_1(self, tmp_path):
        series = tmp_path / "series.csv"
        with open(series, "w") as fh:
            fh.write("t,sup_mean,sup_se,inf_mean,inf_se\n")
            for k in range(51):
                t = 0.1 * k
                fh.write(f"{t},2.0,0.01,1.0,0.01\n")
        code = main(["renewal", "--series", str(series), "--c3", "1.0",
                     "--c4", "1.0", "--weight", "exp:2,1",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_bad_flag_value_names_key(self, tmp_path, capsys):
        assert main(["moments", "--levy", "a:1", "--out", str(tmp_path)]) == 3
        assert "levy.atoms" in capsys.readouterr().err

    def test_model_flags_override_schema_keys(self):
        assert set(cli._MODEL_FLAGS.values()) <= set(SCHEMA)

    def test_readme_configuration_names_every_schema_key(self):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ")[0]
        assert [key for key in SCHEMA if key not in section] == []

    @pytest.mark.parametrize("command, flags, lines, key", [
        ("moments", ["--alpha", "abc"], "", "model.alpha"),
        ("moments", ["--jobs", "0"], "", "run.jobs"),
        ("moments", ["--jobs", "-1"], "", "run.jobs"),
        ("moments", [], "run.blocks = 0\n", "run.blocks"),
        ("moments", [], "run.blocks = 1\n", "run.blocks"),
        ("moments", [], "grid.L = -1\n", "grid.L"),
        ("moments", [], "grid.T = -1\n", "grid.T"),
        ("growth-scan", [], "scan.r = fast\n", "scan.r"),
        ("renewal", ["--dt", "0"], "", "renewal.dt"),
        ("renewal", ["--T", "abc"], "", "renewal.T"),
        ("renewal", ["--weight", "exp:1"], "", "renewal.weight"),
        ("renewal", ["--weight", "exp:a,b"], "", "renewal.weight"),
        ("renewal", ["--weight", "exp:1,2,3"], "", "renewal.weight"),
        ("renewal", ["--weight", "exp:-1,1"], "", "renewal.weight"),
        ("renewal", ["--weight", "exp:inf,1"], "", "renewal.weight"),
        ("renewal", ["--weight", "exp:1,nan"], "", "renewal.weight"),
        ("bounds", [], "sigma.slope = nan\n", "sigma.slope"),
        ("bounds", ["--sigma", "inf"], "", "sigma.slope"),
        ("bounds", [], "constants.k3 = nan\n", "constants.k3"),
        ("bounds", ["--levy", "1:nan"], "", "levy.atoms"),
        ("moments", [], "model.rho = nan\n", "model.rho"),
        ("growth-scan", [], "scan.r = -inf\n", "scan.r"),
        ("bounds", [], "run.p =\n", "run.p"),
        ("moments", [], "run.p =\n", "run.p"),
        ("growth-scan", [], "run.p =\n", "run.p"),
        ("renewal", [], "run.p =\n", "run.p"),
        ("growth-scan", [], "scan.eta =\n", "scan.eta"),
        ("moments", [], "run.p = -1\n", "run.p"),
        ("moments", [], "run.p = 0\n", "run.p"),
        ("bounds", [], "run.p = -1\n", "run.p"),
        ("bounds", [], "run.p = 0\n", "run.p"),
    ], ids=["alpha-abc", "jobs-0", "jobs-negative", "blocks-0", "blocks-1",
            "grid-L-negative", "grid-T-negative",
            "scan-r-fast", "renewal-dt-0", "renewal-T-abc",
            "renewal-weight-exp-1", "renewal-weight-exp-a-b",
            "renewal-weight-exp-1-2-3", "renewal-weight-exp-negative-amp",
            "renewal-weight-exp-infinite-amp", "renewal-weight-exp-nan-rate",
            "bounds-slope-nan", "bounds-sigma-flag-inf", "bounds-k3-nan",
            "bounds-levy-flag-nan-mass", "moments-rho-nan",
            "growth-scan-r-negative-inf", "bounds-empty-p", "moments-empty-p",
            "growth-scan-empty-p", "renewal-empty-p",
            "growth-scan-empty-eta", "moments-p-negative", "moments-p-0",
            "bounds-p-negative", "bounds-p-0"])
    def test_bad_run_value_exits_3_naming_key(self, tmp_path, capsys,
                                              command, flags, lines, key):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN + lines)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]
                    + flags) == 3
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("argv, name", [
        (["specfun", "eval", "--fn", "bessel-k", "--nu", "0.5", "--x", "nan"],
         "x"),
        (["specfun", "eval", "--fn", "beta", "--a", "nan"], "a"),
        (["specfun", "eval", "--fn", "gamma", "--x", "nan"], "x"),
        (["specfun", "eval", "--fn", "ml-asymptotic", "--a", "0.5", "--b", "1",
          "--z", "inf"], "z"),
        (["verify-lemmas", "--p", "nan"], "p"),
        (["verify-lemmas", "--alpha", "inf"], "alpha"),
    ], ids=["bessel-k-x-nan", "beta-a-nan", "gamma-x-nan",
            "ml-asymptotic-z-inf", "verify-lemmas-p-nan",
            "verify-lemmas-alpha-inf"])
    def test_non_finite_flag_exits_3_naming_it(self, capsys, monkeypatch,
                                               argv, name):
        # each printed nan and exited 0, or ran the records ahead of the
        # first that checked p; now no record runs
        import levyheat.certify as certify
        monkeypatch.setattr(certify, "check_beta_identity",
                            lambda: pytest.fail("a record ran"))
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert f"validation error: {name}: must lie in" in out.err

    def test_numerical_failure_exits_1_without_traceback(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        assert main(["moments", "--config", str(cfg), "--sigma", "1e9",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "blow-up at step" in err
        assert "Traceback" not in err

    def test_renewal_check_reads_moments_csv(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN.replace("run.p = 2", "run.p = 1.2"))
        assert main(["moments", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        series = tmp_path / "moments_p1.2.csv"
        code = main(["renewal", "--series", str(series), "--weight", "model",
                     "--c3", "0.5", "--c4", "0.3", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code in (0, 1)
        t_in = np.loadtxt(series, delimiter=",", skiprows=2)[:, 0]
        t_out = np.loadtxt(tmp_path / "renewal_check.csv", delimiter=",",
                           skiprows=2)[:, 0]
        assert np.array_equal(t_in, t_out)

    @pytest.mark.parametrize("cfg_lines, flags, expect", [
        ("renewal.c3 = 0.5\nrenewal.c4 = 0.25\n", [], (0.5, 0.25)),
        ("renewal.c3 = 0.5\nrenewal.c4 = 0.25\n", ["--c4", "0.75"],
         (0.5, 0.75)),
        ("renewal.c3 = 0.5\n", [], "renewal.c4"),
        ("renewal.c4 = 0.25\n", [], "renewal.c3"),
    ], ids=["config-both", "flag-over-config", "config-c3-only",
            "config-c4-only"])
    def test_renewal_check_reads_constants_from_config(self, tmp_path, capsys,
                                                       cfg_lines, flags,
                                                       expect):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN + cfg_lines)
        series = tmp_path / "series.csv"
        rows = [f"{0.1 * k},{math.exp(0.2 * k)},0.01,{math.exp(0.1 * k)},0.01"
                for k in range(21)]
        series.write_text("t,sup_mean,sup_se,inf_mean,inf_se\n"
                          + "\n".join(rows) + "\n")
        code = main(["renewal", "--series", str(series), "--config", str(cfg),
                     "--weight", "exp:1,1", "--out", str(tmp_path)] + flags)
        if isinstance(expect, str):
            # a constant set neither by a flag nor the config is an error
            assert code == 3
            assert expect in capsys.readouterr().err
            assert not list(tmp_path.glob("renewal_check.*"))
            return
        assert code in (0, 1)
        got = json.loads((tmp_path / "renewal_check.json").read_text())
        assert (got["c3"], got["c4"]) == expect
        header = (tmp_path / "renewal_check.csv").read_text().splitlines()[0]
        assert f"c3={got['c3']:.17g} c4={got['c4']:.17g}" in header

    def test_renewal_check_exp_weight_ignores_solve_grid(self, tmp_path):
        # the check runs on the series' grid; renewal.T and renewal.dt only
        # reach the `#` line, through the config hash
        series = tmp_path / "series.csv"
        rows = [f"{0.1 * k},{2.0 * math.exp(0.1 * k)},0.01,"
                f"{math.exp(0.1 * k)},0.01" for k in range(51)]
        series.write_text("t,sup_mean,sup_se,inf_mean,inf_se\n"
                          + "\n".join(rows) + "\n")
        outputs = []
        for T, dt in (("10", "0.001"), ("1", "0.001"), ("10", "0.03")):
            out = tmp_path / f"T{T}-dt{dt}"
            assert main(["renewal", "--series", str(series), "--c3", "1",
                         "--c4", "0.05", "--weight", "exp:1,1", "--T", T,
                         "--dt", dt, "--out", str(out)]) == 0
            got = json.loads((out / "renewal_check.json").read_text())
            del got["config_hash"]
            outputs.append(((out / "renewal_check.csv").read_text()
                            .splitlines()[1:], got))
        assert outputs[1] == outputs[0] == outputs[2]

    def test_renewal_series_must_start_at_zero(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("t,sup_mean,sup_se,inf_mean,inf_se\n" + "".join(
            f"{0.1 * k},2,0.01,1,0.01\n" for k in range(5, 51)))
        assert main(["renewal", "--series", str(series), "--c3", "1",
                     "--c4", "1", "--weight", "exp:1,1",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "series times must start at 0" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("renewal_check.*"))

    def test_renewal_solve_defaults_constants_missing_from_config(
            self, tmp_path):
        # a config that sets neither renewal.c3 nor renewal.c4 leaves both
        # at 1.0, as the flags-only call does
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        args = ["renewal", "--weight", "exp:2,1", "--T", "1", "--dt", "0.01"]
        assert main(args + ["--config", str(cfg),
                            "--out", str(tmp_path / "cfg_run")]) == 0
        assert main(args + ["--out", str(tmp_path / "flags_run")]) == 0
        with_cfg = (tmp_path / "cfg_run" / "renewal.csv").read_text()
        flags = (tmp_path / "flags_run" / "renewal.csv").read_text()
        assert " c3=1 c4=1 " in with_cfg.splitlines()[0]
        assert with_cfg.splitlines()[1:] == flags.splitlines()[1:]

    @pytest.mark.parametrize("flag, text, key", [
        ("--series", "t,sup_mean,sup_se,inf_mean,inf_se\n", "renewal.series"),
        ("--series", "t,inf_mean\n0,1\n0.1,1.5\n0.2,2\n", "renewal.series"),
        ("--weight", "t\n0\n0.5\n1\n", "renewal.weight"),
        ("--series", "t,sup_mean,sup_se,inf_mean,inf_se\n"
         + "".join(f"{0.1 * k},2,0.01,1,0.01\n" for k in range(2)),
         "renewal.series"),
        ("--series", "t,sup_mean,sup_se,inf_mean,inf_se\n"
         + "".join(f"{0.1 * k},2,0.01,1,0.01\n" for k in range(8)),
         "renewal.series"),
        ("--weight", "t,w\n0,1\n0.5,-0.1\n1,0.5\n", "renewal.weight"),
        ("--weight", "t,w\n0,1\n1,0.5\n0.5,0.8\n", "renewal.weight"),
        ("--weight", "t,w\n0,1\n0.5,0.8\n0.5,0.7\n", "renewal.weight"),
        ("--weight", "t,w\n0,1\n0.5,nan\n1,0.5\n", "renewal.weight"),
        ("--series", "t,sup_mean,sup_se,inf_mean,inf_se\n"
         + "".join(f"{0.1 * k},2,0.01,{'nan' if k == 4 else 1},0.01\n"
                   for k in range(9)), "renewal.series"),
        ("--series", "t,sup_mean,sup_se,inf_mean,inf_se\n"
         + "".join(f"{0.1 * k},{'inf' if k == 8 else 2},0.01,1,0.01\n"
                   for k in range(9)), "renewal.series"),
    ], ids=["header-only-series", "two-column-series", "one-column-weight",
            "two-row-series", "eight-row-series", "negative-weight",
            "unsorted-weight", "repeated-time-weight", "nan-weight",
            "nan-series", "inf-series"])
    def test_short_renewal_csv_exits_3(self, tmp_path, capsys, flag, text,
                                       key):
        path = tmp_path / "input.csv"
        path.write_text("# levyheat test input\n" + text)
        assert main(["renewal", flag, str(path), "--c3", "1", "--c4", "1",
                     "--T", "1", "--dt", "0.1", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["input.csv"]

    def test_renewal_check_json_is_stamped(self, tmp_path):
        series = tmp_path / "series.csv"
        rows = [f"{0.1 * k},{math.exp(0.2 * k)},0.01,{math.exp(0.1 * k)},0.01"
                for k in range(9)]
        series.write_text("t,sup_mean,sup_se,inf_mean,inf_se\n"
                          + "\n".join(rows) + "\n")
        assert main(["renewal", "--series", str(series), "--c3", "1",
                     "--c4", "1", "--weight", "exp:1,1",
                     "--out", str(tmp_path)]) in (0, 1)
        got = json.loads((tmp_path / "renewal_check.json").read_text())
        assert got["config_hash"] == ExperimentConfig.from_text(
            "renewal.c3 = 1\nrenewal.c4 = 1\nrenewal.weight = exp:1,1"
        ).config_hash()
        assert got["assumptions"] == \
            ExperimentConfig().build_constants().assumptions()

    @pytest.mark.parametrize("command, options", [
        ("verify-lemmas", [("--alpha", "alpha"), ("--d", "d"), ("--p", "p"),
                           ("--fast", "fast"), ("--out", "out")]),
        ("bounds", [*CONFIG_OPTIONS, *MODEL_OPTIONS]),
        ("simulate", [*CONFIG_OPTIONS, *MODEL_OPTIONS, ("--csv", "csv")]),
        ("moments", [*CONFIG_OPTIONS, ("--jobs", "run.jobs"),
                     *MODEL_OPTIONS]),
        ("growth-scan", [*CONFIG_OPTIONS, ("--jobs", "run.jobs"),
                         *MODEL_OPTIONS]),
        ("renewal", [*CONFIG_OPTIONS, ("--c3", "renewal.c3"),
                     ("--c4", "renewal.c4"), ("--T", "renewal.T"),
                     ("--dt", "renewal.dt"), ("--weight", "renewal.weight"),
                     ("--series", "series")]),
        ("specfun", [("action", "action"), ("--fn", "fn"), ("--a", "a"),
                     ("--b", "b"), ("--nu", "nu"), ("--x", "x"),
                     ("--z", "z")])])
    def test_subcommand_options(self, command, options):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == [
            "verify-lemmas", "bounds", "simulate", "moments", "growth-scan",
            "renewal", "specfun"]
        got = [(" ".join(a.option_strings) or a.dest, a.dest)
               for a in subparsers.choices[command]._actions]
        assert got == [("-h --help", "help"), *options]

    def test_every_dotted_dest_is_a_schema_key(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for sub in subparsers.choices.values()
                 for a in sub._actions if "." in a.dest}
        assert {"renewal.T", "renewal.dt", "renewal.weight"} <= dests
        assert dests <= set(SCHEMA)

    def test_renewal_hash_covers_flags(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        headers = []
        for T in ("1", "2"):
            out = tmp_path / T
            assert main(["renewal", "--config", str(cfg), "--weight",
                         "exp:1,1", "--T", T, "--dt", "0.01",
                         "--out", str(out)]) == 0
            headers.append((out / "renewal.csv").read_text().split()[2])
        assert headers[0].startswith("config_hash=")
        assert headers[0] != headers[1]

    def test_renewal_flag_only_run_records_its_weight(self, tmp_path):
        assert main(["renewal", "--T", "1", "--dt", "0.01",
                     "--out", str(tmp_path)]) == 0
        header = (tmp_path / "renewal.csv").read_text().split()[2]
        cfg = ExperimentConfig.from_text(
            "renewal.T = 1\nrenewal.dt = 0.01\nrenewal.weight = exp:1,1")
        assert header == f"config_hash={cfg.config_hash()}"

    def test_renewal_model_weight_without_config(self, tmp_path):
        assert main(["renewal", "--weight", "model", "--T", "1", "--dt",
                     "0.01", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "renewal.csv").exists()

    @pytest.mark.parametrize("weight,roots", [
        ("model", ("57.24700", "89.88333")),
        ("exp:1,1", ("none", "none")),
    ])
    def test_renewal_header_has_both_roots(self, tmp_path, weight, roots):
        # the base grid's and the dt/2 grid's growth roots, side by side
        assert main(["renewal", "--weight", weight, "--T", "1", "--dt",
                     "0.01", "--out", str(tmp_path)]) == 0
        header = (tmp_path / "renewal.csv").read_text().splitlines()[0]
        got = re.search(r" beta1=(\S+) beta1_half=(\S+)$", header).groups()
        assert tuple(g[:len(r)] for g, r in zip(got, roots)) == roots

    def test_renewal_overflow_exits_1(self, tmp_path, capsys):
        # the default model weight, c3 = c4 = 1, T = 10, dt = 1e-3 grows
        # past the double range
        cfg = tmp_path / "cfg"
        cfg.write_text("model.alpha = 1.5\n")
        out = tmp_path / "out"
        assert main(["renewal", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (out / "renewal.csv").exists()

    def test_renewal_bad_flag_without_config_exits_3(self, tmp_path, capsys):
        assert main(["renewal", "--dt", "0", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "renewal.dt" in err
        assert "Traceback" not in err

    def test_moments_csv_format(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN + f"run.outdir = {tmp_path}\n")
        assert main(["moments", "--config", str(cfg)]) == 0
        path = tmp_path / "moments_p2.csv"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# levyheat=")
        assert "config_hash=" in lines[0]
        assert lines[1] == "t,sup_mean,sup_se,inf_mean,inf_se"
        assert len(lines) == 2 + 51

    def test_moments_header_flags_admissibility(self, tmp_path):
        # alpha = 1.5, d = 1: moments are finite for p < 2.5 only
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN.replace("run.p = 2", "run.p = 2, 2.5"))
        assert main(["moments", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        for name, flag in (("moments_p2.csv", "True"),
                           ("moments_p2.5.csv", "False")):
            header = (tmp_path / name).read_text().splitlines()[0].split()
            assert f"admissible={flag}" in header
            assert header.index(f"admissible={flag}") == \
                header.index("aggregator=mom") + 1

    def test_moments_header_flags_finite_variance(self, tmp_path):
        # alpha = 1.5, d = 1: Var(|X|^p) is finite for p < 1.25 only
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN.replace("run.p = 2", "run.p = 1.2, 2"))
        assert main(["moments", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        for name, flag in (("moments_p1.2.csv", "True"),
                           ("moments_p2.csv", "False")):
            header = (tmp_path / name).read_text().splitlines()[0].split()
            assert header.index(f"variance_finite={flag}") == \
                header.index("admissible=True") + 1

    def test_moments_unknown_aggregator_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN + "run.aggregator = median\n")
        out = tmp_path / "out"
        assert main(["moments", "--config", str(cfg), "--out", str(out)]) == 3
        assert not list(tmp_path.rglob("*.csv"))

    def test_moments_one_pass_matches_single_p_runs(self, tmp_path):
        # the config hash covers run.p, so it is the one token that differs
        def without_hash(path):
            lines = path.read_bytes().split(b"\n")
            lines[0] = b" ".join(tok for tok in lines[0].split()
                                 if not tok.startswith(b"config_hash="))
            return lines

        runs = {"both": "1.2, 2", "p1.2": "1.2", "p2": "2"}
        for name, ps in runs.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(SMALL_RUN.replace("run.p = 2", f"run.p = {ps}"))
            assert main(["moments", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        for p in ("1.2", "2"):
            both = without_hash(tmp_path / "both" / f"moments_p{p}.csv")
            single = without_hash(tmp_path / f"p{p}" / f"moments_p{p}.csv")
            assert len(both) == 2 + 51 + 1
            assert both == single

    def test_simulate_and_growth_scan(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN.replace("run.replicas = 6",
                                         "run.replicas = 2"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "sim")]) == 0
        assert (tmp_path / "sim" / "trajectory_r0000.bin").exists()
        assert main(["growth-scan", "--config", str(cfg.resolve()),
                     "--replicas", "4", "--out", str(tmp_path / "scan")]) == 0
        lines = (tmp_path / "scan" / "growth_scan.csv").read_text().splitlines()
        assert lines[1] == "eta,t,value,empty_flag"

    def test_growth_scan_subexp_at_p_two(self, tmp_path):
        # r* = 1 at p = 2, so the scan's rows are those of scan.r = 1
        rows = {}
        for r in ("subexp", "1"):
            cfg = tmp_path / f"cfg_{r}"
            cfg.write_text(SMALL_RUN + f"scan.r = {r}\n")
            assert main(["growth-scan", "--config", str(cfg),
                         "--out", str(tmp_path / r)]) == 0
            text = (tmp_path / r / "growth_scan.csv").read_text()
            rows[r] = text.splitlines()[1:]
        assert len(rows["1"]) == 1 + 2 * 51
        assert rows["subexp"] == rows["1"]

    def test_moments_warns_on_uncontained_grid(self, tmp_path):
        # L = 2 < 4 T^(1/alpha) = 4; moments writes no JSON, so the
        # warning reaches stderr
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        for flags, warned in ((["--grid-L", "2"], True), ([], False)):
            done = run_cli_process(["moments", "--config", str(cfg),
                                    "--out", str(tmp_path)] + flags)
            assert done.returncode == 0
            assert ("wrap-around bias may be significant" in done.stderr) \
                == warned

    def test_trajectory_header_carries_config_hash(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        assert main(["simulate", "--config", str(cfg), "--replicas", "1",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "simulate.json").read_text())
        header = read_trajectory_header(tmp_path / "trajectory_r0000.bin")
        assert header[:4] == (b"LVHT", 50, 64, 0.02)
        assert header[5:] == (77, 0, int(payload["config_hash"], 16))

    @pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["bin", "csv"])
    def test_simulate_manifest_independent_of_outdir(self, tmp_path, fmt):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        for out in ("a", "deeper/b"):
            assert main(["simulate", "--config", str(cfg), "--replicas", "2",
                         "--out", str(tmp_path / out)] + fmt) == 0
        manifest = (tmp_path / "a" / "simulate.json").read_bytes()
        assert manifest == (tmp_path / "deeper" / "b" / "simulate.json").read_bytes()
        files = json.loads(manifest)["files"]
        assert files == [f"trajectory_r000{r}.{'csv' if fmt else 'bin'}"
                         for r in range(2)]
        assert all((tmp_path / "a" / name).exists() for name in files)

    @pytest.mark.parametrize("flags, expect", [
        ([], []),
        (["--grid-L", "1"], ["domain half-width below 4 T^(1/alpha); "
                             "wrap-around bias may be significant"]),
    ], ids=["contained", "wrap-around"])
    def test_simulate_json_records_warnings(self, tmp_path, flags, expect):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        assert main(["simulate", "--config", str(cfg), "--replicas", "2",
                     "--out", str(tmp_path)] + flags) == 0
        payload = json.loads((tmp_path / "simulate.json").read_text())
        assert payload["warnings"] == expect
        # the wrap-around diagnostic of the kernel the replicas stepped with
        grid = ExperimentConfig.from_text(
            SMALL_RUN + ("grid.L = 1\n" if flags else "")).build_grid()
        dk = build_discrete_kernel(KernelParams(d=1, alpha=1.5), grid, grid.dt)
        assert math.isfinite(payload["image_mass"])
        assert 0.0 < payload["image_mass"] < 1.0
        assert payload["image_mass"] == dk.image_mass

    def test_simulate_blowup_reports_its_warnings(self, tmp_path, capsys):
        # sigma = 1e308 overflows the first injection; the run exits 1 with
        # no simulate.json, so the warnings that explain it go to stderr
        assert main(["simulate", "--sigma", "1e308", "--nx", "64", "--nt",
                     "10", "--T", "0.5", "--grid-L", "8", "--replicas", "1",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert "warning: overflow encountered in divide" in err
        assert err[-1].startswith("error: field blow-up")
        assert len(err) == len(set(err))
        assert not (tmp_path / "simulate.json").exists()

    def test_trajectory_csv_carries_config_hash(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        assert main(["simulate", "--config", str(cfg), "--replicas", "1",
                     "--csv", "--out", str(tmp_path)]) == 0
        tag = json.loads((tmp_path / "simulate.json").read_text())["config_hash"]
        lines = (tmp_path / "trajectory_r0000.csv").read_text().splitlines()
        assert lines[0].startswith("# levyheat=")
        assert f" config_hash={tag} " in lines[0]
        assert lines[0].endswith(" seed=77 replica=0")
        assert lines[1] == "t,x,X"
        assert len(lines) == 2 + 51 * 64

    def test_simulate_negative_seed(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        assert main(["simulate", "--config", str(cfg), "--replicas", "1",
                     "--seed", "-1", "--out", str(tmp_path)]) == 0
        assert read_trajectory_header(tmp_path / "trajectory_r0000.bin")[5] == -1

    def test_table_sigma_bounds_derive_lipschitz_data(self, tmp_path):
        # slope-2 table: beta0 of the linear slope-2 model; sigma is held
        # flat beyond the table, so L_sigma,0 = 0 and no exponential bound
        cfg = tmp_path / "cfg"
        cfg.write_text(TABLE_SIGMA)
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())["reports"][0]
        assert report["beta0"] == pytest.approx(314998283.5, rel=1e-9)
        assert report["growth_lower_exp"] is None

    @pytest.mark.parametrize("line, key", [
        ("sigma.lip = 0.5", "sigma.lip"),
        ("sigma.table_x = 1, 0, -1", "sigma.table_x")])
    def test_table_sigma_rejects(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "cfg"
        cfg.write_text(TABLE_SIGMA + line + "\n")
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "bounds.json").exists()

    @pytest.mark.parametrize("text, flags, key", [
        ("sigma.intercept = 0.5", [], "sigma.intercept"),
        ("sigma.table_y = 0, 1", [], "sigma.table_y"),
        ("sigma.kind = affine\nsigma.table_x = 0, 1", [], "sigma.table_x"),
        (TABLE_SIGMA + "sigma.slope = 7", [], "sigma.slope"),
        (TABLE_SIGMA + "sigma.intercept = 0.5", [], "sigma.intercept"),
        (TABLE_SIGMA, ["--sigma", "7"], "sigma.slope")],
        ids=["linear-intercept", "linear-table_y", "affine-table_x",
             "table-slope", "table-intercept", "table-flag"])
    def test_sigma_field_the_kind_does_not_read_rejects(self, tmp_path, capsys,
                                                        text, flags, key):
        # a linear sigma with an intercept would certify L_sigma,0 = 1 for a
        # coefficient whose sigma(0) is 0.5
        cfg = tmp_path / "cfg"
        cfg.write_text(text + "\n")
        assert main(["bounds", "--config", str(cfg), *flags,
                     "--out", str(tmp_path)]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "bounds.json").exists()

    @pytest.mark.parametrize("text, flags, key", [
        ("u0.c0 = 2", [], "u0.c0"),
        ("u0.decay_c = 0.5", [], "u0.decay_c"),
        ("u0.kind = poly_decay\nu0.value = 2", [], "u0.value"),
        ("levy.gamma = 0.7", [], "levy.gamma"),
        ("levy.delta_in = 0.2", [], "levy.delta_in"),
        ("levy.outer = 2", [], "levy.outer"),
        ("levy.amplitude = 3", [], "levy.amplitude"),
        ("levy.kind = truncated_power\nlevy.atoms = 2:1", [], "levy.atoms"),
        ("levy.kind = truncated_power", ["--levy", "2:1"], "levy.atoms")],
        ids=["constant-c0", "constant-decay_c", "poly_decay-value",
             "atoms-gamma", "atoms-delta_in", "atoms-outer", "atoms-amplitude",
             "truncated_power-atoms", "truncated_power-flag"])
    def test_u0_levy_field_the_kind_does_not_read_rejects(
            self, tmp_path, capsys, text, flags, key):
        # accepted, such a key would change the config hash and nothing else
        cfg = tmp_path / "cfg"
        cfg.write_text(text + "\n")
        assert main(["bounds", "--config", str(cfg), *flags,
                     "--out", str(tmp_path)]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "bounds.json").exists()

    def test_fields_the_kind_reads_accepted(self):
        # the defaults, each kind with the fields it reads, and the
        # benchmark's reference model
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(__file__).resolve().parents[1]
            / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for text in ("", workloads.MODEL_CONFIG,
                     "u0.kind = constant\nu0.value = 2\n",
                     "u0.kind = poly_decay\nu0.c0 = 2\nu0.decay_c = 0.5\n",
                     "levy.kind = atoms\nlevy.atoms = 2:1, -1:3\n",
                     "levy.kind = truncated_power\nlevy.gamma = 0.7\n"
                     "levy.delta_in = 0.2\nlevy.outer = 2\n"
                     "levy.amplitude = 3\n"):
            ExperimentConfig.from_text(text).build_model()

    def test_verify_lemmas_fast(self, tmp_path):
        out = tmp_path / "lemmas.json"
        assert main(["verify-lemmas", "--alpha", "1.0", "--d", "1",
                     "--fast", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_pass"] is True

    def test_json_artifacts_are_standard_json(self, tmp_path, capsys):
        # every JSON file of an AC-11-style replay parses with NaN and
        # Infinity rejected; verify-lemmas at alpha = 1.5 has two exact
        # identities (slack tol / 0), whose slack is null
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        for argv in (["growth-scan", "--config", str(cfg)],
                     ["bounds", "--config", str(cfg)],
                     ["simulate", "--config", str(cfg)]):
            assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        series = tmp_path / "series.csv"
        series.write_text("t,sup_mean,sup_se,inf_mean,inf_se\n" + "".join(
            f"{0.1 * k},{math.exp(0.2 * k)},0.01,{math.exp(0.1 * k)},0.01\n"
            for k in range(9)))
        assert main(["renewal", "--series", str(series), "--c3", "1",
                     "--c4", "0.1", "--weight", "exp:1,1",
                     "--out", str(tmp_path / "renewal")]) in (0, 1)
        lemmas = tmp_path / "lemmas.json"
        assert main(["verify-lemmas", "--alpha", "1.5", "--fast",
                     "--out", str(lemmas)]) == 0
        assert "(worst slack inf)" in capsys.readouterr().err

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        paths = sorted(tmp_path.rglob("*.json"))
        assert len(paths) == 5
        for path in paths:
            json.loads(path.read_text(), parse_constant=reject)
        slacks = [r["worst_slack"] for r in json.loads(
            lemmas.read_text())["records"]]
        assert slacks.count(None) == 2

    @pytest.mark.parametrize("flag", [["--alpha", "0"], ["--d", "0"]])
    def test_verify_lemmas_zero_is_rejected(self, tmp_path, flag):
        # a zero flag value is passed through, not replaced by the default
        out = tmp_path / "lemmas.json"
        assert main(["verify-lemmas", *flag, "--fast", "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bounds", "simulate", "renewal"])
    def test_jobs_flag_only_on_replica_commands(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["moments", "growth-scan"])
    def test_jobs_read_from_resolved_config(self, tmp_path, monkeypatch,
                                            command):
        import levyheat.cli as cli
        seen = []
        real = cli.simulate_moments

        def spy(*args, **kw):
            seen.append(kw["jobs"])
            return real(*args, **{**kw, "jobs": 1})
        monkeypatch.setattr(cli, "simulate_moments", spy)
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN + "run.jobs = 2\n")
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
        assert main([command, "--config", str(cfg), "--jobs", "3",
                     "--out", str(tmp_path / "b")]) == 0
        assert seen == [2, 3]

    def test_data_rows_independent_of_jobs(self, tmp_path):
        # p = 1.2 takes the mean, p = 2 the median of means; the # lines
        # differ, since run.jobs is part of the config hash
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN.replace("run.p = 2", "run.p = 1.2, 2"))
        runs = {}
        for jobs in ("1", "2", "3"):
            out = tmp_path / jobs
            assert main(["moments", "--config", str(cfg), "--jobs", jobs,
                         "--out", str(out)]) == 0
            runs[jobs] = [(out / f"moments_p{p}.csv").read_bytes()
                          .splitlines(keepends=True) for p in ("1.2", "2")]
        for jobs in ("2", "3"):
            for want, got in zip(runs["1"], runs[jobs]):
                assert got != want
                assert [line for line in got if not line.startswith(b"#")] \
                    == [line for line in want if not line.startswith(b"#")]

    def test_threaded_blowup_exits_with_one_error(self, tmp_path):
        # seed 76: replicas 0-2 blow up first at step 1, replicas 3-5 at
        # step 2, so the second chunk waits on the first when it raises.
        # In a process of its own, so that a chunk left waiting would hang
        # the run until the timeout fails the test
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        done = run_cli_process(["moments", "--config", str(cfg), "--sigma",
                                "1e9", "--seed", "76", "--jobs", "2",
                                "--out", str(tmp_path)])
        assert done.returncode == 1
        errors = [line for line in done.stderr.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "blow-up at step 1," in errors[0]
        assert not list(tmp_path.glob("moments_*.csv"))

    def test_replay_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["moments", "--config", str(cfg),
                         "--out", str(out)]) == 0
        b1 = (out1 / "moments_p2.csv").read_bytes()
        b2 = (out2 / "moments_p2.csv").read_bytes()
        assert b1 == b2


EDGE_VALUES = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0, 7, -3,
               2 ** 60 + 1, np.float64(0.1), np.float64(-2.5e-300)]


def test_csv_rows_format_as_fmt(tmp_path):
    # each row is one %-format; the bytes are those of _fmt per value
    rows = [EDGE_VALUES[i:i + 3] for i in range(0, len(EDGE_VALUES), 3)]
    cli._write_csv(tmp_path / "edge.csv", ExperimentConfig(), "", "a,b,c",
                   rows)
    lines = (tmp_path / "edge.csv").read_text().splitlines()
    assert lines[2:] == [",".join(f"{float(v):.17g}" for v in row)
                         for row in rows]
