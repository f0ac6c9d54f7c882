import json
import math
from pathlib import Path

import numpy as np
import pytest

from levyheat.cli import main
from levyheat.config import ExperimentConfig
from levyheat.errors import ValidationError

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

    def test_semantic_violation_caught_at_parse(self):
        bad = SMALL_RUN + "model.rho = 0.5\n"     # d >= alpha would be fine...
        cfg_text = bad.replace("model.alpha = 1.5", "model.alpha = 0.8")
        with pytest.raises(ValidationError):
            ExperimentConfig.from_text(cfg_text)

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

    def test_verify_lemmas_fast(self, tmp_path):
        out = tmp_path / "lemmas.json"
        assert main(["verify-lemmas", "--alpha", "1.0", "--d", "1",
                     "--fast", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_pass"] is True

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
