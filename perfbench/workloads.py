"""Benchmark workloads: inputs made from the seed, the operation one
repetition runs, the reduced cold call that measures set-up, and the
correctness checks on each repetition's outputs.

Every workload runs the reference model of the acceptance suite:
alpha = 1.5, atoms at +-1 with mass 1, sigma(x) = x, u0 = 1, on the
256 x 500 grid over [-32, 32) x [0, 5].  Check functions take plain outputs
(text and lists) so they can be exercised on corrupted outputs in tests.
"""

import contextlib
import hashlib
import io
import json
import math
import warnings
from pathlib import Path

# reference model and grid, as in the acceptance suite
MODEL_CONFIG = """\
model.d = 1
model.alpha = 1.5
model.rho = 0
levy.kind = atoms
levy.atoms = 1:1, -1:1
sigma.kind = linear
sigma.slope = 1
u0.kind = constant
u0.value = 1
grid.L = 32
grid.nx = 256
grid.T = 5
grid.nt = 500
run.p = 2
run.aggregator = auto
run.jobs = 1
"""

MC_REPLICAS = 200
PICARD = {"replicas": 32, "n_iter": 5, "c": 0.0, "p": 2.0,
          "target_ratio": 0.7}
LEMMA_RECORDS = 14
RENEWAL_TOL = 1e-6
BETA1_TOL = 1e-4


def derived_seed(workload: str, seed: int) -> int:
    """The program's seed for one harness seed: a stable 31-bit hash."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _cli(argv) -> int:
    """`levyheat <argv>` in-process, its stdout and stderr captured."""
    from levyheat.cli import main
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def _data_rows(csv_text: str) -> list:
    """Numeric rows of a levyheat CSV: comment lines and the column header
    line are skipped."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _header_field(csv_text: str, key: str):
    for token in csv_text.splitlines()[0].split():
        if token.startswith(key + "="):
            return token[len(key) + 1:]
    return None


# ---------------------------------------------------------------------------
# mc-reference: `levyheat moments` in-process


class McReference:
    name = "mc-reference"
    replica_steps = MC_REPLICAS * 500
    replicas_sampled = MC_REPLICAS

    def prepare(self, seed: int, workdir: Path) -> dict:
        prog_seed = derived_seed(self.name, seed)
        cfg = workdir / "mc.cfg"
        cfg.write_text(MODEL_CONFIG + f"run.seed = {prog_seed}\n"
                       f"run.replicas = {MC_REPLICAS}\n")
        probe = workdir / "mc_probe.cfg"
        probe.write_text(MODEL_CONFIG + f"run.seed = {prog_seed}\n"
                         "run.replicas = 2\n")
        return {"config": str(cfg), "probe_config": str(probe),
                "program_seed": prog_seed, "workdir": str(workdir)}

    def probe(self, inputs: dict) -> None:
        # timing only: the repetitions' checks judge the output
        _cli(["moments", "--config", inputs["probe_config"], "--jobs", 1,
              "--out", Path(inputs["workdir"]) / "probe"])

    def run(self, inputs: dict, outdir: Path) -> dict:
        code = _cli(["moments", "--config", inputs["config"], "--jobs", 1,
                     "--out", outdir])
        path = outdir / "moments_p2.csv"
        return {"exit_code": code,
                "csv": path.read_text() if path.exists() else ""}

    def check(self, out: dict, reference: dict | None) -> dict:
        return check_moments(out["exit_code"], out["csv"],
                             None if reference is None else reference["csv"])

    def info(self, out: dict) -> dict:
        """AC-7's lower-slope fit, reported as a value: it depends on the seed."""
        import numpy as np
        from levyheat.estimator import MomentSeries, lyapunov_fit
        rows = np.array(_data_rows(out["csv"]))
        series = MomentSeries(times=rows[:, 0], sup_mean=rows[:, 1],
                              sup_se=rows[:, 2], inf_mean=rows[:, 3],
                              inf_se=rows[:, 4], p=2.0, replicas=MC_REPLICAS)
        low = lyapunov_fit(series).lower
        return {"ac7_lower_slope": low.slope,
                "ac7_lower_ci": [low.ci_low, low.ci_high]}


def check_moments(exit_code: int, csv_text: str,
                  reference_csv: str | None) -> dict:
    """Checks on one `moments` output; `reference_csv` is the first
    repetition's output (None for the first repetition itself)."""
    try:
        rows = _data_rows(csv_text)
    except ValueError:
        rows = []
    checks = {
        "exit_code_zero": exit_code == 0,
        "t0_row_is_one": bool(rows) and rows[0][0] == 0.0
        and rows[0][1] == 1.0 and rows[0][3] == 1.0,
        "sup_ge_inf": bool(rows) and all(r[1] >= r[3] for r in rows),
        "all_finite": bool(rows) and all(len(r) == 5 for r in rows)
        and all(math.isfinite(v) for r in rows for v in r),
    }
    if reference_csv is not None:
        checks["replay_identical"] = csv_text == reference_csv
    return checks


# ---------------------------------------------------------------------------
# picard-reference: solver.picard_solve with the contraction settings


class PicardReference:
    name = "picard-reference"
    replica_steps = PICARD["replicas"] * 500 * PICARD["n_iter"]
    replicas_sampled = PICARD["replicas"]

    def __init__(self):
        # model, grid and beta, built by the first (cold) call
        self._model_cache = None

    def prepare(self, seed: int, workdir: Path) -> dict:
        prog_seed = derived_seed(self.name, seed)
        cfg = workdir / "picard.cfg"
        cfg.write_text(MODEL_CONFIG + f"run.seed = {prog_seed}\n"
                       f"run.replicas = {PICARD['replicas']}\n")
        return {"config": str(cfg), "program_seed": prog_seed,
                "workdir": str(workdir)}

    def _model(self, inputs: dict):
        from levyheat.analytics import compute_bounds
        from levyheat.config import ExperimentConfig
        cfg = ExperimentConfig.from_file(inputs["config"])
        ms, grid = cfg.build_model(), cfg.build_grid()
        beta = 2.0 * compute_bounds(ms, PICARD["c"], PICARD["p"]).beta0
        return ms, grid, cfg.get("run.seed"), cfg.get("run.replicas"), beta

    def _solve(self, inputs: dict, probe: bool):
        from levyheat.solver import picard_solve
        if self._model_cache is None:
            self._model_cache = self._model(inputs)
        ms, grid, seed, replicas, beta = self._model_cache
        replicas, n_iter = (2, 2) if probe else (replicas, PICARD["n_iter"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return picard_solve(ms, grid, seed, replicas, n_iter, beta,
                                PICARD["c"], PICARD["p"],
                                PICARD["target_ratio"])

    def probe(self, inputs: dict) -> None:
        try:
            self._solve(inputs, probe=True)
        except (RuntimeError, ValueError):   # judged by the repetitions' checks
            pass

    def run(self, inputs: dict, outdir: Path) -> dict:
        try:
            rep = self._solve(inputs, probe=False)
        except (RuntimeError, ValueError) as exc:    # blow-up, domain error
            return {"contraction_ok": False, "log_d": [], "rel_se": [],
                    "error": repr(exc)}
        return {"contraction_ok": bool(rep.contraction_ok),
                "log_d": [float(v) for v in rep.log_d],
                "rel_se": [float(v) for v in rep.rel_se]}

    def check(self, out: dict, reference: dict | None) -> dict:
        return check_picard(out, reference)

    def info(self, out: dict) -> dict:
        return {"log_d": out["log_d"]}


def check_picard(out: dict, reference: dict | None) -> dict:
    log_d = out["log_d"]
    checks = {
        "contraction_ok": out["contraction_ok"] is True,
        "log_d_finite": bool(log_d) and all(math.isfinite(v) for v in log_d),
        "log_d_decreasing": len(log_d) >= 2
        and all(b < a for a, b in zip(log_d, log_d[1:])),
    }
    if reference is not None:
        checks["replay_identical"] = out == reference
    return checks


# ---------------------------------------------------------------------------
# certify-renewal: the certificate suite and the two renewal oracles


RENEWAL_ARGS = ["renewal", "--c3", 1, "--c4", 1, "--T", 10, "--dt", 0.001]


class CertifyRenewal:
    name = "certify-renewal"
    replica_steps = 0
    replicas_sampled = 0

    def prepare(self, seed: int, workdir: Path) -> dict:
        # nothing here is random: the seed only names the run
        return {"workdir": str(workdir)}

    def probe(self, inputs: dict) -> None:
        _cli(["renewal", "--c3", 1, "--c4", 1, "--T", 0.1, "--dt", 0.001,
              "--weight", "exp:1,1", "--out", Path(inputs["workdir"]) / "probe"])

    def run(self, inputs: dict, outdir: Path) -> dict:
        lemmas = outdir / "lemmas.json"
        codes = [_cli(["verify-lemmas", "--alpha", 1.5, "--p", 1.2,
                       "--out", lemmas]),
                 _cli(RENEWAL_ARGS + ["--weight", "exp:1,1",
                                      "--out", outdir / "exp11"]),
                 _cli(RENEWAL_ARGS + ["--weight", "exp:2,1",
                                      "--out", outdir / "exp21"])]
        texts = {}
        for key, path in (("lemmas", lemmas),
                          ("exp11", outdir / "exp11" / "renewal.csv"),
                          ("exp21", outdir / "exp21" / "renewal.csv")):
            texts[key] = path.read_text() if path.exists() else ""
        return {"exit_codes": codes, **texts}

    def check(self, out: dict, reference: dict | None) -> dict:
        return check_certify(out, reference)

    def info(self, out: dict) -> dict:
        return {"lemma_records": lemma_counts(out["lemmas"])}


def lemma_counts(lemmas_text: str) -> dict:
    """Number of certificate records and of failed ones."""
    try:
        records = json.loads(lemmas_text)["records"]
    except (ValueError, KeyError, TypeError):
        return {"records": 0, "failed": 0}
    return {"records": len(records),
            "failed": sum(r.get("status") != "pass" for r in records)}


def _renewal_error(csv_text: str, exact) -> float:
    try:
        rows = _data_rows(csv_text)
    except ValueError:
        return math.inf
    if not rows:
        return math.inf
    return max(abs(r[1] - exact(r[0])) for r in rows)


def check_certify(out: dict, reference: dict | None) -> dict:
    counts = lemma_counts(out["lemmas"])
    try:
        all_pass = json.loads(out["lemmas"])["all_pass"] is True
    except (ValueError, KeyError, TypeError):
        all_pass = False
    beta1_11 = _header_field(out["exp11"], "beta1") if out["exp11"] else None
    beta1_21 = _header_field(out["exp21"], "beta1") if out["exp21"] else None
    try:
        beta1 = float(beta1_21)
    except (TypeError, ValueError):
        beta1 = math.nan
    checks = {
        "exit_codes_zero": out["exit_codes"] == [0, 0, 0],
        "lemmas_all_pass": all_pass and counts["records"] == LEMMA_RECORDS
        and counts["failed"] == 0,
        "renewal_linear_oracle": beta1_11 == "none" and _renewal_error(
            out["exp11"], lambda t: 1.0 + t) <= RENEWAL_TOL,
        "renewal_exponential_oracle": _renewal_error(
            out["exp21"], lambda t: 2.0 * math.exp(t) - 1.0) <= RENEWAL_TOL,
        "beta1_is_one": abs(beta1 - 1.0) <= BETA1_TOL,
    }
    if reference is not None:
        checks["replay_identical"] = out == reference
    return checks


WORKLOADS = {w.name: w for w in (McReference, PicardReference,
                                 CertifyRenewal)}
