"""Configuration-driven command line entry point.

Subcommands: verify-lemmas, bounds, simulate, moments, growth-scan, renewal,
specfun.  Exit codes: 0 success, 1 assertion/certificate failure or a
numerical failure (blow-up, unconverged quadrature, no root; one `error:`
line), 2 usage error (argparse), 3 validation error.  Every artifact embeds
the config hash and the configured-constants echo; numeric columns print
with 17 significant digits so replays are byte-identical.
"""

import argparse
import json
import math
import struct
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (RenewalProblem, compute_bounds, renewal_solve,
                        renewal_weight, subexp_rate)
from .certify import verify_lemmas
from .config import SCHEMA, ExperimentConfig, exp_weight
from .errors import (BlowupError, NoRootError, QuadratureError, ValidationError,
                     require)
from .estimator import (MomentSeries, growth_index_scan, lyapunov_fit,
                        renewal_check, simulate_moments)
from .solver import GridSpec, build_discrete_kernel, run_trajectory
from . import specfun

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _outdir(cfg: ExperimentConfig, override: str | None) -> Path:
    """`--out` if given, else `run.outdir`; created if missing."""
    out = Path(override or cfg.get("run.outdir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, cfg: ExperimentConfig, payload: dict) -> None:
    """A JSON artifact: `payload` with the package version, the config hash
    and the assumptions echo, as `_write_csv` stamps its `#` line."""
    stamp = {"levyheat": __version__, "config_hash": cfg.config_hash(),
             "assumptions": cfg.build_constants().assumptions()}
    # encoded first: a NaN or infinity raises before the file is opened
    path.write_text(json.dumps({**stamp, **payload}, sort_keys=True,
                               indent=1, allow_nan=False) + "\n")


def _write_csv(path: Path, cfg: ExperimentConfig, extra: str, columns: str,
               rows) -> None:
    """A CSV artifact: one `#` line with the package version, the config
    hash, the configured constants and `extra`, the `columns` line, then
    one line per row of numbers, each formatted as `_fmt` formats it."""
    c = cfg.build_constants()
    constants = ",".join(f"{f.name}:{getattr(c, f.name):g}" for f in fields(c))
    with open(path, "w") as fh:
        fh.write(f"# levyheat={__version__} config_hash={cfg.config_hash()} "
                 f"constants={constants}{extra}\n{columns}\n")
        row_fmt = ",".join(["%.17g"] * len(columns.split(","))) + "\n"
        fh.writelines(row_fmt % tuple(row) for row in rows)


# magic, n_t, n_x, dt, dx, seed, replica, config hash
_TRAJ_HEADER = struct.Struct("<4sQQddqQQ")
_TRAJ_MAGIC = b"LVHT"


def dump_trajectory(path: Path, cfg: ExperimentConfig, fields: np.ndarray,
                    grid: GridSpec, seed: int, replica: int) -> None:
    """Binary dump of one replica's (n_t + 1, n_x) `fields`: the
    _TRAJ_HEADER fields, the config hash as the 64-bit integer its hex
    digits spell, then the field row-major as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_TRAJ_HEADER.pack(_TRAJ_MAGIC, grid.n_t, grid.n_x, grid.dt,
                                   grid.dx, seed, replica,
                                   int(cfg.config_hash(), 16)))
        fh.write(np.ascontiguousarray(fields, dtype="<f8").tobytes())


def trajectory_csv(path: Path, cfg: ExperimentConfig, fields: np.ndarray,
                   grid: GridSpec, seed: int, replica: int) -> None:
    """CSV dump (t, x, X) of one replica's `fields` for small grids, through
    `_write_csv`."""
    _write_csv(path, cfg, f" seed={seed} replica={replica}", "t,x,X",
               ((t, xj, fields[k, j]) for k, t in enumerate(grid.times)
                for j, xj in enumerate(grid.x)))


# flag -> the config key it overrides; the text is parsed as a config line
_MODEL_FLAGS = {
    "--alpha": "model.alpha", "--d": "model.d", "--grid-L": "grid.L",
    "--nx": "grid.nx", "--T": "grid.T", "--nt": "grid.nt",
    "--sigma": "sigma.slope", "--levy": "levy.atoms", "--seed": "run.seed",
    "--replicas": "run.replicas",
}
_MC_FLAGS = {"--jobs": "run.jobs", **_MODEL_FLAGS}
_RENEWAL_FLAGS = {
    "--c3": "renewal.c3", "--c4": "renewal.c4", "--T": "renewal.T",
    "--dt": "renewal.dt", "--weight": "renewal.weight",
}


def _config(args) -> ExperimentConfig:
    """The config file, if any, else the defaults, with each given flag
    applied as the config line `key = text`."""
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    for key, text in vars(args).items():
        if key in SCHEMA and text is not None:
            cfg.set(key, text)
    return cfg


def _load_config(args):
    """(config, model, grid) of `_config(args)`."""
    cfg = _config(args)
    return cfg, cfg.build_model(), cfg.build_grid()


def _simulate_moments(cfg: ExperimentConfig, model, grid, p):
    """`simulate_moments` with the run.* settings of `cfg`."""
    return simulate_moments(model, grid, p, replicas=cfg.get("run.replicas"),
                            seed=cfg.get("run.seed"),
                            aggregator=cfg.get("run.aggregator"),
                            blocks=cfg.get("run.blocks"),
                            jobs=cfg.get("run.jobs"))


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_verify_lemmas(args) -> int:
    report = verify_lemmas(d=args.d, alpha=args.alpha, p=args.p, fast=args.fast)
    payload = report.to_dict()
    payload["levyheat"] = __version__
    text = json.dumps(payload, sort_keys=True, indent=1,
                      allow_nan=False) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for rec in report.records:
        print(f"{rec.lemma_id}: {rec.status} (worst slack {rec.worst_slack:.6g})",
              file=sys.stderr)
    return EXIT_OK if report.all_pass else EXIT_ASSERTION


def cmd_bounds(args) -> int:
    cfg, ms, _ = _load_config(args)
    constants = cfg.build_constants()
    reports = [asdict(compute_bounds(ms, cfg.get("bounds.c"), p, constants))
               for p in cfg.get("run.p")]
    path = _outdir(cfg, args.out) / "bounds.json"
    _write_json(path, cfg, {"reports": reports})
    sys.stdout.write(path.read_text())
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, ms, grid = _load_config(args)
    seed = cfg.get("run.seed")
    outdir = _outdir(cfg, args.out)
    write, suffix = ((trajectory_csv, "csv") if args.csv
                     else (dump_trajectory, "bin"))
    paths = []
    # "always": record every warning, repeats and those a filter would raise
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for r in range(cfg.get("run.replicas")):
                path = outdir / f"trajectory_r{r:04d}.{suffix}"
                write(path, cfg, run_trajectory(ms, grid, seed, r), grid, seed, r)
                paths.append(path.name)
        except BlowupError:
            # no simulate.json records them: the warnings that explain the
            # blow-up go to stderr ahead of its error line
            for message in sorted({str(w.message) for w in caught}):
                print(f"warning: {message}", file=sys.stderr)
            raise
    # the kernel every replica stepped with, from the solver's cache
    image_mass = build_discrete_kernel(ms.kp, grid, grid.dt).image_mass
    _write_json(outdir / "simulate.json", cfg,
                {"files": paths, "image_mass": image_mass, "seed": seed,
                 "warnings": sorted({str(w.message) for w in caught})})
    print(f"wrote {len(paths)} trajectories to {outdir}")
    return EXIT_OK


def cmd_moments(args) -> int:
    cfg, ms, grid = _load_config(args)
    outdir = _outdir(cfg, args.out)
    ps = cfg.get("run.p")
    results = _simulate_moments(cfg, ms, grid, ps)
    for p, (series, _) in zip(ps, results):
        path = outdir / f"moments_p{p:g}.csv"
        _write_csv(path, cfg,
                   f" p={p:g} replicas={series.replicas}"
                   f" aggregator={series.aggregator}"
                   f" admissible={series.admissible}"
                   f" variance_finite={series.variance_finite}",
                   "t,sup_mean,sup_se,inf_mean,inf_se",
                   zip(series.times, series.sup_mean, series.sup_se,
                       series.inf_mean, series.inf_se))
        fit = lyapunov_fit(series)
        print(f"p={p:g}: wrote {path}; fitted slopes upper={fit.upper.slope:.6g} "
              f"lower={fit.lower.slope:.6g}")
    return EXIT_OK


def cmd_growth_scan(args) -> int:
    cfg, ms, grid = _load_config(args)
    outdir = _outdir(cfg, args.out)
    p = cfg.get("run.p")[0]
    r_txt = cfg.get("scan.r")
    r_exp = subexp_rate(ms.kp, p)[0] if r_txt == "subexp" else float(r_txt)
    _, surface = _simulate_moments(cfg, ms, grid, p)
    scan = growth_index_scan(surface, cfg.get("scan.eta"), r=r_exp)
    path = outdir / "growth_scan.csv"
    _write_csv(path, cfg, f" p={p:g} r={r_exp:g}", "eta,t,value,empty_flag",
               ((eta, t, scan.values[i, k], scan.empty[i, k])
                for i, eta in enumerate(scan.eta)
                for k, t in enumerate(scan.times)))
    bracket = {"eta_low": scan.eta_low, "eta_high": scan.eta_high}
    _write_json(outdir / "growth_scan.json", cfg,
                {"p": p, "r": r_exp, **bracket})
    print(f"wrote {path}; bracket: {bracket}")
    return EXIT_OK


def _read_csv(path, key: str, columns: int, rows: int) -> np.ndarray:
    """Numeric rows of a CSV after its `#` lines and column-name line; at
    least `rows` rows of at least `columns` columns, all finite, or a
    ValidationError naming `key`."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")][1:]
    data = (np.loadtxt(lines, delimiter=",", ndmin=2) if lines
            else np.empty((0, 0)))
    require(data.shape[0] >= rows and data.shape[1] >= columns, key,
            data.shape, f"tables of at least {rows} rows by {columns} "
                        f"columns ({path})")
    if not np.all(np.isfinite(data)):
        raise ValidationError(key, f"{path} holds a NaN or infinite value")
    return data


def _parse_weight_arg(cfg: ExperimentConfig):
    """The weight callable of `renewal.weight`; `exp:` keeps its closed form
    so the solver's refinement pass stays exact, a table interpolates."""
    spec_txt = cfg.get("renewal.weight")
    if (exp := exp_weight(spec_txt)) is not None:
        amp, rate = exp
        return lambda u: amp * np.exp(-rate * np.asarray(u))
    if spec_txt == "model":
        ms = cfg.build_model()
        wt = renewal_weight(ms.kp, ms.levy, cfg.get("run.p")[0],
                            cfg.get("renewal.eps"), cfg.get("renewal.delta"))
        t, w = wt.t, wt.w
    elif Path(spec_txt).exists():
        data = _read_csv(spec_txt, "renewal.weight", 2, 1)
        t, w = data[:, 0], data[:, 1]
        require(np.all(np.diff(t) > 0.0) and np.all(w >= 0.0),
                "renewal.weight", spec_txt,
                "tables of strictly increasing times and values >= 0")
    else:
        raise ValidationError("renewal.weight",
                              f"cannot interpret {spec_txt!r}")
    return lambda u: np.interp(u, t, w)


def cmd_renewal(args) -> int:
    cfg = _config(args)
    if args.config is None and "renewal.weight" not in cfg.values:
        # a flag-only run solves with exp:1,1, not the default model weight,
        # and records it in the hash
        cfg.set("renewal.weight", "exp:1,1")
    weight = _parse_weight_arg(cfg)
    outdir = _outdir(cfg, args.out)
    # None when neither a flag nor the config sets it
    c3, c4 = cfg.get("renewal.c3"), cfg.get("renewal.c4")

    if args.series:
        for key, value in (("renewal.c3", c3), ("renewal.c4", c4)):
            if value is None:
                raise ValidationError(key, "--series needs both constants, "
                                           "from a flag or the config")
        # lyapunov_fit needs 5 points in the second half of the times; on
        # a uniform grid that takes 9 rows
        data = _read_csv(args.series, "renewal.series", 5, 9)
        series = MomentSeries(times=data[:, 0], sup_mean=data[:, 1],
                              sup_se=data[:, 2], inf_mean=data[:, 3],
                              inf_se=data[:, 4], p=float("nan"), replicas=0)
        chk = renewal_check(series, weight, c3, c4)
        path = outdir / "renewal_check.csv"
        _write_csv(path, cfg, f" c3={c3:.17g} c4={c4:.17g}",
                   "t,inf_mean,f,margin,margin_se",
                   zip(chk.times, series.inf_mean, chk.f, chk.margin,
                       chk.margin_se))
        _write_json(outdir / "renewal_check.json", cfg,
                    {"c3": c3, "c4": c4, "beta1": chk.beta1,
                     "ordered": chk.ordered, "t_floor": chk.t_floor,
                     "fitted_lower_slope": chk.fitted_lower_slope.slope})
        print(f"wrote {path}; ordered={chk.ordered}")
        return EXIT_OK if chk.ordered else EXIT_ASSERTION

    c3 = 1.0 if c3 is None else c3
    c4 = 1.0 if c4 is None else c4
    rp = RenewalProblem(c3=c3, c4=c4, horizon=cfg.get("renewal.T"),
                        dt=cfg.get("renewal.dt"), weight=weight)
    sol = renewal_solve(rp)
    beta1 = sol.beta1 if sol.beta1 is not None else 0.0
    path = outdir / "renewal.csv"
    _write_csv(path, cfg,
               f" c3={c3:.17g} c4={c4:.17g} "
               f"beta1={'none' if sol.beta1 is None else _fmt(sol.beta1)} "
               f"beta1_half="
               f"{'none' if sol.beta1_half is None else _fmt(sol.beta1_half)}",
               "t,f,discounted_f",
               ((a, b, math.exp(-beta1 * a) * b)
                for a, b in zip(sol.t.tolist(), sol.f.tolist())))
    print(f"wrote {path}; beta1={sol.beta1} beta1_half={sol.beta1_half} "
          f"limit={sol.limit_lhs}")
    return EXIT_OK


# --fn -> the values it prints, one line each
_SPECFUN = {
    "gamma": lambda a: [specfun.gamma_fn(x) for x in a.x],
    "beta": lambda a: [specfun.beta_fn(a.a, a.b)],
    "ml": lambda a: [specfun.mittag_leffler(a.a, a.b, z) for z in a.z],
    "ml-asymptotic": lambda a: [specfun.ml_asymptotic(a.a, a.b, z)
                                for z in a.z],
    "bessel-k": lambda a: [specfun.bessel_k(a.nu, x) for x in a.x],
}


def cmd_specfun(args) -> int:
    for v in _SPECFUN[args.fn](args):
        print(_fmt(v))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="levyheat",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("verify-lemmas", help="run the kernel certificate suite")
    s.add_argument("--alpha", type=float, default=1.5)
    s.add_argument("--d", type=int, default=1)
    s.add_argument("--p", type=float, default=1.2)
    s.add_argument("--fast", action="store_true", help="reduced grids")
    s.add_argument("--out", default=None, help="JSON report path")
    s.set_defaults(func=cmd_verify_lemmas)

    # the subcommands that read a config: name, function, help, flag table
    for name, func, text, flags in (
            ("bounds", cmd_bounds, "compute the analytic bounds report",
             _MODEL_FLAGS),
            ("simulate", cmd_simulate, "simulate and dump trajectories",
             _MODEL_FLAGS),
            ("moments", cmd_moments, "Monte Carlo moment series", _MC_FLAGS),
            ("growth-scan", cmd_growth_scan, "restricted sup-moment scan",
             _MC_FLAGS),
            ("renewal", cmd_renewal, "renewal solve / ordering check",
             _RENEWAL_FLAGS)):
        s = sub.add_parser(name, help=text)
        s.add_argument("--config", help="experiment config file (key = value lines)")
        s.add_argument("--out", default=None, help="output directory override")
        for flag, key in flags.items():
            s.add_argument(flag, dest=key, help=f"overrides {key}")
        s.set_defaults(func=func)
    sub.choices["simulate"].add_argument("--csv", action="store_true",
                                         help="CSV dumps (small grids)")
    sub.choices["renewal"].add_argument(
        "--series", default=None,
        help="moments CSV; switches to ordering-check mode")

    s = sub.add_parser("specfun", help="special function evaluation")
    s.add_argument("action", choices=["eval"])
    s.add_argument("--fn", required=True, choices=list(_SPECFUN))
    s.add_argument("--a", type=float, default=1.0)
    s.add_argument("--b", type=float, default=1.0)
    s.add_argument("--nu", type=float, default=0.0)
    s.add_argument("--x", type=float, nargs="*", default=[])
    s.add_argument("--z", type=float, nargs="*", default=[])
    s.set_defaults(func=cmd_specfun)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (BlowupError, QuadratureError, NoRootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
