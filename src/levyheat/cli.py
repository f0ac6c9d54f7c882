"""Configuration-driven command line entry point.

Subcommands: verify-lemmas, bounds, simulate, moments, growth-scan, renewal,
specfun.  Exit codes: 0 success, 1 assertion/certificate failure, 2 usage
error (argparse), 3 validation error.  Every artifact embeds the config
hash and the configured-constants echo; numeric columns print with 17
significant digits so replays are byte-identical.
"""

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (RenewalProblem, compute_bounds, renewal_solve,
                        renewal_weight)
from .certify import verify_lemmas
from .config import ExperimentConfig
from .errors import ValidationError
from .estimator import (MomentSeries, calibrate_renewal, growth_index_scan,
                        lyapunov_fit, renewal_check, simulate_moments)
from .solver import dump_trajectory, run_trajectory, trajectory_csv
from . import specfun

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _outdir(cfg: ExperimentConfig | None, override: str | None) -> Path:
    path = (override or os.environ.get("LEVYHEAT_OUTDIR")
            or (cfg.get("run.outdir") if cfg else "."))
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _constants_tag(cfg: ExperimentConfig | None) -> str:
    if cfg is None:
        return "defaults"
    c = cfg.build_constants()
    return ",".join(f"{k}:{getattr(c, k):g}"
                    for k in ("k1", "k2", "k3", "k4", "k5", "c1_g", "c2_g"))


def _csv_header(fh, cfg: ExperimentConfig | None, extra: str = "") -> None:
    tag = cfg.config_hash() if cfg else "none"
    fh.write(f"# levyheat={__version__} config_hash={tag} "
             f"constants={_constants_tag(cfg)}{extra}\n")


def _load_config(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    for key, attr in (("model.alpha", "alpha"), ("model.d", "d"),
                      ("grid.L", "grid_L"), ("grid.nx", "nx"),
                      ("grid.T", "T"), ("grid.nt", "nt"),
                      ("run.seed", "seed"), ("run.replicas", "replicas"),
                      ("run.jobs", "jobs"), ("sigma.slope", "sigma"),
                      ("levy.atoms", "levy")):
        val = getattr(args, attr, None)
        if val is not None:
            cfg.set(key, val)
    cfg.build_model()
    cfg.build_grid()
    return cfg


def _add_common(sub):
    sub.add_argument("--config", help="experiment config file (key = value lines)")
    sub.add_argument("--out", default=None, help="output directory override")


def _add_jobs_flag(sub):
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker pool size over replicas (run.jobs)")


def _add_model_flags(sub):
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--grid-L", dest="grid_L", type=float, default=None)
    sub.add_argument("--nx", type=int, default=None)
    sub.add_argument("--T", type=float, default=None)
    sub.add_argument("--nt", type=int, default=None)
    sub.add_argument("--sigma", type=float, default=None,
                     help="linear coefficient slope")
    sub.add_argument("--levy", type=str, default=None,
                     help="atom list 'z:mass,z:mass'")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--replicas", type=int, default=None)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_verify_lemmas(args) -> int:
    report = verify_lemmas(d=args.d, alpha=args.alpha, p=args.p, fast=args.fast)
    payload = report.to_dict()
    payload["levyheat"] = __version__
    out = Path(args.out) if args.out else None
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    else:
        sys.stdout.write(text)
    for rec in report.records:
        print(f"{rec.lemma_id}: {rec.status} (worst slack {rec.worst_slack:.6g})",
              file=sys.stderr)
    return EXIT_OK if report.all_pass else EXIT_ASSERTION


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    ms = cfg.build_model()
    constants = cfg.build_constants()
    c = cfg.get("bounds.c")
    reports = []
    for p in cfg.get("run.p"):
        rep = compute_bounds(ms, c, p, constants)
        reports.append(rep.to_dict())
    payload = {"levyheat": __version__, "config_hash": cfg.config_hash(),
               "assumptions": constants.assumptions(), "reports": reports}
    outdir = _outdir(cfg, args.out)
    _write_json(outdir / "bounds.json", payload)
    print(json.dumps(payload, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    ms = cfg.build_model()
    grid = cfg.build_grid()
    seed = cfg.get("run.seed")
    outdir = _outdir(cfg, args.out)
    paths = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in range(cfg.get("run.replicas")):
            traj = run_trajectory(ms, grid, seed, r)
            if args.csv:
                path = outdir / f"trajectory_r{r:04d}.csv"
                trajectory_csv(traj, path)
            else:
                path = outdir / f"trajectory_r{r:04d}.bin"
                dump_trajectory(traj, path)
            paths.append(str(path))
    _write_json(outdir / "simulate.json",
                {"levyheat": __version__, "config_hash": cfg.config_hash(),
                 "assumptions": cfg.build_constants().assumptions(),
                 "files": paths, "seed": seed})
    print(f"wrote {len(paths)} trajectories to {outdir}")
    return EXIT_OK


def cmd_moments(args) -> int:
    cfg = _load_config(args)
    ms = cfg.build_model()
    grid = cfg.build_grid()
    outdir = _outdir(cfg, args.out)
    for p in cfg.get("run.p"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series, _ = simulate_moments(ms, grid, p, cfg.get("run.replicas"),
                                         cfg.get("run.seed"),
                                         aggregator=cfg.get("run.aggregator"),
                                         blocks=cfg.get("run.blocks"),
                                         jobs=cfg.get("run.jobs"))
        path = outdir / f"moments_p{p:g}.csv"
        with open(path, "w") as fh:
            _csv_header(fh, cfg, extra=f" p={p:g} replicas={series.replicas}"
                                       f" aggregator={series.aggregator}"
                                       f" admissible={series.admissible}")
            fh.write("t,sup_mean,sup_se,inf_mean,inf_se\n")
            for k in range(len(series.times)):
                fh.write(",".join(_fmt(v) for v in (
                    series.times[k], series.sup_mean[k], series.sup_se[k],
                    series.inf_mean[k], series.inf_se[k])) + "\n")
        fit = lyapunov_fit(series)
        print(f"p={p:g}: wrote {path}; fitted slopes upper={fit.upper.slope:.6g} "
              f"lower={fit.lower.slope:.6g}")
    return EXIT_OK


def cmd_growth_scan(args) -> int:
    cfg = _load_config(args)
    ms = cfg.build_model()
    grid = cfg.build_grid()
    outdir = _outdir(cfg, args.out)
    p = cfg.get("run.p")[0]
    r_txt = cfg.get("scan.r")
    if r_txt == "subexp":
        from .analytics import subexp_rate
        r_exp, _ = subexp_rate(ms.kp, p)
    else:
        r_exp = float(r_txt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, surface = simulate_moments(ms, grid, p, cfg.get("run.replicas"),
                                      cfg.get("run.seed"),
                                      aggregator=cfg.get("run.aggregator"),
                                      blocks=cfg.get("run.blocks"),
                                      jobs=cfg.get("run.jobs"))
    scan = growth_index_scan(surface, cfg.get("scan.eta"), r=r_exp)
    path = outdir / "growth_scan.csv"
    with open(path, "w") as fh:
        _csv_header(fh, cfg, extra=f" p={p:g} r={r_exp:g}")
        fh.write("eta,t,value,empty_flag\n")
        for i, eta in enumerate(scan.eta):
            for k, t in enumerate(scan.times):
                val = scan.values[i, k]
                fh.write(f"{_fmt(eta)},{_fmt(t)},"
                         f"{_fmt(val) if np.isfinite(val) else 'nan'},"
                         f"{int(scan.empty[i, k])}\n")
    bracket = {"eta_low": scan.eta_low, "eta_high": scan.eta_high}
    _write_json(outdir / "growth_scan.json",
                {"levyheat": __version__, "config_hash": cfg.config_hash(),
                 "assumptions": cfg.build_constants().assumptions(),
                 "p": p, "r": r_exp, **bracket})
    print(f"wrote {path}; bracket: {bracket}")
    return EXIT_OK


def _weight_from_config(cfg: ExperimentConfig):
    ms = cfg.build_model()
    p = cfg.get("run.p")[0]
    wt = renewal_weight(ms.kp, ms.levy, p, cfg.get("renewal.eps"),
                        cfg.get("renewal.delta"))
    return wt.t, wt.w


def _parse_weight_arg(spec_txt: str, cfg: ExperimentConfig | None, horizon, dt):
    """Returns (t_grid, values, callable_or_None); analytic weights keep
    their callable so the solver's refinement pass stays exact."""
    if spec_txt.startswith("exp:"):
        amp, rate = (float(v) for v in spec_txt[4:].split(","))
        t = np.arange(int(round(horizon / dt)) + 1) * dt
        func = lambda u: amp * np.exp(-rate * np.asarray(u))   # noqa: E731
        return t, func(t), func
    if spec_txt == "model":
        if cfg is None:
            raise ValidationError("renewal.weight", "model weight needs --config")
        t, w = _weight_from_config(cfg)
        return t, w, None
    path = Path(spec_txt)
    if path.exists():
        data = np.loadtxt(path, delimiter=",", comments="#", skiprows=1)
        return data[:, 0], data[:, 1], None
    raise ValidationError("renewal.weight", f"cannot interpret {spec_txt!r}")


def cmd_renewal(args) -> int:
    cfg = ExperimentConfig.from_file(args.config) if args.config else None
    horizon = args.T if args.T is not None else (cfg.get("renewal.T") if cfg else 10.0)
    dt = args.dt if args.dt is not None else (cfg.get("renewal.dt") if cfg else 1e-3)
    weight_txt = args.weight or (cfg.get("renewal.weight") if cfg else "exp:1,1")
    wt_t, wt_w, wt_func = _parse_weight_arg(weight_txt, cfg, horizon, dt)
    outdir = _outdir(cfg, args.out)

    if args.series:
        data = np.loadtxt(args.series, delimiter=",", comments="#", skiprows=1)
        series = MomentSeries(times=data[:, 0], sup_mean=data[:, 1],
                              sup_se=data[:, 2], inf_mean=data[:, 3],
                              inf_se=data[:, 4], p=float("nan"), replicas=0)
        c3, c4 = args.c3, args.c4
        if c3 is None or c4 is None:
            c3_est, c4_est = calibrate_renewal(series, wt_t, wt_w)
            c3 = c3 if c3 is not None else c3_est
            c4 = c4 if c4 is not None else c4_est
        chk = renewal_check(series, wt_t, wt_w, c3, c4)
        path = outdir / "renewal_check.csv"
        with open(path, "w") as fh:
            _csv_header(fh, cfg, extra=f" c3={c3:.17g} c4={c4:.17g}")
            fh.write("t,inf_mean,f,margin,margin_se\n")
            for k in range(len(chk.times)):
                fh.write(",".join(_fmt(v) for v in (
                    chk.times[k], series.inf_mean[k], chk.f[k],
                    chk.margin[k], chk.margin_se[k])) + "\n")
        _write_json(outdir / "renewal_check.json",
                    {"levyheat": __version__,
                     "config_hash": cfg.config_hash() if cfg else "none",
                     "c3": c3, "c4": c4, "beta1": chk.beta1,
                     "ordered": chk.ordered, "t_floor": chk.t_floor,
                     "fitted_lower_slope": chk.fitted_lower_slope.slope})
        print(f"wrote {path}; ordered={chk.ordered}")
        return EXIT_OK if chk.ordered else EXIT_ASSERTION

    c3 = args.c3 if args.c3 is not None else (cfg.get("renewal.c3") if cfg else 1.0)
    c4 = args.c4 if args.c4 is not None else (cfg.get("renewal.c4") if cfg else 1.0)
    if c3 is None or c4 is None:
        raise ValidationError("renewal.c3", "solve mode needs c3 and c4")
    weight = wt_func if wt_func is not None \
        else (lambda t: np.interp(t, wt_t, wt_w))
    rp = RenewalProblem(c3=c3, c4=c4, horizon=horizon, dt=dt, weight=weight)
    sol = renewal_solve(rp)
    beta1 = sol.beta1 if sol.beta1 is not None else 0.0
    path = outdir / "renewal.csv"
    with open(path, "w") as fh:
        _csv_header(fh, cfg, extra=f" c3={c3:.17g} c4={c4:.17g} "
                                   f"beta1={'none' if sol.beta1 is None else _fmt(sol.beta1)}")
        fh.write("t,f,discounted_f\n")
        for k in range(len(sol.t)):
            fh.write(",".join(_fmt(v) for v in (
                sol.t[k], sol.f[k],
                math.exp(-beta1 * sol.t[k]) * sol.f[k])) + "\n")
    print(f"wrote {path}; beta1={sol.beta1} limit={sol.limit_lhs}")
    return EXIT_OK


def cmd_specfun(args) -> int:
    if args.action != "eval":
        raise ValidationError("specfun", f"unknown action {args.action!r}")
    fn = args.fn
    outputs = []
    if fn == "gamma":
        for x in args.x:
            outputs.append(specfun.gamma_fn(x))
    elif fn == "beta":
        outputs.append(specfun.beta_fn(args.a, args.b))
    elif fn == "ml":
        for z in args.z:
            outputs.append(specfun.mittag_leffler(args.a, args.b, z))
    elif fn == "ml-asymptotic":
        for z in args.z:
            outputs.append(specfun.ml_asymptotic(args.a, args.b, z))
    elif fn == "bessel-k":
        for x in args.x:
            outputs.append(specfun.bessel_k(args.nu, x))
    else:
        raise ValidationError("specfun.fn", f"unknown function {fn!r}")
    for v in outputs:
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

    s = sub.add_parser("bounds", help="compute the analytic bounds report")
    _add_common(s)
    _add_model_flags(s)
    s.set_defaults(func=cmd_bounds)

    s = sub.add_parser("simulate", help="simulate and dump trajectories")
    _add_common(s)
    _add_model_flags(s)
    s.add_argument("--csv", action="store_true", help="CSV dumps (small grids)")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("moments", help="Monte Carlo moment series")
    _add_common(s)
    _add_jobs_flag(s)
    _add_model_flags(s)
    s.set_defaults(func=cmd_moments)

    s = sub.add_parser("growth-scan", help="restricted sup-moment scan")
    _add_common(s)
    _add_jobs_flag(s)
    _add_model_flags(s)
    s.set_defaults(func=cmd_growth_scan)

    s = sub.add_parser("renewal", help="renewal solve / ordering check")
    _add_common(s)
    s.add_argument("--c3", type=float, default=None)
    s.add_argument("--c4", type=float, default=None)
    s.add_argument("--T", type=float, default=None)
    s.add_argument("--dt", type=float, default=None)
    s.add_argument("--weight", default=None,
                   help="'exp:A,B' | 'model' | CSV path")
    s.add_argument("--series", default=None,
                   help="moments CSV; switches to ordering-check mode")
    s.set_defaults(func=cmd_renewal)

    s = sub.add_parser("specfun", help="special function evaluation")
    s.add_argument("action", choices=["eval"])
    s.add_argument("--fn", required=True,
                   choices=["gamma", "beta", "ml", "ml-asymptotic", "bessel-k"])
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
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
