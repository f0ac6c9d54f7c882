"""One fresh interpreter of the benchmark; started by run.py.

Modes:
  probe    import levyheat.cli, make the workload's reduced cold call, print
           the monotonic clock reading, the time spent sampling speed and
           the speed scale, and exit (one set-up sample);
  measure  cold first call (warm-up), then untraced repetitions until the
           time window is spent, each timed, speed-sampled and checked;
  trace    traced cold first call, then untraced and traced repetitions in
           turn; per-layer figures come from the traced ones.

The result is written as JSON to the --result path.
"""

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from speed import (FULL_REFERENCE_S, PYTHON_REFERENCE_S, SpeedSampler,
                   full_kernel, python_kernel)
from workloads import WORKLOADS, lemma_counts

MIN_REPS = 3        # timed repetitions per measure run, whatever the window
MIN_PAIRS = 2       # untraced/traced pairs per trace run


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def import_program(src: Path):
    """Import levyheat.cli and refuse to measure a copy from elsewhere."""
    import levyheat
    import levyheat.cli  # noqa: F401
    where = Path(levyheat.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"levyheat imported from {where}, not from {src}")
    return levyheat


class Repeater:
    """Runs and checks repetitions; the first output is the replay reference."""

    def __init__(self, workload, inputs: dict, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.reference = None
        self.checks = []
        self.count = 0

    def rep(self, sampler=None):
        """One repetition: (output, wall seconds, CPU seconds).  A speed
        sampler, when given, runs during the timed call only."""
        outdir = self.workdir / f"rep{self.count}"
        outdir.mkdir(parents=True, exist_ok=True)
        self.count += 1
        with sampler or contextlib.nullcontext():
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            out = self.workload.run(self.inputs, outdir)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        self.checks.append(self.workload.check(out, self.reference))
        if self.reference is None:
            self.reference = out
        shutil.rmtree(outdir, ignore_errors=True)
        return out, wall, cpu


def measure(rep: Repeater, seconds: float) -> dict:
    _, cold_wall, _ = rep.rep()
    raw = {"wall_s": [], "cpu_s": []}
    norm = {"wall_s": [], "cpu_s": []}
    scales, samples = [], []
    deadline = time.perf_counter() + seconds
    while True:
        sampler = SpeedSampler(full_kernel, FULL_REFERENCE_S)
        _, wall, cpu = rep.rep(sampler)
        for key, value in (("wall_s", wall), ("cpu_s", cpu)):
            raw[key].append(value)
            norm[key].append(sampler.normalise(value))
        scales.append(sampler.scale())
        samples.append(sampler.in_block)
        left = deadline - time.perf_counter()
        if len(raw["wall_s"]) >= MIN_REPS and left < statistics.median(raw["wall_s"]):
            break
    return {"cold_wall_s": cold_wall, "raw": raw, "normalised": norm,
            "speed_scale": scales, "speed_samples": samples,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def normalised_wall(rep: Repeater):
    """One repetition; its output and its reference-speed wall time."""
    sampler = SpeedSampler(full_kernel, FULL_REFERENCE_S)
    out, wall, _ = rep.rep(sampler)
    return out, sampler.normalise(wall)


def trace(rep: Repeater, seconds: float, spans_path: Path) -> dict:
    """Traced cold call (run 0), then untraced and traced repetitions in
    turn.  Span times include the speed sampler's kernel calls (about 1%)."""
    workload = rep.workload
    tracer = Tracer()
    tracer.run_id = 0
    with tracer:
        rep.rep()
    untraced, traced, runs, outputs = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(normalised_wall(rep)[1])
        tracer.run_id = len(runs) + 1
        with tracer:
            out, wall = normalised_wall(rep)
        runs.append(tracer.run_id)
        traced.append(wall)
        outputs.append(out)
        left = deadline - time.perf_counter()
        pair = statistics.median(untraced) + statistics.median(traced)
        if len(runs) >= MIN_PAIRS and left < pair:
            break

    figures, per_run = layer_metrics(tracer, workload, runs, outputs,
                                     untraced, traced)
    tracer.save(spans_path)
    return {"per_layer": figures, "per_run": per_run,
            "untraced_wall_s": untraced, "traced_wall_s": traced,
            "spans": len(tracer.start), "span_file": str(spans_path)}


def layer_metrics(tracer, workload, runs, outputs, untraced, traced):
    """Per-layer metrics: medians over the traced runs `runs` (whose
    outputs are `outputs`), set-up figures from run 0, and the tracing
    overhead from the untraced and traced wall times.  Also returns the
    figures of each run."""
    per_run = tracer.figures(runs)
    steps, sampled = workload.replica_steps, workload.replicas_sampled
    for run_id, out in zip(runs, outputs):
        fig = per_run[run_id]
        fig["solver.replica_steps"] = steps
        fig["solver.us_per_replica_step"] = (
            fig["solver.self_s"] * 1e6 / steps if steps else 0.0)
        fig["noise.ms_per_replica"] = (
            fig["noise.busy_s"] * 1e3 / sampled if sampled else 0.0)
        counts = lemma_counts(out.get("lemmas", ""))
        fig["certify.records"] = counts["records"]
        fig["certify.failed_records"] = counts["failed"]
    figures = {key: statistics.median(per_run[r][key] for r in runs)
               for key in per_run[runs[0]]}
    figures.update(tracer.setup_figures(0))
    figures["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)
    return figures, [per_run[r] for r in runs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path, help="span file of a trace run")
    args = ap.parse_args(argv)

    inputs = json.loads(args.inputs.read_text())
    workload = WORKLOADS[args.workload]()
    if args.mode == "probe":
        # set-up runs until the cold call returns; the parent started the clock
        with SpeedSampler(python_kernel, PYTHON_REFERENCE_S) as sampler:
            import_program(args.src)
            workload.probe(inputs)
            ready = time.monotonic()
        print(ready, sampler.in_block_s, sampler.scale(), flush=True)
        return 0

    levyheat = import_program(args.src)
    full_kernel()       # first call binds its inputs, before any tracing

    import numpy
    import scipy
    rep = Repeater(workload, inputs, Path(inputs["workdir"]) / args.mode)
    if args.mode == "measure":
        result = measure(rep, args.seconds)
    else:
        result = trace(rep, args.seconds, args.spans)
    try:
        info = workload.info(rep.reference)
    except (ValueError, IndexError) as exc:     # output the checks failed
        info = {"error": repr(exc)}
    result.update({
        "checks": rep.checks,
        "info": info,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "levyheat": levyheat.__version__},
    })
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
