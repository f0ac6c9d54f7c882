"""Benchmark of the levyheat pipelines, end to end and per layer.

    python3 perfbench/run.py --workload mc-reference --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Inputs are made from --seed; the program
is imported from ./src.  With --trace 0 the last stdout line is a JSON
object holding the end-to-end metrics of BENCHMARK.json; with --trace 1 it
holds the per-layer metrics of a separate traced run.  The lines before it
describe the run, and a full record (every sample, every check, the
environment) is written to perfbench/results/.

Set-up is sampled in fresh interpreters (one discarded, then SETUP_SAMPLES
timed); the repetitions run in one further interpreter after a warm-up.
Thread pools of the numeric libraries are pinned to one thread.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
WORK = HERE / ".work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
BUDGET_S = 170.0     # the whole run, probes and worker included


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def worker_cmd(mode: str, workload: str, inputs: Path, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", workload, "--inputs", str(inputs),
            "--src", str(SRC), *extra]


def run_child(cmd: list, timeout: float) -> subprocess.CompletedProcess:
    if timeout <= 0:
        raise BenchError("time budget spent")
    try:
        done = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[3]} child exceeded {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{cmd[3]} child exited {done.returncode}:\n"
                         f"{done.stderr[-4000:]}")
    return done


def setup_sample(workload: str, inputs: Path, deadline: float) -> tuple:
    """Seconds from spawning a fresh interpreter until the workload's cold
    call has returned (CLOCK_MONOTONIC is shared by all processes): raw,
    and normalised by the speed the child sampled meanwhile."""
    start = time.monotonic()
    done = run_child(worker_cmd("probe", workload, inputs),
                     deadline - time.monotonic())
    ready, sampling_s, scale = (float(v) for v in done.stdout.split()[-3:])
    raw = ready - start
    return raw, (raw - sampling_s) * scale


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, workload: str, why: str) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "levyheat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "cpu_model": cpu_model(), "platform": platform.platform(),
            "threads": {var: "1" for var in THREAD_VARS},
            "seed": seed, "workload": workload, "workload_why": why}


def spread(values) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def run(workload_name: str, seed: int, seconds: int, traced: bool) -> tuple:
    deadline = time.monotonic() + BUDGET_S
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[workload_name]()
    work = WORK / f"{workload_name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(traced)}"
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload_name]
    record = {"env": environment(seed, workload_name, why), "seconds": seconds}
    try:
        inputs = workload.prepare(seed, work)
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        setup = []
        if not traced:
            setup_sample(workload_name, inputs_path, deadline)   # discarded
            setup = [setup_sample(workload_name, inputs_path, deadline)
                     for _ in range(SETUP_SAMPLES)]
        result_path = work / "worker.json"
        extra = ["--spans", str(RESULTS / f"{stem}-spans.csv.gz")] if traced else []
        run_child(worker_cmd("trace" if traced else "measure", workload_name,
                             inputs_path, "--seconds", str(seconds),
                             "--result", str(result_path), *extra),
                  deadline - time.monotonic())
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [ok for rep in res["checks"] for ok in rep.values()]
    failed = sum(not ok for ok in checks)
    record.update(res)
    record["env"]["versions"] = res["versions"]
    if traced:
        metrics = pick(res["per_layer"], spec["per_layer"])
    else:
        values, samples = end_to_end(setup, res, checks)
        metrics = pick(values, spec["end_to_end"])
        record.update(samples)
        record["failed_frac"] = failed / len(checks)
    record["metrics"] = metrics
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    summary = {"correct": failed == 0, "attempted": len(checks),
               "failed": failed, "metrics": metrics}
    return summary, record


def end_to_end(setup: list, res: dict, checks: list) -> tuple:
    """End-to-end values of a measure run from its set-up samples (raw,
    normalised), the worker's result and the check outcomes; also the
    sample summaries behind them.

    Set-up is the median of its fresh interpreters.  A repetition's time is
    the fastest repetition's: page-fault (system) time gives picard-reference
    repetitions a long upper tail that the speed kernel cannot follow.  Over
    three batches of ten runs on a 2-core Xeon VM, the per-run minimum kept
    IQR/median within 6% and batch-to-batch drift within 4% on every
    workload; the median reached 9% and 8% on picard-reference."""
    norm = {"setup_s": [n for _, n in setup], **res["normalised"]}
    raw = {"setup_s": [r for r, _ in setup], **res["raw"]}
    values = {"setup_s": statistics.median(norm["setup_s"]),
              "wall_s": min(norm["wall_s"]), "cpu_s": min(norm["cpu_s"]),
              "peak_rss_mb": res["peak_rss_mb"]}
    values["checks_passed_frac"] = sum(checks) / len(checks)
    return values, {"samples": {k: spread(v) for k, v in norm.items()},
                    "raw_samples": {k: spread(v) for k, v in raw.items()}}


def pick(values: dict, wanted: list) -> dict:
    """The metrics named in BENCHMARK.json, with their units; the names
    must match exactly."""
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise BenchError("metric names differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def describe(record: dict, summary: dict) -> list:
    env = record["env"]
    lines = [f"# {env['workload']} seed={env['seed']} git={env['git_sha']} "
             f"src={env['src_sha256'][:12]} nproc={env['nproc']} "
             f"cpu={env['cpu_model']!r} versions={env['versions']}"]
    samples = record.get("samples", {})
    raw = record.get("raw_samples", {})
    for name, m in summary["metrics"].items():
        note = ""
        if name in samples:
            s, r = samples[name], raw[name]
            note = (f"  {s['n']} samples: min {s['min']:.4g}, median "
                    f"{s['median']:.4g}, max {s['max']:.4g}; raw min "
                    f"{r['min']:.4g}, median {r['median']:.4g}")
        lines.append(f"# {name:32s} {m['value']:<14.6g} {m['unit']}{note}")
    lines.append(f"# failed_frac {summary['failed'] / summary['attempted']:g} "
                 f"({summary['failed']} of {summary['attempted']} checks "
                 f"failed); info {json.dumps(record['info'])}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "levyheat" / "__init__.py").is_file():
        print(f"error: no levyheat sources under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    try:
        summary, record = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(record, summary)))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
