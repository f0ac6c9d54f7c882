"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# span arithmetic


def test_union_length_merges_and_clips():
    assert spans.union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert spans.union_length([(1, 4), (3, 6)], lo=2, hi=5) == 3
    assert spans.union_length([]) == 0


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children A [1, 4] and B [3, 6] (overlapping, as two
    # threads' spans would); A has child G [2, 3]
    names = ["cli.main", "estimator.a", "solver.b", "solver.g"]
    start = [0.0, 1.0, 3.0, 2.0]
    end = [10.0, 4.0, 6.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert spans.self_times(start, end, parent) == [5.0, 2.0, 3.0, 1.0]
    fig = spans.layer_figures(names, start, end, parent, [0, 1, 2, 3])
    assert fig["cli.calls"] == 1 and fig["cli.self_s"] == 5.0
    assert fig["estimator.busy_s"] == 3.0 and fig["estimator.self_s"] == 2.0
    # B enters solver from cli, G from the estimator: two calls
    assert fig["solver.calls"] == 2
    assert fig["solver.busy_s"] == 4.0 and fig["solver.self_s"] == 4.0
    assert fig["kernel.calls"] == 0 and fig["kernel.busy_s"] == 0


def test_nested_calls_within_a_layer_count_once():
    names = ["kernel.f", "kernel.g", "specfun.h", "kernel.k"]
    start, end, parent = [0.0, 1.0, 2.0, 2.5], [4.0, 3.0, 3.0, 2.8], [-1, 0, 1, 2]
    fig = spans.layer_figures(names, start, end, parent, range(4))
    assert fig["kernel.calls"] == 2          # f from the root, k from specfun
    assert fig["kernel.busy_s"] == 4.0
    assert fig["specfun.self_s"] == pytest.approx(0.7)
    assert fig["kernel.self_s"] == pytest.approx(3.3)


# ---------------------------------------------------------------------------
# tracing the real package


def test_tracer_wraps_where_callers_look_up_and_restores():
    import levyheat.estimator as est
    import levyheat.solver as sol
    originals = (sol.mild_step, est.mild_step, sol.GridSpec.noise_grid)
    tracer = spans.Tracer()
    with tracer:
        assert est.mild_step is not originals[1]
        assert est.mild_step is sol.mild_step
        tracer.run_id = 1
        grid = sol.GridSpec(half_width=4.0, n_x=8, horizon=1.0, n_t=2)
        grid.noise_grid(3, 0)
    assert (sol.mild_step, est.mild_step, sol.GridSpec.noise_grid) == originals
    names = tracer.span_names()
    assert names == ["solver.GridSpec.noise_grid"]
    assert list(tracer.run) == [1]


def test_traced_call_records_parents_quad_calls_and_profile_build():
    from levyheat import kernel
    tracer = spans.Tracer()
    with tracer:
        kp = kernel.KernelParams(d=1, alpha=1.3)
        prof = kernel.StableProfile(1.3)
        prof(0.5)                                 # first evaluation
        prof(0.7)
        kernel.q_density(kp, 1.0, 0.5)            # quadrature path
    names = tracer.span_names()
    calls = [i for i, n in enumerate(names) if n == "kernel.StableProfile.__call__"]
    assert len(calls) == 2 and tracer.first_evals == [calls[0]]
    assert tracer.quad_calls[0] > 0
    assert tracer.setup_figures(0)["kernel.profile_build_s"] > 0
    # the spline build evaluates the profile pointwise, inside the first call
    direct = [i for i, n in enumerate(names) if n == "kernel.StableProfile.direct"]
    assert sum(tracer.parent[i] == calls[0] for i in direct) > 100


def test_layer_metrics_names_match_benchmark_json(tmp_path):
    wl = workloads.CertifyRenewal()
    tracer = spans.Tracer()
    outputs = []
    with tracer:
        for run_id in (0, 1):
            tracer.run_id = run_id
            workloads._cli(["renewal", "--T", 0.01, "--dt", 0.001,
                            "--out", tmp_path])
            outputs.append({"lemmas": ""})
    figures, _ = worker.layer_metrics(tracer, wl, [1], outputs[1:], [1.0], [1.1])
    assert set(figures) == {m["name"] for m in SPEC["per_layer"]}
    assert figures["analytics.calls"] >= 1
    assert figures["analytics.renewal_solve_s"] > 0
    assert figures["solver.calls"] == figures["noise.calls"] == 0
    assert figures["trace.overhead_frac"] == pytest.approx(0.1)


def test_end_to_end_names_match_benchmark_json():
    res = {"normalised": {"wall_s": [1.0, 2.0, 3.0], "cpu_s": [1.0, 2.0, 3.0]},
           "raw": {"wall_s": [1.0, 2.0, 3.0], "cpu_s": [1.0, 2.0, 3.0]},
           "peak_rss_mb": 100.0}
    values, _ = run.end_to_end([(1.5, 1.0), (1.4, 1.2)], res, [True, True, False, True])
    metrics = run.pick(values, SPEC["end_to_end"])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert values["wall_s"] == 1.0 and values["setup_s"] == pytest.approx(1.1)
    assert values["checks_passed_frac"] == 0.75
    with pytest.raises(run.BenchError):
        run.pick({**values, "extra": 1.0}, SPEC["end_to_end"])


# ---------------------------------------------------------------------------
# speed normalisation


def test_speed_normalise_takes_out_kernel_time_and_rescales():
    sampler = speed.SpeedSampler(speed.python_kernel, 2.0)
    sampler.durations, sampler.in_block_s = [1.0, 4.0], 0.5
    # mean(1/d) = 0.625, so 2.0 * 0.625 = 1.25 reference seconds per second
    assert sampler.scale() == 1.25
    assert sampler.normalise(4.5) == 5.0


def test_speed_sampler_samples_during_block():
    with speed.SpeedSampler(speed.python_kernel, 1e-4) as sampler:
        deadline = speed.time.perf_counter() + 0.3
        while speed.time.perf_counter() < deadline:
            pass
    assert sampler.in_block >= 3
    assert len(sampler.durations) >= speed.MIN_SAMPLES
    assert 0 < sampler.in_block_s < 0.3


# ---------------------------------------------------------------------------
# correctness checks, each shown to fail on a corrupted output


def moments_csv(rows) -> str:
    lines = ["# levyheat=0.1.0 config_hash=x p=2", "t,sup_mean,sup_se,inf_mean,inf_se"]
    lines += [",".join(f"{v:.17g}" for v in r) for r in rows]
    return "\n".join(lines) + "\n"


GOOD_ROWS = [(0.0, 1.0, 0.0, 1.0, 0.0), (0.01, 1.2, 0.1, 0.9, 0.1),
             (0.02, 1.5, 0.2, 0.8, 0.1)]


def test_moment_checks_pass_on_good_output():
    good = moments_csv(GOOD_ROWS)
    assert all(workloads.check_moments(0, good, good).values())


@pytest.mark.parametrize("name,code,rows", [
    ("exit_code_zero", 3, GOOD_ROWS),
    ("t0_row_is_one", 0, [(0.0, 1.0 + 1e-15, 0.0, 1.0, 0.0)] + GOOD_ROWS[1:]),
    ("sup_ge_inf", 0, GOOD_ROWS[:2] + [(0.02, 0.8, 0.1, 1.5, 0.2)]),
    ("all_finite", 0, GOOD_ROWS[:2] + [(0.02, math.nan, 0.1, 0.8, 0.1)]),
    ("replay_identical", 0, GOOD_ROWS[:2] + [(0.02, 1.5000000000000002, 0.2, 0.8, 0.1)]),
])
def test_moment_check_fails_on_corruption(name, code, rows):
    checks = workloads.check_moments(code, moments_csv(rows), moments_csv(GOOD_ROWS))
    assert checks[name] is False


GOOD_PICARD = {"contraction_ok": True, "log_d": [-10.0, -20.0, -30.0],
               "rel_se": [0.1, 0.1, 0.1]}


@pytest.mark.parametrize("name,change", [
    ("contraction_ok", {"contraction_ok": False}),
    ("log_d_finite", {"log_d": [-10.0, -20.0, -math.inf]}),
    ("log_d_decreasing", {"log_d": [-10.0, -20.0, -20.0]}),
    ("replay_identical", {"rel_se": [0.1, 0.1, 0.2]}),
])
def test_picard_check_fails_on_corruption(name, change):
    assert all(workloads.check_picard(GOOD_PICARD, GOOD_PICARD).values())
    checks = workloads.check_picard({**GOOD_PICARD, **change}, GOOD_PICARD)
    assert checks[name] is False


def renewal_csv(exact, beta1="none", error=0.0) -> str:
    lines = [f"# levyheat=0.1.0 config_hash=none c3=1 c4=1 beta1={beta1}",
             "t,f,discounted_f"]
    for k in range(11):
        t = k * 0.001
        lines.append(f"{t:.17g},{exact(t) + (error if k == 5 else 0.0):.17g},1")
    return "\n".join(lines) + "\n"


def lemmas_json(statuses) -> str:
    return json.dumps({"all_pass": all(s == "pass" for s in statuses),
                       "records": [{"lemma_id": f"l{i}", "status": s}
                                   for i, s in enumerate(statuses)]})


def good_certify() -> dict:
    return {"exit_codes": [0, 0, 0],
            "lemmas": lemmas_json(["pass"] * 14),
            "exp11": renewal_csv(lambda t: 1.0 + t),
            "exp21": renewal_csv(lambda t: 2.0 * math.exp(t) - 1.0,
                                 beta1="0.99999999")}


@pytest.mark.parametrize("name,change", [
    ("exit_codes_zero", {"exit_codes": [1, 0, 0]}),
    ("lemmas_all_pass", {"lemmas": lemmas_json(["pass"] * 13 + ["fail"])}),
    ("lemmas_all_pass", {"lemmas": lemmas_json(["pass"] * 13)}),
    ("renewal_linear_oracle", {"exp11": renewal_csv(lambda t: 1.0 + t, error=2e-6)}),
    ("renewal_linear_oracle", {"exp11": renewal_csv(lambda t: 1.0 + t, beta1="0.5")}),
    ("renewal_exponential_oracle", {"exp21": renewal_csv(
        lambda t: 2.0 * math.exp(t) - 1.0, beta1="1", error=-2e-6)}),
    ("beta1_is_one", {"exp21": renewal_csv(
        lambda t: 2.0 * math.exp(t) - 1.0, beta1="1.0002")}),
    ("replay_identical", {"exit_codes": [0, 0, 0], "lemmas": lemmas_json(
        ["pass"] * 14) + " "}),
])
def test_certify_check_fails_on_corruption(name, change):
    good = good_certify()
    assert all(workloads.check_certify(good, good).values())
    checks = workloads.check_certify({**good, **change}, good)
    assert checks[name] is False


def test_lemma_counts_reads_failed_records():
    assert workloads.lemma_counts(lemmas_json(["pass", "fail", "pass"])) == \
        {"records": 3, "failed": 1}
    assert workloads.lemma_counts("not json") == {"records": 0, "failed": 0}


def test_inputs_depend_only_on_seed(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = workloads.McReference().prepare(7, tmp_path / "a")
    b = workloads.McReference().prepare(7, tmp_path / "b")
    c = workloads.McReference().prepare(8, tmp_path / "c")
    text = [Path(x["config"]).read_text() for x in (a, b, c)]
    assert text[0] == text[1] != text[2]


@pytest.fixture
def bare_checkout(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    return tmp_path


def test_refuses_to_run_without_the_program(bare_checkout):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "mc-reference", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare_checkout,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
