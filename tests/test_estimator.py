import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from levyheat import estimator
from levyheat.analytics import ModelSpec, SigmaSpec, U0Spec, renewal_weight
from levyheat.errors import BlowupError, DomainError
from levyheat.estimator import (MOM_BLOCKS, MomentSeries, MomentSurface,
                                fit_log_slope, growth_index_scan, lyapunov_fit,
                                renewal_check, simulate_moments)
from levyheat.kernel import KernelParams
from levyheat.noise import LevyMeasureSpec
from levyheat.solver import GridSpec, build_discrete_kernel, run_trajectory

SRC = Path(__file__).resolve().parent.parent / "src"
KP15 = KernelParams(d=1, alpha=1.5)
ATOMS = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0), (-1.0, 1.0)))
# the model's noise per step: jumps only (symmetric atoms, rho = 0); plus a
# dense Gaussian term; plus the float dense term that asymmetric atoms'
# compensator and drift leave
NOISES = {"sparse": {}, "gaussian": {"rho": 0.3},
          "drift": {"levy": LevyMeasureSpec(
              variant="atoms", atoms=((2.0, 0.5), (-0.5, 1.0)))}}


def model(slope=1.0, u0=None, rho=0.0, levy=ATOMS):
    return ModelSpec(kp=KP15, rho=rho, levy=levy,
                     sigma=SigmaSpec(kind="linear", slope=slope),
                     u0=u0 or U0Spec(kind="constant", value=1.0))


def quiet_simulate(*args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate_moments(*args, **kw)


def moment_estimate(fields, p, aggregator="mean", blocks=MOM_BLOCKS):
    """Reference per-cell estimate of E|X|^p from a (replicas, ...) stack,
    written apart from the batched engine so the two can be compared.

    aggregator "mean": sample mean with plain standard error;
    aggregator "mom": median of `blocks` block means (replica r in block
    r mod blocks), SE sqrt(pi/2) * block-mean spread / sqrt(blocks).
    Returns (estimate, se) with the replica axis reduced.
    """
    fields = np.asarray(fields)
    r = fields.shape[0]
    if r < 2:
        raise DomainError("need at least 2 replicas for an error estimate")
    vals = np.abs(fields) ** p
    if aggregator == "mean":
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(r)
    assert aggregator == "mom"
    blocks = min(blocks, r)
    ids = np.arange(r) % blocks
    bm = np.stack([vals[ids == b].mean(axis=0) for b in range(blocks)])
    se = math.sqrt(math.pi / 2.0) * bm.std(axis=0, ddof=1) / math.sqrt(blocks)
    return np.median(bm, axis=0), se


class TestMomentEstimate:
    """The reference estimator's own checks."""

    def test_deterministic_field(self):
        fields = np.full((8, 5), 2.0)
        mean, se = moment_estimate(fields, 1.5)
        assert mean[0] == pytest.approx(2.0 ** 1.5, rel=1e-14)
        assert se[0] == pytest.approx(0.0, abs=1e-12)

    def test_plus_minus_one(self):
        rng = np.random.default_rng(0)
        fields = rng.choice([-1.0, 1.0], size=(5000, 3))
        mean, se = moment_estimate(fields, 2.0)
        assert np.all(mean == 1.0)
        assert np.all(se == 0.0)

    def test_mom_aggregator(self):
        rng = np.random.default_rng(1)
        fields = rng.exponential(1.0, size=(640, 4))
        est, se = moment_estimate(fields, 1.0, aggregator="mom")
        assert est == pytest.approx(np.ones(4), rel=0.2)
        assert np.all(se > 0.0)

    def test_se_shrinks_with_replicas(self):
        rng = np.random.default_rng(3)
        fields = rng.standard_normal((2048, 6))
        _, se_half = moment_estimate(fields[:1024], 1.2)
        _, se_full = moment_estimate(fields, 1.2)
        ratio = (se_full / se_half).mean()
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    def test_too_few_replicas(self):
        with pytest.raises(DomainError):
            moment_estimate(np.ones((1, 3)), 1.0)


LAZY_CI_RUN = """
import sys
import numpy as np
from levyheat.estimator import MomentSeries, lyapunov_fit
t = np.linspace(0.0, 4.0, 41)
fit = lyapunov_fit(MomentSeries(times=t, sup_mean=np.exp(2 * t),
                                sup_se=np.zeros(41), inf_mean=np.exp(t),
                                inf_se=np.zeros(41), p=2.0, replicas=10))
print("scipy.special" in sys.modules)
assert fit.lower.ci_low > 0.0
print("scipy.special" in sys.modules)
"""


class TestSlopeFits:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 40)
        fit = fit_log_slope(t, np.exp(3.0 * t))
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        assert fit.positive

    def test_subexponential_slope_vanishes(self):
        # t^2 growth: fitted exponential rate -> 0 as the window end grows
        slopes = []
        for t_end in (10.0, 100.0, 1000.0):
            t = np.linspace(t_end / 2.0, t_end, 50)
            slopes.append(fit_log_slope(t, t ** 2).slope)
        assert slopes[0] > slopes[1] > slopes[2] > 0.0
        assert slopes[2] < 0.01

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            fit_log_slope(np.arange(6.0), np.array([1, 2, 0, 3, 4, 5.0]))

    def test_ci_is_the_t_interval_read_once(self, monkeypatch):
        # the quantile is taken on first read, once per fit, and the CI
        # is the eager one's bit for bit
        import scipy.special
        stdtrit = scipy.special.stdtrit
        calls = []
        monkeypatch.setattr(scipy.special, "stdtrit",
                            lambda *a: calls.append(a) or stdtrit(*a))
        t = np.linspace(0.0, 5.0, 40)
        fit = fit_log_slope(t, np.exp(0.3 * t + 0.1 * np.sin(7.0 * t)))
        assert calls == []
        q = stdtrit(38, 0.975)
        assert (fit.ci_low, fit.ci_high) == (fit.slope - q * fit.se,
                                             fit.slope + q * fit.se)
        assert fit.positive and not fit.negative
        assert calls == [(38, 0.975)]

    def test_lyapunov_fit_loads_scipy_only_for_a_ci(self):
        path = os.environ.get("PYTHONPATH")
        done = subprocess.run(
            [sys.executable, "-c", LAZY_CI_RUN], capture_output=True,
            text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC) + (
                os.pathsep + path if path else "")})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]

    def test_lyapunov_fit_windows(self):
        times = np.linspace(0.0, 4.0, 41)
        series = MomentSeries(times=times, sup_mean=np.exp(2 * times),
                              sup_se=np.zeros(41), inf_mean=np.exp(times),
                              inf_se=np.zeros(41), p=2.0, replicas=10)
        fit = lyapunov_fit(series)
        assert fit.upper.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.lower.slope == pytest.approx(1.0, abs=1e-9)
        assert fit.window == (2.0, 4.0)


def synthetic_surface():
    """M(t, x) = e^t (1 + |x|)^(-2), peaked at the origin."""
    x = np.linspace(-400.0, 400.0, 4001)
    t = np.linspace(0.0, 5.0, 51)
    mean = np.exp(t)[:, None] * (1.0 + np.abs(x))[None, :] ** -2.0
    return MomentSurface(times=t, x=x, mean=mean, se=0.01 * mean, p=1.0,
                         replicas=100)


def looped_scan(surface, eta_grid, r):
    """Reference (values, empty) of `growth_index_scan`: one region at a
    time, as a double loop over (eta, t)."""
    eta_grid = np.asarray(sorted(eta_grid), dtype=float)
    absx = np.abs(surface.x)
    values = np.full((len(eta_grid), len(surface.times)), np.nan)
    empty = np.ones_like(values, dtype=bool)
    for i, eta in enumerate(eta_grid):
        for k, tk in enumerate(surface.times):
            mask = absx >= math.exp(eta * tk ** r)
            if tk > 0.0 and mask.any():
                values[i, k] = surface.mean[k, mask].max()
                empty[i, k] = False
    return values, empty


class TestGrowthScan:
    @pytest.mark.parametrize("r", [1.0, 0.5, 0.375, 2.0])
    def test_matches_region_by_region_loop(self, r):
        # cells in +-x pairs; the largest values sit at |x| = 1 = e^0, on
        # the eta = 0 boundary; eta = 1.5 leaves the torus before the horizon
        x = -32.0 + 0.25 * np.arange(256)
        t = np.linspace(0.0, 5.0, 101)
        mean = np.random.default_rng(3).exponential(1.0, (len(t), len(x)))
        mean[:, np.abs(x) == 1.0] = 100.0
        surf = MomentSurface(times=t, x=x, mean=mean, se=0.01 * mean, p=2.0,
                             replicas=10)
        eta = [0.8, 0.0, 0.1, 0.4, 1.5]
        scan = growth_index_scan(surf, eta, r=r)
        values, empty = looped_scan(surf, eta, r)
        assert empty[:, 0].all() and empty[-1].any() and not empty.all()
        assert np.all(values[0, 1:] == 100.0)
        assert np.array_equal(scan.empty, empty)
        assert np.array_equal(scan.values, values, equal_nan=True)

    def test_sign_change_near_half(self):
        # sup_{|x| >= e^{eta t}} M ~ e^{(1 - 2 eta) t}: critical eta = 1/2
        scan = growth_index_scan(synthetic_surface(),
                                 eta_grid=np.arange(0.1, 1.01, 0.1), r=1.0)
        assert scan.eta_low is not None and scan.eta_high is not None
        assert scan.eta_low <= scan.eta_high
        assert 0.3 <= scan.eta_low <= 0.5
        assert 0.5 <= scan.eta_high <= 0.7

    def test_eta_zero_matches_unrestricted_sup(self):
        # with the moment peak outside |x| = 1 the eta = 0 region is inactive
        x = np.linspace(-400.0, 400.0, 4001)
        t = np.linspace(0.0, 5.0, 51)
        mean = np.exp(t)[:, None] * np.exp(-0.5 * (np.abs(x)[None, :] - 3.0) ** 2)
        surf = MomentSurface(times=t, x=x, mean=mean, se=0.01 * mean, p=1.0,
                             replicas=10)
        scan = growth_index_scan(surf, eta_grid=[0.0], r=1.0)
        assert np.allclose(scan.values[0, 1:], mean.max(axis=1)[1:])

    def test_monotone_in_eta(self):
        scan = growth_index_scan(synthetic_surface(),
                                 eta_grid=[0.2, 0.4, 0.6, 0.8], r=1.0)
        for k in range(len(scan.times)):
            col = scan.values[:, k]
            col = col[~np.isnan(col)]
            assert np.all(np.diff(col) <= 1e-12)

    def test_empty_regions_flagged(self):
        # e^{eta t} beyond the domain: flagged, not fatal
        scan = growth_index_scan(synthetic_surface(), eta_grid=[2.0], r=1.0)
        assert scan.empty[0, -1]
        assert np.isnan(scan.values[0, -1])

    def test_subexponential_radius(self):
        surf = synthetic_surface()
        scan = growth_index_scan(surf, eta_grid=[0.5], r=0.5)
        # same data scanned on a slower radius: region is wider, sup larger
        scan1 = growth_index_scan(surf, eta_grid=[0.5], r=1.0)
        k = len(surf.times) - 1
        assert scan.values[0, k] >= scan1.values[0, k]


class TestSimulateMoments:
    GRID = GridSpec(half_width=32.0, n_x=128, horizon=2.0, n_t=100)

    def test_initial_moment_exact(self):
        ms = model(u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        series, surface = quiet_simulate(ms, self.GRID, p=1.2, replicas=8,
                                         seed=0)
        u0 = ms.u0(self.GRID.x)
        assert np.allclose(surface.mean[0], np.abs(u0) ** 1.2)
        assert series.sup_se[0] == 0.0

    def test_sup_dominates_inf(self):
        series, _ = quiet_simulate(model(), self.GRID, p=2.0, replicas=16,
                                   seed=1)
        assert np.all(series.sup_mean >= series.inf_mean)

    def test_aggregator_auto(self):
        s_low, _ = quiet_simulate(model(), self.GRID, p=1.2, replicas=8, seed=0)
        s_high, _ = quiet_simulate(model(), self.GRID, p=2.0, replicas=8, seed=0)
        assert s_low.aggregator == "mean"
        assert s_high.aggregator == "mom"

    def test_inadmissible_p_flagged(self):
        series, _ = quiet_simulate(model(), self.GRID, p=2.5, replicas=8,
                                   seed=0)
        assert not series.admissible

    def test_infinite_variance_flagged(self):
        # alpha = 1.5, d = 1: Var(|X|^p) is finite for p < 1.25 only
        flags = [series.variance_finite for series, _ in quiet_simulate(
            model(), self.GRID, p=(1.2, 1.25, 2.0), replicas=8, seed=0)]
        assert flags == [True, False, False]

    def test_jobs_reduction_matches_serial(self, monkeypatch):
        # one pass at p = 1.2 (mean) and 2.0 (median of means), 7 replicas
        # in 3 blocks: one batch, then chunks of 4 and 3, of 3, 3 and 1,
        # and of 1 each, on up to 7 threads switching every microsecond, so
        # that an addition out of replica order shows; for each kind of
        # step noise
        for noise in NOISES.values():
            def run(jobs):
                return quiet_simulate(model(**noise), self.GRID,
                                      p=(1.2, 2.0), replicas=7, seed=5,
                                      blocks=3, jobs=jobs)
            with monkeypatch.context() as m:
                m.setattr(estimator, "ThreadPoolExecutor", None)  # no thread
                serial = run(1)
            assert [series.aggregator for series, _ in serial] == ["mean",
                                                                   "mom"]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for jobs in (2, 3, 7):
                    for (_, want), (_, got) in zip(serial, run(jobs)):
                        assert np.array_equal(got.mean, want.mean)
                        assert np.array_equal(got.se, want.se)
            finally:
                sys.setswitchinterval(interval)


class TestBatchedEngine:
    """The batched engine against replicas stepped one at a time."""

    GRID = GridSpec(half_width=8.0, n_x=32, horizon=0.5, n_t=20)

    def use_batches_of(self, monkeypatch, size, ms=None):
        ms = ms or model()
        per_replica = estimator._replica_bytes(ms, self.GRID)
        monkeypatch.setattr(estimator, "BATCH_BYTES",
                            size * per_replica + per_replica // 2)
        assert estimator._batch_size(ms, self.GRID) == size

    def test_budget_counts_jumps_not_dense_noise(self):
        # per replica, a step's rows and the expected jumps (640 on the
        # reference grid), not the (n_t, n_x) noise plane
        ms = model()
        assert estimator._batch_size(ms, self.GRID) >= 7
        grid = GridSpec()
        per_replica = estimator._replica_bytes(ms, grid)
        assert per_replica < 8 * grid.n_t * grid.n_x / 20
        assert estimator._batch_size(ms, grid) >= 200
        gauss = ModelSpec(kp=KP15, rho=0.3, levy=ATOMS,
                          sigma=SigmaSpec(kind="linear", slope=1.0),
                          u0=U0Spec(kind="constant", value=1.0))
        assert estimator._replica_bytes(gauss, grid) == \
            per_replica + 8 * grid.n_t * grid.n_x

    @pytest.mark.parametrize("noise, p, aggregator, replicas", [
        pytest.param(noise, p, aggregator, replicas, id="-".join(
            ([] if noise == "sparse" else [noise]) + [str(p), aggregator]
            + ([] if replicas == 7 else [str(replicas)])))
        for noise in NOISES
        for p, aggregator, replicas in ((1.2, "mean", 7), (2.0, "mom", 7),
                                        (1.2, "mean", 200))])
    def test_matches_per_replica_trajectories(self, monkeypatch, noise, p,
                                              aggregator, replicas):
        # 7 replicas in batches 3, 3, 1; 3 blocks hold 3, 2 and 2 replicas.
        # The mean's sums are shifted by replica 0's |X|^p: at 200 replicas
        # the one-pass variance without a shift is off by up to 1e-11 here
        ms = model(u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5),
                   **NOISES[noise])
        self.use_batches_of(monkeypatch, 3, ms)
        series, surface = quiet_simulate(ms, self.GRID, p=p,
                                         replicas=replicas, seed=11,
                                         aggregator=aggregator, blocks=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fields = np.stack([run_trajectory(ms, self.GRID, 11, r)
                               for r in range(replicas)])
        est, se = moment_estimate(fields, p, aggregator=aggregator, blocks=3)
        np.testing.assert_allclose(surface.mean, est, rtol=1e-12, atol=0.0)
        # every replica starts from u0, so the t = 0 spread is rounding
        # residue, which the one- and two-pass formulas leave differently
        assert np.all(surface.se[0] <= 1e-15 * surface.mean[0])
        assert np.all(se[1:] > 0.0)
        np.testing.assert_allclose(surface.se[1:], se[1:], rtol=1e-12, atol=0.0)
        assert series.aggregator == aggregator

    @pytest.mark.parametrize("aggregator, blocks",
                             [("mom", 2), ("mom", 3), ("mean", MOM_BLOCKS)],
                             ids=["2", "3", "mean"])
    def test_mom_surface_independent_of_batches(self, monkeypatch, aggregator,
                                                blocks):
        # each block, and the mean's sums, add their replicas in replica
        # order whatever the batches
        ms = model(u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))

        def surface():
            return quiet_simulate(ms, self.GRID, p=2.0, replicas=7, seed=11,
                                  aggregator=aggregator, blocks=blocks)[1]
        one = surface()
        self.use_batches_of(monkeypatch, 3)
        three = surface()
        assert np.array_equal(one.mean, three.mean)
        assert np.array_equal(one.se, three.se)

    def test_steps_only_replica_chunks(self, monkeypatch):
        # a run with a mean order steps its chunks of replicas and nothing
        # else: batches of 3, 3 and 1 replicas, n_t steps each
        stepped = []
        step = estimator.mild_step
        monkeypatch.setattr(estimator, "mild_step",
                            lambda x, *a: stepped.append(len(x)) or step(x, *a))
        self.use_batches_of(monkeypatch, 3)
        quiet_simulate(model(), self.GRID, p=(1.2, 2.0), replicas=7,
                       seed=11)
        assert sorted(stepped) == sorted([3, 3, 1] * self.GRID.n_t)

    def test_orders_in_one_pass_match_single_runs(self):
        ms = model(u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        both = quiet_simulate(ms, self.GRID, p=(1.2, 2.0), replicas=7,
                              seed=11)
        assert [s.p for s, _ in both] == [1.2, 2.0]
        for p, (series, surface) in zip((1.2, 2.0), both):
            ser1, surf1 = quiet_simulate(ms, self.GRID, p=p, replicas=7,
                                         seed=11)
            assert series.aggregator == ser1.aggregator
            assert np.array_equal(surface.mean, surf1.mean)
            assert np.array_equal(surface.se, surf1.se)

    def test_unknown_aggregator_rejected(self):
        with pytest.raises(DomainError, match="median"):
            quiet_simulate(model(), self.GRID, p=2.0, replicas=7, seed=11,
                           aggregator="median")

    def test_blocks_and_jobs_out_of_range_rejected(self):
        # one block leaves no spread for the SE (NaN), and no job or
        # block at all divided by zero
        for kw in ({"blocks": 1}, {"blocks": 0}, {"jobs": 0}, {"jobs": -1}):
            with pytest.raises(DomainError, match="at least"):
                quiet_simulate(model(), self.GRID, p=2.0, replicas=7,
                               seed=11, **kw)

    def test_blowup_reports_step(self, monkeypatch):
        # the run reports the first chunk in replica order holding a replica
        # that blows up, at the earliest such step in that chunk; stepped
        # alone, replicas 0..6 of seed 4 blow up at steps 10, 8, 12, 13,
        # 16, never and 5.  With one job the chunks are the batches: of 3
        # stop at step 8, one of 7 at step 5.  Two jobs cut 4 and 3, which
        # stop at step 8; seven jobs cut chunks of 1, which stop at step 10
        # (replicas 1 and 6 blow up first, but replica 0 comes first)
        ms = model(slope=1e4)
        steps = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(7):
                try:
                    run_trajectory(ms, self.GRID, 4, r)
                    steps.append(None)
                except BlowupError as err:
                    steps.append(err.step)
        assert steps == [10, 8, 12, 13, 16, None, 5]
        for size, jobs, chunk in ((3, 1, 3), (7, 1, 7), (7, 2, 4), (7, 7, 1)):
            self.use_batches_of(monkeypatch, size)
            chunks = [steps[lo:lo + chunk] for lo in range(0, 7, chunk)]
            first = next(c for c in chunks if any(s is not None for s in c))
            with pytest.raises(BlowupError) as info:
                quiet_simulate(ms, self.GRID, p=2.0, replicas=7, seed=4,
                               jobs=jobs)
            assert info.value.step == min(s for s in first if s is not None)
            assert info.value.value > 1e12


class TestBlockReduction:
    """The median of means reduced a slab at a time, against the
    whole-array expressions."""

    @pytest.mark.parametrize("blocks", [2, 3, 5, 16])
    @pytest.mark.parametrize("slab_rows", [1, 4, None])
    def test_slabs_match_whole_array(self, monkeypatch, blocks, slab_rows):
        # 23 time rows: not a multiple of 4 (None keeps the default height,
        # which holds them all); heavy-tailed sums as under jump noise
        rng = np.random.default_rng(blocks)
        acc = rng.pareto(1.5, size=(23, blocks, 7)) * 10.0 ** rng.integers(
            -3, 4, size=(23, 1, 7))
        bcount = np.bincount(np.arange(4 * blocks + 1) % blocks)
        if slab_rows is not None:
            monkeypatch.setattr(estimator, "_SLAB_BYTES",
                                8 * blocks * 7 * slab_rows)
        est, se = estimator._median_of_means(acc, bcount)
        means = np.moveaxis(acc / bcount[:, None], 1, 0)
        assert np.array_equal(est, np.median(means, axis=0))
        assert np.array_equal(se, math.sqrt(math.pi / 2.0)
                              * means.std(axis=0, ddof=1) / math.sqrt(blocks))

    def test_mom_memory_is_block_sums_plus_a_slab(self):
        # 32 replicas on the reference grid: the (501, 16, 256) block sums
        # are 16 MiB; a whole-array reduction adds three copies of them
        # (the block means, the sort and the spread's temporary), ~3x
        grid = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)
        build_discrete_kernel(KP15, grid, grid.dt)   # cached before tracing
        tracemalloc.start()
        try:
            quiet_simulate(model(), grid, p=2.0, replicas=32, seed=3,
                           aggregator="mom")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (grid.n_t + 1) * MOM_BLOCKS * grid.n_x


class TestRenewalCheck:
    def make_series(self, inf_vals, t_end=5.0):
        n = len(inf_vals)
        times = np.linspace(0.0, t_end, n)
        inf_vals = np.asarray(inf_vals, dtype=float)
        return MomentSeries(times=times, sup_mean=inf_vals * 2.0,
                            sup_se=np.full(n, 0.05), inf_mean=inf_vals,
                            inf_se=np.full(n, 0.05), p=1.2, replicas=50)

    def test_c4_zero_reduces_to_floor(self):
        t = np.linspace(0.0, 5.0, 51)
        series = self.make_series(1.0 + t)
        chk = renewal_check(series, lambda u: np.exp(-u), c3=1.0, c4=0.0)
        assert np.allclose(chk.f, 1.0)
        assert chk.ordered

    def test_exact_self_consistency(self):
        # inf series equal to the comparison solution: margin identically ~ 0
        t = np.linspace(0.0, 5.0, 501)
        f_exact = 2.0 * np.exp(t) - 1.0
        series = self.make_series(f_exact)
        chk = renewal_check(series, lambda u: 2.0 * np.exp(-u), c3=1.0,
                            c4=1.0)
        assert np.abs(chk.margin).max() < 1e-4 * f_exact.max()
        assert chk.ordered

    def test_violated_ordering_detected(self):
        series = self.make_series(np.full(51, 1.0))
        chk = renewal_check(series, lambda u: 2.0 * np.exp(-u), c3=1.0,
                            c4=1.0)
        assert not chk.ordered

    def test_monte_carlo_ordering(self):
        grid = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)
        series, _ = quiet_simulate(model(), grid, p=1.2, replicas=200, seed=42)
        wt = renewal_weight(KP15, ATOMS, 1.2, 1.0, 0.5)
        weight = lambda u: np.interp(u, wt.t, wt.w)   # noqa: E731
        assert renewal_check(series, weight, c3=0.5, c4=0.1).ordered
        # a floor above every inf-moment estimate cannot be dominated
        assert series.inf_mean.max() < 2.0
        assert not renewal_check(series, weight, c3=2.0, c4=0.1).ordered
