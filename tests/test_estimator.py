import math
import warnings

import numpy as np
import pytest

from levyheat import estimator
from levyheat.analytics import ModelSpec, SigmaSpec, U0Spec, renewal_weight
from levyheat.errors import BlowupError, DomainError
from levyheat.estimator import (MOM_BLOCKS, MomentSeries, MomentSurface,
                                calibrate_renewal, fit_log_slope,
                                growth_index_scan, lyapunov_fit, renewal_check,
                                simulate_moments)
from levyheat.kernel import KernelParams
from levyheat.noise import LevyMeasureSpec
from levyheat.solver import GridSpec, run_trajectory

KP15 = KernelParams(d=1, alpha=1.5)
ATOMS = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0), (-1.0, 1.0)))


def model(slope=1.0, u0=None):
    return ModelSpec(kp=KP15, rho=0.0, levy=ATOMS,
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


class TestGrowthScan:
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
        scan = growth_index_scan(surf, eta_grid=[0.0], r=1.0, t_floor=-1.0)
        assert np.allclose(scan.values[0], mean.max(axis=1))

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

    def test_jobs_reduction_matches_serial(self):
        ser1, surf1 = quiet_simulate(model(), self.GRID, p=2.0, replicas=8,
                                     seed=5, jobs=1)
        ser2, surf2 = quiet_simulate(model(), self.GRID, p=2.0, replicas=8,
                                     seed=5, jobs=2)
        assert np.allclose(surf1.mean, surf2.mean)
        assert np.allclose(ser1.sup_mean, ser2.sup_mean)


class TestBatchedEngine:
    """The batched engine against replicas stepped one at a time."""

    GRID = GridSpec(half_width=8.0, n_x=32, horizon=0.5, n_t=20)

    @pytest.fixture
    def batches_of_three(self, monkeypatch):
        plane = 8 * self.GRID.n_t * self.GRID.n_x
        monkeypatch.setattr(estimator, "BATCH_BYTES", 3 * plane + plane // 2)
        assert estimator._batch_size(self.GRID) == 3

    @pytest.mark.parametrize("p, aggregator", [(1.2, "mean"), (2.0, "mom")])
    def test_matches_per_replica_trajectories(self, batches_of_three, p,
                                              aggregator):
        # 7 replicas in batches 3, 3, 1; 3 blocks hold 3, 2 and 2 replicas
        ms = model(u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        series, surface = quiet_simulate(ms, self.GRID, p=p, replicas=7,
                                         seed=11, aggregator=aggregator,
                                         blocks=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fields = np.stack([run_trajectory(ms, self.GRID, 11, r).fields
                               for r in range(7)])
        est, se = moment_estimate(fields, p, aggregator=aggregator, blocks=3)
        np.testing.assert_allclose(surface.mean, est, rtol=1e-12, atol=0.0)
        # every replica starts from u0, so the t = 0 spread is rounding
        # residue, which the one- and two-pass formulas leave differently
        assert np.all(surface.se[0] <= 1e-15 * surface.mean[0])
        assert np.all(se[1:] > 0.0)
        np.testing.assert_allclose(surface.se[1:], se[1:], rtol=1e-12, atol=0.0)
        assert series.aggregator == aggregator

    def test_blowup_reports_step(self, batches_of_three):
        # replicas 0, 1, 2 of seed 4 blow up at steps 12, 10 and 17 when
        # stepped alone; the first batch holds all three
        ms = model(slope=1e4)
        steps = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(3):
                with pytest.raises(BlowupError) as info:
                    run_trajectory(ms, self.GRID, 4, r)
                steps.append(info.value.step)
        assert min(steps) > 0
        with pytest.raises(BlowupError) as info:
            quiet_simulate(ms, self.GRID, p=2.0, replicas=7, seed=4)
        assert info.value.step == min(steps)
        assert info.value.value > 1e12


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
        wt = np.exp(-t)
        chk = renewal_check(series, t, wt, c3=1.0, c4=0.0)
        assert np.allclose(chk.f, 1.0)
        assert chk.ordered

    def test_exact_self_consistency(self):
        # inf series equal to the comparison solution: margin identically ~ 0
        t = np.linspace(0.0, 5.0, 501)
        f_exact = 2.0 * np.exp(t) - 1.0
        series = self.make_series(f_exact)
        chk = renewal_check(series, t, 2.0 * np.exp(-t), c3=1.0, c4=1.0)
        assert np.abs(chk.margin).max() < 1e-4 * f_exact.max()
        assert chk.ordered

    def test_violated_ordering_detected(self):
        t = np.linspace(0.0, 5.0, 51)
        series = self.make_series(np.full(51, 1.0))
        chk = renewal_check(series, t, 2.0 * np.exp(-t), c3=1.0, c4=1.0)
        assert not chk.ordered

    def test_monte_carlo_ordering(self):
        grid = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)
        series, _ = quiet_simulate(model(), grid, p=1.2, replicas=200, seed=42)
        wt = renewal_weight(KP15, ATOMS, 1.2, 1.0, 0.5)
        c3, c4 = calibrate_renewal(series, wt.t, wt.w)
        assert c3 > 0.0 and c4 >= 0.0
        chk = renewal_check(series, wt.t, wt.w, c3, c4)
        assert chk.ordered
