import math
import warnings

import numpy as np
import pytest

from levyheat.analytics import ModelSpec, SigmaSpec, U0Spec, compute_bounds
from levyheat.errors import BlowupError, DomainError, ValidationError
from levyheat.kernel import KernelParams, q_density
from levyheat.noise import IncrementField, LevyMeasureSpec, sample_increments
from levyheat.solver import (GridSpec, build_discrete_kernel, dump_trajectory,
                             heat_flow, heat_step, initial_field, mild_step,
                             picard_solve, run_trajectory, sample_noise,
                             trajectory_csv)

KP15 = KernelParams(d=1, alpha=1.5)
KP1 = KernelParams(d=1, alpha=1.0)
ATOMS = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0), (-1.0, 1.0)))


def model(slope=1.0, u0=None, kp=KP15):
    return ModelSpec(kp=kp, rho=0.0, levy=ATOMS,
                     sigma=SigmaSpec(kind="linear", slope=slope),
                     u0=u0 or U0Spec(kind="constant", value=1.0))


def quiet_run(*args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_trajectory(*args, **kw)


class TestGridSpec:
    def test_derived_quantities(self):
        g = GridSpec(half_width=8.0, n_x=16, horizon=2.0, n_t=10)
        assert g.dx == pytest.approx(1.0)
        assert g.dt == pytest.approx(0.2)
        assert g.x[0] == -8.0 and g.x[-1] == 7.0
        assert len(g.times) == 11

    def test_power_of_two_required(self):
        with pytest.raises(ValidationError):
            GridSpec(half_width=8.0, n_x=100, horizon=1.0, n_t=10)

    def test_containment_heuristic(self):
        assert GridSpec(half_width=32.0, n_x=64, horizon=5.0,
                        n_t=10).containment_ok(1.5)
        assert not GridSpec(half_width=4.0, n_x=64, horizon=5.0,
                            n_t=10).containment_ok(1.5)


class TestInitialField:
    def test_constant(self):
        g = GridSpec(half_width=8.0, n_x=16, horizon=1.0, n_t=4)
        u = initial_field(model(), g)
        assert np.all(u == 1.0)

    def test_poly_decay_value(self):
        g = GridSpec(half_width=8.0, n_x=16, horizon=1.0, n_t=4)
        ms = model(u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        u = initial_field(ms, g)
        j = int(np.where(g.x == 3.0)[0][0])
        assert u[j] == pytest.approx((1.0 + 3.0) ** -0.5, rel=1e-14)

    def test_even_on_torus(self):
        g = GridSpec(half_width=8.0, n_x=32, horizon=1.0, n_t=4)
        ms = model(u0=U0Spec(kind="poly_decay", c0=2.0, decay_c=0.3))
        u = initial_field(ms, g)
        n = g.n_x
        for j in range(1, n):
            assert u[j] == pytest.approx(u[(n - j) % n], rel=1e-14)


class TestDiscreteKernel:
    def test_weights_sum_to_one(self):
        g = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)
        dk = build_discrete_kernel(KP15, g, g.dt)
        assert dk.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(dk.weights >= 0.0)

    def test_cauchy_midpoint_matches_cell_integral(self):
        # resolved regime: midpoint mass vs arctan differences, pre-wrap
        g = GridSpec(half_width=8.0, n_x=1024, horizon=2.0, n_t=1)
        dk = build_discrete_kernel(KP1, g, 2.0)
        off = np.arange(1024.0)
        off[off > 512] -= 1024
        y = off * g.dx
        exact = (np.arctan((y + g.dx / 2) / 2.0)
                 - np.arctan((y - g.dx / 2) / 2.0)) / math.pi
        assert np.abs(dk.base_weights - exact).max() < 1e-6

    def test_center_weight_order(self):
        g = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)
        dk = build_discrete_kernel(KP15, g, g.dt)
        ref = min(1.0, q_density(KP15, g.dt, 0.0) * g.dx)
        assert 1.0 / 3.0 < dk.weights[0] / ref < 3.0

    def test_image_mass_reported(self):
        g = GridSpec(half_width=8.0, n_x=64, horizon=4.0, n_t=4)
        dk = build_discrete_kernel(KP15, g, 1.0)
        assert 0.0 < dk.image_mass < 0.2


class TestHeatStep:
    def setup_method(self):
        self.grid = GridSpec(half_width=16.0, n_x=128, horizon=1.0, n_t=20)
        self.dk = build_discrete_kernel(KP15, self.grid, self.grid.dt)

    def test_constant_field_fixed(self):
        out = heat_step(np.ones(128), self.dk)
        assert np.abs(out - 1.0).max() < 1e-14

    def test_delta_becomes_weights(self):
        delta = np.zeros(128)
        delta[11] = 1.0
        out = heat_step(delta, self.dk)
        assert np.abs(out - np.roll(self.dk.weights, 11)).max() < 1e-15

    def test_semigroup_two_steps(self):
        bump = np.exp(-0.5 * (self.grid.x / 2.0) ** 2)
        dk_half = build_discrete_kernel(KP15, self.grid, 0.05)
        dk_full = build_discrete_kernel(KP15, self.grid, 0.10)
        two = heat_step(heat_step(bump, dk_half), dk_half)
        one = heat_step(bump, dk_full)
        assert np.abs(two - one).max() <= 1e-3

    def test_mean_preserved_exactly(self):
        rng = np.random.default_rng(1)
        f = rng.exponential(1.0, 128)
        out = heat_step(f, self.dk)
        assert out.mean() == pytest.approx(f.mean(), rel=1e-14)

    def test_nonnegativity(self):
        rng = np.random.default_rng(2)
        f = rng.exponential(1.0, 128)
        assert heat_step(f, self.dk).min() > -1e-12


class TestSimulationCore:
    GRID = GridSpec(half_width=16.0, n_x=64, horizon=1.0, n_t=40)

    def test_heat_flow_matches_iterated_steps(self):
        ms = model(u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        dk = build_discrete_kernel(KP15, self.GRID, self.GRID.dt)
        flow = heat_flow(ms, self.GRID, dk)
        x = initial_field(ms, self.GRID)
        assert np.array_equal(flow[0], x)
        for k in range(1, self.GRID.n_t + 1):
            x = heat_step(x, dk)
            np.testing.assert_allclose(flow[k], x, rtol=1e-12, atol=0.0)

    def test_noise_matches_per_replica_increments(self):
        # asymmetric atoms, so the drift and compensator terms are nonzero
        levy = LevyMeasureSpec(variant="atoms", atoms=((2.0, 0.5), (-0.5, 1.0)))
        ms = ModelSpec(kp=KP15, rho=0.3, levy=levy,
                       sigma=SigmaSpec(kind="linear", slope=1.0),
                       u0=U0Spec(kind="constant", value=1.0))
        assert ms.b != 0.0
        replicas = [4, 0, 9]
        buf = np.full((self.GRID.n_t, 5, self.GRID.n_x), np.nan)
        dlam = sample_noise(ms, self.GRID, 21, replicas, out=buf)
        assert dlam.shape == (self.GRID.n_t, 3, self.GRID.n_x)
        for i, r in enumerate(replicas):
            incr = sample_increments(levy, self.GRID.noise_grid(21, r), rho=0.3)
            assert np.array_equal(dlam[:, i], incr.combined(b=ms.b))

    def test_picard_blowup_reports_first_step_and_cell(self):
        ms = model()
        grid, guard = self.GRID, 3.0
        dk = build_discrete_kernel(KP15, grid, grid.dt)
        dlam = sample_noise(ms, grid, 5, range(4))
        # the first sweep by hand: X^1 = Q(X^1 + sigma(X^0) dLambda / dx)
        x0 = heat_flow(ms, grid, dk)
        x = np.tile(x0[0], (4, 1))
        for k in range(grid.n_t):
            x = heat_step(x + ms.sigma(x0[k]) * dlam[k] / grid.dx, dk)
            if np.abs(x).max() > guard:
                cell = int(np.argmax(np.abs(x)) % grid.n_x)
                break
        assert cell != 0
        with pytest.raises(BlowupError) as info:
            picard_solve(ms, grid, seed=5, replicas=4, n_iter=2, beta=1.0,
                         c=0.0, p=2.0, guard=guard)
        assert (info.value.step, info.value.cell) == (k, cell)
        assert info.value.value == pytest.approx(np.abs(x).max(), rel=1e-12)


class TestMildStep:
    def setup_method(self):
        self.grid = GridSpec(half_width=16.0, n_x=128, horizon=1.0, n_t=20)
        self.dk = build_discrete_kernel(KP15, self.grid, self.grid.dt)

    def test_zero_noise_reduces_to_heat(self):
        f = np.exp(-0.5 * (self.grid.x / 3.0) ** 2)
        out = mild_step(f, self.dk, model(slope=7.3), np.zeros(128),
                        self.grid.dx, 0)
        assert np.array_equal(out, heat_step(f, self.dk))

    def test_sigma_zero_decouples_noise(self):
        f = np.exp(-0.5 * (self.grid.x / 3.0) ** 2)
        noise = np.random.default_rng(0).normal(size=128)
        out = mild_step(f, self.dk, model(slope=0.0), noise, self.grid.dx, 0)
        assert np.allclose(out, heat_step(f, self.dk))

    def test_blowup_guard(self):
        f = np.full(128, 1.0)
        with pytest.raises(BlowupError):
            mild_step(f, self.dk, model(slope=1.0), np.full(128, 1e15),
                      self.grid.dx, 0)


class TestTrajectory:
    GRID = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)

    def test_single_jump_closed_form(self):
        grid = self.GRID
        dk = build_discrete_kernel(KP15, grid, grid.dt)
        ms = ModelSpec(kp=KP15, rho=0.0, levy=ATOMS,
                       sigma=SigmaSpec(kind="affine", slope=0.0, intercept=1.0),
                       u0=U0Spec(kind="constant", value=0.0))
        jump = np.zeros((grid.n_t, grid.n_x))
        jump[0, 40] = 1.0
        incr = IncrementField(grid=grid.noise_grid(0, 0), jump_sum=jump,
                              compensator=0.0, gaussian=0.0)
        traj = quiet_run(ms, grid, seed=0, replica=0, increments=incr)
        expect = np.roll(dk.weights, 40) / grid.dx
        assert np.abs(traj.fields[1] - expect).max() < 1e-14

    def test_initial_condition_kept(self):
        traj = quiet_run(model(), self.GRID, seed=4, replica=0)
        assert np.all(traj.fields[0] == 1.0)
        assert np.all(np.isfinite(traj.fields))

    def test_conservation_with_sigma_zero(self):
        ms = model(slope=0.0, u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        g = GridSpec(half_width=16.0, n_x=128, horizon=1.0, n_t=50)
        traj = quiet_run(ms, g, seed=5, replica=0)
        means = traj.fields.mean(axis=1)
        assert np.abs(means - means[0]).max() < 1e-12

    def test_heat_flow_positivity(self):
        ms = model(slope=0.0, u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        g = GridSpec(half_width=16.0, n_x=128, horizon=1.0, n_t=50)
        traj = quiet_run(ms, g, seed=5, replica=0)
        assert traj.fields.min() >= -1e-15

    def test_determinism(self):
        t1 = quiet_run(model(), self.GRID, seed=11, replica=2)
        t2 = quiet_run(model(), self.GRID, seed=11, replica=2)
        assert np.array_equal(t1.fields, t2.fields)

    def test_linear_scaling_covariance(self):
        t1 = quiet_run(model(u0=U0Spec(kind="constant", value=1.0)),
                       self.GRID, seed=11, replica=2)
        t2 = quiet_run(model(u0=U0Spec(kind="constant", value=2.0)),
                       self.GRID, seed=11, replica=2)
        assert np.array_equal(t2.fields, 2.0 * t1.fields)

    def test_refinement_consistency(self):
        # default smoke test: resolved regime, kernel width comparable to dx
        ms = model(slope=0.0, u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        coarse = quiet_run(ms, GridSpec(half_width=16.0, n_x=256,
                                        horizon=1.0, n_t=16), seed=0, replica=0)
        fine = quiet_run(ms, GridSpec(half_width=16.0, n_x=512,
                                      horizon=1.0, n_t=32), seed=0, replica=0)
        diff = np.abs(coarse.fields[-1] - fine.fields[-1][::2]).max()
        assert diff <= 1e-3

    def test_dumps(self, tmp_path):
        g = GridSpec(half_width=8.0, n_x=16, horizon=0.5, n_t=5)
        traj = quiet_run(model(), g, seed=1, replica=0)
        dump_trajectory(traj, tmp_path / "t.bin")
        trajectory_csv(traj, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "t,x,X"
        assert len(lines) == 1 + 6 * 16


class TestPicard:
    GRID = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)

    def test_sigma_zero_fixed_point_immediately(self):
        rep = picard_solve(model(slope=0.0), self.GRID, seed=3, replicas=4,
                           n_iter=3, beta=10.0, c=0.0, p=2.0)
        assert np.all(np.isinf(rep.log_d))       # all decrements exactly zero
        assert rep.contraction_ok

    def test_zero_noise_replica(self):
        # noise-free increments: stochastic convolutions vanish identically
        ms = model(slope=1.0)
        tiny = LevyMeasureSpec(variant="atoms", atoms=((1e-12, 1e-12),))
        ms_quiet = ModelSpec(kp=KP15, rho=0.0, levy=tiny,
                             sigma=SigmaSpec(kind="linear", slope=1.0),
                             u0=U0Spec(kind="constant", value=1.0))
        rep = picard_solve(ms_quiet, GridSpec(half_width=32.0, n_x=64,
                                              horizon=1.0, n_t=50),
                           seed=3, replicas=4, n_iter=2, beta=10.0, c=0.0, p=2.0)
        # with overwhelming probability no jump is sampled at this rate
        assert np.all(np.isinf(rep.log_d))

    def test_contraction_at_certified_beta(self):
        ms = model()
        b0 = compute_bounds(ms, 0.0, 2.0).beta0
        rep = picard_solve(ms, self.GRID, seed=3, replicas=16, n_iter=4,
                           beta=2.0 * b0, c=0.0, p=2.0)
        assert rep.contraction_ok
        ratios = np.diff(rep.log_d)
        assert np.all(ratios < math.log(0.5))

    def test_needs_two_iterates(self):
        with pytest.raises(DomainError):
            picard_solve(model(), self.GRID, seed=0, replicas=2, n_iter=1,
                         beta=1.0, c=0.0, p=2.0)
