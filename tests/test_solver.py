import dataclasses
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from levyheat.analytics import ModelSpec, SigmaSpec, U0Spec, compute_bounds
from levyheat.errors import BlowupError, DomainError, ValidationError
from levyheat.kernel import (TAIL_START, KernelParams, get_profile,
                             q_density, tail_coefficient)
from levyheat.noise import LevyMeasureSpec, sample_jumps
from levyheat import kernel, solver
from levyheat.cli import dump_trajectory, trajectory_csv
from levyheat.config import ExperimentConfig
from levyheat.solver import (GridSpec, build_discrete_kernel, heat_step,
                             mild_step, picard_solve, run_trajectory,
                             sample_noise)
from test_kernel import quadpack_profile

KP15 = KernelParams(d=1, alpha=1.5)
KP1 = KernelParams(d=1, alpha=1.0)
ATOMS = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0), (-1.0, 1.0)))


def model(slope=1.0, u0=None, kp=KP15):
    return ModelSpec(kp=kp, rho=0.0, levy=ATOMS,
                     sigma=SigmaSpec(kind="linear", slope=slope),
                     u0=u0 or U0Spec(kind="constant", value=1.0))


def dense_step(step, shape):
    """The two terms of one `sample_noise` step as two arrays of the
    plane's `shape`: the dense term in every cell (zeros when it is None),
    and zeros with the jump sums written in at the jump cells."""
    pos, vals, dense = step
    jumps = np.zeros(math.prod(shape))
    jumps[pos] = vals
    return (np.broadcast_to(0.0 if dense is None else dense,
                            jumps.shape).reshape(shape),
            jumps.reshape(shape))


def dense(plane):
    """A noise step without jump cells whose dense term is `plane`."""
    return np.empty(0, dtype=np.intp), np.empty(0), plane.reshape(-1)


def dense_noise(noise, shape):
    """The (n_t, *shape) array of every step's dLambda, each cell's dense
    term plus its jump sum."""
    return np.stack([sum(dense_step(step, shape)) for step in noise])


def stepped_flow(ms, grid, dk):
    """The noise-free flow of u0, (n_t + 1, n_x): n_t `heat_step`s."""
    rows = [ms.u0(grid.x)]
    for _ in range(grid.n_t):
        rows.append(heat_step(rows[-1], dk))
    return np.array(rows)


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

    @pytest.mark.parametrize("bad", [dict(half_width=0.0), dict(half_width=-1.0),
                                     dict(horizon=0.0), dict(horizon=-1.0),
                                     dict(n_t=0)])
    def test_degenerate_extent_rejected(self, bad):
        with pytest.raises(ValidationError):
            GridSpec(**{**dict(half_width=8.0, n_x=16, horizon=1.0, n_t=10),
                        **bad})

    def test_containment_heuristic(self):
        assert GridSpec(half_width=32.0, n_x=64, horizon=5.0,
                        n_t=10).containment_ok(1.5)
        assert not GridSpec(half_width=4.0, n_x=64, horizon=5.0,
                            n_t=10).containment_ok(1.5)


class TestInitialField:
    def test_constant(self):
        g = GridSpec(half_width=8.0, n_x=16, horizon=1.0, n_t=4)
        u = model().u0(g.x)
        assert np.all(u == 1.0)

    def test_poly_decay_value(self):
        g = GridSpec(half_width=8.0, n_x=16, horizon=1.0, n_t=4)
        ms = model(u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        u = ms.u0(g.x)
        j = int(np.where(g.x == 3.0)[0][0])
        assert u[j] == pytest.approx((1.0 + 3.0) ** -0.5, rel=1e-14)

    def test_even_on_torus(self):
        g = GridSpec(half_width=8.0, n_x=32, horizon=1.0, n_t=4)
        ms = model(u0=U0Spec(kind="poly_decay", c0=2.0, decay_c=0.3))
        u = ms.u0(g.x)
        n = g.n_x
        for j in range(1, n):
            assert u[j] == pytest.approx(u[(n - j) % n], rel=1e-14)


def image_sum_error() -> float:
    """Largest relative gap of `solver._hurwitz_zeta` to scipy's zeta on 200
    alphas in [0.01, 1.999] and 257 second arguments in [1/2, 3/2]."""
    from scipy.special import zeta
    a = np.linspace(0.5, 1.5, 257)
    return max(np.abs(solver._hurwitz_zeta(1.0 + alpha, a)
                      / zeta(1.0 + alpha, a) - 1.0).max()
               for alpha in np.linspace(0.01, 1.999, 200))


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

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 1.5, 1.9])
    def test_zeta_images_match_brute_force(self, alpha):
        # reference: first-term tail images summed over k <= K, plus the
        # midpoint-rule remainder int_{K+1/2}^inf (2Lk +- y)^(-1-alpha) dk;
        # its own error, about (1+alpha)/24 K^(-2-alpha) of (2L)^(-1-alpha),
        # is 2e-9 relative at alpha = 0.2 with K = 1000, so K = 10000
        g = GridSpec(half_width=8.0, n_x=64, horizon=4.0, n_t=4)
        kp = KernelParams(d=1, alpha=alpha)
        dk = build_discrete_kernel(kp, g, 1.0)
        off = np.arange(64.0)
        off[off > 32] -= 64
        y = off * g.dx
        two_l, big_k = 2.0 * g.half_width, 10_000
        k = np.arange(1, big_k + 1)[:, None]
        part = ((two_l * k + y) ** (-1.0 - alpha)
                + (two_l * k - y) ** (-1.0 - alpha)).sum(axis=0)
        rest = ((two_l * (big_k + 0.5) + y) ** -alpha
                + (two_l * (big_k + 0.5) - y) ** -alpha) / (two_l * alpha)
        image = tail_coefficient(alpha, 1) * g.dx * (part + rest)
        total = (dk.base_weights + image).sum()
        assert dk.image_mass == pytest.approx(image.sum() / total, rel=1e-9)
        np.testing.assert_allclose(dk.weights, (dk.base_weights + image) / total,
                                   rtol=1e-9, atol=0.0)

    def test_image_sum_matches_scipy_zeta(self):
        # the numpy image series against Cephes' Hurwitz zeta over the
        # kernel's whole range: s = 1 + alpha in (1, 3), a = 1 +- y/2L
        assert image_sum_error() < 2e-15

    @pytest.mark.parametrize("terms, coeffs", [(12, 4), (8, 6)])
    def test_image_sum_bound_can_fail(self, monkeypatch, terms, coeffs):
        # fewer Bernoulli terms (3.2e-14) or direct terms (5.3e-15) miss it
        monkeypatch.setattr(solver, "_ZETA_TERMS", terms)
        monkeypatch.setattr(solver, "_ZETA_EM", solver._ZETA_EM[:coeffs])
        assert image_sum_error() > 2e-15

    def test_image_mass_reported(self):
        g = GridSpec(half_width=8.0, n_x=64, horizon=4.0, n_t=4)
        dk = build_discrete_kernel(KP15, g, 1.0)
        assert 0.0 < dk.image_mass < 0.2

    @pytest.mark.parametrize("alpha, n_x", [(1.5, 256), (1.2, 1024),
                                            (1.9, 256), (0.8, 4096)])
    def test_base_weights_are_the_inversion_at_cell_radii(self, alpha, n_x):
        # interpolating the profile misses these by 6e-9 to 3e-7
        g = GridSpec(half_width=32.0, n_x=n_x, horizon=5.0, n_t=500)
        dk = build_discrete_kernel(KernelParams(d=1, alpha=alpha), g, g.dt)
        scale = g.dt ** (-1.0 / alpha)
        r = np.arange(n_x // 2 + 1) * g.dx * scale
        m = np.flatnonzero(r <= TAIL_START)
        assert len(m) == min(n_x // 2 + 1,
                             math.floor(TAIL_START / (g.dx * scale)) + 1)
        values = get_profile(alpha).values(r[m])
        np.testing.assert_array_equal(dk.base_weights[m], scale * values * g.dx)
        # and QUADPACK's, independent of the ray rule, within the profile's
        # cross-check (worst 3e-11 relative, at alpha = 1.9)
        np.testing.assert_allclose(dk.base_weights[m] / (scale * g.dx),
                                   [quadpack_profile(alpha, x) for x in r[m]],
                                   rtol=1e-10, atol=1e-15)
        np.testing.assert_array_equal(dk.base_weights[-m[1:]], dk.base_weights[m[1:]])

    def test_kernel_is_cached_and_read_only(self):
        g = GridSpec(half_width=8.0, n_x=64, horizon=4.0, n_t=4)
        dk = build_discrete_kernel(KP15, g, 1.0)
        # the key is (alpha, n_x, L, dt): the horizon does not enter
        same = GridSpec(half_width=8.0, n_x=64, horizon=2.0, n_t=2)
        assert build_discrete_kernel(KernelParams(d=1, alpha=1.5), same, 1.0) is dk
        assert build_discrete_kernel(KP15, g, 0.5) is not dk
        for arr in (dk.weights, dk.base_weights, dk.spectrum):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dk.weights = np.ones(64)

    def test_trajectories_share_one_build(self, monkeypatch):
        # alpha = 1.45 is built nowhere else, so the first call is cold
        calls = []
        ray = kernel._ray_inversion

        def counted(alpha, r):
            calls.append(r)
            return ray(alpha, r)

        monkeypatch.setattr(kernel, "_ray_inversion", counted)
        ms = model(kp=KernelParams(d=1, alpha=1.45))
        grid = GridSpec(half_width=16.0, n_x=64, horizon=1.0, n_t=40)
        counts = []
        for replica in range(3):
            run_trajectory(ms, grid, 5, replica)
            counts.append(len(calls))
        assert counts == [1, 1, 1]

    def test_cold_build_builds_no_spline(self):
        # alpha = 1.35 is evaluated nowhere else
        g = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)
        build_discrete_kernel(KernelParams(d=1, alpha=1.35), g, g.dt)
        assert get_profile(1.35)._spline is None


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

    def test_noise_matches_per_replica_increments(self):
        # asymmetric atoms, so the drift and compensator terms are nonzero:
        # every step's dense term is base plus the Gaussian planes, or the
        # float base alone
        levy = LevyMeasureSpec(variant="atoms", atoms=((2.0, 0.5), (-0.5, 1.0)))
        grid, replicas, n_x = self.GRID, [4, 0, 9], self.GRID.n_x
        cell = grid.dt * grid.dx
        for rho in (0.3, 0.0):
            ms = ModelSpec(kp=KP15, rho=rho, levy=levy,
                           sigma=SigmaSpec(kind="linear", slope=1.0),
                           u0=U0Spec(kind="constant", value=1.0))
            base = (0.0 - cell * levy.first_moment()) + ms.b * grid.dt * grid.dx
            assert ms.b != 0.0 and base != 0.0
            noise = sample_noise(ms, grid, 21, replicas)
            steps = list(noise)
            assert len(steps) == grid.n_t
            assert next(noise, None) is None                  # one pass
            assert all(np.all(np.diff(pos) > 0) for pos, _, _ in steps)
            if rho > 0.0:                 # rows of one array, not copies
                assert all(d.base is steps[0][2].base for _, _, d in steps)
            for i, r in enumerate(replicas):
                # the replica's stream redrawn by hand: jumps, then the
                # Gaussian plane
                rng = grid.noise_grid(21, r)
                cells, sums = sample_jumps(levy, rng, cell, grid.n_t * n_x)
                assert len(cells) > 0
                if rho > 0.0:
                    gauss = rho * math.sqrt(cell) * rng.standard_normal(
                        (grid.n_t, n_x)) + base
                for k, (pos, vals, dense) in enumerate(steps):
                    mine, here = pos // n_x == i, cells // n_x == k
                    assert np.array_equal(pos[mine] % n_x, cells[here] % n_x)
                    assert np.array_equal(vals[mine], sums[here])
                    if rho > 0.0:
                        assert np.array_equal(dense.reshape(3, n_x)[i],
                                              gauss[k])
                    else:
                        assert type(dense) is float and dense == base

    def test_gaussian_part_scaled_by_rho(self):
        grid = GridSpec(half_width=32.0, n_x=256, horizon=8.0, n_t=200)
        cell = grid.dt * grid.dx
        ms = ModelSpec(kp=KP15, rho=0.7, levy=ATOMS,
                       sigma=SigmaSpec(kind="linear", slope=1.0),
                       u0=U0Spec(kind="constant", value=1.0))
        # the symmetric atoms leave no compensator or drift, so every
        # cell's dense term is its Gaussian term alone
        gauss = np.concatenate([dense for _, _, dense
                                in sample_noise(ms, grid, 3, [0])])
        assert gauss.size == grid.n_t * grid.n_x
        assert gauss.std() == pytest.approx(0.7 * math.sqrt(cell), rel=0.02)
        assert all(dense is None
                   for _, _, dense in sample_noise(model(), grid, 3, [0]))

    def test_gaussian_planes_held_once(self):
        # each replica's plane is drawn into its slice of one array, and
        # base is added to it in place; a list of planes stacked into a
        # copy would hold them twice at its peak
        grid, replicas = GridSpec(half_width=16.0, n_x=64, horizon=1.0,
                                  n_t=200), 16
        levy = LevyMeasureSpec(variant="atoms", atoms=((2.0, 0.5), (-0.5, 1.0)))
        ms = ModelSpec(kp=KP15, rho=0.3, levy=levy,
                       sigma=SigmaSpec(kind="linear", slope=1.0),
                       u0=U0Spec(kind="constant", value=1.0))
        tracemalloc.start()
        try:
            noise = sample_noise(ms, grid, 3, range(replicas))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert next(noise)[2] is not None
        assert peak <= 1.25 * 8 * grid.n_t * grid.n_x * replicas

    def test_negative_rho_rejected(self):
        with pytest.raises(DomainError):
            ModelSpec(kp=KP15, rho=-1.0, levy=ATOMS,
                      sigma=SigmaSpec(kind="linear", slope=1.0),
                      u0=U0Spec(kind="constant", value=1.0))

    def test_picard_blowup_reports_first_step_and_cell(self, monkeypatch):
        ms = model()
        grid, guard = self.GRID, 3.0
        monkeypatch.setattr(solver, "BLOWUP_GUARD", guard)
        dk = build_discrete_kernel(KP15, grid, grid.dt)
        dlam = dense_noise(sample_noise(ms, grid, 5, range(4)), (4, grid.n_x))
        # the one sweep by hand, X^1 and X^2 stepped together:
        # X^{n+1} = Q(X^{n+1} + sigma(X^n) dLambda / dx); the first step at
        # which either passes the guard reports the largest |X| of both
        x0 = stepped_flow(ms, grid, dk)
        x1 = x2 = np.tile(x0[0], (4, 1))
        for k in range(grid.n_t):
            x1, x2 = (heat_step(x1 + ms.sigma(x0[k]) * dlam[k] / grid.dx, dk),
                      heat_step(x2 + ms.sigma(x1) * dlam[k] / grid.dx, dk))
            both = np.abs(np.stack([x1, x2]))
            if both.max() > guard:
                cell = int(np.argmax(both) % grid.n_x)
                break
        assert cell != 0
        with pytest.raises(BlowupError) as info:
            picard_solve(ms, grid, seed=5, replicas=4, n_iter=2, beta=1.0,
                         c=0.0, p=2.0)
        assert (info.value.step, info.value.cell) == (k, cell)
        assert info.value.value == pytest.approx(both.max(), rel=1e-12)


class TestMildStep:
    def setup_method(self):
        self.grid = GridSpec(half_width=16.0, n_x=128, horizon=1.0, n_t=20)
        self.dk = build_discrete_kernel(KP15, self.grid, self.grid.dt)

    def test_zero_noise_reduces_to_heat(self):
        f = np.exp(-0.5 * (self.grid.x / 3.0) ** 2)
        out = mild_step(f.copy(), self.dk, model(slope=7.3),
                        dense(np.zeros(128)), self.grid.dx, 0)
        assert np.array_equal(out, heat_step(f, self.dk))

    def test_sigma_zero_decouples_noise(self):
        f = np.exp(-0.5 * (self.grid.x / 3.0) ** 2)
        noise = np.random.default_rng(0).normal(size=128)
        out = mild_step(f.copy(), self.dk, model(slope=0.0), dense(noise),
                        self.grid.dx, 0)
        assert np.allclose(out, heat_step(f, self.dk))

    def test_blowup_guard(self):
        f = np.full(128, 1.0)
        with pytest.raises(BlowupError):
            mild_step(f, self.dk, model(slope=1.0), dense(np.full(128, 1e15)),
                      self.grid.dx, 0)

    def test_blowup_on_a_non_finite_row(self):
        # 1 + 1e308 / dx overflows in every cell: the row turns NaN
        with pytest.raises(BlowupError) as info, np.errstate(all="ignore"):
            mild_step(np.ones(128), self.dk, model(),
                      dense(np.full(128, 1e308)), self.grid.dx, 0)
        assert (info.value.step, info.value.cell) == (0, 0)
        assert math.isnan(info.value.value)

    def test_trajectory_overflow_raises_blowup(self):
        # sigma(1) dLambda / dx = 4e308 at the first jump cell
        with pytest.raises(BlowupError) as info:
            quiet_run(model(slope=1e308), self.grid, seed=5, replica=0)
        assert not math.isfinite(info.value.value)

    @pytest.mark.parametrize("case", ["symmetric", "asymmetric", "sigma_at",
                                      "affine", "drift"])
    def test_injection_matches_dense_formula(self, case):
        # each step bit for bit against the two-term formula
        # heat_step(X + sigma(Y) dense / dx + sigma(Y) jumps / dx), with
        # sigma(Y) read from the field before the step
        levy, rho, sigma = ATOMS, 0.0, SigmaSpec(kind="linear", slope=1.0)
        if case in ("asymmetric", "drift"):
            levy = LevyMeasureSpec(variant="atoms",
                                   atoms=((2.0, 0.5), (-0.5, 1.0)))
            rho = 0.3 if case == "asymmetric" else 0.0
        elif case == "affine":
            sigma = SigmaSpec(kind="affine", slope=0.5, intercept=2.0)
        ms = ModelSpec(kp=KP15, rho=rho, levy=levy, sigma=sigma,
                       u0=U0Spec(kind="constant", value=1.0))
        rng = np.random.default_rng(7)
        shape = (2, 3, 128) if case == "sigma_at" else (3, 128)
        jumps = 0
        for k, step in enumerate(sample_noise(ms, self.grid, 9, range(3))):
            assert type(step[2]) is {"asymmetric": np.ndarray,
                                     "drift": float}.get(case, type(None))
            jumps += len(step[0])
            fields = rng.standard_normal(shape)
            below = rng.standard_normal(shape) if case == "sigma_at" else None
            y = fields if below is None else below
            terms = dense_step(step, (3, 128))
            expect = heat_step(fields + ms.sigma(y) * terms[0] / self.grid.dx
                               + ms.sigma(y) * terms[1] / self.grid.dx,
                               self.dk)
            out = mild_step(fields, self.dk, ms, step, self.grid.dx, k,
                            sigma_at=below)
            assert out is fields
            assert np.array_equal(fields, expect)
        assert jumps > 0


class TestTrajectory:
    GRID = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)

    def test_single_jump_closed_form(self):
        grid = self.GRID
        dk = build_discrete_kernel(KP15, grid, grid.dt)
        ms = ModelSpec(kp=KP15, rho=0.0, levy=ATOMS,
                       sigma=SigmaSpec(kind="affine", slope=0.0, intercept=1.0),
                       u0=U0Spec(kind="constant", value=0.0))
        jump = np.array([40]), np.array([1.0]), None
        out = mild_step(ms.u0(grid.x), dk, ms, jump, grid.dx, 0)
        expect = np.roll(dk.weights, 40) / grid.dx
        assert np.abs(out - expect).max() < 1e-14

    def test_initial_condition_kept(self):
        fields = quiet_run(model(), self.GRID, seed=4, replica=0)
        assert fields.shape == (self.GRID.n_t + 1, self.GRID.n_x)
        assert np.all(fields[0] == 1.0)
        assert np.all(np.isfinite(fields))

    def test_conservation_with_sigma_zero(self):
        ms = model(slope=0.0, u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        g = GridSpec(half_width=16.0, n_x=128, horizon=1.0, n_t=50)
        means = quiet_run(ms, g, seed=5, replica=0).mean(axis=1)
        assert np.abs(means - means[0]).max() < 1e-12

    def test_heat_flow_positivity(self):
        ms = model(slope=0.0, u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        g = GridSpec(half_width=16.0, n_x=128, horizon=1.0, n_t=50)
        assert quiet_run(ms, g, seed=5, replica=0).min() >= -1e-15

    def test_table_sigma_matches_linear(self):
        # the table (-B, -2B), (0, 0), (B, 2B) is sigma = 2x on [-B, B]:
        # np.interp gives 2x on [0, B] and 2 (x + B) - 2B, within ulps of
        # 2B, below 0 (the runs part by 6e-12 in fields of up to 1e3)
        big = 2.0 ** 13
        grid = GridSpec(half_width=16.0, n_x=64, horizon=1.0, n_t=40)
        table = dataclasses.replace(model(slope=2.0), sigma=SigmaSpec(
            kind="table", table_x=(-big, 0.0, big),
            table_y=(-2.0 * big, 0.0, 2.0 * big)))
        linear = quiet_run(model(slope=2.0), grid, seed=3, replica=0)
        got = quiet_run(table, grid, seed=3, replica=0)
        assert linear.min() < -1.0 and 1.0 < linear.max() < big
        np.testing.assert_allclose(got, linear, rtol=0.0, atol=1e-10)

    def test_determinism(self):
        t1 = quiet_run(model(), self.GRID, seed=11, replica=2)
        t2 = quiet_run(model(), self.GRID, seed=11, replica=2)
        assert np.array_equal(t1, t2)

    def test_linear_scaling_covariance(self):
        t1 = quiet_run(model(u0=U0Spec(kind="constant", value=1.0)),
                       self.GRID, seed=11, replica=2)
        t2 = quiet_run(model(u0=U0Spec(kind="constant", value=2.0)),
                       self.GRID, seed=11, replica=2)
        assert np.array_equal(t2, 2.0 * t1)

    def test_refinement_consistency(self):
        # default smoke test: resolved regime, kernel width comparable to dx
        ms = model(slope=0.0, u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        coarse = quiet_run(ms, GridSpec(half_width=16.0, n_x=256,
                                        horizon=1.0, n_t=16), seed=0, replica=0)
        fine = quiet_run(ms, GridSpec(half_width=16.0, n_x=512,
                                      horizon=1.0, n_t=32), seed=0, replica=0)
        diff = np.abs(coarse[-1] - fine[-1][::2]).max()
        assert diff <= 1e-3

    def test_dumps(self, tmp_path):
        g = GridSpec(half_width=8.0, n_x=16, horizon=0.5, n_t=5)
        fields = quiet_run(model(), g, seed=1, replica=0)
        cfg = ExperimentConfig()
        dump_trajectory(tmp_path / "t.bin", cfg, fields, g, 1, 0)
        trajectory_csv(tmp_path / "t.csv", cfg, fields, g, 1, 0)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0].startswith("# levyheat=")
        assert lines[0].endswith(" seed=1 replica=0")
        assert lines[1] == "t,x,X"
        assert len(lines) == 2 + 6 * 16
        rows = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=2)
        assert np.array_equal(rows[:, 2], fields.ravel())
        raw = (tmp_path / "t.bin").read_bytes()
        header = struct.unpack_from("<4sQQddqQQ", raw)
        assert header == (b"LVHT", 5, 16, g.dt, g.dx, 1, 0,
                          int(cfg.config_hash(), 16))
        assert np.array_equal(
            np.frombuffer(raw[struct.calcsize("<4sQQddqQQ"):], dtype="<f8"),
            fields.ravel())


def sequential_picard(ms, grid, seed, replicas, n_iter, beta, c, p,
                      target_ratio=0.5):
    """Reference: one whole time sweep per iterate, every iterate kept at
    every step, each decrement reduced after its sweep -- the loop the
    pipelined `picard_solve` replaced; each sweep samples the shared noise
    afresh.  Returns (log_d, rel_se, failures)."""
    dk = build_discrete_kernel(ms.kp, grid, grid.dt)
    current = np.broadcast_to(stepped_flow(ms, grid, dk)[:, None, :],
                              (grid.n_t + 1, replicas, grid.n_x)).copy()
    log_d, rel_se = [], []
    for _ in range(n_iter):
        nxt = np.empty_like(current)
        nxt[0] = current[0]
        for k, dlam in enumerate(sample_noise(ms, grid, seed,
                                              range(replicas))):
            nxt[k + 1] = nxt[k]
            mild_step(nxt[k + 1], dk, ms, dlam, grid.dx, k,
                      sigma_at=current[k])
        diff = nxt - current
        moment = np.mean(np.abs(diff) ** p, axis=1)
        if replicas > 1:
            se = np.std(np.abs(diff) ** p, axis=1, ddof=1) / math.sqrt(replicas)
        else:
            se = np.zeros_like(moment)
        with np.errstate(divide="ignore"):
            logs = (-beta * grid.times[:, None]
                    + c * np.log1p(np.abs(grid.x))[None, :] + np.log(moment) / p)
        k, j = np.unravel_index(int(np.argmax(logs)), logs.shape)
        log_d.append(float(logs[k, j]))
        rel_se.append(float(se[k, j] / moment[k, j] / p)
                      if moment[k, j] > 0 else 0.0)
        current = nxt
    failures = []
    for n in range(n_iter - 1):
        if not (np.isfinite(log_d[n]) and np.isfinite(log_d[n + 1])):
            continue
        slack = 2.0 * (rel_se[n] + rel_se[n + 1])
        if log_d[n + 1] - log_d[n] > math.log(target_ratio + slack):
            failures.append({"n": n, "log_ratio": float(log_d[n + 1] - log_d[n]),
                             "allowed": math.log(target_ratio + slack),
                             "beta": beta})
    return np.array(log_d), np.array(rel_se), failures


class TestPicard:
    GRID = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=500)
    SMALL = GridSpec(half_width=16.0, n_x=64, horizon=1.0, n_t=40)
    # picard-reference: 32 replicas x 5 iterates at beta = 2 beta0, p = 2;
    # 1980452994 is the program seed of the benchmark's harness seed 1
    REFERENCE = dict(seed=1980452994, replicas=32, n_iter=5, c=0.0, p=2.0,
                     target_ratio=0.7)
    NOISES = {"sparse": {}, "gaussian": {"rho": 0.3},
              "drift": {"levy": LevyMeasureSpec(
                  variant="atoms", atoms=((2.0, 0.5), (-0.5, 1.0)))}}
    U0S = {"constant": U0Spec(kind="constant", value=1.0),
           "decay": U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5)}

    def reference_run(self, grid=None):
        ms = model()
        beta = 2.0 * compute_bounds(ms, 0.0, 2.0).beta0
        return picard_solve(ms, grid or self.GRID, beta=beta, **self.REFERENCE)

    @pytest.mark.parametrize("noise, u0, p, c, replicas, beta", [
        pytest.param("sparse", "constant", 2.0, 0.0, 4, 1.0, id="2.0-0.0-4-1.0"),
        pytest.param("sparse", "constant", 1.2, 0.3, 8, 0.5, id="1.2-0.3-8-0.5"),
        pytest.param("sparse", "constant", 2.0, 0.0, 1, 1.0, id="2.0-0.0-1-1.0"),
    ] + [pytest.param(noise, u0, 2.0, 0.0, 4, 1.0, id=f"{noise}-{u0}")
         for noise in ("gaussian", "drift") for u0 in ("constant", "decay")])
    def test_pipeline_matches_sequential_sweeps(self, noise, u0, p, c,
                                                replicas, beta):
        # bit for bit, the se = 0 branch (one replica) and failures included;
        # a dense term (a Gaussian plane, or the float base that asymmetric
        # atoms leave) reads sigma at every cell of the iterate below, whose
        # rows the one iterate array shares with the rows it writes
        ms = dataclasses.replace(model(u0=self.U0S[u0]), **self.NOISES[noise])
        args = (ms, self.SMALL, 5, replicas, 4, beta, c, p)
        rep = picard_solve(*args)
        log_d, rel_se, failures = sequential_picard(*args)
        assert rep.log_d.tolist() == log_d.tolist()
        assert rep.rel_se.tolist() == rel_se.tolist()
        assert rep.failures == failures
        assert rep.contraction_ok == (not failures)
        assert rep.resolved == 4

    def test_memory_does_not_grow_with_steps(self):
        # the parent kept (n_t + 1, 32, 256) arrays: 160 MiB at n_t = 500,
        # 80 MiB at n_t = 250; one more (250, 32, 256) array is 16 MiB
        peaks = []
        for n_t in (250, 500):
            grid = GridSpec(half_width=32.0, n_x=256, horizon=5.0, n_t=n_t)
            build_discrete_kernel(KP15, grid, grid.dt)   # cached before tracing
            tracemalloc.start()
            try:
                self.reference_run(grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 16 * 2 ** 20
        assert peaks[1] - peaks[0] < 2 * 2 ** 20

    def test_rounding_residue_outside_resolved(self, monkeypatch):
        # d_0..d_4 are 1.2, 4.6e-2, 1.1e-7, 5.6e-14 and 3.7e-16 of |X^n| at
        # their cells, so d_3, d_4 fall below solver.FLOAT_FLOOR.  A change
        # of FFT summation order (the field rolled around every heat step)
        # leaves the resolved d_n in place and moves the residue: d_3 is a
        # few ulps of X^3, so one roll can move it by as little as 4e-7 in
        # log, and the largest move over three rolls is what must be big
        rep = self.reference_run()
        assert rep.resolved == 3 and rep.contraction_ok

        moves = []
        for shift in (1, 37, 101):
            def rolled(fields, dk, out=None, shift=shift):
                stepped = heat_step(np.roll(fields, shift, axis=-1), dk, out=out)
                stepped[...] = np.roll(stepped, -shift, axis=-1)
                return stepped

            monkeypatch.setattr(solver, "heat_step", rolled)
            moves.append(np.abs(self.reference_run().log_d - rep.log_d))
        moved = np.max(moves, axis=0)
        assert np.all(moved[:rep.resolved] < 1e-6)
        assert np.all(moved[rep.resolved:] > 1e-3)

    def test_decrement_of_a_zero_iterate_is_resolved(self):
        # u0 = 0 and sigma = 1 + x: X^0 = 0, so d_0 is infinitely many
        # times |X^0| and counts as resolved
        ms = ModelSpec(kp=KP15, rho=0.0, levy=ATOMS,
                       sigma=SigmaSpec(kind="affine", slope=1.0, intercept=1.0),
                       u0=U0Spec(kind="constant", value=0.0))
        rep = picard_solve(ms, self.SMALL, seed=5, replicas=4, n_iter=3,
                           beta=1.0, c=0.0, p=2.0)
        assert np.all(np.isfinite(rep.log_d))
        assert rep.resolved == 3

    def test_non_contracting_setup_fails(self):
        # beta = 0.1 is far below beta0: the decrements grow, and a target
        # ratio of 1e-3 leaves only the statistical slack
        rep = picard_solve(model(), self.SMALL, seed=5, replicas=16, n_iter=4,
                           beta=0.1, c=0.0, p=2.0, target_ratio=1e-3)
        assert rep.resolved == 4
        assert not rep.contraction_ok
        assert [f["n"] for f in rep.failures] == [0, 1, 2]

    def test_sigma_zero_fixed_point_immediately(self):
        # every iterate, X^0 included, takes the same heat steps, so all
        # decrements are exactly zero for any u0; a decaying u0 shows a
        # flow taken any other way (as spectral powers it parts from the
        # steps by up to 3.7e-14 relative, and d_0 reads e^-34.6 here)
        for u0, grid, seed, beta in ((self.U0S["constant"], self.GRID, 3, 10.0),
                                     (self.U0S["decay"], self.SMALL, 5, 1.0)):
            rep = picard_solve(model(slope=0.0, u0=u0), grid, seed=seed,
                               replicas=4, n_iter=3, beta=beta, c=0.0, p=2.0)
            assert rep.log_d.tolist() == [-np.inf] * 3
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

    def test_uncontained_grid_warns(self):
        # L = 2 < 4 T^(1/alpha) = 4: the warning comes from sample_noise,
        # so picard_solve raises it as run_trajectory does
        grid = GridSpec(half_width=2.0, n_x=16, horizon=1.0, n_t=10)
        with pytest.warns(UserWarning, match="wrap-around bias"):
            picard_solve(model(), grid, seed=5, replicas=2, n_iter=2,
                         beta=1.0, c=0.0, p=2.0)

    def test_needs_a_replica(self):
        with pytest.raises(DomainError):
            picard_solve(model(), self.SMALL, seed=0, replicas=0, n_iter=2,
                         beta=1.0, c=0.0, p=2.0)

    def test_needs_two_iterates(self):
        with pytest.raises(DomainError):
            picard_solve(model(), self.GRID, seed=0, replicas=2, n_iter=1,
                         beta=1.0, c=0.0, p=2.0)

    @pytest.mark.parametrize("bad", [
        {"beta": math.nan}, {"beta": math.inf}, {"p": math.nan},
        {"c": math.nan}, {"target_ratio": math.nan}],
        ids=["beta-nan", "beta-inf", "p-nan", "c-nan", "target-ratio-nan"])
    def test_non_finite_arguments_rejected(self, bad):
        # each passed the plain checks: the first four returned log_d all
        # -inf with contraction_ok True, target_ratio = NaN a growing log_d
        # with contraction_ok True
        args = dict(seed=5, replicas=4, n_iter=3, beta=1.0, c=0.0, p=2.0)
        with pytest.raises(DomainError):
            picard_solve(model(), self.SMALL, **{**args, **bad})
