import math

import numpy as np
import pytest
from scipy import stats

from levyheat.errors import DomainError, ValidationError
from levyheat.noise import (LevyMeasureSpec, NoiseGrid,
                            drift_b, sample_increments)

ATOMS = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0), (-1.0, 1.0)))
TPOW = LevyMeasureSpec(variant="truncated_power", gamma_exp=0.5,
                       delta_in=0.1, outer_cut=1.0, amplitude=1.0)


class TestMoments:
    def test_unit_atoms_any_p(self):
        assert ATOMS.moment(1.7) == pytest.approx(2.0)
        assert ATOMS.moment(0.0) == pytest.approx(2.0)   # total mass

    def test_truncated_power_p1(self):
        # 2 int_0.1^1 z^{-0.5} dz = 4 (1 - sqrt(0.1))
        assert TPOW.moment(1.0) == pytest.approx(
            4.0 * (1.0 - math.sqrt(0.1)), rel=1e-13)

    def test_mass_and_above(self):
        assert TPOW.total_mass() == pytest.approx(
            2.0 * (0.1 ** -0.5 - 1.0) / 0.5, rel=1e-13)
        assert ATOMS.mass_above(0.5) == pytest.approx(2.0)
        assert ATOMS.mass_above(1.5) == 0.0
        assert ATOMS.moment_above(1.2, 0.5) == pytest.approx(2.0)

    def test_moment_requires_nonnegative_order(self):
        with pytest.raises(DomainError):
            ATOMS.moment(-0.5)


class TestDrift:
    def test_symmetric_is_zero(self):
        assert drift_b(ATOMS) == 0.0
        assert drift_b(TPOW) == 0.0

    def test_single_atom(self):
        spec = LevyMeasureSpec(variant="atoms", atoms=((2.0, 3.0),))
        assert drift_b(spec) == pytest.approx(6.0)

    def test_small_atoms_only(self):
        spec = LevyMeasureSpec(variant="atoms", atoms=((0.5, 1.0), (-0.5, 1.0)))
        assert drift_b(spec) == 0.0


class TestValidation:
    def test_atom_at_zero_rejected(self):
        with pytest.raises(ValidationError):
            LevyMeasureSpec(variant="atoms", atoms=((0.0, 1.0),))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValidationError):
            LevyMeasureSpec(variant="atoms", atoms=((1.0, -1.0),))

    def test_truncated_power_cutoffs(self):
        with pytest.raises(ValidationError):
            LevyMeasureSpec(variant="truncated_power", delta_in=0.0)
        with pytest.raises(ValidationError):
            LevyMeasureSpec(variant="truncated_power", delta_in=1.0,
                            outer_cut=0.5)

    def test_symmetry_flag(self):
        assert ATOMS.symmetric
        assert TPOW.symmetric
        assert not LevyMeasureSpec(variant="atoms", atoms=((2.0, 3.0),)).symmetric


class TestSampling:
    def test_poisson_cell_mean(self):
        grid = NoiseGrid(dt=0.01, dx=0.1, n_t=10, n_x=10, seed=0)
        # rate per cell = dt dx lambda(R) = 0.002
        assert ATOMS.total_mass() * grid.dt * grid.dx == pytest.approx(0.002)

    def test_determinism_bit_identical(self):
        grid = NoiseGrid(dt=0.01, dx=0.1, n_t=50, n_x=200, seed=42,
                         replica_index=3)
        f1 = sample_increments(ATOMS, grid)
        f2 = sample_increments(ATOMS, grid)
        assert np.array_equal(f1.jump_sum, f2.jump_sum)

    def test_replicas_differ(self):
        g0 = NoiseGrid(dt=0.05, dx=0.25, n_t=50, n_x=200, seed=42)
        g1 = NoiseGrid(dt=0.05, dx=0.25, n_t=50, n_x=200, seed=42,
                       replica_index=1)
        assert not np.array_equal(sample_increments(ATOMS, g0).jump_sum,
                                  sample_increments(ATOMS, g1).jump_sum)

    def test_sparse_jumps_match_dense_draws(self):
        # the same Philox draws in the same order, summed per cell as a
        # dense bincount sums them; at 2 jumps per cell most cells repeat
        spec = LevyMeasureSpec(variant="atoms",
                               atoms=((2.0, 0.5), (-0.3, 1.0), (0.7, 2.5)))
        grid = NoiseGrid(dt=0.5, dx=1.0, n_t=30, n_x=20, seed=8,
                         replica_index=2)
        f = sample_increments(spec, grid, rho=0.3)
        rng = grid.generator()
        n_cells = grid.n_t * grid.n_x
        total = rng.poisson(spec.total_mass() * grid.dt * grid.dx * n_cells)
        cells = np.sort(rng.integers(0, n_cells, total))
        sizes = spec.sample_sizes(rng, total)
        dense = np.bincount(cells, weights=sizes, minlength=n_cells)
        gauss = 0.3 * math.sqrt(grid.dt * grid.dx) * rng.standard_normal(
            (grid.n_t, grid.n_x))
        assert np.all(np.diff(f.cells) > 0)
        assert len(f.cells) < total
        assert np.array_equal(f.cells, np.unique(cells))
        assert np.array_equal(f.sums, dense[f.cells])
        assert np.array_equal(f.jump_sum, dense.reshape(grid.n_t, grid.n_x))
        assert np.array_equal(f.gaussian, gauss)

    def test_compensated_mean_and_variance(self):
        grid = NoiseGrid(dt=0.01, dx=0.1, n_t=1000, n_x=1000, seed=1)
        f = sample_increments(ATOMS, grid)
        c = f.combined(b=0.0)
        var_cell = grid.dt * grid.dx * ATOMS.moment(2.0)
        se_mean = math.sqrt(var_cell / c.size)
        assert abs(c.mean()) < 4.0 * se_mean
        # SE of a sample variance of n cells ~ var * sqrt(2/n + kurtosis term);
        # jump noise is very leptokurtic, so allow its exact fourth moment
        m4 = grid.dt * grid.dx * ATOMS.moment(4.0)
        se_var = math.sqrt((m4 - var_cell ** 2 * (c.size - 3) / (c.size - 1))
                           / c.size)
        assert abs(c.var() - var_cell) < 3.0 * se_var

    def test_count_distribution_chisquare(self):
        # a single unit atom makes jump_sum the per-cell jump count; at
        # lam = 0.5 one cell in eleven holds 2 or more jumps, so a sampler
        # that caps the count per cell or clusters jumps fails
        spec = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0),))
        grid = NoiseGrid(dt=0.5, dx=1.0, n_t=200, n_x=500, seed=9)
        counts = sample_increments(spec, grid).jump_sum.ravel()
        lam = spec.total_mass() * grid.dt * grid.dx
        assert lam == 0.5
        kmax = 4
        obs = np.array([(counts == k).sum() for k in range(kmax)]
                       + [(counts >= kmax).sum()], dtype=float)
        pmf = stats.poisson.pmf(np.arange(kmax), lam)
        exp = np.append(pmf, 1.0 - pmf.sum()) * counts.size
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        pval = 1.0 - stats.chi2.cdf(chi2, kmax)
        assert pval > 0.001

    def test_truncated_power_sizes_in_support(self):
        grid = NoiseGrid(dt=0.5, dx=0.5, n_t=100, n_x=100, seed=5)
        rng = grid.generator()
        sizes = TPOW.sample_sizes(rng, 10_000)
        assert np.all(np.abs(sizes) >= TPOW.delta_in - 1e-15)
        assert np.all(np.abs(sizes) <= TPOW.outer_cut + 1e-15)
        # symmetric signs
        frac = (sizes > 0).mean()
        assert abs(frac - 0.5) < 4.0 * math.sqrt(0.25 / sizes.size)

    def test_gaussian_part_scaled_by_rho(self):
        grid = NoiseGrid(dt=0.04, dx=0.25, n_t=200, n_x=200, seed=3)
        f = sample_increments(ATOMS, grid, rho=0.7)
        cell = grid.dt * grid.dx
        g = np.asarray(f.gaussian)
        assert g.std() == pytest.approx(0.7 * math.sqrt(cell), rel=0.02)
        f0 = sample_increments(ATOMS, grid, rho=0.0)
        assert np.all(np.asarray(f0.gaussian) == 0.0)

    def test_negative_rho_rejected(self):
        grid = NoiseGrid(dt=0.04, dx=0.25, n_t=2, n_x=2, seed=3)
        with pytest.raises(DomainError):
            sample_increments(ATOMS, grid, rho=-1.0)


class TestCompensatedIntegralFloor:
    def test_ratio_bounded_below_across_intensities(self):
        """Monitor: E|int H d(mu-nu)|^p over the floor
        int E|H|^p dnu / (1 v nu_total)^(1-p/2), H = 1 on the window.
        Recorded across intensity scalings; asserted positive and stable."""
        p = 1.5
        ratios = []
        for scale in (0.5, 5.0, 50.0):
            spec = LevyMeasureSpec(variant="atoms",
                                   atoms=((1.0, scale), (-1.0, scale)))
            grid = NoiseGrid(dt=0.1, dx=0.1, n_t=10, n_x=10, seed=11)
            nu_total = spec.total_mass() * grid.dt * grid.dx * 100
            samples = []
            for r in range(400):
                g = NoiseGrid(dt=0.1, dx=0.1, n_t=10, n_x=10, seed=11,
                              replica_index=r)
                f = sample_increments(spec, g)
                samples.append(float(np.abs(f.combined().sum()) ** p))
            lhs = float(np.mean(samples))
            rhs = (spec.moment(p) * grid.dt * grid.dx * 100
                   / max(1.0, nu_total) ** (1.0 - p / 2.0))
            ratios.append(lhs / rhs)
        assert min(ratios) > 0.01
        assert max(ratios) / min(ratios) < 100.0
