import math

import numpy as np
import pytest
from scipy import stats

from levyheat.errors import DomainError, ValidationError
from levyheat.noise import LevyMeasureSpec, drift_b, sample_jumps
from levyheat.solver import GridSpec

ATOMS = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0), (-1.0, 1.0)))
TPOW = LevyMeasureSpec(variant="truncated_power", gamma_exp=0.5,
                       delta_in=0.1, outer_cut=1.0, amplitude=1.0)


def stream(seed, replica=0):
    """The Philox noise stream of replica `replica` under `seed`."""
    return GridSpec().noise_grid(seed, replica)


def jump_sum(spec, dt, dx, n_t, n_x, seed, replica=0):
    """Dense (n_t, n_x) per-cell jump sums of one replica, 0.0 where none."""
    cells, sums = sample_jumps(spec, stream(seed, replica), dt * dx, n_t * n_x)
    out = np.zeros(n_t * n_x)
    out[cells] = sums
    return out.reshape(n_t, n_x)


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

    @pytest.mark.parametrize("key, spec", [
        ("atoms", dict(variant="atoms", atoms=((1.0, math.nan),))),
        ("atoms", dict(variant="atoms", atoms=((math.nan, 1.0),))),
        ("atoms", dict(variant="atoms", atoms=((1.0, math.inf),))),
        ("atoms", dict(variant="atoms", atoms=((-math.inf, 1.0),))),
        ("gamma_exp", dict(variant="truncated_power", gamma_exp=math.nan)),
        ("delta_in", dict(variant="truncated_power", delta_in=math.nan)),
        ("outer_cut", dict(variant="truncated_power", outer_cut=math.nan)),
        ("amplitude", dict(variant="truncated_power", amplitude=math.nan)),
        ("outer_cut", dict(variant="truncated_power", outer_cut=math.inf)),
        ("amplitude", dict(variant="truncated_power", amplitude=math.inf)),
    ], ids=["atom-mass-nan", "atom-z-nan", "atom-mass-inf", "atom-z-inf",
            "gamma-nan", "delta-nan", "outer-nan", "amplitude-nan",
            "outer-inf", "amplitude-inf"])
    def test_non_finite_rejected_naming_field(self, key, spec):
        # NaN passes a plain `x <= 0` check: atoms (1, nan) had total mass
        # NaN and (nan, 1) total mass 0
        with pytest.raises(ValidationError) as err:
            LevyMeasureSpec(**spec)
        assert err.value.key_path == key

    def test_symmetry_flag(self):
        assert ATOMS.symmetric
        assert TPOW.symmetric
        assert not LevyMeasureSpec(variant="atoms", atoms=((2.0, 3.0),)).symmetric


class TestSampling:
    def test_poisson_cell_mean(self):
        # rate per cell = dt dx lambda(R) = 0.002
        assert ATOMS.total_mass() * 0.01 * 0.1 == pytest.approx(0.002)

    def test_determinism_bit_identical(self):
        c1, s1 = sample_jumps(ATOMS, stream(42, 3), 0.01 * 0.1, 50 * 200)
        c2, s2 = sample_jumps(ATOMS, stream(42, 3), 0.01 * 0.1, 50 * 200)
        assert np.array_equal(c1, c2) and np.array_equal(s1, s2)

    def test_replicas_differ(self):
        assert not np.array_equal(jump_sum(ATOMS, 0.05, 0.25, 50, 200, 42),
                                  jump_sum(ATOMS, 0.05, 0.25, 50, 200, 42, 1))

    def test_sparse_jumps_match_dense_draws(self):
        # the same Philox draws in the same order, summed per cell as a
        # dense bincount sums them; at 2 jumps per cell most cells repeat
        spec = LevyMeasureSpec(variant="atoms",
                               atoms=((2.0, 0.5), (-0.3, 1.0), (0.7, 2.5)))
        n_cells = 30 * 20
        rng = stream(8, 2)
        cells, sums = sample_jumps(spec, rng, 0.5 * 1.0, n_cells)
        ref = stream(8, 2)
        total = ref.poisson(spec.total_mass() * 0.5 * 1.0 * n_cells)
        drawn = np.sort(ref.integers(0, n_cells, total))
        sizes = spec.sample_sizes(ref, total)
        dense = np.bincount(drawn, weights=sizes, minlength=n_cells)
        assert np.all(np.diff(cells) > 0)
        assert len(cells) < total
        assert np.array_equal(cells, np.unique(drawn))
        assert np.array_equal(sums, dense[cells])
        # the stream is left where the hand-drawn one is: the Gaussian
        # part of sample_noise continues from here
        assert np.array_equal(rng.standard_normal(8), ref.standard_normal(8))

    def test_compensated_mean_and_variance(self):
        # symmetric atoms: the compensator and drift are zero
        c = jump_sum(ATOMS, 0.01, 0.1, 1000, 1000, 1)
        var_cell = 0.01 * 0.1 * ATOMS.moment(2.0)
        se_mean = math.sqrt(var_cell / c.size)
        assert abs(c.mean()) < 4.0 * se_mean
        # SE of a sample variance of n cells ~ var * sqrt(2/n + kurtosis term);
        # jump noise is very leptokurtic, so allow its exact fourth moment
        m4 = 0.01 * 0.1 * ATOMS.moment(4.0)
        se_var = math.sqrt((m4 - var_cell ** 2 * (c.size - 3) / (c.size - 1))
                           / c.size)
        assert abs(c.var() - var_cell) < 3.0 * se_var

    def test_count_distribution_chisquare(self):
        # a single unit atom makes the jump sum the per-cell jump count; at
        # lam = 0.5 one cell in eleven holds 2 or more jumps, so a sampler
        # that caps the count per cell or clusters jumps fails
        spec = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0),))
        counts = jump_sum(spec, 0.5, 1.0, 200, 500, 9).ravel()
        lam = spec.total_mass() * 0.5 * 1.0
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
        sizes = TPOW.sample_sizes(stream(5), 10_000)
        assert np.all(np.abs(sizes) >= TPOW.delta_in - 1e-15)
        assert np.all(np.abs(sizes) <= TPOW.outer_cut + 1e-15)
        # symmetric signs
        frac = (sizes > 0).mean()
        assert abs(frac - 0.5) < 4.0 * math.sqrt(0.25 / sizes.size)


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
            nu_total = spec.total_mass() * 0.1 * 0.1 * 100
            samples = []
            for r in range(400):
                # symmetric atoms: the compensated field is the jump sum
                f = jump_sum(spec, 0.1, 0.1, 10, 10, 11, r)
                samples.append(float(np.abs(f.sum()) ** p))
            lhs = float(np.mean(samples))
            rhs = (spec.moment(p) * 0.1 * 0.1 * 100
                   / max(1.0, nu_total) ** (1.0 - p / 2.0))
            ratios.append(lhs / rhs)
        assert min(ratios) > 0.01
        assert max(ratios) / min(ratios) < 100.0
