import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from levyheat import certify, kernel
from levyheat.certify import DEFAULT_T_GRID, check_sandwich, check_space_conv
from levyheat.errors import DomainError, QuadratureError
from levyheat.kernel import (TAIL_START, ComparisonKernel, KernelParams,
                             I_formula, StableProfile,
                             _conv_nodes, _gauss_panels, _graded_time_nodes,
                             _quad_checked, _space_conv,
                             conv_constants, envelope_constants,
                             fourier_power_transform,
                             g_fourier, g_fourier_lower, g_p_integral,
                             get_profile, h_moment, hmoment_constant,
                             minform_kernel, minform_level_integral,
                             nu_const, q_density,
                             q_mass_numeric, tail_coefficient,
                             timespace_conv_gp, timespace_conv_gratio,
                             weighted_kernel_integral)
from levyheat.specfun import gamma_fn

KP1 = KernelParams(d=1, alpha=1.0)
KP15 = KernelParams(d=1, alpha=1.5)
CK1 = ComparisonKernel(KP1)
CK15 = ComparisonKernel(KP15)

# mpmath quadosc of (1/pi) int_0^inf exp(-2 xi^1.5) cos(3 xi) dxi, 30 digits
Q_A15_T2_X3 = 0.059390873869693941

# the sandwich record at alpha = 1.5: the min-form pair is the grid's
# extrema (d=1, t in {0.5, 1, 2}, x = 0 plus log-spaced to 20), the g pair
# the derived one; the grid's largest q/g was 1.5049357110976804, below the
# supremum at u = |x| t^(-1/alpha) ~ 2.0
SANDWICH_GOLDEN = {
    "c1_minform": 0.23541281764685917,
    "c2_minform": 0.49754534265119466,
    "c1_g": 0.6885777861536297,
    "c2_g": 1.5146683433694226,
}


# radii across (0, TAIL_START] for the cross-checks of the two inversions
CROSS_RADII = np.array([1e-3, 0.05, 0.3, 0.9, 1.7, 3.1, 5.5, 9.0, 14.0, 21.0,
                        30.0, 38.5, 44.0, 45.0])


def quadpack_profile(alpha, r):
    """Reference: the unit profile at r > 0 by QUADPACK alone, independent
    of the ray rule: the adaptive rule over the decay range [0, xi_max]
    while r xi_max < 40, the oscillatory Fourier rule (QAWF) on [0, inf)
    beyond."""
    xi_max = kernel.EXPONENT_CUT ** (1.0 / alpha)
    if r * xi_max < 40.0:
        val = _quad_checked(lambda xi: math.exp(-xi ** alpha) * math.cos(r * xi),
                            0.0, xi_max)
    else:
        with warnings.catch_warnings():
            # its error estimate is not read: the cross-checks judge it
            warnings.simplefilter("ignore")
            val, _ = quad(lambda xi: math.exp(-xi ** alpha), 0.0, np.inf,
                          weight="cos", wvar=r, epsabs=kernel.EPSABS,
                          limit=kernel.LIMIT)
    return max(val, 0.0) / math.pi


@pytest.fixture
def ray_calls(monkeypatch):
    """The radii of each `_ray_inversion` call, in call order."""
    calls = []
    ray = kernel._ray_inversion
    monkeypatch.setattr(kernel, "_ray_inversion",
                        lambda alpha, r: calls.append(r.tolist()) or ray(alpha, r))
    return calls


def sandwich_grid():
    return [0.0] + list(np.logspace(-1.0, math.log10(20.0), 12))


class TestQDensity:
    def test_cauchy_center(self):
        assert q_density(KP1, 1.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_center_formula(self):
        # q_t(0) = Gamma(1 + 1/alpha) t^(-1/alpha) / pi in d = 1
        expect = gamma_fn(1.0 + 1.0 / 1.5) / math.pi
        assert q_density(KP15, 1.0, 0.0) == pytest.approx(expect, rel=1e-10)

    def test_frozen_oracle(self):
        assert q_density(KP15, 2.0, 3.0) == pytest.approx(Q_A15_T2_X3, rel=1e-10)

    def test_cauchy_matches_numeric_inversion(self):
        # generic numeric path at alpha=1 against the closed form
        num = StableProfile(1.0, force_numeric=True)
        for x in (0.5, 2.0, 7.0):
            assert num.direct(x) == pytest.approx(1.0 / (math.pi * (1 + x * x)),
                                                  rel=1e-9)

    def test_scaling_via_profile(self):
        prof = get_profile(1.5)
        for t, x in ((0.37, 1.3), (2.9, 0.2), (5.0, 11.0)):
            scale = t ** (-1.0 / 1.5)
            assert q_density(KP15, t, x) == pytest.approx(
                scale * prof.direct(x * scale), rel=1e-12)

    def test_profile_cache_keys_on_exact_alpha(self):
        near = get_profile(1.5 + 1e-13)
        assert near is not get_profile(1.5)
        assert near.alpha == 1.5 + 1e-13
        assert get_profile(1.5 + 1e-13) is near
        assert get_profile(1.5) is get_profile(3 / 2)

    @pytest.mark.parametrize("alpha", [0.35, 1.5, 1.9])
    def test_values_are_direct_inside_and_clipped_tail_outside(self, alpha):
        prof = get_profile(alpha)
        r = np.array([[0.0, -3.5, 3.5, 45.0, -45.0],
                      [45.5, -200.0, 3.5, 1e4, 0.0]])
        got = prof.values(r)
        assert got.shape == r.shape
        near = np.abs(r) <= TAIL_START
        # the ray rule inside, within the cross-check of the two inversions;
        # centre() itself at 0, and equal radii give equal values
        np.testing.assert_allclose(got[near], [prof.direct(x) for x in r[near]],
                                   rtol=1e-10, atol=1e-15)
        assert got[0, 0] == got[1, 4] == prof.center()
        assert got[0, 1] == got[0, 2] == got[1, 2]
        # the tail series on the same array of radii, so with the same
        # rounding of its powers
        np.testing.assert_array_equal(
            got[~near], np.maximum(prof.tail(np.abs(r[~near])), 0.0))
        scalar = prof.values(-3.5)
        assert scalar.shape == () and scalar == got[0, 1]

    def test_values_invert_once_per_distinct_radius(self, ray_calls):
        r = np.array([1.25, 0.0, -1.25, 7.0, 1.25, 50.0, -50.0, 45.0, 7.0])
        got = StableProfile(1.5).values(r)
        # one array call on the distinct radii in (0, TAIL_START]
        assert ray_calls == [[1.25, 7.0, 45.0]]
        assert got[1] == StableProfile(1.5).center()

    def test_no_inversion_beyond_tail_start(self, ray_calls):
        prof = StableProfile(1.3)
        assert prof(60.0) == prof.tail(60.0)
        assert prof._spline is None
        prof.values(np.array([50.0, -60.0, 1e3]))
        prof.values(np.array([0.0, 60.0]))
        assert ray_calls == []

    def test_values_cauchy_closed_form(self, ray_calls):
        r = np.array([0.0, 10.0, 100.0])
        assert StableProfile(1.0).values(r).tolist() == [
            1.0 / (math.pi * (1.0 + x * x)) for x in (0.0, 10.0, 100.0)]
        assert ray_calls == []
        # force_numeric: the ray rule inside TAIL_START (centre() at 0), the
        # tail beyond, within the cross-check of the two inversions
        r = np.concatenate([r, CROSS_RADII])
        num = StableProfile(1.0, force_numeric=True).values(r)
        assert ray_calls == [sorted({10.0, *CROSS_RADII.tolist()})]
        np.testing.assert_allclose(num, 1.0 / (math.pi * (1.0 + r * r)),
                                   rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.2, 0.35, 0.8, 0.995, 1.005, 1.5,
                                       1.9, 1.99])
    def test_values_match_direct(self, alpha):
        # two independent inversions: the ray rule (numpy) and QUADPACK;
        # `direct` meets the same reference
        prof = get_profile(alpha)
        ref = [quadpack_profile(alpha, x) for x in CROSS_RADII]
        np.testing.assert_allclose(prof.values(CROSS_RADII), ref,
                                   rtol=1e-10, atol=1e-15)
        np.testing.assert_allclose([prof.direct(x) for x in CROSS_RADII], ref,
                                   rtol=1e-10, atol=1e-15)

    def test_cross_check_rejects_the_spline(self):
        # the spline's misses (6e-9 to 3e-7) fail the tolerance that the
        # ray rule meets
        ref = [quadpack_profile(1.5, x) for x in CROSS_RADII]
        with pytest.raises(AssertionError):
            np.testing.assert_allclose(get_profile(1.5)(CROSS_RADII), ref,
                                       rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.35, 1.5, 1.9])
    def test_direct_is_values_outside_the_quadpack_core(self, monkeypatch,
                                                        ray_calls, alpha):
        # QUADPACK while 0 < r xi_max < 40; `values` bit for bit elsewhere:
        # centre() at 0, the ray rule up to TAIL_START, the tail series
        # beyond it, and the Cauchy closed form at every r at alpha = 1
        quads = []
        checked = kernel._quad_checked
        monkeypatch.setattr(kernel, "_quad_checked",
                            lambda *a, **kw: quads.append(a) or checked(*a, **kw))
        prof = StableProfile(alpha)
        edge = 40.0 / kernel.EXPONENT_CUT ** (1.0 / alpha)
        radii = (0.0, -2.0 * edge, 50.0, 1e6)
        assert [prof.direct(r) for r in radii] == [float(prof.values(r))
                                                   for r in radii]
        assert ray_calls == [[2.0 * edge]] * 2 and quads == []
        core = prof.direct(0.5 * edge)
        assert len(quads) == 1
        assert core == pytest.approx(prof.values(0.5 * edge), rel=1e-10)
        # 0.4 lies in alpha = 1's QUADPACK core, r < 40 / 45
        cauchy = StableProfile(1.0)
        radii = (0.0, 0.4, 3.0, 1e3)
        assert [cauchy.direct(r) for r in radii] == cauchy.values(radii).tolist()
        assert len(quads) == 1

    @pytest.mark.parametrize("alpha, r", [(1.99, 1e6), (1.9, 1e5)])
    def test_far_tail_is_the_series(self, alpha, r):
        # near alpha = 2 the ray rule missed the series there by -5.55e-3
        # and -9.17e-7 without raising: its error check is absolute, and
        # these values are far below 1
        series = float(get_profile(alpha).tail(r))
        assert q_density(KernelParams(1, alpha), 1.0, r) == pytest.approx(
            series, rel=1e-12, abs=0.0)

    def test_tail_coefficients_once_per_alpha(self, monkeypatch):
        # the series' 16 Gamma-based coefficients are evaluated once per
        # alpha, however many tail values and masses are taken, and the
        # sums keep their order, so every value is the per-call loop's
        alpha, r = 1.37, np.geomspace(50.0, 1e6, 7)
        want = np.zeros_like(r)
        for k in range(1, kernel.TAIL_TERMS + 1):
            want += tail_coefficient(alpha, k) * r ** (-1.0 - k * alpha)
        mass_tail = 0.0
        for k in range(1, kernel.TAIL_TERMS + 1):
            mass_tail += (2.0 * tail_coefficient(alpha, k)
                          * TAIL_START ** (-k * alpha) / (k * alpha))
        calls = []
        coefficient = kernel.tail_coefficient
        monkeypatch.setattr(kernel, "tail_coefficient",
                            lambda *a: calls.append(a) or coefficient(*a))
        kernel._tail_coefficients.cache_clear()
        prof = StableProfile(alpha)
        for _ in range(3):
            assert np.array_equal(prof.tail(r), want)
        assert np.array_equal(prof.values(r), want)
        # one node of weight 0 leaves the mass its tail, 2 int_45^inf q
        monkeypatch.setattr(kernel, "_gauss_panels",
                            lambda cuts, n: (np.zeros(1), np.zeros(1)))
        assert q_mass_numeric(KernelParams(1, alpha), 1.0) == mass_tail
        assert len(calls) == kernel.TAIL_TERMS

    @pytest.mark.parametrize("starve", [{"RAY_NODES": 3}, {"RAY_RATIO": 1e3}])
    @pytest.mark.parametrize("alpha", [0.35, 1.5, 1.9])
    def test_starved_ray_rule_raises(self, monkeypatch, alpha, starve):
        # too few nodes per panel, or too few panels towards u = 0
        for name, value in starve.items():
            monkeypatch.setattr(kernel, name, value)
        with pytest.raises(QuadratureError):
            StableProfile(alpha).values(CROSS_RADII)

    def test_radial_monotonicity(self):
        # the spline profile at t = 1
        vals = get_profile(1.5)(np.linspace(0.0, 15.0, 40))
        assert np.all(np.diff(vals) < 0.0)

    def test_nonnegative(self):
        assert q_density(KP15, 0.3, 40.0) >= 0.0

    def test_requires_positive_time(self):
        with pytest.raises(DomainError):
            q_density(KP15, 0.0, 1.0)

    def test_unit_mass(self):
        for a in (0.8, 1.2, 1.5):
            kp = KernelParams(d=1, alpha=a)
            for t in (0.5, 2.0):
                assert q_mass_numeric(kp, t) == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_cauchy(self):
        # the graded Gauss rule on the closed form, plus the tail series
        for t in (0.5, 1.0, 2.0):
            assert abs(q_mass_numeric(KP1, t) - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 0.8, 0.995, 1.2, 1.5,
                                       1.9, 1.99])
    def test_mass_rule_matches_adaptive(self, alpha):
        # the graded Gauss rule against the adaptive QUADPACK integral of the
        # same inversion on [0, 45], plus the same power-tail series
        direct = get_profile(alpha).direct
        core = 2.0 * _quad_checked(direct, 0.0, 45.0, points=[1.0, 10.0])
        tail = sum(2.0 * tail_coefficient(alpha, k) * 45.0 ** (-k * alpha)
                   / (k * alpha) for k in range(1, kernel.TAIL_TERMS + 1))
        mass = q_mass_numeric(KernelParams(d=1, alpha=alpha), 1.0)
        assert mass == pytest.approx(core + tail, abs=1e-11)

    def test_semigroup_numeric(self):
        # q_s * q_t = q_{s+t} pointwise, d = 1
        prof = get_profile(1.5)

        def q_spline(t, x):
            scale = t ** (-1.0 / 1.5)
            return scale * prof(abs(x) * scale)

        s, t = 0.6, 0.9
        for x in (0.0, 1.0, 3.0):
            def f(y):
                return q_spline(s, x - y) * q_spline(t, y)
            val, _ = quad(f, -80.0, 80.0, points=[0.0, x], limit=300)
            assert val == pytest.approx(q_density(KP15, s + t, x), abs=1e-4)

    def test_numeric_kernel_is_one_dimensional(self):
        for alpha in (1.0, 1.5):
            with pytest.raises(DomainError):
                q_density(KernelParams(d=2, alpha=alpha), 1.0, (0.5, 0.0))

    def test_quadrature_failure_raises(self):
        with pytest.raises(QuadratureError):
            _quad_checked(lambda x: 1.0 / x, 0.0, 1.0)


class TestComparisonKernel:
    def test_cauchy_identity(self):
        assert CK1.g(1.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        for t, x in ((0.5, 1.0), (2.0, 3.0)):
            assert CK1.g(t, x) == pytest.approx(q_density(KP1, t, x), rel=1e-12)

    def test_kappa_value(self):
        expect = gamma_fn(1.25) / (math.sqrt(math.pi) * gamma_fn(0.75))
        assert CK15.kappa == pytest.approx(expect, rel=1e-13)
        assert CK15.kappa == pytest.approx(0.41728, abs=1e-3)

    def test_unit_mass(self):
        for t in (0.25, 1.0, 4.0):
            assert CK15.g_p_numeric(t) == pytest.approx(1.0, abs=1e-8)

    def test_unit_mass_small_alpha_large_t(self):
        # the width t^(1/alpha) is 4^10 here; the quadrature runs in units
        # of it, so the r^(-1.1) tail keeps its mass
        ck = ComparisonKernel(KernelParams(d=1, alpha=0.1))
        assert ck.g_p_numeric(4.0) == pytest.approx(1.0, abs=1e-10)
        assert certify.check_g_mass(ck).passed

    def test_array_time_matches_scalar_time_bitwise(self):
        t = np.random.default_rng(5).uniform(0.0, 10.0, 4000)
        for r in (0.0, 1.5):
            assert np.array_equal(CK15.g(t, r), [CK15.g(ti, r) for ti in t])


class TestMinform:
    def test_flat_branch(self):
        assert minform_kernel(KP1, 1.0, 0.0) == 1.0

    def test_tail_branch(self):
        # t / |x|^(d+alpha) = 1 / 2^2 for d = alpha = 1
        assert minform_kernel(KP1, 1.0, 2.0) == pytest.approx(1.0 / 4.0)

    def test_crossover(self):
        # both branches meet at |x| = t^(1/alpha)
        t = 2.7
        kp = KP15
        x = t ** (1.0 / kp.alpha)
        flat = t ** (-1.0 / kp.alpha)
        assert minform_kernel(kp, t, x) == pytest.approx(flat, rel=1e-12)
        assert t / x ** (1 + kp.alpha) == pytest.approx(flat, rel=1e-12)

    def test_level_integral_logarithmic_case(self):
        # p (1 + alpha) = 1: the power part integrates t^p / y to a
        # logarithm; against quadrature of the kernel itself, up to
        # r_out = (t / eps)^(1/(1+alpha)), where h falls to eps
        t, eps, p = 0.5, 0.1, 0.5
        r_in, r_out = t, math.sqrt(t / eps)
        ref = 2.0 * quad(lambda y: minform_kernel(KP1, t, y) ** p, 0.0, r_out,
                         points=[r_in], epsabs=0.0, epsrel=1e-13)[0]
        got = minform_level_integral(KP1, t, p, eps)
        assert got == pytest.approx(ref, rel=1e-12)
        # and the power branch meets it from both sides
        for dp in (-1e-6, 1e-6):
            assert minform_level_integral(KP1, t, p + dp, eps) == pytest.approx(
                got, rel=1e-5)


class TestSandwich:
    def test_alpha1_identity(self):
        rec = check_sandwich(KP1, [0.5, 1.0, 2.0], sandwich_grid())
        assert rec.detail["c1_g"] == pytest.approx(1.0, abs=1e-9)
        assert rec.detail["c2_g"] == pytest.approx(1.0, abs=1e-9)

    def test_goldens_alpha15(self):
        rec = check_sandwich(KP15, [0.5, 1.0, 2.0], sandwich_grid())
        assert rec.passed
        assert 0.0 < rec.detail["c1_minform"] <= rec.detail["c2_minform"] < math.inf
        for key, val in SANDWICH_GOLDEN.items():
            assert rec.detail[key] == pytest.approx(val, rel=1e-6)

    def test_tail_ratio_approaches_constant(self):
        cref = tail_coefficient(1.5, 1)
        ratios = [q_density(KP15, 1.0, x) * x ** 2.5 for x in (50.0, 100.0, 200.0)]
        gaps = [abs(r / cref - 1.0) for r in ratios]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.02

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            check_sandwich(KP15, [], [1.0])

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 1.9])
    def test_centre_identity_fails_a_scaled_density(self, monkeypatch, alpha):
        # q_t(0) / g(t, 0) = Gamma(1 + 1/alpha) / (pi kappa): the true
        # kernel holds it, one scaled by 1 + 1e-9 does not
        kp = KernelParams(d=1, alpha=alpha)
        rec = check_sandwich(kp, DEFAULT_T_GRID, sandwich_grid())
        assert rec.passed and rec.detail["centre_rel_err"] <= 1e-12
        true_q = certify.K.q_density
        monkeypatch.setattr(certify.K, "q_density",
                            lambda *a: true_q(*a) * (1.0 + 1e-9))
        assert not check_sandwich(kp, DEFAULT_T_GRID, sandwich_grid()).passed


def envelope_ratio(alpha, u):
    """rho(u) = q_t(x) / g(t, x) at u = |x| t^(-1/alpha), from `values`."""
    return (get_profile(alpha).values(u)
            * np.float_power(1.0 + u * u, (1.0 + alpha) / 2.0)
            / kernel.kappa_const(1, alpha))


class TestEnvelopeConstants:
    def test_ends_match_closed_forms(self):
        # rho(0) = Gamma(1 + 1/alpha) / (pi kappa), rho(inf) = C_alpha / kappa
        # with C_alpha = Gamma(1 + alpha) sin(pi alpha / 2) / pi
        def ends(a):
            kap = kernel.kappa_const(1, a)
            return (gamma_fn(1.0 + 1.0 / a) / (math.pi * kap),
                    gamma_fn(1.0 + a) * math.sin(math.pi * a / 2.0)
                    / (math.pi * kap))
        assert envelope_constants(1.5)[0] == pytest.approx(ends(1.5)[0], rel=1e-12)
        assert envelope_constants(0.3)[1] == pytest.approx(ends(0.3)[0], rel=1e-12)
        assert envelope_constants(1.9)[0] == pytest.approx(ends(1.9)[1], rel=1e-12)

    def test_cauchy_pair_is_unit(self):
        # q = g exactly at alpha = 1
        assert envelope_constants(1.0) == pytest.approx((1.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 1.9])
    def test_pair_brackets_and_meets_a_dense_grid(self, alpha):
        # the interior extrema lie near u = 2; the ends are u = 0 and the
        # far tail, where rho(1e6) is within 1e-11 of rho(inf) at alpha = 1.9
        u = np.concatenate([[0.0], np.linspace(0.5, 5.0, 45001),
                            np.logspace(1.0, 6.0, 501)])
        rho = envelope_ratio(alpha, u)
        c1, c2 = envelope_constants(alpha)
        assert c1 <= rho.min() <= c1 * (1.0 + 1e-9)
        assert c2 * (1.0 - 1e-9) <= rho.max() <= c2

    @pytest.mark.parametrize("side", ["c1_g", "c2_g"])
    def test_sandwich_fails_a_pair_one_percent_tight(self, monkeypatch, side):
        assert check_sandwich(KP15, DEFAULT_T_GRID, sandwich_grid()).passed
        c1, c2 = envelope_constants(1.5)
        tight = (1.01 * c1, c2) if side == "c1_g" else (c1, 0.99 * c2)
        monkeypatch.setattr(certify.K, "envelope_constants", lambda alpha: tight)
        rec = check_sandwich(KP15, DEFAULT_T_GRID, sandwich_grid())
        assert not rec.passed and rec.worst_slack < 1.0 - 1e-9


class TestIFormula:
    def test_worked_values(self):
        assert I_formula(KP1, 2.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-13)
        assert I_formula(KP1, 4.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_beta_scaling_p1(self):
        assert I_formula(KP1, 40.0, 0.0, 1.0) / I_formula(KP1, 4.0, 0.0, 1.0) \
            == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.4, 1.2), (0.9, 1.6)])
    def test_decreasing_to_zero(self, c, p):
        betas = np.logspace(0, 6, 13)
        vals = [I_formula(KP15, b, c, p) for b in betas]
        assert all(v2 < v1 for v1, v2 in zip(vals[:-1], vals[1:]))
        assert vals[-1] < 1e-3 * vals[0]

    def test_preconditions(self):
        with pytest.raises(DomainError):
            I_formula(KP15, 1.0, 0.0, 2.5)      # p = 1 + alpha/d excluded
        with pytest.raises(DomainError):
            I_formula(KP15, 1.0, 2.5, 1.0)      # c = d + alpha excluded
        with pytest.raises(DomainError):
            I_formula(KP15, 1.0, 2.3, 1.0)      # p <= d/(d+alpha-c)
        with pytest.raises(DomainError):
            I_formula(KP15, -1.0, 0.0, 1.2)


class TestWeightedIntegral:
    def test_unit_mass_case(self):
        # int int e^{-beta t} q_t = 1/beta
        assert weighted_kernel_integral(KP1, 2.0, 0.0, 1.0) == pytest.approx(
            0.5, rel=1e-8)

    def test_exact_c0_power_law(self):
        p, beta = 1.3, 7.0
        prof = get_profile(1.5)
        iq = 2.0 * (quad(lambda y: prof(y) ** p, 0, 50)[0]
                    + quad(lambda y: prof(y) ** p, 50, np.inf)[0])
        expect = gamma_fn(1 - (p - 1) / 1.5) * (p * beta) ** ((p - 1) / 1.5 - 1) * iq
        assert weighted_kernel_integral(KP15, beta, 0.0, p) == pytest.approx(
            expect, rel=1e-7)

    def test_loglog_slope_c0(self):
        p = 1.3
        betas = np.logspace(4, 6, 7)
        vals = [weighted_kernel_integral(KP15, b, 0.0, p) for b in betas]
        slope = np.polyfit(np.log(betas), np.log(vals), 1)[0]
        assert slope == pytest.approx((p - 1) / 1.5 - 1.0, abs=0.02 * 0.8)

    def test_ratio_to_I_bounded(self):
        p, c = 1.2, 0.4
        ratios = [weighted_kernel_integral(KP15, b, c, p) / I_formula(KP15, b, c, p)
                  for b in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert max(ratios) / min(ratios) < 3.0


class TestHMoment:
    def test_constant_value(self):
        assert hmoment_constant(1, 1.0, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_exact_on_minform(self):
        closed, quadv = h_moment(KP1, 1.0, 0.0)
        assert closed == pytest.approx(4.0 / 3.0, rel=1e-13)
        assert quadv == pytest.approx(4.0 / 3.0, abs=1e-4)

    def test_eps_scaling(self):
        q_half = h_moment(KP1, 0.5, 0.0)[1]
        q_one = h_moment(KP1, 1.0, 0.0)[1]
        assert q_half / q_one == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("eps", [0.25, 1.0, 4.0])
    def test_closed_vs_quadrature(self, alpha, p, eps):
        kp = KernelParams(d=1, alpha=alpha)
        closed, quadv = h_moment(kp, eps, p)
        assert quadv == pytest.approx(closed, rel=1e-4)

    @pytest.mark.parametrize("alpha, p", [(1.0, 1.5), (1.5, 2.0), (1.9, 2.5)])
    def test_quadrature_resolves_singular_time_integrand(self, alpha, p):
        # p > 1: the time integrand grows like t^((1-p)/alpha) at t = 0
        closed, quadv = h_moment(KernelParams(d=1, alpha=alpha), 1.0, p)
        assert quadv == pytest.approx(closed, rel=1e-12)


class TestGPIntegral:
    def test_unit_mass_at_p1(self):
        for ck, t in ((CK1, 1.0), (CK15, 2.0)):
            assert g_p_integral(ck, t, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_squared_cauchy(self):
        assert g_p_integral(CK1, 1.0, 2.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-12)
        num, _ = quad(lambda y: (1.0 / (math.pi * (1 + y * y))) ** 2,
                      -np.inf, np.inf)
        assert num == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)

    def test_quadrature_cross_check(self):
        closed = g_p_integral(CK15, 2.0, 1.4)
        mid = 10.0 * 2.0 ** (1 / 1.5)
        num = 2.0 * (quad(lambda y: CK15.g(2.0, y) ** 1.4, 0, mid)[0]
                     + quad(lambda y: CK15.g(2.0, y) ** 1.4, mid, np.inf)[0])
        assert num == pytest.approx(closed, rel=1e-6)
        assert CK15.g_p_numeric(2.0, 1.4) == pytest.approx(closed, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_p_integral(CK15, 1.0, 0.3)    # p <= d/(d+alpha)


class TestFourier:
    def test_power_law_closed_case(self):
        # transform of (1+x^2)^{-1} at z=1 equals pi e^{-1}
        assert fourier_power_transform(1, 1.0, 0.0, 1.0) == pytest.approx(
            math.pi * math.exp(-1.0), rel=1e-10)

    @pytest.mark.parametrize("d, mu, mass", [
        (1, 0.0, lambda a: math.pi / a),
        (1, 0.5, lambda a: 2.0 / a ** 2),
        (2, 1.0, lambda a: math.pi / a ** 2),
        (3, 1.0, lambda a: math.pi ** 2 / a)])
    def test_power_law_zero_frequency_is_its_integral(self, d, mu, mass):
        # int_{R^d} (a^2 + |x|^2)^(-mu-1) dx in closed form, and the z -> 0
        # limit of the Bessel branch
        for a in (0.5, 2.0):
            assert fourier_power_transform(d, a, mu, 0.0) == pytest.approx(
                mass(a), rel=1e-13)
            assert fourier_power_transform(d, a, mu, 1e-7) == pytest.approx(
                mass(a), rel=1e-6)

    def test_nu_constants_cauchy(self):
        nu, c_nu = nu_const(1, 1.0, 1.0)
        assert nu == pytest.approx(0.5)
        assert c_nu == pytest.approx(math.pi, rel=1e-12)

    def test_equality_case(self):
        # d=1, alpha=1, p=1: transform of g is e^{-|z|} and the bound is tight
        for z in (0.3, 1.0, 2.5):
            assert g_fourier(CK1, 1.0, 1.0, z) == pytest.approx(
                math.exp(-z), rel=1e-8)
            assert g_fourier_lower(CK1, 1.0, 1.0, z) == pytest.approx(
                math.exp(-z), rel=1e-12)

    def test_bound_below_exact(self):
        for z in (0.2, 1.0, 4.0):
            exact = g_fourier(CK15, 1.0, 1.2, z)
            bound = g_fourier_lower(CK15, 1.0, 1.2, z)
            assert bound <= exact * (1.0 + 1e-12)

    def test_zero_frequency_is_mass(self):
        assert g_fourier(CK15, 2.0, 1.4, 0.0) == pytest.approx(
            g_p_integral(CK15, 2.0, 1.4), rel=1e-13)


def loop_conv_nodes(ck, u, s, x):
    """Reference: the per-s panel builder the array quadrature replaced
    (a Python set of cuts, sorted, one _gauss_panels call per s)."""
    a = ck.alpha
    w0 = s ** (1.0 / a)
    w1 = u ** (1.0 / a)
    big = 300.0 * max(abs(x), w0, w1, 1.0)
    cuts = {-big, big}
    for center, w in ((0.0, w0), (float(x), w1)):
        for m in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 48.0):
            for sgn in (-1.0, 1.0):
                c = center + sgn * m * w
                if -big < c < big:
                    cuts.add(c)
    return _gauss_panels(sorted(cuts), 32)


def loop_space_conv(ck, q, t, s, x):
    """Reference: the per-s space convolution, g evaluated as before (two
    powers per factor)."""
    u = t - s
    y, w = loop_conv_nodes(ck, u, s, x)
    a, kappa = ck.alpha, ck.kappa

    def g(tt, r):
        return kappa * tt / (tt ** (2.0 / a) + r * r) ** ((1.0 + a) / 2.0)
    return float(np.sum(w * g(u, np.abs(x - y)) ** q * g(s, np.abs(y)) ** q))


class TestArrayConvolution:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 3.0, 5.0])
    def test_matches_per_node_loop(self, t, x):
        # the per-s loop at every time node, summed in Python as the time-space
        # convolutions were: g^q at q = 1.2 and 2.2, and the ratio kernel at
        # p = 1.2, whose space convolution is the q = 2.2 one
        s, ws = (a.ravel() for a in _graded_time_nodes(t))
        for q in (1.2, 2.2):
            per_s = np.array([loop_space_conv(CK15, q, t, si, x) for si in s])
            got = _space_conv(CK15, q, t, s, x)
            assert np.max(np.abs(got / per_s - 1.0)) <= 1e-13
            ref = sum(w * v for w, v in zip(ws, per_s))
            assert abs(timespace_conv_gp(CK15, q, t, x) / ref - 1.0) <= 1e-13
        ref = sum(w * v / (CK15.g(t - si, 0.0) * CK15.g(si, 0.0))
                  for w, v, si in zip(ws, per_s, s))
        assert abs(timespace_conv_gratio(CK15, 1.2, t, x) / ref - 1.0) <= 1e-13

    @pytest.mark.parametrize("u, s, x", [(0.5, 0.5, 0.0), (0.6, 0.4, 2.0),
                                         (1e-9, 1.0, 3.0), (0.3, 0.7, 1e4)])
    def test_zero_width_panels_add_exactly_zero(self, u, s, x):
        y, w = _conv_nodes(CK15, u, s, x)
        y, w = y.reshape(33, 32), w.reshape(33, 32)
        empty = np.all(w == 0.0, axis=1)
        # every panel of nonzero width is the per-s builder's, bit for bit
        y_ref, w_ref = loop_conv_nodes(CK15, u, s, x)
        assert empty.sum() == 33 - y_ref.size // 32 >= 2
        assert np.array_equal(y[~empty].ravel(), y_ref)
        assert np.array_equal(w[~empty].ravel(), w_ref)
        # and the others add exactly 0: finite nodes, zero weights
        vals = (CK15.g(u, np.abs(x - y)) * CK15.g(s, np.abs(y))) ** 1.2
        assert np.all(np.isfinite(vals))
        assert np.all(w[empty] * vals[empty] == 0.0)

    def test_rows_are_independent(self):
        # a time's value does not depend on the other times of the vector
        s = _graded_time_nodes(1.0)[0][3]
        whole = _space_conv(CK15, 1.2, 1.0, s, 2.0)
        alone = np.array([_space_conv(CK15, 1.2, 1.0, s[i:i + 1], 2.0)[0]
                          for i in range(s.size)])
        assert np.array_equal(whole, alone)


class TestConvolution:
    def test_gamma_lambda_values(self):
        cc = conv_constants(1, 1.0, 1.0)
        assert cc.gamma_p == pytest.approx(1.0 / 8.0, rel=1e-12)
        assert cc.lambda_p == pytest.approx(1.0 / 64.0, rel=1e-12)
        assert cc.omega_d == pytest.approx(2.0)

    def test_all_positive_admissible(self):
        for p in (0.5, 1.0, 1.5, 2.0, 2.4):
            cc = conv_constants(1, 1.5, p)
            assert cc.gamma_p > 0 and cc.c_nu > 0
            assert cc.lambda_p > 0 and cc.theta_p > 0 and cc.c_hmom > 0

    def test_space_conv_certificate(self):
        rec = check_space_conv(CK15, 1.2, t_grid=(1.0,),
                               x_grid=np.linspace(-5, 5, 11))
        assert rec.passed
        assert rec.worst_slack >= 1.0

    def test_ratio_kernel_space_convolution(self):
        # g(u,.)^(p+1)/g(u,0) convolved with g(s,.)^(p+1)/g(s,0): the g^(p+1)
        # convolution over the two centre values, against quadrature and the
        # integrand divided node by node
        p, t, s, x = 1.2, 1.0, 0.4, 2.0
        u = t - s
        got = (_space_conv(CK15, p + 1.0, t, np.array([s]), x)[0]
               / (CK15.g(u, 0.0) * CK15.g(s, 0.0)))
        ref, _ = quad(lambda y: CK15.g(u, x - y) ** (p + 1.0) / CK15.g(u, 0.0)
                      * CK15.g(s, y) ** (p + 1.0) / CK15.g(s, 0.0),
                      -np.inf, np.inf, limit=300)
        assert got == pytest.approx(ref, rel=1e-9)
        y, w = _conv_nodes(CK15, u, s, x)
        nodewise = np.sum(w * (CK15.g(u, np.abs(x - y)) ** (p + 1.0)
                               / CK15.g(u, 0.0) * CK15.g(s, np.abs(y))
                               ** (p + 1.0) / CK15.g(s, 0.0)))
        assert got == pytest.approx(nodewise, rel=1e-14)

    def test_gauss_panels_match_per_panel_rule(self):
        panels = [-300.0, -2.5, 0.0, 1e-9, 0.25, 1.0, 45.0]
        x, w = _gauss_panels(panels, 16)
        bx, bw = np.polynomial.legendre.leggauss(16)
        pairs = list(zip(panels[:-1], panels[1:]))
        assert np.array_equal(x, np.concatenate(
            [0.5 * (hi - lo) * bx + 0.5 * (hi + lo) for lo, hi in pairs]))
        assert np.array_equal(w, np.concatenate(
            [0.5 * (hi - lo) * bw for lo, hi in pairs]))

    def test_space_conv_accuracy(self):
        ref, _ = quad(lambda y: CK15.g(0.6, 2.0 - y) ** 1.2 * CK15.g(0.4, y) ** 1.2,
                      -np.inf, np.inf, limit=300)
        assert _space_conv(CK15, 1.2, 1.0, np.array([0.4]), 2.0)[0] \
            == pytest.approx(ref, rel=1e-9)

    def test_timespace_bounds(self):
        p = 1.2
        cc = conv_constants(1, 1.5, p)
        a_ml = 1.0 - (p - 1.0) / 1.5
        for t, x in ((0.5, 0.0), (1.0, 0.5), (2.0, 3.0)):
            lhs = timespace_conv_gp(CK15, p, t, x)
            rhs = cc.lambda_p * gamma_fn(a_ml) / gamma_fn(2 * a_ml) \
                * t ** a_ml * CK15.g(t, x) ** p
            assert lhs >= rhs
            lhs1 = timespace_conv_gratio(CK15, p, t, x)
            gp1 = CK15.g(t, x) ** (p + 1.0) / CK15.g(t, 0.0)
            rhs1 = cc.theta_p * gamma_fn(a_ml) / gamma_fn(2 * a_ml) \
                * t ** a_ml * gp1
            assert lhs1 >= rhs1
