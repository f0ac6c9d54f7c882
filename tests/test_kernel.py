import math

import numpy as np
import pytest
from scipy.integrate import quad

from levyheat.errors import DomainError
from levyheat.kernel import (ComparisonKernel, KernelParams, I_formula,
                             QuadSettings, conv_constants, conv_lower_certify,
                             fourier_power_transform, g_fourier,
                             g_fourier_lower, g_p_integral, get_profile,
                             h_moment, hmoment_constant,
                             kappa_const, kernel_sandwich_check,
                             minform_kernel, nu_const, q_density,
                             q_mass_numeric, space_conv_gp,
                             tail_coefficient, timespace_conv_gp,
                             timespace_conv_gratio, weighted_kernel_integral)
from levyheat.specfun import gamma_fn

KP1 = KernelParams(d=1, alpha=1.0)
KP15 = KernelParams(d=1, alpha=1.5)
CK1 = ComparisonKernel(KP1)
CK15 = ComparisonKernel(KP15)

# mpmath quadosc of (1/pi) int_0^inf exp(-2 xi^1.5) cos(3 xi) dxi, 30 digits
Q_A15_T2_X3 = 0.059390873869693941

# regression goldens from the first certified run of the default grid
# (d=1, alpha=1.5, t in {0.5, 1, 2}, x = 0 plus log-spaced to 20)
SANDWICH_GOLDEN = {
    "c1_minform": 0.23541281764685917,
    "c2_minform": 0.49754534265119466,
    "c1_g": 0.6885777861536297,
    "c2_g": 1.5049357110976804,
}


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
        from levyheat.kernel import StableProfile
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

    def test_profile_cache_keeps_settings(self):
        assert get_profile(1.3).settings.tail_terms == 6
        prof = get_profile(1.3, QuadSettings(tail_terms=2))
        assert prof.settings.tail_terms == 2
        assert get_profile(1.3, QuadSettings(tail_terms=2)) is prof
        assert get_profile(1.3, QuadSettings()) is get_profile(1.3)

    def test_radial_monotonicity(self):
        xs = np.linspace(0.0, 15.0, 40)
        vals = [q_density(KP15, 1.0, x, fast=True) for x in xs]
        assert all(v2 < v1 for v1, v2 in zip(vals[:-1], vals[1:]))

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

    def test_semigroup_numeric(self):
        # q_s * q_t = q_{s+t} pointwise, d = 1
        prof = get_profile(1.5)
        s, t = 0.6, 0.9
        for x in (0.0, 1.0, 3.0):
            def f(y):
                return q_density(KP15, s, x - y, fast=True) * \
                    q_density(KP15, t, y, fast=True)
            val, _ = quad(f, -80.0, 80.0, points=[0.0, x], limit=300)
            assert val == pytest.approx(q_density(KP15, s + t, x), abs=1e-4)

    def test_d3_center(self):
        kp3 = KernelParams(d=3, alpha=1.5)
        from levyheat.kernel import q_center
        assert q_density(kp3, 1.0, 1e-14) == pytest.approx(q_center(kp3, 1.0),
                                                           rel=1e-6)

    def test_d2_numeric_vs_center_and_cauchy(self):
        from levyheat.kernel import kappa_const, q_center
        kp2 = KernelParams(d=2, alpha=1.5)
        assert q_density(kp2, 1.0, 0.0) == pytest.approx(q_center(kp2, 1.0),
                                                         rel=1e-8)
        # alpha = 1 in d = 2 is the bivariate Cauchy kernel
        kp2c = KernelParams(d=2, alpha=1.0)
        r = 1.3
        expect = kappa_const(2, 1.0) * 1.0 / (1.0 + r * r) ** 1.5
        assert q_density(kp2c, 1.0, (r, 0.0)) == pytest.approx(expect, rel=1e-12)


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
            assert CK15.g_mass_numeric(t) == pytest.approx(1.0, abs=1e-8)


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


class TestSandwich:
    def test_alpha1_identity(self):
        rep = kernel_sandwich_check(KP1, [0.5, 1.0, 2.0], sandwich_grid())
        assert rep.c1_g == pytest.approx(1.0, abs=1e-9)
        assert rep.c2_g == pytest.approx(1.0, abs=1e-9)

    def test_goldens_alpha15(self):
        rep = kernel_sandwich_check(KP15, [0.5, 1.0, 2.0], sandwich_grid())
        assert rep.valid
        assert 0.0 < rep.c1_minform <= rep.c2_minform < math.inf
        for key, val in SANDWICH_GOLDEN.items():
            assert getattr(rep, key) == pytest.approx(val, rel=1e-6)

    def test_tail_ratio_approaches_constant(self):
        cref = tail_coefficient(1.5, 1)
        ratios = [q_density(KP15, 1.0, x) * x ** 2.5 for x in (50.0, 100.0, 200.0)]
        gaps = [abs(r / cref - 1.0) for r in ratios]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.02

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            kernel_sandwich_check(KP15, [], [1.0])


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

    def test_domain(self):
        with pytest.raises(DomainError):
            g_p_integral(CK15, 1.0, 0.3)    # p <= d/(d+alpha)


class TestFourier:
    def test_power_law_closed_case(self):
        # transform of (1+x^2)^{-1} at z=1 equals pi e^{-1}
        assert fourier_power_transform(1, 1.0, 0.0, 1.0) == pytest.approx(
            math.pi * math.exp(-1.0), rel=1e-10)

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
        rep = conv_lower_certify(CK15, 1.2, 1.0, 0.4, np.linspace(-5, 5, 11))
        assert rep.passed
        assert rep.min_slack >= 1.0

    def test_space_conv_accuracy(self):
        ref, _ = quad(lambda y: CK15.g(0.6, 2.0 - y) ** 1.2 * CK15.g(0.4, y) ** 1.2,
                      -np.inf, np.inf, limit=300)
        assert space_conv_gp(CK15, 1.2, 1.0, 0.4, 2.0) == pytest.approx(
            ref, rel=1e-9)

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
