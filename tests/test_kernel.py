import math

import numpy as np
import pytest
from scipy.integrate import quad

from levyheat.certify import check_sandwich, check_space_conv
from levyheat.errors import DomainError, QuadratureError
from levyheat.kernel import (ComparisonKernel, KernelParams, I_formula,
                             _conv_nodes, _gauss_panels, _quad_checked,
                             conv_constants, fourier_power_transform,
                             g_fourier, g_fourier_lower, g_p_integral,
                             get_profile, h_moment, hmoment_constant,
                             minform_kernel, nu_const, q_density,
                             q_mass_numeric, space_conv_gp, tail_coefficient,
                             timespace_conv_gp, timespace_conv_gratio,
                             weighted_kernel_integral)
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

    def test_profile_cache_keys_on_exact_alpha(self):
        near = get_profile(1.5 + 1e-13)
        assert near is not get_profile(1.5)
        assert near.alpha == 1.5 + 1e-13
        assert get_profile(1.5 + 1e-13) is near
        assert get_profile(1.5) is get_profile(3 / 2)

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
        assert CK15.g_p_numeric(2.0, 1.4) == pytest.approx(closed, rel=1e-12)

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
        rec = check_space_conv(CK15, 1.2, t_grid=(1.0,), s_fracs=(0.4,),
                               x_grid=np.linspace(-5, 5, 11))
        assert rec.passed
        assert rec.worst_slack >= 1.0

    def test_ratio_kernel_space_convolution(self):
        # g(u,.)^(p+1)/g(u,0) convolved with g(s,.)^(p+1)/g(s,0): the g^(p+1)
        # convolution over the two centre values, against quadrature and the
        # integrand divided node by node
        p, t, s, x = 1.2, 1.0, 0.4, 2.0
        u = t - s
        got = space_conv_gp(CK15, p + 1.0, t, s, x) / (CK15.g(u, 0.0) * CK15.g(s, 0.0))
        ref, _ = quad(lambda y: CK15.g(u, x - y) ** (p + 1.0) / CK15.g(u, 0.0)
                      * CK15.g(s, y) ** (p + 1.0) / CK15.g(s, 0.0),
                      -np.inf, np.inf, limit=300)
        assert got == pytest.approx(ref, rel=1e-9)
        y, w = _conv_nodes(CK15, u, s, x)
        nodewise = np.sum(w * (CK15.g_radial(u, np.abs(x - y)) ** (p + 1.0)
                               / CK15.g(u, 0.0) * CK15.g_radial(s, np.abs(y))
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
