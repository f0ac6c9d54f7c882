import math

import numpy as np
import pytest

from levyheat.analytics import (BoundsReport, ConstantsConfig, ModelSpec,
                                RenewalProblem, SigmaSpec, U0Spec,
                                admissible_p_range, beta0, compute_bounds,
                                contraction_constant, lower_bound_exponential,
                                renewal_solve, renewal_weight, subexp_rate,
                                upper_bounds)
from levyheat.errors import DomainError, NoRootError
from levyheat.kernel import KernelParams
from levyheat.noise import LevyMeasureSpec

KP1 = KernelParams(d=1, alpha=1.0)
KP15 = KernelParams(d=1, alpha=1.5)
ATOMS = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0), (-1.0, 1.0)))


def model(kp=KP1, slope=1.0, u0=None, levy=ATOMS, rho=0.0):
    return ModelSpec(kp=kp, rho=rho, levy=levy,
                     sigma=SigmaSpec(kind="linear", slope=slope),
                     u0=u0 or U0Spec())


class TestAdmissibleRange:
    def test_values(self):
        assert admissible_p_range(KP15) == (1.0, 2.5)
        assert admissible_p_range(KernelParams(d=2, alpha=1.0)) == (1.0, 1.5)

    def test_endpoint_rejected_downstream(self):
        with pytest.raises(DomainError):
            contraction_constant(model(KP15), 4.0, 0.0, 2.5)


class TestContraction:
    def test_worked_value(self):
        assert contraction_constant(model(), 4.0, 0.0, 1.0) == pytest.approx(
            2.0, rel=1e-12)

    def test_beta_scaling(self):
        c4 = contraction_constant(model(), 4.0, 0.0, 1.0)
        c40 = contraction_constant(model(), 40.0, 0.0, 1.0)
        assert c40 / c4 == pytest.approx(0.1, rel=1e-12)

    def test_rho_needs_p_at_least_two(self):
        ms = ModelSpec(kp=KernelParams(d=1, alpha=1.8), rho=0.5, levy=ATOMS,
                       sigma=SigmaSpec(), u0=U0Spec())
        with pytest.raises(DomainError):
            contraction_constant(ms, 4.0, 0.0, 1.0)
        # and it is accepted for p >= 2
        assert contraction_constant(ms, 4.0, 0.0, 2.0) > 0.0

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.4, 1.2), (0.0, 2.0)])
    def test_decreasing_to_zero(self, c, p):
        kp = KP15 if p >= 2.0 or c > 0 else KP1
        ms = model(kp)
        betas = np.logspace(0, 12, 13)
        vals = [contraction_constant(ms, b, c, p) for b in betas]
        assert all(v2 < v1 for v1, v2 in zip(vals[:-1], vals[1:]))
        # slowest admissible decay here is beta^(-1/6)
        assert vals[-1] < 0.02 * vals[0]


class TestBeta0:
    def test_worked_value(self):
        assert beta0(model(), 0.0, 1.0) == pytest.approx(16.0, rel=1e-9)

    def test_monotone_in_lip(self):
        assert beta0(model(slope=2.0), 0.0, 1.0) == pytest.approx(32.0, rel=1e-9)

    def test_monotone_in_levy_mass(self):
        quads = LevyMeasureSpec(variant="atoms", atoms=((1.0, 4.0), (-1.0, 4.0)))
        assert beta0(model(levy=quads), 0.0, 1.0) == pytest.approx(64.0, rel=1e-9)

    def test_no_root_error(self):
        with pytest.raises(NoRootError):
            beta0(model(), 0.0, 1.0, bracket=(1e-6, 8.0))


class TestUpperBounds:
    def test_lyap_product(self):
        rep = upper_bounds(model(), 0.0, 1.0)
        assert rep.lyap_upper == pytest.approx(16.0, rel=1e-9)
        assert rep.growth_upper is None

    def test_growth_quotient(self):
        ms = model(KP15, u0=U0Spec(kind="poly_decay", c0=1.0, decay_c=0.5))
        rep = upper_bounds(ms, 0.5, 2.0)
        assert rep.growth_upper == pytest.approx(rep.beta0 / 0.5, rel=1e-12)
        assert rep.lyap_upper == pytest.approx(2.0 * rep.beta0, rel=1e-12)

    def test_growth_requires_sigma0(self):
        ms = ModelSpec(kp=KP15, rho=0.0, levy=ATOMS,
                       sigma=SigmaSpec(kind="affine", slope=1.0, intercept=0.3),
                       u0=U0Spec(kind="poly_decay", decay_c=0.5))
        with pytest.raises(DomainError):
            upper_bounds(ms, 0.5, 2.0)

    def test_growth_requires_decaying_u0(self):
        # constant u0 (no decay) cannot support the growth bound
        with pytest.raises(DomainError):
            upper_bounds(model(KP15), 0.5, 2.0)
        # decay exponent below the requested weight: hypothesis fails too
        ms = model(KP15, u0=U0Spec(kind="poly_decay", decay_c=0.3))
        with pytest.raises(DomainError):
            upper_bounds(ms, 0.5, 2.0)

    def test_lower_bound_monotone_in_levy_moment(self):
        ms1 = model(KP15, u0=U0Spec(kind="poly_decay", decay_c=0.5))
        quads = LevyMeasureSpec(variant="atoms", atoms=((1.0, 4.0), (-1.0, 4.0)))
        ms4 = model(KP15, levy=quads, u0=U0Spec(kind="poly_decay", decay_c=0.5))
        # value scales like (sigma_lambda)^(1/(1-(p-1)d/alpha)) = cube at p=2
        ratio = lower_bound_exponential(ms4, 2.0) / lower_bound_exponential(ms1, 2.0)
        assert ratio == pytest.approx(4.0 ** 3, rel=1e-10)

    def test_assumptions_echoed(self):
        rep = upper_bounds(model(), 0.0, 1.0,
                           constants=ConstantsConfig(k3=2.0))
        assert any("k3=2" in a for a in rep.assumptions)


class TestLowerBoundExponential:
    def setup_method(self):
        self.ms = model(KP15, u0=U0Spec(kind="poly_decay", decay_c=0.5))

    def test_unit_constant_substitution(self):
        from levyheat.kernel import conv_constants
        lam = conv_constants(1, 1.5, 2.0).lambda_p
        # with sigma_lambda = 2 and all configured constants 1:
        # c** = 2/4, exponent 1/(1 - 1/1.5) = 3, denominator p(d+alpha) = 5
        expect = (0.5 * lam) ** 3.0 / 5.0
        assert lower_bound_exponential(self.ms, 2.0) == pytest.approx(
            expect, rel=1e-12)

    def test_exponent_value(self):
        assert 1.0 / (1.0 - (2.0 - 1.0) / 1.5) == pytest.approx(3.0)

    def test_monotone_in_lip0(self):
        ms2 = model(KP15, slope=2.0, u0=U0Spec(kind="poly_decay", decay_c=0.5))
        assert lower_bound_exponential(ms2, 2.0) > lower_bound_exponential(self.ms, 2.0)

    def test_hypotheses(self):
        with pytest.raises(DomainError):
            lower_bound_exponential(model(KP1), 2.0)     # alpha > d fails
        skew = LevyMeasureSpec(variant="atoms", atoms=((2.0, 1.0),))
        with pytest.raises(DomainError):
            lower_bound_exponential(model(KP15, levy=skew), 2.0)  # b != 0


class TestSubexp:
    def test_p_two_is_linear(self):
        # continuity toward the exponential regime
        r, _ = subexp_rate(KP15, 1.999999)
        assert r == pytest.approx(1.0, abs=1e-4)

    def test_worked_value(self):
        r, _ = subexp_rate(KP15, 1.5)
        assert r == pytest.approx(0.375, rel=1e-12)

    def test_limit_p_to_one(self):
        r, _ = subexp_rate(KP15, 1.0 + 1e-9)
        assert r == pytest.approx((1.0 - 1.0 / 1.5) / 2.0, rel=1e-6)

    def test_eta_star_with_model(self):
        ms = model(KP15)
        r, eta = subexp_rate(KP15, 1.5, ms)
        assert eta is not None and eta > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            subexp_rate(KP1, 1.5)
        with pytest.raises(DomainError):
            subexp_rate(KP15, 2.3)


class TestComputeBounds:
    def test_full_report_fields(self):
        ms = model(KP15, u0=U0Spec(kind="poly_decay", decay_c=0.5))
        rep = compute_bounds(ms, 0.5, 2.0)
        assert isinstance(rep, BoundsReport)
        assert rep.lyap_upper == pytest.approx(2.0 * rep.beta0)
        assert rep.growth_lower_exp is not None and rep.growth_lower_exp > 0
        assert rep.subexp_rate == 1.0
        assert rep.constants is not None
        d = rep.to_dict()
        assert "assumptions" in d and "conv_constants" in d

    def test_subexp_branch(self):
        rep = compute_bounds(model(KP15), 0.0, 1.5)
        assert rep.subexp_rate == pytest.approx(0.375)
        assert rep.eta_star is not None and rep.eta_star > 0
        assert rep.growth_lower_exp is None


class TestRenewalWeight:
    def test_atom_prefactor_numerator(self):
        wt = renewal_weight(KP1, ATOMS, 1.2, 1.0, 0.5)
        assert ATOMS.moment_above(1.2, 0.5) == pytest.approx(2.0)
        assert wt.prefactor > 0.0

    def test_eps_free_integral_when_alpha_equals_d(self):
        # p (alpha/d - 1) / 2 = 0: the integral is eps-independent
        w1 = renewal_weight(KP1, ATOMS, 1.2, 1.0, 0.5)
        w2 = renewal_weight(KP1, ATOMS, 1.2, 0.25, 0.5)
        assert w2.integral == pytest.approx(w1.integral, rel=1e-12)

    def test_eps_scaling_alpha15(self):
        w1 = renewal_weight(KP15, ATOMS, 1.2, 1.0, 0.5)
        w2 = renewal_weight(KP15, ATOMS, 1.2, 0.25, 0.5)
        # exponent p (alpha/d - 1)/2 = 0.3
        assert w2.integral / w1.integral == pytest.approx(4.0 ** 0.3, rel=0.10)

    def test_table_matches_integral(self):
        # trapezoid on the tabulated weight vs the exact closed integral;
        # the t -> 0 power singularity limits the uniform-grid accuracy
        wt = renewal_weight(KP15, ATOMS, 1.2, 1.0, 0.5)
        num = np.trapezoid(wt.w, wt.t)
        assert num == pytest.approx(wt.integral, rel=5e-3)

    def test_degenerate_rejected(self):
        from levyheat.errors import DegenerateMeasureError
        with pytest.raises(DegenerateMeasureError):
            renewal_weight(KP15, ATOMS, 1.2, 1.0, 2.0)   # no mass above 2


class TestRenewalSolve:
    def test_linear_oracle(self):
        rp = RenewalProblem(c3=1.0, c4=1.0, horizon=10.0, dt=1e-3,
                            weight=lambda t: np.exp(-t))
        sol = renewal_solve(rp)
        assert np.abs(sol.f - (1.0 + sol.t)).max() <= 1e-6
        assert sol.beta1 is None

    def test_exponential_oracle(self):
        rp = RenewalProblem(c3=1.0, c4=1.0, horizon=10.0, dt=1e-3,
                            weight=lambda t: 2.0 * np.exp(-t))
        sol = renewal_solve(rp)
        assert np.abs(sol.f - (2.0 * np.exp(sol.t) - 1.0)).max() <= 1e-6
        assert sol.beta1 == pytest.approx(1.0, abs=1e-4)
        assert sol.limit_lhs == pytest.approx(2.0, abs=2e-4)
        assert sol.limit_rhs == pytest.approx(2.0, abs=2e-4)

    def test_memoryless(self):
        rp = RenewalProblem(c3=3.0, c4=0.0, horizon=2.0, dt=1e-3,
                            weight=lambda t: np.exp(-t))
        sol = renewal_solve(rp)
        assert np.allclose(sol.f, 3.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            RenewalProblem(c3=0.0, c4=1.0, horizon=1.0, dt=1e-3,
                           weight=lambda t: t)
        with pytest.raises(DomainError):
            RenewalProblem(c3=1.0, c4=1.0, horizon=1.0, dt=0.3,
                           weight=lambda t: t)


class TestEmpiricalMomentInequalities:
    """The two moment inequalities behind the lower-bound constants, checked
    on the mathematics itself: no package code computes them."""

    def test_poisson_moment_floor(self):
        # E[X^r] >= c * (lam for lam < 1; lam^r for lam >= 1) for a fitted c > 0
        ks = np.arange(1, 200)
        log_fact = np.array([math.lgamma(k + 1.0) for k in ks])
        ratios = []
        for lam in (0.1, 1.0, 10.0):
            for r in (0.5, 1.0, 2.0):
                moment = np.exp(ks * math.log(lam) - lam - log_fact
                                + r * np.log(ks)).sum()
                target = lam if lam < 1.0 else lam ** r
                ratios.append(moment / target)
        assert min(ratios) > 0.0
        assert min(ratios) > 0.5     # fitted constant is far from degenerate

    @pytest.mark.parametrize("dist", ["uniform", "two_point", "exp_centered"])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 2.5, 3.0])
    def test_centered_floor(self, dist, p):
        # E|a + X|^p >= kappa_p (|a|^p + E|X|^p) for E X = 0, with
        # kappa_p = 1/4 on (1, 2] and 1/6 on (2, 3]
        rng = np.random.default_rng(99)
        n = 200_000
        if dist == "uniform":
            x = rng.uniform(-1.0, 1.0, n)
        elif dist == "two_point":
            x = rng.choice([-1.0, 1.0], n)
        else:
            x = rng.exponential(1.0, n) - 1.0
        kap = 0.25 if p <= 2.0 else 1.0 / 6.0
        for a in (-2.0, -0.3, 0.0, 0.5, 3.0):
            vals = np.abs(a + x) ** p
            lhs, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
            rhs = kap * (abs(a) ** p + (np.abs(x) ** p).mean())
            assert lhs >= rhs - 3.0 * se
