import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import brentq

from levyheat.analytics import (BoundsReport, ConstantsConfig, ModelSpec,
                                RenewalProblem, SigmaSpec, U0Spec, beta0,
                                compute_bounds, contraction_constant,
                                lower_bound_exponential, renewal_solve,
                                renewal_weight, subexp_rate, upper_bounds)
from levyheat import analytics
from levyheat.errors import DomainError, NoRootError, ValidationError
from levyheat.kernel import KernelParams, envelope_constants
from levyheat.noise import LevyMeasureSpec
from levyheat.solver import GridSpec, build_discrete_kernel

KP1 = KernelParams(d=1, alpha=1.0)
KP15 = KernelParams(d=1, alpha=1.5)
ATOMS = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0), (-1.0, 1.0)))


def model(kp=KP1, slope=1.0, u0=None, levy=ATOMS, rho=0.0):
    return ModelSpec(kp=kp, rho=rho, levy=levy,
                     sigma=SigmaSpec(kind="linear", slope=slope),
                     u0=u0 or U0Spec())


class TestAdmissibleRange:
    def test_endpoint_rejected_downstream(self):
        with pytest.raises(DomainError):
            contraction_constant(model(KP15), 4.0, 0.0, 2.5)


# each range check, given a value that is not a finite number
NON_FINITE = {
    "GridSpec.half_width": lambda v: GridSpec(half_width=v),
    "GridSpec.horizon": lambda v: GridSpec(horizon=v),
    "ModelSpec.rho": lambda v: model(KP15, rho=v),
    "U0Spec.decay_c": lambda v: U0Spec(kind="poly_decay", decay_c=v),
    **{f"RenewalProblem.{name}": lambda v, name=name: RenewalProblem(
        **{"c3": 1.0, "c4": 1.0, "horizon": 1.0, "dt": 0.1, name: v},
        weight=np.exp) for name in ("c3", "c4", "horizon", "dt")},
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("check", NON_FINITE)
def test_range_checks_reject_non_finite(check, value):
    # a check written x <= 0 lets NaN through; none may let a bare
    # ValueError (round(nan)) or OverflowError (round(inf)) escape instead
    with pytest.raises((DomainError, ValidationError)):
        NON_FINITE[check](value)


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

    def test_drift_term_of_an_asymmetric_measure(self):
        # atoms (2, 0.5), (-0.5, 1) have drift b = 2 * 0.5 = 1 (only
        # |z| >= 1 counts), and every |z|^p moment of the symmetric
        # (+-2, 0.25), (+-0.5, 0.5); so the two majorants differ by the
        # drift term |b| k2 I(beta, 0, 1), with I(beta, 0, 1) =
        # 2 (1 + alpha) / (alpha beta) in closed form: 5 at alpha = 1.5,
        # beta = 2, k2 = 3
        asym = LevyMeasureSpec(atoms=((2.0, 0.5), (-0.5, 1.0)))
        sym = LevyMeasureSpec(atoms=((2.0, 0.25), (-2.0, 0.25),
                                     (0.5, 0.5), (-0.5, 0.5)))
        consts = ConstantsConfig(k2=3.0)
        gap = (contraction_constant(model(KP15, levy=asym), 2.0, 0.0, 1.2, consts)
               - contraction_constant(model(KP15, levy=sym), 2.0, 0.0, 1.2, consts))
        assert model(KP15, levy=asym).b == 1.0
        assert gap == pytest.approx(5.0, rel=1e-12)
        # and beta0 pays for it
        assert (beta0(model(KP15, levy=asym), 0.0, 1.2)
                > beta0(model(KP15, levy=sym), 0.0, 1.2))

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

    def test_no_root_error(self, monkeypatch):
        monkeypatch.setattr(analytics, "BETA_BRACKET", (1e-6, 8.0))
        with pytest.raises(NoRootError):
            beta0(model(), 0.0, 1.0)

    def test_nan_majorant_raises(self, monkeypatch):
        # NaN compares false both ways: a ceiling test `excess > 0` lets it
        # through and the bisection returns the bracket floor.  A NaN slope
        # or k3, which made the majorant NaN, is refused where it is set,
        # so the NaN majorant is patched in
        for make in (lambda: model(slope=math.nan),
                     lambda: ConstantsConfig(k3=math.nan)):
            with pytest.raises(DomainError):
                make()
        monkeypatch.setattr(analytics, "contraction_constant",
                            lambda *args: math.nan)
        with pytest.raises(NoRootError):
            beta0(model(), 0.0, 1.0)


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
        # with sigma_lambda = 2, all configured constants 1 and the derived
        # c1_g: c** = 2 c1_g^2 / 4, exponent 1/(1 - 1/1.5) = 3, denominator
        # p(d+alpha) = 5
        c1_g = envelope_constants(1.5)[0]
        expect = (0.5 * c1_g ** 2 * lam) ** 3.0 / 5.0
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

    def test_p_two_exactly_one(self):
        # the formula, not a special case: 1.0 exactly at p = 2 and d = 1,
        # with no eta_star, which needs p < 2
        assert subexp_rate(KernelParams(1, 1.5), 2.0)[0] == 1.0
        assert subexp_rate(KP15, 2.0, model(KP15)) == (1.0, None)

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


def slope2_table():
    return SigmaSpec(kind="table", table_x=(-1.0, 0.0, 1.0),
                     table_y=(-2.0, 0.0, 2.0))


class TestTableSigma:
    def test_lipschitz_data_derived(self):
        # steepest segment; held flat beyond the samples, so |sigma(w)|/|w|
        # tends to 0
        table = slope2_table()
        assert (table.lip, table.lip0) == (2.0, 0.0)
        steep = SigmaSpec(kind="table", table_x=(0.0, 1.0, 1.5),
                          table_y=(0.0, 1.0, -1.0))
        assert steep.lip == 4.0
        with pytest.raises(TypeError):
            SigmaSpec(kind="table", table_x=(0.0, 1.0), table_y=(0.0, 1.0),
                      lip=0.5)

    def test_bounds_match_linear_model(self):
        table = ModelSpec(kp=KP15, levy=ATOMS, sigma=slope2_table(),
                          u0=U0Spec())
        rep = compute_bounds(table, 0.0, 2.0)
        assert rep.beta0 == pytest.approx(beta0(model(KP15, slope=2.0), 0.0, 2.0),
                                          rel=1e-9)
        assert rep.growth_lower_exp is None
        assert rep.envelope_g is None
        with pytest.raises(DomainError):
            lower_bound_exponential(table, 2.0)

    @pytest.mark.parametrize("xs", [(1.0, 0.0, -1.0), (-1.0, 0.0, 0.0)])
    def test_non_increasing_x_rejected(self, xs):
        with pytest.raises(ValidationError) as err:
            SigmaSpec(kind="table", table_x=xs, table_y=(-2.0, 0.0, 2.0))
        assert err.value.key_path == "table_x"


class TestComputeBounds:
    def test_full_report_fields(self):
        ms = model(KP15, u0=U0Spec(kind="poly_decay", decay_c=0.5))
        rep = compute_bounds(ms, 0.5, 2.0)
        assert isinstance(rep, BoundsReport)
        assert rep.lyap_upper == pytest.approx(2.0 * rep.beta0)
        assert rep.growth_lower_exp is not None and rep.growth_lower_exp > 0
        assert rep.subexp_rate == 1.0
        assert rep.conv_constants is not None
        d = asdict(rep)
        assert "assumptions" in d and "conv_constants" in d

    def test_subexp_branch(self):
        rep = compute_bounds(model(KP15), 0.0, 1.5)
        assert rep.subexp_rate == pytest.approx(0.375)
        assert rep.eta_star is not None and rep.eta_star > 0
        assert rep.growth_lower_exp is None

    # the reference model's lower figures (c = 0) with c1_g = c2_g = 1, as
    # they were while the pair was a setting of that default
    UNIT_FIGURES = {1.2: ("eta_star", 1.5974333400965886e-06),
                    1.5: ("eta_star", 8.363809183275947e-09),
                    2.0: ("growth_lower_exp", 2.1421767623563988e-13)}

    @pytest.mark.parametrize("p", sorted(UNIT_FIGURES))
    def test_unit_pair_reproduces_unit_figures(self, monkeypatch, p):
        monkeypatch.setattr(analytics, "envelope_constants",
                            lambda alpha: (1.0, 1.0))
        name, unit = self.UNIT_FIGURES[p]
        rep = compute_bounds(model(KP15), 0.0, p)
        assert getattr(rep, name) == unit
        assert rep.envelope_g == (1.0, 1.0)

    @pytest.mark.parametrize("p", sorted(UNIT_FIGURES))
    def test_lower_figures_move_only_through_the_pair(self, p):
        # c** carries c1_g^p at p >= 2 and c1_g^(p+1) / c2_g below; the
        # figure raises it to 1 / (1 - (p-1)/alpha)
        c1, c2 = envelope_constants(1.5)
        name, unit = self.UNIT_FIGURES[p]
        rep = compute_bounds(model(KP15), 0.0, p)
        factor = c1 ** p if p >= 2.0 else c1 ** (p + 1.0) / c2
        assert getattr(rep, name) == pytest.approx(
            unit * factor ** (1.0 / (1.0 - (p - 1.0) / 1.5)), rel=1e-12)
        assert rep.envelope_g == (c1, c2)


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
        assert sol.beta1 is None and sol.beta1_half is None

    def test_exponential_oracle(self):
        rp = RenewalProblem(c3=1.0, c4=1.0, horizon=10.0, dt=1e-3,
                            weight=lambda t: 2.0 * np.exp(-t))
        sol = renewal_solve(rp)
        assert np.abs(sol.f - (2.0 * np.exp(sol.t) - 1.0)).max() <= 1e-6
        assert sol.beta1 == pytest.approx(1.0, abs=1e-4)
        # the two grids' roots, 1 + 6.6e-7 and 1 + 1.6e-7: the trapezoid
        # root's error falls as dt^2
        assert sol.beta1_half == pytest.approx(1.0 + 1.625e-7, abs=1e-9)
        assert (sol.beta1 - 1.0) / (sol.beta1_half - 1.0) == pytest.approx(
            4.0, rel=5e-2)
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


def volterra_loop(wv, c3, c4, dt):
    """Reference trapezoid solution of f = c3 + c4 (w * f), one step at a
    time in O(n^2), written apart from the package's FFT solve so the two
    can be compared."""
    n = len(wv) - 1
    f = np.empty(n + 1)
    f[0] = c3
    denom = 1.0 - c4 * dt * 0.5 * wv[0]
    for i in range(1, n + 1):
        conv = 0.5 * wv[i] * f[0] + float(np.dot(wv[i - 1:0:-1], f[1:i]))
        f[i] = (c3 + c4 * dt * conv) / denom
    return f


def _model_weight_table():
    # the renewal_check path: a tabulated weight, read by interpolation
    wt = renewal_weight(KP15, ATOMS, 1.2, 1.0, 0.5)
    t = np.arange(4001) * 1e-3
    table = np.interp(t, wt.t, wt.w)
    return lambda u: np.interp(u, t, table)


RENEWAL_CASES = {
    "linear-oracle": (1.0, 1.0, 10.0, 1e-2, lambda t: np.exp(-t)),
    "exponential-oracle": (1.0, 1.0, 10.0, 1e-2, lambda t: 2.0 * np.exp(-t)),
    "c4-zero": (3.0, 0.0, 2.0, 1e-3, lambda t: np.exp(-t)),
    "oscillating": (1.0, 3.0, 10.0, 1e-2,
                    lambda t: np.exp(-t) * np.cos(5.0 * t) ** 2),
    "power-law": (1.0, 1.0, 20.0, 1e-2, lambda t: (1.0 + t) ** -1.5),
    "slow-decay": (1.0, 5.0, 5.0, 2e-3, lambda t: np.exp(-0.1 * t)),
    "fast-growth": (1.0, 20.0, 3.0, 2e-3, lambda t: np.exp(-t)),
    "tabulated": (1.0, 0.5, 4.0, 1e-3, None),
}


class TestRenewalFastSolve:
    @pytest.mark.parametrize("case", sorted(RENEWAL_CASES))
    def test_matches_loop(self, case):
        c3, c4, horizon, dt, weight = RENEWAL_CASES[case]
        rp = RenewalProblem(c3=c3, c4=c4, horizon=horizon, dt=dt,
                            weight=weight or _model_weight_table())
        sol = renewal_solve(rp)
        refs = []
        for refine in (1, 2):
            wv = rp.weight_values(rp.grid(refine))
            ref = volterra_loop(wv, c3, c4, dt / refine)
            fast, _ = analytics._volterra_trapezoid(wv, c3, c4, dt / refine)
            assert np.max(np.abs(fast - ref) / ref) <= 1e-12
            refs.append(ref)
        richardson = (4.0 * refs[1][::2] - refs[0]) / 3.0
        assert np.max(np.abs(sol.f - richardson) / richardson) <= 1e-12

    def test_step_too_large(self):
        rp = RenewalProblem(c3=1.0, c4=5.0, horizon=1.0, dt=0.5,
                            weight=lambda t: np.exp(-t))
        with pytest.raises(DomainError, match="step too large"):
            renewal_solve(rp)


def _tilted_series(n):
    # 1 - v(z) for the exp:2,1 trapezoid weights at dt = 1e-3, tilted by
    # its own growth root as _renewal_series tilts it: sum_m v_m = 1, the
    # worst-conditioned case the renewal solve inverts
    dt = 1e-3
    v = dt * 2.0 * np.exp(-dt * np.arange(1, n))
    v /= 1.0 - dt
    lags = np.arange(1, n)
    excess = lambda s: float(np.dot(v, np.exp(-s * lags))) - 1.0
    s = brentq(excess, 0.0, 1.0, xtol=1e-300) if excess(0.0) > 0.0 else 0.0
    return np.concatenate(([1.0], -v * np.exp(-s * lags)))


def inverse_by_convolve(a):
    """Newton doubling b <- b (2 - a b) mod z^m with np.convolve products."""
    b = np.array([1.0 / a[0]])
    while len(b) < len(a):
        m = min(2 * len(b), len(a))
        corr = -np.convolve(a[:m], b)[:m]
        corr[0] += 2.0
        b = np.convolve(b, corr)[:m]
    return b


class TestSeriesInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 1024, 1025, 10001,
                                   20001])
    def test_residual(self, n):
        a = _tilted_series(n)
        b = analytics._series_inverse(a)
        residual = np.convolve(a, b)[:n]
        residual[0] -= 1.0
        assert len(b) == n and np.abs(residual).max() <= 1e-11

    @pytest.mark.parametrize("n", [2, 7, 64, 100])
    def test_matches_convolve(self, n):
        a = _tilted_series(n)
        assert np.abs(analytics._series_inverse(a)
                      - inverse_by_convolve(a)).max() <= 1e-13

    def test_fft_lengths(self, monkeypatch):
        # every product runs at the power of two >= len(a), not at the
        # length of the full product
        sizes = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft",
                            lambda x, n=None: sizes.append(n) or rfft(x, n))
        analytics._series_inverse(_tilted_series(20001))
        assert sizes and max(sizes) <= 32768


def renewal_loop(v, b):
    """Reference solution of c_k = b_k + sum_{m=1}^{k} v_m c_{k-m}, one term
    at a time in O(n^2)."""
    c = np.empty(len(b))
    for k in range(len(b)):
        c[k] = b[k] + float(np.dot(v[:k], c[k - 1::-1])) if k else b[0]
    return c


class TestRenewalSeries:
    @pytest.mark.parametrize("grows", [True, False], ids=["root", "no-root"])
    def test_matches_loop(self, grows):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.0, 0.05, 300)
        b = rng.uniform(0.5, 2.0, 300)
        if not grows:
            v /= 2.0 * v.sum()
        c, s = analytics._renewal_series(v, b)
        ref = renewal_loop(v, b)
        assert np.max(np.abs(c - ref) / ref) <= 1e-12
        if grows:
            lags = np.arange(1, len(b))
            assert np.dot(v[:-1], np.exp(-s * lags)) == pytest.approx(
                1.0, rel=1e-12)
        else:
            assert s is None

    def test_second_moment_scheme(self):
        # E[X_k^2] for sigma(x) = x, u0 = 1 on the reference grid solves the
        # renewal equation with v_m = a mean_j |w^_j|^(2m), a = m2 dt / dx,
        # b = 1; the reference is the covariance recursion in Fourier space
        grid = GridSpec()
        dk = build_discrete_kernel(KP15, grid, grid.dt)
        w2 = np.abs(np.fft.fft(dk.weights)) ** 2
        a = ATOMS.moment(2.0) * grid.dt / grid.dx
        powers = np.arange(1, grid.n_t + 1)[:, None]
        v = a * np.mean(w2 ** powers, axis=1)
        c, s = analytics._renewal_series(v, np.ones(grid.n_t + 1))
        cov_hat = np.fft.fft(np.ones(grid.n_x))
        ref = []
        for _ in range(grid.n_t + 1):
            ref.append(np.mean(cov_hat).real)
            cov_hat = w2 * (cov_hat + a * ref[-1])
        assert np.max(np.abs(c - ref) / ref) <= 1e-12
        assert c[-1] == pytest.approx(23659.47, rel=1e-6)
        assert s / grid.dt == pytest.approx(1.8495, abs=1e-4)


def _model_weight():
    # the default config's `model` weight: alpha = 1.5, atoms, p = 2
    wt = renewal_weight(KP15, ATOMS, 2.0, 1.0, 0.5)
    return lambda u: np.interp(u, wt.t, wt.w)


class TestGrowthRoot:
    @pytest.mark.parametrize("weight, horizon, dt", [
        (lambda t: 2.0 * np.exp(-t), 10.0, 1e-3),
        (lambda t: 2.0 * np.exp(-t), 10.0, 5e-4),
        (lambda t: 5.0 * np.exp(-0.5 * t), 1.0, 1e-3),
        (lambda t: 100.0 * np.exp(-t), 1.0, 1e-3),
        (_model_weight(), 1.0, 1e-2),
        (_model_weight(), 10.0, 1e-3),
    ], ids=["exp:2,1", "exp:2,1-half-dt", "exp:5,0.5", "exp:100,1",
            "model-T1", "model-T10"])
    def test_newton_matches_brentq(self, monkeypatch, weight, horizon, dt):
        # the trapezoid renewal weights of a c4 = 1 solve, as
        # _volterra_trapezoid passes them; one np.exp per evaluation
        wv = weight(np.arange(round(horizon / dt) + 1) * dt)
        v = dt * wv[1:] / (1.0 - 0.5 * dt * wv[0])
        lags = np.arange(1, len(v) + 1)
        ref = brentq(lambda s: float(np.dot(v, np.exp(-s * lags))) - 1.0,
                     0.0, 1e3, xtol=1e-300)
        calls = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x: calls.append(1) or exp(x))
        s = analytics._growth_root(v)
        monkeypatch.undo()
        assert len(calls) <= 10
        assert abs(s - ref) <= 1e-15 * ref


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
