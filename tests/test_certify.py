import dataclasses
import json
import math

import numpy as np
import pytest

from levyheat import certify
from levyheat import kernel as K
from levyheat.errors import DomainError
from levyheat.certify import (DEFAULT_T_GRID, LemmaRecord, check_beta_identity,
                              check_g_fourier_equality, check_g_mass,
                              check_g_p_integral, check_g_tensor_split,
                              check_g_time_monotone,
                              check_h_moment, check_power_law_transform,
                              check_q_mass,
                              check_space_conv, check_tail_ratio,
                              check_timespace_conv, check_timespace_conv_ratio,
                              default_x_grid, verify_lemmas)
from levyheat.kernel import ComparisonKernel, KernelParams

CK15 = ComparisonKernel(KernelParams(d=1, alpha=1.5))


@pytest.fixture(scope="module")
def full_report():
    return verify_lemmas(d=1, alpha=1.5, p=1.2)


def test_every_record_passes(full_report):
    failed = [r.lemma_id for r in full_report.records if not r.passed]
    assert not failed, f"failed certificates: {failed}"
    assert full_report.all_pass


SWEEP = [(alpha, p) for alpha in (0.1, 0.2, 0.3, 0.5, 0.8, 0.99, 1.0, 1.01,
                                  1.2, 1.5, 1.8, 1.9, 1.99)
         for p in (1.05, 1.5) if p < 1.0 + alpha]


@pytest.mark.parametrize("alpha, p", SWEEP)
def test_every_record_passes_across_alpha(alpha, p):
    # the full suite across (0, 2); at alpha = 0.1 and 0.2 the mass and
    # tail records need more than six terms of the tail series
    report = verify_lemmas(d=1, alpha=alpha, p=p)
    assert len(report.records) == 14
    assert [r.lemma_id for r in report.records if not r.passed] == []


def test_report_shape(full_report):
    payload = full_report.to_dict()
    # canonical JSON round-trip
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    for rec in payload["records"]:
        assert set(rec) >= {"lemma_id", "status", "worst_slack", "tolerance",
                            "grid"}
        assert rec["status"] in ("pass", "fail")


def test_inequality_slacks_documented(full_report):
    by_id = {r.lemma_id: r for r in full_report.records}
    # inequality certificates report slack >= 1
    for lemma in ("g-tensor-split", "g-space-convolution",
                  "g-timespace-convolution", "gratio-timespace-convolution",
                  "g-time-comparison"):
        assert by_id[lemma].worst_slack >= 1.0 - 1e-9


def test_fast_mode_runs_and_passes():
    rep = verify_lemmas(d=1, alpha=1.0, p=1.2, fast=True)
    assert rep.all_pass


def test_individual_checks():
    assert check_beta_identity().passed
    assert check_power_law_transform().passed
    assert check_g_fourier_equality().passed
    assert check_h_moment(alphas=(1.0,)).passed
    assert check_tail_ratio(KernelParams(d=1, alpha=1.5)).passed


def test_h_moment_refuses_alpha_below_floor():
    # 24 nodes in s under-resolve the space integrand below alpha = 0.02
    # (1.6e-3 worst error at alpha = 0.005): refused, not failed
    with pytest.raises(DomainError):
        check_h_moment((0.005,))
    assert check_h_moment((0.02,)).passed


def test_record_pass_property():
    rec = LemmaRecord(lemma_id="x", status="fail", worst_slack=0.5,
                      tolerance=1.0, grid="g")
    assert not rec.passed


def test_equality_case_passes():
    # g-tensor-split is an equality at x = y = 0; its worst slack lands a
    # rounding error below 1 and must still pass
    rec = check_g_tensor_split(CK15, DEFAULT_T_GRID, default_x_grid())
    assert rec.worst_slack == pytest.approx(1.0, abs=1e-12)
    assert rec.passed


def loop_tensor_split_slacks(ck, t_grid, x_grid):
    """Reference: the scalar loop the array grid replaced."""
    d, a = ck.d, ck.alpha
    slacks = []
    for t in t_grid:
        for x in x_grid:
            for y in x_grid:
                for sy in (1.0, -1.0):
                    lhs = ck.g(t, x - sy * y)
                    rhs = (t ** (d / a) / ck.kappa
                           * ck.g(t, math.sqrt(2.0) * x)
                           * ck.g(t, math.sqrt(2.0) * y))
                    slacks.append(lhs / rhs)
    return slacks


def loop_time_monotone_slacks(ck, t_grid, x_grid):
    """Reference: the scalar loop the array grid replaced."""
    d, a = ck.d, ck.alpha
    slacks = []
    for t in t_grid:
        for frac in (0.5, 0.6, 0.75, 0.9, 1.0):
            s = frac * t
            for x in x_grid:
                lhs = s ** (d / a) * ck.g(s, x)
                rhs = t ** (d / a) / 2.0 ** (1.0 + d / a) * ck.g(t, x)
                slacks.append(lhs / rhs)
    return slacks


@pytest.mark.parametrize("check, loop", [
    (check_g_tensor_split, loop_tensor_split_slacks),
    (check_g_time_monotone, loop_time_monotone_slacks),
], ids=["g-tensor-split", "g-time-comparison"])
@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_array_grid_slacks_equal_scalar_loop(monkeypatch, check, loop, alpha):
    ck = ComparisonKernel(KernelParams(d=1, alpha=alpha))
    seen = []
    orig = certify._ineq_record
    monkeypatch.setattr(certify, "_ineq_record",
                        lambda lemma_id, slacks, grid:
                        seen.append(list(slacks)) or orig(lemma_id, slacks, grid))
    x_grid = default_x_grid()
    check(ck, DEFAULT_T_GRID, x_grid)
    assert seen == [loop(ck, DEFAULT_T_GRID, x_grid)]


@pytest.mark.parametrize("slacks", [[1.0, math.nan], [math.nan, 1.0]],
                         ids=["nan-last", "nan-first"])
def test_nan_slack_fails(slacks):
    # Python's min skipped a NaN after the first slack, which then passed
    assert not certify._ineq_record("x", slacks, "grid").passed


def test_work_budget(monkeypatch):
    # the certificate quadratures run as arrays: a full suite makes few
    # scalar g calls and few panel builds (396 and 254, of which 203 build
    # the space panels of a whole time panel at once; 11,875 and 2,841 when
    # each time node had its own space convolution), so a fall-back to
    # per-node Python fails here
    calls = {"g": 0, "panels": 0}
    g, panels = K.ComparisonKernel.g, K._gauss_panels

    def counting_g(self, t, x):
        calls["g"] += 1
        return g(self, t, x)

    def counting_panels(cuts, n):
        calls["panels"] += 1
        return panels(cuts, n)
    monkeypatch.setattr(K.ComparisonKernel, "g", counting_g)
    monkeypatch.setattr(K, "_gauss_panels", counting_panels)
    assert verify_lemmas(d=1, alpha=1.5, p=1.2).all_pass
    assert calls["g"] <= 1000
    assert calls["panels"] <= 300


def inflate_gamma(monkeypatch, factor):
    orig = K.gamma_conv_constant
    monkeypatch.setattr(K, "gamma_conv_constant",
                        lambda d, a, p: factor * orig(d, a, p))


def inflate_conv_constant(name):
    def inflate(monkeypatch, factor):
        orig = K.conv_constants

        def inflated(d, a, p):
            cc = orig(d, a, p)
            return dataclasses.replace(cc, **{name: factor * getattr(cc, name)})
        monkeypatch.setattr(K, "conv_constants", inflated)
    return inflate


CONV_CERTIFICATES = {
    "g-space-convolution": (check_space_conv, inflate_gamma),
    "g-timespace-convolution": (check_timespace_conv,
                                inflate_conv_constant("lambda_p")),
    "gratio-timespace-convolution": (check_timespace_conv_ratio,
                                     inflate_conv_constant("theta_p")),
}


@pytest.mark.parametrize("lemma_id", sorted(CONV_CERTIFICATES))
def test_convolution_certificate_can_fail(monkeypatch, lemma_id):
    check, inflate = CONV_CERTIFICATES[lemma_id]
    good = check(CK15, 1.2, t_grid=(1.0,), x_grid=(0.0, 2.0))
    assert good.lemma_id == lemma_id and good.passed
    # a closed-form constant 1% above the worst slack breaks the bound
    inflate(monkeypatch, 1.01 * good.worst_slack)
    bad = check(CK15, 1.2, t_grid=(1.0,), x_grid=(0.0, 2.0))
    assert bad.status == "fail"
    assert bad.worst_slack == pytest.approx(1.0 / 1.01, rel=1e-12)


def scale_closed_form(module, name):
    def scale(monkeypatch, factor):
        orig = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: factor * orig(*args))
    return scale


# lemma id -> (check, closed-form scaler, relative offset far above the
# check's tolerance)
IDENTITY_CERTIFICATES = {
    "beta-identity": (check_beta_identity,
                      scale_closed_form(certify, "beta_fn"), 1e-5),
    # the unit mass rests on the normalising constant kappa
    "g-unit-mass": (lambda: check_g_mass(CK15),
                    scale_closed_form(K, "kappa_const"), 1e-5),
    "g-power-integral": (lambda: check_g_p_integral(CK15),
                         scale_closed_form(K, "g_p_integral"), 1e-5),
    # tolerance 1e-4; the quadrature route does not use the constant
    "minform-levelset-moment": (check_h_moment,
                                scale_closed_form(K, "hmoment_constant"),
                                1e-3),
}


@pytest.mark.parametrize("lemma_id", sorted(IDENTITY_CERTIFICATES))
def test_identity_certificate_can_fail(monkeypatch, lemma_id):
    check, scale, offset = IDENTITY_CERTIFICATES[lemma_id]
    good = check()
    assert good.lemma_id == lemma_id and good.passed
    # a closed form `offset` off: the relative error is offset / (1 + offset)
    scale(monkeypatch, 1.0 + offset)
    bad = check()
    assert bad.status == "fail"
    assert bad.worst_slack == pytest.approx(
        bad.tolerance * (1.0 + offset) / offset, rel=1e-3)


def scale_nu_const(monkeypatch, factor):
    orig = K.nu_const

    def scaled(d, a, p):
        nu, c_nu = orig(d, a, p)
        return nu, factor * c_nu
    monkeypatch.setattr(K, "nu_const", scaled)


@pytest.mark.parametrize("check, scale", [
    (check_power_law_transform, scale_closed_form(K, "bessel_k")),
    (check_g_fourier_equality, scale_closed_form(K, "bessel_k")),
    (check_g_fourier_equality, scale_nu_const),
], ids=["power-law-fourier-transform", "g-fourier-cauchy-equality-transform",
        "g-fourier-cauchy-equality-lower-bound"])
def test_fourier_certificate_can_fail(monkeypatch, check, scale):
    assert check().passed
    # the transform (or the lower bound's constant) 1e-5 high against an
    # exact reference: the relative error is the offset itself
    scale(monkeypatch, 1.0 + 1e-5)
    bad = check()
    assert bad.status == "fail"
    assert bad.worst_slack == pytest.approx(bad.tolerance / 1e-5, rel=1e-3)


@dataclasses.dataclass(frozen=True)
class OffPowerKernel(ComparisonKernel):
    """g with t to the power `t_power` in the numerator and
    `r_scale` (d + alpha)/2 as the power of the denominator; at the
    defaults it is g bit for bit."""

    t_power: float = 1.0
    r_scale: float = 1.0

    def g(self, t, r):
        r = np.asarray(r, dtype=float)
        d, a = self.d, self.alpha
        return self.kappa * np.float_power(t, self.t_power) / np.float_power(
            np.float_power(t, 2.0 / a) + r * r, self.r_scale * (d + a) / 2.0)


@pytest.mark.parametrize("check, wrong", [
    (check_g_tensor_split, dict(r_scale=1.01)),
    (check_g_tensor_split, dict(r_scale=0.99)),
    (check_g_time_monotone, dict(t_power=1.01)),
], ids=["tensor-split-power-high", "tensor-split-power-low",
        "time-comparison-t-power-high"])
def test_g_inequality_can_fail(check, wrong):
    # at x = y = 0 the tensor split is an equality at the true power
    # (d + alpha)/2 only, so a power 1% off fails at t < 1 or at t > 1.
    # The time comparison holds for every power of the denominator: its
    # ratio is (2s/t)^(1+d/a) times a power of (t^(2/a) + x^2)/(s^(2/a) +
    # x^2), both >= 1.  So its wrong kernel takes t^1.01, whose ratio at
    # s = t/2 tends to 2^(-0.01) < 1 at large x
    good = check(OffPowerKernel(CK15.params))
    assert good.passed and good.worst_slack == check(CK15).worst_slack
    assert check(OffPowerKernel(CK15.params, **wrong)).status == "fail"


def test_q_mass_certificate_can_fail(monkeypatch):
    assert check_q_mass((1.5,)).passed
    # the ray rule 1e-5 high puts the mass 1e-5 off, ten times the 1e-6
    # tolerance
    orig = K._ray_inversion
    monkeypatch.setattr(K, "_ray_inversion",
                        lambda alpha, r: (1.0 + 1e-5) * orig(alpha, r))
    assert check_q_mass((1.5,)).status == "fail"


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.9])
def test_tail_certificate_can_fail(monkeypatch, alpha):
    kp = KernelParams(d=1, alpha=alpha)
    good = check_tail_ratio(kp)
    assert good.passed and good.tolerance == 1e-6
    assert len(good.detail["q"]) == len(good.detail["tail_series"]) == 3
    # an inversion 1e-5 high is ten times the tolerance off the series
    orig = K._ray_inversion
    monkeypatch.setattr(K, "_ray_inversion",
                        lambda alpha, r: (1.0 + 1e-5) * orig(alpha, r))
    assert check_tail_ratio(kp).status == "fail"
    monkeypatch.undo()
    # so is a first tail coefficient 1e-4 off, the leading term of the
    # series (the coefficients are evaluated once per alpha, there)
    coef = K._tail_coefficients
    monkeypatch.setattr(K, "_tail_coefficients", lambda a: (
        (1.0 + 1e-4) * coef(a)[0], *coef(a)[1:]))
    assert check_tail_ratio(kp).status == "fail"


def test_q_mass_inversion_count(monkeypatch):
    # the graded rule takes 20 nodes on each of 3 or 4 panels per alpha
    # (220 in all), one ray-rule call per alpha; an adaptive QUADPACK
    # integral takes 525
    sizes = []
    orig = K._ray_inversion
    monkeypatch.setattr(K, "_ray_inversion",
                        lambda alpha, r: sizes.append(len(r)) or orig(alpha, r))
    rec = check_q_mass((0.8, 1.2, 1.5))
    assert rec.passed and len(sizes) == 3 and sum(sizes) <= 240
    assert set(rec.detail["mass"]) == {"0.8", "1.2", "1.5"}
    assert all(abs(m - 1.0) <= 1e-6 for m in rec.detail["mass"].values())


def test_q_mass_small_alpha():
    # at alpha = 0.3 the profile's width is 0.0028: the panels below 1 must
    # resolve it (20 nodes on 0-1-10-45 alone miss the mass by 1.0e-4);
    # the tail series meets the inversion within 1.6e-7 from |x| = 50 on
    report = verify_lemmas(alpha=0.3, fast=True)
    failed = {r.lemma_id for r in report.records if not r.passed}
    assert not failed and report.all_pass
    (mass,) = [r for r in report.records if r.lemma_id == "q-unit-mass"]
    assert mass.detail["mass"]["0.3"] == pytest.approx(1.0, abs=1e-6)


def test_full_suite_certifies_its_alpha(full_report):
    # the full suite adds alpha to the fixed grids of the unit-mass and
    # level-set records; at alpha = 1.5 they are the fixed grids alone
    report = verify_lemmas(alpha=0.3)
    by_id = {r.lemma_id: r for r in report.records}
    mass, level = by_id["q-unit-mass"], by_id["minform-levelset-moment"]
    assert mass.grid == "alpha in (0.3, 0.8, 1.2, 1.5)"
    assert level.grid.startswith("alpha in (0.3, 1.0, 1.5),")
    assert mass.passed and level.passed
    assert mass.detail["mass"]["0.3"] == pytest.approx(1.0, abs=1e-6)
    full = {r.lemma_id: r.grid for r in full_report.records}
    assert full["q-unit-mass"] == "alpha in (0.8, 1.2, 1.5)"
    assert full["minform-levelset-moment"].startswith("alpha in (1.0, 1.5),")


def test_q_mass_evaluates_once_per_alpha(monkeypatch):
    # the mass does not depend on t, so each alpha needs one quadrature
    seen = []
    monkeypatch.setattr(K, "q_mass_numeric",
                        lambda kp, t: seen.append(kp.alpha) or 1.0)
    rec = check_q_mass((0.8, 1.2))
    assert seen == [0.8, 1.2]
    assert rec.passed and rec.grid == "alpha in (0.8, 1.2)"
