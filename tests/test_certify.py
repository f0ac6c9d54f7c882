import dataclasses
import json

import pytest

from levyheat import certify
from levyheat import kernel as K
from levyheat.certify import (DEFAULT_T_GRID, LemmaRecord, check_beta_identity,
                              check_g_fourier_equality, check_g_mass,
                              check_g_p_integral, check_g_tensor_split,
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
    assert check_h_moment(alphas=(1.0,), p_grid=(0.0,), eps_grid=(1.0,)).passed
    assert check_tail_ratio(KernelParams(d=1, alpha=1.5)).passed


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


IDENTITY_CERTIFICATES = {
    "beta-identity": (check_beta_identity,
                      scale_closed_form(certify, "beta_fn")),
    # the unit mass rests on the normalising constant kappa
    "g-unit-mass": (lambda: check_g_mass(CK15),
                    scale_closed_form(K, "kappa_const")),
    "g-power-integral": (lambda: check_g_p_integral(CK15),
                         scale_closed_form(K, "g_p_integral")),
}


@pytest.mark.parametrize("lemma_id", sorted(IDENTITY_CERTIFICATES))
def test_identity_certificate_can_fail(monkeypatch, lemma_id):
    check, scale = IDENTITY_CERTIFICATES[lemma_id]
    good = check()
    assert good.lemma_id == lemma_id and good.passed
    # a closed form 1e-5 off: the relative error is 1e-5, far above tolerance
    scale(monkeypatch, 1.0 + 1e-5)
    bad = check()
    assert bad.status == "fail"
    assert bad.worst_slack == pytest.approx(bad.tolerance / 1e-5, rel=1e-3)


def test_q_mass_evaluates_once_per_alpha(monkeypatch):
    # the mass does not depend on t, so each alpha needs one quadrature
    seen = []
    monkeypatch.setattr(K, "q_mass_numeric",
                        lambda kp, t: seen.append(kp.alpha) or 1.0)
    rec = check_q_mass((0.8, 1.2))
    assert seen == [0.8, 1.2]
    assert rec.passed and rec.grid == "alpha in (0.8, 1.2)"
