import math

import numpy as np
import pytest
from scipy.special import kv

from levyheat.errors import (DivergenceError, DomainError, OverflowSignal,
                             PoleError)
from levyheat.specfun import (bessel_k, beta_fn, gamma_fn,
                              lgamma_fn, mittag_leffler, ml_asymptotic,
                              ml_series)

# computed from the defining series with mpmath at 50 digits
ML_HALF_HALF_2 = 218.44599836350370
# mpmath besselk at 30 digits
K_03_2 = 0.11603697434811926


class TestGamma:
    def test_factorials(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_twelve_digits_on_range(self):
        xs = np.linspace(0.05, 50.0, 733)
        for x in xs:
            assert gamma_fn(float(x)) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    def test_reflection_negative(self):
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_overflow(self):
        with pytest.raises(OverflowSignal):
            gamma_fn(200.0)
        assert lgamma_fn(200.0) == pytest.approx(math.lgamma(200.0), rel=1e-14)


class TestBeta:
    def test_gamma_ratio(self):
        for p in (0.5, 1.0, 1.5, 2.5):
            for q in (0.5, 1.0, 1.5, 2.5):
                expect = math.gamma(p) * math.gamma(q) / math.gamma(p + q)
                assert beta_fn(p, q) == pytest.approx(expect, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)


class TestMittagLeffler:
    def test_exponential(self):
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_at_zero(self):
        # n = 0 term: 1 / Gamma(b)
        assert mittag_leffler(0.5, 0.5, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_frozen_oracle(self):
        assert mittag_leffler(0.5, 0.5, 2.0) == pytest.approx(
            ML_HALF_HALF_2, rel=1e-10)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.8, 1.2), (1.0, 1.0), (1.6, 0.7)])
    def test_strictly_increasing(self, a, b):
        zs = np.linspace(0.0, 8.0, 30)
        vals = [mittag_leffler(a, b, z) for z in zs]
        assert all(v2 > v1 for v1, v2 in zip(vals[:-1], vals[1:]))

    @pytest.mark.parametrize("a,b", [(-0.5, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, a, b):
        with pytest.raises(DomainError):
            mittag_leffler(a, b, 1.0)

    def test_overflow_signal(self):
        with pytest.raises(OverflowSignal):
            mittag_leffler(0.5, 1.0, 900.0)   # z^(1/a) = 810000 >> exp range


class TestMLAsymptotic:
    def test_reduces_to_exp(self):
        assert ml_asymptotic(1.0, 1.0, 10.0) == pytest.approx(
            math.exp(10.0), rel=1e-13)

    def test_b_two(self):
        assert ml_asymptotic(1.0, 2.0, 10.0) == pytest.approx(
            math.exp(10.0) / 10.0, rel=1e-13)

    def test_series_matches_asymptotic_moderate(self):
        a = b = 0.8
        z = 40.0 ** a
        ratio = ml_series(a, b, z, max_terms=400) / ml_asymptotic(a, b, z)
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            ml_asymptotic(2.5, 1.0, 10.0)
        with pytest.raises(DomainError):
            ml_asymptotic(1.0, 1.0, -1.0)


class TestBesselK:
    def test_half_order_closed_form(self):
        expect = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert bessel_k(0.5, 1.0) == pytest.approx(expect, rel=1e-10)

    def test_order_symmetry_exact(self):
        # canonicalized order: bit-identical values
        for x in (0.3, 1.0, 7.5):
            assert bessel_k(-0.5, x) == bessel_k(0.5, x)
            assert bessel_k(-2.2, x) == bessel_k(2.2, x)

    def test_frozen_oracle(self):
        assert bessel_k(0.3, 2.0) == pytest.approx(K_03_2, rel=1e-10)

    def test_against_scipy_sweep(self):
        for nu in (0.0, 0.3, 0.5, 1.0, 2.7, 5.0):
            for x in (1e-3, 0.1, 1.0, 10.0, 50.0):
                assert bessel_k(nu, x) == pytest.approx(
                    float(kv(nu, x)), rel=1e-8)

    @pytest.mark.parametrize("nu", [0.0, 0.7, 2.0, 5.0])
    def test_decreasing_in_x(self, nu):
        xs = np.logspace(-2, math.log10(50.0), 25)
        vals = [bessel_k(nu, x) for x in xs]
        assert all(v2 < v1 for v1, v2 in zip(vals[:-1], vals[1:]))

    @pytest.mark.parametrize("x", [0.2, 1.0, 5.0])
    def test_increasing_in_order(self, x):
        nus = np.linspace(0.0, 5.0, 11)
        vals = [bessel_k(nu, x) for nu in nus]
        assert all(v2 > v1 for v1, v2 in zip(vals[:-1], vals[1:]))

    def test_divergence_at_zero(self):
        with pytest.raises(DivergenceError):
            bessel_k(1.0, 0.0)
