"""Stable heat kernel, comparison kernel, and the integral formulas built on them.

The transition density of the one-dimensional symmetric stable semigroup with
symbol exp(-t |xi|^alpha) is self-similar,

    q_t(x) = t^(-1/alpha) * profile(|x| * t^(-1/alpha)),

and every evaluation goes through the unit-time profile: pointwise Fourier
inversion (QUADPACK, checked), a cubic spline for bulk evaluation and the
power-tail series beyond the spline range.  At alpha = 1 the profile is the
Cauchy density in closed form.  The numeric kernel is d = 1 only; the
closed-form formulas (comparison kernel, I(beta,c,p), Fourier transforms,
convolution constants) accept d in {1, 2, 3}.

The comparison kernel

    g(t, x) = kappa_{d,alpha} * t / (t^(2/alpha) + |x|^2)^((d+alpha)/2)

is two-sided comparable to q_t and exactly equals it when alpha = 1.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import DomainError, QuadratureError
from .specfun import bessel_k, gamma_fn, lgamma_fn

# quadrature tolerances shared by the kernel integrals
EPSABS = 1e-12
EPSREL = 1e-10
LIMIT = 400
# a quadrature fails when its error estimate exceeds this share of
# max(|value|, 1)
QUAD_ERR_REL = 1e-7
# the unit-time profile: exp(-xi^alpha) is truncated where xi^alpha >= EXPONENT_CUT,
# the spline covers [0, SPLINE_HI], the TAIL_TERMS-term power-tail series
# takes over beyond TAIL_START
EXPONENT_CUT = 45.0
SPLINE_HI = 48.0
TAIL_START = 45.0
TAIL_TERMS = 6
# q_mass_numeric: quadrature on [0, MASS_RADIUS], tail series beyond
MASS_RADIUS = 1000.0

# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class KernelParams:
    """Dimension and stability index; analytic formulas accept d in {1,2,3},
    the numeric kernel d = 1 only."""

    d: int = 1
    alpha: float = 1.5

    def __post_init__(self):
        if self.d < 1 or self.d != int(self.d):
            raise DomainError(f"dimension must be a positive integer, got {self.d}")
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")


def omega_d(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / gamma_fn(d / 2.0)


def kappa_const(d: int, alpha: float) -> float:
    """Normalizing constant of the comparison kernel: unit total mass."""
    return gamma_fn((d + alpha) / 2.0) / (math.pi ** (d / 2.0) * gamma_fn(alpha / 2.0))


def tail_coefficient(alpha: float, k: int = 1) -> float:
    """k-th coefficient of the d=1 stable tail series sum_k c_k r^(-1-k alpha)."""
    return ((-1.0) ** (k + 1) * gamma_fn(k * alpha + 1.0)
            * math.sin(k * math.pi * alpha / 2.0) / (math.pi * math.factorial(k)))


# ---------------------------------------------------------------------------
# unit-time profile (d = 1)


def _quad_checked(func, a, b, **kw):
    """integrate.quad at the module tolerances (keywords such as `points`
    pass through); raises QuadratureError on a non-finite value or an error
    estimate above QUAD_ERR_REL * max(|value|, 1)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = integrate.quad(func, a, b, epsabs=EPSABS, epsrel=EPSREL,
                                  limit=LIMIT, **kw)
    if not math.isfinite(val) or err > QUAD_ERR_REL * max(abs(val), 1.0):
        raise QuadratureError(
            f"quadrature did not converge (value {val}, error estimate {err})",
            estimate=err, value=val)
    return val


class StableProfile:
    """Unit-time density profile q_1(r) of the symmetric alpha-stable law, d=1.

    `force_numeric` disables the alpha = 1 Cauchy shortcut so the generic
    inversion path can be certified against the closed form.
    """

    def __init__(self, alpha: float, force_numeric: bool = False):
        if not (0.0 < alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {alpha}")
        self.alpha = float(alpha)
        self.force_numeric = force_numeric
        self._spline = None

    def center(self) -> float:
        return gamma_fn(1.0 + 1.0 / self.alpha) / math.pi

    def direct(self, r: float) -> float:
        """Pointwise Fourier inversion (1/pi) int_0^inf exp(-xi^alpha) cos(r xi) dxi."""
        r = abs(float(r))
        if self.alpha == 1.0 and not self.force_numeric:
            return 1.0 / (math.pi * (1.0 + r * r))
        if r == 0.0:
            return self.center()
        xi_max = EXPONENT_CUT ** (1.0 / self.alpha)
        if r * xi_max < 40.0:
            # few oscillations over the decay range: plain adaptive rule
            val = _quad_checked(lambda xi: math.exp(-xi ** self.alpha) * math.cos(r * xi),
                                0.0, xi_max)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                val, err = integrate.quad(lambda xi: math.exp(-xi ** self.alpha),
                                          0.0, np.inf, weight="cos", wvar=r,
                                          epsabs=EPSABS, limit=LIMIT)
            if not math.isfinite(val):
                raise QuadratureError("oscillatory quadrature failed", estimate=err)
        return max(val, 0.0) / math.pi

    def tail(self, r):
        """Power-tail series sum_k c_k r^(-1-k alpha), k <= TAIL_TERMS;
        accurate for large r."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for k in range(1, TAIL_TERMS + 1):
            out += tail_coefficient(self.alpha, k) * r ** (-1.0 - k * self.alpha)
        return out

    def _build_spline(self):
        nodes = np.concatenate([
            np.arange(0.0, 4.0, 0.02),
            np.arange(4.0, SPLINE_HI + 0.08, 0.08),
        ])
        vals = np.array([self.direct(r) for r in nodes])
        self._spline = CubicSpline(nodes, vals)

    def __call__(self, r):
        """Vectorized fast evaluation: spline inside, tail series outside."""
        if self.alpha == 1.0:
            r = np.asarray(r, dtype=float)
            return 1.0 / (math.pi * (1.0 + r * r))
        if self._spline is None:
            self._build_spline()
        r = np.abs(np.asarray(r, dtype=float))
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        inside = r <= TAIL_START
        out[inside] = self._spline(r[inside])
        out[~inside] = self.tail(r[~inside])
        np.maximum(out, 0.0, out=out)
        return float(out[0]) if scalar else out


_PROFILE_CACHE: dict = {}


def get_profile(alpha: float) -> StableProfile:
    """The shared profile of one alpha, cached on its exact value."""
    key = float(alpha)
    if key not in _PROFILE_CACHE:
        _PROFILE_CACHE[key] = StableProfile(key)
    return _PROFILE_CACHE[key]


# ---------------------------------------------------------------------------
# kernel evaluation


def _norm(x) -> float:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return float(np.sqrt(np.sum(arr * arr)))


def q_density(kp: KernelParams, t: float, x) -> float:
    """Stable transition density q_t(x) in d = 1: the scaled unit profile's
    pointwise inversion, t^(-1/alpha) profile.direct(|x| t^(-1/alpha)).

    The profile returns the exact Cauchy form at alpha = 1; d != 1 raises.
    """
    if kp.d != 1:
        raise DomainError(f"q_density is implemented for d = 1 only, got d={kp.d}")
    if t <= 0.0:
        raise DomainError(f"q_density requires t > 0, got {t}")
    scale = t ** (-1.0 / kp.alpha)
    return scale * get_profile(kp.alpha).direct(_norm(x) * scale)


def q_mass_numeric(kp: KernelParams, t: float) -> float:
    """Numeric total mass of q_t (d = 1): quadrature on [0, MASS_RADIUS] plus
    the analytic power tail beyond.

    By self-similarity the mass equals the unit-time mass, so the integral is
    done on the profile directly and t does not enter.
    """
    if kp.d != 1:
        raise DomainError("numeric mass check implemented for d = 1 only")
    a = kp.alpha
    if a == 1.0:
        core = 2.0 * math.atan(MASS_RADIUS) / math.pi
    else:
        core = 2.0 * _quad_checked(get_profile(a).direct, 0.0, MASS_RADIUS,
                                   points=[1.0, 10.0, 100.0])
    tail = 0.0
    for k in range(1, TAIL_TERMS + 1):
        tail += 2.0 * tail_coefficient(a, k) * MASS_RADIUS ** (-k * a) / (k * a)
    return core + tail


# ---------------------------------------------------------------------------
# comparison kernel


@dataclass(frozen=True)
class ComparisonKernel:
    """Explicit kernel kappa * t / (t^(2/alpha) + |x|^2)^((d+alpha)/2)."""

    params: KernelParams

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def kappa(self) -> float:
        return kappa_const(self.params.d, self.params.alpha)

    def g(self, t: float, x) -> float:
        if t <= 0.0:
            raise DomainError(f"g requires t > 0, got {t}")
        r = _norm(x)
        d, a = self.d, self.alpha
        return self.kappa * t / (t ** (2.0 / a) + r * r) ** ((d + a) / 2.0)

    def g_radial(self, t: float, r):
        """Vectorized in the radius r >= 0."""
        r = np.asarray(r, dtype=float)
        d, a = self.d, self.alpha
        return self.kappa * t / (t ** (2.0 / a) + r * r) ** ((d + a) / 2.0)

    def g_p_numeric(self, t: float, p: float = 1.0) -> float:
        """Quadrature of int_R g(t,y)^p dy (d = 1); g_p_integral is its
        closed form and p = 1 gives the unit mass."""
        if self.d != 1:
            raise DomainError("numeric g integral implemented for d = 1 only")
        width = t ** (1.0 / self.alpha)
        mid = 10.0 * width
        core = _quad_checked(lambda r: self.g(t, r) ** p, 0.0, mid,
                             points=[width])
        far = _quad_checked(lambda r: self.g(t, r) ** p, mid, np.inf)
        return 2.0 * (core + far)


def minform_kernel(kp: KernelParams, t: float, x) -> float:
    """Envelope min(t^(-d/alpha), t / |x|^(d+alpha)); brackets q_t up to constants."""
    if t <= 0.0:
        raise DomainError(f"minform_kernel requires t > 0, got {t}")
    r = _norm(x)
    flat = t ** (-kp.d / kp.alpha)
    if r == 0.0:
        return flat
    return min(flat, t / r ** (kp.d + kp.alpha))


# ---------------------------------------------------------------------------
# weighted space-time integrals


def _check_icpc(d, alpha, beta, c, p):
    if not (1.0 <= p < 1.0 + alpha / d):
        raise DomainError(f"p must lie in [1, 1 + alpha/d) = [1, {1 + alpha / d}), got {p}")
    if not (0.0 <= c < d + alpha):
        raise DomainError(f"c must lie in [0, d + alpha), got {c}")
    if not (p > d / (d + alpha - c)):
        raise DomainError(f"p must exceed d/(d+alpha-c) = {d / (d + alpha - c)}, got {p}")
    if not (beta > 0.0):
        raise DomainError(f"beta must be positive, got {beta}")


def I_formula(kp: KernelParams, beta: float, c: float, p: float) -> float:
    """Two-term closed form controlling the weighted space-time kernel integral.

    Strictly decreasing in beta and -> 0 as beta -> infinity.
    """
    d, a = kp.d, kp.alpha
    _check_icpc(d, a, beta, c, p)
    e1 = (p - 1.0) * d / a - 1.0
    term1 = (p * (d + a) / (d * (p * (d + a) - d))
             * gamma_fn(1.0 - d / a * (p - 1.0)) * (p * beta) ** e1)
    term2 = (p * (d + a) / ((d + p * c) * (p * (d + a - c) - d))
             * gamma_fn(1.0 + p * c / a - d / a * (p - 1.0))
             * (p * beta) ** (e1 - p * c / a))
    return term1 + term2


@functools.cache
def _legendre_rule(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n
    and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panels(panels, n):
    """Gauss-Legendre nodes/weights over consecutive panels."""
    base_x, base_w = _legendre_rule(n)
    cuts = np.asarray(panels, dtype=float)
    lo, hi = cuts[:-1, None], cuts[1:, None]
    return ((0.5 * (hi - lo) * base_x + 0.5 * (hi + lo)).ravel(),
            (0.5 * (hi - lo) * base_w).ravel())


def weighted_kernel_integral(kp: KernelParams, beta: float, c: float, p: float) -> float:
    """Numeric int_0^inf int_R { e^(-beta t) (1+|x|)^c q_t(x) }^p dx dt  (d = 1).

    Uses self-similarity to pull the Laplace variable out:
       J = (p beta)^((p-1)/alpha - 1) *
           int_0^inf e^(-u) u^(-(p-1)/alpha) phi((u / (p beta))^(1/alpha)) du,
       phi(s) = 2 int_0^inf (1 + s y)^(p c) q_1(y)^p dy,
    which stays well-conditioned for arbitrarily large beta.
    """
    d, a = kp.d, kp.alpha
    if d != 1:
        raise DomainError("weighted_kernel_integral implemented for d = 1 only")
    _check_icpc(d, a, beta, c, p)
    prof = get_profile(a)
    pc = p * c

    y_in, w_in = _gauss_panels([0.0, 1.0, 4.0, 12.0, 50.0], 64)
    q_in = prof(y_in) ** p
    # tail: substitute y = 50 / v so the infinite range maps to (0, 1]
    v_t, w_t = _gauss_panels([1e-9, 0.25, 1.0], 64)
    y_t = 50.0 / v_t
    q_t = prof(y_t) ** p
    jac_t = 50.0 / v_t ** 2

    def phi(s):
        s = np.asarray(s, dtype=float)[:, None]
        inner = ((1.0 + s * y_in) ** pc * q_in) @ w_in
        tail = ((1.0 + s * y_t) ** pc * q_t * jac_t) @ w_t
        return 2.0 * (inner + tail)

    aa = (p - 1.0) * d / a       # u-singularity exponent, in [0, 1)
    pb = p * beta
    # u in (0, 1): substitute u = w^(1/(1-aa)) to absorb u^(-aa)
    m = 1.0 / (1.0 - aa)
    w_nodes, w_weights = _gauss_panels([0.0, 1.0], 64)
    u1 = w_nodes ** m
    i1 = np.sum(m * np.exp(-u1) * phi((u1 / pb) ** (1.0 / a)) * w_weights)
    # u in [1, 45]
    u2, w2 = _gauss_panels([1.0, 3.0, 8.0, 20.0, 45.0], 48)
    i2 = np.sum(np.exp(-u2) * u2 ** (-aa) * phi((u2 / pb) ** (1.0 / a)) * w2)
    return pb ** (aa - 1.0) * (i1 + i2)


# ---------------------------------------------------------------------------
# level-set moments of the min-form kernel


def hmoment_constant(d: int, alpha: float, p: float) -> float:
    """c_{d,alpha}^(p) = omega_d (d+alpha)^2 / (d (2d+alpha) (d+alpha-pd))."""
    if not (0.0 <= p < 1.0 + alpha / d):
        raise DomainError(f"p must lie in [0, 1 + alpha/d), got {p}")
    return (omega_d(d) * (d + alpha) ** 2
            / (d * (2.0 * d + alpha) * (d + alpha - p * d)))


def levelset_volume_minform(d: int, alpha: float, eps: float) -> float:
    """Space-time volume of {min-form kernel > eps}; exact closed form."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    return hmoment_constant(d, alpha, 0.0) * eps ** (-(1.0 + alpha / d))


def minform_level_integral(kp: KernelParams, t: float, p: float, eps: float) -> float:
    """int_R h(t,y)^p 1{h(t,y) > eps} dy on the min-form kernel h, d = 1.

    Exact closed form; vanishes for t >= eps^(-alpha).
    """
    d, a = kp.d, kp.alpha
    if d != 1:
        raise DomainError("minform level-set integral implemented for d = 1 only")
    if eps <= 0.0 or t <= 0.0:
        raise DomainError("requires t > 0 and eps > 0")
    if t >= eps ** (-a):
        return 0.0
    r_in = t ** (1.0 / a)
    r_out = (t / eps) ** (1.0 / (1.0 + a))
    flat = 2.0 * r_in * t ** (-p / a)
    expo = p * (1.0 + a)
    if abs(expo - 1.0) < 1e-12:
        power = 2.0 * t ** p * math.log(r_out / r_in)
    else:
        power = (2.0 * t ** p / (1.0 - expo)
                 * (r_out ** (1.0 - expo) - r_in ** (1.0 - expo)))
    return flat + power


def h_moment(kp: KernelParams, eps: float, p: float):
    """Level-set moment of the min-form kernel: (closed_form, quadrature).

    closed_form = c_{d,alpha}^(p) eps^(-(1+alpha/d-p)); the quadrature route
    integrates h^p 1{h > eps} numerically over space and time.  On the
    min-form kernel the two agree exactly (unit envelope constants).
    """
    d, a = kp.d, kp.alpha
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    closed = hmoment_constant(d, a, p) * eps ** (-(1.0 + a / d - p))
    if d != 1:
        return closed, None
    t_max = eps ** (-a)

    def inner(t):
        r_in = t ** (1.0 / a)
        r_out = (t / eps) ** (1.0 / (1.0 + a))

        def integrand(y):
            h = min(t ** (-1.0 / a), t / y ** (1.0 + a)) if y > 0 else t ** (-1.0 / a)
            return h ** p if h > eps else 0.0

        return 2.0 * _quad_checked(integrand, 0.0, r_out,
                                   points=[min(r_in, r_out)])

    quad_val = _quad_checked(inner, 0.0, t_max, points=[t_max * 0.5])
    return closed, quad_val


# ---------------------------------------------------------------------------
# comparison-kernel integrals, Fourier identities, convolution bounds


def g_p_integral(ck: ComparisonKernel, t: float, p: float) -> float:
    """Closed form of int g(t,y)^p dy for p > d/(d+alpha)."""
    d, a = ck.d, ck.alpha
    if not (p > d / (d + a)):
        raise DomainError(f"requires p > d/(d+alpha) = {d / (d + a)}, got {p}")
    if t <= 0.0:
        raise DomainError("t must be positive")
    return (ck.kappa ** p * math.pi ** (d / 2.0) * t ** (-(p - 1.0) * d / a)
            * math.exp(lgamma_fn(p * (d + a) / 2.0 - d / 2.0)
                       - lgamma_fn(p * (d + a) / 2.0)))


def nu_const(d: int, alpha: float, p: float):
    """(nu, c_nu) of the Fourier lower bound: nu = p(d+alpha)/2 - d/2."""
    nu = p * (d + alpha) / 2.0 - d / 2.0
    if nu <= 0.0:
        raise DomainError(f"requires p > d/(d+alpha), got p={p}")
    c_nu = math.pi ** (d / 2.0) * gamma_fn(nu) / gamma_fn(d / 2.0 + nu)
    return nu, c_nu


@dataclass(frozen=True)
class ConvConstants:
    """Closed-form constants of the convolution lower bounds for one (d, alpha, p)."""

    d: int
    alpha: float
    p: float
    omega_d: float
    nu: float
    c_nu: float
    gamma_p: float
    lambda_p: float | None
    theta_p: float | None
    c_hmom: float | None


def gamma_conv_constant(d: int, alpha: float, p: float) -> float:
    """gamma_{d,alpha}^(p) = kappa^p c_nu^2 omega_d (d-1)! / (2^(p(d+alpha)+d) (2 pi)^d)."""
    _, c_nu = nu_const(d, alpha, p)
    kap = kappa_const(d, alpha)
    return (kap ** p * c_nu ** 2 * omega_d(d) * math.factorial(d - 1)
            / (2.0 ** (p * (d + alpha) + d) * (2.0 * math.pi) ** d))


def conv_constants(d: int, alpha: float, p: float) -> ConvConstants:
    nu, c_nu = nu_const(d, alpha, p)
    gamma_p = gamma_conv_constant(d, alpha, p)
    a_ml = 1.0 - (p - 1.0) * d / alpha
    lambda_p = theta_p = c_hmom = None
    if a_ml > 0.0:
        lambda_p = gamma_p * gamma_fn(a_ml) / 2.0 ** (1.0 + p * (1.0 + d / alpha))
        theta_p = (gamma_conv_constant(d, alpha, p + 1.0) * gamma_fn(a_ml)
                   / (2.0 ** (1.0 + (p + 1.0) * (1.0 + d / alpha))
                      * kappa_const(d, alpha)))
        if p < 1.0 + alpha / d:
            c_hmom = hmoment_constant(d, alpha, p)
    return ConvConstants(d=d, alpha=alpha, p=p, omega_d=omega_d(d), nu=nu,
                         c_nu=c_nu, gamma_p=gamma_p, lambda_p=lambda_p,
                         theta_p=theta_p, c_hmom=c_hmom)


def fourier_power_transform(d: int, a: float, mu: float, z) -> float:
    """Exact Fourier transform of (a^2 + |x|^2)^(-mu-1) at frequency z.

    Equals (2 pi)^(d/2) / (2^mu Gamma(mu+1)) (|z|/a)^(mu+1-d/2) K_{(d-2)/2-mu}(a |z|)
    for z != 0, with the K-order taken by absolute value.
    """
    if a <= 0.0:
        raise DomainError("scale a must be positive")
    if not (mu > (d - 2.0) / 2.0):
        raise DomainError(f"requires mu > (d-2)/2, got mu={mu}")
    r = _norm(z)
    if r == 0.0:
        return (math.pi ** (d / 2.0) * gamma_fn(mu + 1.0 - d / 2.0)
                / gamma_fn(mu + 1.0) * a ** (d - 2.0 * mu - 2.0))
    order = (d - 2.0) / 2.0 - mu
    return ((2.0 * math.pi) ** (d / 2.0) / (2.0 ** mu * gamma_fn(mu + 1.0))
            * (r / a) ** (mu + 1.0 - d / 2.0) * bessel_k(order, a * r))


def g_fourier(ck: ComparisonKernel, t: float, p: float, z) -> float:
    """Exact Fourier transform of g(t, .)^p at frequency z."""
    d, a = ck.d, ck.alpha
    if not (p > d / (d + a)):
        raise DomainError("requires p > d/(d+alpha)")
    r = _norm(z)
    if r == 0.0:
        return g_p_integral(ck, t, p)
    mu = p * (d + a) / 2.0 - 1.0
    return ck.kappa ** p * t ** p * fourier_power_transform(d, t ** (1.0 / a), mu, r)


def g_fourier_lower(ck: ComparisonKernel, t: float, p: float, z) -> float:
    """Certified lower bound kappa^p c_nu t^(-(p-1)d/alpha) e^(-t^(1/alpha) |z|)."""
    d, a = ck.d, ck.alpha
    _, c_nu = nu_const(d, a, p)
    r = _norm(z)
    return (ck.kappa ** p * c_nu * t ** (-(p - 1.0) * d / a)
            * math.exp(-t ** (1.0 / a) * r))


# --- numeric convolutions (d = 1) ------------------------------------------


def _conv_nodes(ck: ComparisonKernel, u: float, s: float, x: float, n: int = 32):
    """Panel layout for the two-peak convolution integrand on the line.

    Peaks sit at y = 0 (width s^(1/alpha)) and y = x (width (t-s)^(1/alpha));
    panels grade geometrically away from each peak, plus far-field panels out
    to 300x the largest scale (power tails make the remainder negligible).
    """
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
    panels = sorted(cuts)
    return _gauss_panels(panels, n)


def space_conv_gp(ck: ComparisonKernel, p: float, t: float, s: float, x: float) -> float:
    """Numeric (g(t-s, .)^p * g(s, .)^p)(x) over R, d = 1."""
    if ck.d != 1:
        raise DomainError("numeric convolutions implemented for d = 1 only")
    if not (0.0 < s < t):
        raise DomainError("requires 0 < s < t")
    u = t - s
    y, w = _conv_nodes(ck, u, s, x)
    vals = ck.g_radial(u, np.abs(x - y)) ** p * ck.g_radial(s, np.abs(y)) ** p
    return float(np.sum(w * vals))


def _graded_time_nodes(t: float, n: int = 16):
    """Time panels graded into both endpoints (integrable power singularities)."""
    fracs = [1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.06, 0.25, 0.5]
    cuts = [t * f for f in fracs] + [t * (1.0 - f) for f in reversed(fracs[:-1])]
    return _gauss_panels(sorted(set(cuts)), n)


def timespace_conv_gp(ck: ComparisonKernel, p: float, t: float, x: float) -> float:
    """Numeric (g^p star g^p)(t, x), d = 1."""
    s_nodes, s_w = _graded_time_nodes(t)
    total = sum(ws * space_conv_gp(ck, p, t, s, x)
                for s, ws in zip(s_nodes, s_w))
    return float(total)


def timespace_conv_gratio(ck: ComparisonKernel, p: float, t: float, x: float) -> float:
    """Numeric (g^(p) star g^(p))(t, x) for the ratio kernel
    g^(p)(u, .) = g(u, .)^(p+1) / g(u, 0), d = 1: the space convolution of
    g^(p+1) divided by the two centre values."""
    s_nodes, s_w = _graded_time_nodes(t)
    total = sum(ws * space_conv_gp(ck, p + 1.0, t, s, x)
                / (ck.g(t - s, 0.0) * ck.g(s, 0.0))
                for s, ws in zip(s_nodes, s_w))
    return float(total)
