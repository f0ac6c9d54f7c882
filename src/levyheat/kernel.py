"""Stable heat kernel, comparison kernel, and the integral formulas built on them.

The transition density of the one-dimensional symmetric stable semigroup with
symbol exp(-t |xi|^alpha) is self-similar,

    q_t(x) = t^(-1/alpha) * profile(|x| * t^(-1/alpha)),

and every evaluation goes through the unit-time profile: a Fourier
inversion up to TAIL_START, the power-tail series beyond, clipped at 0, and
the Cauchy density in closed form at alpha = 1.  `StableProfile.values`
gives exact values at any radii, which the solver's discrete kernel and the
mass certificate take: its inversion is a numpy-only Gauss-Legendre rule on
a rotated ray, all radii in one array evaluation, with its error checked.
`StableProfile.direct`, which `q_density` takes, is one radius at a time:
QUADPACK's adaptive rule at small nonzero radii, `values` everywhere else,
so every route to the profile takes the tail series beyond TAIL_START;
`__call__` puts a cubic spline through 714 `direct` values, for the bulk
evaluation of `weighted_kernel_integral` only.  The numeric kernel
is d = 1 only; the closed-form formulas (comparison kernel, I(beta,c,p),
Fourier transforms, convolution constants) accept d in {1, 2, 3}.  scipy's
QUADPACK is imported at the first quadrature and its CubicSpline at the
first spline evaluation, so importing this module loads no scipy, and
neither does `values`.

The comparison kernel

    g(t, x) = kappa_{d,alpha} * t / (t^(2/alpha) + |x|^2)^((d+alpha)/2)

is two-sided comparable to q_t and exactly equals it when alpha = 1;
`envelope_constants` derives the best pair c1_g g <= q <= c2_g g (d = 1).
Its numeric convolutions (d = 1) are whole-array Gauss-Legendre quadratures:
every time s of a vector gets the same 33 space panels, so a time-space
convolution is one array evaluation per 16-node time panel.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, is_count, require
from .specfun import bessel_k, gamma_fn, lgamma_fn

# quadrature tolerances shared by the kernel integrals
EPSABS = 1e-12
EPSREL = 1e-10
LIMIT = 400
# a quadrature fails when its error estimate exceeds this share of
# max(|value|, 1)
QUAD_ERR_REL = 1e-7
# the unit-time profile: exp(-xi^alpha) is truncated where xi^alpha >= EXPONENT_CUT;
# TAIL_START is the one boundary between the Fourier inversion (`values`,
# the spline nodes) and the TAIL_TERMS-term power-tail series beyond it;
# at TAIL_START the first omitted term is below 6e-17 of the sum for
# alpha >= 0.1 (3.6e-15 at alpha = 0.05)
EXPONENT_CUT = 45.0
TAIL_START = 45.0
TAIL_TERMS = 16
# the ray rule of `values`: the integrand is cut where its modulus falls
# below exp(-RAY_CUT); RAY_NODES-point Gauss-Legendre panels, checked
# against the 2 RAY_NODES-point rule, with cuts RAY_RATIO apart towards
# u = 0; radii go RAY_CHUNK // nodes at a time, so that each temporary
# holds RAY_CHUNK floats (0.5 MiB)
RAY_CUT = 40.0
RAY_NODES = 8
RAY_RATIO = 2.0
RAY_CHUNK = 2 ** 16
# the envelope pair's search in u = |x| t^(-1/alpha): a log grid of
# ENVELOPE_PER_DECADE points a decade up to ENVELOPE_TOP, then brackets of
# ENVELOPE_POINTS points down to ENVELOPE_WIDTH of u
ENVELOPE_PER_DECADE = 8
ENVELOPE_TOP = 1e6
ENVELOPE_POINTS = 17
ENVELOPE_WIDTH = 1e-12

# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class KernelParams:
    """Dimension and stability index; analytic formulas accept d in {1,2,3},
    the numeric kernel d = 1 only."""

    d: int = 1
    alpha: float = 1.5

    def __post_init__(self):
        require(is_count(self.d, 1), "d", self.d, "{1, 2, 3, ...}")
        require(0.0 < self.alpha < 2.0, "alpha", self.alpha, "(0, 2)")


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


@functools.cache
def _tail_coefficients(alpha: float) -> tuple:
    """c_1 .. c_TAIL_TERMS of one alpha, evaluated once per alpha."""
    return tuple(tail_coefficient(alpha, k) for k in range(1, TAIL_TERMS + 1))


# ---------------------------------------------------------------------------
# unit-time profile (d = 1)


def _quad_checked(func, a, b, **kw):
    """integrate.quad at the module tolerances (keywords such as `points`
    pass through); raises QuadratureError on a non-finite value or an error
    estimate above QUAD_ERR_REL * max(|value|, 1)."""
    from scipy import integrate
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
        require(0.0 < alpha < 2.0, "alpha", alpha, "(0, 2)")
        self.alpha = float(alpha)
        self._closed_form = self.alpha == 1.0 and not force_numeric
        self._spline = None

    def center(self) -> float:
        return gamma_fn(1.0 + 1.0 / self.alpha) / math.pi

    def direct(self, r: float) -> float:
        """The profile at one |r|: while 0 < r xi_max < 40 (and the alpha = 1
        closed form is off), QUADPACK's checked adaptive rule on the Fourier
        inversion (1/pi) int_0^xi_max exp(-xi^alpha) cos(r xi) dxi, clipped
        at 0; everywhere else `values(r)`, bit for bit."""
        r = abs(float(r))
        xi_max = EXPONENT_CUT ** (1.0 / self.alpha)
        if self._closed_form or not 0.0 < r * xi_max < 40.0:
            return float(self.values(r))
        # few oscillations over the decay range: plain adaptive rule
        val = _quad_checked(lambda xi: math.exp(-xi ** self.alpha) * math.cos(r * xi),
                            0.0, xi_max)
        return max(val, 0.0) / math.pi

    def tail(self, r):
        """Power-tail series sum_k c_k r^(-1-k alpha), k <= TAIL_TERMS;
        accurate for large r."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for k, c in enumerate(_tail_coefficients(self.alpha), 1):
            out += c * r ** (-1.0 - k * self.alpha)
        return out

    def _build_spline(self):
        from scipy.interpolate import CubicSpline
        # the last node is the first one at or past TAIL_START
        nodes = np.concatenate([
            np.arange(0.0, 4.0, 0.02),
            np.arange(4.0, TAIL_START + 0.08, 0.08),
        ])
        self._spline = CubicSpline(nodes, [self.direct(r) for r in nodes])

    def _split(self, r, inside):
        """The profile at |r|, an array of r's shape: `inside` (vectorised)
        up to TAIL_START, the tail series beyond, clipped at 0; at alpha = 1
        (without `force_numeric`) the Cauchy closed form at every r.  A
        radius that is not finite raises, naming r."""
        r = np.asarray(r, dtype=float)
        require(np.all(np.isfinite(r)), "r", r, "(-inf, inf)")
        r = np.abs(r)
        if self._closed_form:
            return np.asarray(1.0 / (math.pi * (1.0 + r * r)))
        out = np.empty_like(r)
        near = r <= TAIL_START
        if near.any():
            out[near] = inside(r[near])
        if not near.all():
            out[~near] = self.tail(r[~near])
        return np.maximum(out, 0.0, out=out)

    def values(self, r):
        """Exact evaluation at every |r|, numpy only: `center()` at 0, the
        ray rule `_ray_inversion` once per distinct radius in
        (0, TAIL_START], all in one call, and the tail series beyond."""
        def inversion(radii):
            distinct, where = np.unique(radii, return_inverse=True)
            # sorted, so only the first can be 0
            start = int(distinct[0] == 0.0)
            out = np.empty_like(distinct)
            if start:
                out[0] = self.center()
            if start < len(distinct):
                out[start:] = _ray_inversion(self.alpha, distinct[start:])
            return out[where]
        return self._split(r, inversion)

    def __call__(self, r):
        """Vectorized fast evaluation: spline inside, tail series outside;
        a float for a scalar r."""
        def spline(radii):
            if self._spline is None:
                self._build_spline()
            return self._spline(radii)
        out = self._split(r, spline)
        return float(out) if out.ndim == 0 else out


@functools.cache
def _ray_rule(alpha: float, n: int, ratio: float):
    """The ray rule of one alpha, built once and shared read-only:
    (phi, log_len, v, v^alpha, w).

    phi = min(pi/2, pi/(4 alpha)) is the ray's angle and log_len the log of
    the length where |u|^alpha cos(alpha phi) reaches RAY_CUT, the longest
    cut-off length of any radius.  The nodes v lie in [0, 1], in units of
    each radius's own cut-off length: eight panels of width 1/8, then cuts
    `ratio` apart towards the branch point u = 0 until the first panel,
    [0, first cut], spans |u| <= 1e-6 at every radius.  The first third of
    the nodes and weights is the n-point Gauss-Legendre rule on these
    panels, the rest the 2n-point rule.
    """
    phi = min(math.pi / 2.0, math.pi / (4.0 * alpha))
    log_len = math.log(RAY_CUT / math.cos(alpha * phi)) / alpha
    steps = math.ceil((log_len + math.log(1e6 / 8.0)) / math.log(ratio))
    cuts = np.concatenate([[0.0], 0.125 * ratio ** np.arange(-steps, 0.0),
                           np.arange(1, 9) / 8.0])
    (v_lo, w_lo), (v_hi, w_hi) = _gauss_panels(cuts, n), _gauss_panels(cuts, 2 * n)
    v, w = np.concatenate([v_lo, v_hi]), np.concatenate([w_lo, w_hi])
    v_alpha = v ** alpha
    for arr in (v, v_alpha, w):
        arr.flags.writeable = False
    return phi, log_len, v, v_alpha, w


def _ray_inversion(alpha: float, r):
    """The unit profile at every radius of the 1-d array r > 0, numpy only:

        f(r) = (1/pi) Re[e^(i phi) int_0^inf exp(-s^alpha e^(i alpha phi)
                                                 + i r s e^(i phi)) ds],

    the inversion integral moved by Cauchy's theorem from [0, inf) onto the
    ray u = s e^(i phi) of `_ray_rule`, where cos(alpha phi) > 0.  There
    the modulus is exp(-s^alpha cos(alpha phi) - r s sin(phi)), so no
    undamped oscillation is left; each radius is integrated up to the
    length where it falls to exp(-RAY_CUT).  The 2 RAY_NODES-point rule
    gives the value and its distance from the RAY_NODES-point rule the
    error estimate, which raises QuadratureError above
    QUAD_ERR_REL * max(|value|, 1), as `_quad_checked` does.  Each sum runs
    along one row (a BLAS product's order is not fixed per row), so a
    radius gets the same value bit for bit whatever else is in the call.
    """
    phi, log_len, v, v_alpha, w = _ray_rule(alpha, RAY_NODES, RAY_RATIO)
    cos_a, sin_a = math.cos(alpha * phi), math.sin(alpha * phi)
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    # each radius's cut-off length: where either term of the exponent
    # reaches RAY_CUT; in logs, since the length overflows as alpha -> 0
    log_cut = np.minimum(log_len, math.log(RAY_CUT / sin_p) - np.log(r))
    length = np.exp(log_cut)
    low, value = np.empty(len(r)), np.empty(len(r))
    step = max(1, RAY_CHUNK // len(v))
    for i in range(0, len(r), step):
        part = slice(i, i + step)
        s_alpha = np.exp(alpha * log_cut[part, None]) * v_alpha
        rs = (r[part] * length[part])[:, None] * v
        g = np.exp(-(cos_a * s_alpha + sin_p * rs))
        g *= np.cos(cos_p * rs - sin_a * s_alpha + phi)
        g *= w
        low[part] = g[:, :len(v) // 3].sum(axis=1)
        value[part] = g[:, len(v) // 3:].sum(axis=1)
    value *= length / math.pi
    est = np.abs(value - low * length / math.pi)
    bad = ~(est <= QUAD_ERR_REL * np.maximum(np.abs(value), 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"ray rule did not converge at alpha = {alpha}, r = {r[i]} "
            f"(value {value[i]}, error estimate {est[i]})",
            estimate=float(est[i]), value=float(value[i]))
    return value


@functools.cache
def get_profile(alpha: float) -> StableProfile:
    """The shared profile of one alpha, cached on its exact value."""
    return StableProfile(alpha)


# ---------------------------------------------------------------------------
# kernel evaluation


def _norm(x) -> float:
    if isinstance(x, (int, float)):
        return abs(float(x))
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return float(np.sqrt(np.sum(arr * arr)))


def q_density(kp: KernelParams, t: float, x) -> float:
    """Stable transition density q_t(x) in d = 1: the scaled unit profile,
    t^(-1/alpha) profile.direct(|x| t^(-1/alpha)), so QUADPACK's rule at
    small radii, the ray rule up to TAIL_START and the tail series beyond.

    The profile returns the exact Cauchy form at alpha = 1; d != 1 raises.
    """
    require(kp.d == 1, "d", kp.d, "{1}")
    require(0.0 < t < math.inf, "t", t, "(0, inf)")
    r = _norm(x)
    require(r < math.inf, "x", x, "(-inf, inf)")
    scale = t ** (-1.0 / kp.alpha)
    return scale * get_profile(kp.alpha).direct(r * scale)


def q_mass_numeric(kp: KernelParams, t: float) -> float:
    """Numeric total mass of q_t (d = 1): quadrature of the profile's
    `values` (the ray rule) on [0, TAIL_START] plus the power-tail series
    beyond, the same split and inversion as the solver's kernel.

    By self-similarity the mass equals the unit-time mass, so the integral is
    done on the profile directly and t does not enter.  The rule is
    Gauss-Legendre on panels graded at the profile's width
    w = sqrt(Gamma(1/alpha) / Gamma(3/alpha)), its curvature scale at 0
    (q''(0)/q(0) = -1/w^2): cuts at 0, w 10^k while below 1, then 1, 10 and
    TAIL_START.  `values` runs at every node in one array call, so a wrong
    inversion shows in the mass.
    """
    require(kp.d == 1, "d", kp.d, "{1}")
    require(0.0 < t < math.inf, "t", t, "(0, inf)")
    a = kp.alpha
    # log10(w) from lgamma: Gamma(3/a) overflows for a < 0.018
    log_w = 0.5 * (lgamma_fn(1.0 / a) - lgamma_fn(3.0 / a)) / math.log(10.0)
    cuts = [0.0] + [10.0 ** (log_w + k) for k in range(math.ceil(-log_w))]
    # 20 nodes per panel agree with the adaptive rule to ~1e-12 over
    # alpha in [0.2, 1.99] (16 leave ~2e-10)
    r, w = _gauss_panels(cuts + [1.0, 10.0, TAIL_START], 20)
    core = 2.0 * math.fsum(w * get_profile(a).values(r))
    tail = 0.0
    for k, c in enumerate(_tail_coefficients(a), 1):
        tail += 2.0 * c * TAIL_START ** (-k * a) / (k * a)
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

    def g(self, t, r):
        """g(t, x) at the radius r = |x|, elementwise in r and t.  Both
        powers are np.float_power, the C library's pow on every element as
        Python's ** on floats; np.power's SIMD loops can round differently,
        so g(t, r)[i] == g(t[i], r) holds bit for bit."""
        ts = np.asarray(t)
        require(np.all((0.0 < ts) & (ts < math.inf)), "t", t, "(0, inf)")
        r = np.asarray(r, dtype=float)
        require(np.all(np.isfinite(r)), "r", r, "(-inf, inf)")
        d, a = self.d, self.alpha
        return self.kappa * t / np.float_power(
            np.float_power(t, 2.0 / a) + r * r, (d + a) / 2.0)

    def g_p_numeric(self, t: float, p: float = 1.0) -> float:
        """Quadrature of int_R g(t,y)^p dy (d = 1); g_p_integral is its
        closed form and p = 1 gives the unit mass.  The integrand is `g`'s
        arithmetic with kappa and the exponents taken once per call, in the
        variable u = y / t^(1/alpha), so the split at u = 10 and QUADPACK's
        map of [10, inf) do not depend on the width t^(1/alpha) (which is
        4^10 at alpha = 0.1, t = 4)."""
        require(self.d == 1, "d", self.d, "{1}")
        a = self.alpha
        require(0.0 < t < math.inf, "t", t, "(0, inf)")
        require(1 / (1 + a) < p < math.inf, "p", p, "(d/(d+alpha), inf)")
        kt, t2a, e = self.kappa * t, t ** (2.0 / a), (1.0 + a) / 2.0
        width = t ** (1.0 / a)

        def g_p(u):
            r = width * u
            return (kt / (t2a + r * r) ** e) ** p

        core = _quad_checked(g_p, 0.0, 10.0, points=[1.0])
        far = _quad_checked(g_p, 10.0, np.inf)
        return 2.0 * width * (core + far)


def minform_kernel(kp: KernelParams, t: float, x) -> float:
    """Envelope min(t^(-d/alpha), t / |x|^(d+alpha)); brackets q_t up to constants."""
    require(0.0 < t < math.inf, "t", t, "(0, inf)")
    r = _norm(x)
    require(r < math.inf, "x", x, "(-inf, inf)")
    flat = t ** (-kp.d / kp.alpha)
    if r == 0.0:
        return flat
    return min(flat, t / r ** (kp.d + kp.alpha))


@functools.cache
def envelope_constants(alpha: float) -> tuple:
    """(c1_g, c2_g), the best constants of c1_g g <= q <= c2_g g (d = 1),
    numpy only and cached on alpha's exact value.

    By self-similarity q_t(x) / g(t, x) depends on u = |x| t^(-1/alpha)
    alone: rho(u) = f(u) (1 + u^2)^((1+alpha)/2) / kappa, f the unit
    profile, and the pair is its infimum and supremum over u >= 0.  Both
    ends are closed forms: rho(0) = center() / kappa and rho(inf) =
    tail_coefficient(alpha, 1) / kappa (Blumenthal & Getoor 1960).  Between
    them `values` runs on the log grid from w / 100, w the profile's width
    at 0 (as in `q_mass_numeric`); an extremum at an inner grid point is
    refined on equispaced points across its two neighbours, again and
    again: at alpha = 1.9 a single 100x zoom misses the supremum by 1.7e-6,
    on the low side.  Each `values` call takes at most ENVELOPE_POINTS
    radii, so the ray rule's temporaries stay small.
    """
    prof = get_profile(alpha)
    kappa = kappa_const(1, alpha)

    def rho(u):
        f = np.concatenate([prof.values(u[i:i + ENVELOPE_POINTS])
                            for i in range(0, len(u), ENVELOPE_POINTS)])
        return f * np.float_power(1.0 + u * u, (1.0 + alpha) / 2.0) / kappa

    log_w = 0.5 * (lgamma_fn(1.0 / alpha) - lgamma_fn(3.0 / alpha)) / math.log(10.0)
    top = math.log10(ENVELOPE_TOP)
    u = np.logspace(log_w - 2.0, top,
                    math.ceil((top - log_w + 2.0) * ENVELOPE_PER_DECADE) + 1)
    r = rho(u)
    ends = (prof.center() / kappa, tail_coefficient(alpha, 1) / kappa)
    pair = []
    for sign in (1.0, -1.0):         # the infimum, then the supremum
        i = int(np.argmin(sign * r))
        best = min(sign * ends[0], sign * ends[1], sign * r[i])
        if 0 < i < len(u) - 1:
            lo, hi = u[i - 1], u[i + 1]
            while hi - lo > ENVELOPE_WIDTH * hi:
                pts = np.linspace(lo, hi, ENVELOPE_POINTS)
                vals = sign * rho(pts)
                j = int(np.argmin(vals))
                best = min(best, vals[j])
                lo, hi = pts[max(j - 1, 0)], pts[min(j + 1, ENVELOPE_POINTS - 1)]
        pair.append(float(sign * best))
    return tuple(pair)


# ---------------------------------------------------------------------------
# weighted space-time integrals


def _check_icpc(d, alpha, beta, c, p):
    require(1.0 <= p < 1.0 + alpha / d, "p", p, "[1, 1 + alpha/d)")
    require(0.0 <= c < d + alpha, "c", c, "[0, d + alpha)")
    require(p > d / (d + alpha - c), "p", p, "(d/(d+alpha-c), 1 + alpha/d)")
    require(0.0 < beta < math.inf, "beta", beta, "(0, inf)")


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
    """Gauss-Legendre nodes/weights over consecutive panels, per row of cuts."""
    base_x, base_w = _legendre_rule(n)
    cuts = np.asarray(panels, dtype=float)
    lo, hi = cuts[..., :-1, None], cuts[..., 1:, None]
    shape = cuts.shape[:-1] + (-1,)
    return ((0.5 * (hi - lo) * base_x + 0.5 * (hi + lo)).reshape(shape),
            (0.5 * (hi - lo) * base_w).reshape(shape))


def weighted_kernel_integral(kp: KernelParams, beta: float, c: float, p: float) -> float:
    """Numeric int_0^inf int_R { e^(-beta t) (1+|x|)^c q_t(x) }^p dx dt  (d = 1).

    Uses self-similarity to pull the Laplace variable out:
       J = (p beta)^((p-1)/alpha - 1) *
           int_0^inf e^(-u) u^(-(p-1)/alpha) phi((u / (p beta))^(1/alpha)) du,
       phi(s) = 2 int_0^inf (1 + s y)^(p c) q_1(y)^p dy,
    which stays well-conditioned for arbitrarily large beta.
    """
    d, a = kp.d, kp.alpha
    require(d == 1, "d", d, "{1}")
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
    KernelParams(d, alpha)      # checks d and alpha
    require(0.0 <= p < 1.0 + alpha / d, "p", p, "[0, 1 + alpha/d)")
    return (omega_d(d) * (d + alpha) ** 2
            / (d * (2.0 * d + alpha) * (d + alpha - p * d)))


def levelset_volume_minform(d: int, alpha: float, eps: float) -> float:
    """Space-time volume of {min-form kernel > eps}; exact closed form."""
    require(0.0 < eps < math.inf, "eps", eps, "(0, inf)")
    return hmoment_constant(d, alpha, 0.0) * eps ** (-(1.0 + alpha / d))


def minform_level_integral(kp: KernelParams, t: float, p: float, eps: float) -> float:
    """int_R h(t,y)^p 1{h(t,y) > eps} dy on the min-form kernel h, d = 1.

    Exact closed form; vanishes for t >= eps^(-alpha).
    """
    d, a = kp.d, kp.alpha
    require(d == 1, "d", d, "{1}")
    require(0.0 < t < math.inf, "t", t, "(0, inf)")
    require(0.0 <= p < math.inf, "p", p, "[0, inf)")
    require(0.0 < eps < math.inf, "eps", eps, "(0, inf)")
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


# h_moment's time panels: 0, then t_max * 10^-k for k = 60, ..., 0
HMOMENT_TIME_CUTS = (0.0,) + tuple(10.0 ** -k for k in range(60, -1, -1))
# smallest alpha h_moment's quadrature route accepts
HMOMENT_ALPHA_FLOOR = 0.02


def h_moment(kp: KernelParams, eps: float, p: float):
    """Level-set moment of the min-form kernel: (closed_form, quadrature).

    closed_form = c_{d,alpha}^(p) eps^(-(1+alpha/d-p)); the quadrature route
    integrates h^p 1{h > eps} numerically over space and time.  On the
    min-form kernel the two agree exactly (unit envelope constants).

    The quadrature is vectorised Gauss-Legendre (d = 1).  The level set is
    empty from t_max = eps^(-alpha) on; time runs over (0, t_max] on 24-node
    panels with cuts t_max * HMOMENT_TIME_CUTS, geometric towards t = 0.  At
    time t, h is the constant t^(-1/alpha) on [0, r_in], r_in = t^(1/alpha),
    which gives r_in t^(-p/alpha); on [r_in, r_out], r_out =
    (t/eps)^(1/(1+alpha)), h = t / y^(1+alpha) is integrated after the
    substitution y = r_in (r_out/r_in)^s, s in [0, 1] on 24 nodes, for all
    time nodes at once.  Near t = 0 the time integrand behaves like
    t^((1-p)/alpha), so [0, 1e-60 t_max] holds a share of about
    1e-60^((1+alpha-p)/alpha) of the integral: the route agrees with the
    closed form to rounding for p <= 1 (the certificate grid) and to 3e-13
    while (1+alpha-p)/alpha >= 0.2, and loses digits as p -> 1 + alpha
    (6e-5 at alpha = 1.5, p = 2.4).  At small alpha the space integrand
    varies too fast for 24 nodes: the worst relative error over p in
    {0, 0.5, 1}, eps in {0.25, 1, 4} is 3.6e-12 at alpha = 0.05, 1.9e-7 at
    0.02, 4.0e-5 at 0.01 and 1.6e-3 at 0.005, so the route refuses alpha
    below HMOMENT_ALPHA_FLOOR = 0.02 with a DomainError.
    """
    d, a = kp.d, kp.alpha
    require(0.0 < eps < math.inf, "eps", eps, "(0, inf)")
    closed = hmoment_constant(d, a, p) * eps ** (-(1.0 + a / d - p))
    if d != 1:
        return closed, None
    require(a >= HMOMENT_ALPHA_FLOOR, "alpha", a, f"[{HMOMENT_ALPHA_FLOOR}, 2)")
    t, w_t = _gauss_panels(eps ** (-a) * np.asarray(HMOMENT_TIME_CUTS), 24)
    s, w_s = _gauss_panels([0.0, 1.0], 24)
    # logarithms throughout: t^(1/alpha) underflows at small alpha
    log_t = np.log(t)
    log_r_in = log_t / a
    span = (log_t - math.log(eps)) / (1.0 + a) - log_r_in
    log_y = log_r_in[:, None] + span[:, None] * s
    power = np.exp(p * log_t[:, None] + (1.0 - p * (1.0 + a)) * log_y) @ w_s
    flat = np.exp((1.0 - p) / a * log_t)
    return closed, float(2.0 * (flat + power * span) @ w_t)


# ---------------------------------------------------------------------------
# comparison-kernel integrals, Fourier identities, convolution bounds


def g_p_integral(ck: ComparisonKernel, t: float, p: float) -> float:
    """Closed form of int g(t,y)^p dy for p > d/(d+alpha)."""
    d, a = ck.d, ck.alpha
    require(d / (d + a) < p < math.inf, "p", p, "(d/(d+alpha), inf)")
    require(0.0 < t < math.inf, "t", t, "(0, inf)")
    return (ck.kappa ** p * math.pi ** (d / 2.0) * t ** (-(p - 1.0) * d / a)
            * math.exp(lgamma_fn(p * (d + a) / 2.0 - d / 2.0)
                       - lgamma_fn(p * (d + a) / 2.0)))


def nu_const(d: int, alpha: float, p: float):
    """(nu, c_nu) of the Fourier lower bound: nu = p(d+alpha)/2 - d/2."""
    KernelParams(d, alpha)      # checks d and alpha
    nu = p * (d + alpha) / 2.0 - d / 2.0
    require(0.0 < nu < math.inf, "p", p, "(d/(d+alpha), inf)")
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
    require(0.0 < a < math.inf, "a", a, "(0, inf)")
    require((d - 2.0) / 2.0 < mu < math.inf, "mu", mu, "((d-2)/2, inf)")
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
    require(d / (d + a) < p < math.inf, "p", p, "(d/(d+alpha), inf)")
    require(0.0 < t < math.inf, "t", t, "(0, inf)")
    r = _norm(z)
    if r == 0.0:
        return g_p_integral(ck, t, p)
    mu = p * (d + a) / 2.0 - 1.0
    return ck.kappa ** p * t ** p * fourier_power_transform(d, t ** (1.0 / a), mu, r)


def g_fourier_lower(ck: ComparisonKernel, t: float, p: float, z) -> float:
    """Certified lower bound kappa^p c_nu t^(-(p-1)d/alpha) e^(-t^(1/alpha) |z|)."""
    d, a = ck.d, ck.alpha
    _, c_nu = nu_const(d, a, p)
    require(0.0 < t < math.inf, "t", t, "(0, inf)")
    r = _norm(z)
    require(r < math.inf, "z", z, "(-inf, inf)")
    return (ck.kappa ** p * c_nu * t ** (-(p - 1.0) * d / a)
            * math.exp(-t ** (1.0 / a) * r))


# --- numeric convolutions (d = 1) ------------------------------------------

# cut offsets around a peak, in units of its width: 0, +-0.5, ..., +-48
_CONV_STEPS = np.array([sgn * m for m in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 48.0)
                        for sgn in (-1.0, 1.0)])


def _conv_nodes(ck: ComparisonKernel, u, s, x: float):
    """32-node Gauss-Legendre nodes and weights for the two-peak
    convolution integrand on the line, for each (u, s) pair (they
    broadcast; scalars give one row): arrays of shape (..., 33 * 32).

    Peaks sit at y = 0 (width s^(1/alpha)) and y = x (width u^(1/alpha));
    the cuts are each peak plus _CONV_STEPS times its width and +-big,
    big = 300x the largest scale (power tails make the remainder
    negligible), sorted per pair.  A cut outside (-big, big) is clipped
    onto the end it passes, so clipped and repeated cuts give zero-width
    panels, whose nodes carry weight exactly 0.
    """
    a = ck.alpha
    # float_power: the widths, and so the cuts, as Python's ** gives them
    w0, w1 = np.broadcast_arrays(
        np.float_power(np.asarray(s, dtype=float)[..., None], 1.0 / a),
        np.float_power(np.asarray(u, dtype=float)[..., None], 1.0 / a))
    big = 300.0 * np.maximum(np.maximum(w0, w1), max(abs(x), 1.0))
    peaks = np.concatenate([_CONV_STEPS * w0, x + _CONV_STEPS * w1], axis=-1)
    cuts = np.sort(np.concatenate([-big, np.clip(peaks, -big, big), big],
                                  axis=-1), axis=-1)
    return _gauss_panels(cuts, 32)


def _space_conv(ck: ComparisonKernel, q: float, t: float, s, x: float):
    """(g(t-s, .)^q * g(s, .)^q)(x) over R for every time of the 1-D array
    s, d = 1.  With u = t - s the integrand is

        (kappa^2 u s)^q ((u^(2/alpha) + (x-y)^2) (s^(2/alpha) + y^2))^(-q(1+alpha)/2),

    one power per node.
    """
    require(ck.d == 1, "d", ck.d, "{1}")
    a = ck.alpha
    u = t - s
    y, w = _conv_nodes(ck, u, s, x)
    u2, s2 = (u ** (2.0 / a))[:, None], (s ** (2.0 / a))[:, None]
    vals = (((x - y) ** 2 + u2) * (y * y + s2)) ** (-q * (1.0 + a) / 2.0)
    return (ck.kappa ** 2 * u * s) ** q * np.sum(w * vals, axis=-1)


def _graded_time_nodes(t: float):
    """16-node time panels graded into both endpoints (integrable power
    singularities): nodes and weights of shape (panels, 16)."""
    fracs = [1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.06, 0.25, 0.5]
    cuts = [t * f for f in fracs] + [t * (1.0 - f) for f in reversed(fracs[:-1])]
    s, w = _gauss_panels(sorted(set(cuts)), 16)
    return s.reshape(-1, 16), w.reshape(-1, 16)


def require_conv_order(d, alpha, p) -> None:
    """The orders p of the convolution bounds: d/(d+alpha) < p <
    1 + alpha/d, where g^p is integrable and a = 1 - (p-1) d/alpha > 0."""
    require(d / (d + alpha) < p < 1.0 + alpha / d, "p", p,
            "(d/(d+alpha), 1 + alpha/d)")


def _check_timespace(ck: ComparisonKernel, p: float, t: float, x: float):
    """The domain the time-space convolutions share."""
    require_conv_order(ck.d, ck.alpha, p)
    require(0.0 < t < math.inf, "t", t, "(0, inf)")
    require(math.isfinite(x), "x", x, "(-inf, inf)")


def timespace_conv_gp(ck: ComparisonKernel, p: float, t: float, x: float) -> float:
    """Numeric (g^p star g^p)(t, x), d = 1, one time panel at a time."""
    _check_timespace(ck, p, t, x)
    return float(sum(ws @ _space_conv(ck, p, t, s, x)
                     for s, ws in zip(*_graded_time_nodes(t))))


def timespace_conv_gratio(ck: ComparisonKernel, p: float, t: float, x: float) -> float:
    """Numeric (g^(p) star g^(p))(t, x) for the ratio kernel
    g^(p)(u, .) = g(u, .)^(p+1) / g(u, 0), d = 1: the space convolution of
    g^(p+1) divided by the two centre values."""
    _check_timespace(ck, p, t, x)
    return float(sum(ws @ (_space_conv(ck, p + 1.0, t, s, x)
                           / (ck.g(t - s, 0.0) * ck.g(s, 0.0)))
                     for s, ws in zip(*_graded_time_nodes(t))))
