"""Analytic bounds for the Levy-noise fractional heat equation.

Covers the weighted-norm contraction constant and the threshold beta0 it
defines, the Lyapunov / growth-index upper bounds p*beta0 and beta0/c, the
exponential and subexponential lower-bound figures, the renewal weight
w_p^(eps), and a discrete Volterra renewal-equation solver: one Toeplitz
renewal solve per Richardson grid, each tilted by its own growth root, with
beta1 and beta1_half the two grids' trapezoid roots and overflow raised as
BlowupError.

The proofs behind the bounds involve constants that are not written in
closed form (martingale maximal inequalities and the compensated-Poisson
lower bound).  Those enter here as a ConstantsConfig with default value 1,
and every report echoes the configured values in its `assumptions` list so
downstream consumers cannot mistake the output for sharp constants.  The
heat-kernel envelope pair c1_g g <= q <= c2_g g that the lower bounds carry
is not among them: `kernel.envelope_constants` derives it, and a report
records the pair it used.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (BlowupError, DegenerateMeasureError, DomainError,
                     NoRootError, reject_unread, require)
from .kernel import (ConvConstants, I_formula, KernelParams, conv_constants,
                     envelope_constants, hmoment_constant,
                     levelset_volume_minform, minform_level_integral)
from .noise import LevyMeasureSpec, drift_b

# ---------------------------------------------------------------------------
# model description


@dataclass(frozen=True)
class SigmaSpec:
    """Multiplicative coefficient descriptor with its Lipschitz data.

    lip  is the global Lipschitz constant L_sigma;
    lip0 is inf_{w != 0} |sigma(w)| / |w|, the non-degeneracy constant.
    Both are derived from the coefficient.  A table is interpolated
    linearly between strictly increasing `table_x` and held flat beyond
    them, so its lip is the steepest segment and its lip0 is 0 (sigma
    stays bounded while |w| grows).  A field the kind does not read must
    keep its default.
    """

    kind: str = "linear"          # "linear" | "affine" | "table"
    slope: float = 1.0
    intercept: float = 0.0
    table_x: tuple = ()
    table_y: tuple = ()
    lip: float = field(init=False)
    lip0: float = field(init=False)

    def __post_init__(self):
        unread = {"linear": ("intercept", "table_x", "table_y"),
                  "affine": ("table_x", "table_y"), "table": ("slope", "intercept")}
        require(self.kind in unread, "kind", self.kind, "{linear, affine, table}")
        reject_unread(self, self.kind, unread)
        require(math.isfinite(self.slope), "slope", self.slope, "(-inf, inf)")
        require(math.isfinite(self.intercept), "intercept", self.intercept,
                "(-inf, inf)")
        if self.kind == "linear":
            lip = lip0 = abs(self.slope)
        elif self.kind == "affine":
            lip = abs(self.slope)
            lip0 = abs(self.slope) if self.intercept == 0.0 else 0.0
        else:
            for name in ("table_x", "table_y"):
                table = getattr(self, name)
                require(np.all(np.isfinite(table)), name, table, "(-inf, inf)")
            require(len(self.table_x) == len(self.table_y) >= 2, "table_x",
                    self.table_x, "sequences of 2 or more, as long as table_y")
            dx = np.diff(self.table_x)
            require(np.all(dx > 0.0), "table_x", self.table_x,
                    "strictly increasing sequences")
            lip = float(np.max(np.abs(np.diff(self.table_y) / dx)))
            lip0 = 0.0
        object.__setattr__(self, "lip", lip)
        object.__setattr__(self, "lip0", lip0)

    def __call__(self, x):
        if self.kind == "linear":
            return self.slope * np.asarray(x)
        if self.kind == "affine":
            return self.intercept + self.slope * np.asarray(x)
        return np.interp(np.asarray(x), self.table_x, self.table_y)

    @property
    def at_zero(self) -> float:
        return float(self(0.0))


@dataclass(frozen=True)
class U0Spec:
    """Initial condition: positive constant or polynomial decay C0 (1+|x|)^-c.
    A field the kind does not read must keep its default."""

    kind: str = "constant"        # "constant" | "poly_decay"
    value: float = 1.0
    c0: float = 1.0
    decay_c: float = 0.0

    def __post_init__(self):
        unread = {"constant": ("c0", "decay_c"), "poly_decay": ("value",)}
        require(self.kind in unread, "kind", self.kind, "{constant, poly_decay}")
        reject_unread(self, self.kind, unread)
        require(math.isfinite(self.value), "value", self.value, "(-inf, inf)")
        require(math.isfinite(self.c0), "c0", self.c0, "(-inf, inf)")
        require(0.0 <= self.decay_c < math.inf, "decay_c", self.decay_c,
                "[0, inf)")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value)
        return self.c0 * (1.0 + np.abs(x)) ** (-self.decay_c)


@dataclass(frozen=True)
class ConstantsConfig:
    """The proof constants that are not explicit, all defaulting to 1.

    k1: Gaussian maximal-inequality constant (continuous martingale part)
    k2: drift-term constant
    k3: compensated-Poisson p-th moment constant
    k4: mixed quadratic-variation constant (p >= 2 route)
    k5: moment lower-bound prefactor in the intermittency route

    The kernel envelope pair (c1_g, c2_g) is explicit, so it is no setting:
    `kernel.envelope_constants` derives it.
    """

    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    k4: float = 1.0
    k5: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            require(0.0 <= value < math.inf, f.name, value, "[0, inf)")

    def assumptions(self) -> list:
        return [f"{f.name}={getattr(self, f.name):g} (configured, not derived)"
                for f in fields(self)]


@dataclass(frozen=True)
class ModelSpec:
    """Full model instance: kernel, Gaussian weight, jump measure, sigma, u0."""

    kp: KernelParams = field(default_factory=KernelParams)
    rho: float = 0.0
    levy: LevyMeasureSpec = field(default_factory=LevyMeasureSpec)
    sigma: SigmaSpec = field(default_factory=SigmaSpec)
    u0: U0Spec = field(default_factory=U0Spec)

    def __post_init__(self):
        require(0.0 <= self.rho < math.inf, "rho", self.rho, "[0, inf)")
        require(self.rho == 0.0 or self.kp.d < self.kp.alpha, "rho", self.rho,
                "{0} unless d < alpha")
        require(self.u0.decay_c < self.kp.alpha, "decay_c", self.u0.decay_c,
                "[0, alpha)")

    @property
    def b(self) -> float:
        return drift_b(self.levy)


# ---------------------------------------------------------------------------
# contraction constant and beta0


def contraction_constant(ms: ModelSpec, beta: float, c: float, p: float,
                         constants: ConstantsConfig = ConstantsConfig()
                         ) -> float:
    """Computable majorant of the weighted-norm contraction factor.

    Assembled term by term from the fixed-point estimate:
        rho k1 I(beta,c,2)^(1/2) + |b| k2 I(beta,c,1)
        + (int |z|^p lambda)^(1/p) k3 I(beta,c,p)^(1/p)
        + [p >= 2]  k4 (int z^2 lambda)^(1/2) I(beta,c,2)^(1/2).
    Strictly decreasing in beta, -> 0 as beta -> infinity.
    """
    d, alpha = ms.kp.d, ms.kp.alpha
    require(1.0 <= p < 1.0 + alpha / d, "p", p, "[1, 1 + alpha/d)")
    require(0.0 <= c < alpha, "c", c, "[0, alpha)")
    require(p >= 2.0 or ms.rho == 0.0, "p", p, "[2, 1 + alpha/d) when rho > 0")
    total = 0.0
    if ms.rho > 0.0:
        total += (ms.rho * constants.k1
                  * math.sqrt(I_formula(ms.kp, beta, c, 2.0)))
    b = ms.b
    if b != 0.0:
        total += abs(b) * constants.k2 * I_formula(ms.kp, beta, c, 1.0)
    sig_p = ms.levy.moment(p)
    if sig_p == 0.0:
        raise DegenerateMeasureError("jump measure has no p-th moment mass")
    total += (sig_p ** (1.0 / p) * constants.k3
              * I_formula(ms.kp, beta, c, p) ** (1.0 / p))
    if p >= 2.0:
        sig_2 = ms.levy.moment(2.0)
        total += (constants.k4 * math.sqrt(sig_2)
                  * math.sqrt(I_formula(ms.kp, beta, c, 2.0)))
    return total


BETA_BRACKET = (1e-6, 1e12)


def beta0(ms: ModelSpec, c: float, p: float,
          constants: ConstantsConfig = ConstantsConfig()) -> float:
    """Smallest beta with L_sigma * contraction_constant(beta) <= 1/2.

    Geometric bisection on the monotone majorant over BETA_BRACKET to a
    relative width of 1e-10; raises NoRootError if the threshold is not
    reached at the bracket ceiling (mis-configured jump measure) or the
    majorant is NaN there.
    """
    lip = ms.sigma.lip
    require(lip > 0.0, "sigma.lip", lip, "(0, inf)")

    def excess(beta):
        return lip * contraction_constant(ms, beta, c, p, constants) - 0.5

    lo, hi = BETA_BRACKET
    if not excess(hi) <= 0.0:
        raise NoRootError("contraction constant not at most 1/(2 L_sigma) "
                          f"at beta = {hi:g}")
    if excess(lo) <= 0.0:
        return lo
    while hi - lo > 1e-10 * hi:
        mid = math.sqrt(lo * hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# bounds report


@dataclass
class BoundsReport:
    """Certified analytic figures for one (model, c, p)."""

    p: float
    c: float
    beta0: float
    lyap_upper: float
    growth_upper: float | None = None
    growth_lower_exp: float | None = None
    subexp_rate: float | None = None
    eta_star: float | None = None
    conv_constants: ConvConstants | None = None
    # (c1_g, c2_g) from kernel.envelope_constants, when a lower figure uses it
    envelope_g: tuple | None = None
    assumptions: list = field(default_factory=list)


def upper_bounds(ms: ModelSpec, c: float, p: float,
                 constants: ConstantsConfig = ConstantsConfig()) -> BoundsReport:
    """Lyapunov upper bound p*beta0 and growth-index upper bound beta0/c.

    The growth bound needs sigma(0) = 0 and polynomial decay with exponent
    c in (0, alpha); it is omitted (None) when only the Lyapunov hypothesis
    holds, and requesting it with decay_c = 0 is an error.
    """
    b0 = beta0(ms, c, p, constants)     # c in [0, alpha)
    rep = BoundsReport(p=p, c=c, beta0=b0, lyap_upper=p * b0,
                       assumptions=constants.assumptions())
    if c > 0.0:
        if ms.sigma.at_zero != 0.0:
            raise DomainError("growth-index upper bound requires sigma(0) = 0")
        require(ms.u0.kind == "poly_decay" and c <= ms.u0.decay_c, "c", c,
                "(0, decay_c] of a polynomially decaying u0")
        rep.growth_upper = b0 / c
    return rep


def lower_bound_exponential(ms: ModelSpec, p: float,
                            constants: ConstantsConfig = ConstantsConfig()
                            ) -> float:
    """Exponential growth-index lower bound, valid for alpha > d = 1, b = 0,
    L_sigma,0 > 0 and p in [2, 1 + alpha/d):

        (c** Lambda^(p))^(1/(1-(p-1)d/alpha)) / (p (d + alpha)),
        c** = k5 sigma_lambda^(p) L_{sigma,0}^p c1_g^p / 4,

    c1_g from `kernel.envelope_constants`.
    """
    d, alpha = ms.kp.d, ms.kp.alpha
    require(alpha > d == 1, "alpha", alpha, "(1, 2) with d = 1")
    if ms.b != 0.0:
        raise DomainError("exponential lower bound requires drift b = 0")
    require(ms.sigma.lip0 > 0.0, "sigma.lip0", ms.sigma.lip0, "(0, inf)")
    require(2.0 <= p < 1.0 + alpha / d, "p", p, "[2, 1 + alpha/d)")
    cc = conv_constants(d, alpha, p)
    c_star = constants.k5 * ms.levy.moment(p) * ms.sigma.lip0 ** p
    c1_g, _ = envelope_constants(alpha)
    c_dstar = c_star * c1_g ** p / 4.0
    expo = 1.0 / (1.0 - (p - 1.0) * d / alpha)
    return (c_dstar * cc.lambda_p) ** expo / (p * (d + alpha))


def subexp_rate(kp: KernelParams, p: float, ms: ModelSpec | None = None,
                constants: ConstantsConfig = ConstantsConfig()):
    """Subexponential growth radius exponent and threshold.

    r_star = p (1 - d/alpha) / (2 (1 - (p-1) d/alpha)) for p in (1, 2];
    eta_star = (c** Theta^(p))^(1/(1-(p-1)d/alpha)) / ((p+1)(d+alpha)) with
    c** = k5 sigma_lambda^(p) L_{sigma,0}^p c1_g^(p+1) / (4 c2_g), p < 2,
    with the pair from `kernel.envelope_constants`; eta_star is None when no
    model is supplied or p = 2.  It carries the configured-constants caveat.
    """
    d, alpha = kp.d, kp.alpha
    require(alpha > d == 1, "alpha", alpha, "(1, 2) with d = 1")
    require(1.0 < p <= 2.0, "p", p, "(1, 2]")
    a_ml = 1.0 - (p - 1.0) * d / alpha
    r_star = p * (1.0 - d / alpha) / (2.0 * a_ml)
    eta_star = None
    if ms is not None and p < 2.0:
        require(ms.sigma.lip0 > 0.0, "sigma.lip0", ms.sigma.lip0, "(0, inf)")
        cc = conv_constants(d, alpha, p)
        c_star = constants.k5 * ms.levy.moment(p) * ms.sigma.lip0 ** p
        c1_g, c2_g = envelope_constants(alpha)
        c_dstar = c_star * c1_g ** (p + 1.0) / (4.0 * c2_g)
        eta_star = ((c_dstar * cc.theta_p) ** (1.0 / a_ml)
                    / ((p + 1.0) * (d + alpha)))
    return r_star, eta_star


def compute_bounds(ms: ModelSpec, c: float, p: float,
                   constants: ConstantsConfig = ConstantsConfig()) -> BoundsReport:
    """Full BoundsReport: beta0 and upper bounds always; lower-bound figures
    whenever their hypotheses hold (omitted as None otherwise), with the
    envelope pair they read in `envelope_g`."""
    rep = upper_bounds(ms, c, p, constants)
    d, alpha = ms.kp.d, ms.kp.alpha
    if d / (d + alpha) < p:
        rep.conv_constants = conv_constants(d, alpha, p)
    if alpha > d == 1 and ms.b == 0.0 and ms.sigma.lip0 > 0.0:
        if 2.0 <= p < 1.0 + alpha / d:
            rep.growth_lower_exp = lower_bound_exponential(ms, p, constants)
        if 1.0 < p <= 2.0:
            rep.subexp_rate, rep.eta_star = subexp_rate(ms.kp, p, ms, constants)
    if rep.growth_lower_exp is not None or rep.eta_star is not None:
        rep.envelope_g = envelope_constants(alpha)
    return rep


# ---------------------------------------------------------------------------
# renewal weight


@dataclass
class WeightTable:
    """Tabulated renewal weight w_p^(eps) with its exact integral."""

    t: np.ndarray
    w: np.ndarray
    prefactor: float
    integral: float           # exact int_0^infty w dt on the min-form kernel
    eps: float
    delta: float
    p: float


def renewal_weight(kp: KernelParams, levy: LevyMeasureSpec, p: float,
                   eps: float, delta: float) -> WeightTable:
    """Renewal weight: jump-moment prefactor times the kernel level-set moment.

        w(t) = int_{|z|>delta} |z|^p lambda
               / max(1, lambda([-d,d]^c) * V_eps)^(1-p/2)
               * int h(t,y)^p 1{h(t,y) > eps} dy,

    computed on the exactly integrable min-form kernel h (the same envelope
    substitution the comparison estimates rest on); V_eps is the space-time
    level-set volume of h.  Returns the table, on 2001 equispaced times
    over [0, 1.05 eps^(-alpha/d)] (w vanishes from eps^(-alpha/d) on), plus
    the exact integral.
    """
    d, alpha = kp.d, kp.alpha
    require(1.0 < p < 1.0 + alpha / d, "p", p, "(1, 1 + alpha/d)")
    require(0.0 < eps < math.inf, "eps", eps, "(0, inf)")
    require(0.0 <= delta < math.inf, "delta", delta, "[0, inf)")
    mass = levy.mass_above(delta)
    if mass <= 0.0:
        raise DegenerateMeasureError(
            f"lambda carries no mass above delta = {delta}")
    volume = levelset_volume_minform(d, alpha, eps)
    prefactor = (levy.moment_above(p, delta)
                 / max(1.0, mass * volume) ** (1.0 - p / 2.0))
    t_grid = np.linspace(0.0, 1.05 * eps ** (-alpha / d), 2001)
    w = np.array([0.0 if t <= 0.0
                  else prefactor * minform_level_integral(kp, t, p, eps)
                  for t in t_grid])
    integral = (prefactor * hmoment_constant(d, alpha, p)
                * eps ** (-(1.0 + alpha / d - p)))
    return WeightTable(t=t_grid, w=w, prefactor=prefactor, integral=integral,
                       eps=eps, delta=delta, p=p)


# ---------------------------------------------------------------------------
# discrete Volterra renewal solver


@dataclass
class RenewalProblem:
    """f = c3 + c4 (w * f) on a uniform grid [0, T] with step dt.

    `weight` is a callable, evaluated on the base grid and on the dt/2 grid
    of the Richardson pass.
    """

    c3: float
    c4: float
    horizon: float
    dt: float
    weight: object

    def __post_init__(self):
        for name in ("c3", "horizon", "dt"):
            value = getattr(self, name)
            require(0.0 < value < math.inf, name, value, "(0, inf)")
        require(0.0 <= self.c4 < math.inf, "c4", self.c4, "[0, inf)")
        n = self.horizon / self.dt
        require(abs(n - round(n)) <= 1e-9, "horizon", self.horizon,
                "whole multiples of dt")

    def grid(self, refine: int = 1) -> np.ndarray:
        n = int(round(self.horizon / self.dt)) * refine
        return np.arange(n + 1) * (self.dt / refine)

    def weight_values(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.weight(t), dtype=float)


@dataclass
class RenewalSolution:
    t: np.ndarray
    f: np.ndarray
    beta1: float | None
    beta1_half: float | None     # the dt/2 grid's trapezoid root
    limit_lhs: float | None      # e^(-beta1 T) f(T)
    limit_rhs: float | None      # c3 / (beta1 c4 int t e^(-beta1 t) w dt)


def _fft_product(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """First m coefficients of the series product x(z) y(z)."""
    size = 1 << (len(x) + len(y) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:m]


def _series_inverse(a: np.ndarray) -> np.ndarray:
    """First len(a) coefficients of 1/a(z), by Newton doubling
    b <- b + b (1 - a b) mod z^m, which doubles the number of correct
    coefficients per pass.

    Each pass runs at half length (the middle product; Hanrot, Quercia &
    Zimmermann 2004).  With b the first h coefficients of 1/a, (a b)[:h] is
    1, 0, ..., 0, so a[:m] b is taken cyclically at the power of two
    size >= m, whose wrap-around lands only in that known lower half; only
    e = -(a b)[h:m] is kept, and the correction b e (length < m) fits the
    same size.  rfft(b) serves both products."""
    n = len(a)
    b = np.array([1.0 / a[0]])
    while len(b) < n:
        h = len(b)
        m = min(2 * h, n)
        size = 1 << (m - 1).bit_length()
        fb = np.fft.rfft(b, size)
        e = -np.fft.irfft(np.fft.rfft(a[:m], size) * fb, size)[h:m]
        b = np.concatenate(
            (b, np.fft.irfft(np.fft.rfft(e, size) * fb, size)[:m - h]))
    return b


def _growth_root(v: np.ndarray) -> float:
    """Root s of sum_m v_m e^(-s m) = 1 (m >= 1), v >= 0, sum v > 1: Newton
    steps on the convex, decreasing log of the sum climb to it from s = 0
    without overshooting, until a step no longer increases s."""
    lags = np.arange(1, len(v) + 1)
    s, new = -1.0, 0.0
    while new > s:
        s = new
        terms = v * np.exp(-s * lags)
        total = terms.sum()
        new = s + math.log(total) * total / float(np.dot(lags, terms))
    return s


def _renewal_series(v: np.ndarray, b: np.ndarray):
    """(c, s) for c_k = b_k + sum_{m=1}^{k} v_m c_{k-m}, k < len(b), with
    v = (v_1, v_2, ...).  s is the per-step log growth, the root of
    sum_m v_m e^(-s m) = 1 over the v_m used (None when their sum is <= 1).

    The Toeplitz system is solved in O(n log n) by a Newton-doubling inverse
    of 1 - v(z) and one FFT product (Hairer, Lubich & Schlichte, 1985), for
    c_k e^(-s k): FFT rounding is relative to the largest term, and the
    tilted series stays bounded.  BlowupError names the first k whose
    untilted c_k would pass 1e300, which leaves Richardson's 4 f2 - f1 finite.
    """
    n = len(b)
    v = np.asarray(v[:n - 1], dtype=float)
    s = _growth_root(v) if v.sum() > 1.0 else None
    tilt = np.exp(-(s or 0.0) * np.arange(n))
    a = np.concatenate(([1.0], -v * tilt[1:]))
    c = _fft_product(_series_inverse(a), b * tilt, n)
    over = np.nonzero(~(np.abs(c) <= 1e300 * tilt))[0]
    if len(over):
        raise BlowupError(step=int(over[0]), cell=0, value=math.inf)
    return c / tilt, s


def _volterra_trapezoid(wv: np.ndarray, c3: float, c4: float, dt: float):
    """(f, beta) of the trapezoid rule on t_i = i dt: f_0 = c3 and
        denom f_i = c3 (1 + c4 dt w_i / 2) + c4 dt sum_{j=1}^{i-1} w_{i-j} f_j,
    denom = 1 - c4 dt w_0 / 2 > 0 (renewal_solve checks it), solved as the
    renewal series of f_1, f_2, ...; beta = s / dt is its growth rate."""
    denom = 1.0 - c4 * dt * 0.5 * wv[0]
    v = c4 * dt * wv[1:] / denom
    c, s = _renewal_series(v, c3 / denom + 0.5 * c3 * v)
    return np.concatenate(([c3], c)), None if s is None else s / dt


def renewal_solve(rp: RenewalProblem) -> RenewalSolution:
    """Trapezoid-rule solution of f = c3 + c4 (w * f), sharpened by one
    Richardson extrapolation level against the dt/2 grid (the plain rule
    alone leaves O(dt^2) residue above the 1e-6 target on growing solutions).

    Each grid is one _renewal_series solve tilted by its own growth root.
    beta1 is the base grid's trapezoid root, which tends to the root of
    c4 int e^(-beta1 t) w dt = 1 as dt -> 0, and beta1_half the dt/2
    grid's, so a Richardson pair whose roots disagree shows; the renewal limit
    e^(-beta1 t) f(t) is reported against its closed expression.  A
    solution that would overflow raises BlowupError instead.
    """
    t1 = rp.grid(1)
    wv = rp.weight_values(t1)
    # the base grid's denominator is the smaller of the two
    require(rp.c4 * rp.dt * 0.5 * wv[0] < 1.0, "dt", rp.dt,
            "(0, 2 / (c4 w(0))); step too large otherwise")
    f1, beta1 = _volterra_trapezoid(wv, rp.c3, rp.c4, rp.dt)
    f2, beta1_half = _volterra_trapezoid(rp.weight_values(rp.grid(2)),
                                         rp.c3, rp.c4, rp.dt / 2.0)
    f = (4.0 * f2[::2] - f1) / 3.0
    limit_lhs = limit_rhs = None
    if beta1 is not None:
        limit_lhs = float(math.exp(-beta1 * rp.horizon) * f[-1])
        denom = beta1 * rp.c4 * float(
            np.trapezoid(t1 * np.exp(-beta1 * t1) * wv, t1))
        limit_rhs = rp.c3 / denom if denom > 0 else None
    return RenewalSolution(t=t1, f=f, beta1=beta1, beta1_half=beta1_half,
                           limit_lhs=limit_lhs, limit_rhs=limit_rhs)
