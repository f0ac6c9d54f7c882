"""Analytic bounds for the Levy-noise fractional heat equation.

Covers the weighted-norm contraction constant and the threshold beta0 it
defines, the Lyapunov / growth-index upper bounds p*beta0 and beta0/c, the
exponential and subexponential lower-bound figures, the renewal weight
w_p^(eps), and a discrete Volterra renewal-equation solver.

The proofs behind the lower bounds involve constants that are not written
in closed form (martingale maximal inequalities and the compensated-Poisson
lower bound).  Those enter here as a ConstantsConfig with default value 1,
and every report echoes the configured values in its `assumptions` list so
downstream consumers cannot mistake the output for sharp constants.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateMeasureError, DomainError, NoRootError
from .kernel import (ConvConstants, I_formula, KernelParams, conv_constants,
                     hmoment_constant, levelset_volume_minform,
                     minform_level_integral)
from .noise import LevyMeasureSpec, drift_b

# ---------------------------------------------------------------------------
# model description


@dataclass(frozen=True)
class SigmaSpec:
    """Multiplicative coefficient descriptor with Lipschitz data.

    lip  is the global Lipschitz constant L_sigma;
    lip0 is inf_{w != 0} |sigma(w)| / |w|, the non-degeneracy constant.
    Both are derived for the linear/affine kinds and must be supplied for
    tabulated coefficients.
    """

    kind: str = "linear"          # "linear" | "affine" | "table"
    slope: float = 1.0
    intercept: float = 0.0
    table_x: tuple = ()
    table_y: tuple = ()
    lip: float | None = None
    lip0: float | None = None

    def __post_init__(self):
        if self.kind == "linear":
            object.__setattr__(self, "lip", abs(self.slope))
            object.__setattr__(self, "lip0", abs(self.slope))
        elif self.kind == "affine":
            object.__setattr__(self, "lip", abs(self.slope))
            lip0 = abs(self.slope) if self.intercept == 0.0 else 0.0
            object.__setattr__(self, "lip0", lip0)
        elif self.kind == "table":
            if self.lip is None or self.lip0 is None:
                raise DomainError("table sigma requires explicit lip and lip0")
            if len(self.table_x) != len(self.table_y) or len(self.table_x) < 2:
                raise DomainError("table sigma needs matching x/y samples")
        else:
            raise DomainError(f"unknown sigma kind {self.kind!r}")
        if self.lip < self.lip0:
            raise DomainError("L_sigma must dominate L_sigma,0")

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
    """Initial condition: positive constant or polynomial decay C0 (1+|x|)^-c."""

    kind: str = "constant"        # "constant" | "poly_decay"
    value: float = 1.0
    c0: float = 1.0
    decay_c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "poly_decay"):
            raise DomainError(f"unknown u0 kind {self.kind!r}")
        if self.kind == "poly_decay" and self.decay_c < 0.0:
            raise DomainError("decay exponent must be >= 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value)
        return self.c0 * (1.0 + np.abs(x)) ** (-self.decay_c)


@dataclass(frozen=True)
class ConstantsConfig:
    """Non-explicit proof constants, all defaulting to 1.

    k1: Gaussian maximal-inequality constant (continuous martingale part)
    k2: drift-term constant
    k3: compensated-Poisson p-th moment constant
    k4: mixed quadratic-variation constant (p >= 2 route)
    k5: moment lower-bound prefactor in the intermittency route
    c1_g, c2_g: kernel comparison envelope q ~ g
    """

    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    k4: float = 1.0
    k5: float = 1.0
    c1_g: float = 1.0
    c2_g: float = 1.0

    def assumptions(self) -> list:
        return [f"{name}={getattr(self, name):g} (configured, not derived)"
                for name in ("k1", "k2", "k3", "k4", "k5", "c1_g", "c2_g")]


@dataclass(frozen=True)
class ModelSpec:
    """Full model instance: kernel, Gaussian weight, jump measure, sigma, u0."""

    kp: KernelParams = field(default_factory=KernelParams)
    rho: float = 0.0
    levy: LevyMeasureSpec = field(default_factory=LevyMeasureSpec)
    sigma: SigmaSpec = field(default_factory=SigmaSpec)
    u0: U0Spec = field(default_factory=U0Spec)

    def __post_init__(self):
        if self.rho < 0.0:
            raise DomainError("rho must be >= 0")
        if self.rho > 0.0 and self.kp.d >= self.kp.alpha:
            raise DomainError("the Gaussian part requires d < alpha; set rho = 0")
        if (self.u0.kind == "poly_decay" and self.u0.decay_c > 0.0
                and not (self.u0.decay_c < self.kp.alpha)):
            raise DomainError("polynomial decay exponent must lie in [0, alpha)")

    @property
    def b(self) -> float:
        return drift_b(self.levy)


def admissible_p_range(kp: KernelParams):
    """Moment orders with finite jump moments: the interval [1, 1 + alpha/d)."""
    return (1.0, 1.0 + kp.alpha / kp.d)


# ---------------------------------------------------------------------------
# contraction constant and beta0


def contraction_constant(ms: ModelSpec, beta: float, c: float, p: float,
                         constants: ConstantsConfig | None = None) -> float:
    """Computable majorant of the weighted-norm contraction factor.

    Assembled term by term from the fixed-point estimate:
        rho k1 I(beta,c,2)^(1/2) + |b| k2 I(beta,c,1)
        + (int |z|^p lambda)^(1/p) k3 I(beta,c,p)^(1/p)
        + [p >= 2]  k4 (int z^2 lambda)^(1/2) I(beta,c,2)^(1/2).
    Strictly decreasing in beta, -> 0 as beta -> infinity.
    """
    cfg = constants or ConstantsConfig()
    d, alpha = ms.kp.d, ms.kp.alpha
    if not (1.0 <= p < 1.0 + alpha / d):
        raise DomainError(f"p must lie in [1, 1 + alpha/d), got {p}")
    if not (0.0 <= c < alpha):
        raise DomainError(f"c must lie in [0, alpha), got {c}")
    if p < 2.0 and ms.rho != 0.0:
        raise DomainError("the Gaussian part requires p >= 2; set rho = 0")
    total = 0.0
    if ms.rho > 0.0:
        total += ms.rho * cfg.k1 * math.sqrt(I_formula(ms.kp, beta, c, 2.0))
    b = ms.b
    if b != 0.0:
        total += abs(b) * cfg.k2 * I_formula(ms.kp, beta, c, 1.0)
    sig_p = ms.levy.moment(p)
    if sig_p == 0.0:
        raise DegenerateMeasureError("jump measure has no p-th moment mass")
    total += sig_p ** (1.0 / p) * cfg.k3 * I_formula(ms.kp, beta, c, p) ** (1.0 / p)
    if p >= 2.0:
        sig_2 = ms.levy.moment(2.0)
        total += cfg.k4 * math.sqrt(sig_2) * math.sqrt(I_formula(ms.kp, beta, c, 2.0))
    return total


BETA_BRACKET = (1e-6, 1e12)


def beta0(ms: ModelSpec, c: float, p: float,
          constants: ConstantsConfig | None = None,
          bracket=BETA_BRACKET, rtol: float = 1e-10) -> float:
    """Smallest beta with L_sigma * contraction_constant(beta) <= 1/2.

    Bisection on the monotone majorant; raises NoRootError if the threshold
    is not reached at the bracket ceiling (mis-configured jump measure).
    """
    lip = ms.sigma.lip
    if lip is None or lip <= 0.0:
        raise DomainError("beta0 requires L_sigma > 0")

    def excess(beta):
        return lip * contraction_constant(ms, beta, c, p, constants) - 0.5

    lo, hi = bracket
    if excess(hi) > 0.0:
        raise NoRootError(
            f"contraction constant stays above 1/(2 L_sigma) up to beta = {hi:g}")
    if excess(lo) <= 0.0:
        return lo
    while hi - lo > rtol * hi:
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
    constants: ConvConstants | None = None
    assumptions: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "p": self.p, "c": self.c, "beta0": self.beta0,
            "lyap_upper": self.lyap_upper, "growth_upper": self.growth_upper,
            "growth_lower_exp": self.growth_lower_exp,
            "subexp_rate": self.subexp_rate, "eta_star": self.eta_star,
            "assumptions": list(self.assumptions),
        }
        if self.constants is not None:
            out["conv_constants"] = asdict(self.constants)
        return out


def upper_bounds(ms: ModelSpec, c: float, p: float,
                 constants: ConstantsConfig | None = None,
                 beta0_value: float | None = None) -> BoundsReport:
    """Lyapunov upper bound p*beta0 and growth-index upper bound beta0/c.

    The growth bound needs sigma(0) = 0 and polynomial decay with exponent
    c in (0, alpha); it is omitted (None) when only the Lyapunov hypothesis
    holds, and requesting it with decay_c = 0 is an error.
    """
    cfg = constants or ConstantsConfig()
    b0 = beta0_value if beta0_value is not None else beta0(ms, c, p, cfg)
    rep = BoundsReport(p=p, c=c, beta0=b0, lyap_upper=p * b0,
                       assumptions=cfg.assumptions())
    if c > 0.0:
        if ms.sigma.at_zero != 0.0:
            raise DomainError("growth-index upper bound requires sigma(0) = 0")
        if not (0.0 < c < ms.kp.alpha):
            raise DomainError("growth-index upper bound requires c in (0, alpha)")
        if not (ms.u0.kind == "poly_decay" and 0.0 < c <= ms.u0.decay_c):
            raise DomainError(
                "growth-index upper bound requires polynomial initial decay "
                "with exponent at least c (sup (1+|y|)^c |u0(y)| < infinity)")
        rep.growth_upper = b0 / c
    return rep


def lower_bound_exponential(ms: ModelSpec, p: float,
                            constants: ConstantsConfig | None = None) -> float:
    """Exponential growth-index lower bound, valid for alpha > d = 1, b = 0,
    L_sigma,0 > 0 and p in [2, 1 + alpha/d):

        (c** Lambda^(p))^(1/(1-(p-1)d/alpha)) / (p (d + alpha)),
        c** = k5 sigma_lambda^(p) L_{sigma,0}^p c1_g^p / 4.
    """
    cfg = constants or ConstantsConfig()
    d, alpha = ms.kp.d, ms.kp.alpha
    if not (alpha > d == 1):
        raise DomainError("exponential lower bound requires alpha > d = 1")
    if ms.b != 0.0:
        raise DomainError("exponential lower bound requires drift b = 0")
    if not (ms.sigma.lip0 and ms.sigma.lip0 > 0.0):
        raise DomainError("exponential lower bound requires L_sigma,0 > 0")
    if not (2.0 <= p < 1.0 + alpha / d):
        raise DomainError(f"p must lie in [2, 1 + alpha/d), got {p}")
    cc = conv_constants(d, alpha, p)
    c_star = cfg.k5 * ms.levy.moment(p) * ms.sigma.lip0 ** p
    c_dstar = c_star * cfg.c1_g ** p / 4.0
    expo = 1.0 / (1.0 - (p - 1.0) * d / alpha)
    return (c_dstar * cc.lambda_p) ** expo / (p * (d + alpha))


def subexp_rate(kp: KernelParams, p: float, ms: ModelSpec | None = None,
                constants: ConstantsConfig | None = None):
    """Subexponential growth radius exponent and threshold.

    r_star = p (1 - d/alpha) / (2 (1 - (p-1) d/alpha)) for p in (1, 2);
    eta_star = (c** Theta^(p))^(1/(1-(p-1)d/alpha)) / ((p+1)(d+alpha)) with
    c** = k5 sigma_lambda^(p) L_{sigma,0}^p c1_g^(p+1) / (4 c2_g); eta_star
    is None when no model is supplied.  Both carry the configured-constants
    caveat.
    """
    d, alpha = kp.d, kp.alpha
    if not (alpha > d == 1):
        raise DomainError("subexponential bound requires alpha > d = 1")
    if not (1.0 < p < 2.0):
        raise DomainError(f"p must lie in (1, 2), got {p}")
    a_ml = 1.0 - (p - 1.0) * d / alpha
    r_star = p * (1.0 - d / alpha) / (2.0 * a_ml)
    eta_star = None
    if ms is not None:
        cfg = constants or ConstantsConfig()
        if not (ms.sigma.lip0 and ms.sigma.lip0 > 0.0):
            raise DomainError("eta_star requires L_sigma,0 > 0")
        cc = conv_constants(d, alpha, p)
        c_star = cfg.k5 * ms.levy.moment(p) * ms.sigma.lip0 ** p
        c_dstar = c_star * cfg.c1_g ** (p + 1.0) / (4.0 * cfg.c2_g)
        eta_star = ((c_dstar * cc.theta_p) ** (1.0 / a_ml)
                    / ((p + 1.0) * (d + alpha)))
    return r_star, eta_star


def compute_bounds(ms: ModelSpec, c: float, p: float,
                   constants: ConstantsConfig | None = None) -> BoundsReport:
    """Full BoundsReport: beta0 and upper bounds always; lower-bound figures
    whenever their hypotheses hold (omitted as None otherwise)."""
    cfg = constants or ConstantsConfig()
    rep = upper_bounds(ms, c, p, cfg)
    d, alpha = ms.kp.d, ms.kp.alpha
    if d / (d + alpha) < p:
        rep.constants = conv_constants(d, alpha, p)
    if (alpha > d == 1 and ms.b == 0.0 and ms.sigma.lip0
            and ms.sigma.lip0 > 0.0):
        if 2.0 <= p < 1.0 + alpha / d:
            rep.growth_lower_exp = lower_bound_exponential(ms, p, cfg)
        if 1.0 < p < 2.0:
            rep.subexp_rate, rep.eta_star = subexp_rate(ms.kp, p, ms, cfg)
        elif p == 2.0:
            rep.subexp_rate = 1.0   # the subexponential radius becomes linear
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
                   eps: float, delta: float,
                   t_grid: np.ndarray | None = None) -> WeightTable:
    """Renewal weight: jump-moment prefactor times the kernel level-set moment.

        w(t) = int_{|z|>delta} |z|^p lambda
               / max(1, lambda([-d,d]^c) * V_eps)^(1-p/2)
               * int h(t,y)^p 1{h(t,y) > eps} dy,

    computed on the exactly integrable min-form kernel h (the same envelope
    substitution the comparison estimates rest on); V_eps is the space-time
    level-set volume of h.  Returns the table plus the exact integral.
    """
    d, alpha = kp.d, kp.alpha
    if not (1.0 < p < 1.0 + alpha / d):
        raise DomainError(f"p must lie in (1, 1 + alpha/d), got {p}")
    if eps <= 0.0 or delta < 0.0:
        raise DomainError("requires eps > 0 and delta >= 0")
    mass = levy.mass_above(delta)
    if mass <= 0.0:
        raise DegenerateMeasureError(
            f"lambda carries no mass above delta = {delta}")
    volume = levelset_volume_minform(d, alpha, eps)
    prefactor = (levy.moment_above(p, delta)
                 / max(1.0, mass * volume) ** (1.0 - p / 2.0))
    if t_grid is None:
        t_max = eps ** (-alpha / d)
        t_grid = np.linspace(0.0, 1.05 * t_max, 2001)
    t_grid = np.asarray(t_grid, dtype=float)
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

    `weight` must be callable (evaluated at both the base and the refined
    grid) or an array tabulated on the base grid (then refined by linear
    interpolation for the Richardson pass).
    """

    c3: float
    c4: float
    horizon: float
    dt: float
    weight: object

    def __post_init__(self):
        if self.c3 <= 0.0 or self.c4 < 0.0:
            raise DomainError("requires c3 > 0 and c4 >= 0")
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise DomainError("requires dt > 0 and horizon > 0")
        n = self.horizon / self.dt
        if abs(n - round(n)) > 1e-9:
            raise DomainError("horizon must be an integral number of steps")

    def grid(self, refine: int = 1) -> np.ndarray:
        n = int(round(self.horizon / self.dt)) * refine
        return np.arange(n + 1) * (self.dt / refine)

    def weight_values(self, t: np.ndarray) -> np.ndarray:
        if callable(self.weight):
            return np.asarray(self.weight(t), dtype=float)
        base = self.grid(1)
        return np.interp(t, base, np.asarray(self.weight, dtype=float))


@dataclass
class RenewalSolution:
    t: np.ndarray
    f: np.ndarray
    beta1: float | None
    limit_lhs: float | None      # e^(-beta1 T) f(T)
    limit_rhs: float | None      # c3 / (beta1 c4 int t e^(-beta1 t) w dt)


def _volterra_trapezoid(wv: np.ndarray, c3: float, c4: float, dt: float) -> np.ndarray:
    n = len(wv) - 1
    f = np.empty(n + 1)
    f[0] = c3
    denom = 1.0 - c4 * dt * 0.5 * wv[0]
    if denom <= 0.0:
        raise DomainError("step too large: c4 dt w(0) / 2 >= 1")
    for i in range(1, n + 1):
        conv = 0.5 * wv[i] * f[0] + float(np.dot(wv[i - 1:0:-1], f[1:i]))
        f[i] = (c3 + c4 * dt * conv) / denom
    return f


def _laplace_grid(t: np.ndarray, w: np.ndarray, beta: float,
                  moment: int = 0) -> float:
    return float(np.trapezoid(t ** moment * np.exp(-beta * t) * w, t))


def renewal_solve(rp: RenewalProblem) -> RenewalSolution:
    """Forward time-stepping with trapezoidal convolution, sharpened by one
    Richardson extrapolation level (the plain rule alone leaves O(dt^2)
    residue above the 1e-6 target on growing solutions).

    beta1 solves c4 int e^(-beta1 t) w dt = 1 when c4 int w > 1 (bisection);
    the solution's renewal limit e^(-beta1 t) f(t) is reported against its
    closed expression.
    """
    t1 = rp.grid(1)
    f1 = _volterra_trapezoid(rp.weight_values(t1), rp.c3, rp.c4, rp.dt)
    t2 = rp.grid(2)
    f2 = _volterra_trapezoid(rp.weight_values(t2), rp.c3, rp.c4, rp.dt / 2.0)[::2]
    f = (4.0 * f2 - f1) / 3.0

    wv = rp.weight_values(t1)
    beta1 = None
    limit_lhs = limit_rhs = None
    if rp.c4 * _laplace_grid(t1, wv, 0.0) > 1.0:
        lo, hi = 0.0, 1.0
        while rp.c4 * _laplace_grid(t1, wv, hi) > 1.0:
            hi *= 2.0
            if hi > 1e12:
                raise NoRootError("beta1 bisection exceeded ceiling")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if rp.c4 * _laplace_grid(t1, wv, mid) > 1.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * max(hi, 1.0):
                break
        beta1 = 0.5 * (lo + hi)
        limit_lhs = float(math.exp(-beta1 * rp.horizon) * f[-1])
        denom = beta1 * rp.c4 * _laplace_grid(t1, wv, beta1, moment=1)
        limit_rhs = rp.c3 / denom if denom > 0 else None
    return RenewalSolution(t=t1, f=f, beta1=beta1,
                           limit_lhs=limit_lhs, limit_rhs=limit_rhs)
