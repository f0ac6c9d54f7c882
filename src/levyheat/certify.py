"""Grid certificates for the kernel identities and inequalities.

Each check produces a LemmaRecord with a slack figure: for an inequality
LHS >= RHS the slack is min(LHS/RHS) over the grid (pass when >= 1); for an
identity the slack is tolerance / max|relative error| (pass when >= 1, i.e.
the error is below tolerance).  `verify_lemmas` bundles the whole suite into
a JSON-serializable report; the CLI exits nonzero if any record fails.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError
from . import kernel as K
from .specfun import beta_fn, gamma_fn


@dataclass
class LemmaRecord:
    lemma_id: str
    status: str          # "pass" | "fail"
    worst_slack: float
    tolerance: float
    grid: str
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    d: int
    alpha: float
    p: float
    records: list

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "alpha": self.alpha,
            "p": self.p,
            "all_pass": self.all_pass,
            "records": [asdict(r) for r in self.records],
        }


def _ineq_record(lemma_id, slacks, grid_desc, detail=None) -> LemmaRecord:
    worst = float(min(slacks))
    # equality cases of the bounds land at slack 1 up to rounding
    passed = worst >= 1.0 - 1e-9
    return LemmaRecord(lemma_id=lemma_id,
                       status="pass" if passed else "fail",
                       worst_slack=worst, tolerance=1.0, grid=grid_desc,
                       detail=detail or {})


def _eq_record(lemma_id, rel_errors, tol, grid_desc, detail=None) -> LemmaRecord:
    worst_err = float(max(rel_errors))
    slack = tol / worst_err if worst_err > 0 else math.inf
    return LemmaRecord(lemma_id=lemma_id,
                       status="pass" if worst_err <= tol else "fail",
                       worst_slack=slack, tolerance=tol, grid=grid_desc,
                       detail=detail or {})


DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def default_x_grid(n: int = 13, x_max: float = 20.0):
    """Default certificate abscissas: origin plus log-spaced radii up to x_max."""
    return [0.0] + list(np.logspace(-1.0, math.log10(x_max), n - 1))


def check_beta_identity() -> LemmaRecord:
    """Quadrature of int_0^1 x^(p-1)(1-x)^(q-1) dx against the Gamma ratio."""
    errs = []
    vals = (0.5, 1.0, 1.5, 2.5)
    for p in vals:
        for q in vals:
            num = K._quad_checked(lambda x: x ** (p - 1) * (1 - x) ** (q - 1),
                                  0.0, 1.0)
            errs.append(abs(num - beta_fn(p, q)) / beta_fn(p, q))
    return _eq_record("beta-identity", errs, 1e-8, f"p,q in {vals}")


def check_g_mass(ck: K.ComparisonKernel, t_grid=DEFAULT_T_GRID) -> LemmaRecord:
    errs = [abs(ck.g_p_numeric(t) - 1.0) for t in t_grid]
    return _eq_record("g-unit-mass", errs, 1e-8, f"t in {tuple(t_grid)}")


def check_q_mass(alphas=(0.8, 1.2, 1.5)) -> LemmaRecord:
    """Numeric mass of q_t against 1; by self-similarity it does not depend
    on t, so one evaluation per alpha covers every time."""
    errs = [abs(K.q_mass_numeric(K.KernelParams(d=1, alpha=a), 1.0) - 1.0)
            for a in alphas]
    return _eq_record("q-unit-mass", errs, 1e-6, f"alpha in {tuple(alphas)}")


def check_power_law_transform() -> LemmaRecord:
    """Closed Fourier transform of (1+x^2)^(-1) at z=1 equals pi e^(-1)."""
    val = K.fourier_power_transform(1, 1.0, 0.0, 1.0)
    ref = math.pi * math.exp(-1.0)
    return _eq_record("power-law-fourier-transform", [abs(val - ref) / ref],
                      1e-8, "d=1, a=1, mu=0, z=1")


def check_g_fourier_equality(z_grid=(0.25, 0.5, 1.0, 2.0, 4.0)) -> LemmaRecord:
    """For d=1, alpha=1, p=1 the transform of g and its lower bound are e^(-|z|)."""
    ck = K.ComparisonKernel(K.KernelParams(d=1, alpha=1.0))
    errs = []
    for z in z_grid:
        ref = math.exp(-abs(z))
        errs.append(abs(K.g_fourier(ck, 1.0, 1.0, z) - ref) / ref)
        errs.append(abs(K.g_fourier_lower(ck, 1.0, 1.0, z) - ref) / ref)
    return _eq_record("g-fourier-cauchy-equality", errs, 1e-8,
                      f"t=1, z in {tuple(z_grid)}")


def check_g_tensor_split(ck: K.ComparisonKernel, t_grid=DEFAULT_T_GRID,
                         x_grid=None) -> LemmaRecord:
    """g(t, x-y) >= kappa^-1 t^(d/alpha) g(t, sqrt2 x) g(t, sqrt2 y) on grids."""
    x_grid = x_grid if x_grid is not None else default_x_grid()
    d, a = ck.d, ck.alpha
    slacks = []
    rt2 = math.sqrt(2.0)
    for t in t_grid:
        for x in x_grid:
            for y in x_grid:
                for sy in (1.0, -1.0):
                    lhs = ck.g(t, x - sy * y)
                    rhs = (t ** (d / a) / ck.kappa
                           * ck.g(t, rt2 * x) * ck.g(t, rt2 * y))
                    slacks.append(lhs / rhs)
    return _ineq_record("g-tensor-split", slacks,
                        f"t in {tuple(t_grid)}, |x|,|y| <= {max(x_grid):g}")


def check_g_time_monotone(ck: K.ComparisonKernel, t_grid=DEFAULT_T_GRID,
                          x_grid=None) -> LemmaRecord:
    """s^(d/alpha) g(s,x) >= t^(d/alpha)/2^(1+d/alpha) g(t,x) for t/2 <= s <= t."""
    x_grid = x_grid if x_grid is not None else default_x_grid()
    d, a = ck.d, ck.alpha
    slacks = []
    for t in t_grid:
        for frac in (0.5, 0.6, 0.75, 0.9, 1.0):
            s = frac * t
            for x in x_grid:
                lhs = s ** (d / a) * ck.g(s, x)
                rhs = t ** (d / a) / 2.0 ** (1.0 + d / a) * ck.g(t, x)
                slacks.append(lhs / rhs)
    return _ineq_record("g-time-comparison", slacks,
                        f"t in {tuple(t_grid)}, s/t in [0.5, 1]")


def check_space_conv(ck: K.ComparisonKernel, p: float, t_grid=(0.5, 1.0, 2.0),
                     s_fracs=(0.2, 0.4, 0.8), x_grid=None) -> LemmaRecord:
    """Space-convolution lower bound at every grid point:

        (g(t-s,.)^p * g(s,.)^p)(x)
            >= gamma_{d,alpha}^(p) (t-s)^(d/alpha) / (s^((p-1)d/alpha) t^(d/alpha))
               g(t-s, x)^p,

    with the left side by quadrature and slack = LHS / RHS.
    """
    d, a = ck.d, ck.alpha
    if not (d / (d + a) < p < 1.0 + a / d):
        raise DomainError("requires p in (d/(d+alpha), 1+alpha/d)")
    x_grid = x_grid if x_grid is not None else default_x_grid(9, 10.0)
    gam = K.gamma_conv_constant(d, a, p)
    slacks = []
    for t in t_grid:
        for frac in s_fracs:
            s = frac * t
            for x in x_grid:
                lhs = K.space_conv_gp(ck, p, t, s, x)
                rhs = (gam * (t - s) ** (d / a)
                       / (s ** ((p - 1.0) * d / a) * t ** (d / a))
                       * ck.g(t - s, x) ** p)
                slacks.append(lhs / rhs)
    return _ineq_record("g-space-convolution", slacks,
                        f"p={p}, t in {tuple(t_grid)}, s/t in {tuple(s_fracs)}")


def _timespace_record(lemma_id, ck, p, lhs, const, kernel, t_grid,
                      x_grid) -> LemmaRecord:
    """Time-space self-convolution lhs(ck, p, t, x) against the bound
    const Gamma(a) / Gamma(2a) t^a kernel(t, x), a = 1 - (p-1) d / alpha."""
    a_ml = 1.0 - (p - 1.0) * ck.d / ck.alpha
    scale = const * gamma_fn(a_ml) / gamma_fn(2.0 * a_ml)
    slacks = [lhs(ck, p, t, x) / (scale * t ** a_ml * kernel(t, x))
              for t in t_grid for x in x_grid]
    return _ineq_record(lemma_id, slacks,
                        f"p={p}, t in {tuple(t_grid)}, x in {tuple(x_grid)}")


def check_timespace_conv(ck: K.ComparisonKernel, p: float,
                         t_grid=(0.5, 2.0), x_grid=(0.0, 1.0, 5.0)) -> LemmaRecord:
    """Single time-space self-convolution of g^p against the Lambda bound."""
    return _timespace_record(
        "g-timespace-convolution", ck, p, K.timespace_conv_gp,
        K.conv_constants(ck.d, ck.alpha, p).lambda_p,
        lambda t, x: ck.g(t, x) ** p, t_grid, x_grid)


def check_timespace_conv_ratio(ck: K.ComparisonKernel, p: float,
                               t_grid=(0.5, 2.0), x_grid=(0.0, 1.0, 5.0)) -> LemmaRecord:
    """Time-space self-convolution of g^(p+1)/g(.,0) against the Theta bound."""
    return _timespace_record(
        "gratio-timespace-convolution", ck, p, K.timespace_conv_gratio,
        K.conv_constants(ck.d, ck.alpha, p).theta_p,
        lambda t, x: ck.g(t, x) ** (p + 1.0) / ck.g(t, 0.0), t_grid, x_grid)


def check_g_p_integral(ck: K.ComparisonKernel, p_grid=(1.4, 2.0),
                       t_grid=(0.5, 2.0)) -> LemmaRecord:
    """Quadrature of int g(t,y)^p dy against the Gamma-ratio closed form."""
    errs = []
    for p in p_grid:
        for t in t_grid:
            closed = K.g_p_integral(ck, t, p)
            errs.append(abs(ck.g_p_numeric(t, p) - closed) / closed)
    return _eq_record("g-power-integral", errs, 1e-6,
                      f"p in {tuple(p_grid)}, t in {tuple(t_grid)}")


def check_h_moment(alphas=(1.0, 1.5), p_grid=(0.0, 0.5, 1.0),
                   eps_grid=(0.25, 1.0, 4.0)) -> LemmaRecord:
    """Level-set moments of the min-form kernel: quadrature vs closed form."""
    errs = []
    for a in alphas:
        kp = K.KernelParams(d=1, alpha=a)
        for p in p_grid:
            for eps in eps_grid:
                closed, quad_val = K.h_moment(kp, eps, p)
                errs.append(abs(quad_val - closed) / closed)
    return _eq_record("minform-levelset-moment", errs, 1e-4,
                      f"alpha in {tuple(alphas)}, p in {tuple(p_grid)}, "
                      f"eps in {tuple(eps_grid)}")


def check_sandwich(kp: K.KernelParams, t_grid=(0.5, 1.0, 2.0),
                   x_grid=None) -> LemmaRecord:
    """Empirical envelope ratios q/minform and q/g: finite and positive.

    The extrema over the grid are empirical envelope constants, not proven
    bounds; the slack is the smaller of the two minima.
    """
    x_grid = list(x_grid if x_grid is not None else default_x_grid())
    t_grid = tuple(t_grid)
    if not t_grid or not x_grid:
        raise DomainError("sandwich check needs a nonempty grid")
    ck = K.ComparisonKernel(kp)
    ratios_m, ratios_g = [], []
    for t in t_grid:
        for x in x_grid:
            q = K.q_density(kp, t, x)
            ratios_m.append(q / K.minform_kernel(kp, t, x))
            ratios_g.append(q / ck.g(t, x))
    c = {"c1_minform": min(ratios_m), "c2_minform": max(ratios_m),
         "c1_g": min(ratios_g), "c2_g": max(ratios_g)}
    valid = all(math.isfinite(v) and v > 0.0 for v in c.values())
    return LemmaRecord(
        lemma_id="kernel-envelope-sandwich",
        status="pass" if valid else "fail",
        worst_slack=float(min(c["c1_minform"], c["c1_g"]) if valid else 0.0),
        tolerance=0.0, grid=f"t in {t_grid}, {len(ratios_m)} points",
        detail=c)


def check_tail_ratio(kp: K.KernelParams, radii=(50.0, 100.0, 200.0)) -> LemmaRecord:
    """q_t(x) |x|^(d+alpha) / t approaches the tail constant as |x| grows."""
    if kp.d != 1:
        raise DomainError("tail-ratio check implemented for d = 1 only")
    cref = K.tail_coefficient(kp.alpha, 1)
    ratios = [K.q_density(kp, 1.0, r) * r ** (1.0 + kp.alpha) for r in radii]
    err_last = abs(ratios[-1] / cref - 1.0)
    gaps = [abs(r / cref - 1.0) for r in ratios]
    converging = all(g2 < g1 for g1, g2 in zip(gaps[:-1], gaps[1:]))
    ok = converging and err_last < 0.02
    return LemmaRecord(
        lemma_id="kernel-tail-constant",
        status="pass" if ok else "fail",
        worst_slack=0.02 / err_last if err_last > 0 else math.inf,
        tolerance=0.02, grid=f"|x| in {tuple(radii)}, t=1",
        detail={"ratios": ratios, "limit_constant": cref})


def verify_lemmas(d: int = 1, alpha: float = 1.5, p: float = 1.2,
                  fast: bool = False) -> VerificationReport:
    """Run the whole certificate suite for one (d, alpha, p); `fast` keeps
    the first two times and five abscissas."""
    if d != 1:
        raise DomainError("the certificate suite runs in d = 1")
    kp = K.KernelParams(d=d, alpha=alpha)
    ck = K.ComparisonKernel(kp)
    x_grid = default_x_grid(5 if fast else 13)
    t_grid = DEFAULT_T_GRID[:2] if fast else DEFAULT_T_GRID
    records = [
        check_beta_identity(),
        check_g_mass(ck, t_grid),
        check_q_mass((alpha,) if fast else (0.8, 1.2, 1.5)),
        check_power_law_transform(),
        check_g_fourier_equality(),
        check_g_tensor_split(ck, t_grid, x_grid),
        check_g_time_monotone(ck, t_grid, x_grid),
        check_space_conv(ck, p, t_grid, x_grid=x_grid[:7]),
        check_timespace_conv(ck, p),
        check_timespace_conv_ratio(ck, p),
        check_g_p_integral(ck),
        check_h_moment((alpha,) if fast else (1.0, 1.5)),
        check_sandwich(kp, t_grid, x_grid),
        check_tail_ratio(kp),
    ]
    return VerificationReport(d=d, alpha=alpha, p=p, records=records)
