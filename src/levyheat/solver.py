"""Mild-solution stepper on a 1-d periodic grid, plus a Picard fixed-point mode.

The scheme is a semigroup Euler step: advance the field through the
one-step heat semigroup (midpoint values q_dt(m dx) dx of the kernel plus
its periodic images, renormalised and applied by circular convolution), and
inject the cell-lumped noise through the same one-step kernel with sigma
evaluated at the left time point (the predictable choice).  The midpoint
values are the unit profile's exact values at the cell radii
(`StableProfile.values`: one numpy array call for the 8 nonzero radii of
the reference grid), and the periodic images are a Hurwitz zeta summed
in numpy (`_hurwitz_zeta`), so a kernel build loads no scipy module.  A
kernel is built once per (alpha, n_x, L, dt) and shared read-only.  The
torus substitution keeps kernel mass exactly 1, so conservation is
testable; the wrap-around bias is measured by `DiscreteKernel.image_mass`,
which `simulate.json` records.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .analytics import ModelSpec
from .errors import BlowupError, is_count, require
from .kernel import get_profile, tail_coefficient
from .noise import cell_base, sample_jumps

BLOWUP_GUARD = 1e12
# the image series: terms summed directly, then the Euler-Maclaurin
# coefficients B_2j / (2j)!, j = 1..6, of its remainder
_ZETA_TERMS = 12
_ZETA_EM = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
            1.0 / 47900160.0, -691.0 / 1307674368000.0)


@dataclass(frozen=True)
class GridSpec:
    """Periodic domain [-L, L) with n_x nodes; time horizon T with n_t steps."""

    half_width: float = 32.0
    n_x: int = 256
    horizon: float = 5.0
    n_t: int = 500

    def __post_init__(self):
        for name in ("half_width", "horizon"):
            value = getattr(self, name)
            require(0.0 < value < math.inf, name, value, "(0, inf)")
        require(is_count(self.n_x, 2) and not self.n_x & (self.n_x - 1),
                "n_x", self.n_x, "the powers of two at least 2")
        require(is_count(self.n_t, 1), "n_t", self.n_t,
                "the integers at least 1")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_x

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t

    @property
    def x(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.n_x)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_t + 1)

    def containment_ok(self, alpha: float) -> bool:
        """Heavy-tail containment heuristic L >= 4 T^(1/alpha)."""
        return self.half_width >= 4.0 * self.horizon ** (1.0 / alpha)

    def noise_grid(self, seed: int, replica: int) -> np.random.Generator:
        """The noise stream of one replica: Philox keyed by (seed, replica)."""
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                        replica & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class DiscreteKernel:
    """Midpoint-valued, image-wrapped one-step kernel; weights sum to 1 exactly.
    One instance serves every caller with the same arguments, so it is
    frozen and its arrays are read-only."""

    weights: np.ndarray
    image_mass: float            # wrap-around diagnostic: mass from |y| > L
    base_weights: np.ndarray = field(repr=False)   # pre-wrap masses
    spectrum: np.ndarray = field(repr=False)       # rfft of the weights


def build_discrete_kernel(kp, grid: GridSpec, dt: float) -> DiscreteKernel:
    """Midpoint cell masses q_dt(m dx) dx plus wrapped periodic images.

    The unit profile is evaluated exactly at the cell radii
    r = |m| dx dt^(-1/alpha) themselves by `StableProfile.values`, numpy
    only: the centre value at r = 0 and one array call of the checked ray
    rule on the distinct radii in (0, `kernel.TAIL_START`], at most
    min(n_x/2 + 1, floor(TAIL_START dt^(1/alpha) / dx) + 1) radii in all
    (9 on the reference grid, only r = 0 there at alpha <= 0.8).

    The images at y + 2Lk, k != 0, are taken through the first power-tail
    term dt c1 |y + 2Lk|^(-1-alpha) dx; summed over every k >= 1 on both
    sides that is, exactly,

        dt c1 dx (2L)^(-1-alpha) [zeta(1+alpha, 1 + y/2L) + zeta(1+alpha, 1 - y/2L)]

    with zeta(s, a) = sum_{k>=0} (a + k)^(-s) the Hurwitz zeta function
    (both second arguments >= 1/2 for |y| <= L), summed in numpy by
    `_hurwitz_zeta` within 2e-15 relative of `scipy.special.zeta`.  Both
    terms are non-negative (the profile values are clipped at 0 and
    c1 > 0), and the result is normalized to unit sum (exactly).

    The kernel is built once per (alpha, n_x, L, dt) and cached: equal
    arguments return the same frozen object, whose arrays are read-only.
    """
    require(0.0 < dt < math.inf, "dt", dt, "(0, inf)")
    require(kp.d == 1, "d", kp.d, "{1}")
    return _kernel(kp.alpha, grid.n_x, grid.half_width, dt)


def _hurwitz_zeta(s: float, a: np.ndarray) -> np.ndarray:
    """zeta(s, a) = sum_{k>=0} (a + k)^(-s) for 1 < s < 3 and a in [1/2, 3/2]:
    _ZETA_TERMS terms summed directly, then the Euler-Maclaurin remainder
    at w = a + _ZETA_TERMS through B_12, the scheme of Cephes `zeta`
    (Moshier 1989).  The first omitted term, B_14/14! (s)_13 w^(-s-13),
    is below 2e-17 of the sum there."""
    total = sum((a + k) ** -s for k in range(_ZETA_TERMS))
    w = a + _ZETA_TERMS
    fw = w ** -s
    total = total + w * fw / (s - 1.0) + 0.5 * fw
    rising, deriv = s, fw / w
    for j, coeff in enumerate(_ZETA_EM):
        # coeff (s)_(2j+1) w^(-s-2j-1): B_(2j+2)/(2j+2)! times -f^(2j+1)(w)
        total = total + coeff * rising * deriv
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
        deriv = deriv / (w * w)
    return total


@functools.cache
def _kernel(alpha: float, n: int, L: float, dt: float) -> DiscreteKernel:
    """`build_discrete_kernel` once per argument tuple, arrays read-only."""
    dx = 2.0 * L / n
    offsets = np.arange(n, dtype=float)
    offsets[offsets > n / 2] -= n
    y = offsets * dx
    scale = dt ** (-1.0 / alpha)
    profile = get_profile(alpha).values(y * scale)
    base = scale * profile * dx

    u = y / (2.0 * L)
    image = (dt * tail_coefficient(alpha, 1) * dx * (2.0 * L) ** (-1.0 - alpha)
             * (_hurwitz_zeta(1.0 + alpha, 1.0 + u)
                + _hurwitz_zeta(1.0 + alpha, 1.0 - u)))
    weights = base + image
    total = weights.sum()
    weights /= total
    spectrum = np.fft.rfft(weights)
    for arr in (weights, base, spectrum):
        arr.flags.writeable = False
    return DiscreteKernel(weights=weights, image_mass=float(image.sum() / total),
                          base_weights=base, spectrum=spectrum)


def heat_step(fields: np.ndarray, dk: DiscreteKernel,
              out: np.ndarray | None = None) -> np.ndarray:
    """One deterministic semigroup step: circular convolution with the
    discrete kernel (spectral implementation), written into `out` when it
    is given (it may be `fields` itself) and returned.  Mean-preserving
    since the weights sum to one; nonnegative weights preserve
    nonnegativity."""
    spec = np.fft.rfft(fields, axis=-1)
    spec *= dk.spectrum
    return np.fft.irfft(spec, n=fields.shape[-1], axis=-1, out=out)


def sample_noise(ms: ModelSpec, grid: GridSpec, seed: int, replicas):
    """Cell noise Lambda(cell) of the listed replicas: per step, the jump
    cells plus one dense term that every cell has.

    Replica r draws from its own (seed, r) Philox stream, so its noise does
    not depend on which replicas it is sampled with: its jumps
    (`noise.sample_jumps`), then its Gaussian plane rho sqrt(dt dx) N(0, 1)
    when rho > 0, into its slice of one (n_t, R n_x) array, to which the
    compensator and drift every cell has (`noise.cell_base`) are added
    once.  The one-pass iterator yields, for k = 0..n_t-1, (pos, vals,
    dense): the flat positions of step k's jump cells in the (R, n_x)
    plane, their jump sums, and None when rho = 0 and the base is 0, else
    the float base when rho = 0, else row k of the Gaussian planes.
    Memory is O(jumps) plus those planes.  Warns if not containment_ok.
    """
    if not grid.containment_ok(ms.kp.alpha):
        warnings.warn("domain half-width below 4 T^(1/alpha); wrap-around "
                      "bias may be significant", stacklevel=2)
    n_r, n_x = len(replicas), grid.n_x
    cell = grid.dt * grid.dx
    base = cell_base(ms.levy, grid.dt, grid.dx)
    keys, vals = [], []
    gaussian = np.empty((grid.n_t, n_r * n_x)) if ms.rho > 0.0 else None
    for i, r in enumerate(replicas):
        rng = grid.noise_grid(seed, r)
        cells, sums = sample_jumps(ms.levy, rng, cell, grid.n_t * n_x)
        step, col = np.divmod(cells, n_x)
        keys.append((step * n_r + i) * n_x + col)
        vals.append(sums)
        if gaussian is not None:
            np.multiply(ms.rho * math.sqrt(cell),
                        rng.standard_normal((grid.n_t, n_x)),
                        out=gaussian[:, i * n_x:(i + 1) * n_x])
    if gaussian is not None and base != 0.0:
        gaussian += base
    dense = gaussian if gaussian is not None else (
        [None if base == 0.0 else base] * grid.n_t)
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    keys, vals = keys[order], np.concatenate(vals)[order]
    bounds = np.searchsorted(keys, n_r * n_x * np.arange(grid.n_t + 1)).tolist()
    pos = np.remainder(keys, n_r * n_x, out=keys)
    return ((pos[lo:hi], vals[lo:hi], d)
            for lo, hi, d in zip(bounds, bounds[1:], dense))


def mild_step(fields: np.ndarray, dk: DiscreteKernel, ms: ModelSpec,
              dlam: tuple, dx: float, step: int, *,
              sigma_at: np.ndarray | None = None) -> np.ndarray:
    """Mild-solution step `step` -> `step + 1`, in place in `fields`:

        X_{k+1} = Q_dt X_k + Q_dt( sigma(Y_k) dLambda_k ) / dx ,

    with sigma evaluated at the left point, Y = X unless `sigma_at` gives
    another field of the same shape (the previous Picard iterate).  `dlam`
    is one step (pos, vals, dense) of `sample_noise` on the (R, n_x) plane
    of the last two axes of `fields` (its one axis when R = 1).  sigma(Y)
    is read before the step changes the field: sigma(Y) dense / dx is added
    to every cell, then sigma(Y) vals / dx at the jump cells, and
    `heat_step` writes the step back into `fields`, which is returned.
    Raises BlowupError with `step`, the cell and the value of the largest
    |X| once it passes BLOWUP_GUARD, or of the first non-finite X.
    """
    pos, vals, dense = dlam
    x = fields.reshape(-1, math.prod(fields.shape[-2:]))
    y = x if sigma_at is None else sigma_at.reshape(x.shape)
    jumps = ms.sigma(y[:, pos]) * vals / dx
    if dense is not None:
        x += ms.sigma(y) * dense / dx
    x[:, pos] += jumps
    heat_step(fields, dk, out=fields)
    if not max(fields.max(), -fields.min()) <= BLOWUP_GUARD:
        bad = ~np.isfinite(fields)
        i = int(np.argmax(bad) if bad.any() else np.argmax(np.abs(fields)))
        raise BlowupError(step=step, cell=i % fields.shape[-1],
                          value=float(abs(fields.flat[i])))
    return fields


def run_trajectory(ms: ModelSpec, grid: GridSpec, seed: int,
                   replica: int) -> np.ndarray:
    """The field X(t_k, x_j) of one noise replica over the whole grid, as
    an (n_t + 1, n_x) array; deterministic in (model, grid, seed, replica)."""
    dk = build_discrete_kernel(ms.kp, grid, grid.dt)
    x = ms.u0(grid.x)
    fields = np.empty((grid.n_t + 1, grid.n_x))
    fields[0] = x
    for k, dlam in enumerate(sample_noise(ms, grid, seed, [replica])):
        fields[k + 1] = mild_step(x, dk, ms, dlam, grid.dx, k)
    return fields


# ---------------------------------------------------------------------------
# Picard iteration mode


@dataclass
class PicardReport:
    """Weighted-norm decrements of successive Picard iterates.

    log_d[n] = log of d_n = max_{k,j} e^(-beta t_k) (1+|x_j|)^c
               (mean_replicas |X^{n+1} - X^n|^p)^(1/p),
    kept in log space because certified beta0 values make e^(-beta t)
    underflow long before the norms become uninformative.  `resolved` counts
    the leading d_n at least FLOAT_FLOOR times (mean_replicas |X^n|^p)^(1/p)
    at their arg-max cell; the ratio test judges only those.
    """

    beta: float
    c: float
    p: float
    log_d: np.ndarray
    rel_se: np.ndarray           # relative standard error at the arg-max cell
    replicas: int
    contraction_ok: bool
    failures: list
    resolved: int


# Smallest decrement, relative to the iterate it corrects, that the ratio
# test judges (about 4,500 float64 epsilons).  A change of summation order
# moves a decrement by up to about 7e-16 of that iterate, so one at the
# floor keeps three digits (log_d moves by <= 7e-4), while rounding
# residue near 1e-16 moves by O(1) in log.
FLOAT_FLOOR = 1e-12


def picard_solve(ms: ModelSpec, grid: GridSpec, seed: int, replicas: int,
                 n_iter: int, beta: float, c: float, p: float,
                 target_ratio: float = 0.5) -> PicardReport:
    """Discrete Picard iteration mirroring the existence argument.

    X^0 is the noise-free flow of u0; X^{n+1} = X^0 + S(sigma(X^n)) with S
    the one-step-kernel stochastic convolution, shared noise across
    iterates.  Step k of X^{n+1} needs only step k of X^n, so one time
    sweep holds X^0..X^n_iter at step k in one (n_iter + 1, replicas, n_x)
    array: X^1..X^n_iter advance together as one `mild_step` with sigma
    frozen at X^0..X^(n_iter-1), and X^0 is one u0 row advanced by the
    same `heat_step` and copied into every replica, so with sigma = 0
    every iterate is X^0 bit for bit.  Each decrement's weighted norm is
    reduced as the sweep goes: memory is that array, one more of n_iter
    rows for the decrements' powers, and the sparse noise.  A blow-up
    reports the first step at which any iterate passes the guard, with the
    cell and value of the largest |X| over every iterate and replica at
    that step.  Reports d_n for n = 0..n_iter-1 and checks
    d_{n+1} <= target_ratio * d_n + statistical slack over the first
    `resolved` decrements.
    """
    require(is_count(n_iter, 2), "n_iter", n_iter, "the integers at least 2")
    require(0.0 < beta < math.inf, "beta", beta, "(0, inf)")
    require(1.0 <= p < math.inf, "p", p, "[1, inf)")
    require(0.0 <= c < math.inf, "c", c, "[0, inf)")
    require(0.0 < target_ratio < 1.0, "target_ratio", target_ratio, "(0, 1)")
    require(is_count(replicas, 1), "replicas", replicas,
            "the integers at least 1")
    dk = build_discrete_kernel(ms.kp, grid, grid.dt)
    weight = c * np.log1p(np.abs(grid.x))
    x0 = ms.u0(grid.x)
    its = np.empty((n_iter + 1, replicas, grid.n_x))   # X^0..X^n_iter at step k
    its[:] = x0
    powers = np.empty_like(its[1:])                    # |X^(n+1) - X^n|^p
    log_d = np.full(n_iter, -np.inf)
    rel_se = np.zeros(n_iter)
    log_rel = np.full(n_iter, -np.inf)   # log of d_n / |X^n| at the arg-max cell
    times, rows = grid.times, np.arange(n_iter)
    for k, dlam in enumerate(sample_noise(ms, grid, seed, range(replicas))):
        # its[1:] and its[:-1] overlap: mild_step reads sigma(X^n) before
        # it writes X^(n+1), so each iterate steps on its predecessor's
        # step-k values
        mild_step(its[1:], dk, ms, dlam, grid.dx, k, sigma_at=its[:-1])
        its[0] = heat_step(x0, dk, out=x0)
        np.subtract(its[1:], its[:-1], out=powers)
        np.abs(powers, out=powers)
        powers **= p
        moment = np.mean(powers, axis=1)                # (n_iter, n_x)
        with np.errstate(divide="ignore"):
            logs = -beta * times[k + 1] + weight + np.log(moment) / p
            cols = np.argmax(logs, axis=1)
            for n in np.flatnonzero(logs[rows, cols] > log_d):
                j = cols[n]
                log_d[n] = logs[n, j]
                se = (np.std(powers[n], axis=0, ddof=1)[j] / math.sqrt(replicas)
                      if replicas > 1 else 0.0)
                rel_se[n] = se / moment[n, j] / p
                level = np.mean(np.abs(its[n, :, j]) ** p)
                log_rel[n] = (np.log(moment[n, j]) - np.log(level)) / p

    resolved = 0
    while resolved < n_iter and log_rel[resolved] >= math.log(FLOAT_FLOOR):
        resolved += 1
    failures = []
    for n in range(resolved - 1):
        slack = 2.0 * (rel_se[n] + rel_se[n + 1])
        if log_d[n + 1] - log_d[n] > math.log(target_ratio + slack):
            failures.append({"n": n, "log_ratio": float(log_d[n + 1] - log_d[n]),
                             "allowed": math.log(target_ratio + slack),
                             "beta": beta})
    return PicardReport(beta=beta, c=c, p=p, log_d=log_d, rel_se=rel_se,
                        replicas=replicas, contraction_ok=not failures,
                        failures=failures, resolved=resolved)

