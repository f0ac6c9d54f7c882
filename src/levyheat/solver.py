"""Mild-solution stepper on a 1-d periodic grid, plus a Picard fixed-point mode.

The scheme is a semigroup Euler step: advance the field through the exact
one-step heat semigroup (cell-averaged, image-wrapped kernel applied by
circular convolution), and inject the cell-lumped noise through the same
one-step kernel with sigma evaluated at the left time point (the
predictable choice).  The torus substitution keeps kernel mass exactly 1,
so conservation is testable; wrap-around bias is reported through the
image-mass diagnostic on the discrete kernel.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .analytics import ModelSpec
from .errors import BlowupError, DomainError, ValidationError
from .kernel import get_profile, tail_coefficient
from .noise import IncrementField, NoiseGrid, sample_increments

BLOWUP_GUARD = 1e12


@dataclass(frozen=True)
class GridSpec:
    """Periodic domain [-L, L) with n_x nodes; time horizon T with n_t steps."""

    half_width: float = 32.0
    n_x: int = 256
    horizon: float = 5.0
    n_t: int = 500

    def __post_init__(self):
        if self.half_width <= 0.0 or self.horizon <= 0.0:
            raise ValidationError("grid", "half_width and horizon must be positive")
        if self.n_x < 2 or (self.n_x & (self.n_x - 1)) != 0:
            raise ValidationError("grid.nx", f"n_x must be a power of two, got {self.n_x}")
        if self.n_t < 1:
            raise ValidationError("grid.nt", "n_t must be >= 1")

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

    def noise_grid(self, seed: int, replica: int) -> NoiseGrid:
        return NoiseGrid(dt=self.dt, dx=self.dx, n_t=self.n_t, n_x=self.n_x,
                         seed=seed, replica_index=replica)


@dataclass
class DiscreteKernel:
    """Cell-averaged, image-wrapped one-step kernel; weights sum to 1 exactly."""

    weights: np.ndarray
    dt: float
    image_mass: float            # wrap-around diagnostic: mass from |y| > L
    base_weights: np.ndarray = field(default=None, repr=False)   # pre-wrap masses
    spectrum: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.spectrum is None:
            self.spectrum = np.fft.rfft(self.weights)


def build_discrete_kernel(kp, grid: GridSpec, dt: float) -> DiscreteKernel:
    """Midpoint cell masses q_dt(m dx) dx plus wrapped periodic images.

    Images live at distance >= L and are summed through the first power-tail
    term until the next image contributes below 1e-12 of unit mass; the
    result is then normalized to unit sum (exactly).
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    if kp.d != 1:
        raise DomainError("the solver runs in d = 1")
    n, dx, L = grid.n_x, grid.dx, grid.half_width
    alpha = kp.alpha
    offsets = np.arange(n, dtype=float)
    offsets[offsets > n / 2] -= n
    y = offsets * dx
    scale = dt ** (-1.0 / alpha)
    if alpha == 1.0:
        base = dt / (math.pi * (dt * dt + y * y)) * dx
    else:
        prof = get_profile(alpha)
        base = scale * prof(np.abs(y) * scale) * dx

    c1 = tail_coefficient(alpha, 1)
    image = np.zeros_like(y)
    k = 1
    while True:
        contrib = dt * c1 * (np.abs(y + 2 * L * k) ** (-1.0 - alpha)
                             + np.abs(y - 2 * L * k) ** (-1.0 - alpha)) * dx
        image += contrib
        if contrib.max() < 1e-12:
            break
        k += 1
        if k > 10_000_000:
            raise DomainError("image summation failed to converge")
    weights = base + image
    weights = np.maximum(weights, 0.0)
    total = weights.sum()
    weights /= total
    return DiscreteKernel(weights=weights, dt=dt,
                          image_mass=float(image.sum() / total),
                          base_weights=base)


def initial_field(ms: ModelSpec, grid: GridSpec) -> np.ndarray:
    """Sample u0 at the grid nodes."""
    return ms.u0(grid.x)


def heat_step(fields: np.ndarray, dk: DiscreteKernel) -> np.ndarray:
    """One deterministic semigroup step: circular convolution with the
    discrete kernel (spectral implementation).  Mean-preserving since the
    weights sum to one; nonnegative weights preserve nonnegativity."""
    spec = np.fft.rfft(fields, axis=-1)
    return np.fft.irfft(spec * dk.spectrum, n=fields.shape[-1], axis=-1)


def heat_flow(ms: ModelSpec, grid: GridSpec, dk: DiscreteKernel) -> np.ndarray:
    """Noise-free flow of u0 at every time point, (n_t + 1, n_x): step k
    applies the k-th power of the kernel spectrum to u0 in one transform."""
    u0 = initial_field(ms, grid)
    powers = dk.spectrum ** np.arange(1, grid.n_t + 1)[:, None]
    return np.vstack([u0, np.fft.irfft(np.fft.rfft(u0) * powers, n=grid.n_x)])


def sample_noise(ms: ModelSpec, grid: GridSpec, seed: int, replicas,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Combined cell noise of the listed replicas as one (n_t, R, n_x) array.

    Replica r draws from its own (seed, r) Philox stream, so its noise does
    not depend on which replicas it is sampled with.  `out`, if given, is a
    buffer with at least R columns; the result is its leading R columns.
    """
    if out is None:
        out = np.empty((grid.n_t, len(replicas), grid.n_x))
    for i, r in enumerate(replicas):
        incr = sample_increments(ms.levy, grid.noise_grid(seed, r), ms.rho)
        out[:, i, :] = incr.combined(b=ms.b)
    return out[:, :len(replicas)]


def mild_step(fields: np.ndarray, dk: DiscreteKernel, ms: ModelSpec,
              dlam: np.ndarray, dx: float, step: int,
              sigma_at: np.ndarray | None = None,
              guard: float = BLOWUP_GUARD) -> np.ndarray:
    """Mild-solution step `step` -> `step + 1`:

        X_{k+1} = Q_dt X_k + Q_dt( sigma(Y_k) dLambda_k ) / dx ,

    with sigma evaluated at the left point, Y = X unless `sigma_at` gives
    another field (the previous Picard iterate).  dlam is the combined cell
    noise measure (compensated jumps + drift + Gaussian).  Raises
    BlowupError with `step` and the largest cell past the guard threshold.
    """
    sig = ms.sigma(fields if sigma_at is None else sigma_at)
    out = heat_step(fields + sig * dlam / dx, dk)
    amax = np.abs(out).max()
    if not np.isfinite(amax) or amax > guard:
        idx = np.unravel_index(int(np.nanargmax(np.abs(out))), out.shape)
        raise BlowupError(step=step, cell=int(idx[-1]), value=float(amax))
    return out


@dataclass
class Trajectory:
    """One replica of the simulated field X(t_k, x_j)."""

    fields: np.ndarray           # (n_t + 1, n_x)
    model: ModelSpec
    grid: GridSpec
    seed: int
    replica: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.fields)):
            raise ValidationError("trajectory", "non-finite field values")


def run_trajectory(ms: ModelSpec, grid: GridSpec, seed: int, replica: int,
                   guard: float = BLOWUP_GUARD,
                   increments: IncrementField | None = None) -> Trajectory:
    """Advance one noise replica over the whole grid; deterministic in
    (model, grid, seed, replica)."""
    if not grid.containment_ok(ms.kp.alpha):
        warnings.warn("domain half-width below 4 T^(1/alpha); wrap-around "
                      "bias may be significant", stacklevel=2)
    dk = build_discrete_kernel(ms.kp, grid, grid.dt)
    if increments is None:
        dlam = sample_noise(ms, grid, seed, [replica])[:, 0]
    else:
        dlam = increments.combined(b=ms.b)
    fields = np.empty((grid.n_t + 1, grid.n_x))
    fields[0] = initial_field(ms, grid)
    for k in range(grid.n_t):
        fields[k + 1] = mild_step(fields[k], dk, ms, dlam[k], grid.dx, k,
                                  guard=guard)
    return Trajectory(fields=fields, model=ms, grid=grid, seed=seed,
                      replica=replica)


# ---------------------------------------------------------------------------
# Picard iteration mode


@dataclass
class PicardReport:
    """Weighted-norm decrements of successive Picard iterates.

    log_d[n] = log of d_n = max_{k,j} e^(-beta t_k) (1+|x_j|)^c
               (mean_replicas |X^{n+1} - X^n|^p)^(1/p),
    kept in log space because certified beta0 values make e^(-beta t)
    underflow long before the norms become uninformative.
    """

    beta: float
    c: float
    p: float
    log_d: np.ndarray
    rel_se: np.ndarray           # relative standard error at the arg-max cell
    replicas: int
    contraction_ok: bool
    failures: list

    @property
    def ratios(self) -> np.ndarray:
        """d_{n+1} / d_n (may underflow to 0; use log_d for the exact figure)."""
        return np.exp(np.diff(self.log_d))


def _weighted_log_norm(diff: np.ndarray, times: np.ndarray, x: np.ndarray,
                       beta: float, c: float, p: float):
    """log max_{k,j} e^(-beta t) (1+|x|)^c (mean_r |diff|^p)^(1/p), plus the
    relative SE of the moment estimate at the arg-max."""
    moment = np.mean(np.abs(diff) ** p, axis=1)          # (n_t+1, n_x)
    r = diff.shape[1]
    if r > 1:
        se = np.std(np.abs(diff) ** p, axis=1, ddof=1) / math.sqrt(r)
    else:
        se = np.zeros_like(moment)
    with np.errstate(divide="ignore"):
        logs = (-beta * times[:, None] + c * np.log1p(np.abs(x))[None, :]
                + np.log(moment) / p)
    k, j = np.unravel_index(int(np.argmax(logs)), logs.shape)
    log_d = float(logs[k, j])
    rel = float(se[k, j] / moment[k, j] / p) if moment[k, j] > 0 else 0.0
    return log_d, rel


def picard_solve(ms: ModelSpec, grid: GridSpec, seed: int, replicas: int,
                 n_iter: int, beta: float, c: float, p: float,
                 target_ratio: float = 0.5,
                 guard: float = BLOWUP_GUARD) -> PicardReport:
    """Discrete Picard iteration mirroring the existence argument.

    X^0 is the deterministic heat flow of u0; X^{n+1} = X^0 + S(sigma(X^n))
    with S the one-step-kernel stochastic convolution, shared noise across
    iterates.  Reports d_n for n = 0..n_iter-1 and checks
    d_{n+1} <= target_ratio * d_n + statistical slack.
    """
    if n_iter < 2:
        raise DomainError("need at least two iterates to measure contraction")
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    dk = build_discrete_kernel(ms.kp, grid, grid.dt)
    dlam = sample_noise(ms, grid, seed, range(replicas))

    def sweep(prev: np.ndarray) -> np.ndarray:
        """X^{n+1} from X^n: the mild recursion with sigma frozen at X^n,
        which by linearity of the step equals X^0 plus the stochastic
        convolution of sigma(X^n)."""
        nxt = np.empty_like(prev)
        nxt[0] = prev[0]
        for k in range(grid.n_t):
            nxt[k + 1] = mild_step(nxt[k], dk, ms, dlam[k], grid.dx, k,
                                   sigma_at=prev[k], guard=guard)
        return nxt

    current = np.broadcast_to(heat_flow(ms, grid, dk)[:, None, :],
                              (grid.n_t + 1, replicas, grid.n_x)).copy()
    log_d = []
    rel_se = []
    for _ in range(n_iter):
        nxt = sweep(current)
        ld, rs = _weighted_log_norm(nxt - current, grid.times, grid.x, beta, c, p)
        log_d.append(ld)
        rel_se.append(rs)
        current = nxt

    log_d = np.array(log_d)
    rel_se = np.array(rel_se)
    failures = []
    for n in range(len(log_d) - 1):
        if not (np.isfinite(log_d[n]) and np.isfinite(log_d[n + 1])):
            continue        # an exactly-zero decrement satisfies any ratio
        slack = 2.0 * (rel_se[n] + rel_se[n + 1])
        if log_d[n + 1] - log_d[n] > math.log(target_ratio + slack):
            failures.append({"n": n, "log_ratio": float(log_d[n + 1] - log_d[n]),
                             "allowed": math.log(target_ratio + slack),
                             "beta": beta})
    return PicardReport(beta=beta, c=c, p=p, log_d=log_d, rel_se=rel_se,
                        replicas=replicas, contraction_ok=not failures,
                        failures=failures)


# ---------------------------------------------------------------------------
# trajectory dumps

import struct

_TRAJ_HEADER = struct.Struct("<4sQQddQQQ")
_TRAJ_MAGIC = b"LVHT"


def dump_trajectory(traj: Trajectory, path) -> None:
    """Binary dump: header {n_t, n_x, dt, dx, seed, replica, model_hash},
    then the field row-major as little-endian float64."""
    g = traj.grid
    mh = model_hash(traj.model, g)
    with open(path, "wb") as fh:
        fh.write(_TRAJ_HEADER.pack(_TRAJ_MAGIC, g.n_t, g.n_x, g.dt, g.dx,
                                   traj.seed, traj.replica, mh))
        fh.write(np.ascontiguousarray(traj.fields, dtype="<f8").tobytes())


def trajectory_csv(traj: Trajectory, path) -> None:
    """CSV dump (t, x, X) for small grids."""
    g = traj.grid
    with open(path, "w") as fh:
        fh.write("t,x,X\n")
        for k, t in enumerate(g.times):
            for j, xj in enumerate(g.x):
                fh.write(f"{t:.17g},{xj:.17g},{traj.fields[k, j]:.17g}\n")


def model_hash(ms: ModelSpec, grid: GridSpec) -> int:
    """Stable 64-bit hash of the model + grid description."""
    import hashlib
    text = repr((ms.kp.d, ms.kp.alpha, ms.rho, ms.levy, ms.sigma, ms.u0,
                 grid.half_width, grid.n_x, grid.horizon, grid.n_t))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")
