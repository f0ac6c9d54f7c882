"""Monte Carlo moment estimation, Lyapunov slope fits, and growth-index scans.

Replicas stream through the solver in batches stepped as one (batch, n_x)
array; a batch's noise takes at most BATCH_BYTES (one replica's noise if
that is larger), and only per-cell moment accumulators outlive it, so
memory stays flat in the replica count.  Spatial extrema are taken over
grid cells, which under-/over-shoots the continuum extrema; the heavy-tail
aggregator is median-of-means (16 blocks) by default for p > 1.5, since a
single mean is fragile under jump noise.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtrit

from .analytics import ModelSpec, RenewalProblem, renewal_solve
from .errors import DomainError
from .solver import (GridSpec, build_discrete_kernel, heat_flow, initial_field,
                     mild_step, sample_noise)

MOM_BLOCKS = 16
# memory for one batch's noise, (n_t, batch, n_x) float64: 16 replicas on
# the 500 x 256 reference grid
BATCH_BYTES = 16 * 2 ** 20
# asymptotic SE inflation of a median of near-normal block means
_MEDIAN_SE = math.sqrt(math.pi / 2.0)


def _median_of_means(bm: np.ndarray):
    """Median of the block means `bm` (blocks on axis 0) and its standard
    error from the block spread."""
    se = _MEDIAN_SE * bm.std(axis=0, ddof=1) / math.sqrt(len(bm))
    return np.median(bm, axis=0), se


@dataclass
class MomentSeries:
    """Per-time spatial extrema of the estimated p-th moment.

    `admissible` is False when p >= 1 + alpha/d: the true moment is infinite
    there, estimates diverge upward with the replica count, and no
    convergence claim attaches to the numbers.
    """

    times: np.ndarray
    sup_mean: np.ndarray
    sup_se: np.ndarray
    inf_mean: np.ndarray
    inf_se: np.ndarray
    p: float
    replicas: int
    aggregator: str = "mean"
    admissible: bool = True

    def __post_init__(self):
        if np.any(self.sup_mean < self.inf_mean):
            raise DomainError("sup series must dominate inf series")


@dataclass
class MomentSurface:
    """Per-(time, cell) moment estimate; feeds the growth scans."""

    times: np.ndarray
    x: np.ndarray
    mean: np.ndarray             # (n_t + 1, n_x)
    se: np.ndarray
    p: float
    replicas: int


def _batch_size(grid: GridSpec) -> int:
    """Replicas per batch: as many (n_t, n_x) noise planes as BATCH_BYTES holds."""
    return max(1, BATCH_BYTES // (8 * grid.n_t * grid.n_x))


def _distinct_runs(blk: np.ndarray) -> list:
    """Split a batch into consecutive (lo, hi) runs with no repeated block id,
    so each run adds into its blocks with one fancy-indexed +=, and each
    block still receives its replicas in order."""
    cuts, seen = [0], set()
    for i, b in enumerate(blk.tolist()):
        if b in seen:
            cuts.append(i)
            seen.clear()
        seen.add(b)
    cuts.append(len(blk))
    return list(zip(cuts[:-1], cuts[1:]))


def _accumulate_block(ms: ModelSpec, grid: GridSpec, p: float, seed: int,
                      replicas, blocks: int):
    """Step the given replicas in batches.

    Returns the shift c = |noise-free flow of u0|^p per (time, cell), the
    per-cell sums of |X|^p - c and of its square, the per-block sums of
    |X|^p, and the block sizes.  Shifting by c keeps the one-pass variance
    well conditioned in cells the noise has barely reached, where every
    replica's |X|^p agrees to many digits.
    """
    dk = build_discrete_kernel(ms.kp, grid, grid.dt)
    u0 = initial_field(ms, grid)
    n_t, nx = grid.n_t, grid.n_x
    shift = np.abs(heat_flow(ms, grid, dk)) ** p
    s1 = np.zeros((n_t + 1, nx))
    s2 = np.zeros((n_t + 1, nx))
    bsum = np.zeros((blocks, n_t + 1, nx))
    bcount = np.bincount(np.asarray(replicas, dtype=int) % blocks,
                         minlength=blocks)
    size = _batch_size(grid)
    buf = np.empty((n_t, min(size, len(replicas)), nx))
    for start in range(0, len(replicas), size):
        batch = replicas[start:start + size]
        dlam = sample_noise(ms, grid, seed, batch, out=buf)
        blk = np.array(batch) % blocks
        runs = _distinct_runs(blk)
        x = np.tile(u0, (len(batch), 1))
        for k in range(n_t + 1):
            if k:
                x = mild_step(x, dk, ms, dlam[k - 1], grid.dx, k - 1)
            pw = np.abs(x) ** p
            dev = pw - shift[k]
            s1[k] += dev.sum(axis=0)
            s2[k] += (dev * dev).sum(axis=0)
            for lo, hi in runs:
                bsum[blk[lo:hi], k] += pw[lo:hi]
    return shift, s1, s2, bsum, bcount


def simulate_moments(ms: ModelSpec, grid: GridSpec, p: float, replicas: int,
                     seed: int, aggregator: str = "auto",
                     blocks: int = MOM_BLOCKS, jobs: int = 1):
    """Simulate `replicas` independent paths and estimate E|X(t,x)|^p.

    Returns (MomentSeries, MomentSurface).  aggregator "auto" resolves to
    median-of-means for p > 1.5 and the plain mean otherwise.
    """
    if replicas < 2:
        raise DomainError("need at least 2 replicas")
    if aggregator == "auto":
        aggregator = "mom" if p > 1.5 else "mean"
    blocks = min(blocks, replicas)
    ids = list(range(replicas))
    if jobs > 1:
        chunks = [ids[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_accumulate_worker,
                                  [(ms, grid, p, seed, ch, blocks) for ch in chunks]))
        shift = parts[0][0]
        s1, s2, bsum, bcount = (sum(pt[i] for pt in parts) for i in range(1, 5))
    else:
        shift, s1, s2, bsum, bcount = _accumulate_block(ms, grid, p, seed, ids,
                                                        blocks)

    r = replicas
    dev = s1 / r
    mean = shift + dev
    var = np.maximum(s2 / r - dev * dev, 0.0) * r / max(r - 1, 1)
    se_mean = np.sqrt(var / r)
    if aggregator == "mom":
        est, se = _median_of_means(bsum / bcount[:, None, None])
    else:
        est, se = mean, se_mean

    sup_idx = np.argmax(est, axis=1)
    inf_idx = np.argmin(est, axis=1)
    rows = np.arange(est.shape[0])
    admissible = p < 1.0 + ms.kp.alpha / ms.kp.d
    series = MomentSeries(times=grid.times,
                          sup_mean=est[rows, sup_idx], sup_se=se[rows, sup_idx],
                          inf_mean=est[rows, inf_idx], inf_se=se[rows, inf_idx],
                          p=p, replicas=r, aggregator=aggregator,
                          admissible=admissible)
    surface = MomentSurface(times=grid.times, x=grid.x, mean=est, se=se,
                            p=p, replicas=r)
    return series, surface


def _accumulate_worker(args):
    return _accumulate_block(*args)


# ---------------------------------------------------------------------------
# slope fits


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    se: float
    ci_low: float
    ci_high: float
    n: int

    @property
    def positive(self) -> bool:
        return self.ci_low > 0.0

    @property
    def negative(self) -> bool:
        return self.ci_high < 0.0


def fit_log_slope(t: np.ndarray, values: np.ndarray,
                  confidence: float = 0.95) -> SlopeFit:
    """Least-squares slope of log(values) against t, CI from the residuals."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(t) < 5:
        raise DomainError("need at least 5 points for a slope fit")
    if np.any(values <= 0.0):
        raise DomainError("nonpositive values in the fit window")
    y = np.log(values)
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * tbar)
    resid = y - (intercept + slope * t)
    dof = len(t) - 2
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    q = stdtrit(dof, 0.5 + confidence / 2.0)
    return SlopeFit(slope=slope, intercept=intercept, se=se,
                    ci_low=slope - q * se, ci_high=slope + q * se, n=len(t))


@dataclass
class LyapunovFit:
    upper: SlopeFit              # slope of log sup_x moment
    lower: SlopeFit              # slope of log inf_x moment
    window: tuple


def lyapunov_fit(series: MomentSeries, window: tuple | None = None) -> LyapunovFit:
    """Fit exponential rates of the sup/inf moment series over a time window.

    Default window: the second half of the horizon.
    """
    t = series.times
    if window is None:
        window = (t[-1] / 2.0, t[-1])
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if mask.sum() < 5:
        raise DomainError("window holds fewer than 5 series points")
    return LyapunovFit(upper=fit_log_slope(t[mask], series.sup_mean[mask]),
                       lower=fit_log_slope(t[mask], series.inf_mean[mask]),
                       window=(float(lo), float(hi)))


# ---------------------------------------------------------------------------
# growth-index scans


@dataclass
class GrowthScan:
    """Restricted sup-moment surface over moving regions |x| >= e^(eta t^r)."""

    eta: np.ndarray
    times: np.ndarray
    values: np.ndarray           # (n_eta, n_times); NaN where region empty
    empty: np.ndarray            # bool mask
    r: float
    slopes: list = field(default_factory=list)   # SlopeFit or None per eta
    eta_low: float | None = None
    eta_high: float | None = None


def growth_index_scan(surface: MomentSurface, eta_grid, r: float = 1.0,
                      fit_window: tuple | None = None,
                      t_floor: float = 0.0) -> GrowthScan:
    """Sup of the moment estimate over cells |x| >= e^(eta t^r), per (eta, t).

    The late-time slope of (1/t^r) log sup is fitted per eta (default window:
    last half); eta_low is the largest eta with a significantly positive
    slope, eta_high the smallest with a significantly negative one.  Regions
    that leave the torus are flagged empty and excluded from fits.
    """
    eta_grid = np.asarray(sorted(eta_grid), dtype=float)
    t = surface.times
    absx = np.abs(surface.x)
    values = np.full((len(eta_grid), len(t)), np.nan)
    empty = np.ones_like(values, dtype=bool)
    for i, eta in enumerate(eta_grid):
        for k, tk in enumerate(t):
            if tk <= t_floor:
                continue
            radius = math.exp(eta * tk ** r)
            mask = absx >= radius
            if not mask.any():
                continue
            values[i, k] = surface.mean[k, mask].max()
            empty[i, k] = False

    if fit_window is None:
        fit_window = (t[-1] / 2.0, t[-1])
    lo, hi = fit_window
    slopes = []
    for i in range(len(eta_grid)):
        mask = (~empty[i]) & (t >= lo) & (t <= hi) & (t > 0)
        if mask.sum() < 5 or np.any(values[i, mask] <= 0.0):
            slopes.append(None)
            continue
        # rate against t^r so the fitted slope is the t^r-exponential rate
        slopes.append(fit_log_slope(t[mask] ** r, values[i, mask]))

    eta_low = eta_high = None
    for eta, fitres in zip(eta_grid, slopes):
        if fitres is None:
            continue
        if fitres.positive:
            eta_low = float(eta) if eta_low is None else max(eta_low, float(eta))
        if fitres.negative and eta_high is None:
            eta_high = float(eta)
    if eta_low is not None and eta_high is not None and eta_low > eta_high:
        eta_low = eta_high = None   # inconsistent sign pattern: no bracket
    return GrowthScan(eta=eta_grid, times=t, values=values, empty=empty, r=r,
                      slopes=slopes, eta_low=eta_low, eta_high=eta_high)


# ---------------------------------------------------------------------------
# renewal ordering check


@dataclass
class RenewalCheck:
    times: np.ndarray
    f: np.ndarray
    margin: np.ndarray           # inf-moment minus comparison solution
    margin_se: np.ndarray
    beta1: float | None
    fitted_lower_slope: SlopeFit
    c3: float
    c4: float
    t_floor: float = 0.0

    @property
    def ordered(self) -> bool:
        """Margin nonnegative within 2 SE at times past the floor.

        Early times are excluded by default: there the spatial minimum's
        selection bias (min over many near-tied cells) dwarfs its per-cell
        standard error, so a 2 SE band is not a meaningful test.
        """
        mask = self.times >= self.t_floor
        return bool(np.all(self.margin[mask]
                           >= -2.0 * self.margin_se[mask] - 1e-12))


def renewal_check(series: MomentSeries, weight_t: np.ndarray,
                  weight_w: np.ndarray, c3: float, c4: float,
                  t_floor: float | None = None) -> RenewalCheck:
    """Compare the estimated inf-moment against the renewal comparison
    solution f = c3 + c4 (w * f) on the series' own time grid.  The margin
    is reported everywhere; the pass verdict applies from t_floor on
    (default: 10% of the horizon)."""
    t = series.times
    if np.any(series.inf_mean <= 0.0):
        raise DomainError("renewal check needs positive inf-moment estimates")
    dt = float(t[1] - t[0])
    if not np.allclose(np.diff(t), dt):
        raise DomainError("series time grid must be uniform")
    if t_floor is None:
        t_floor = 0.1 * float(t[-1])
    wv = np.interp(t, weight_t, weight_w)
    rp = RenewalProblem(c3=c3, c4=c4, horizon=float(t[-1]), dt=dt, weight=wv)
    sol = renewal_solve(rp)
    margin = series.inf_mean - sol.f
    fitted = lyapunov_fit(series).lower
    return RenewalCheck(times=t, f=sol.f, margin=margin,
                        margin_se=series.inf_se, beta1=sol.beta1,
                        fitted_lower_slope=fitted, c3=c3, c4=c4,
                        t_floor=t_floor)


def calibrate_renewal(series: MomentSeries, weight_t: np.ndarray,
                      weight_w: np.ndarray, quantile: float = 0.25,
                      safety: float = 0.8):
    """Heuristic (c3, c4) from the observed series.  NOT the proof constants.

    c3 is the first positive-time inf-moment.  c4 comes from the earliest
    statistically resolved renewal increment,
        c4 ~ (I(t*) - c3) / (w * I)(t*),
    at the first t* where the increment clears 5 standard errors, capped so
    the comparison solution saturates below the lower quantile of the
    series, and shrunk by `safety`.  Report alongside any conclusion drawn.
    """
    t = series.times
    inf = series.inf_mean
    c3 = float(inf[1])
    dt = float(t[1] - t[0])
    wv = np.interp(t, weight_t, weight_w)
    total = float(np.trapezoid(weight_w, weight_t))
    if total <= 0.0:
        raise DomainError("weight has no mass")

    resolved = np.nonzero(inf - c3 >= 5.0 * series.inf_se)[0]
    resolved = resolved[resolved >= 2]
    k = int(resolved[0]) if len(resolved) else max(2, len(t) // 10)
    conv = float(np.trapezoid(wv[k::-1] * inf[:k + 1], dx=dt))
    c4_inc = max(0.0, float(inf[k]) - c3) / conv if conv > 0.0 else 0.0

    level = float(np.quantile(inf[1:], quantile))
    c4_cap = max(0.0, 1.0 - c3 / level) / total if level > c3 else 0.0
    return c3, safety * min(c4_inc, c4_cap)
