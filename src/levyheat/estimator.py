"""Monte Carlo moment estimation, Lyapunov slope fits, and growth-index scans.

Replicas stream through the solver in batches of consecutive replicas, each
stepped as one (batch, n_x) array.  A batch holds at most BATCH_BYTES: per
replica, the rows a step keeps live, the sparse jump list, and the dense
Gaussian plane when rho > 0 (at least one replica per batch).  Only the
per-cell moment accumulators outlive a batch, so memory stays flat in the
replica count; one pass accumulates every requested moment order.  The
median of means is then reduced a slab of time rows at a time (at most
_SLAB_BYTES of block means), so beyond the accumulators and the estimates
a run holds one batch or one slab, never a full-size copy of the block
sums.  Every sum folds a batch's rows in replica order, one axis-0
`np.sum` per step, also when `jobs` > 1 threads step the batches.  The
mean's sums are shifted by replica 0's own |X|^p, so the estimator steps
replicas and nothing else.

Spatial extrema are taken over grid cells, which under-/over-shoots the
continuum extrema; the heavy-tail aggregator is median-of-means (16 blocks)
by default for p > 1.5, since a single mean is fragile under jump noise.
"""

import functools
import math
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytics import ModelSpec, RenewalProblem, renewal_solve
from .errors import DomainError, is_count, require
from .solver import GridSpec, build_discrete_kernel, mild_step, sample_noise

MOM_BLOCKS = 16
AGGREGATORS = ("auto", "mom", "mean")
# memory for one batch of replicas (see _replica_bytes): 399 replicas on the
# 500 x 256 reference grid, where each holds about 640 jumps
BATCH_BYTES = 16 * 2 ** 20
# float64 (n_x,) rows one replica keeps live during a step, with room to
# spare: its field, its rfft spectrum and its moment fold slots, plus the
# injection's temporaries sigma(X) and sigma(X) dense / dx when the step
# has a dense term (its Gaussian row is counted with the planes)
_STEP_ROWS = 8
# bytes per jump while a batch's noise is built: flat index and value per
# replica and concatenated, the sort order
_JUMP_BYTES = 40
# block means that _median_of_means reduces at once: 32 time rows of
# 16 blocks x 256 cells on the reference grid
_SLAB_BYTES = 2 ** 20
# asymptotic SE inflation of a median of near-normal block means
_MEDIAN_SE = math.sqrt(math.pi / 2.0)


def _median_of_means(acc: np.ndarray, bcount: np.ndarray):
    """Median of the block means and its standard error from the block
    spread, per (time, cell), from the per-block sums `acc`
    (n_t + 1, blocks, n_x) of `bcount` replicas each.

    The rows are reduced a slab at a time (at most _SLAB_BYTES of block
    means), so no full-size copy of `acc` is made; each row reduces the
    same values in the same order as a whole-array reduction, so the bits
    are the same.  The median is read off a sort along the block axis,
    which numpy runs several times faster there than `np.median`'s
    partition: it is the same middle value, or the mean of the same two
    (block means of |X|^p are never NaN).
    """
    n = len(bcount)
    est = np.empty((len(acc), acc.shape[2]))
    se = np.empty_like(est)
    rows = max(1, _SLAB_BYTES // (8 * acc[0].size))
    for lo in range(0, len(acc), rows):
        bm = np.moveaxis(acc[lo:lo + rows] / bcount[:, None], 1, 0)
        se[lo:lo + rows] = _MEDIAN_SE * bm.std(axis=0, ddof=1) / math.sqrt(n)
        s = np.sort(bm, axis=0)
        est[lo:lo + rows] = s[n // 2] if n % 2 else \
            (s[n // 2 - 1] + s[n // 2]) / 2
    return est, se


@dataclass
class MomentSeries:
    """Per-time spatial extrema of the estimated p-th moment.

    `admissible` is False when p >= 1 + alpha/d: the true moment is infinite
    there, estimates diverge upward with the replica count, and no
    convergence claim attaches to the numbers.  `variance_finite` is False
    when 2p >= 1 + alpha/d: the moment is finite, but Var(|X|^p) is not, so
    the standard errors estimate a quantity that diverges under refinement.
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
    variance_finite: bool = True

    def __post_init__(self):
        gap = np.asarray(self.sup_mean) - self.inf_mean
        require(np.all(gap >= 0.0), "sup_mean - inf_mean",
                float(np.min(gap, initial=0.0)), "[0, inf)")


@dataclass
class MomentSurface:
    """Per-(time, cell) moment estimate; feeds the growth scans."""

    times: np.ndarray
    x: np.ndarray
    mean: np.ndarray             # (n_t + 1, n_x)
    se: np.ndarray
    p: float
    replicas: int


def _replica_bytes(ms: ModelSpec, grid: GridSpec) -> int:
    """Memory one replica holds while its batch steps: the float64 rows it
    keeps live during a step, its expected jump list, and its Gaussian
    plane when rho > 0."""
    jumps = ms.levy.total_mass() * grid.horizon * 2.0 * grid.half_width
    size = 8 * _STEP_ROWS * grid.n_x + _JUMP_BYTES * math.ceil(jumps)
    if ms.rho > 0.0:
        size += 8 * grid.n_t * grid.n_x
    return size


def _batch_size(ms: ModelSpec, grid: GridSpec) -> int:
    """Replicas per batch: as many replicas as BATCH_BYTES holds."""
    return max(1, BATCH_BYTES // _replica_bytes(ms, grid))


def _accumulate(ms: ModelSpec, grid: GridSpec, ps, moms, seed: int,
                replicas: int, blocks: int, jobs: int) -> list:
    """Step the replicas in contiguous chunks, one batch each; one pass
    serves every order in `ps`.

    Per p, returns (shift, *sums): for median of means (`moms`), None and
    the per-block sums of |X|^p, (n_t + 1, blocks, n_x), replica r in
    block r % blocks; for the mean, the shift c = replica 0's own |X|^p
    per (time, cell), (n_t + 1, n_x), and the per-cell sums of |X|^p - c
    and of its square, each (n_t + 1, 1, n_x).  Shifting by one sample of
    the data (Chan, Golub & LeVeque 1983) keeps the one-pass variance well
    conditioned in cells the jumps have barely reached, where every
    replica's |X|^p agrees to many digits.  Chunk 0 holds replica 0 and
    writes c's step-k row before it folds step k, which every later chunk
    folds after it.

    A chunk's buffer per lane count (`blocks`, or 1) holds a sum's step-k
    values in row 0 and replica r in lane r % lanes after it; one axis-0
    `np.sum`, a left fold in numpy, adds them in replica order (unused
    slots add +0.0 to sums that are never -0.0).  Chunk i folds after
    chunk i - 1, so the bits depend on neither `jobs` nor the batch size.
    `jobs` threads step at least `jobs` chunks, each at most a batch; the
    first chunk that raises cancels those after it and gives the error.
    """
    dk = build_discrete_kernel(ms.kp, grid, grid.dt)
    u0 = ms.u0(grid.x)
    n_t, nx = grid.n_t, grid.n_x
    sums = [(None, np.zeros((n_t + 1, blocks, nx))) if mom
            else (np.empty((n_t + 1, nx)), *np.zeros((2, n_t + 1, 1, nx)))
            for mom in moms]
    size = min(_batch_size(ms, grid), -(-replicas // jobs))
    chunks = [range(lo, min(lo + size, replicas))
              for lo in range(0, replicas, size)]
    # gates[i - 1]: a permit per step row chunk i - 1 added (all if it raised)
    gates = [threading.Semaphore(0) for _ in chunks[1:]]
    failed = [False] * len(chunks)

    def step_chunk(i):
        rows = chunks[i]
        folds = {}
        for lanes in {blocks if mom else 1 for mom in moms}:
            off = rows.start % lanes
            buf = np.zeros((1 + -(-(off + len(rows)) // lanes), lanes, nx))
            folds[lanes] = buf, buf[1:].reshape(-1, nx)[off:off + len(rows)]

        def add(x, k):
            if i:
                gates[i - 1].acquire()
                if failed[i - 1]:
                    raise CancelledError
            for p, (shift, *accs) in zip(ps, sums):
                buf, pw = folds[accs[0].shape[1]]
                np.abs(x, out=pw)
                pw **= p
                if shift is not None:
                    if not i:
                        shift[k] = pw[0]
                    pw -= shift[k]
                for j, acc in enumerate(accs):
                    if j:
                        pw *= pw
                    buf[0] = acc[k]
                    np.sum(buf, axis=0, out=acc[k])
            if i < len(gates):
                gates[i].release()

        try:
            x = np.tile(u0, (len(rows), 1))
            add(x, 0)
            for k, dlam in enumerate(sample_noise(ms, grid, seed, rows)):
                mild_step(x, dk, ms, dlam, grid.dx, k)
                add(x, k + 1)
        except BaseException:
            failed[i] = True
            if i < len(gates):
                gates[i].release(n_t + 1)
            raise

    if jobs == 1:
        list(map(step_chunk, range(len(chunks))))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(step_chunk, range(len(chunks))))
    return sums


def simulate_moments(ms: ModelSpec, grid: GridSpec, p, replicas: int,
                     seed: int, aggregator: str = "auto",
                     blocks: int = MOM_BLOCKS, jobs: int = 1):
    """Simulate `replicas` independent paths and estimate E|X(t,x)|^p.

    Returns (MomentSeries, MomentSurface).  `p` may also be a sequence of
    orders: one pass over the replicas then serves all of them, and the
    result is a list of (MomentSeries, MomentSurface), one per order.
    aggregator "auto" resolves to median-of-means for p > 1.5 and the
    plain mean otherwise; "mom" and "mean" force one of them.  `jobs`
    threads step the replicas; every sum folds them in replica order, so
    the results do not depend on `jobs` or the batch size, bit for bit.
    """
    require(aggregator in AGGREGATORS, "aggregator", aggregator,
            "{" + ", ".join(AGGREGATORS) + "}")
    require(is_count(replicas, 2), "replicas", replicas,
            "the integers at least 2")
    require(is_count(blocks, 2), "blocks", blocks, "the integers at least 2")
    require(is_count(jobs, 1), "jobs", jobs, "the integers at least 1")
    ps = [float(v) for v in np.atleast_1d(p)]
    for q in ps:
        require(0.0 < q < math.inf, "p", q, "(0, inf)")
    aggs = [aggregator if aggregator != "auto" else
            ("mom" if q > 1.5 else "mean") for q in ps]
    moms = [a == "mom" for a in aggs]
    blocks = min(blocks, replicas)
    sums = _accumulate(ms, grid, ps, moms, seed, replicas, blocks, jobs)

    r = replicas
    bcount = np.bincount(np.arange(r) % blocks, minlength=blocks)
    finite_below = 1.0 + ms.kp.alpha / ms.kp.d    # E|X|^q < inf for q below
    out = []
    for q, agg, (shift, *accs) in zip(ps, aggs, sums):
        if agg == "mom":
            est, se = _median_of_means(accs[0], bcount)
        else:
            s1, s2 = (a[:, 0] for a in accs)
            dev = s1 / r
            est = shift + dev
            var = np.maximum(s2 / r - dev * dev, 0.0) * r / max(r - 1, 1)
            se = np.sqrt(var / r)
        sup_idx = np.argmax(est, axis=1)
        inf_idx = np.argmin(est, axis=1)
        rows = np.arange(est.shape[0])
        series = MomentSeries(times=grid.times,
                              sup_mean=est[rows, sup_idx],
                              sup_se=se[rows, sup_idx],
                              inf_mean=est[rows, inf_idx],
                              inf_se=se[rows, inf_idx],
                              p=q, replicas=r, aggregator=agg,
                              admissible=q < finite_below,
                              variance_finite=2.0 * q < finite_below)
        surface = MomentSurface(times=grid.times, x=grid.x, mean=est, se=se,
                                p=q, replicas=r)
        out.append((series, surface))
    return out if np.ndim(p) else out[0]


# ---------------------------------------------------------------------------
# slope fits


@dataclass
class SlopeFit:
    """Log-linear slope, its standard error and its two-sided 95% CI; the
    CI's t quantile (scipy.special) is taken on first read, once per fit."""

    slope: float
    intercept: float
    se: float
    n: int

    @functools.cached_property
    def _t_quantile(self):
        from scipy.special import stdtrit
        return stdtrit(self.n - 2, 0.975)

    @property
    def ci_low(self) -> float:
        return self.slope - self._t_quantile * self.se

    @property
    def ci_high(self) -> float:
        return self.slope + self._t_quantile * self.se

    @property
    def positive(self) -> bool:
        return self.ci_low > 0.0

    @property
    def negative(self) -> bool:
        return self.ci_high < 0.0


def fit_log_slope(t: np.ndarray, values: np.ndarray) -> SlopeFit:
    """Least-squares slope of log(values) against t, standard error from
    the residuals."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    require(len(t) >= 5, "t", t, "sequences of at least 5 points")
    ok = (0.0 < values) & (values < math.inf)
    require(ok.all(), "values", float(values[np.argmin(ok)]), "(0, inf)")
    y = np.log(values)
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * tbar)
    resid = y - (intercept + slope * t)
    dof = len(t) - 2
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return SlopeFit(slope=slope, intercept=intercept, se=se, n=len(t))


@dataclass
class LyapunovFit:
    upper: SlopeFit              # slope of log sup_x moment
    lower: SlopeFit              # slope of log inf_x moment
    window: tuple


def lyapunov_fit(series: MomentSeries) -> LyapunovFit:
    """Fit exponential rates of the sup/inf moment series over the second
    half of the horizon."""
    t = series.times
    lo, hi = t[-1] / 2.0, t[-1]
    mask = (t >= lo) & (t <= hi)
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


def growth_index_scan(surface: MomentSurface, eta_grid,
                      r: float = 1.0) -> GrowthScan:
    """Sup of the moment estimate over cells |x| >= e^(eta t^r), per (eta,
    t > 0); t = 0 is flagged empty.

    A running max over the cells, farthest |x| first, holds every region's
    sup, and the count of a region's cells picks it.  The radii take
    `math.exp` (numpy's exp can differ from it in the last bit) of eta
    times `np.float_power(t, r)`, so a cell on a boundary counts as it does
    in a scalar loop.

    The late-time slope of (1/t^r) log sup is fitted per eta over the last
    half of the horizon; eta_low is the largest eta with a significantly
    positive slope, eta_high the smallest with a significantly negative
    one.  Regions that leave the torus are flagged empty and excluded from
    fits.
    """
    require(math.isfinite(r), "r", r, "(-inf, inf)")
    eta_grid = np.asarray(sorted(eta_grid), dtype=float)
    t = surface.times
    absx = np.abs(surface.x)
    order = np.argsort(-absx)
    running = np.maximum.accumulate(surface.mean[:, order], axis=1)
    exponent = eta_grid[:, None] * np.float_power(t, r)
    radius = np.vectorize(math.exp, otypes=[float])(exponent)
    count = absx.size - np.searchsorted(np.sort(absx), radius)
    count[:, t <= 0.0] = 0
    empty = count == 0
    values = np.where(empty, np.nan,
                      running[np.arange(len(t)), np.maximum(count - 1, 0)])

    lo, hi = t[-1] / 2.0, t[-1]
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
    t_floor: float

    @property
    def ordered(self) -> bool:
        """Margin nonnegative within 2 SE at times past the floor.

        Early times are excluded: there the spatial minimum's
        selection bias (min over many near-tied cells) dwarfs its per-cell
        standard error, so a 2 SE band is not a meaningful test.
        """
        mask = self.times >= self.t_floor
        return bool(np.all(self.margin[mask]
                           >= -2.0 * self.margin_se[mask] - 1e-12))


def renewal_check(series: MomentSeries, weight, c3: float,
                  c4: float) -> RenewalCheck:
    """Compare the estimated inf-moment against the renewal comparison
    solution f = c3 + c4 (w * f) on the series' own time grid; `weight` is
    the callable w that `renewal_solve` evaluates.  The margin is reported
    everywhere; the pass verdict applies from 10% of the horizon on."""
    t = series.times
    require(np.all(series.inf_mean > 0.0), "inf_mean",
            float(np.min(series.inf_mean)), "(0, inf)")
    if t[0] != 0.0:
        raise DomainError("series times must start at 0")
    dt = float(t[1] - t[0])
    if not np.allclose(np.diff(t), dt):
        raise DomainError("series time grid must be uniform")
    rp = RenewalProblem(c3=c3, c4=c4, horizon=float(t[-1]), dt=dt,
                        weight=weight)
    sol = renewal_solve(rp)
    margin = series.inf_mean - sol.f
    fitted = lyapunov_fit(series).lower
    return RenewalCheck(times=t, f=sol.f, margin=margin,
                        margin_se=series.inf_se, beta1=sol.beta1,
                        fitted_lower_slope=fitted, c3=c3, c4=c4,
                        t_floor=0.1 * float(t[-1]))
