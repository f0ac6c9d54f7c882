"""Levy jump measures and space-time Poisson-random-measure sampling.

Measures come in two finite-activity variants: a finite list of atoms, or a
symmetric truncated power density amplitude * |z|^(-1-gamma) on
delta_in <= |z| <= M.  Moments and drift have closed forms.  Increments are
sampled on a regular space-time grid of cells; streams are keyed by
(seed, replica_index) through a counter-based Philox generator, so identical
keys reproduce identical fields and replicas sample independently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Finite-activity jump measure: atoms or truncated power density."""

    variant: str = "atoms"                      # "atoms" | "truncated_power"
    atoms: tuple = ((1.0, 1.0), (-1.0, 1.0))    # ((z, mass), ...)
    gamma_exp: float = 0.5
    delta_in: float = 0.1
    outer_cut: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.variant == "atoms":
            if not self.atoms:
                raise ValidationError("levy.atoms", "measure must be nonzero")
            for z, m in self.atoms:
                if z == 0.0:
                    raise ValidationError("levy.atoms", "atom at z = 0 is not a jump")
                if m <= 0.0:
                    raise ValidationError("levy.atoms", f"atom mass must be > 0, got {m}")
        elif self.variant == "truncated_power":
            if self.delta_in <= 0.0:
                raise ValidationError("levy.delta_in", "inner cutoff must be > 0")
            if self.outer_cut <= self.delta_in:
                raise ValidationError("levy.outer", "outer cutoff must exceed delta_in")
            if self.amplitude <= 0.0:
                raise ValidationError("levy.amplitude", "amplitude must be > 0")
        else:
            raise ValidationError("levy.kind", f"unknown variant {self.variant!r}")

    # -- closed-form functionals ------------------------------------------

    def _power_moment(self, p: float, lo: float, hi: float) -> float:
        """int_lo^hi z^p * amplitude z^(-1-gamma) dz for one side."""
        a = p - self.gamma_exp
        if abs(a) < 1e-14:
            return self.amplitude * math.log(hi / lo)
        return self.amplitude * (hi ** a - lo ** a) / a

    def moment(self, p: float) -> float:
        """int |z|^p lambda(dz); finite for every p >= 0 by construction."""
        if p < 0.0:
            raise DomainError("moment order p must be >= 0")
        if self.variant == "atoms":
            return sum(m * abs(z) ** p for z, m in self.atoms)
        return 2.0 * self._power_moment(p, self.delta_in, self.outer_cut)

    def total_mass(self) -> float:
        return self.moment(0.0)

    def mass_above(self, delta: float) -> float:
        """lambda([-delta, delta]^c)."""
        if self.variant == "atoms":
            return sum(m for z, m in self.atoms if abs(z) > delta)
        lo = max(delta, self.delta_in)
        if lo >= self.outer_cut:
            return 0.0
        return 2.0 * self._power_moment(0.0, lo, self.outer_cut)

    def moment_above(self, p: float, delta: float) -> float:
        """int_{|z| > delta} |z|^p lambda(dz)."""
        if self.variant == "atoms":
            return sum(m * abs(z) ** p for z, m in self.atoms if abs(z) > delta)
        lo = max(delta, self.delta_in)
        if lo >= self.outer_cut:
            return 0.0
        return 2.0 * self._power_moment(p, lo, self.outer_cut)

    def first_moment(self) -> float:
        """int z lambda(dz); zero for symmetric specs by construction."""
        if self.variant == "truncated_power":
            return 0.0
        return sum(m * z for z, m in self.atoms)

    @property
    def symmetric(self) -> bool:
        if self.variant == "truncated_power":
            return True
        bag: dict = {}
        for z, m in self.atoms:
            bag[z] = bag.get(z, 0.0) + m
        return all(abs(bag.get(-z, 0.0) - m) < 1e-15 * max(m, 1.0)
                   for z, m in bag.items())

    # -- sampling ----------------------------------------------------------

    def sample_sizes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. jump sizes from lambda / lambda(R)."""
        if n == 0:
            return np.empty(0)
        if self.variant == "atoms":
            zs = np.array([z for z, m in self.atoms])
            ms = np.array([m for z, m in self.atoms])
            return rng.choice(zs, size=n, p=ms / ms.sum())
        lo = self.delta_in
        g = self.gamma_exp
        u = rng.random(n)
        if abs(g) < 1e-14:
            mag = lo * (self.outer_cut / lo) ** u
        else:
            mag = (lo ** -g - u * (lo ** -g - self.outer_cut ** -g)) ** (-1.0 / g)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return sign * mag


def drift_b(spec: LevyMeasureSpec) -> float:
    """b = int_{|z| >= 1} z lambda(dz); exactly zero for symmetric specs."""
    if spec.symmetric:
        return 0.0
    return sum(m * z for z, m in spec.atoms if abs(z) >= 1.0)


@dataclass(frozen=True)
class NoiseGrid:
    """Regular space-time lattice of sampling cells plus the stream key."""

    dt: float
    dx: float
    n_t: int
    n_x: int
    seed: int = 0
    replica_index: int = 0

    def __post_init__(self):
        if self.dt <= 0.0 or self.dx <= 0.0:
            raise ValidationError("grid", "dt and dx must be positive")
        if self.n_t < 1 or self.n_x < 1:
            raise ValidationError("grid", "n_t and n_x must be >= 1")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        self.replica_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass
class IncrementField:
    """Per-cell noise increments over one replica of the grid.

    cells, sums     : the cells (flat indices into (n_t, n_x), ascending)
                      that hold at least one jump, and the sum of their jump
                      sizes, added in draw order
    compensator     : dt dx int z lambda(dz), the same in every cell
    gaussian[k, j]  : rho * sqrt(dt dx) * N(0, 1), 0.0 when rho = 0
    """

    grid: NoiseGrid
    cells: np.ndarray
    sums: np.ndarray
    compensator: float
    gaussian: np.ndarray | float
    rho: float = 0.0

    @property
    def jump_sum(self) -> np.ndarray:
        """Dense (n_t, n_x) sum of jump sizes per cell, 0.0 where none."""
        out = np.zeros((self.grid.n_t, self.grid.n_x))
        out.reshape(-1)[self.cells] = self.sums
        return out

    def combined(self, b: float = 0.0) -> np.ndarray:
        """Compensated jumps plus drift and Gaussian part: the cell measure
        of the driving noise, Lambda(cell)."""
        return (self.jump_sum - self.compensator
                + b * self.grid.dt * self.grid.dx + self.gaussian)


def sample_increments(spec: LevyMeasureSpec, grid: NoiseGrid,
                      rho: float = 0.0) -> IncrementField:
    """Draw one replica of the cell-lumped space-time noise.

    Per cell: N ~ Poisson(dt dx lambda(R)) jumps with sizes i.i.d. from
    lambda / lambda(R); the compensator dt dx int z lambda makes the
    compensated field mean zero; the Gaussian part is scaled by rho.
    The counts are drawn as one Poisson total over the grid with each jump
    placed in a uniform cell: given the total, the points of a Poisson
    process are i.i.d. uniform (Kingman, Poisson Processes, 1993, sec. 2.4),
    so the per-cell counts are independent Poisson(dt dx lambda(R)), and the
    cost is O(jumps) instead of O(cells).  The jumps are kept as (cell,
    summed size) pairs; jump positions inside a cell are not tracked.  The
    whole field is a pure function of (spec, grid, rho).
    """
    if rho < 0.0:
        raise DomainError("rho must be >= 0")
    rng = grid.generator()
    cell = grid.dt * grid.dx
    shape = (grid.n_t, grid.n_x)
    n_cells = grid.n_t * grid.n_x
    total = int(rng.poisson(spec.total_mass() * cell * n_cells))
    cell_of_jump = np.sort(rng.integers(0, n_cells, total))
    sizes = spec.sample_sizes(rng, total)
    first = np.ones(total, dtype=bool)
    first[1:] = cell_of_jump[1:] != cell_of_jump[:-1]
    # bincount adds each cell's sizes in draw order, as a dense bincount does
    sums = np.bincount(np.cumsum(first) - 1, weights=sizes)
    if rho > 0.0:
        gauss = rho * math.sqrt(cell) * rng.standard_normal(shape)
    else:
        gauss = 0.0
    return IncrementField(grid=grid, cells=cell_of_jump[first], sums=sums,
                          compensator=cell * spec.first_moment(),
                          gaussian=gauss, rho=rho)
