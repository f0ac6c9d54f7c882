"""Levy jump measures and the jump draw of one noise replica.

Measures come in two finite-activity variants: a finite list of atoms, or a
symmetric truncated power density amplitude * |z|^(-1-gamma) on
delta_in <= |z| <= M.  Moments and drift have closed forms.  `sample_jumps`
draws the compound-Poisson jumps of one replica over a block of equal cells
from a generator it is handed; `solver.sample_noise` keys that generator by
(seed, replica) and turns the jumps into the cell noise the stepper reads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, reject_unread, require


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Finite-activity jump measure: atoms or truncated power density.  A
    field the variant does not read must keep its default."""

    variant: str = "atoms"                      # "atoms" | "truncated_power"
    atoms: tuple = ((1.0, 1.0), (-1.0, 1.0))    # ((z, mass), ...)
    gamma_exp: float = 0.5
    delta_in: float = 0.1
    outer_cut: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.variant == "atoms":
            if not self.atoms:
                raise ValidationError("atoms", "measure must be nonzero")
            for z, m in self.atoms:
                require(0.0 < abs(z) < math.inf and 0.0 < m < math.inf,
                        "atoms", (z, m), "jumps z != 0 with masses in (0, inf)")
        elif self.variant == "truncated_power":
            require(math.isfinite(self.gamma_exp), "gamma_exp",
                    self.gamma_exp, "(-inf, inf)")
            require(0.0 < self.delta_in < math.inf, "delta_in", self.delta_in,
                    "(0, inf)")
            require(self.delta_in < self.outer_cut < math.inf, "outer_cut",
                    self.outer_cut, "(delta_in, inf)")
            require(0.0 < self.amplitude < math.inf, "amplitude",
                    self.amplitude, "(0, inf)")
        else:
            raise ValidationError("variant", f"unknown variant {self.variant!r}")
        reject_unread(self, self.variant, {
            "atoms": ("gamma_exp", "delta_in", "outer_cut", "amplitude"),
            "truncated_power": ("atoms",)})

    # -- closed-form functionals ------------------------------------------

    def moment(self, p: float) -> float:
        """int |z|^p lambda(dz); finite for every p >= 0 by construction."""
        return self.moment_above(p, 0.0)

    def total_mass(self) -> float:
        return self.moment_above(0.0, 0.0)

    def mass_above(self, delta: float) -> float:
        """lambda([-delta, delta]^c)."""
        return self.moment_above(0.0, delta)

    def moment_above(self, p: float, delta: float) -> float:
        """int_{|z| > delta} |z|^p lambda(dz).  The three above are exact
        cases of it: no atom sits at z = 0, and |z| ** 0.0 is exactly 1."""
        require(0.0 <= p < math.inf, "p", p, "[0, inf)")
        require(0.0 <= delta < math.inf, "delta", delta, "[0, inf)")
        if self.variant == "atoms":
            return sum(m * abs(z) ** p for z, m in self.atoms if abs(z) > delta)
        lo, hi = max(delta, self.delta_in), self.outer_cut
        if lo >= hi:
            return 0.0
        a = p - self.gamma_exp      # both sides of amplitude |z|^(p-1-gamma)
        if abs(a) < 1e-14:
            return 2.0 * self.amplitude * math.log(hi / lo)
        return 2.0 * self.amplitude * (hi ** a - lo ** a) / a

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


def cell_base(spec: LevyMeasureSpec, dt: float, dx: float) -> float:
    """dLambda of a dt x dx cell besides its jumps and Gaussian term: the
    compensator and drift, (0 - dt dx int z lambda(dz)) + b dt dx."""
    return (0.0 - dt * dx * spec.first_moment()) + drift_b(spec) * dt * dx


def sample_jumps(spec: LevyMeasureSpec, rng: np.random.Generator,
                 cell: float, n_cells: int) -> tuple:
    """Jumps of one replica over n_cells cells of volume `cell`, as
    (cells, sums): the occupied cells in ascending order and the sum of
    each one's jump sizes, added in draw order.

    The per-cell counts are drawn as one Poisson(cell n_cells lambda(R))
    total with each jump placed in a uniform cell: given the total, the
    points of a Poisson process are i.i.d. uniform (Kingman, Poisson
    Processes, 1993, sec. 2.4), so the counts are independent
    Poisson(cell lambda(R)) and the cost is O(jumps) instead of O(cells).
    Sizes are i.i.d. from lambda / lambda(R); positions inside a cell are
    not tracked.
    """
    total = int(rng.poisson(spec.total_mass() * cell * n_cells))
    cell_of_jump = np.sort(rng.integers(0, n_cells, total))
    sizes = spec.sample_sizes(rng, total)
    first = np.ones(total, dtype=bool)
    first[1:] = cell_of_jump[1:] != cell_of_jump[:-1]
    # bincount adds each cell's sizes in draw order, as a dense bincount does
    return cell_of_jump[first], np.bincount(np.cumsum(first) - 1, weights=sizes)
