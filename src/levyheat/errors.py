"""Exception types shared across the package, and the one domain check.

Every entry point checks a numeric argument with `require(ok, name,
value, domain)`, `ok` the in-range test: `0.0 < p < math.inf`, or
`math.isfinite(x)` on the whole line.  It is False for NaN and for an
infinite value, so neither can pass.  A count's test is `is_count(n,
low)`, which refuses a float such as 4.0 before any arithmetic on it.  A
failure raises a ValidationError, a DomainError that carries the name:
`p: must lie in (0, inf), got nan`.
"""

from numbers import Integral


class DomainError(ValueError):
    """An argument is outside the admissible range of a formula."""


class PoleError(DomainError):
    """Evaluation exactly at a pole (Gamma at a non-positive integer)."""


class OverflowSignal(OverflowError):
    """Result exceeds the representable double range."""


class DivergenceError(DomainError):
    """Evaluation at an argument where the function diverges (K_nu at 0)."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge; carries the achieved estimate."""

    def __init__(self, message, estimate=None, value=None):
        super().__init__(message)
        self.estimate = estimate
        self.value = value


class NoRootError(RuntimeError):
    """Bisection target not reached within the search ceiling."""


class BlowupError(RuntimeError):
    """Solver field exceeded the blow-up guard; carries the offending index."""

    def __init__(self, step, cell, value):
        super().__init__(
            f"field blow-up at step {step}, cell {cell}: |X| = {value:.3e}"
        )
        self.step = step
        self.cell = cell
        self.value = value


class ValidationError(DomainError):
    """An argument or config value outside its domain; carries the name or
    key path and the message apart."""

    def __init__(self, key_path, message):
        super().__init__(f"{key_path}: {message}")
        self.key_path = key_path
        self.message = message


class DegenerateMeasureError(DomainError):
    """Levy measure carries no mass where the operation requires it."""


def require(ok, name: str, value, domain: str) -> None:
    """Raise a ValidationError naming `name` unless `ok` (see above)."""
    if not ok:
        raise ValidationError(name, f"must lie in {domain}, got {value!r}")


def is_count(n, low: int) -> bool:
    """True for an integer at least `low`, a numpy integer included."""
    return isinstance(n, Integral) and n >= low


def reject_unread(spec, kind: str, unread: dict) -> None:
    """Raise a ValidationError naming the first field of `unread[kind]` that
    `spec` sets away from its class default: its kind does not read that
    field, so the value would change nothing but the config hash."""
    for name in unread[kind]:
        if getattr(spec, name) != getattr(type(spec), name):
            raise ValidationError(name, f"kind {kind!r} does not read it")
