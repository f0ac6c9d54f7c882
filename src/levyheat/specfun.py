"""Special functions: Gamma/Beta, two-parameter Mittag-Leffler, modified Bessel K.

Everything here is a pure function of its arguments and safe to call
concurrently.  gamma_fn and bessel_k wrap math.gamma and scipy.special.kv
and add the package's error types at poles, divergences and overflow.
Precision targets: gamma_fn relative error <= 1e-15 on (0, 50], bessel_k
<= 1e-13 for |nu| <= 5, 1e-3 <= x <= 50 (against 40-digit mpmath),
mittag_leffler relative error <= 1e-10 inside the series-safe region.
"""

import math

from scipy.special import kv

from .errors import DivergenceError, DomainError, OverflowSignal, PoleError

# Switch point of the Mittag-Leffler evaluation: series while the terms
# decay before this index and z**(1/a) stays below the cap.
ML_SERIES_MAX_TERMS = 200
ML_SERIES_ARG_CAP = 30.0


def gamma_fn(x: float) -> float:
    """Gamma function.

    Raises PoleError at non-positive integers and OverflowSignal when the
    value exceeds the double range (x > ~171.6).
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"Gamma pole at non-positive integer x = {x}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise OverflowSignal(f"Gamma({x}) overflows double range") from exc


def lgamma_fn(x: float) -> float:
    """log |Gamma(x)|; used where Gamma itself would overflow."""
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"Gamma pole at non-positive integer x = {x}")
    return math.lgamma(x)


def beta_fn(p: float, q: float) -> float:
    """Beta function B(p, q) = Gamma(p) Gamma(q) / Gamma(p + q) for p, q > 0."""
    if p <= 0.0 or q <= 0.0:
        raise DomainError("beta_fn requires p > 0 and q > 0")
    return math.exp(lgamma_fn(p) + lgamma_fn(q) - lgamma_fn(p + q))


def _validate_ml(a: float, b: float) -> None:
    if not (a > 0.0):
        raise DomainError(f"Mittag-Leffler parameter a must be > 0, got {a}")
    if not (b > 0.0):
        raise DomainError(f"Mittag-Leffler parameter b must be > 0, got {b}")


def ml_series(a: float, b: float, z: float, max_terms: int = ML_SERIES_MAX_TERMS,
              rtol: float = 1e-16) -> float:
    """Partial sums of sum_n z^n / Gamma(a n + b), in log space.

    Converges for every finite z; `max_terms` caps the work and an
    OverflowSignal is raised if terms stop fitting in doubles.  This is the
    raw engine; `mittag_leffler` wraps it with the series/asymptotic switch.
    """
    _validate_ml(a, b)
    z = float(z)
    if z == 0.0:
        return 1.0 / gamma_fn(b)
    log_absz = math.log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0
    total = 0.0
    peak = -math.inf
    for n in range(max_terms):
        log_term = n * log_absz - lgamma_fn(a * n + b)
        if log_term > 709.0:
            raise OverflowSignal(
                f"Mittag-Leffler series term overflows at n={n} (a={a}, b={b}, z={z})"
            )
        term = math.exp(log_term) * (sign_z ** n)
        total += term
        peak = max(peak, log_term)
        # stop once terms are decaying and negligible relative to the sum
        if n > 1 and log_term < peak and abs(term) <= rtol * max(abs(total), 1e-300):
            return total
    raise DomainError(
        f"Mittag-Leffler series did not converge within {max_terms} terms "
        f"(a={a}, b={b}, z={z})"
    )


def ml_asymptotic(a: float, b: float, z: float) -> float:
    """Leading exponential asymptotic (1/a) z^((1-b)/a) exp(z^(1/a)).

    Valid for a in (0, 2), b > 0 and large positive z; the first algebraic
    correction is dropped.
    """
    _validate_ml(a, b)
    if not (0.0 < a < 2.0):
        raise DomainError(f"asymptotic regime requires a in (0,2), got {a}")
    if not (z > 0.0):
        raise DomainError(f"asymptotic regime requires z > 0, got {z}")
    log_val = (1.0 - b) / a * math.log(z) + z ** (1.0 / a) - math.log(a)
    if log_val > 709.0:
        raise OverflowSignal(f"Mittag-Leffler value overflows (log ~ {log_val:.1f})")
    return math.exp(log_val)


def mittag_leffler(a: float, b: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{a,b}(z) for real z.

    Uses the defining series while the terms decay before index
    ML_SERIES_MAX_TERMS and z^(1/a) < ML_SERIES_ARG_CAP; for larger positive
    z with a in (0, 2) it switches to the exponential asymptotic (relative
    error there is O(1/z), flagged in the docstring rather than returned).
    """
    _validate_ml(a, b)
    z = float(z)
    if z > 0.0 and 0.0 < a < 2.0 and z ** (1.0 / a) >= ML_SERIES_ARG_CAP:
        return ml_asymptotic(a, b, z)
    return ml_series(a, b, z)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    nu is canonicalized to |nu| (K_nu = K_{-nu} holds exactly at the
    interface).
    """
    nu = abs(float(nu))
    x = float(x)
    if x < 0.0:
        raise DomainError(f"bessel_k requires x >= 0, got {x}")
    if x == 0.0:
        raise DivergenceError("K_nu(x) diverges as x -> 0 for every nu")
    return float(kv(nu, x))
