"""Scalar belief types, expected logarithms and the digamma.

The denoiser reads only `digamma_fn`; the belief types `GammaBelief` and
`BetaBelief` and the expected logarithms `beta_log_expectations` and
`gamma_log_mean` serve the factor-graph engine.

Gamma beliefs are parameterized by (shape, rate) on a precision, Beta
beliefs by the usual pseudo-counts.  The digamma approximation
ln(x) - 1/(2x) is the default everywhere an expected logarithm of a
Gamma/Beta variable is needed; the exact digamma is available behind a
flag.  It is the package's one exact digamma (the factor-graph engine calls
it too), computed in numpy by a recurrence and an asymptotic series.  The
expected logarithms take raw parameters.
Discrete messages live in `factorgraph`; the Gaussian extrinsic division
is `lmmse.extrinsic_split`.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GammaBelief:
    """Gamma belief Ga(shape, rate) over a precision.

    The rate may be 0: a mixture observation whose squared observations or
    exponents vanish sends such a message, flat in the rate direction.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.rate >= 0.0):
            raise ValueError(f"need shape > 0 and rate >= 0, got ({self.shape}, {self.rate})")

    def mean(self):
        return self.shape / self.rate


@dataclass(frozen=True)
class BetaBelief:
    """Beta belief with pseudo-counts (a, b) for (success, failure)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"pseudo-counts must be positive, got ({self.a}, {self.b})")


def digamma_approx(x):
    """ln(x) - 1/(2x), the asymptotic digamma approximation.

    Only defined for x > 0.  Accepts scalars or arrays.  NaN gives NaN and
    +inf gives inf; below about 2.8e-309, where 1/(2x) overflows, it gives
    -inf without a warning, as `digamma_exact` does.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("digamma_approx requires x > 0")
    with np.errstate(over="ignore"):
        out = np.log(x) - 0.5 / x
    return out if out.ndim else float(out)


# psi(x) = psi(x + 10) - sum_{k < 10} 1/(x + k), and at y = x + 10 the
# asymptotic series psi(y) = ln y - 1/(2y) - sum_k B_2k / (2k y^2k) through
# y^-14 is exact to double precision; its coefficients -B_2k / (2k), k = 7..1.
_PSI_SHIFT = 10
_PSI_SERIES = (-1.0 / 12.0, 691.0 / 32760.0, -1.0 / 132.0, 1.0 / 240.0,
               -1.0 / 252.0, 1.0 / 120.0, -1.0 / 12.0)


def digamma_exact(x):
    """Exact digamma, same domain contract as digamma_approx.

    Its relative error is below 1e-13, except near the root at 1.4616,
    where its absolute error is below 1e-15.  NaN gives NaN and +inf gives
    inf; below about 5.6e-309, where psi(x) ~ -1/x overflows, it gives -inf
    without a warning.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("digamma_exact requires x > 0")
    with np.errstate(over="ignore"):
        shift = sum(1.0 / (x + k) for k in range(_PSI_SHIFT))
    y = x + _PSI_SHIFT
    z = 1.0 / y
    z2 = z * z
    out = np.log(y) - 0.5 * z + np.polyval(_PSI_SERIES, z2) * z2 - shift
    return out if out.ndim else float(out)


def digamma_fn(exact=False):
    return digamma_exact if exact else digamma_approx


def beta_log_expectations(a, b, exact=False):
    """(E[ln p], E[ln(1-p)]) under Beta(a, b).

    Uses the ln(x) - 1/(2x) approximation by default, the exact digamma
    when exact=True.  NaN pseudo-counts give NaN, not an error, so a
    non-finite turbo state reaches the turbo loop's finiteness check.
    """
    psi = digamma_fn(exact)
    tot = psi(a + b)
    return psi(a) - tot, psi(b) - tot


def gamma_log_mean(shape, rate, exact=False):
    """E[ln v] under Ga(shape, rate), for a scalar rate."""
    psi = digamma_fn(exact)
    return psi(shape) - math.log(rate)
