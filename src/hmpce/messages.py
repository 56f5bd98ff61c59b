"""Scalar message types and algebra shared by the denoiser and the
factor-graph engine.

Complex-Gaussian messages are parameterized by (mean, variance) with the
circularly-symmetric convention, Gamma beliefs by (shape, rate) on a
precision, Beta beliefs by the usual pseudo-counts.  The digamma
approximation ln(x) - 1/(2x) is the default everywhere an expected
logarithm of a Gamma/Beta variable is needed; the exact digamma is
available behind a flag.  The expected logarithms take raw parameters.
Discrete messages live in `factorgraph`; the Gaussian extrinsic division
is `lmmse.extrinsic_split`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma as _digamma_exact


@dataclass(frozen=True)
class GaussianMsg:
    """Circular complex Gaussian message with scalar variance."""

    mean: complex
    variance: float

    def __post_init__(self):
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if not (math.isfinite(self.mean.real) and math.isfinite(self.mean.imag)):
            raise ValueError(f"mean must be finite, got {self.mean}")


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

    Only defined for x > 0.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("digamma_approx requires x > 0")
    out = np.log(x) - 0.5 / x
    return out if out.ndim else float(out)


def digamma_exact(x):
    """Exact digamma, same domain contract as digamma_approx."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("digamma_exact requires x > 0")
    out = _digamma_exact(x)
    return out if np.ndim(out) else float(out)


def digamma_fn(exact=False):
    return digamma_exact if exact else digamma_approx


def gaussian_multiply(a, b):
    """Product of two Gaussian messages (precision-weighted combination)."""
    denom = a.variance + b.variance
    variance = a.variance * b.variance / denom
    mean = (a.mean * b.variance + b.mean * a.variance) / denom
    return GaussianMsg(mean, variance)


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
