"""Scalar channel-gain priors shared by the generator, the oracle, and the runner.

The angular-domain gain of one (subcarrier, element) pair is modeled as a
two-component mixture: with probability `activation` the element is active
and draws from a zero-mean complex Gaussian whose variance is itself random
(log-uniform spread, normalized so active elements have the configured mean
power); otherwise it draws from a common near-zero variance component
(or is exactly zero for the Bernoulli-Gaussian variant).

`ScalarPrior.sample` draws the gains for the state evolution's sample bank
as their real and imaginary parts, in one fixed order (activity uniforms,
tsgm-lvd's log-uniform precisions, then two standard normals), so the bank
is built in real arithmetic without a complex temporary.

The posterior variance of a gain observed in AWGN depends on the
observation r only through |r|^2, so `posterior_variance_mixture`, which
the state evolution's Monte-Carlo MMSE averages, takes |r|^2 and works in
real arithmetic.

The digamma of the expected logs of Gamma and Beta beliefs lives here too:
`digamma_approx`, ln(x) - 1/(2x), and `digamma_exact`, the package's one
exact digamma, in numpy; `digamma_fn(exact)` picks one.
"""

import math
from dataclasses import dataclass

import numpy as np

VARIANT_LVD = "tsgm-lvd"
VARIANT_TSGM = "tsgm"
VARIANT_BG = "bg"
VARIANTS = (VARIANT_LVD, VARIANT_TSGM, VARIANT_BG)


def loguniform_mean_inverse(lo, hi):
    """E[1/q] for q log-uniform on [lo, hi]."""
    if not (0.0 < lo <= hi):
        raise ValueError(f"invalid log-uniform range ({lo}, {hi})")
    if lo == hi:
        return 1.0 / lo
    return (1.0 / lo - 1.0 / hi) / math.log(hi / lo)


def sample_loguniform_precisions(rng, size, spread, mean_power=1.0):
    """Draw precisions log-uniformly over `spread`, rescaled so that the
    implied variances have expectation `mean_power` exactly."""
    lo, hi = spread
    raw = np.exp(rng.uniform(math.log(lo), math.log(hi), size=size))
    scale = loguniform_mean_inverse(lo, hi) / mean_power
    return raw * scale


@dataclass(frozen=True)
class ScalarPrior:
    """Per-element gain prior used for synthesis and for the MMSE oracle."""

    variant: str = VARIANT_LVD
    activation: float = 0.2
    large_power: float = 1.0
    small_variance: float = 0.01
    spread: tuple = (0.1, 10.0)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown prior variant {self.variant!r}")
        if not 0.0 <= self.activation <= 1.0:
            raise ValueError("activation must lie in [0, 1]")
        if not 0.0 < self.large_power < math.inf:
            raise ValueError(f"large_power must be positive and finite, got {self.large_power}")
        if not 0.0 <= self.small_variance < math.inf:
            raise ValueError(
                f"small_variance must be non-negative and finite, got {self.small_variance}"
            )
        lo, hi = self.spread
        if not 0.0 < lo <= hi < math.inf:
            raise ValueError(f"spread must satisfy 0 < lo <= hi < inf, got {self.spread}")

    @property
    def near_zero_variance(self):
        """Variance of the near-zero component: 0 for bg, whose near-zero
        component is a spike at zero, else `small_variance`."""
        return 0.0 if self.variant == VARIANT_BG else self.small_variance

    def mean_power(self):
        return (self.activation * self.large_power
                + (1.0 - self.activation) * self.near_zero_variance)

    def sample_large_variances(self, rng, size):
        """Variances of active elements: `size` log-uniform draws for
        tsgm-lvd with a wide spread, else the one float `large_power`, with
        no draw."""
        if self.variant != VARIANT_LVD or self.spread[0] == self.spread[1]:
            return float(self.large_power)
        prec = sample_loguniform_precisions(rng, size, self.spread, self.large_power)
        return 1.0 / prec

    def sample(self, rng, size):
        """Draw `size` gains g = s (x + i y) with s = sqrt(var / 2), var the
        drawn component's variance and x, y standard normal; returns
        (g.real, g.imag, large_variances), the last one float when the
        active variance is constant (see `sample_large_variances`).

        The draws come in a fixed order: the activity uniforms, the large
        variances (log-uniform for tsgm-lvd, none otherwise), then x and y.
        The gain is kept as its real and imaginary parts, s x and s y, each
        scaled in place in its normal draw, so no complex array is formed.
        """
        active = rng.random(size) < self.activation
        vlarge = self.sample_large_variances(rng, size)
        scale = np.where(active, vlarge, self.near_zero_variance)
        scale /= 2.0
        np.sqrt(scale, out=scale)
        re = rng.standard_normal(size)
        re *= scale
        im = rng.standard_normal(size)
        im *= scale
        return re, im, vlarge


def posterior_variance_mixture(r_sq, tau, lam, v_large, v_small):
    """Posterior variance of h ~ lam CN(0, v_large) + (1-lam) CN(0, v_small)
    observed through r = h + CN(0, tau), as a function of r_sq = |r|^2.
    v_small = 0 gives the spike-and-slab case.

    With a = v/(v+tau) per component and w the posterior weight of the large
    component, var = w v_large tau/(v_large+tau) + (1-w) v_small tau/(v_small+tau)
    + r_sq w(1-w) (a_large - a_small)^2: the law of total variance, whose
    between-component term is what E|m|^2 - |E m|^2 reduces to.  Real
    arithmetic, vectorized over r_sq (and v_large); returns a new array of
    at least one dimension.
    """
    r_sq = np.atleast_1d(np.asarray(r_sq, dtype=float))
    v_large = np.asarray(v_large, dtype=float)
    s_small = v_small + tau
    c_small = v_small * tau / s_small
    if lam >= 1.0 or lam <= 0.0:
        shape = np.broadcast_shapes(r_sq.shape, np.shape(v_large))
        return np.full(shape, v_large * tau / (v_large + tau) if lam >= 1.0 else c_small)
    # a_large - a_small = tau q, and c_large - c_small = tau^2 q since c = a tau.
    # q and odds are arrays when v_large is one, so they are built in place
    # (a 0-d v_large gives scalars, which the in-place operators rebind).
    odds = v_large + tau
    q = v_large - v_small
    q /= odds
    q /= s_small
    odds *= (1.0 - lam) / (lam * s_small)
    # e = (1-w)/w = odds exp(-r_sq q): the posterior odds against the large
    # component, and w = 1/(1+e).  The cap keeps 1 - w = e w finite where w
    # underflows.
    e = r_sq * q
    np.negative(e, out=e)
    np.exp(e, out=e)
    e *= odds
    np.minimum(e, 1e300, out=e)
    w = e + 1.0
    np.reciprocal(w, out=w)
    # var = c_small + tau^2 q w (1 + r_sq q (1-w)), with 1 - w = e w
    e *= w
    e *= r_sq
    e *= q
    e += 1.0
    e *= w
    e *= q
    e *= tau * tau
    e += c_small
    return e


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
