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

    def mean_power(self):
        small = 0.0 if self.variant == VARIANT_BG else self.small_variance
        return self.activation * self.large_power + (1.0 - self.activation) * small

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
        small = 0.0 if self.variant == VARIANT_BG else self.small_variance
        scale = np.where(active, vlarge, small)
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
