"""Turbo loop coupling the linear estimator with the structured denoiser,
plus the scalar state-evolution predictor.

Each iteration runs the LMMSE stage for all P subcarriers at once through
the stacked pilot operator (one `lmmse_update` call on (N, P) means and (P,)
variances), converts its posterior to an extrinsic message, feeds the
denoiser, and converts the denoiser posterior back.  Both conversions are
one column-wise `extrinsic_split`.  Extrinsic variances are clamped to a cap
instead of ever going non-positive or infinite; the round-trip identity
extrinsic * prior = posterior is monitored inline on the unclamped
subcarriers.

The state-evolution recursion tracks a single variance scalar through the
same two maps: the linear stage in closed form, the denoiser through a
Monte-Carlo estimate of the scalar MMSE under the gain prior (common random
numbers across eta evaluations, so the recursion is deterministic and
smooth for a fixed seed).  The sample bank is held as three real arrays from
which |r|^2 is formed for each eta, the one statistic the posterior variance
depends on.  Each eta walks the bank in blocks of `_BLOCK` draws, small
enough that a block's arrays stay in cache; the estimate is still the mean
over the whole bank.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import as_pilot_set
from .denoiser import PriorConfig, denoise
from .lmmse import extrinsic_split, lmmse_update
from .priors import VARIANT_BG, ScalarPrior, posterior_variance_mixture

# Draws per block of `MmseSampler.__call__`: 256 KiB per float64 array, so
# one block's working set stays in a 2 MiB L2.
_BLOCK = 32768


class SeUndefinedError(RuntimeError):
    """State-evolution map undefined (non-positive effective variance)."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


@dataclass
class AlgoConfig:
    """One turbo algorithm: the denoiser prior plus loop controls."""

    name: str
    prior: PriorConfig
    init_variance: float
    max_iters: int = 15
    early_stop: bool = True
    nmse_tol: float = 1e-6
    reset_beliefs: bool = False


@dataclass
class TurboTrace:
    nmse: list = field(default_factory=list)
    v_a_ext: list = field(default_factory=list)
    v_b_ext: list = field(default_factory=list)
    roundtrip_err: list = field(default_factory=list)
    clamped_a: list = field(default_factory=list)
    clamped_b: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.nmse)


def nmse(estimate, truth):
    """||estimate - truth||^2 / ||truth||^2 (Frobenius)."""
    den = float(np.sum(np.abs(truth) ** 2))
    if den == 0.0:
        raise ValueError("NMSE undefined for an all-zero truth")
    return float(np.sum(np.abs(estimate - truth) ** 2)) / den


def to_db(x):
    return 10.0 * math.log10(max(float(x), 1e-300))


def run_turbo(measurements, pilots, cfg, truth=None):
    """Run the turbo iterations; returns (final_estimate, trace).

    `pilots` is a `PilotSet`, or a sequence of `PilotMatrix` (one per
    subcarrier) that is stacked once here.

    `truth` enables the NMSE trace.  Early stopping compares consecutive
    NMSE values when `truth` is given; otherwise it stops once the relative
    change of the estimate, ||h_t - h_{t-1}||^2 / ||h_{t-1}||^2, falls below
    `nmse_tol`.
    """
    pilots = as_pilot_set(pilots)
    Y = measurements.Y
    sigma2 = measurements.noise_variance
    P = Y.shape[1]
    if len(pilots) != P:
        raise ValueError("need one pilot operator per subcarrier")
    N = pilots.N
    h_pri_a = np.zeros((N, P), dtype=np.complex128)
    v_pri_a = np.full(P, float(cfg.init_variance))
    state = None
    trace = TurboTrace()
    h_final = np.zeros((N, P), dtype=np.complex128)
    prev_metric = None
    for it in range(1, cfg.max_iters + 1):
        # linear stage, all subcarriers at once (FFT-based)
        h_post_a, v_post_a = lmmse_update(Y, pilots, h_pri_a, v_pri_a, sigma2)
        h_pri_b, v_pri_b, clamped_a, rt_a = extrinsic_split(h_post_a, v_post_a, h_pri_a, v_pri_a)

        # denoiser stage
        h_post_b, v_post_b, new_state = denoise(
            h_pri_b, v_pri_b, cfg.prior, None if cfg.reset_beliefs else state
        )
        state = new_state
        h_pri_a, v_pri_a, clamped_b, rt_b = extrinsic_split(h_post_b, v_post_b, h_pri_b, v_pri_b)
        if not (np.isfinite(h_pri_a).all() and np.isfinite(v_pri_a).all()):
            raise RuntimeError(f"non-finite turbo state at iteration {it}")

        trace.v_a_ext.append(v_pri_b.copy())
        trace.v_b_ext.append(v_pri_a.copy())
        trace.roundtrip_err.append(max(rt_a, rt_b))
        trace.clamped_a.append(int(clamped_a.sum()))
        trace.clamped_b.append(int(clamped_b.sum()))
        if truth is not None:
            metric = nmse(h_post_b, truth)
            converged = it > 1 and abs(metric - prev_metric) < cfg.nmse_tol
            prev_metric = metric
        else:
            metric = float("nan")
            converged = it > 1 and _relative_change(h_post_b, h_final) < cfg.nmse_tol
        h_final = h_post_b
        trace.nmse.append(metric)
        if cfg.early_stop and converged:
            break
    return h_final, trace


def _relative_change(new, old):
    """||new - old||^2 / ||old||^2; 0 when the two are equal, inf when only
    `old` is zero."""
    num = float(np.sum(np.abs(new - old) ** 2))
    if num == 0.0:
        return 0.0
    den = float(np.sum(np.abs(old) ** 2))
    return num / den if den > 0.0 else math.inf


# --------------------------------------------------------------------------
# state evolution
# --------------------------------------------------------------------------

def posterior_moments_mixture(r_sq, tau, lam, v_large, v_small):
    """The sampler's kernel call: `posterior_variance_mixture` on one block
    of the bank, returned as a one-element tuple (the per-draw variances).

    `perfbench/tracing.py` times the kernel as its `priors.mixture_moments`
    span by wrapping this module-level name and counts the samples as the
    size of the first returned array, so the span counts one call per block
    and the samples of the whole bank; the name and the tuple keep that span
    until the benchmark wraps `posterior_variance_mixture` itself.
    """
    return (posterior_variance_mixture(r_sq, tau, lam, v_large, v_small),)


class MmseSampler:
    """Monte-Carlo scalar MMSE of the gain prior observed in AWGN.

    A frozen sample bank is reused across eta evaluations (common random
    numbers), and the error is Rao-Blackwellized: the estimator averages the
    exact posterior variance given each noisy draw rather than a squared
    error, which removes most of the Monte-Carlo noise.

    The posterior variance depends on the draw r = g + sqrt(tau) n only
    through |r|^2 = |g|^2 + sqrt(tau) (2 Re(g conj(n)) + sqrt(tau) |n|^2), so
    the bank keeps the three real arrays |g|^2, 2 Re(g conj(n)) and |n|^2 of
    the drawn gains g and unit noise n, plus the active-component variances
    (one scalar when they are all equal).

    A call forms |r|^2 and runs the kernel one block of `_BLOCK` draws at a
    time (a bank smaller than a block is one block), writing each block's
    per-draw variances into one bank-sized array.  The estimate and its
    standard error are taken over that whole array, so they do not depend on
    the block size.
    """

    def __init__(self, prior: ScalarPrior, num_samples=200_000, seed=1234):
        if num_samples < 2:
            raise ValueError("num_samples must be at least 2")
        rng = np.random.default_rng(seed)
        gains, _, v_large = prior.sample(rng, num_samples)
        # n = (a + i b) / sqrt(2)
        a = rng.standard_normal(num_samples)
        b = rng.standard_normal(num_samples)
        self.prior = prior
        self.gain_sq = gains.real ** 2 + gains.imag ** 2
        self.cross = math.sqrt(2.0) * (gains.real * a + gains.imag * b)
        self.noise_sq = 0.5 * (a * a + b * b)
        self.v_large = v_large[0] if (v_large == v_large[0]).all() else v_large
        self.v_small = 0.0 if prior.variant == VARIANT_BG else prior.small_variance

    def __call__(self, eta):
        if eta <= 0.0:
            raise ValueError("eta must be positive")
        tau = 1.0 / eta
        root = math.sqrt(tau)
        lam, v_small = self.prior.activation, self.v_small
        per_draw = np.ndim(self.v_large) > 0
        var = np.empty(self.gain_sq.size)
        for start in range(0, var.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            r_sq = self.noise_sq[block] * root
            r_sq += self.cross[block]
            r_sq *= root
            r_sq += self.gain_sq[block]
            v_large = self.v_large[block] if per_draw else self.v_large
            (var[block],) = posterior_moments_mixture(r_sq, tau, lam, v_large, v_small)
        est = float(var.mean())
        var -= est
        # einsum rather than a BLAS dot: a threaded BLAS can spend milliseconds
        # waking its threads for this one product
        stderr = math.sqrt(float(np.einsum("i,i->", var, var)) / ((var.size - 1) * var.size))
        return est, stderr


def linear_stage_eta(v, sigma2, N, M):
    """Effective precision after the linear stage's extrinsic division."""
    denom = (N / M) * (v + sigma2) - v
    if denom <= 0.0:
        raise SeUndefinedError(
            f"SE map undefined at the linear stage: (N/M)(v+sigma2)-v = {denom} <= 0"
        )
    return 1.0 / denom


def se_step(v, sigma2, N, M, mmse_fn):
    """One state-evolution step; returns (eta, mmse_value, v_next)."""
    eta = linear_stage_eta(v, sigma2, N, M)
    m, _ = mmse_fn(eta)
    if not (m > 0.0 and math.isfinite(m)):
        raise SeUndefinedError(
            f"SE map undefined at the denoiser stage: mmse = {m} is not positive and finite"
        )
    inv_next = 1.0 / m - eta
    if inv_next <= 0.0:
        raise SeUndefinedError(
            f"SE map undefined at the denoiser stage: 1/mmse - eta = {inv_next} <= 0"
        )
    return eta, m, 1.0 / inv_next


@dataclass
class SeTrace:
    rows: list = field(default_factory=list)  # (iter, v, eta, predicted_nmse)
    converged: bool = False

    @property
    def fixed_point_nmse(self):
        return self.rows[-1][3]


def run_state_evolution(prior, snr_db, N, M, max_iters=100, tol=1e-8,
                        num_samples=200_000, seed=1234, v_init=None, sampler=None):
    """Iterate the two-map recursion to a fixed point.

    The noise variance is derived from the ensemble mean power of the prior
    (per-sample signal power equals the prior mean power for the
    row-orthonormal pilot family).  Rows carry the post-iteration variance.
    `sampler` is an `MmseSampler` already built for `prior`, which lets
    several runs share one sample bank; without it a bank of `num_samples`
    is drawn from `seed`.  snr_db = +inf is noiseless; -inf raises
    `ValueError`.
    """
    if snr_db == -math.inf:
        raise ValueError("snr_db = -inf has no finite noise variance")
    power = prior.mean_power()
    sigma2 = 0.0 if snr_db == math.inf else power / 10.0 ** (snr_db / 10.0)
    if sampler is None:
        sampler = MmseSampler(prior, num_samples, seed)
    v = power if v_init is None else float(v_init)
    trace = SeTrace()
    for it in range(1, max_iters + 1):
        try:
            eta, m, v_next = se_step(v, sigma2, N, M, sampler)
        except SeUndefinedError as err:
            raise SeUndefinedError(str(err), iteration=it) from None
        trace.rows.append((it, v_next, eta, m / power))
        if abs(v_next - v) / max(v, 1e-300) < tol:
            trace.converged = True
            v = v_next
            break
        v = v_next
    return trace
