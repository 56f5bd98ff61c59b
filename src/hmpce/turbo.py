"""Turbo loop coupling the linear estimator with the structured denoiser,
plus the scalar state-evolution predictor.

`run_turbo_batch` runs B independent turbo runs, called members, that
share one `PilotSet`, on arrays with the member axis first: means
(B, N, P), variances (B, P), measurements (B, M, P).  Member b's block [b]
of each is C-contiguous, with the layout of its run alone.  `run_turbo` is
its one-member call, and given a list of measurement sets it is the batch
itself (the CLI's calls, which run each sweep's SNR points as one batch).
Each iteration runs the LMMSE stage for all subcarriers of all members at
once (one `lmmse_update` call with one noise variance per member),
converts its posterior to an extrinsic message, feeds the denoiser, whose
state holds the B members, and converts the denoiser posterior back.  Both
conversions are one `extrinsic_split`.  Extrinsic variances are clamped to
a cap instead of ever going non-positive or infinite; the round-trip
identity extrinsic * prior = posterior is monitored inline on each member's
unclamped subcarriers.  Early stopping, the NMSE, the clamp counts and the
round-trip error are per member, and a member that stops, or whose state
goes non-finite, is removed from every array with one `np.take` along the
member axis.  Every member's estimate and trace are bit for bit those of
its run alone.

The state-evolution recursion tracks a single variance scalar through the
same two maps: the linear stage in closed form, the denoiser through a
Monte-Carlo estimate of the scalar MMSE under the gain prior (common random
numbers across eta evaluations, so the recursion is deterministic and
smooth for a fixed seed).  The sample bank is held as three real arrays from
which |r|^2 is formed for each eta, the one statistic the posterior variance
depends on; they are built in place in the arrays of the draws, from the
real and imaginary parts of the gains, with no complex temporary.  Each eta
walks the bank in blocks of `_BLOCK` draws, small enough that a block's
arrays stay in cache; the estimate is still the mean over the whole bank,
a float.  Noiseless, the recursion stops at exact recovery, v = 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .denoiser import PriorConfig, denoise, init_state, select_members
from .lmmse import extrinsic_split, lmmse_update
from .priors import ScalarPrior, posterior_variance_mixture

# Draws per block of `MmseSampler.__call__`: 256 KiB per float64 array, so
# one block's working set stays in a 2 MiB L2.
_BLOCK = 32768

# Early stopping: the change in NMSE (or, without a truth, the relative
# change of the estimate) between consecutive iterations that ends a run.
NMSE_TOL = 1e-6


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
    reset_beliefs: bool = False

    def __post_init__(self):
        if not 0.0 < self.init_variance < math.inf:
            raise ValueError(
                f"init_variance must be positive and finite, got {self.init_variance}"
            )
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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


def _energy(x):
    """||x||^2 (Frobenius) as a float."""
    return float(np.sum(np.abs(x) ** 2))


def _truth_energy(truth):
    """||truth||^2, the NMSE denominator; ValueError when it is 0 or not
    finite (an overflow of the squares raises no RuntimeWarning)."""
    with np.errstate(over="ignore"):
        den = _energy(truth)
    if den == 0.0:
        raise ValueError("NMSE undefined for an all-zero truth")
    if not den < math.inf:
        raise ValueError("NMSE undefined for a truth whose energy is not finite")
    return den


def nmse(estimate, truth):
    """||estimate - truth||^2 / ||truth||^2 (Frobenius), for equal shapes."""
    if np.shape(estimate) != np.shape(truth):
        raise ValueError(f"estimate is {np.shape(estimate)}, truth is {np.shape(truth)}")
    den = _truth_energy(truth)
    return _energy(estimate - truth) / den


def to_db(x):
    return 10.0 * math.log10(max(float(x), 1e-300))


class BatchTrace(list):
    """The `TurboTrace`s of a batch's members, in member order.

    It also reads as the trace of the whole batch, the totals of its members'
    runs: `iterations` counts the iterations of every member, and
    `clamped_a`, `clamped_b` and `roundtrip_err` chain the members' lists.
    These are the attributes by which `perfbench/tracing.py` accounts a
    `run_turbo` call, so a batched call is accounted as its members' runs
    alone would be.
    """

    @property
    def iterations(self):
        return sum(trace.iterations for trace in self)

    @property
    def clamped_a(self):
        return [n for trace in self for n in trace.clamped_a]

    @property
    def clamped_b(self):
        return [n for trace in self for n in trace.clamped_b]

    @property
    def roundtrip_err(self):
        return [err for trace in self for err in trace.roundtrip_err]


class NonFiniteStateError(RuntimeError):
    """A member's turbo state went non-finite.

    Raised once the other members of the batch have finished.  `failed`
    maps each such member to the iteration at which its state went
    non-finite; `estimates` and `traces` hold every member's result, with
    None as the estimate of a failed member, whose trace ends at its last
    finite iteration.
    """

    def __init__(self, failed, estimates, traces):
        member = min(failed)
        super().__init__(f"non-finite turbo state at iteration {failed[member]}")
        self.failed, self.estimates, self.traces = failed, estimates, traces


def run_turbo(measurements, pilots, cfg, truth=None):
    """Run the turbo iterations; returns (final_estimate, trace).

    `pilots` is a `PilotSet`; `measurements.Y` must be (M, P), one row per
    pilot and one column per subcarrier of `pilots`.

    `truth` enables the NMSE trace.  It must be (N, P); its energy
    ||truth||^2 is taken once per run, and an all-zero truth raises
    ValueError before the first iteration.  Early stopping compares
    consecutive NMSE values when `truth` is given; otherwise it stops once
    the relative change of the estimate, ||h_t - h_{t-1}||^2 / ||h_{t-1}||^2,
    falls below `NMSE_TOL`.  A non-finite state raises `NonFiniteStateError`.

    This is the one-member call of `run_turbo_batch`.  Given a list of
    `MeasurementSet`s as `measurements` and a list of truths as `truth`, it
    is `run_turbo_batch` itself and returns its (estimates, traces).
    """
    if isinstance(measurements, list):
        return run_turbo_batch(measurements, pilots, cfg, truth)
    estimates, traces = run_turbo_batch([measurements], pilots, cfg, [truth])
    return estimates[0], traces[0]


def run_turbo_batch(measurements, pilots, cfg, truths):
    """Run B independent turbo runs, called members, that share `pilots`;
    returns (estimates, traces), one final estimate and one `TurboTrace`
    per member, in order, `traces` a `BatchTrace`.

    `measurements` holds the B members' `MeasurementSet`s and `truths` one
    truth per member, an (N, P) array or None; each member is checked and
    stops early as `run_turbo` describes.  The members run as the blocks of
    (B, N, P) estimates, and the denoiser state holds B members.  A member
    that stops is removed from every array, so it is never iterated past
    its stop; so is a member whose state goes non-finite, and once the
    others have finished `NonFiniteStateError` reports it with every
    member's result.  Each member's estimate and trace are bit for bit those
    of its run alone, and each estimate is an array of its own.
    """
    measurements = list(measurements)
    B = len(measurements)
    if B == 0:
        raise ValueError("need at least one member")
    truths = list(truths)
    if len(truths) != B:
        raise ValueError(f"{len(truths)} truths for {B} members")
    N, M, P = pilots.N, pilots.M, len(pilots)
    for meas in measurements:
        if meas.Y.shape != (M, P):
            raise ValueError(
                f"measurements are {meas.Y.shape}, need (M, P) = {(M, P)} for the pilot set"
            )
    for truth in truths:
        if truth is not None and np.shape(truth) != (N, P):
            raise ValueError(f"truth is {np.shape(truth)}, need (N, P) = {(N, P)}")
    truth_energy = [None if truth is None else _truth_energy(truth) for truth in truths]
    # (B, M, P), each member's block column-major like the output of
    # `PilotSet.apply`, which module A subtracts it from
    Y = np.stack([meas.Y.T for meas in measurements]).swapaxes(1, 2)
    sigma2 = np.array([[float(meas.noise_variance)] for meas in measurements])
    live = list(range(B))    # the members still running, in member-axis order
    h_pri_a = np.zeros((B, N, P), dtype=np.complex128)
    v_pri_a = np.full((B, P), float(cfg.init_variance))
    state = init_state(N, P, cfg.prior, B)
    traces = BatchTrace(TurboTrace() for _ in range(B))
    estimates = [None] * B
    failed = {}
    h_prev = np.zeros((B, N, P), dtype=np.complex128)
    prev_metric = [None] * B
    for it in range(1, cfg.max_iters + 1):
        # linear stage, all subcarriers of all members at once (FFT-based)
        h_post_a, v_post_a = lmmse_update(Y, pilots, h_pri_a, v_pri_a, sigma2)
        h_pri_b, v_pri_b, clamped_a, rt_a = extrinsic_split(h_post_a, v_post_a, h_pri_a, v_pri_a)

        # denoiser stage
        if cfg.reset_beliefs:
            state = init_state(N, P, cfg.prior, len(live))
        h_post_b, v_post_b, state = denoise(h_pri_b, v_pri_b, cfg.prior, state)
        h_pri_a, v_pri_a, clamped_b, rt_b = extrinsic_split(h_post_b, v_post_b, h_pri_b, v_pri_b)
        finite = np.isfinite(v_pri_a).all(axis=1)
        if not np.isfinite(h_pri_a).all():
            finite &= np.isfinite(h_pri_a).all(axis=(1, 2))

        done = []
        rows = zip(live, finite.tolist(), rt_a.tolist(), rt_b.tolist(),
                   clamped_a.sum(axis=1).tolist(), clamped_b.sum(axis=1).tolist())
        for b, (member, ok, err_a, err_b, n_a, n_b) in enumerate(rows):
            if not ok:
                failed[member] = it
                done.append(b)
                continue
            h_b = h_post_b[b]
            trace = traces[member]
            trace.v_a_ext.append(v_pri_b[b].copy())
            trace.v_b_ext.append(v_pri_a[b].copy())
            trace.roundtrip_err.append(max(err_a, err_b))
            trace.clamped_a.append(n_a)
            trace.clamped_b.append(n_b)
            truth = truths[member]
            if truth is not None:
                metric = _energy(h_b - truth) / truth_energy[member]
                converged = it > 1 and abs(metric - prev_metric[member]) < NMSE_TOL
                prev_metric[member] = metric
            else:
                metric = float("nan")
                converged = it > 1 and _relative_change(h_b, h_prev[b]) < NMSE_TOL
            trace.nmse.append(metric)
            if (cfg.early_stop and converged) or it == cfg.max_iters:
                done.append(b)
                # a copy, not a view that would keep the whole batch alive
                estimates[member] = h_b.copy()
        h_prev = h_post_b
        if done:
            kept = [b for b in range(len(live)) if b not in done]
            if not kept:
                break
            live = [live[b] for b in kept]
            h_pri_a, v_pri_a, h_prev, Y, sigma2 = (
                np.take(x, kept, axis=0) for x in (h_pri_a, v_pri_a, h_prev, Y, sigma2)
            )
            state = select_members(state, kept)
    if failed:
        raise NonFiniteStateError(failed, estimates, traces)
    return estimates, traces


def _relative_change(new, old):
    """||new - old||^2 / ||old||^2; 0 when the two are equal, inf when only
    `old` is zero."""
    num = _energy(new - old)
    if num == 0.0:
        return 0.0
    den = _energy(old)
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
    (one float when the prior's active variance is constant).  The draws follow
    `ScalarPrior.sample`'s fixed order, then the noise's real and imaginary
    normals; each bank array is formed in the array of a draw it consumes,
    so a build holds at most five bank-sized arrays at once.

    A call forms |r|^2 and runs the kernel one block of `_BLOCK` draws at a
    time (a bank smaller than a block is one block), writing each block's
    per-draw variances into one bank-sized array, and returns the mean of
    that whole array as a float; the block size does not change it.
    """

    def __init__(self, prior: ScalarPrior, num_samples=200_000, seed=1234):
        if num_samples < 2:
            raise ValueError("num_samples must be at least 2")
        rng = np.random.default_rng(seed)
        re, im, v_large = prior.sample(rng, num_samples)
        self.prior = prior
        self.v_large = v_large
        self.v_small = prior.near_zero_variance
        # |g|^2 = re^2 + im^2 before the noise draws, so that each draw below
        # is consumed in place: n = (a + i b) / sqrt(2), and
        # 2 Re(g conj(n)) = sqrt(2) (re a + im b), |n|^2 = (a^2 + b^2) / 2.
        # b is drawn one block at a time into a block-sized buffer, the same
        # stream as one bank-sized draw, which saves a bank-sized array.
        gain_sq = re * re
        gain_sq += im * im
        a = rng.standard_normal(num_samples)
        re *= a
        a *= a
        buf = np.empty(min(_BLOCK, num_samples))
        for start in range(0, num_samples, _BLOCK):
            block = slice(start, start + _BLOCK)
            im_b = im[block]
            b = rng.standard_normal(out=buf[:im_b.size])
            im_b *= b
            re[block] += im_b
            b *= b
            a[block] += b
        re *= math.sqrt(2.0)
        a *= 0.5
        self.gain_sq = gain_sq
        self.cross = re
        self.noise_sq = a

    def __call__(self, eta):
        if not eta > 0.0:
            raise ValueError(f"eta must be positive, got {eta}")
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
        return float(var.mean())


def linear_stage_eta(v, sigma2, N, M):
    """Effective precision after the linear stage's extrinsic division."""
    denom = (N / M) * (v + sigma2) - v
    if denom <= 0.0:
        raise SeUndefinedError(
            f"SE map undefined at the linear stage: (N/M)(v+sigma2)-v = {denom} <= 0"
        )
    return 1.0 / denom


def se_step(v, sigma2, N, M, mmse_fn):
    """One state-evolution step; returns (eta, mmse_value, v_next).

    mmse_fn(eta) returns the MMSE as a float.  Noiseless (sigma2 = 0), an
    MMSE of exactly 0 is exact recovery, the fixed point v_next = 0; any
    other that is not positive and finite raises `SeUndefinedError`.
    """
    eta = linear_stage_eta(v, sigma2, N, M)
    m = mmse_fn(eta)
    if m == 0.0 and sigma2 == 0.0:
        return eta, m, 0.0
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
                        num_samples=200_000, seed=1234, sampler=None):
    """Iterate the two-map recursion from the prior's mean power to a fixed point.

    The noise variance is derived from the ensemble mean power of the prior
    (per-sample signal power equals the prior mean power for the
    row-orthonormal pilot family).  Rows carry the post-iteration variance.
    `sampler` is an `MmseSampler` already built for `prior`, which lets
    several runs share one sample bank; without it a bank of `num_samples`
    is drawn from `seed`.  With a sampler, `num_samples` and `seed` are
    unused, and a sampler whose `prior` differs from `prior` raises
    `ValueError`: the noise power comes from `prior` and the bank from the
    sampler's prior, so a mismatched pair would give a wrong SE.
    snr_db = +inf is noiseless, and a run that reaches exact recovery, v = 0,
    stops there converged; -inf and NaN raise `ValueError`, and so do sizes
    outside 1 <= M <= N.
    """
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    if not snr_db > -math.inf:
        raise ValueError(f"snr_db = {snr_db} has no finite noise variance")
    if sampler is not None and sampler.prior != prior:
        raise ValueError(
            f"sampler was built for {sampler.prior}, not for the SE prior {prior}"
        )
    power = prior.mean_power()
    sigma2 = 0.0 if snr_db == math.inf else power / 10.0 ** (snr_db / 10.0)
    if sampler is None:
        sampler = MmseSampler(prior, num_samples, seed)
    v = power
    trace = SeTrace()
    for it in range(1, max_iters + 1):
        try:
            eta, m, v_next = se_step(v, sigma2, N, M, sampler)
        except SeUndefinedError as err:
            raise SeUndefinedError(str(err), iteration=it) from None
        trace.rows.append((it, v_next, eta, m / power))
        if (v_next == 0.0 and sigma2 == 0.0) or abs(v_next - v) / max(v, 1e-300) < tol:
            trace.converged = True
            break
        v = v_next
    return trace
