"""Reference implementations used only to produce expected values in tests.

Everything here is written independently of the package code paths it
checks: brute-force enumeration for the support chain, the probability-domain
forward/backward sweeps (the package runs them on odds), a measurement-form
dense LMMSE (the package uses the information form), the turbo loop with
module A run one subcarrier at a time (the package stacks the subcarriers),
the stacked module A on two-array fancy indexing and out-of-place
temporaries (the package gathers and scatters through flat indices and
works in place),
closed-form scalar mixture posteriors plus a grid-integration cross-check,
the state evolution's Monte-Carlo MMSE computed from the complex
observations with the complex mixture posterior, the real-bank MMSE call
evaluated over the whole bank at once (the package walks it in blocks),
and the denoiser's
likelihood, precision and moment steps on the complex h_pri through the
complex Gaussian log density (the package reduces the last two to real
arithmetic on |r|^2 and |h_pri|^2).  The earlier package forms of the
chain round (odds sweeps that keep two lists, pair beliefs from a stacked
(N-1, 4) array) and of the round-trip check (per-column maxima, then a
mask) are kept verbatim, so that tests can hold the package to their bits.
Three helpers that only tests use live here too: `mmse_oracle`, a one-shot
`MmseSampler` call, `angle_transform`, the unitary DFT between the frequency
and angular bases, and `step_inputs`, the per-pass values that `denoise`
hands to its steps, for tests that call the steps one by one.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
from scipy.special import expit

from hmpce.denoiser import (
    _sigmoid,
    _squared_magnitude,
    backward_pass,
    denoise,
    evidence_odds,
    forward_pass,
    init_state,
    pooled_evidence,
    support_extrinsic,
    transition_log_expectations,
    update_transition_beliefs,
)
from hmpce.lmmse import _VAR_FLOOR
from hmpce.messages import digamma_fn
from hmpce.priors import VARIANT_BG, VARIANT_TSGM, posterior_variance_mixture
from hmpce.turbo import MmseSampler, TurboTrace, nmse


def chain_enumeration(first_w, trans_w, log_like):
    """Exhaustive smoothing for a binary chain with unnormalized weights.

    first_w: (2,) weights on s_1; trans_w: (2, 2) weights trans_w[prev, nxt];
    log_like: (N, 2) per-element log evidence.  Returns a dict of posteriors:
    full per-element marginals, pair marginals, prefix filtered/predicted and
    suffix filtered/predicted marginals (suffix quantities use no left-hand
    information, matching a backward sweep initialized flat).
    """
    log_like = np.asarray(log_like, dtype=float)
    N = log_like.shape[0]
    lf = np.log(np.asarray(first_w, dtype=float))
    lt = np.log(np.asarray(trans_w, dtype=float))

    full = np.zeros((N, 2))
    pair = np.zeros((N - 1, 2, 2))
    logw = np.empty(2 ** N)
    states = list(itertools.product((0, 1), repeat=N))
    for i, s in enumerate(states):
        lw = lf[s[0]] + log_like[0, s[0]]
        for k in range(1, N):
            lw += lt[s[k - 1], s[k]] + log_like[k, s[k]]
        logw[i] = lw
    w = np.exp(logw - logw.max())
    w /= w.sum()
    for s, wi in zip(states, w):
        for n in range(N):
            full[n, s[n]] += wi
        for n in range(N - 1):
            pair[n, s[n], s[n + 1]] += wi

    prefix_filt = np.zeros((N, 2))
    prefix_pred = np.zeros((N, 2))
    suffix_filt = np.zeros((N, 2))
    suffix_pred = np.zeros((N, 2))
    for n in range(N):
        prefix_filt[n] = _span_marginal(lf, lt, log_like, 0, n, n,
                                        with_first=True, like_upto=n)
        prefix_pred[n] = _span_marginal(lf, lt, log_like, 0, n, n,
                                        with_first=True, like_upto=n - 1)
        suffix_filt[n] = _span_marginal(None, lt, log_like, n, N - 1, n,
                                        with_first=False, like_from=n)
        suffix_pred[n] = _span_marginal(None, lt, log_like, n, N - 1, n,
                                        with_first=False, like_from=n + 1)
    return {
        "full": full,
        "pair": pair,
        "prefix_filt": prefix_filt,
        "prefix_pred": prefix_pred,
        "suffix_filt": suffix_filt,
        "suffix_pred": suffix_pred,
    }


def _span_marginal(lf, lt, log_like, lo, hi, target, with_first,
                   like_upto=None, like_from=None):
    n_vars = hi - lo + 1
    out = np.zeros(2)
    for s in itertools.product((0, 1), repeat=n_vars):
        lw = 0.0
        for pos, k in enumerate(range(lo, hi + 1)):
            if k == lo:
                if with_first:
                    lw += lf[s[0]]
            else:
                lw += lt[s[pos - 1], s[pos]]
            use = True
            if like_upto is not None:
                use = k <= like_upto
            if like_from is not None:
                use = k >= like_from
            if use:
                lw += log_like[k, s[pos]]
        out[s[target - lo]] += math.exp(lw)
    return out / out.sum()


def _logit(p):
    return np.log(p) - np.log1p(-p)


def chain_sweeps_probability(weights, llr, floor):
    """Forward and backward support-chain sweeps on clamped probabilities.

    weights: (stay_active, turn_on, stay_quiet, turn_off) transition weights;
    llr: (N,) pooled activity log-odds.  Every message is clamped to
    [floor, 1 - floor] and evidence is folded in through logit/expit.
    Returns (fwd_pred, fwd_filt, bwd_pred, bwd_filt).
    """
    stay_active, turn_on, stay_quiet, turn_off = weights
    N = llr.shape[0]
    fwd_pred = np.empty(N)
    fwd_filt = np.empty(N)
    fwd_pred[0] = min(max(turn_on / (turn_on + stay_quiet), floor), 1.0 - floor)
    for n in range(N):
        if n > 0:
            a = fwd_filt[n - 1]
            num = a * stay_active + (1.0 - a) * turn_on
            den = num + a * turn_off + (1.0 - a) * stay_quiet
            fwd_pred[n] = min(max(num / den, floor), 1.0 - floor)
        fwd_filt[n] = min(max(expit(_logit(fwd_pred[n]) + llr[n]), floor), 1.0 - floor)

    bwd_pred = np.empty(N)
    bwd_filt = np.empty(N)
    bwd_pred[N - 1] = 0.5
    bwd_filt[N - 1] = min(max(expit(llr[N - 1]), floor), 1.0 - floor)
    for n in range(N - 2, -1, -1):
        b = bwd_filt[n + 1]
        num = b * stay_active + (1.0 - b) * turn_off
        den = num + b * turn_on + (1.0 - b) * stay_quiet
        bwd_pred[n] = min(max(num / den, floor), 1.0 - floor)
        bwd_filt[n] = min(max(expit(_logit(bwd_pred[n]) + llr[n]), floor), 1.0 - floor)
    return fwd_pred, fwd_filt, bwd_pred, bwd_filt


def extrinsic_columns(h_post, v_post, h_pri, v_pri, cap):
    """Column-wise extrinsic division with a variance cap.

    Means are (N, P), variances (P,).  Returns (h_ext, v_ext, clamped_mask).
    """
    inv = 1.0 / v_post - 1.0 / v_pri
    clamped = ~(inv > 1.0 / cap)
    v_ext = np.where(clamped, cap, 1.0 / np.where(clamped, 1.0, inv))
    h_ext = v_ext[None, :] * (h_post / v_post[None, :] - h_pri / v_pri[None, :])
    return h_ext, v_ext, clamped


def roundtrip_error_columns(h_ext, v_ext, h_pri, v_pri, h_post, v_post, clamped):
    """Worst norm-relative mismatch of extrinsic * prior vs posterior over
    the unclamped subcarriers."""
    keep = ~clamped
    if not np.any(keep):
        return 0.0
    v_rec = 1.0 / (1.0 / v_ext + 1.0 / v_pri)
    h_rec = v_rec[None, :] * (h_ext / v_ext[None, :] + h_pri / v_pri[None, :])
    err_v = np.abs(v_rec - v_post) / v_post
    scale = np.maximum(np.abs(h_post[:, keep]).max(), 1e-300)
    err_m = np.abs(h_rec[:, keep] - h_post[:, keep]).max() / scale
    return float(max(err_v[keep].max(), err_m))


# the extrinsic variance cap that `run_turbo` divides with, the default of
# `lmmse.extrinsic_split`
EXT_VAR_CAP = 1e8


def run_turbo_per_subcarrier(measurements, pilots, cfg, truth=None):
    """The turbo loop with module A run one subcarrier at a time.

    pilots: a sequence of P `PilotMatrix`.  Each iteration runs the FFT-form
    LMMSE column by column through each subcarrier's own operator, and both
    extrinsic divisions divide the complex means; the denoiser is the
    package's.  Early stopping follows `run_turbo`.  Returns
    (final_estimate, TurboTrace).
    """
    Y = measurements.Y
    sigma2 = measurements.noise_variance
    M, P = Y.shape
    N = pilots[0].N
    h_pri_a = np.zeros((N, P), dtype=np.complex128)
    v_pri_a = np.full(P, float(cfg.init_variance))
    state = None
    trace = TurboTrace()
    h_final = np.zeros((N, P), dtype=np.complex128)
    prev_metric = None
    for it in range(1, cfg.max_iters + 1):
        h_post_a = np.empty((N, P), dtype=np.complex128)
        v_post_a = np.empty(P)
        for p in range(P):
            gain = v_pri_a[p] / (v_pri_a[p] + sigma2)
            residual = Y[:, p] - pilots[p].apply(h_pri_a[:, p])
            h_post_a[:, p] = h_pri_a[:, p] + gain * pilots[p].adjoint(residual)
            v_post_a[p] = max(v_pri_a[p] * (1.0 - gain * M / N), 1e-30)
        h_pri_b, v_pri_b, clamped_a = extrinsic_columns(
            h_post_a, v_post_a, h_pri_a, v_pri_a, EXT_VAR_CAP
        )
        rt_a = roundtrip_error_columns(
            h_pri_b, v_pri_b, h_pri_a, v_pri_a, h_post_a, v_post_a, clamped_a
        )

        h_post_b, v_post_b, state = denoise(
            h_pri_b, v_pri_b, cfg.prior, None if cfg.reset_beliefs else state
        )
        h_pri_a, v_pri_a, clamped_b = extrinsic_columns(
            h_post_b, v_post_b, h_pri_b, v_pri_b, EXT_VAR_CAP
        )
        rt_b = roundtrip_error_columns(
            h_pri_a, v_pri_a, h_pri_b, v_pri_b, h_post_b, v_post_b, clamped_b
        )

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
            change = float(np.sum(np.abs(h_post_b - h_final) ** 2))
            if change > 0.0:
                base = float(np.sum(np.abs(h_final) ** 2))
                change = change / base if base > 0.0 else math.inf
            converged = it > 1 and change < cfg.nmse_tol
        h_final = h_post_b
        trace.nmse.append(metric)
        if cfg.early_stop and converged:
            break
    return h_final, trace


class FancyIndexPilotSet:
    """A `PilotSet` applied through two-array fancy indexing on out-of-place
    temporaries, the way module A ran before the flat indices.

    Built from a `PilotSet`'s derived `rows` and `perm` and its `phases`;
    `apply`, `adjoint` and `_column_index` are the old methods, verbatim.
    """

    def __init__(self, pilots):
        self.N, self.M = pilots.N, pilots.M
        self.rows = np.array(pilots.rows)
        self.perm = np.array(pilots.perm)
        self.phases = pilots.phases

    def __len__(self):
        return self.rows.shape[0]

    def apply(self, H):
        """Column-wise A_p @ H[:, p]: (N, P) to (M, P)."""
        cols = self._column_index(H, self.N)
        scrambled = self.phases * H.T[cols, self.perm]
        spectrum = np.fft.fft(scrambled, axis=1)
        return (spectrum[cols, self.rows] / np.sqrt(self.N)).T

    def adjoint(self, Y):
        """Column-wise A_p^H @ Y[:, p]: (M, P) to (N, P)."""
        cols = self._column_index(Y, self.M)
        z = np.zeros((len(self), self.N), dtype=np.complex128)
        z[cols, self.rows] = Y.T
        w = np.fft.ifft(z, axis=1) * np.sqrt(self.N)
        out = np.empty((self.N, len(self)), dtype=np.complex128)
        out.T[cols, self.perm] = np.conj(self.phases) * w
        return out

    def _column_index(self, X, length):
        """Subcarrier index as a (P, 1) column, after checking X is (length, P)."""
        if X.shape != (length, len(self)):
            raise ValueError(f"expected shape {(length, len(self))}, got {X.shape}")
        return np.arange(len(self))[:, None]


def lmmse_update_out_of_place(y, pilot, h_pri, v_pri, sigma2):
    """The LMMSE update on fresh temporaries (the old `lmmse_update`,
    verbatim); pass a `FancyIndexPilotSet` for the old stacked operator."""
    v_pri = np.asarray(v_pri, dtype=float)
    if np.any(v_pri <= 0.0):
        raise ValueError(f"prior variance must be positive, got {v_pri}")
    if sigma2 < 0.0:
        raise ValueError(f"noise variance must be non-negative, got {sigma2}")
    gain = v_pri / (v_pri + sigma2)
    residual = y - pilot.apply(h_pri)
    h_post = h_pri + gain * pilot.adjoint(residual)
    v_post = v_pri * (1.0 - gain * pilot.M / pilot.N)
    return h_post, np.maximum(v_post, _VAR_FLOOR)


def dense_lmmse_measurement_form(y, A, h_pri, v_pri, sigma2):
    """LMMSE in the measurement (covariance) form.

    h = pri + v A^H (v A A^H + s2 I)^{-1} (y - A pri);
    per-element average posterior variance from the covariance trace.
    """
    M, N = A.shape
    G = v_pri * (A @ A.conj().T) + sigma2 * np.eye(M)
    K = v_pri * A.conj().T @ np.linalg.inv(G)
    h_post = h_pri + K @ (y - A @ h_pri)
    cov = v_pri * np.eye(N) - K @ (v_pri * A)
    return h_post, float(np.real(np.trace(cov))) / N


def mixture_posterior_closed_form(r, tau, lam, v1, v0):
    """Scalar two-component posterior moments, density-ratio form."""
    def dens(x, v):
        return math.exp(-abs(x) ** 2 / v) / (math.pi * v)

    w1 = lam * dens(r, v1 + tau)
    w0 = (1.0 - lam) * dens(r, v0 + tau)
    w = w1 / (w1 + w0)
    m1 = r * v1 / (v1 + tau)
    m0 = r * v0 / (v0 + tau)
    c1 = v1 * tau / (v1 + tau)
    c0 = v0 * tau / (v0 + tau)
    mean = w * m1 + (1 - w) * m0
    var = w * (abs(m1) ** 2 + c1) + (1 - w) * (abs(m0) ** 2 + c0) - abs(mean) ** 2
    return mean, var, w


def mixture_posterior_grid(r, tau, lam, v1, v0, half_width=6.0, points=301):
    """Grid-integration posterior moments (anchors the closed form)."""
    spread = math.sqrt(max(v1, v0, tau))
    ax = np.linspace(-half_width * spread, half_width * spread, points)
    re, im = np.meshgrid(ax, ax)
    h = re + 1j * im
    prior = lam * np.exp(-np.abs(h) ** 2 / v1) / (math.pi * v1)
    if v0 > 0:
        prior = prior + (1 - lam) * np.exp(-np.abs(h) ** 2 / v0) / (math.pi * v0)
        like = np.exp(-np.abs(r - h) ** 2 / tau) / (math.pi * tau)
        post = prior * like
        Z = post.sum()
        mean = (h * post).sum() / Z
        var = (np.abs(h) ** 2 * post).sum() / Z - abs(mean) ** 2
        return mean, var
    # spike-and-slab: discrete spike handled separately
    like = np.exp(-np.abs(r - h) ** 2 / tau) / (math.pi * tau)
    slab = prior * like
    cell = (ax[1] - ax[0]) ** 2
    z_slab = slab.sum() * cell
    z_spike = (1 - lam) * math.exp(-abs(r) ** 2 / tau) / (math.pi * tau)
    Z = z_slab + z_spike
    mean = (h * slab).sum() * cell / Z
    var = (np.abs(h) ** 2 * slab).sum() * cell / Z - abs(mean) ** 2
    return mean, var


def spike_slab_weight(r, tau, lam, v1):
    """Activation posterior for slab CN(0, v1) vs spike at 0."""
    l1 = math.log(lam) - math.log(math.pi * (v1 + tau)) - abs(r) ** 2 / (v1 + tau)
    l0 = math.log(1.0 - lam) - math.log(math.pi * tau) - abs(r) ** 2 / tau
    return 1.0 / (1.0 + math.exp(l0 - l1))


def posterior_moments_mixture(r, tau, lam, v_large, v_small):
    """Exact posterior mean/variance for h ~ lam CN(0, v_large) + (1-lam) CN(0, v_small)
    observed through r = h + CN(0, tau).  v_small = 0 gives the spike-and-slab case.
    Vectorized over r (and v_large).  Returns (mean, var, weight_large)."""
    r = np.asarray(r)
    v_large = np.asarray(v_large, dtype=float)
    s_large = v_large + tau
    s_small = v_small + tau
    if lam >= 1.0:
        w = np.ones(np.broadcast(r, v_large).shape)
    elif lam <= 0.0:
        w = np.zeros(np.broadcast(r, v_large).shape)
    else:
        # log-odds of the active component
        llr = (
            math.log(lam / (1.0 - lam))
            + np.log(s_small / s_large)
            + np.abs(r) ** 2 * (1.0 / s_small - 1.0 / s_large)
        )
        w = 1.0 / (1.0 + np.exp(-llr))
    m_large = (v_large / s_large) * r
    m_small = (v_small / s_small) * r
    v_l = v_large * tau / s_large
    v_s = v_small * tau / s_small
    mean = w * m_large + (1.0 - w) * m_small
    var = (
        w * (np.abs(m_large) ** 2 + v_l)
        + (1.0 - w) * (np.abs(m_small) ** 2 + v_s)
        - np.abs(mean) ** 2
    )
    return mean, var, w


class ComplexMmseSampler:
    """Reference for `turbo.MmseSampler`: the same frozen bank, kept as the
    complex gains and noise, with the complex posterior moments above
    evaluated at r = g + sqrt(tau) n."""

    def __init__(self, prior, num_samples=200_000, seed=1234):
        rng = np.random.default_rng(seed)
        gains, active, vlarge = prior.sample(rng, num_samples)
        self.prior = prior
        self.gains = gains
        self.vlarge = vlarge
        self.noise = (
            rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)
        ) / math.sqrt(2.0)

    def __call__(self, eta):
        if eta <= 0.0:
            raise ValueError("eta must be positive")
        tau = 1.0 / eta
        r = self.gains + self.noise * math.sqrt(tau)
        small = 0.0 if self.prior.variant == VARIANT_BG else self.prior.small_variance
        _, var, _ = posterior_moments_mixture(
            r, tau, self.prior.activation, self.vlarge, small
        )
        est = float(var.mean())
        stderr = float(var.std(ddof=1) / math.sqrt(var.size))
        return est, stderr


def mmse_unblocked(sampler, eta):
    """`MmseSampler.__call__` on `sampler`'s bank in one pass: |r|^2 and the
    kernel over every draw at once, then the same mean and standard error."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    tau = 1.0 / eta
    root = math.sqrt(tau)
    r_sq = sampler.noise_sq * root
    r_sq += sampler.cross
    r_sq *= root
    r_sq += sampler.gain_sq
    var = posterior_variance_mixture(
        r_sq, tau, sampler.prior.activation, sampler.v_large, sampler.v_small
    )
    est = float(var.mean())
    var -= est
    stderr = math.sqrt(float(np.einsum("i,i->", var, var)) / ((var.size - 1) * var.size))
    return est, stderr


def mmse_oracle(eta, prior, num_samples=200_000, seed=1234):
    """One-shot scalar MMSE estimate; returns (value, standard_error)."""
    return MmseSampler(prior, num_samples, seed)(eta)


def angle_transform(h, direction):
    """Unitary DFT between the frequency-domain and angular-domain bases.

    direction: "to_angle" applies B^H, "to_frequency" applies B; both act
    along axis 0 and preserve the Euclidean norm.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    if direction == "to_angle":
        return np.fft.ifft(h, axis=0) * np.sqrt(n)
    if direction == "to_frequency":
        return np.fft.fft(h, axis=0) / np.sqrt(n)
    raise ValueError(f"unknown direction {direction!r}")


def step_inputs(state, cfg, h_pri=None):
    """The values `denoise` computes once per pass (or chain round) and hands
    to its steps, from `state` (and h_pri) as they stand now.

    Attributes: r2 = |h_pri|^2; like_logit and llr of `pooled_evidence`;
    forward_odds and backward_odds of `evidence_odds`; transitions of
    `transition_log_expectations`; ext_logit = logit(support_ext).  A value
    whose source is not there yet (no h_pri, no support_like or no
    support_ext) is None.
    """
    x = SimpleNamespace(
        r2=None if h_pri is None else _squared_magnitude(h_pri),
        like_logit=None, llr=None, forward_odds=None, backward_odds=None,
        transitions=transition_log_expectations(state, cfg),
        ext_logit=None if state.support_ext is None else _logit(state.support_ext),
    )
    if state.support_like is not None:
        x.like_logit, x.llr = pooled_evidence(state)
        x.forward_odds, x.backward_odds = evidence_odds(x.llr)
    return x


# ---------------------------------------------------------------------------
# the denoiser's wide steps on the complex h_pri


def cgauss_logpdf(x, mean, variance):
    """Log density of CN(mean, variance) at x.  Vectorized."""
    x = np.asarray(x)
    v = np.asarray(variance, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("variance must be positive")
    out = -np.log(np.pi * v) - np.abs(x - mean) ** 2 / v
    return out if out.ndim else float(out)


def _clamp(p, floor):
    return np.clip(p, floor, 1.0 - floor)


def activity_likelihood_complex(h_pri, v_pri, large_shape, large_rate, small_shape,
                                small_rate, cfg):
    """Activity likelihood from the two complex Gaussian log densities."""
    v_pri = np.asarray(v_pri)[None, :]
    if cfg.variant == VARIANT_BG:
        log_odds = cgauss_logpdf(h_pri, 0.0, v_pri + cfg.bg_variance) - cgauss_logpdf(
            h_pri, 0.0, v_pri
        )
    else:
        psi = digamma_fn(cfg.exact_digamma)
        den_large = large_rate if cfg.std_gamma_weight else large_shape
        den_small = small_rate if cfg.std_gamma_weight else small_shape
        log_active = (
            psi(large_shape)
            - np.log(den_large)
            + cgauss_logpdf(h_pri, 0.0, v_pri + large_rate / large_shape)
        )
        log_quiet = (
            psi(small_shape)
            - np.log(den_small)
            + cgauss_logpdf(h_pri, 0.0, v_pri + small_rate / small_shape)
        )
        log_odds = log_active - log_quiet
    return _clamp(expit(log_odds), cfg.prob_floor)


def mixture_moments_complex(h_pri, v_pri, large_shape, large_rate, small_shape,
                            small_rate, cfg):
    """Per-component posterior moments against the Gaussian pseudo-prior;
    bg's active component has the fixed variance cfg.bg_variance."""
    v_pri = np.asarray(v_pri)[None, :]
    if cfg.variant == VARIANT_BG:
        var_large = 1.0 / (1.0 / v_pri + 1.0 / cfg.bg_variance)
        var_small = np.zeros_like(v_pri)
        mean_small = np.zeros_like(h_pri)
    else:
        var_large = 1.0 / (1.0 / v_pri + large_shape / large_rate)
        var_small = 1.0 / (1.0 / v_pri + small_shape / small_rate)
        mean_small = var_small * h_pri / v_pri
    mean_large = var_large * h_pri / v_pri
    return mean_large, var_large, mean_small, var_small


def support_likelihood_complex(h_pri, v_pri, state, cfg):
    state.support_like = activity_likelihood_complex(
        h_pri, v_pri, state.large_shape, state.large_rate,
        state.small_shape, state.small_rate, cfg,
    )


def update_precision_beliefs_complex(h_pri, v_pri, state, cfg):
    """Gamma belief refresh with the complex component means,
    |m|^2 + var per component."""
    state.support_post = _clamp(
        expit(_logit(state.support_like) + _logit(state.support_ext)), cfg.prob_floor
    )
    if cfg.variant == VARIANT_BG:
        return
    mean_large, var_large, mean_small, var_small = mixture_moments_complex(
        h_pri, v_pri, state.large_shape, state.large_rate,
        state.small_shape, state.small_rate, cfg,
    )
    w = state.support_post
    large_stat = w * (np.abs(mean_large) ** 2 + var_large)
    if cfg.variant == VARIANT_TSGM:
        state.large_shape = np.broadcast_to(
            cfg.large_shape + w.sum(axis=0, keepdims=True), w.shape
        ).copy()
        state.large_rate = np.broadcast_to(
            cfg.large_rate + large_stat.sum(axis=0, keepdims=True), w.shape
        ).copy()
    else:
        state.large_shape = cfg.large_shape + w
        state.large_rate = cfg.large_rate + large_stat
    quiet = 1.0 - w
    state.small_shape = cfg.small_shape + quiet.sum(axis=0)
    state.small_rate = cfg.small_rate + (
        quiet * (np.abs(mean_small) ** 2 + var_small)
    ).sum(axis=0)


def posterior_moments_complex(h_pri, v_pri, state, cfg):
    """Posterior mean and per-subcarrier average variance as
    E|m|^2 - |E m|^2 over the complex component means."""
    if cfg.variant == VARIANT_BG:
        weight = state.support_post
    else:
        like = activity_likelihood_complex(
            h_pri, v_pri, state.large_shape, state.large_rate,
            state.small_shape, state.small_rate, cfg,
        )
        weight = _clamp(expit(_logit(like) + _logit(state.support_ext)), cfg.prob_floor)
    state.support_post = weight
    mean_large, var_large, mean_small, var_small = mixture_moments_complex(
        h_pri, v_pri, state.large_shape, state.large_rate,
        state.small_shape, state.small_rate, cfg,
    )
    h_post = weight * mean_large + (1.0 - weight) * mean_small
    second = weight * (np.abs(mean_large) ** 2 + var_large) + (1.0 - weight) * (
        np.abs(mean_small) ** 2 + var_small
    )
    v_post = np.maximum((second - np.abs(h_post) ** 2).mean(axis=0), 1e-30)
    return h_post, v_post


def denoise_complex(h_pri, v_pri, cfg, state=None):
    """`denoise` with the complex likelihood, precision and moment steps
    above around the package's chain steps."""
    h_pri = np.asarray(h_pri, dtype=np.complex128)
    v_pri = np.asarray(v_pri, dtype=float)
    N, P = h_pri.shape
    if state is None:
        state = init_state(N, P, cfg)
    support_likelihood_complex(h_pri, v_pri, state, cfg)
    like_logit, llr = pooled_evidence(state)
    forward_odds, backward_odds = evidence_odds(llr)
    for _ in range(2):
        transitions = transition_log_expectations(state, cfg)
        forward_pass(state, cfg, transitions, forward_odds)
        backward_pass(state, cfg, transitions, backward_odds)
        update_transition_beliefs(state, cfg, transitions, llr)
    support_extrinsic(state, cfg, like_logit, llr)
    update_precision_beliefs_complex(h_pri, v_pri, state, cfg)
    h_post, v_post = posterior_moments_complex(h_pri, v_pri, state, cfg)
    return h_post, v_post, state


# ---------------------------------------------------------------------------
# the chain round and the round-trip check as they were before the package
# kept only the predicted odds per sweep and split the pair beliefs into
# four columns; the function bodies are the earlier package code verbatim


def _evidence_odds(llr):
    """exp(llr) as a list of floats; inf and 0 from overflow and underflow
    are left to the sweep's clamp."""
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(llr).tolist()


def _odds_sweep_two_lists(q, evidence_odds, stay, enter, leave, stay_out, floor):
    """One pass of the two-state chain filter in the odds domain.

    Starting from the predicted odds q of the first element visited, each step
    filters x = q e (e = exp(pooled LLR)) and predicts the next element with
    the linear-fractional map q = (x stay + enter) / (x leave + stay_out).
    The start value and both of these are clamped to the odds of
    [floor, 1 - floor], which also absorbs e = inf or 0.  Returns the
    predicted and filtered odds as lists, in visit order.
    """
    lo, hi = floor / (1.0 - floor), (1.0 - floor) / floor
    q = min(max(q, lo), hi)
    pred, filt = [], []
    for e in evidence_odds:
        x = q * e
        if x < lo:
            x = lo
        elif x > hi:
            x = hi
        pred.append(q)
        filt.append(x)
        q = (x * stay + enter) / (x * leave + stay_out)
        if q < lo:
            q = lo
        elif q > hi:
            q = hi
    return pred, filt


def _odds_to_prob(odds):
    odds = np.fromiter(odds, float, len(odds))
    return odds / (1.0 + odds)


def _transition_weights(state, cfg, transitions):
    if transitions is None:
        transitions = transition_log_expectations(state, cfg)
    return [math.exp(v) for v in transitions]


def forward_pass_two_lists(state, cfg, evidence=None, transitions=None):
    """Forward sweep storing both lists of the odds sweep."""
    stay_active, turn_on, stay_quiet, turn_off = _transition_weights(state, cfg, transitions)
    _, llr = pooled_evidence(state) if evidence is None else evidence
    pred, filt = _odds_sweep_two_lists(
        turn_on / stay_quiet, _evidence_odds(llr),
        stay_active, turn_on, turn_off, stay_quiet, cfg.prob_floor,
    )
    state.fwd_pred, state.fwd_filt = _odds_to_prob(pred), _odds_to_prob(filt)


def backward_pass_two_lists(state, cfg, evidence=None, transitions=None):
    """Backward sweep storing both lists of the odds sweep."""
    stay_active, turn_on, stay_quiet, turn_off = _transition_weights(state, cfg, transitions)
    _, llr = pooled_evidence(state) if evidence is None else evidence
    pred, filt = _odds_sweep_two_lists(
        1.0, _evidence_odds(llr[::-1]), stay_active, turn_off, turn_on, stay_quiet,
        cfg.prob_floor,
    )
    state.bwd_pred, state.bwd_filt = _odds_to_prob(pred[::-1]), _odds_to_prob(filt[::-1])


def update_transition_beliefs_stacked(state, cfg, evidence=None, transitions=None):
    """First/pair support beliefs and the Beta pseudo-count refresh, with the
    pair log-weights stacked into an (N-1, 4) array."""
    if transitions is None:
        transitions = transition_log_expectations(state, cfg)
    log_stay_active, log_turn_on, log_stay_quiet, log_turn_off = transitions
    _, llr = pooled_evidence(state) if evidence is None else evidence
    floor = cfg.prob_floor
    state.first_active_belief = float(
        _clamp(_sigmoid(_logit(state.fwd_pred[0]) + _logit(state.bwd_pred[0]) + llr[0]), floor)
    )
    up = state.bwd_filt[1:]
    dn = state.fwd_filt[:-1]
    with np.errstate(divide="ignore"):
        logw = np.stack(
            [
                np.log((1.0 - up) * (1.0 - dn)) + log_stay_quiet,   # (0, 0)
                np.log((1.0 - up) * dn) + log_turn_off,             # prev 1 -> 0
                np.log(up * (1.0 - dn)) + log_turn_on,              # prev 0 -> 1
                np.log(up * dn) + log_stay_active,                  # (1, 1)
            ],
            axis=1,
        )
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    state.pair_belief = w / w.sum(axis=1, keepdims=True)
    b1 = state.first_active_belief
    state.p10_a = b1 + cfg.p10_a + float(state.pair_belief[:, 2].sum())
    state.p10_b = (1.0 - b1) + cfg.p10_b + float(state.pair_belief[:, 0].sum())
    state.p01_a = cfg.p01_a + float(state.pair_belief[:, 1].sum())
    state.p01_b = cfg.p01_b + float(state.pair_belief[:, 3].sum())


def extrinsic_split_columnwise(h_post, v_post, h_pri, v_pri, max_variance=1e8, check=True):
    """`lmmse.extrinsic_split` with the round-trip maxima taken per column
    first and masked after."""
    v_post = np.asarray(v_post, dtype=float)
    v_pri = np.asarray(v_pri, dtype=float)
    inv = 1.0 / v_post - 1.0 / v_pri
    clamped = ~(inv > 1.0 / max_variance)
    v_ext = np.where(clamped, max_variance, 1.0 / np.where(clamped, 1.0, inv))
    h_ext = h_post * (v_ext / v_post) - h_pri * (v_ext / v_pri)
    err = 0.0
    keep = ~clamped
    if check and np.any(keep):
        # per-column maxima first, then the mask: no (N, P) copies of the kept columns
        v_rec = 1.0 / (1.0 / v_ext + 1.0 / v_pri)
        h_rec = h_ext * (v_rec / v_ext) + h_pri * (v_rec / v_pri)
        h_rec -= h_post
        col_err = np.abs(h_rec).max(axis=0)
        col_scale = np.abs(h_post).max(axis=0)
        scale = max(float(np.max(col_scale, where=keep, initial=0.0)), 1e-300)
        err_m = np.max(col_err, where=keep, initial=0.0) / scale
        err_v = np.max(np.abs(v_rec - v_post) / v_post, where=keep, initial=0.0)
        err = float(max(err_v, err_m))
    return h_ext, v_ext[()], clamped[()], err
