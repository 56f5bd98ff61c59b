"""Structured sparsity denoiser with hyperparameter learning.

Given per-subcarrier Gaussian pseudo-priors (h_pri, v_pri), this module runs
one full pass of the support-chain / precision-learning message schedule:

  1. per-(element, subcarrier) support likelihoods from the current
     Gamma beliefs over the active and near-zero precisions,
  2. a forward sweep along the support chain,
  3. a backward sweep,
  4. first/pair support beliefs and Beta belief updates for the chain
     transition probabilities (steps 2-4 execute a second time with the
     refreshed beliefs),
  5. leave-one-subcarrier-out extrinsic support messages, Gamma belief
     updates, and the posterior mixture moments.

Three prior variants share the schedule: per-element active-precision
learning ("tsgm-lvd"), subcarrier-pooled active-precision learning
("tsgm"), and a fixed-variance Bernoulli-Gaussian ("bg") whose near-zero
component is an exact spike at zero.

All probabilities are clamped to [floor, 1 - floor].  The chain sweeps run
on odds p / (1 - p), clamped to the equivalent interval
[floor / (1 - floor), (1 - floor) / floor], and store probabilities; the
other steps combine probabilities in the log-odds domain.  The pooled
per-element evidence is computed once per pass (`pooled_evidence`), and the
expected log transition weights once per chain round
(`transition_log_expectations`); `denoise` hands both to each step.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .messages import beta_log_expectations, cgauss_logpdf, digamma_fn
from .priors import VARIANT_BG, VARIANT_LVD, VARIANT_TSGM, VARIANTS


@dataclass
class PriorConfig:
    """Prior hyperparameters and algorithm switches for one denoiser."""

    variant: str = VARIANT_LVD
    large_shape: float = 1.0    # Gamma prior (shape, rate) on active precisions
    large_rate: float = 1.0
    small_shape: float = 1.0    # Gamma prior on the shared near-zero precision
    small_rate: float = 0.01
    p10_a: float = 1.0          # Beta priors on the chain transition probabilities
    p10_b: float = 1.0
    p01_a: float = 1.0
    p01_b: float = 1.0
    bg_variance: float = 1.0    # fixed active variance for the bg variant
    exact_digamma: bool = False
    std_gamma_weight: bool = False
    init_backward_filtered: bool = False
    prob_floor: float = 1e-12

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class DenoiserState:
    """Mutable belief state carried across turbo iterations (warm start)."""

    support_like: np.ndarray = None   # (N, P) per-subcarrier activity likelihood
    support_ext: np.ndarray = None    # (N, P) leave-one-out chain message
    support_post: np.ndarray = None   # (N, P) posterior activity weight
    fwd_pred: np.ndarray = None       # (N,) chain message into each element, forward
    fwd_filt: np.ndarray = None       # (N,) forward message combined with evidence
    bwd_pred: np.ndarray = None       # (N,) backward chain message
    bwd_filt: np.ndarray = None       # (N,) backward message combined with evidence
    large_shape: np.ndarray = None    # (N, P) Gamma belief on active precisions
    large_rate: np.ndarray = None
    small_shape: np.ndarray = None    # (P,) Gamma belief on near-zero precision
    small_rate: np.ndarray = None
    p10_a: float = 1.0
    p10_b: float = 1.0
    p01_a: float = 1.0
    p01_b: float = 1.0
    first_active_belief: float = 0.5
    pair_belief: np.ndarray = None    # (N-1, 4) columns (00, 01, 10, 11)


def init_state(N, P, cfg):
    state = DenoiserState()
    state.large_shape = np.full((N, P), cfg.large_shape)
    state.large_rate = np.full((N, P), cfg.large_rate)
    state.small_shape = np.full(P, cfg.small_shape)
    state.small_rate = np.full(P, cfg.small_rate)
    state.p10_a, state.p10_b = cfg.p10_a, cfg.p10_b
    state.p01_a, state.p01_b = cfg.p01_a, cfg.p01_b
    return state


def _clamp(p, floor):
    return np.clip(p, floor, 1.0 - floor)


def _logit(p):
    return np.log(p) - np.log1p(-p)


def transition_log_expectations(state, cfg):
    """Expected log transition weights under the current Beta beliefs.

    Returns (stay_active, turn_on, stay_quiet, turn_off) in the log domain:
    E[ln(1-p01)], E[ln p10], E[ln(1-p10)], E[ln p01].  `denoise` computes
    them once per chain round and hands them to the sweeps and the Beta
    update; a step called without them recomputes them from `state`.
    """
    log_turn_on, log_stay_quiet = beta_log_expectations(
        state.p10_a, state.p10_b, cfg.exact_digamma
    )
    log_turn_off, log_stay_active = beta_log_expectations(
        state.p01_a, state.p01_b, cfg.exact_digamma
    )
    return log_stay_active, log_turn_on, log_stay_quiet, log_turn_off


def support_likelihood(h_pri, v_pri, state, cfg):
    """Per-(element, subcarrier) likelihood that the element is active.

    Weighs the active component CN(0, v_pri + rate/shape) against the
    near-zero component using the expected-log Gamma weights; the bg variant
    compares a fixed-variance active component against the spike at zero.
    """
    state.support_like = _activity_likelihood(
        h_pri, v_pri, state.large_shape, state.large_rate,
        state.small_shape, state.small_rate, cfg,
    )


def _activity_likelihood(h_pri, v_pri, large_shape, large_rate, small_shape, small_rate, cfg):
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


def pooled_evidence(state):
    """Activity log-odds per (element, subcarrier) and pooled per element.

    Returns (like_logit, llr): logit(support_like), shape (N, P), and its sum
    over subcarriers, shape (N,).  `denoise` computes both once per pass and
    hands them to every step below; a step called without them recomputes
    them from `state.support_like`.
    """
    like_logit = _logit(state.support_like)
    return like_logit, like_logit.sum(axis=1)


def _evidence_odds(llr):
    """exp(llr) as a list of floats; inf and 0 from overflow and underflow
    are left to the sweep's clamp."""
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(llr).tolist()


def _odds_sweep(q, evidence_odds, stay, enter, leave, stay_out, floor):
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
    """The four transition weights exp(E[ln .]), in the order of
    `transition_log_expectations`."""
    if transitions is None:
        transitions = transition_log_expectations(state, cfg)
    return [math.exp(v) for v in transitions]


def forward_pass(state, cfg, evidence=None, transitions=None):
    """Forward sweep of the support chain (predict, then fold in evidence).

    Runs on odds p / (1 - p) (see `_odds_sweep`) from the first element,
    whose prediction has odds turn_on / stay_quiet, clamped like every other
    message; the stored messages are probabilities.
    """
    stay_active, turn_on, stay_quiet, turn_off = _transition_weights(state, cfg, transitions)
    _, llr = pooled_evidence(state) if evidence is None else evidence
    pred, filt = _odds_sweep(
        turn_on / stay_quiet, _evidence_odds(llr),
        stay_active, turn_on, turn_off, stay_quiet, cfg.prob_floor,
    )
    state.fwd_pred, state.fwd_filt = _odds_to_prob(pred), _odds_to_prob(filt)


def backward_pass(state, cfg, evidence=None, transitions=None):
    """Backward sweep; the terminal message is uninformative (1/2).

    Runs on odds like `forward_pass`, from the last element down.  With
    `init_backward_filtered` the terminal filtered message is also 1/2,
    ignoring that element's evidence.
    """
    stay_active, turn_on, stay_quiet, turn_off = _transition_weights(state, cfg, transitions)
    _, llr = pooled_evidence(state) if evidence is None else evidence
    evidence_odds = _evidence_odds(llr[::-1])
    if cfg.init_backward_filtered:
        evidence_odds[0] = 1.0
    pred, filt = _odds_sweep(
        1.0, evidence_odds, stay_active, turn_off, turn_on, stay_quiet, cfg.prob_floor
    )
    state.bwd_pred, state.bwd_filt = _odds_to_prob(pred[::-1]), _odds_to_prob(filt[::-1])


def update_transition_beliefs(state, cfg, evidence=None, transitions=None):
    """First/pair support beliefs and the Beta pseudo-count refresh."""
    if transitions is None:
        transitions = transition_log_expectations(state, cfg)
    log_stay_active, log_turn_on, log_stay_quiet, log_turn_off = transitions
    _, llr = pooled_evidence(state) if evidence is None else evidence
    floor = cfg.prob_floor
    state.first_active_belief = float(
        _clamp(expit(_logit(state.fwd_pred[0]) + _logit(state.bwd_pred[0]) + llr[0]), floor)
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


def support_extrinsic(state, cfg, evidence=None):
    """Chain-side activity message for each subcarrier, excluding its own
    likelihood (leave-one-out in the log-odds domain)."""
    like_logit, llr = pooled_evidence(state) if evidence is None else evidence
    loo = llr[:, None] - like_logit
    chain = _logit(state.fwd_pred) + _logit(state.bwd_pred)
    state.support_ext = _clamp(expit(chain[:, None] + loo), cfg.prob_floor)


def _mixture_moments(h_pri, v_pri, large_shape, large_rate, small_shape, small_rate, cfg):
    """Per-component posterior moments against the Gaussian pseudo-prior."""
    v_pri = np.asarray(v_pri)[None, :]
    var_large = 1.0 / (1.0 / v_pri + large_shape / large_rate)
    mean_large = var_large * h_pri / v_pri
    if cfg.variant == VARIANT_BG:
        var_small = np.zeros_like(v_pri)
        mean_small = np.zeros_like(h_pri)
    else:
        var_small = 1.0 / (1.0 / v_pri + small_shape / small_rate)
        mean_small = var_small * h_pri / v_pri
    return mean_large, var_large, mean_small, var_small


def update_precision_beliefs(h_pri, v_pri, state, cfg, evidence=None):
    """Gamma belief refresh from the current support posterior.

    Uses the beliefs that entered this pass for the component moments, then
    rewrites the Gamma parameters anchored at their priors.  The bg variant
    has no precision beliefs to learn.
    """
    like_logit, _ = pooled_evidence(state) if evidence is None else evidence
    state.support_post = _clamp(expit(like_logit + _logit(state.support_ext)), cfg.prob_floor)
    if cfg.variant == VARIANT_BG:
        return
    mean_large, var_large, mean_small, var_small = _mixture_moments(
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


def posterior_moments(h_pri, v_pri, state, cfg):
    """Posterior mean and per-subcarrier average variance of the gains.

    Recomputes the activity weight and component moments with the updated
    beliefs, then collapses the two-component mixture.
    """
    if cfg.variant == VARIANT_BG:
        weight = state.support_post
    else:
        like = _activity_likelihood(
            h_pri, v_pri, state.large_shape, state.large_rate,
            state.small_shape, state.small_rate, cfg,
        )
        weight = _clamp(expit(_logit(like) + _logit(state.support_ext)), cfg.prob_floor)
    state.support_post = weight
    mean_large, var_large, mean_small, var_small = _mixture_moments(
        h_pri, v_pri, state.large_shape, state.large_rate,
        state.small_shape, state.small_rate, cfg,
    )
    h_post = weight * mean_large + (1.0 - weight) * mean_small
    second = weight * (np.abs(mean_large) ** 2 + var_large) + (1.0 - weight) * (
        np.abs(mean_small) ** 2 + var_small
    )
    v_post = np.maximum((second - np.abs(h_post) ** 2).mean(axis=0), 1e-30)
    return h_post, v_post


def denoise(h_pri, v_pri, cfg, state=None):
    """One full denoiser pass; returns (h_post, v_post, state).

    Passing the returned state back in warm-starts the Gamma/Beta beliefs
    on the next turbo iteration; passing state=None resets them.
    """
    h_pri = np.asarray(h_pri, dtype=np.complex128)
    v_pri = np.asarray(v_pri, dtype=float)
    N, P = h_pri.shape
    if state is None:
        state = init_state(N, P, cfg)
    support_likelihood(h_pri, v_pri, state, cfg)
    evidence = pooled_evidence(state)
    for _ in range(2):
        transitions = transition_log_expectations(state, cfg)
        forward_pass(state, cfg, evidence=evidence, transitions=transitions)
        backward_pass(state, cfg, evidence=evidence, transitions=transitions)
        update_transition_beliefs(state, cfg, evidence=evidence, transitions=transitions)
    support_extrinsic(state, cfg, evidence=evidence)
    update_precision_beliefs(h_pri, v_pri, state, cfg, evidence=evidence)
    h_post, v_post = posterior_moments(h_pri, v_pri, state, cfg)
    return h_post, v_post, state
