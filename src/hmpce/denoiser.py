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
other steps combine probabilities in the log-odds domain and map back with
clamp(sigmoid(.)): `_sigmoid` runs on numpy's vectorised exp, and the clamp
acts on the probability.  The pooled per-element evidence is
computed once per pass (`pooled_evidence`), the expected log transition
weights once per chain round (`transition_log_expectations`), and the
log-odds of the extrinsic support message, logit(support_ext), once per
pass after `support_extrinsic`; `denoise` hands each to the steps that use
it.

The wide (N, P) steps (likelihood, precision update, posterior moments) run
in real arithmetic: the activity odds, the Gamma statistics and the
posterior variance depend on h_pri only through r2 = |h_pri|^2, which
`denoise` computes once per pass and hands to each of them, and h_post is a
real gain times h_pri.  v_pri must be positive and finite; `denoise` raises
ValueError otherwise.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .messages import beta_log_expectations, digamma_fn
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


def _sigmoid(z):
    """1 / (1 + exp(-z)) on numpy's vectorised exp.  For z < -709, exp(-z)
    overflows to inf and the result is 0, which `_clamp` lifts to the floor;
    NaN stays NaN."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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


def _squared_magnitude(h):
    """|h|^2 of a complex array, in real arithmetic."""
    out = np.square(h.real)
    out += np.square(h.imag)
    return out


def _gain(v_pri, var):
    """Posterior-mean gain g = var / (v_pri + var) of a CN(0, var) component
    seen through the pseudo-prior noise v_pri.  Given that component the
    posterior is CN(g h_pri, g v_pri)."""
    return var / (v_pri + var)


def support_likelihood(h_pri, v_pri, state, cfg, r2=None):
    """Per-(element, subcarrier) likelihood that the element is active.

    Weighs the active component CN(0, s) with s = v_pri + rate/shape against
    the near-zero component, each with its expected-log Gamma weight; the bg
    variant compares a fixed-variance active component against the spike at
    zero.  Depends on h_pri only through r2 = |h_pri|^2, which `denoise`
    computes once per pass and hands in; called without it, the step
    computes it.  v_pri must be positive and finite (`denoise` checks it).
    """
    if r2 is None:
        r2 = _squared_magnitude(h_pri)
    state.support_like = _activity_likelihood(r2, v_pri, state, cfg)


def _activity_likelihood(r2, v_pri, state, cfg, s_large=None):
    """clamp(sigmoid(log-odds of the active component)) from r2 = |h_pri|^2.

    A CN(0, s) component has log density -log(pi s) - r2 / s; pi cancels in
    the odds.  s_large = v_pri + rate/shape of the active component, when the
    caller already has it.
    """
    if cfg.variant == VARIANT_BG:
        s = v_pri + cfg.bg_variance
        log_odds = r2 * (1.0 / v_pri - 1.0 / s)
        log_odds += np.log(v_pri / s)
    else:
        if s_large is None:
            s_large = v_pri + state.large_rate / state.large_shape
        s_small = v_pri + state.small_rate / state.small_shape
        psi = digamma_fn(cfg.exact_digamma)
        den_large = state.large_rate if cfg.std_gamma_weight else state.large_shape
        den_small = state.small_rate if cfg.std_gamma_weight else state.small_shape
        log_odds = r2 * (1.0 / s_small - 1.0 / s_large)
        log_odds += psi(state.large_shape)
        log_odds -= np.log(den_large * s_large)
        log_odds -= psi(state.small_shape) - np.log(den_small * s_small)
    return _clamp(_sigmoid(log_odds), cfg.prob_floor)


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


def support_extrinsic(state, cfg, evidence=None):
    """Chain-side activity message for each subcarrier, excluding its own
    likelihood (leave-one-out in the log-odds domain)."""
    like_logit, llr = pooled_evidence(state) if evidence is None else evidence
    loo = llr[:, None] - like_logit
    chain = _logit(state.fwd_pred) + _logit(state.bwd_pred)
    state.support_ext = _clamp(_sigmoid(chain[:, None] + loo), cfg.prob_floor)


def update_precision_beliefs(h_pri, v_pri, state, cfg, evidence=None, r2=None,
                             ext_logit=None):
    """Gamma belief refresh from the current support posterior.

    Uses the beliefs that entered this pass for the component posteriors
    CN(g h_pri, g v_pri), then rewrites the Gamma parameters anchored at
    their priors.  Each component's statistic E|h|^2 = g^2 r2 + g v_pri needs
    only r2 = |h_pri|^2 (see `support_likelihood`).  ext_logit is
    logit(support_ext), which `denoise` computes once per pass and hands to
    this step and `posterior_moments`; called without it, the step computes
    it.  The bg variant has no precision beliefs to learn.
    """
    like_logit, _ = pooled_evidence(state) if evidence is None else evidence
    if ext_logit is None:
        ext_logit = _logit(state.support_ext)
    state.support_post = _clamp(_sigmoid(like_logit + ext_logit), cfg.prob_floor)
    if cfg.variant == VARIANT_BG:
        return
    if r2 is None:
        r2 = _squared_magnitude(h_pri)
    w = state.support_post
    gain_large = _gain(v_pri, state.large_rate / state.large_shape)
    large_stat = gain_large * r2
    large_stat += v_pri
    large_stat *= gain_large
    large_stat *= w
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
    # the near-zero gain is one per subcarrier, so it leaves the sums
    gain_small = _gain(v_pri, state.small_rate / state.small_shape)
    quiet = 1.0 - w
    quiet_count = quiet.sum(axis=0)
    quiet *= r2
    state.small_shape = cfg.small_shape + quiet_count
    state.small_rate = cfg.small_rate + gain_small * (
        gain_small * quiet.sum(axis=0) + v_pri * quiet_count
    )


def posterior_moments(h_pri, v_pri, state, cfg, r2=None, ext_logit=None):
    """Posterior mean and per-subcarrier average variance of the gains.

    Recomputes the activity weight w with the updated beliefs and collapses
    the two component posteriors CN(g_L h_pri, g_L v_pri) and
    CN(g_S h_pri, g_S v_pri) (g_S = 0 for bg): h_post = g h_pri with
    g = w g_L + (1 - w) g_S, and by the law of total variance each element's
    variance is g v_pri + w (1 - w) (g_L - g_S)^2 r2, with r2 = |h_pri|^2
    (see `support_likelihood`).  Only h_post is complex.  ext_logit =
    logit(support_ext) as in `update_precision_beliefs`.
    """
    if r2 is None:
        r2 = _squared_magnitude(h_pri)
    var_large = state.large_rate / state.large_shape
    s_large = v_pri + var_large
    if cfg.variant == VARIANT_BG:
        weight = state.support_post
        gain_small = 0.0
    else:
        like = _activity_likelihood(r2, v_pri, state, cfg, s_large)
        if ext_logit is None:
            ext_logit = _logit(state.support_ext)
        weight = _clamp(_sigmoid(_logit(like) + ext_logit), cfg.prob_floor)
        state.support_post = weight
        gain_small = _gain(v_pri, state.small_rate / state.small_shape)
    spread = var_large / s_large
    spread -= gain_small
    gain = weight * spread
    gain += gain_small
    h_post = gain * h_pri
    # w (1 - w) (g_L - g_S)^2 r2, the spread of the two component means
    mix = 1.0 - weight
    mix *= weight
    mix *= spread
    mix *= spread
    mix *= r2
    v_post = np.maximum(gain.mean(axis=0) * v_pri + mix.mean(axis=0), 1e-30)
    return h_post, v_post


def denoise(h_pri, v_pri, cfg, state=None):
    """One full denoiser pass; returns (h_post, v_post, state).

    Passing the returned state back in warm-starts the Gamma/Beta beliefs
    on the next turbo iteration; passing state=None resets them.  Raises
    ValueError unless every v_pri is positive and finite; h_pri is not
    checked, so a non-finite h_pri comes back as a non-finite h_post and
    v_post.
    """
    h_pri = np.asarray(h_pri, dtype=np.complex128)
    v_pri = np.asarray(v_pri, dtype=float)
    valid = (v_pri > 0.0) & (v_pri < math.inf)
    if not valid.all():
        raise ValueError(f"v_pri must be positive and finite, got {v_pri[~valid][0]}")
    N, P = h_pri.shape
    if state is None:
        state = init_state(N, P, cfg)
    r2 = _squared_magnitude(h_pri)
    support_likelihood(h_pri, v_pri, state, cfg, r2=r2)
    evidence = pooled_evidence(state)
    for _ in range(2):
        transitions = transition_log_expectations(state, cfg)
        forward_pass(state, cfg, evidence=evidence, transitions=transitions)
        backward_pass(state, cfg, evidence=evidence, transitions=transitions)
        update_transition_beliefs(state, cfg, evidence=evidence, transitions=transitions)
    support_extrinsic(state, cfg, evidence=evidence)
    ext_logit = _logit(state.support_ext)
    update_precision_beliefs(
        h_pri, v_pri, state, cfg, evidence=evidence, r2=r2, ext_logit=ext_logit
    )
    h_post, v_post = posterior_moments(h_pri, v_pri, state, cfg, r2=r2, ext_logit=ext_logit)
    return h_post, v_post, state
