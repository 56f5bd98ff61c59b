"""Structured sparsity denoiser with hyperparameter learning.

Given per-subcarrier Gaussian pseudo-priors (h_pri, v_pri), this module runs
one full pass of the support-chain / precision-learning message schedule:

  1. per-(element, subcarrier) support likelihoods from the current
     Gamma beliefs over the active and near-zero precisions,
  2. one chain round: the forward and the backward sweep along the support
     chain, run together as one sweep over 2B rows,
  3. first/pair support beliefs and Beta belief updates for the chain
     transition probabilities (steps 2-3 execute a second time with the
     refreshed beliefs),
  4. leave-one-subcarrier-out extrinsic support messages, Gamma belief
     updates, and the posterior mixture moments.

One pass runs B independent denoisers, called members, at once.  Every
array carries the member axis first: means (B, N, P), the state's
activity fields (B, N, P), each Gamma belief on the axes it is learned
over (`_belief_shapes`: (B, N, P) for tsgm-lvd's active precisions,
(B, 1, P) for the others), its chain fields (B, N) and its Beta counts
(B,).  Member b's block [b] of each array is C-contiguous, with the memory
layout of a one-member pass, so each member's output is bit for bit that
pass's: numpy sums each block as it sums the block alone.  The first element's belief loops over the members, and the
backward odds are taken row by row, as exp rounds a 2-D reversed view
differently.

A chain round sweeps 2B rows, rows 0 to B-1 each member's forward chain
and rows B to 2B-1 its reversed chain (`evidence_odds`, `forward_pass`).
The rows loop in scalar Python on short chains; members of at least
LANE_MIN_ELEMENTS chain elements (B N) run in lanes of LANE elements, one
numpy step for every lane of every row, with the scalar loop's bits
(`_lane_sweeps`).  `backward_pass` is only an alias of `forward_pass`, the
name of a second chain target of the benchmark's tracer.  `denoise`
takes (B, P) prior variances and hands the steps the same values on the
means' axes, v_pri of shape (B, 1, P).  `select_members` drops members
from a state.

Three prior variants share the schedule: per-element active-precision
learning ("tsgm-lvd"), subcarrier-pooled active-precision learning
("tsgm"), and a fixed-variance Bernoulli-Gaussian ("bg") whose near-zero
component is an exact spike at zero.

All probabilities are clamped to [floor, 1 - floor], floor = PROB_FLOOR, a
module constant that the steps read at call time.  The chain sweeps run on
odds p / (1 - p), clamped to the equivalent interval
[floor / (1 - floor), (1 - floor) / floor]: the sweeps keep only the
predicted odds, the filtered odds follow from them in one array pass, and
both are stored as probabilities.  The other steps combine probabilities in
the log-odds domain and map back with clamp(sigmoid(.)).  `_probability`
runs that chain (negate, numpy's vectorised exp, add one, reciprocal, clip)
in place in the temporary it is given, and `_logit` writes
log(p) - log1p(-p) into `out` (p itself when p is a temporary); a state
array such as support_like or support_ext is never written in place.

Each step takes the values it reads as required arguments, and `denoise`
computes each of them once and passes it in:

  - r2 = |h_pri|^2, once per pass;
  - s_large = v_pri + (active variance), returned by `support_likelihood`
    and handed to `update_precision_beliefs`, which runs on the same
    beliefs;
  - (like_logit, llr) of `pooled_evidence`, once per pass after the
    likelihood step;
  - the odds stack of `evidence_odds`, both directions, once per pass;
  - the log transition weights of `transition_log_expectations`, once per
    chain round;
  - ext_logit = logit(support_ext), once per pass after `support_extrinsic`.

The state also carries the arrays derived from the Gamma beliefs on the
active precisions, rate/shape and psi(shape) (`_active_beliefs`).  They are
computed once per set of beliefs, at the first read after `init_state` or
`update_precision_beliefs` sets new ones, and are keyed to the belief arrays
they came from, so a caller that assigns new belief arrays gets fresh
values.  The belief arrays are replaced, never written in place.

The wide (B, N, P) steps (likelihood, precision update, posterior moments)
run in real arithmetic: the activity odds, the Gamma statistics and the
posterior variance depend on h_pri only through r2, and h_post is a real
gain times h_pri.  v_pri must be positive and finite; `denoise` raises
ValueError otherwise.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .priors import VARIANT_BG, VARIANT_LVD, VARIANT_TSGM, VARIANTS, digamma_fn


# Gamma prior shapes, Beta prior pseudo-counts (a, b) on p10 and p01, and
# the floor: every probability is clamped to [PROB_FLOOR, 1 - PROB_FLOOR]
LARGE_SHAPE = SMALL_SHAPE = 1.0
P10_A = P10_B = P01_A = P01_B = 1.0
PROB_FLOOR = 1e-12


@dataclass
class PriorConfig:
    """Prior hyperparameters and algorithm switches for one denoiser.

    Raises ValueError naming the field unless large_rate, small_rate and
    bg_variance are positive and finite.  The shapes, pseudo-counts and
    probability floor are the module constants above.
    """

    variant: str = VARIANT_LVD
    large_rate: float = 1.0     # Gamma prior rate on the active precisions
    small_rate: float = 0.01    # Gamma prior rate on the near-zero precision
    bg_variance: float = 1.0    # fixed active variance for the bg variant
    exact_digamma: bool = False
    std_gamma_weight: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("large_rate", "small_rate", "bg_variance"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class DenoiserState:
    """Mutable belief state carried across turbo iterations (warm start).

    It holds B members, B the length of the Beta pseudo-counts: every array
    field has the member axis first, and member b's entries are its block
    [b].
    """

    support_like: np.ndarray = None   # (B, N, P) per-subcarrier activity likelihood
    support_ext: np.ndarray = None    # (B, N, P) leave-one-out chain message
    support_post: np.ndarray = None   # (B, N, P) posterior activity weight
    fwd_pred: np.ndarray = None       # (B, N) chain message into each element, forward
    fwd_filt: np.ndarray = None       # (B, N) forward message combined with evidence
    bwd_pred: np.ndarray = None       # (B, N) backward chain message
    bwd_filt: np.ndarray = None       # (B, N) backward message combined with evidence
    large_shape: np.ndarray = None    # Gamma belief on active precisions: (B, N, P)
    large_rate: np.ndarray = None     # for tsgm-lvd, (B, 1, P) for tsgm and bg
    small_shape: np.ndarray = None    # (B, 1, P) Gamma belief on near-zero precision
    small_rate: np.ndarray = None
    p10_a: np.ndarray = None          # (B,) Beta beliefs on the transition probabilities
    p10_b: np.ndarray = None
    p01_a: np.ndarray = None
    p01_b: np.ndarray = None
    first_active_belief: np.ndarray = None  # (B,)
    pair_belief: np.ndarray = None    # (B, 4, N-1): rows (00, 01, 10, 11)
    # (large_shape, large_rate, exact_digamma, rate/shape, psi(shape)) of
    # `_active_beliefs`, keyed to the first three
    active_beliefs: tuple = field(default=None, repr=False)

    @property
    def members(self):
        """B, the number of members."""
        return len(self.p10_a)


def _belief_shapes(N, P, cfg, members):
    """(active, near-zero) shapes of the Gamma beliefs of `members` members.

    tsgm-lvd learns one active precision per element and subcarrier,
    (B, N, P), and tsgm one per subcarrier, pooled over the N elements,
    (B, 1, P); bg learns none and keeps its prior at (B, 1, P).  Every
    variant has one near-zero precision per subcarrier, (B, 1, P).
    """
    per_subcarrier = (members, 1, P)
    return (members, N, P) if cfg.variant == VARIANT_LVD else per_subcarrier, per_subcarrier


def init_state(N, P, cfg, members=1):
    """Prior beliefs for `members` members of N elements and P subcarriers
    each, the Gamma beliefs at the shapes of `_belief_shapes`."""
    large, small = _belief_shapes(N, P, cfg, members)
    state = DenoiserState()
    state.large_shape = np.full(large, LARGE_SHAPE)
    state.large_rate = np.full(large, cfg.large_rate)
    state.small_shape = np.full(small, SMALL_SHAPE)
    state.small_rate = np.full(small, cfg.small_rate)
    state.p10_a, state.p10_b = np.full(members, P10_A), np.full(members, P10_B)
    state.p01_a, state.p01_b = np.full(members, P01_A), np.full(members, P01_B)
    return state


def select_members(state, members):
    """Keep only the given members (indices along the member axis, in
    order), in every array of the state, and return it."""
    for f in fields(state):
        value = getattr(state, f.name)
        if isinstance(value, np.ndarray):
            setattr(state, f.name, np.take(value, members, axis=0))
    state.active_beliefs = None
    return state


def _logit(p, out=None):
    """log(p) - log1p(-p), written into `out` (a fresh array when None; pass
    p itself when p is a temporary).  The same IEEE operations as the
    two-term expression, on one temporary for log1p(-p).  p is an array."""
    q = np.negative(p)
    np.log1p(q, out=q)
    out = np.log(p, out=out)
    out -= q
    return out


def _probability(z):
    """clip(1 / (1 + exp(-z)), PROB_FLOOR, 1 - PROB_FLOOR), computed in place
    in the array z, which the caller gives up, and returned.

    Runs on numpy's vectorised exp.  For z < -709, exp(-z) overflows to inf,
    the sigmoid is 0 and the clip lifts it to the floor; NaN stays NaN.
    """
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    return np.clip(z, PROB_FLOOR, 1.0 - PROB_FLOOR, out=z)


def transition_log_expectations(state, cfg):
    """Expected log transition weights under the current Beta beliefs.

    Returns one tuple (stay_active, turn_on, stay_quiet, turn_off) of floats
    per member, in the log domain: E[ln(1-p01)], E[ln p10], E[ln(1-p10)],
    E[ln p01].  `denoise` computes them once per chain round for the sweeps
    and the Beta update.  The six digammas of every member, psi(a + b),
    psi(a) and psi(b) of each Beta belief, go through one array call, with
    the bits of six scalar calls; NaN pseudo-counts give NaN.
    """
    p10_a, p10_b, p01_a, p01_b = state.p10_a, state.p10_b, state.p01_a, state.p01_b
    psi = digamma_fn(cfg.exact_digamma)
    rows = psi(np.concatenate((p10_a + p10_b, p10_a, p10_b, p01_a + p01_b, p01_a, p01_b)))
    return [
        (psi01_b - tot01, psi10_a - tot10, psi10_b - tot10, psi01_a - tot01)
        for tot10, psi10_a, psi10_b, tot01, psi01_a, psi01_b in rows.reshape(6, -1).T.tolist()
    ]


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


def _active_beliefs(state, cfg):
    """(rate/shape, psi(shape)) of the Gamma beliefs on the active precisions.

    Computed at the first read after the beliefs change and kept on the
    state, keyed to the `large_shape` and `large_rate` arrays it came from
    (by identity) and to `cfg.exact_digamma`.  `init_state` and
    `update_precision_beliefs` set new arrays (the latter also drops the
    carried ones), and so may a caller; an array written in place would not
    be seen.  The bg variant never reads it.
    """
    shape, rate = state.large_shape, state.large_rate
    cached = state.active_beliefs
    if (cached is None or cached[0] is not shape or cached[1] is not rate
            or cached[2] != cfg.exact_digamma):
        cached = (shape, rate, cfg.exact_digamma, rate / shape,
                  digamma_fn(cfg.exact_digamma)(shape))
        state.active_beliefs = cached
    return cached[3], cached[4]


def _active_variance(state, cfg):
    """Variance of the active component: the fixed `bg_variance` for bg,
    the Gamma belief's rate/shape otherwise."""
    if cfg.variant == VARIANT_BG:
        return cfg.bg_variance
    return _active_beliefs(state, cfg)[0]


def support_likelihood(r2, v_pri, state, cfg):
    """Per-(element, subcarrier) likelihood that the element is active.

    Weighs the active component CN(0, s) with s = v_pri + rate/shape against
    the near-zero component, each with its expected-log Gamma weight; the bg
    variant compares a fixed-variance active component against the spike at
    zero.  r2 = |h_pri|^2; v_pri must be positive and finite (`denoise`
    checks it).  Returns s_large = v_pri + (active variance), which
    `update_precision_beliefs` takes, as it runs on the same beliefs.
    """
    s_large = v_pri + _active_variance(state, cfg)
    state.support_like = _activity_likelihood(r2, v_pri, s_large, state, cfg)
    return s_large


def _activity_likelihood(r2, v_pri, s_large, state, cfg):
    """clamp(sigmoid(log-odds of the active component)) from r2 = |h_pri|^2.

    A CN(0, s) component has log density -log(pi s) - r2 / s; pi cancels in
    the odds.  s_large is the variance of the active component seen through
    v_pri: v_pri + bg_variance for bg, v_pri + rate/shape otherwise.  The
    log-odds are built in one (B, N, P) array, by the same IEEE operations
    in the same order as the expression they evaluate; log(den s_large) is
    a second array on the beliefs' axes, which broadcasts over the elements
    for tsgm as the near-zero terms do for every variant.
    """
    if cfg.variant == VARIANT_BG:
        log_odds = r2 * (1.0 / v_pri - 1.0 / s_large)
        log_odds += np.log(v_pri / s_large)
    else:
        s_small = v_pri + state.small_rate / state.small_shape
        psi = digamma_fn(cfg.exact_digamma)
        _, psi_large = _active_beliefs(state, cfg)
        den_large = state.large_rate if cfg.std_gamma_weight else state.large_shape
        den_small = state.small_rate if cfg.std_gamma_weight else state.small_shape
        log_odds = np.divide(1.0, np.broadcast_to(s_large, r2.shape))
        np.subtract(1.0 / s_small, log_odds, out=log_odds)
        log_odds *= r2
        log_odds += psi_large
        log_term = np.multiply(den_large, s_large)
        log_odds -= np.log(log_term, out=log_term)
        log_odds -= psi(state.small_shape) - np.log(den_small * s_small)
    return _probability(log_odds)


def pooled_evidence(state):
    """Activity log-odds per (element, subcarrier) and pooled per element.

    Returns (like_logit, llr): logit(support_like), shape (B, N, P), and its
    sum over the P subcarriers, shape (B, N).  `denoise` computes both once
    per pass, after `support_likelihood`.
    """
    like_logit = _logit(state.support_like)
    return like_logit, like_logit.sum(axis=2)


def evidence_odds(llr):
    """Evidence odds e = exp(pooled LLR) of both sweep directions, in visit
    order, as one (2B, N) stack.

    llr is (B, N).  Row b of the stack is member b's forward odds
    exp(llr[b]), row B + b its backward odds exp(llr[b, ::-1]).  Returns the
    pair (odds, sweep input) of the stack and what the sweeps step through:
    the stack in the (LANE, 2B, K) layout of `_lane_sweeps` when the members
    have at least LANE_MIN_ELEMENTS chain elements (B N), one list of floats
    per row for the scalar loops otherwise.  The backward odds are exp of
    the reversed LLR, not the reversed forward odds, and are taken row by
    row: numpy's exp rounds a negative-stride view differently from a
    contiguous array, and a 2-D reversed view differently again, and the
    sweeps keep the bits of one member's 1-D exp.  inf and 0 from overflow
    and underflow are left to the sweep's clamp.  `denoise` computes them
    once per pass for both chain rounds.
    """
    B = len(llr)
    e = np.empty((2 * B, llr.shape[1]))
    with np.errstate(over="ignore", under="ignore"):
        np.exp(llr, out=e[:B])
        for row, out in zip(llr, e[B:]):
            np.exp(row[::-1], out=out)
    layout = _lane_layout if llr.size >= LANE_MIN_ELEMENTS else np.ndarray.tolist
    return e, layout(e)


def _odds_sweep(q, evidence_odds, stay, enter, leave, stay_out, lo, hi):
    """One pass of the two-state chain filter in the odds domain.

    Starting from the predicted odds q of the first element visited, each step
    filters x = q e (e = exp(pooled LLR), a list of floats) and predicts the
    next element with the linear-fractional map
    q = (x stay + enter) / (x leave + stay_out).  The start value and both of
    these are clamped to the odds bounds [lo, hi], which also absorb e = inf
    or 0.  Returns the predicted odds only, as a list in visit order;
    `forward_pass` computes the filtered odds from them in one array pass.
    """
    q = min(max(q, lo), hi)
    pred = []
    append = pred.append
    for e in evidence_odds:
        append(q)
        x = q * e
        if x < lo:
            x = lo
        elif x > hi:
            x = hi
        q = (x * stay + enter) / (x * leave + stay_out)
        if q < lo:
            q = lo
        elif q > hi:
            q = hi
    return pred


# The lane path of the sweeps: lanes of LANE elements, at most LANE_ROUNDS
# fix-up rounds, for B members of at least LANE_MIN_ELEMENTS chain elements
# (B N): on fewer, the numpy calls of a lane pass cost more than the loop
LANE = 8
LANE_ROUNDS = 3
LANE_MIN_ELEMENTS = 1024


def _lane_layout(e):
    """The (R, N) odds e as (LANE, R, K) lanes, K = ceil(N / LANE): entry
    [j, r, k] is e[r, k LANE + j], and the last lane is padded with ones."""
    R, N = e.shape
    K = -(-N // LANE)
    padded = np.ones((R, K * LANE))
    padded[:, :N] = e
    return np.ascontiguousarray(padded.reshape(R, K, LANE).transpose(2, 0, 1))


def _lane_steps(q, lanes, pred, coef, lo, hi, check):
    """Run every lane through its LANE elements from the odds q, (R, K),
    the way `_odds_sweep` steps, writing the odds into element j to pred[j]
    and, at the end, the odds out of the lane to pred[LANE].  q is
    overwritten.

    With check, pred holds a recorded run, and the pass stops as soon as
    every lane's odds equal the recorded ones bit for bit (compared as
    bytes, so that NaN equals itself): from there on each lane repeats its
    record.
    """
    stay, enter, leave, stay_out = coef
    x, y = np.empty_like(q), np.empty_like(q)
    for j, e in enumerate(lanes):
        pred[j] = q
        np.multiply(q, e, out=x)
        np.maximum(x, lo, out=x)
        np.minimum(x, hi, out=x)
        np.multiply(x, leave, out=y)
        y += stay_out
        np.multiply(x, stay, out=q)
        q += enter
        q /= y
        np.maximum(q, lo, out=q)
        np.minimum(q, hi, out=q)
        if check and q.tobytes() == pred[j + 1].tobytes():
            return
    pred[-1] = q


def _lane_sweeps(members, lanes, e, lo, hi):
    """The predicted odds of `_odds_sweep` for every row at once, (R, N),
    bit for bit.

    members holds one (start, stay, enter, leave, stay_out) per row of the
    odds e (R, N), lanes the odds in the layout of `_lane_layout`.  Each
    row's chain is cut into K lanes of LANE elements, and one numpy step
    advances every lane of every row, with the IEEE products, sums,
    quotient and clamps of `_odds_sweep`, so that a lane run from the right
    start gives that loop's values.  The first lane of each chain starts
    from its true start, every other lane from odds 1.  A lane is confirmed
    when it starts where its predecessor ends, bit for bit (compared as
    int64, so that NaN equals itself); once every lane is, all are exact,
    as the first lanes are.  Each fix-up round re-runs every lane from its
    predecessor's end, until every lane meets its record (`_lane_steps`; a
    confirmed lane only repeats it).  After LANE_ROUNDS rounds, or after any
    round that leaves most lanes unconfirmed, `_odds_sweep` finishes each
    chain from its first unconfirmed lane, whose start is exact.
    """
    L, R, K = lanes.shape
    start, *coef = (np.array(c)[:, None] for c in zip(*members))
    pred = np.empty((L + 1, R, K))
    q = np.ones((R, K))
    q[:, :1] = np.minimum(np.maximum(start, lo), hi)
    with np.errstate(over="ignore"):
        _lane_steps(q, lanes, pred, coef, lo, hi, check=False)
        for fixups in range(LANE_ROUNDS + 1):
            # each lane's start: the true one for the first lanes, the end
            # of its predecessor for the others
            q = np.concatenate((pred[0, :, :1], pred[L, :, :-1]), axis=1)
            unconfirmed = q.view(np.int64) != pred[0].view(np.int64)
            count = np.count_nonzero(unconfirmed)
            if not count or fixups == LANE_ROUNDS or (fixups and 2 * count > unconfirmed.size):
                break
            _lane_steps(q, lanes, pred, coef, lo, hi, check=True)
    out = np.ascontiguousarray(pred[:L].transpose(1, 2, 0).reshape(R, K * L)[:, :e.shape[1]])
    if count:
        for r in np.flatnonzero(unconfirmed.any(axis=1)):
            k = int(unconfirmed[r].argmax())
            out[r, k * L:] = _odds_sweep(
                float(pred[L, r, k - 1]), e[r, k * L:].tolist(), *members[r][1:], lo, hi)
    return out


def _odds_bounds():
    """The odds of [PROB_FLOOR, 1 - PROB_FLOOR]."""
    return PROB_FLOOR / (1.0 - PROB_FLOOR), (1.0 - PROB_FLOOR) / PROB_FLOOR


def _sweep_members(transitions):
    """One (start, stay, enter, leave, stay_out) per row of the odds stack of
    `evidence_odds`, for the sweeps of `_odds_sweep` and `_lane_sweeps`: the
    linear weights math.exp(log weight) of `transition_log_expectations`.
    Member b's forward row b starts from the first element's odds
    turn_on / stay_quiet, its backward row B + b from 1 with the entering
    and leaving weights swapped."""
    forward, backward = [], []
    for logs in transitions:
        stay_active, turn_on, stay_quiet, turn_off = [math.exp(v) for v in logs]
        forward.append((turn_on / stay_quiet, stay_active, turn_on, turn_off, stay_quiet))
        backward.append((1.0, stay_active, turn_off, turn_on, stay_quiet))
    return forward + backward


def forward_pass(state, transitions, odds):
    """One chain round: the forward sweep of the support chain (predict,
    then fold in evidence) from the first element, and the backward sweep
    from the last element down, whose terminal message is uninformative
    (1/2), as one sweep over the 2B rows of the odds stack.

    transitions are the log weights of `transition_log_expectations`, odds
    the pair of `evidence_odds`.  Each row runs from the start and on the
    weights of `_sweep_members`: through one `_lane_sweeps` call when
    `evidence_odds` laid the stack out in lanes, through one `_odds_sweep`
    per row otherwise, with the same bits either way, and the bits of each
    direction swept alone.  The filtered odds are clip(pred e, lo, hi) in
    one array pass: the same IEEE product and clamp as the sweep's loop, so
    the same bits (an overflow to inf is clamped to hi).  Writes fwd_pred,
    fwd_filt, bwd_pred and bwd_filt as (B, N) probabilities in element
    order; the backward messages are stored as contiguous arrays, not as
    reversed views, whose later `np.log` would round differently.
    """
    e, sweep_odds = odds
    lo, hi = _odds_bounds()
    members = _sweep_members(transitions)
    if isinstance(sweep_odds, np.ndarray):
        pred = _lane_sweeps(members, sweep_odds, e, lo, hi)
    else:
        pred = np.array([_odds_sweep(m[0], e_list, *m[1:], lo, hi)
                         for m, e_list in zip(members, sweep_odds)], dtype=float)
    with np.errstate(over="ignore"):
        filt = np.clip(pred * e, lo, hi)
    pred /= 1.0 + pred
    filt /= 1.0 + filt
    B = len(transitions)
    state.fwd_pred, state.fwd_filt = pred[:B], filt[:B]
    state.bwd_pred, state.bwd_filt = pred[B:, ::-1].copy(), filt[B:, ::-1].copy()


# The name that the benchmark's tracer wraps as its second chain target,
# until ROADMAP item 7 retargets the span to the one round above.
backward_pass = forward_pass


def update_transition_beliefs(state, transitions, llr):
    """First/pair support beliefs and the Beta pseudo-count refresh.

    transitions are the log weights the sweeps ran on, llr the pooled
    evidence of `pooled_evidence`.  The first element's belief is taken
    member by member on numpy scalars.  The four pair log-weights are
    separate (B, N-1) arrays, normalized by their elementwise maximum and
    summed left to right, ((w00 + w01) + w10) + w11, the order of numpy's
    sum over the 4-wide axis of their stack; `pair_belief` is written pair
    by pair, and each pseudo-count sums one contiguous row.
    """
    log_weights = np.array(transitions).T[:, :, None]
    log_stay_active, log_turn_on, log_stay_quiet, log_turn_off = log_weights
    floor = PROB_FLOOR
    # clamp(sigmoid(logit(fwd) + logit(bwd) + llr)) at the first element, on
    # numpy scalars: the operations of `_logit` and `_probability`.  A loop
    # over the members, as ufunc calls on (B,) arrays cost more than the
    # loop at the CLI's B = 1 to 5 (17 against 5 us a call at B = 1)
    first = []
    with np.errstate(over="ignore"):
        for fwd, bwd, ev in zip(state.fwd_pred[:, 0], state.bwd_pred[:, 0], llr[:, 0]):
            z = (np.log(fwd) - np.log1p(-fwd)) + (np.log(bwd) - np.log1p(-bwd)) + ev
            first.append(min(max(1.0 / (1.0 + np.exp(-z)), floor), 1.0 - floor))
    first = state.first_active_belief = np.array(first)
    up = state.bwd_filt[:, 1:]
    dn = state.fwd_filt[:, :-1]
    up_off = 1.0 - up
    dn_off = 1.0 - dn
    with np.errstate(divide="ignore"):
        w = [
            np.log(up_off * dn_off) + log_stay_quiet,   # (0, 0)
            np.log(up_off * dn) + log_turn_off,         # prev 1 -> 0
            np.log(up * dn_off) + log_turn_on,          # prev 0 -> 1
            np.log(up * dn) + log_stay_active,          # (1, 1)
        ]
    peak = np.maximum(np.maximum(np.maximum(w[0], w[1]), w[2]), w[3])
    for wj in w:
        wj -= peak
        np.exp(wj, out=wj)
    total = w[0] + w[1]
    total += w[2]
    total += w[3]
    state.pair_belief = np.empty((up.shape[0], 4, up.shape[1]))
    for j, wj in enumerate(w):
        np.divide(wj, total, out=state.pair_belief[:, j])
    pair_00, pair_01, pair_10, pair_11 = state.pair_belief.sum(axis=2).T
    state.p10_a = first + P10_A + pair_10
    state.p10_b = (1.0 - first) + P10_B + pair_00
    state.p01_a = P01_A + pair_01
    state.p01_b = P01_B + pair_11


def support_extrinsic(state, like_logit, llr):
    """Chain-side activity message for each subcarrier, excluding its own
    likelihood (leave-one-out in the log-odds domain); like_logit and llr
    are the pair of `pooled_evidence`."""
    loo = np.subtract(llr[:, :, None], like_logit)
    chain = _logit(state.fwd_pred)
    chain += _logit(state.bwd_pred)
    np.add(chain[:, :, None], loo, out=loo)
    state.support_ext = _probability(loo)


def update_precision_beliefs(r2, v_pri, state, cfg, like_logit, ext_logit, s_large):
    """Gamma belief refresh from the current support posterior.

    The support posterior combines like_logit (of `pooled_evidence`) with
    ext_logit = logit(support_ext).  Uses the beliefs that entered this pass
    for the component posteriors CN(g h_pri, g v_pri), then rewrites the
    Gamma parameters anchored at their priors.  s_large = v_pri + rate/shape
    of those beliefs, as `support_likelihood` returned it, so the active gain
    is g = (rate/shape) / s_large.  Each component's statistic
    E|h|^2 = g^2 r2 + g v_pri needs only r2 = |h_pri|^2.  tsgm-lvd keeps one
    active belief per element and subcarrier, (B, N, P); tsgm stores the
    sums over the N elements once per subcarrier, (B, 1, P).  The bg variant
    has no precision beliefs to learn.
    """
    state.support_post = _probability(like_logit + ext_logit)
    if cfg.variant == VARIANT_BG:
        return
    w = state.support_post
    gain_large = _active_variance(state, cfg) / s_large
    # the beliefs are replaced below: drop what was derived from them, so
    # that their memory is free for the new arrays
    state.active_beliefs = None
    large_stat = gain_large * r2
    large_stat += v_pri
    large_stat *= gain_large
    large_stat *= w
    if cfg.variant == VARIANT_TSGM:
        state.large_shape = LARGE_SHAPE + w.sum(axis=1, keepdims=True)
        state.large_rate = cfg.large_rate + large_stat.sum(axis=1, keepdims=True)
    else:
        state.large_shape = LARGE_SHAPE + w
        large_stat += cfg.large_rate
        state.large_rate = large_stat
    # the near-zero gain is one per subcarrier, so it leaves the sums
    gain_small = _gain(v_pri, state.small_rate / state.small_shape)
    quiet = 1.0 - w
    quiet_count = quiet.sum(axis=1, keepdims=True)
    quiet *= r2
    state.small_shape = SMALL_SHAPE + quiet_count
    state.small_rate = cfg.small_rate + gain_small * (
        gain_small * quiet.sum(axis=1, keepdims=True) + v_pri * quiet_count
    )


def posterior_moments(h_pri, v_pri, state, cfg, r2, ext_logit):
    """Posterior mean (B, N, P) and per-subcarrier average variance (B, P)
    of the gains.

    Recomputes the activity weight w with the updated beliefs and collapses
    the two component posteriors CN(g_L h_pri, g_L v_pri) and
    CN(g_S h_pri, g_S v_pri) (g_S = 0 for bg): h_post = g h_pri with
    g = w g_L + (1 - w) g_S, and by the law of total variance each element's
    variance is g v_pri + w (1 - w) (g_L - g_S)^2 r2, with r2 = |h_pri|^2.
    Only h_post is complex.  ext_logit = logit(support_ext) as in
    `update_precision_beliefs`; bg reuses the support posterior of that
    step and reads neither it nor the refreshed likelihood.
    """
    var_large = _active_variance(state, cfg)
    s_large = v_pri + var_large
    if cfg.variant == VARIANT_BG:
        weight = state.support_post
        gain_small = 0.0
    else:
        weight = _activity_likelihood(r2, v_pri, s_large, state, cfg)
        _logit(weight, out=weight)
        weight += ext_logit
        state.support_post = _probability(weight)
        gain_small = _gain(v_pri, state.small_rate / state.small_shape)
    spread = np.divide(var_large, s_large, out=s_large)
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
    # the means of `np.mean`: the sums over N
    N = r2.shape[1]
    v_post = np.maximum(gain.sum(axis=1) / N * v_pri[:, 0] + mix.sum(axis=1) / N, 1e-30)
    return h_post, v_post


def denoise(h_pri, v_pri, cfg, state=None):
    """One full denoiser pass; returns (h_post, v_post, state).

    h_pri is (B, N, P) and v_pri (B, P) for the B members of `state`, a
    fresh state of B members when state is None; h_post and v_post have the
    same shapes.  Passing the returned state back in warm-starts the
    Gamma/Beta beliefs on the next turbo iteration; passing state=None, or
    a fresh `init_state`, resets them.  Raises ValueError unless every v_pri
    is positive and finite, B >= 1, and the state holds B members whose
    Gamma beliefs have the shapes of `_belief_shapes`; h_pri is not
    checked, so a non-finite h_pri comes back as a non-finite h_post and
    v_post.
    """
    h_pri = np.asarray(h_pri, dtype=np.complex128)
    v_pri = np.asarray(v_pri, dtype=float)
    valid = (v_pri > 0.0) & (v_pri < math.inf)
    if not valid.all():
        raise ValueError(f"v_pri must be positive and finite, got {v_pri[~valid][0]}")
    B, N, P = h_pri.shape
    if state is None:
        state = init_state(N, P, cfg, B)
    if v_pri.shape != (B, P) or state.members != B:
        raise ValueError(
            f"need (B, N, P) means, (B, P) variances and a state of B members; "
            f"got {h_pri.shape}, {v_pri.shape} and {state.members}"
        )
    large, small = _belief_shapes(N, P, cfg, B)
    expected = {"large_shape": large, "large_rate": large, "small_shape": small,
                "small_rate": small}
    given = {name: np.shape(getattr(state, name)) for name in expected}
    if B < 1 or given != expected:
        raise ValueError(
            f"need B >= 1 and {cfg.variant} Gamma beliefs of shapes {expected}; got {given}")
    v_pri = v_pri[:, None]    # on the means' axes, (B, 1, P)
    r2 = _squared_magnitude(h_pri)
    s_large = support_likelihood(r2, v_pri, state, cfg)
    like_logit, llr = pooled_evidence(state)
    odds = evidence_odds(llr)
    for _ in range(2):
        transitions = transition_log_expectations(state, cfg)
        forward_pass(state, transitions, odds)
        update_transition_beliefs(state, transitions, llr)
    support_extrinsic(state, like_logit, llr)
    ext_logit = _logit(state.support_ext)
    update_precision_beliefs(r2, v_pri, state, cfg, like_logit, ext_logit, s_large)
    h_post, v_post = posterior_moments(h_pri, v_pri, state, cfg, r2, ext_logit)
    return h_post, v_post, state
