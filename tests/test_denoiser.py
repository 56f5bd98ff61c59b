import copy
import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma
from scipy.special import expit

from oracles import (
    cgauss_logpdf,
    chain_enumeration,
    backward_pass_two_lists,
    chain_sweeps_probability,
    denoise_allocating,
    forward_pass_two_lists,
    mixture_posterior_closed_form,
    mixture_posterior_grid,
    posterior_moments_complex,
    spike_slab_weight,
    step_inputs,
    support_likelihood_complex,
    update_precision_beliefs_complex,
    update_transition_beliefs_stacked,
)
import hmpce.denoiser as denoiser
from hmpce.denoiser import (
    LARGE_SHAPE,
    P01_A,
    P01_B,
    P10_A,
    P10_B,
    PROB_FLOOR,
    SMALL_SHAPE,
    DenoiserState,
    PriorConfig,
    _logit,
    _probability,
    _squared_magnitude,
    denoise,
    evidence_odds,
    forward_pass,
    init_state,
    pooled_evidence,
    select_members,
    posterior_moments,
    support_extrinsic,
    support_likelihood,
    transition_log_expectations,
    update_precision_beliefs,
    update_transition_beliefs,
)
from hmpce.priors import VARIANT_BG, VARIANT_LVD, VARIANT_TSGM, digamma_fn


def psi_hat(x):
    return math.log(x) - 0.5 / x


def beta_log_pair(a, b):
    tot = psi_hat(a + b)
    return psi_hat(a) - tot, psi_hat(b) - tot


def cn_logpdf(x, v):
    return -math.log(math.pi * v) - abs(x) ** 2 / v


def logit(p):
    return np.log(p) - np.log1p(-p)


def chain_weights(state):
    """Unnormalized chain weights matching the expected-log transition
    values, recomputed from the Beta parameters with local arithmetic, for
    a one-member state."""
    ln_p10, ln_q10 = beta_log_pair(state.p10_a[0], state.p10_b[0])
    ln_p01, ln_q01 = beta_log_pair(state.p01_a[0], state.p01_b[0])
    first_w = np.array([math.exp(ln_q10), math.exp(ln_p10)])
    trans_w = np.array(
        [
            [math.exp(ln_q10), math.exp(ln_p10)],
            [math.exp(ln_p01), math.exp(ln_q01)],
        ]
    )
    return first_w, trans_w


def loglike_from_pi(pi):
    """Per-element (quiet, active) log-likelihoods of a one-member state's
    (1, N, P) support likelihoods."""
    (pi,) = pi
    return np.stack(
        [np.log1p(-pi).sum(axis=1), np.log(pi).sum(axis=1)], axis=1
    )


def one(x):
    """A one-member state's (1,) array of x."""
    return np.array([float(x)])


def frozen_chain_state(rng, N, P, cfg):
    state = init_state(N, P, cfg)
    state.p10_a = one(rng.uniform(0.5, 3.0))
    state.p10_b = one(rng.uniform(0.5, 3.0))
    state.p01_a = one(rng.uniform(0.5, 3.0))
    state.p01_b = one(rng.uniform(0.5, 3.0))
    state.support_like = rng.uniform(0.05, 0.95, size=(1, N, P))
    return state


# ---------------------------------------------------------------------------
# activity likelihoods


def test_symmetric_mixture_gives_half():
    cfg = PriorConfig(large_rate=0.5, small_rate=0.5)
    state = init_state(4, 2, cfg)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((1, 4, 2)) + 1j * rng.standard_normal((1, 4, 2))
    support_likelihood(_squared_magnitude(h), np.array([[[0.3, 0.8]]]), state, cfg)
    assert np.allclose(state.support_like, 0.5, atol=1e-12)


def test_strong_signal_saturates_activity():
    cfg = PriorConfig()
    state = init_state(1, 1, cfg)
    support_likelihood(np.array([[[1.0]]]), np.array([[[0.01]]]), state, cfg)
    assert state.support_like[0, 0, 0] > 1.0 - 1e-10
    support_likelihood(np.array([[[0.0]]]), np.array([[[0.01]]]), state, cfg)
    assert state.support_like[0, 0, 0] < 0.5


def test_activity_likelihood_matches_direct_formula():
    rng = np.random.default_rng(3)
    N, P = 6, 3
    for std_weight in (False, True):
        cfg = PriorConfig(std_gamma_weight=std_weight)
        state = init_state(N, P, cfg)
        state.large_shape = rng.uniform(0.5, 4.0, (1, N, P))
        state.large_rate = rng.uniform(0.2, 3.0, (1, N, P))
        state.small_shape = rng.uniform(0.5, 4.0, (1, 1, P))
        state.small_rate = rng.uniform(0.005, 0.1, (1, 1, P))
        h = 0.5 * (rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P)))
        v = rng.uniform(0.05, 1.0, P)
        support_likelihood(_squared_magnitude(h[None]), v[None, None], state, cfg)
        for n in range(N):
            for p in range(P):
                es, er = state.large_shape[0, n, p], state.large_rate[0, n, p]
                al, be = state.small_shape[0, 0, p], state.small_rate[0, 0, p]
                den_l = er if std_weight else es
                den_s = be if std_weight else al
                la = psi_hat(es) - math.log(den_l) + cn_logpdf(h[n, p], v[p] + er / es)
                lq = psi_hat(al) - math.log(den_s) + cn_logpdf(h[n, p], v[p] + be / al)
                expect = 1.0 / (1.0 + math.exp(lq - la))
                assert state.support_like[0, n, p] == pytest.approx(expect, abs=1e-12)


def test_exact_digamma_switch():
    cfg = PriorConfig(exact_digamma=True)
    state = init_state(1, 1, cfg)
    state.large_shape = np.array([[[2.0]]])
    state.large_rate = np.array([[[1.5]]])
    h, v = np.array([[[0.4 + 0.2j]]]), np.array([[[0.3]]])
    support_likelihood(_squared_magnitude(h), v, state, cfg)
    la = float(scipy_digamma(2.0)) - math.log(2.0) + cn_logpdf(h[0, 0, 0], 0.3 + 0.75)
    lq = float(scipy_digamma(1.0)) - math.log(1.0) + cn_logpdf(h[0, 0, 0], 0.3 + 0.01)
    expect = 1.0 / (1.0 + math.exp(lq - la))
    assert state.support_like[0, 0, 0] == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("exact", (False, True))
def test_transition_log_expectations_equal_two_beta_calls_bit_for_bit(exact):
    # one six-element digamma call against the two Beta expectations it
    # replaces, over pseudo-counts 1 to 1e4 and with one NaN in each slot
    cfg = PriorConfig(exact_digamma=exact)
    rng = np.random.default_rng(12)
    counts = [tuple(c) for c in 10.0 ** rng.uniform(0.0, 4.0, size=(300, 4))]
    counts += [(1.0, 1.0, 1.0, 1.0), (1e4, 1e4, 1e4, 1e4), (1.0, 1e4, 1e4, 1.0)]
    for slot in range(4):
        case = [2.0, 30.0, 5.0, 400.0]
        case[slot] = math.nan
        counts.append(tuple(case))
    psi = digamma_fn(exact)

    def beta_logs(a, b):
        # (E[ln p], E[ln(1-p)]) under Beta(a, b), one scalar digamma at a time
        tot = psi(a + b)
        return psi(a) - tot, psi(b) - tot

    for p10_a, p10_b, p01_a, p01_b in counts:
        state = DenoiserState(p10_a=one(p10_a), p10_b=one(p10_b), p01_a=one(p01_a),
                              p01_b=one(p01_b))
        (got,) = transition_log_expectations(state, cfg)
        turn_on, stay_quiet = beta_logs(p10_a, p10_b)
        turn_off, stay_active = beta_logs(p01_a, p01_b)
        want = (stay_active, turn_on, stay_quiet, turn_off)
        assert all(type(x) is float for x in got)
        np.testing.assert_array_equal(
            np.array(got).view(np.uint64), np.array(want).view(np.uint64)
        )


def test_cgauss_values():
    def pdf(x, mean, variance):
        return np.exp(cgauss_logpdf(x, mean, variance))

    assert pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert pdf(1.0, 1.0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert pdf(1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-12)
    x = np.array([0.3 + 0.4j, -1.0j])
    expect = np.exp(-np.abs(x - 0.1) ** 2 / 0.7) / (math.pi * 0.7)
    assert np.allclose(pdf(x, 0.1, 0.7), expect, rtol=1e-12, atol=0.0)


def test_cgauss_domain():
    for bad in (0.0, -2.0):
        with pytest.raises(ValueError):
            cgauss_logpdf(0.0, 0.0, bad)
        with pytest.raises(ValueError):
            cgauss_logpdf(np.zeros(2), 0.0, np.array([1.0, bad]))


def test_cgauss_grid_integral():
    v = 0.8
    sigma = math.sqrt(v)
    ax = np.linspace(-6.0 * sigma, 6.0 * sigma, 601)
    re, im = np.meshgrid(ax, ax)
    cell = (ax[1] - ax[0]) ** 2
    total = np.exp(cgauss_logpdf(re + 1j * im, 0.2 + 0.1j, v)).sum() * cell
    assert abs(total - 1.0) < 1e-3


def test_bg_likelihood_is_spike_slab_ratio():
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=1.0)
    state = init_state(4, 1, cfg)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((1, 4, 1)) + 1j * rng.standard_normal((1, 4, 1))
    v = np.array([[[0.2]]])
    support_likelihood(_squared_magnitude(h), v, state, cfg)
    for n in range(4):
        expect = spike_slab_weight(h[0, n, 0], 0.2, 0.5, 1.0)
        assert state.support_like[0, n, 0] == pytest.approx(expect, abs=1e-12)
    # spike favored at the origin, activity saturates for huge inputs
    support_likelihood(np.array([[[0.0]]]), v, state, cfg)
    assert state.support_like[0, 0, 0] < 0.5
    support_likelihood(np.array([[[1e4]]]), v, state, cfg)
    assert state.support_like[0, 0, 0] >= 1.0 - 1e-11


# ---------------------------------------------------------------------------
# support chain vs enumeration


def test_chain_quantities_match_enumeration():
    cfg = PriorConfig()
    rng = np.random.default_rng(101)
    for _ in range(10):
        N, P = 8, 2
        state = frozen_chain_state(rng, N, P, cfg)
        first_w, trans_w = chain_weights(state)
        loglike = loglike_from_pi(state.support_like)
        llr = logit(state.support_like[0]).sum(axis=1)
        x = step_inputs(state, cfg)
        forward_pass(state, x.transitions, x.odds)
        update_transition_beliefs(state, x.transitions, x.llr)
        ref = chain_enumeration(first_w, trans_w, loglike)
        assert np.max(np.abs(state.fwd_filt[0] - ref["prefix_filt"][:, 1])) < 1e-10
        assert np.max(np.abs(state.fwd_pred[0] - ref["prefix_pred"][:, 1])) < 1e-10
        assert np.max(np.abs(state.bwd_filt[0] - ref["suffix_filt"][:, 1])) < 1e-10
        assert np.max(np.abs(state.bwd_pred[0] - ref["suffix_pred"][:, 1])) < 1e-10
        assert abs(state.first_active_belief[0] - ref["full"][0, 1]) < 1e-10
        pair_cols = np.stack(
            [
                ref["pair"][:, 0, 0],
                ref["pair"][:, 1, 0],
                ref["pair"][:, 0, 1],
                ref["pair"][:, 1, 1],
            ],
            axis=1,
        )
        assert np.max(np.abs(state.pair_belief[0].T - pair_cols)) < 1e-10
        marginal = expit(logit(state.fwd_pred[0]) + logit(state.bwd_pred[0]) + llr)
        assert np.max(np.abs(marginal - ref["full"][:, 1])) < 1e-10


def test_support_extrinsic_matches_leave_one_out_enumeration():
    cfg = PriorConfig()
    rng = np.random.default_rng(103)
    N, P = 6, 2
    state = frozen_chain_state(rng, N, P, cfg)
    first_w, trans_w = chain_weights(state)
    loglike = loglike_from_pi(state.support_like)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    support_extrinsic(state, x.like_logit, x.llr)
    for n in range(N):
        for p in range(P):
            reduced = loglike.copy()
            keep = [q for q in range(P) if q != p]
            reduced[n, 0] = np.log1p(-state.support_like[0, n, keep]).sum()
            reduced[n, 1] = np.log(state.support_like[0, n, keep]).sum()
            ref = chain_enumeration(first_w, trans_w, reduced)
            assert abs(state.support_ext[0, n, p] - ref["full"][n, 1]) < 1e-10


def _sweep_case(rng, N, kind, monkeypatch):
    """A frozen chain state: random, clamp-binding, with a clamp-binding first
    prediction, or with saturating pooled evidence (|LLR| > 745, so exp
    overflows and underflows).  The clamp-binding kinds raise the floor to
    1e-3 through `monkeypatch`."""
    if kind == "random":
        cfg = PriorConfig()
        state = frozen_chain_state(rng, N, 2, cfg)
    elif kind == "clamp":
        # a near-certain stay-active transition pins the forward prediction,
        # and strong evidence pins the filtered messages, to the
        # [floor, 1 - floor] clamp
        monkeypatch.setattr(denoiser, "PROB_FLOOR", 1e-3)
        cfg = PriorConfig()
        state = frozen_chain_state(rng, N, 3, cfg)
        state.p01_a = one(rng.uniform(0.02, 0.1))
        state.p01_b = one(rng.uniform(20.0, 60.0))
        state.support_like = np.where(
            rng.random((1, N, 1)) < 0.5, 1e-5, 1.0 - 1e-5
        ) * np.ones((1, 1, 3))
    elif kind == "sticky":
        # sticky Beta beliefs on p10 put the first prediction
        # turn_on / (turn_on + stay_quiet) within 1e-7 of 1, past 1 - floor
        monkeypatch.setattr(denoiser, "PROB_FLOOR", 1e-3)
        cfg = PriorConfig()
        state = frozen_chain_state(rng, N, 3, cfg)
        state.p10_a = one(rng.uniform(20.0, 60.0))
        state.p10_b = one(rng.uniform(0.02, 0.1))
    else:
        cfg = PriorConfig()
        P = 32
        state = frozen_chain_state(rng, N, P, cfg)
        side = rng.integers(0, 3, size=(1, N, 1))
        side[0, 0], side[0, -1] = 1, 0
        state.support_like = np.where(
            side == 0, 1e-12, np.where(side == 1, 1.0 - 1e-12, state.support_like)
        )
    return state, cfg


@pytest.mark.parametrize("N", [1, 2, 3, 64])
@pytest.mark.parametrize("kind", ["random", "clamp", "sticky", "saturate"])
def test_odds_sweeps_match_probability_sweeps(N, kind, monkeypatch):
    rng = np.random.default_rng([N, len(kind), 1])
    for _ in range(5):
        state, cfg = _sweep_case(rng, N, kind, monkeypatch)
        x = step_inputs(state, cfg)
        weights = [math.exp(v) for v in x.transitions[0]]
        llr = logit(state.support_like[0]).sum(axis=1)
        floor = denoiser.PROB_FLOOR
        ref = chain_sweeps_probability(weights, llr, floor)
        forward_pass(state, x.transitions, x.odds)
        got = (state.fwd_pred, state.fwd_filt, state.bwd_pred, state.bwd_filt)
        for g, r in zip(got, ref):
            assert g.shape == (1, N)
            assert np.max(np.abs(g - r)) < 1e-12
        if kind == "saturate":
            assert np.abs(llr).max() > 745.0
        if kind == "sticky":
            stay_active, turn_on, stay_quiet, turn_off = weights
            assert turn_on / (turn_on + stay_quiet) > 1.0 - floor
            assert state.fwd_pred[0, 0] == pytest.approx(1.0 - floor, abs=1e-15)
        if kind == "clamp" and N == 64:
            for msgs in ((ref[0], ref[2]), (ref[1], ref[3])):
                pinned = np.concatenate(msgs)
                assert np.any(np.isclose(pinned, floor, rtol=0, atol=1e-15)
                              | np.isclose(pinned, 1 - floor, rtol=0, atol=1e-15))


CHAIN_FIELDS = (
    "fwd_pred", "fwd_filt", "bwd_pred", "bwd_filt", "pair_belief",
    "first_active_belief", "p10_a", "p10_b", "p01_a", "p01_b",
)
CHAIN_MESSAGES = CHAIN_FIELDS[:4]


def _chain_round_case(rng, N, kind, cfg):
    """A frozen chain state whose pooled evidence is random, makes the
    [floor, 1 - floor] clamps bind, saturates (|LLR| > 745), or says that
    every element is quiet or every element is active."""
    floor = denoiser.PROB_FLOOR
    P = 32 if kind == "saturate" else 3
    state = frozen_chain_state(rng, N, P, cfg)
    if kind == "clamp":
        # sticky transitions pin the predictions, near-certain evidence the
        # filtered messages
        state.p01_a, state.p01_b = one(rng.uniform(0.02, 0.1)), one(rng.uniform(20.0, 60.0))
        state.p10_a, state.p10_b = one(rng.uniform(20.0, 60.0)), one(rng.uniform(0.02, 0.1))
        side = rng.random((1, N, 1)) < 0.5
        state.support_like = np.where(side, floor, 1.0 - floor) * np.ones((1, 1, P))
    elif kind == "saturate":
        side = rng.random((1, N, 1)) < 0.5
        state.support_like = np.where(side, 1e-12, 1.0 - 1e-12) * np.ones((1, 1, P))
    elif kind == "quiet":
        state.support_like = rng.uniform(floor, 0.01, size=(1, N, P))
    elif kind == "active":
        state.support_like = rng.uniform(0.99, 1.0 - floor, size=(1, N, P))
    return state


def _stack_members(states):
    """One state whose members are those of `states`, in order."""
    stacked = DenoiserState()
    for name, value in vars(states[0]).items():
        if isinstance(value, np.ndarray):
            setattr(stacked, name, np.concatenate([getattr(s, name) for s in states]))
    return stacked


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("floor", [1e-12, 1e-3])
@pytest.mark.parametrize("N, members", [(1, 1), (2, 1), (3, 1), (2048, 1), (2048, 2)],
                         ids=["1", "2", "3", "2048", "2048x2"])
@pytest.mark.parametrize("kind", ["random", "clamp", "saturate", "quiet", "active"])
def test_chain_round_equals_the_two_list_stacked_form_bit_for_bit(
        variant, floor, N, members, kind, monkeypatch):
    # two chain rounds as `denoise` runs them, against the earlier package
    # form: odds sweeps that keep both lists, pair beliefs from a stacked
    # (N-1, 4) array.  At N = 2048 the chains take the lane path, with one
    # member and with two at once, each member against the earlier form on
    # that member alone
    monkeypatch.setattr(denoiser, "PROB_FLOOR", floor)
    cfg = PriorConfig(variant=variant)
    rng = np.random.default_rng([N, len(kind), int(-math.log10(floor))])
    refs = [_chain_round_case(rng, N, kind, cfg) for _ in range(members)]
    state = _stack_members(refs)
    evidence = pooled_evidence(state)
    llr = evidence[1]
    odds = evidence_odds(llr)
    ref_evidence = [pooled_evidence(ref) for ref in refs]
    if kind == "saturate":
        assert np.abs(llr).max() > 745.0
    for _ in range(2):
        transitions = transition_log_expectations(state, cfg)
        forward_pass(state, transitions, odds)
        update_transition_beliefs(state, transitions, llr)
        for b, (ref, evidence) in enumerate(zip(refs, ref_evidence)):
            transitions = transition_log_expectations(ref, cfg)
            forward_pass_two_lists(ref, cfg, evidence=evidence, transitions=transitions)
            backward_pass_two_lists(ref, cfg, evidence=evidence, transitions=transitions)
            update_transition_beliefs_stacked(ref, cfg, evidence=evidence, transitions=transitions)
            for name in CHAIN_FIELDS:
                np.testing.assert_array_equal(getattr(state, name)[b], getattr(ref, name)[0],
                                              err_msg=name)
        for name in ("fwd_pred", "fwd_filt", "bwd_pred", "bwd_filt", "pair_belief"):
            assert getattr(state, name).flags.c_contiguous, name
        assert state.pair_belief.shape == (len(refs), 4, N - 1)
    if kind == "clamp" and N > 3:
        odds_lo = floor / (1.0 - floor)
        pinned = np.concatenate([state.fwd_pred, state.fwd_filt, state.bwd_filt])
        assert np.any(pinned == odds_lo / (1.0 + odds_lo))


# ---------------------------------------------------------------------------
# the lane path of the chain sweeps


def _lane_transitions(rng, B, p10=((0.5, 30.0),) * 2, p01=((0.5, 30.0),) * 2):
    """`transition_log_expectations` of B members, each with its own Beta
    beliefs: the pseudo-counts a and b of p10 and of p01 drawn from the
    given ranges."""
    state = init_state(1, 1, PriorConfig(), B)
    state.p10_a, state.p10_b = (rng.uniform(*bounds, B) for bounds in p10)
    state.p01_a, state.p01_b = (rng.uniform(*bounds, B) for bounds in p01)
    return transition_log_expectations(state, PriorConfig())


def _lane_members(rng, B, backward, **beliefs):
    """One direction's rows of `_sweep_members` for B members of
    `_lane_transitions`: the forward rows, or the backward ones."""
    members = denoiser._sweep_members(_lane_transitions(rng, B, **beliefs))
    return members[B:] if backward else members[:B]


def _lanes_against_scalar_loop(members, e, monkeypatch):
    """The lane path's predicted odds, asserted equal bit for bit to one
    `_odds_sweep` per member (NaN payloads included), and the length of
    each chain that the lane path finished with `_odds_sweep`."""
    lo, hi = denoiser._odds_bounds()
    sweep = denoiser._odds_sweep
    want = np.array([sweep(m[0], row, *m[1:], lo, hi)
                     for m, row in zip(members, e.tolist())]).reshape(e.shape)
    calls = []
    monkeypatch.setattr(denoiser, "_odds_sweep",
                        lambda *args: calls.append(len(args[1])) or sweep(*args))
    got = denoiser._lane_sweeps(members, denoiser._lane_layout(e), e, lo, hi)
    monkeypatch.setattr(denoiser, "_odds_sweep", sweep)
    assert got.shape == e.shape and got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    return got, calls


def _odds(llr):
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(llr)


@pytest.mark.parametrize("N", [1, 2, 7, 8, 9, 1023, 1024, 2048, 2049])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("scale", [1, 20, 400])
def test_lane_sweeps_equal_the_scalar_loop_bit_for_bit(N, B, backward, scale, monkeypatch):
    # llr ~ N(0, scale^2): slowly mixing at 1, mostly decisive at 20, and at
    # 400 exp overflows to inf and underflows to 0
    rng = np.random.default_rng([N, B, backward, scale])
    members = _lane_members(rng, B, backward)
    e = _odds(scale * rng.standard_normal((B, N)))
    pred, _ = _lanes_against_scalar_loop(members, e, monkeypatch)
    if scale == 400 and N >= 1023:
        lo, hi = denoiser._odds_bounds()
        with np.errstate(over="ignore"):
            filt = np.clip(pred * e, lo, hi)
        assert np.isinf(e).any() and (e == 0.0).any()
        assert (filt == lo).any() and (filt == hi).any()


@pytest.mark.parametrize("backward", [False, True])
def test_lane_sweeps_keep_the_bits_under_a_patched_floor(backward, monkeypatch):
    # a floor of 1e-3 and sticky transitions, p10 about 1e-2 and p01 about
    # 1e-4 for the first member and the other way round for the second,
    # make the predicted odds' clamp bind at hi in the first member and at
    # lo in the second
    monkeypatch.setattr(denoiser, "PROB_FLOOR", 1e-3)
    rng = np.random.default_rng([backward, 3])
    often, rarely = ((0.02, 0.05), (2.0, 4.0)), ((0.02, 0.05), (200.0, 400.0))
    members = (_lane_members(rng, 1, backward, p10=often, p01=rarely)
               + _lane_members(rng, 1, backward, p10=rarely, p01=often))
    e = _odds(20.0 * rng.standard_normal((2, 2048)))
    pred, _ = _lanes_against_scalar_loop(members, e, monkeypatch)
    lo, hi = denoiser._odds_bounds()
    assert (pred[0] == hi).any() and (pred[1] == lo).any()


@pytest.mark.parametrize("B", [1, 3])
def test_lane_sweeps_end_and_keep_the_bits_on_nan_evidence(B, monkeypatch):
    # every message after a NaN is NaN, one more lane per fix-up round, so
    # the round cap ends it; where NaN is the start of a chain's last lane,
    # that lane is confirmed without the scalar loop only because the
    # lanes compare bits (NaN != NaN)
    rng = np.random.default_rng([B, 4])
    members = _lane_members(rng, B, False)
    e = _odds(20.0 * rng.standard_normal((B, 2048)))
    e[0, 700] = math.nan
    pred, calls = _lanes_against_scalar_loop(members, e, monkeypatch)
    assert np.isnan(pred[0, 701:]).all() and not np.isnan(pred[0, :701]).any()
    assert len(calls) == 1
    e[0, 700] = 1.0
    e[:, 2047 - denoiser.LANE] = math.nan
    pred, calls = _lanes_against_scalar_loop(members, e, monkeypatch)
    assert np.isnan(pred[:, 2048 - denoiser.LANE:]).all()
    assert calls == []


# slowly mixing evidence on the chain's own persistence (p10 about 0.05,
# p01 about 0.2): no lane forgets its start within LANE elements
SLOW_MIXING = {"llr ~ N(0, 1)": lambda rng: rng.standard_normal((1, 2048)),
               "e = 1": lambda rng: np.zeros((1, 2048))}


@pytest.mark.parametrize("kind", SLOW_MIXING)
def test_lane_sweeps_finish_slowly_mixing_chains_with_the_scalar_loop(kind, monkeypatch):
    rng = np.random.default_rng(5)
    members = _lane_members(rng, 1, False, p10=((4.0, 6.0), (76.0, 80.0)),
                            p01=((16.0, 18.0), (64.0, 66.0)))
    llr = SLOW_MIXING[kind](rng)
    _, calls = _lanes_against_scalar_loop(members, np.exp(llr), monkeypatch)
    # from the third lane, after one fix-up round: the round confirms the
    # second lane and leaves most others unconfirmed
    assert calls == [2048 - 2 * denoiser.LANE]


def _takes_lanes(llr):
    """Whether the chain rounds over the (B, N) llr take the lane path, that
    is, get their odds in a lane layout from `evidence_odds`."""
    e, sweep_odds = evidence_odds(llr)
    assert e.shape == (2 * llr.shape[0], llr.shape[1])
    return isinstance(sweep_odds, np.ndarray)


def test_the_lane_path_starts_at_1024_chain_elements():
    llr = np.random.default_rng(7).standard_normal((1, 2048))
    assert _takes_lanes(llr)
    assert _takes_lanes(llr[:, :1024])
    assert _takes_lanes(llr.reshape(2, 1024)[:, :512])
    # subcarrier-wide's one chain of 256 and cli-sweep's two take the loop
    assert not _takes_lanes(llr[:, :1023])
    assert not _takes_lanes(llr[:, :256])
    assert not _takes_lanes(llr.reshape(8, 256)[:2])
    # whatever the evidence: weak, constant or NaN
    assert _takes_lanes(np.zeros((1, 1024)))
    assert _takes_lanes(np.full((1, 1024), math.nan))


def test_long_chains_run_the_scalar_loop_only_as_the_fallback(monkeypatch):
    # at chain-long's N = 2048: a guard that the lane path is on where it
    # should be, and that the slowly mixing fallback input finishes each
    # direction's row with one scalar loop, in the round's one lane call
    calls = []
    sweep = denoiser._odds_sweep
    monkeypatch.setattr(denoiser, "_odds_sweep", lambda *args: calls.append(1) or sweep(*args))
    rng = np.random.default_rng(6)
    cfg = PriorConfig()
    state = init_state(2048, 1, cfg)
    state.p10_a, state.p10_b, state.p01_a, state.p01_b = one(4.0), one(80.0), one(16.0), one(64.0)
    transitions = transition_log_expectations(state, cfg)
    for scale, want in ((20.0, 0), (1.0, 2)):
        calls.clear()
        odds = evidence_odds(scale * rng.standard_normal((1, 2048)))
        assert isinstance(odds[1], np.ndarray), scale
        forward_pass(state, transitions, odds)
        assert len(calls) == want, scale


def _round_against_two_loops(transitions, llr, monkeypatch):
    """One chain round of `forward_pass` on the (B, N) llr, asserted equal
    bit for bit (NaN payloads included) to a forward and a backward
    `_odds_sweep` loop per member, each on its own direction's 1-D exp and
    weights; returns the round's `_odds_sweep` calls, as (chain length,
    whether the row is a backward one)."""
    B, N = llr.shape
    lo, hi = denoiser._odds_bounds()
    sweep = denoiser._odds_sweep
    want = {name: np.empty((B, N)) for name in CHAIN_MESSAGES}
    for b, logs in enumerate(transitions):
        stay_active, turn_on, stay_quiet, turn_off = [math.exp(v) for v in logs]
        directions = (
            ("fwd", llr[b], (turn_on / stay_quiet, stay_active, turn_on, turn_off, stay_quiet)),
            ("bwd", llr[b, ::-1], (1.0, stay_active, turn_off, turn_on, stay_quiet)),
        )
        for name, row, (start, *weights) in directions:
            e = _odds(row)
            pred = np.array(sweep(start, e.tolist(), *weights, lo, hi))
            with np.errstate(over="ignore"):
                filt = np.clip(pred * e, lo, hi)
            order = slice(None, None, -1 if name == "bwd" else 1)
            want[name + "_pred"][b] = (pred / (1.0 + pred))[order]
            want[name + "_filt"][b] = (filt / (1.0 + filt))[order]
    calls = []
    backward = {tuple(math.exp(logs[j]) for j in (0, 3, 1)) for logs in transitions}

    def counted(q, e_list, stay, enter, leave, stay_out, lo, hi):
        calls.append((len(e_list), (stay, enter, leave) in backward))
        return sweep(q, e_list, stay, enter, leave, stay_out, lo, hi)

    monkeypatch.setattr(denoiser, "_odds_sweep", counted)
    state = init_state(N, 1, PriorConfig(), B)
    forward_pass(state, transitions, evidence_odds(llr))
    monkeypatch.setattr(denoiser, "_odds_sweep", sweep)
    for name in CHAIN_MESSAGES:
        got = getattr(state, name)
        assert got.shape == (B, N) and got.flags.c_contiguous, name
        np.testing.assert_array_equal(got.view(np.int64), want[name].view(np.int64),
                                      err_msg=name)
    return calls


# each kind: the (B, N) llr, the Beta belief ranges and the floor
ROUND_CASES = {
    "strong": (20.0, {}, None),
    "weak": (1.0, {}, None),
    "slowly mixing": (1.0, {"p10": ((4.0, 6.0), (76.0, 80.0)),
                            "p01": ((16.0, 18.0), (64.0, 66.0))}, None),
    "nan": (20.0, {}, None),
    "floor": (20.0, {"p10": ((0.02, 0.05), (2.0, 4.0)),
                     "p01": ((0.02, 0.05), (200.0, 400.0))}, 1e-3),
}


@pytest.mark.parametrize("N", [511, 512, 1023, 2048, 2051])
@pytest.mark.parametrize("B", [1, 2, 3])
@pytest.mark.parametrize("kind", ROUND_CASES)
def test_one_round_equals_two_single_direction_loops_bit_for_bit(kind, B, N, monkeypatch):
    # both routings: B N below LANE_MIN_ELEMENTS runs one loop per row, at or
    # above it one lane call over the 2B rows
    scale, beliefs, floor = ROUND_CASES[kind]
    if floor is not None:
        monkeypatch.setattr(denoiser, "PROB_FLOOR", floor)
    rng = np.random.default_rng([N, B, len(kind)])
    transitions = _lane_transitions(rng, B, **beliefs)
    llr = scale * rng.standard_normal((B, N))
    if kind == "nan":
        llr[-1, N // 3] = math.nan
    calls = _round_against_two_loops(transitions, llr, monkeypatch)
    if B * N < denoiser.LANE_MIN_ELEMENTS:
        assert [length for length, _ in calls] == [N] * (2 * B)


@pytest.mark.parametrize("B", [1, 2])
def test_one_direction_falls_back_while_the_other_confirms_in_one_round(B, monkeypatch):
    # a NaN that starts the forward chain's last lane is confirmed by the
    # lanes, while backward it starts the second lane, and each fix-up round
    # confirms one more lane of NaN; so only the backward rows reach the
    # loop, after the last round, while the forward rows need none
    rng = np.random.default_rng([B, 8])
    transitions = _lane_transitions(rng, B)
    llr = 20.0 * rng.standard_normal((B, 2048))
    llr[:, 2047 - denoiser.LANE] = math.nan
    calls = _round_against_two_loops(transitions, llr, monkeypatch)
    end = 2048 - (denoiser.LANE_ROUNDS + 2) * denoiser.LANE
    assert calls == [(end, True)] * B


def test_symmetric_beta_gives_half_first_prediction():
    cfg = PriorConfig()
    state = frozen_chain_state(np.random.default_rng(7), 5, 2, cfg)
    state.p10_a = state.p10_b = one(1.7)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    assert state.fwd_pred[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_balanced_likelihoods_make_filtered_equal_predicted():
    cfg = PriorConfig()
    state = frozen_chain_state(np.random.default_rng(9), 6, 2, cfg)
    state.support_like = np.full((1, 6, 2), 0.5)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    assert np.allclose(state.fwd_filt, state.fwd_pred, atol=1e-14)


def test_symmetric_weights_keep_backward_half():
    cfg = PriorConfig()
    state = init_state(6, 2, cfg)
    state.p10_a = state.p10_b = state.p01_a = state.p01_b = one(2.0)
    state.support_like = np.full((1, 6, 2), 0.5)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    assert np.allclose(state.bwd_pred, 0.5, atol=1e-14)
    assert np.allclose(state.bwd_filt, 0.5, atol=1e-14)


def test_terminal_backward_prediction_stays_half():
    cfg = PriorConfig()
    rng = np.random.default_rng(11)
    h = rng.standard_normal((1, 8, 2)) + 1j * rng.standard_normal((1, 8, 2))
    v = np.array([[0.3, 0.4]])
    state = None
    for _ in range(3):
        _, _, state = denoise(h, v, PriorConfig(), state)
        assert state.bwd_pred[0, -1] == 0.5


# ---------------------------------------------------------------------------
# transition-belief updates


def test_symmetric_case_pair_beliefs_quarter():
    N = 9
    cfg = PriorConfig()
    state = init_state(N, 2, cfg)
    state.support_like = np.full((1, N, 2), 0.5)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    update_transition_beliefs(state, x.transitions, x.llr)
    assert np.allclose(state.pair_belief, 0.25, atol=1e-12)
    assert state.first_active_belief == pytest.approx(0.5, abs=1e-12)
    assert state.p10_a - P10_A == pytest.approx(0.5 + (N - 1) / 4.0, abs=1e-10)
    assert state.p10_b - P10_B == pytest.approx(0.5 + (N - 1) / 4.0, abs=1e-10)
    assert state.p01_a - P01_A == pytest.approx((N - 1) / 4.0, abs=1e-10)
    assert state.p01_b - P01_B == pytest.approx((N - 1) / 4.0, abs=1e-10)


def test_updated_transition_parameters_exceed_priors():
    cfg = PriorConfig()
    rng = np.random.default_rng(15)
    h = rng.standard_normal((1, 16, 4)) + 1j * rng.standard_normal((1, 16, 4))
    _, _, state = denoise(h, np.full((1, 4), 0.3), cfg)
    assert state.p10_a >= P10_A and state.p10_b >= P10_B
    assert state.p01_a >= P01_A and state.p01_b >= P01_B


def test_single_pair_hand_case():
    cfg = PriorConfig()
    rng = np.random.default_rng(17)
    state = frozen_chain_state(rng, 2, 1, cfg)
    first_w, trans_w = chain_weights(state)
    loglike = loglike_from_pi(state.support_like)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    update_transition_beliefs(state, x.transitions, x.llr)
    ref = chain_enumeration(first_w, trans_w, loglike)
    b1 = ref["full"][0, 1]
    pair = ref["pair"][0]
    assert state.p10_a == pytest.approx(b1 + P10_A + pair[0, 1], abs=1e-12)
    assert state.p10_b == pytest.approx((1 - b1) + P10_B + pair[0, 0], abs=1e-12)
    assert state.p01_a == pytest.approx(P01_A + pair[1, 0], abs=1e-12)
    assert state.p01_b == pytest.approx(P01_B + pair[1, 1], abs=1e-12)


# ---------------------------------------------------------------------------
# leave-one-out extrinsic messages


def test_extrinsic_single_subcarrier_formula():
    cfg = PriorConfig()
    state = frozen_chain_state(np.random.default_rng(19), 6, 1, cfg)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    support_extrinsic(state, x.like_logit, x.llr)
    up, dn = state.bwd_pred[0], state.fwd_pred[0]
    expect = up * dn / (up * dn + (1.0 - up) * (1.0 - dn))
    assert np.allclose(state.support_ext[0, :, 0], expect, atol=1e-12)


def test_extrinsic_symmetric_everything_half():
    cfg = PriorConfig()
    state = init_state(5, 3, cfg)
    state.p10_a = state.p10_b = state.p01_a = state.p01_b = one(1.0)
    state.support_like = np.full((1, 5, 3), 0.5)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    support_extrinsic(state, x.like_logit, x.llr)
    assert np.allclose(state.support_ext, 0.5, atol=1e-12)


def test_extrinsic_three_subcarrier_direct_products():
    cfg = PriorConfig()
    state = frozen_chain_state(np.random.default_rng(21), 5, 3, cfg)
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    support_extrinsic(state, x.like_logit, x.llr)
    (pi,) = state.support_like
    for n in range(5):
        for p in range(3):
            on = state.fwd_pred[0, n] * state.bwd_pred[0, n]
            off = (1 - state.fwd_pred[0, n]) * (1 - state.bwd_pred[0, n])
            for q in range(3):
                if q != p:
                    on *= pi[n, q]
                    off *= 1 - pi[n, q]
            assert state.support_ext[0, n, p] == pytest.approx(
                on / (on + off), abs=1e-12
            )


# ---------------------------------------------------------------------------
# precision-belief updates


def _forced_weight_state(N, P, cfg, value):
    state = init_state(N, P, cfg)
    state.support_like = np.full((1, N, P), value)
    state.support_ext = np.full((1, N, P), value)
    return state


def test_all_quiet_update():
    cfg = PriorConfig()
    N, P = 6, 2
    state = _forced_weight_state(N, P, cfg, 1e-12)
    rng = np.random.default_rng(23)
    h = rng.standard_normal((1, N, P)) + 1j * rng.standard_normal((1, N, P))
    v = np.full((1, 1, P), 0.5)
    x = step_inputs(state, cfg, h, v)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit, x.s_large)
    assert np.allclose(state.large_shape, LARGE_SHAPE, atol=1e-8)
    assert np.allclose(state.large_rate, cfg.large_rate, atol=1e-8)
    assert np.allclose(state.small_shape, SMALL_SHAPE + N, atol=1e-8)


def test_all_active_update():
    cfg = PriorConfig()
    N, P = 6, 2
    state = _forced_weight_state(N, P, cfg, 1.0 - 1e-12)
    rng = np.random.default_rng(25)
    h = rng.standard_normal((1, N, P)) + 1j * rng.standard_normal((1, N, P))
    v = np.full((1, 1, P), 0.5)
    x = step_inputs(state, cfg, h, v)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit, x.s_large)
    assert np.allclose(state.large_shape, LARGE_SHAPE + 1.0, atol=1e-8)
    assert np.allclose(state.small_shape, SMALL_SHAPE, atol=1e-8)
    assert np.allclose(state.small_rate, cfg.small_rate, atol=1e-8)


def test_single_element_hand_update():
    cfg = PriorConfig()
    state = _forced_weight_state(1, 1, cfg, 1.0 - 1e-12)
    v = np.array([[[1.0]]])
    x = step_inputs(state, cfg, np.array([[[2.0]]]), v)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit, x.s_large)
    # component posterior: variance 1/(1/1 + 1) = 0.5, mean 0.5*2 = 1
    assert state.large_rate[0, 0, 0] == pytest.approx(2.5, abs=1e-9)
    assert state.large_shape[0, 0, 0] == pytest.approx(2.0, abs=1e-9)


def test_pooled_variant_shares_parameters_across_elements():
    # tsgm learns one active belief per subcarrier, stored once, (B, 1, P);
    # tsgm-lvd one per element and subcarrier
    rng = np.random.default_rng(27)
    h = rng.standard_normal((1, 8, 3)) + 1j * rng.standard_normal((1, 8, 3))
    v = np.full((1, 3), 0.4)
    _, _, state = denoise(h, v, PriorConfig(variant=VARIANT_TSGM))
    assert state.large_shape.shape == state.large_rate.shape == (1, 1, 3)
    _, _, state_lvd = denoise(h, v, PriorConfig(variant=VARIANT_LVD))
    assert state_lvd.large_shape.shape == state_lvd.large_rate.shape == (1, 8, 3)
    assert not np.allclose(state_lvd.large_shape, state_lvd.large_shape[:, 0:1, :])
    # from the same prior both see the same support posterior, and the
    # pooled shape sums the per-element ones' counts over the elements
    assert np.allclose(state.large_shape - LARGE_SHAPE,
                       (state_lvd.large_shape - LARGE_SHAPE).sum(axis=1, keepdims=True))


def test_bg_variant_keeps_precision_beliefs():
    cfg = PriorConfig(variant=VARIANT_BG)
    state = _forced_weight_state(4, 2, cfg, 0.7)
    before = state.large_shape.copy()
    v = np.full((1, 1, 2), 0.5)
    x = step_inputs(state, cfg, np.ones((1, 4, 2)), v)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit, x.s_large)
    assert np.array_equal(state.large_shape, before)
    assert np.allclose(state.support_post, expit(2.0 * logit(np.float64(0.7))))


# ---------------------------------------------------------------------------
# posterior outputs


def test_posterior_matches_scalar_mixture_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        s = float(rng.uniform(0.5, 3.0))
        v1 = float(rng.uniform(0.3, 2.0))
        v0 = float(rng.uniform(0.001, 0.05))
        lam = float(rng.uniform(0.1, 0.9))
        tau = float(rng.uniform(0.05, 1.0))
        r = complex(rng.standard_normal(), rng.standard_normal())
        cfg = PriorConfig()
        state = init_state(1, 1, cfg)
        state.large_shape = np.array([[[s]]])
        state.large_rate = np.array([[[s * v1]]])
        state.small_shape = np.array([[[s]]])
        state.small_rate = np.array([[[s * v0]]])
        state.support_ext = np.array([[[lam]]])
        h = np.array([[[r]]])
        x = step_inputs(state, cfg, h)
        h_post, v_post = posterior_moments(h, np.array([[[tau]]]), state, cfg, x.r2,
                                           x.ext_logit)
        mean, var, w = mixture_posterior_closed_form(r, tau, lam, v1, v0)
        assert abs(h_post[0, 0, 0] - mean) < 1e-12
        assert abs(v_post[0, 0] - var) < 1e-12
        assert abs(state.support_post[0, 0, 0] - w) < 1e-12


def test_mixture_oracle_matches_grid_integration():
    # anchors the closed form used above with a brute-force integral
    for r, tau, lam, v1, v0 in (
        (0.8 + 0.3j, 0.2, 0.3, 1.0, 0.01),
        (-0.4 + 0.9j, 0.5, 0.7, 2.0, 0.05),
    ):
        mean, var, _ = mixture_posterior_closed_form(r, tau, lam, v1, v0)
        g_mean, g_var = mixture_posterior_grid(r, tau, lam, v1, v0, points=501)
        assert abs(mean - g_mean) < 2e-3 * max(1.0, abs(mean))
        assert abs(var - g_var) < 2e-3 * max(1.0, var)


def test_bg_posterior_matches_spike_grid():
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=1.0)
    r, tau, lam = 0.9 - 0.2j, 0.3, 0.4
    state = init_state(1, 1, cfg)
    state.support_like = None
    state.support_ext = np.array([[[lam]]])
    state.support_post = None
    h, v = np.array([[[r]]]), np.array([[[tau]]])
    support_likelihood(_squared_magnitude(h), v, state, cfg)
    x = step_inputs(state, cfg, h, v)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit, x.s_large)
    h_post, v_post = posterior_moments(h, v, state, cfg, x.r2, x.ext_logit)
    assert state.support_post[0, 0, 0] == pytest.approx(
        spike_slab_weight(r, tau, lam, 1.0), abs=1e-12
    )
    g_mean, g_var = mixture_posterior_grid(r, tau, lam, 1.0, 0.0, points=501)
    assert abs(h_post[0, 0, 0] - g_mean) < 2e-3 * abs(g_mean)
    assert abs(v_post[0, 0] - g_var) < 2e-3 * g_var


def test_degenerate_weight_selects_large_component():
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=2.0, large_rate=2.0)
    state = init_state(1, 1, cfg)
    state.support_like = np.array([[[1.0 - 1e-12]]])
    state.support_ext = np.array([[[1.0 - 1e-12]]])
    h, v = np.array([[[1.5 + 0.5j]]]), np.array([[[0.5]]])
    x = step_inputs(state, cfg, h, v)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit, x.s_large)
    h_post, _ = posterior_moments(h, v, state, cfg, x.r2, x.ext_logit)
    # large-component posterior mean with variance 1/(1/0.5 + 1/2)
    var_l = 1.0 / (1.0 / 0.5 + 0.5)
    assert h_post[0, 0, 0] == pytest.approx(var_l * (1.5 + 0.5j) / 0.5, rel=1e-9)



def test_bg_moments_use_the_bg_variance():
    # the slab variance is bg_variance = 4, not the rate/shape = 1 of the
    # Gamma prior that bg never updates: a saturated support gives the
    # gain 4 / (4 + 0.5), not 1 / (1 + 0.5)
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=4.0)
    h_post, v_post, state = denoise(np.full((1, 4, 1), 30.0 + 0j), [[0.5]], cfg)
    assert np.all(state.support_post == pytest.approx(1.0, abs=1e-11))
    gain = 4.0 / 4.5
    assert np.all(h_post == pytest.approx(gain * 30.0, rel=1e-9))
    assert v_post[0, 0] == pytest.approx(gain * 0.5, rel=1e-8)

def test_balanced_weight_includes_mean_spread():
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=1.0)
    state = init_state(1, 1, cfg)
    state.support_post = np.array([[[0.5]]])
    r, tau = 1.2 + 0.4j, 0.5
    h = np.array([[[r]]])
    x = step_inputs(state, cfg, h)
    h_post, v_post = posterior_moments(h, np.array([[[tau]]]), state, cfg, x.r2, x.ext_logit)
    var_l = 1.0 / (1.0 / tau + 1.0)
    mean_l = var_l * r / tau
    assert h_post[0, 0, 0] == pytest.approx(0.5 * mean_l, rel=1e-12)
    # the collapsed variance exceeds the averaged component variance by the
    # mean-spread term 0.25 |mean_l - 0|^2
    assert v_post[0, 0] == pytest.approx(
        0.5 * var_l + 0.25 * abs(mean_l) ** 2, rel=1e-12
    )


def test_bg_full_posterior_matches_enumeration():
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=1.0)
    rng = np.random.default_rng(31)
    N, P = 8, 2
    h = 0.8 * (rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P)))
    v = rng.uniform(0.1, 0.4, P)
    state = init_state(N, P, cfg)
    support_likelihood(_squared_magnitude(h[None]), v[None, None], state, cfg)
    first_w, trans_w = chain_weights(state)
    loglike = np.zeros((N, 2))
    for n in range(N):
        loglike[n, 1] = sum(cn_logpdf(h[n, p], v[p] + 1.0) for p in range(P))
        loglike[n, 0] = sum(cn_logpdf(h[n, p], v[p]) for p in range(P))
    x = step_inputs(state, cfg)
    forward_pass(state, x.transitions, x.odds)
    support_extrinsic(state, x.like_logit, x.llr)
    x = step_inputs(state, cfg, h[None], v[None, None])
    update_precision_beliefs(x.r2, v[None, None], state, cfg, x.like_logit, x.ext_logit,
                             x.s_large)
    ref = chain_enumeration(first_w, trans_w, loglike)
    for p in range(P):
        assert np.max(np.abs(state.support_post[0, :, p] - ref["full"][:, 1])) < 1e-8


# ---------------------------------------------------------------------------
# the wide steps against their complex oracles


def _oracle_case(case, variant, std_weight, exact):
    """Inputs of one member, (1, N, P) means and (1, P) variances, and a
    random belief state for one step-by-step comparison."""
    rng = np.random.default_rng(51)
    N, P = (2, 1) if case == "N=2, P=1" else (6, 3)
    h = rng.standard_normal((1, N, P)) + 1j * rng.standard_normal((1, N, P))
    v = rng.uniform(0.05, 1.0, (1, P))
    if case == "h=0":
        h[:] = 0.0
    elif case == "|h|=1e6":
        h *= 1e6 / np.abs(h)
    elif case == "v_pri=1e-12":
        v[:] = 1e-12
    cfg = PriorConfig(variant=variant, std_gamma_weight=std_weight, exact_digamma=exact)
    state = init_state(N, P, cfg)
    state.large_shape = rng.uniform(0.5, 4.0, state.large_shape.shape)
    state.large_rate = rng.uniform(0.2, 3.0, state.large_rate.shape)
    state.small_shape = rng.uniform(0.5, 4.0, (1, 1, P))
    state.small_rate = rng.uniform(0.005, 0.1, (1, 1, P))
    state.support_ext = rng.uniform(0.05, 0.95, (1, N, P))
    return h, v, cfg, state


def _assert_rel(a, b, rtol=1e-12):
    assert np.all(np.abs(a - b) <= rtol * np.abs(b)), np.max(np.abs(a - b) / np.abs(b))


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("std_weight, exact", [(False, False), (True, False), (False, True)])
@pytest.mark.parametrize("case", ["random", "h=0", "|h|=1e6", "v_pri=1e-12", "N=2, P=1"])
def test_real_steps_match_their_complex_oracles(variant, std_weight, exact, case):
    h, v, cfg, state = _oracle_case(case, variant, std_weight, exact)
    ref = copy.deepcopy(state)
    v_steps = v[:, None]    # the steps take the variances on the means' axes

    support_likelihood(_squared_magnitude(h), v_steps, state, cfg)
    support_likelihood_complex(h, v, ref, cfg)
    _assert_rel(state.support_like, ref.support_like)

    # each step below starts from the oracle's state, so it is compared alone
    state = copy.deepcopy(ref)
    x = step_inputs(state, cfg, h, v_steps)
    update_precision_beliefs(x.r2, v_steps, state, cfg, x.like_logit, x.ext_logit, x.s_large)
    update_precision_beliefs_complex(h, v, ref, cfg)
    for name in ("support_post", "large_shape", "large_rate", "small_shape", "small_rate"):
        _assert_rel(getattr(state, name), getattr(ref, name))

    state = copy.deepcopy(ref)
    x = step_inputs(state, cfg, h)
    h_post, v_post = posterior_moments(h, v_steps, state, cfg, x.r2, x.ext_logit)
    h_ref, v_ref = posterior_moments_complex(h, v, ref, cfg)
    _assert_rel(state.support_post, ref.support_post)
    assert np.all(np.abs(h_post - h_ref) <= 1e-12 * np.abs(h_ref))
    # the oracle's E|m|^2 - |E m|^2 cancels: its rounding error scales with
    # E|m|^2, which is |h|^2 ~ 1e12 in the |h| = 1e6 case
    second = (np.abs(h_ref) ** 2).mean(axis=1) + v_ref
    assert np.all(np.abs(v_post - v_ref) <= 1e-12 * second)


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_denoise_rejects_a_non_positive_or_non_finite_v_pri(variant, bad):
    h = np.ones((1, 4, 3), dtype=complex)
    v = np.array([[0.5, bad, 0.5]])
    with pytest.raises(ValueError, match="v_pri must be positive and finite"):
        denoise(h, v, PriorConfig(variant=variant))


@pytest.mark.parametrize("field, bad", [
    ("small_rate", -1.0),
    ("large_rate", math.inf),
    ("bg_variance", -1.0),
    ("bg_variance", math.nan),
])
def test_prior_config_rejects_invalid_values(field, bad):
    # without the check, small_rate=-1 returned non-finite estimates, and
    # bg_variance=-1 or NaN gave NaN estimates
    with pytest.raises(ValueError, match=field):
        PriorConfig(**{field: bad})


def test_prior_config_fields_and_hyperprior_constants():
    assert [f.name for f in dataclasses.fields(PriorConfig)] == [
        "variant", "large_rate", "small_rate", "bg_variance",
        "exact_digamma", "std_gamma_weight",
    ]
    # the values every run used while they were fields
    assert LARGE_SHAPE == SMALL_SHAPE == P10_A == P10_B == P01_A == P01_B == 1.0
    assert PROB_FLOOR == 1e-12
    # each Gamma belief on the axes it is learned over: tsgm-lvd's active
    # precisions per element and subcarrier, tsgm's pooled over the
    # elements, and bg's, never learned, at the near-zero belief's shape
    for variant, large in [(VARIANT_LVD, (2, 3, 2)), (VARIANT_TSGM, (2, 1, 2)),
                           (VARIANT_BG, (2, 1, 2))]:
        cfg = PriorConfig(variant=variant, large_rate=0.5, small_rate=0.25)
        state = init_state(3, 2, cfg, members=2)
        expected = {
            "large_shape": (LARGE_SHAPE, large), "large_rate": (0.5, large),
            "small_shape": (SMALL_SHAPE, (2, 1, 2)), "small_rate": (0.25, (2, 1, 2)),
            "p10_a": (P10_A, (2,)), "p10_b": (P10_B, (2,)),
            "p01_a": (P01_A, (2,)), "p01_b": (P01_B, (2,)),
        }
        for name, (value, shape) in expected.items():
            assert np.array_equal(getattr(state, name), np.full(shape, value)), (variant, name)


def test_prior_config_takes_no_probability_floor():
    # the floor is the module constant PROB_FLOOR; a caller that still sets
    # it gets an error, not a setting that is silently dropped
    with pytest.raises(TypeError, match="prob_floor"):
        PriorConfig(prob_floor=1e-3)


@pytest.mark.parametrize("floor", [1e-3, 0.49])
def test_denoise_keeps_probabilities_inside_floors_up_to_one_half(floor, monkeypatch):
    rng = np.random.default_rng(48)
    h = rng.standard_normal((1, 16, 3)) + 1j * rng.standard_normal((1, 16, 3))
    monkeypatch.setattr(denoiser, "PROB_FLOOR", floor)
    h_post, v_post, state = denoise(h, rng.uniform(0.2, 0.6, (1, 3)), PriorConfig())
    assert np.all(np.isfinite(h_post)) and np.all(np.isfinite(v_post))
    assert np.all(state.support_post >= floor) and np.all(state.support_post <= 1.0 - floor)


# ---------------------------------------------------------------------------
# full passes


STATE_FIELDS = CHAIN_FIELDS + (
    "support_like", "support_ext", "support_post",
    "large_shape", "large_rate", "small_shape", "small_rate",
)


def _manual_pass(h, v, state, cfg):
    """The schedule of `denoise` written out on `state`, with no check of
    its shapes: each hand-in computed once per pass, the transition weights
    once per chain round; returns (h_post, v_post)."""
    v_steps = v[:, None]
    r2 = _squared_magnitude(h)
    s_large = support_likelihood(r2, v_steps, state, cfg)
    like_logit, llr = pooled_evidence(state)
    odds = evidence_odds(llr)
    for _ in range(2):
        transitions = transition_log_expectations(state, cfg)
        forward_pass(state, transitions, odds)
        update_transition_beliefs(state, transitions, llr)
    support_extrinsic(state, like_logit, llr)
    ext_logit = _logit(state.support_ext)
    update_precision_beliefs(r2, v_steps, state, cfg, like_logit, ext_logit, s_large)
    return posterior_moments(h, v_steps, state, cfg, r2, ext_logit)


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
def test_denoise_equals_manual_schedule(variant):
    # over two warm-started passes
    cfg = PriorConfig(variant=variant)
    rng = np.random.default_rng(33)
    v = rng.uniform(0.2, 0.6, (1, 3))
    got = ref = None
    for _ in range(2):
        h = rng.standard_normal((1, 12, 3)) + 1j * rng.standard_normal((1, 12, 3))
        h_post, v_post, got = denoise(h, v, cfg, got)
        ref = init_state(12, 3, cfg) if ref is None else ref
        h_ref, v_ref = _manual_pass(h, v, ref, cfg)
        assert np.array_equal(h_post, h_ref)
        assert np.array_equal(v_post, v_ref)
        for name in STATE_FIELDS:
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)


def _pass_inputs(rng, active, P, members=1):
    """One pass's pseudo-prior for each member: gains of variance 1 on the
    active elements and 0.01 elsewhere, shared over the P subcarriers, seen
    in CN(0, v_pri); (B, N, P) means and (B, P) variances."""
    shape = (members, active.size, P)
    v = rng.uniform(0.05, 0.5, (members, P))
    scale = np.sqrt(np.where(active, 1.0, 0.01)[:, None] + v[:, None]) / math.sqrt(2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), v


BELIEF_FIELDS = STATE_FIELDS + (
    "pair_belief", "first_active_belief", "p10_a", "p10_b", "p01_a", "p01_b",
)


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("exact", (False, True))
@pytest.mark.parametrize("std_weight", (False, True))
@pytest.mark.parametrize("N, P", [(64, 8), (256, 128)])
def test_denoise_passes_equal_the_allocating_oracle_bit_for_bit(variant, exact, std_weight, N, P):
    # the carried rate/shape and psi(shape), the s_large hand-off and the
    # in-place probability chains keep every bit of the allocating steps
    # over 10 warm-started passes
    cfg = PriorConfig(variant=variant, exact_digamma=exact, std_gamma_weight=std_weight)
    rng = np.random.default_rng(60)
    active = rng.random(N) < 0.2
    got = ref = None
    for _ in range(10):
        h, v = _pass_inputs(rng, active, P)
        h_post, v_post, got = denoise(h, v, cfg, got)
        h_ref, v_ref, ref = denoise_allocating(h, v, cfg, ref)
        assert h_post.tobytes() == h_ref.tobytes()
        assert v_post.tobytes() == v_ref.tobytes()
        for name in BELIEF_FIELDS:
            # tsgm's pooled beliefs are stored once per subcarrier, (1, 1, P),
            # and the oracle copies them over the N elements: every element
            # is still compared as bytes
            want = np.asarray(getattr(ref, name))
            assert (np.broadcast_to(getattr(got, name), want.shape).tobytes()
                    == want.tobytes()), name


@pytest.mark.parametrize("exact", (False, True))
@pytest.mark.parametrize("std_weight", (False, True))
@pytest.mark.parametrize("N, P, members", [(64, 8, 1), (33, 3, 3), (2, 1, 2)])
def test_tsgm_pass_on_pooled_beliefs_equals_the_pass_on_copied_ones_bit_for_bit(
        exact, std_weight, N, P, members):
    # tsgm's active beliefs stored once per subcarrier, (B, 1, P), against
    # the same values copied over the N elements, (B, N, P), as the state
    # held them before, over 4 warm-started passes
    cfg = PriorConfig(variant=VARIANT_TSGM, exact_digamma=exact, std_gamma_weight=std_weight)
    rng = np.random.default_rng([N, P, members])
    active = rng.random(N) < 0.2
    state = init_state(N, P, cfg, members)
    for _ in range(4):
        copied = copy.deepcopy(state)
        copied.large_shape = np.repeat(state.large_shape, N, axis=1)
        copied.large_rate = np.repeat(state.large_rate, N, axis=1)
        h, v = _pass_inputs(rng, active, P, members)
        h_post, v_post, state = denoise(h, v, cfg, state)
        h_ref, v_ref = _manual_pass(h, v, copied, cfg)
        assert h_post.tobytes() == h_ref.tobytes()
        assert v_post.tobytes() == v_ref.tobytes()
        for name in BELIEF_FIELDS:
            assert getattr(state, name).shape == getattr(copied, name).shape, name
            assert getattr(state, name).tobytes() == getattr(copied, name).tobytes(), name


def _arrays(state):
    """The state's array fields by name."""
    return {name: value for name, value in vars(state).items()
            if isinstance(value, np.ndarray)}


def test_every_state_array_has_the_member_axis_first():
    # select_members takes every array field along axis 0; a field with
    # another layout would keep a stopped member's entries, and fails here
    # (B = 3 is none of N, P or the 4 pair rows)
    fields = dataclasses.fields(DenoiserState)
    assert len([f for f in fields if f.type is np.ndarray]) == 17
    cfg = PriorConfig()
    state = init_state(5, 2, cfg, 3)
    assert set(_arrays(state)) == {"large_shape", "large_rate", "small_shape", "small_rate",
                                   "p10_a", "p10_b", "p01_a", "p01_b"}
    for value in _arrays(state).values():
        assert value.shape[0] == 3
    h, v = _pass_inputs(np.random.default_rng(8), np.arange(5) < 2, 2, 3)
    state = denoise(h, v, cfg, state)[2]
    assert len(_arrays(state)) == 17
    for name, value in _arrays(state).items():
        assert value.shape[0] == 3, name


@pytest.mark.parametrize("N", [2, 3, 64, 256, 2048])
def test_member_major_sums_equal_each_blocks_own_sums_bit_for_bit(N):
    # the layout the denoiser relies on: on a C-contiguous (B, N, P) stack,
    # the sums over N and over P give each member's block the bits of the
    # block's own (N, P) sums, P = 1 (a lone column, summed pairwise) and
    # B = 1 included; values over seven decades make the order show
    for P in (1, 2, 3, 8, 16, 32, 128):
        for B in (1, 2, 3, 5):
            x = np.random.default_rng([N, B, P]).uniform(-1.0, 1.0, (B, N, P))
            x *= 10.0 ** (np.arange(N)[:, None] % 7)
            over_n, over_p = x.sum(axis=1), x.sum(axis=2)
            over_n_kept = x.sum(axis=1, keepdims=True)
            for b in range(B):
                block = x[b].copy()
                assert over_n[b].tobytes() == block.sum(axis=0).tobytes(), (P, B, b)
                assert over_n_kept[b, 0].tobytes() == block.sum(axis=0).tobytes(), (P, B, b)
                assert over_p[b].tobytes() == block.sum(axis=1).tobytes(), (P, B, b)


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("exact", (False, True))
@pytest.mark.parametrize("N, P, members", [(64, 1, 3), (64, 3, 4), (2, 1, 2), (1, 2, 2)])
def test_each_member_of_a_pass_equals_its_pass_alone_bit_for_bit(variant, exact, N, P,
                                                                   members):
    # one pass over B members' (B, N, P) blocks against B one-member passes,
    # over 4 warm-started passes; P = 1 blocks are single columns, which
    # numpy sums pairwise
    cfg = PriorConfig(variant=variant, exact_digamma=exact)
    rng = np.random.default_rng([N, P, members])
    active = rng.random(N) < 0.3
    batch = init_state(N, P, cfg, members)
    alone = [None] * members
    for _ in range(4):
        h, v = _pass_inputs(rng, active, P, members)
        h_post, v_post, batch = denoise(h, v, cfg, batch)
        for b in range(members):
            h_ref, v_ref, alone[b] = denoise(h[b:b + 1].copy(), v[b:b + 1].copy(), cfg,
                                             alone[b])
            assert h_post[b].tobytes() == h_ref.tobytes()
            assert v_post[b].tobytes() == v_ref.tobytes()
            own = _arrays(alone[b])
            assert own.keys() == _arrays(batch).keys()
            for name, value in _arrays(batch).items():
                assert value[b].tobytes() == own[name][0].tobytes(), name


def test_select_members_keeps_the_given_members_in_every_array():
    cfg = PriorConfig()
    N, P, members = 12, 2, 4
    rng = np.random.default_rng(7)
    h, v = _pass_inputs(rng, rng.random(N) < 0.3, P, members)
    _, _, state = denoise(h, v, cfg, init_state(N, P, cfg, members))
    before = _arrays(state)
    kept = select_members(state, [3, 1])
    assert kept is state and state.members == 2 and state.active_beliefs is None
    assert _arrays(state).keys() == before.keys()
    for name, value in _arrays(state).items():
        assert np.array_equal(value, before[name][[3, 1]]), name
        assert value.flags.c_contiguous, name


def _belief_error(variant, expected, given):
    """The pattern of the error that `denoise` raises for Gamma beliefs of
    the `given` (large, small) shapes where it needs the `expected` ones."""
    def named(large, small):
        return {"large_shape": large, "large_rate": large,
                "small_shape": small, "small_rate": small}
    return re.escape(f"need B >= 1 and {variant} Gamma beliefs of shapes "
                     f"{named(*expected)}; got {named(*given)}")


LVD_WIDE, PER_SUBCARRIER = (1, 32, 4), (1, 1, 4)


# (variant, means, variances, init_state's (N, P, members) or None for a
# fresh state, the error).  On (1, 32, 4) means, tsgm-lvd needs active
# beliefs of that N and P, tsgm and bg only of that P; before the shape
# check, a P = 1 state was broadcast over the subcarriers, bg ran on any
# state, tsgm-lvd and tsgm died in a bare numpy broadcast error, and so
# did B = 0 in forward_pass
REJECTED_STATES = [
    pytest.param(VARIANT_LVD, (3, 8, 2), (3, 2), (8, 2, 2),
                 "and a state of B members; got .* and 2", id="members"),
    pytest.param(VARIANT_LVD, (3, 8, 2), (3, 1), None, r"\(B, P\) variances", id="variances"),
] + [
    pytest.param(VARIANT_LVD, (1, 32, 4), (1, 4), (N, P, 1),
                 _belief_error(VARIANT_LVD, (LVD_WIDE, PER_SUBCARRIER), ((1, N, P), (1, 1, P))),
                 id=f"{VARIANT_LVD}-N{N}-P{P}")
    for N, P in [(32, 1), (64, 4), (1, 4), (32, 8)]
] + [
    pytest.param(variant, (1, 32, 4), (1, 4), (32, P, 1),
                 _belief_error(variant, (PER_SUBCARRIER,) * 2, ((1, 1, P),) * 2),
                 id=f"{variant}-N32-P{P}")
    for variant in (VARIANT_TSGM, VARIANT_BG) for P in (1, 8)
] + [
    pytest.param(variant, (0, 32, 4), (0, 4), None,
                 _belief_error(variant, (wide, (0, 1, 4)), (wide, (0, 1, 4))), id=f"{variant}-B0")
    for variant, wide in [(VARIANT_LVD, (0, 32, 4)), (VARIANT_TSGM, (0, 1, 4)),
                          (VARIANT_BG, (0, 1, 4))]
]


@pytest.mark.parametrize("variant, means, variances, state_args, error", REJECTED_STATES)
def test_denoise_rejects_a_state_of_other_members(variant, means, variances, state_args, error):
    cfg = PriorConfig(variant=variant)
    state = None if state_args is None else init_state(*state_args[:2], cfg, state_args[2])
    with pytest.raises(ValueError, match=error):
        denoise(np.ones(means, complex), np.full(variances, 0.5), cfg, state)


@pytest.mark.parametrize("variant", [VARIANT_TSGM, VARIANT_BG])
def test_a_per_subcarrier_state_runs_for_any_element_count(variant):
    # tsgm's and bg's beliefs carry no element axis: the prior of another N
    # is the same state, and a pass on it is the same pass
    cfg = PriorConfig(variant=variant)
    h, v = _pass_inputs(np.random.default_rng(9), np.arange(32) < 5, 4)
    want = denoise(h, v, cfg)
    for N in (1, 64):
        got = denoise(h, v, cfg, init_state(N, 4, cfg))
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM])
@pytest.mark.parametrize("reassigned", [
    (), ("large_shape",), ("large_rate",), ("large_shape", "large_rate"),
])
def test_carried_belief_arrays_follow_reassigned_beliefs(variant, reassigned):
    # after new belief arrays are assigned, or under the other digamma form,
    # the likelihood and moment steps equal those of a state that carries
    # nothing yet
    rng = np.random.default_rng(61)
    N, P = 16, 4
    h, v = _pass_inputs(rng, rng.random(N) < 0.3, P)
    r2 = _squared_magnitude(h)
    _, _, state = denoise(h, v, PriorConfig(variant=variant))
    v = v[:, None]    # the steps take the variances on the means' axes
    for name in reassigned:
        setattr(state, name, getattr(state, name) * rng.uniform(0.5, 2.0, (1, N, P)))
    for exact in (False, True):
        cfg = PriorConfig(variant=variant, exact_digamma=exact)
        fresh = copy.deepcopy(state)
        fresh.active_beliefs = None
        s_large = support_likelihood(r2, v, state, cfg)
        assert s_large.tobytes() == support_likelihood(r2, v, fresh, cfg).tobytes()
        assert state.support_like.tobytes() == fresh.support_like.tobytes()
        ext_logit = step_inputs(state, cfg).ext_logit
        got = posterior_moments(h, v, state, cfg, r2, ext_logit)
        want = posterior_moments(h, v, fresh, cfg, r2, ext_logit)
        for a, b in zip(got + (state.support_post,), want + (fresh.support_post,)):
            assert a.tobytes() == b.tobytes()


def test_denoise_takes_the_active_digamma_once_per_set_of_beliefs(monkeypatch):
    # psi(large_shape) is taken for the initial beliefs and then once after
    # each refresh, which the next pass's likelihood step reuses
    N, P = 12, 3
    shapes = []

    def counted(exact):
        psi = digamma_fn(exact)

        def wrapped(x):
            shapes.append(np.shape(x))
            return psi(x)
        return wrapped

    monkeypatch.setattr(denoiser, "digamma_fn", counted)
    rng = np.random.default_rng(62)
    state = None
    for passes in (1, 2, 3):
        h, v = _pass_inputs(rng, rng.random(N) < 0.3, P)
        _, _, state = denoise(h, v, PriorConfig(), state)
        assert shapes.count((1, N, P)) == passes + 1


@pytest.mark.parametrize("name, params", [
    ("support_likelihood", ("r2", "v_pri", "state", "cfg")),
    ("forward_pass", ("state", "transitions", "odds")),
    ("backward_pass", ("state", "transitions", "odds")),
    ("update_transition_beliefs", ("state", "transitions", "llr")),
    ("support_extrinsic", ("state", "like_logit", "llr")),
    ("update_precision_beliefs",
     ("r2", "v_pri", "state", "cfg", "like_logit", "ext_logit", "s_large")),
    ("posterior_moments", ("h_pri", "v_pri", "state", "cfg", "r2", "ext_logit")),
])
def test_step_takes_its_per_pass_inputs_as_required_arguments(name, params):
    # one input contract: denoise computes each per-pass value once and
    # hands it in, so a step has no optional input to fall back on
    step = getattr(denoiser, name)
    sig = inspect.signature(step)
    assert tuple(sig.parameters) == params
    for p in sig.parameters.values():
        assert p.default is inspect.Parameter.empty, p.name
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, p.name
    with pytest.raises(TypeError):
        step(*range(len(params) - 1))


def test_denoise_computes_transition_weights_once_per_round(monkeypatch):
    calls = []

    def counted(state, cfg):
        calls.append(1)
        return transition_log_expectations(state, cfg)

    monkeypatch.setattr(denoiser, "transition_log_expectations", counted)
    rng = np.random.default_rng(34)
    h = rng.standard_normal((1, 12, 3)) + 1j * rng.standard_normal((1, 12, 3))
    denoise(h, rng.uniform(0.2, 0.6, (1, 3)), PriorConfig())
    assert len(calls) == 2


def test_denoise_computes_evidence_odds_once_per_pass(monkeypatch):
    # one (2B, N) stack of both directions' odds per pass, which both chain
    # rounds sweep
    made, swept = [], []

    def counted(llr):
        made.append(evidence_odds(llr))
        return made[-1]

    def spy(state, transitions, odds):
        swept.append(odds)
        forward_pass(state, transitions, odds)

    monkeypatch.setattr(denoiser, "evidence_odds", counted)
    monkeypatch.setattr(denoiser, "forward_pass", spy)
    rng = np.random.default_rng(35)
    h = rng.standard_normal((2, 12, 3)) + 1j * rng.standard_normal((2, 12, 3))
    v = rng.uniform(0.2, 0.6, (2, 3))
    _, _, state = denoise(h, v, PriorConfig())
    assert len(made) == 1 and made[0][0].shape == (4, 12)
    denoise(h, v, PriorConfig(), state)
    assert len(made) == 2
    assert [id(odds) for odds in swept] == [id(odds) for odds in made for _ in range(2)]


@pytest.mark.parametrize("N, members", [(12, 1), (2048, 2)], ids=["loop", "lanes"])
def test_denoise_runs_each_chain_round_through_forward_pass(N, members, monkeypatch):
    # perfbench's tracer times the chain span by rebinding the module's
    # `forward_pass` and `backward_pass`, so `denoise` looks the round up by
    # that name, and one call writes both directions' messages
    calls = []

    def spy(state, transitions, odds):
        for name in CHAIN_MESSAGES:
            setattr(state, name, None)
        forward_pass(state, transitions, odds)
        calls.append([getattr(state, name).shape for name in CHAIN_MESSAGES])

    def not_called(*args):
        raise AssertionError("the round runs through forward_pass")

    monkeypatch.setattr(denoiser, "forward_pass", spy)
    monkeypatch.setattr(denoiser, "backward_pass", not_called)
    rng = np.random.default_rng([N, members])
    h, v = _pass_inputs(rng, rng.random(N) < 0.3, 3, members)
    _, _, state = denoise(h, v, PriorConfig())
    assert calls == [[(members, N)] * 4] * 2
    denoise(h, v, PriorConfig(), state)
    assert len(calls) == 4


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
def test_denoise_takes_extrinsic_logit_once_per_pass(monkeypatch, variant):
    cfg = PriorConfig(variant=variant)
    state = init_state(12, 3, cfg)
    calls = []

    def counted(p, out=None):
        if p is state.support_ext:
            calls.append(1)
        return _logit(p, out)

    monkeypatch.setattr(denoiser, "_logit", counted)
    rng = np.random.default_rng(36)
    v = rng.uniform(0.2, 0.6, (1, 3))
    for passes in (1, 2):
        h = rng.standard_normal((1, 12, 3)) + 1j * rng.standard_normal((1, 12, 3))
        denoise(h, v, cfg, state)
        assert len(calls) == passes


def test_sigmoid_matches_expit_within_4_ulp(monkeypatch):
    # `_probability` works in place in its argument, hence the copies; a
    # floor of 0 leaves the sigmoid in [0, 1] unclipped
    z = np.linspace(-800.0, 800.0, 1_600_001)
    monkeypatch.setattr(denoiser, "PROB_FLOOR", 0.0)
    got, want = _probability(z.copy()), expit(z)
    # both are non-negative, so the integer views count the ulps between them
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert ulps.max() <= 4
    for floor in (1e-12, 1e-3):
        monkeypatch.setattr(denoiser, "PROB_FLOOR", floor)
        assert np.allclose(
            _probability(z.copy()), np.clip(want, floor, 1.0 - floor),
            rtol=1e-15, atol=0.0,
        )


def test_sigmoid_clamp_bounds_are_exact_and_quiet(monkeypatch):
    floor = PROB_FLOOR
    z = np.array([-1e4, -800.0, -50.0, 50.0, 800.0, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = _probability(z.copy())
        first = float(_probability(np.array([-1e4]))[0])
    assert np.all(p[:3] == floor)
    assert np.all(p[3:] == 1.0 - floor)
    assert first == floor
    assert np.isnan(_probability(np.array([0.0, np.nan]))[1])
    monkeypatch.setattr(denoiser, "PROB_FLOOR", 0.0)
    assert np.isnan(_probability(np.array([np.nan]))[0])


def test_zero_input_symmetry():
    for variant in (VARIANT_LVD, VARIANT_TSGM, VARIANT_BG):
        h_post, v_post, _ = denoise(
            np.zeros((1, 8, 2), dtype=complex), np.full((1, 2), 1e6),
            PriorConfig(variant=variant)
        )
        assert np.all(h_post == 0.0)
        assert np.all(v_post > 0.0)


def test_negation_symmetry():
    cfg = PriorConfig()
    rng = np.random.default_rng(35)
    h = rng.standard_normal((1, 10, 2)) + 1j * rng.standard_normal((1, 10, 2))
    v = rng.uniform(0.2, 0.5, (1, 2))
    pos, vpos, _ = denoise(h, v, cfg)
    neg, vneg, _ = denoise(-h, v, cfg)
    assert np.array_equal(neg, -pos)
    assert np.array_equal(vneg, vpos)


def test_subcarrier_permutation_equivariance():
    cfg = PriorConfig()
    rng = np.random.default_rng(37)
    h = rng.standard_normal((1, 10, 4)) + 1j * rng.standard_normal((1, 10, 4))
    v = rng.uniform(0.2, 0.5, (1, 4))
    perm = np.array([2, 0, 3, 1])
    base_h, base_v, _ = denoise(h, v, cfg)
    perm_h, perm_v, _ = denoise(h[:, :, perm], v[:, perm], cfg)
    assert np.allclose(perm_h, base_h[:, :, perm], rtol=1e-12, atol=1e-12)
    assert np.allclose(perm_v, base_v[:, perm], rtol=1e-12, atol=1e-12)


def test_probabilities_stay_in_unit_interval():
    cfg = PriorConfig()
    rng = np.random.default_rng(39)
    h = 2.0 * (rng.standard_normal((1, 20, 4)) + 1j * rng.standard_normal((1, 20, 4)))
    v = rng.uniform(0.01, 0.1, (1, 4))
    _, _, state = denoise(h, v, cfg)
    for arr in (
        state.support_like, state.support_ext, state.support_post,
        state.fwd_pred, state.fwd_filt, state.bwd_pred, state.bwd_filt,
    ):
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
    assert np.allclose(state.pair_belief.sum(axis=1), 1.0, atol=1e-12)
    assert 0.0 <= state.first_active_belief[0] <= 1.0
    assert np.all(state.large_shape >= LARGE_SHAPE - 1e-12)
    assert np.all(state.small_shape >= SMALL_SHAPE - 1e-12)


def test_posterior_variance_bounds():
    cfg = PriorConfig()
    rng = np.random.default_rng(41)
    h = rng.standard_normal((1, 16, 3)) + 1j * rng.standard_normal((1, 16, 3))
    v = rng.uniform(0.1, 0.8, (1, 3))
    h_post, v_post, state = denoise(h, v, cfg)
    assert np.all(v_post > 0.0)
    var_l = 1.0 / (1.0 / v[:, None] + state.large_shape / state.large_rate)
    mean_l = var_l * h / v[:, None]
    var_s = 1.0 / (1.0 / v[:, None] + state.small_shape / state.small_rate)
    mean_s = var_s * h / v[:, None]
    spread = 0.25 * np.abs(mean_l - mean_s) ** 2
    assert np.all(v_post <= v + spread.max(axis=1) + 1e-12)


def test_warm_start_changes_beliefs_reset_does_not():
    cfg = PriorConfig()
    rng = np.random.default_rng(43)
    h = rng.standard_normal((1, 10, 2)) + 1j * rng.standard_normal((1, 10, 2))
    v = np.full((1, 2), 0.3)
    out1, vv1, state = denoise(h, v, cfg)
    out2, vv2, _ = denoise(h, v, cfg, state)
    out3, vv3, _ = denoise(h, v, cfg, None)
    assert np.array_equal(out1, out3)
    assert not np.array_equal(out1, out2)


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("N", [1, 2])
def test_short_chains(variant, N):
    rng = np.random.default_rng(45 + N)
    P = 3
    h = rng.standard_normal((1, N, P)) + 1j * rng.standard_normal((1, N, P))
    v = rng.uniform(0.1, 0.5, (1, P))
    cfg = PriorConfig(variant=variant)
    state = None
    for _ in range(2):
        h_post, v_post, state = denoise(h, v, cfg, state)
        assert h_post.shape == (1, N, P) and v_post.shape == (1, P)
        assert np.all(np.isfinite(h_post)) and np.all(np.isfinite(v_post))
        assert state.pair_belief.shape == (1, 4, N - 1)
        for arr in (
            state.support_like, state.support_ext, state.support_post,
            state.fwd_pred, state.fwd_filt, state.bwd_pred, state.bwd_filt,
            state.pair_belief,
        ):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        assert 0.0 <= state.first_active_belief[0] <= 1.0
