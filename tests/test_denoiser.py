import copy
import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma
from scipy.special import expit

from oracles import (
    chain_enumeration,
    backward_pass_two_lists,
    chain_sweeps_probability,
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
from hmpce.denoiser import (
    DenoiserState,
    PriorConfig,
    _clamp,
    _logit,
    _sigmoid,
    _squared_magnitude,
    backward_pass,
    denoise,
    evidence_odds,
    forward_pass,
    init_state,
    pooled_evidence,
    posterior_moments,
    support_extrinsic,
    support_likelihood,
    transition_log_expectations,
    update_precision_beliefs,
    update_transition_beliefs,
)
from hmpce.messages import beta_log_expectations
from hmpce.priors import VARIANT_BG, VARIANT_LVD, VARIANT_TSGM


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
    values, recomputed from the Beta parameters with local arithmetic."""
    ln_p10, ln_q10 = beta_log_pair(state.p10_a, state.p10_b)
    ln_p01, ln_q01 = beta_log_pair(state.p01_a, state.p01_b)
    first_w = np.array([math.exp(ln_q10), math.exp(ln_p10)])
    trans_w = np.array(
        [
            [math.exp(ln_q10), math.exp(ln_p10)],
            [math.exp(ln_p01), math.exp(ln_q01)],
        ]
    )
    return first_w, trans_w


def loglike_from_pi(pi):
    return np.stack(
        [np.log1p(-pi).sum(axis=1), np.log(pi).sum(axis=1)], axis=1
    )


def frozen_chain_state(rng, N, P, cfg):
    state = init_state(N, P, cfg)
    state.p10_a = float(rng.uniform(0.5, 3.0))
    state.p10_b = float(rng.uniform(0.5, 3.0))
    state.p01_a = float(rng.uniform(0.5, 3.0))
    state.p01_b = float(rng.uniform(0.5, 3.0))
    state.support_like = rng.uniform(0.05, 0.95, size=(N, P))
    return state


# ---------------------------------------------------------------------------
# activity likelihoods


def test_symmetric_mixture_gives_half():
    cfg = PriorConfig(large_shape=1.0, large_rate=0.5, small_shape=1.0, small_rate=0.5)
    state = init_state(4, 2, cfg)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    support_likelihood(_squared_magnitude(h), np.array([0.3, 0.8]), state, cfg)
    assert np.allclose(state.support_like, 0.5, atol=1e-12)


def test_strong_signal_saturates_activity():
    cfg = PriorConfig()
    state = init_state(1, 1, cfg)
    support_likelihood(np.array([[1.0]]), np.array([0.01]), state, cfg)
    assert state.support_like[0, 0] > 1.0 - 1e-10
    support_likelihood(np.array([[0.0]]), np.array([0.01]), state, cfg)
    assert state.support_like[0, 0] < 0.5


def test_activity_likelihood_matches_direct_formula():
    rng = np.random.default_rng(3)
    N, P = 6, 3
    for std_weight in (False, True):
        cfg = PriorConfig(std_gamma_weight=std_weight)
        state = init_state(N, P, cfg)
        state.large_shape = rng.uniform(0.5, 4.0, (N, P))
        state.large_rate = rng.uniform(0.2, 3.0, (N, P))
        state.small_shape = rng.uniform(0.5, 4.0, P)
        state.small_rate = rng.uniform(0.005, 0.1, P)
        h = 0.5 * (rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P)))
        v = rng.uniform(0.05, 1.0, P)
        support_likelihood(_squared_magnitude(h), v, state, cfg)
        for n in range(N):
            for p in range(P):
                es, er = state.large_shape[n, p], state.large_rate[n, p]
                al, be = state.small_shape[p], state.small_rate[p]
                den_l = er if std_weight else es
                den_s = be if std_weight else al
                la = psi_hat(es) - math.log(den_l) + cn_logpdf(h[n, p], v[p] + er / es)
                lq = psi_hat(al) - math.log(den_s) + cn_logpdf(h[n, p], v[p] + be / al)
                expect = 1.0 / (1.0 + math.exp(lq - la))
                assert state.support_like[n, p] == pytest.approx(expect, abs=1e-12)


def test_exact_digamma_switch():
    cfg = PriorConfig(exact_digamma=True)
    state = init_state(1, 1, cfg)
    state.large_shape = np.array([[2.0]])
    state.large_rate = np.array([[1.5]])
    h, v = np.array([[0.4 + 0.2j]]), np.array([0.3])
    support_likelihood(_squared_magnitude(h), v, state, cfg)
    la = float(scipy_digamma(2.0)) - math.log(2.0) + cn_logpdf(h[0, 0], 0.3 + 0.75)
    lq = float(scipy_digamma(1.0)) - math.log(1.0) + cn_logpdf(h[0, 0], 0.3 + 0.01)
    expect = 1.0 / (1.0 + math.exp(lq - la))
    assert state.support_like[0, 0] == pytest.approx(expect, abs=1e-12)


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
    for p10_a, p10_b, p01_a, p01_b in counts:
        state = DenoiserState(p10_a=p10_a, p10_b=p10_b, p01_a=p01_a, p01_b=p01_b)
        got = transition_log_expectations(state, cfg)
        turn_on, stay_quiet = beta_log_expectations(p10_a, p10_b, exact)
        turn_off, stay_active = beta_log_expectations(p01_a, p01_b, exact)
        want = (stay_active, turn_on, stay_quiet, turn_off)
        assert all(type(x) is float for x in got)
        np.testing.assert_array_equal(
            np.array(got).view(np.uint64), np.array(want).view(np.uint64)
        )


def test_bg_likelihood_is_spike_slab_ratio():
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=1.0)
    state = init_state(4, 1, cfg)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    v = np.array([0.2])
    support_likelihood(_squared_magnitude(h), v, state, cfg)
    for n in range(4):
        expect = spike_slab_weight(h[n, 0], 0.2, 0.5, 1.0)
        assert state.support_like[n, 0] == pytest.approx(expect, abs=1e-12)
    # spike favored at the origin, activity saturates for huge inputs
    support_likelihood(np.array([[0.0]]), v, state, cfg)
    assert state.support_like[0, 0] < 0.5
    support_likelihood(np.array([[1e4]]), v, state, cfg)
    assert state.support_like[0, 0] >= 1.0 - 1e-11


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
        llr = logit(state.support_like).sum(axis=1)
        x = step_inputs(state, cfg)
        forward_pass(state, cfg, x.transitions, x.forward_odds)
        backward_pass(state, cfg, x.transitions, x.backward_odds)
        update_transition_beliefs(state, cfg, x.transitions, x.llr)
        ref = chain_enumeration(first_w, trans_w, loglike)
        assert np.max(np.abs(state.fwd_filt - ref["prefix_filt"][:, 1])) < 1e-10
        assert np.max(np.abs(state.fwd_pred - ref["prefix_pred"][:, 1])) < 1e-10
        assert np.max(np.abs(state.bwd_filt - ref["suffix_filt"][:, 1])) < 1e-10
        assert np.max(np.abs(state.bwd_pred - ref["suffix_pred"][:, 1])) < 1e-10
        assert abs(state.first_active_belief - ref["full"][0, 1]) < 1e-10
        pair_cols = np.stack(
            [
                ref["pair"][:, 0, 0],
                ref["pair"][:, 1, 0],
                ref["pair"][:, 0, 1],
                ref["pair"][:, 1, 1],
            ],
            axis=1,
        )
        assert np.max(np.abs(state.pair_belief - pair_cols)) < 1e-10
        marginal = expit(logit(state.fwd_pred) + logit(state.bwd_pred) + llr)
        assert np.max(np.abs(marginal - ref["full"][:, 1])) < 1e-10


def test_support_extrinsic_matches_leave_one_out_enumeration():
    cfg = PriorConfig()
    rng = np.random.default_rng(103)
    N, P = 6, 2
    state = frozen_chain_state(rng, N, P, cfg)
    first_w, trans_w = chain_weights(state)
    loglike = loglike_from_pi(state.support_like)
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    backward_pass(state, cfg, x.transitions, x.backward_odds)
    support_extrinsic(state, cfg, x.like_logit, x.llr)
    for n in range(N):
        for p in range(P):
            reduced = loglike.copy()
            keep = [q for q in range(P) if q != p]
            reduced[n, 0] = np.log1p(-state.support_like[n, keep]).sum()
            reduced[n, 1] = np.log(state.support_like[n, keep]).sum()
            ref = chain_enumeration(first_w, trans_w, reduced)
            assert abs(state.support_ext[n, p] - ref["full"][n, 1]) < 1e-10


def _sweep_case(rng, N, kind):
    """A frozen chain state: random, clamp-binding, with a clamp-binding first
    prediction, or with saturating pooled evidence (|LLR| > 745, so exp
    overflows and underflows)."""
    if kind == "random":
        cfg = PriorConfig()
        state = frozen_chain_state(rng, N, 2, cfg)
    elif kind == "clamp":
        # a near-certain stay-active transition pins the forward prediction,
        # and strong evidence pins the filtered messages, to the
        # [floor, 1 - floor] clamp
        cfg = PriorConfig(prob_floor=1e-3)
        state = frozen_chain_state(rng, N, 3, cfg)
        state.p01_a = float(rng.uniform(0.02, 0.1))
        state.p01_b = float(rng.uniform(20.0, 60.0))
        state.support_like = np.where(
            rng.random((N, 1)) < 0.5, 1e-5, 1.0 - 1e-5
        ) * np.ones((1, 3))
    elif kind == "sticky":
        # sticky Beta beliefs on p10 put the first prediction
        # turn_on / (turn_on + stay_quiet) within 1e-7 of 1, past 1 - floor
        cfg = PriorConfig(prob_floor=1e-3)
        state = frozen_chain_state(rng, N, 3, cfg)
        state.p10_a = float(rng.uniform(20.0, 60.0))
        state.p10_b = float(rng.uniform(0.02, 0.1))
    else:
        cfg = PriorConfig()
        P = 32
        state = frozen_chain_state(rng, N, P, cfg)
        side = rng.integers(0, 3, size=(N, 1))
        side[0], side[-1] = 1, 0
        state.support_like = np.where(
            side == 0, 1e-12, np.where(side == 1, 1.0 - 1e-12, state.support_like)
        )
    return state, cfg


@pytest.mark.parametrize("N", [1, 2, 3, 64])
@pytest.mark.parametrize("kind", ["random", "clamp", "sticky", "saturate"])
def test_odds_sweeps_match_probability_sweeps(N, kind):
    rng = np.random.default_rng([N, len(kind), 1])
    for _ in range(5):
        state, cfg = _sweep_case(rng, N, kind)
        x = step_inputs(state, cfg)
        weights = [math.exp(v) for v in x.transitions]
        llr = logit(state.support_like).sum(axis=1)
        ref = chain_sweeps_probability(weights, llr, cfg.prob_floor)
        forward_pass(state, cfg, x.transitions, x.forward_odds)
        backward_pass(state, cfg, x.transitions, x.backward_odds)
        got = (state.fwd_pred, state.fwd_filt, state.bwd_pred, state.bwd_filt)
        for g, r in zip(got, ref):
            assert g.shape == (N,)
            assert np.max(np.abs(g - r)) < 1e-12
        if kind == "saturate":
            assert np.abs(llr).max() > 745.0
        if kind == "sticky":
            stay_active, turn_on, stay_quiet, turn_off = weights
            assert turn_on / (turn_on + stay_quiet) > 1.0 - cfg.prob_floor
            assert state.fwd_pred[0] == pytest.approx(1.0 - cfg.prob_floor, abs=1e-15)
        if kind == "clamp" and N == 64:
            floor = cfg.prob_floor
            for msgs in ((ref[0], ref[2]), (ref[1], ref[3])):
                pinned = np.concatenate(msgs)
                assert np.any(np.isclose(pinned, floor, rtol=0, atol=1e-15)
                              | np.isclose(pinned, 1 - floor, rtol=0, atol=1e-15))


CHAIN_FIELDS = (
    "fwd_pred", "fwd_filt", "bwd_pred", "bwd_filt", "pair_belief",
    "first_active_belief", "p10_a", "p10_b", "p01_a", "p01_b",
)


def _chain_round_case(rng, N, kind, cfg):
    """A frozen chain state whose pooled evidence is random, makes the
    [floor, 1 - floor] clamps bind, saturates (|LLR| > 745), or says that
    every element is quiet or every element is active."""
    floor = cfg.prob_floor
    P = 32 if kind == "saturate" else 3
    state = frozen_chain_state(rng, N, P, cfg)
    if kind == "clamp":
        # sticky transitions pin the predictions, near-certain evidence the
        # filtered messages
        state.p01_a, state.p01_b = float(rng.uniform(0.02, 0.1)), float(rng.uniform(20.0, 60.0))
        state.p10_a, state.p10_b = float(rng.uniform(20.0, 60.0)), float(rng.uniform(0.02, 0.1))
        side = rng.random((N, 1)) < 0.5
        state.support_like = np.where(side, floor, 1.0 - floor) * np.ones((1, P))
    elif kind == "saturate":
        side = rng.random((N, 1)) < 0.5
        state.support_like = np.where(side, 1e-12, 1.0 - 1e-12) * np.ones((1, P))
    elif kind == "quiet":
        state.support_like = rng.uniform(floor, 0.01, size=(N, P))
    elif kind == "active":
        state.support_like = rng.uniform(0.99, 1.0 - floor, size=(N, P))
    return state


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("floor", [1e-12, 1e-3])
@pytest.mark.parametrize("N", [1, 2, 3, 2048])
@pytest.mark.parametrize("kind", ["random", "clamp", "saturate", "quiet", "active"])
def test_chain_round_equals_the_two_list_stacked_form_bit_for_bit(variant, floor, N, kind):
    # two chain rounds as `denoise` runs them, against the earlier package
    # form: odds sweeps that keep both lists, pair beliefs from a stacked
    # (N-1, 4) array
    cfg = PriorConfig(variant=variant, prob_floor=floor)
    rng = np.random.default_rng([N, len(kind), int(-math.log10(floor))])
    state = _chain_round_case(rng, N, kind, cfg)
    ref = copy.deepcopy(state)
    evidence = pooled_evidence(state)
    llr = evidence[1]
    forward_odds, backward_odds = evidence_odds(llr)
    if kind == "saturate":
        assert np.abs(llr).max() > 745.0
    for _ in range(2):
        transitions = transition_log_expectations(state, cfg)
        forward_pass(state, cfg, transitions, forward_odds)
        backward_pass(state, cfg, transitions, backward_odds)
        update_transition_beliefs(state, cfg, transitions, llr)
        transitions = transition_log_expectations(ref, cfg)
        forward_pass_two_lists(ref, cfg, evidence=evidence, transitions=transitions)
        backward_pass_two_lists(ref, cfg, evidence=evidence, transitions=transitions)
        update_transition_beliefs_stacked(ref, cfg, evidence=evidence, transitions=transitions)
        for name in CHAIN_FIELDS:
            np.testing.assert_array_equal(getattr(state, name), getattr(ref, name), err_msg=name)
        for name in ("fwd_pred", "fwd_filt", "bwd_pred", "bwd_filt", "pair_belief"):
            assert getattr(state, name).flags.c_contiguous, name
        assert state.pair_belief.shape == (N - 1, 4)
    if kind == "clamp" and N > 3:
        odds_lo = floor / (1.0 - floor)
        pinned = np.concatenate([state.fwd_pred, state.fwd_filt, state.bwd_filt])
        assert np.any(pinned == odds_lo / (1.0 + odds_lo))


def test_symmetric_beta_gives_half_first_prediction():
    cfg = PriorConfig()
    state = frozen_chain_state(np.random.default_rng(7), 5, 2, cfg)
    state.p10_a = state.p10_b = 1.7
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    assert state.fwd_pred[0] == pytest.approx(0.5, abs=1e-14)


def test_balanced_likelihoods_make_filtered_equal_predicted():
    cfg = PriorConfig()
    state = frozen_chain_state(np.random.default_rng(9), 6, 2, cfg)
    state.support_like = np.full((6, 2), 0.5)
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    assert np.allclose(state.fwd_filt, state.fwd_pred, atol=1e-14)


def test_symmetric_weights_keep_backward_half():
    cfg = PriorConfig()
    state = init_state(6, 2, cfg)
    state.p10_a = state.p10_b = state.p01_a = state.p01_b = 2.0
    state.support_like = np.full((6, 2), 0.5)
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    backward_pass(state, cfg, x.transitions, x.backward_odds)
    assert np.allclose(state.bwd_pred, 0.5, atol=1e-14)
    assert np.allclose(state.bwd_filt, 0.5, atol=1e-14)


def test_terminal_backward_prediction_stays_half():
    cfg = PriorConfig()
    rng = np.random.default_rng(11)
    h = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    v = np.array([0.3, 0.4])
    state = None
    for _ in range(3):
        _, _, state = denoise(h, v, PriorConfig(), state)
        assert state.bwd_pred[-1] == 0.5


# ---------------------------------------------------------------------------
# transition-belief updates


def test_symmetric_case_pair_beliefs_quarter():
    N = 9
    cfg = PriorConfig()
    state = init_state(N, 2, cfg)
    state.support_like = np.full((N, 2), 0.5)
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    backward_pass(state, cfg, x.transitions, x.backward_odds)
    update_transition_beliefs(state, cfg, x.transitions, x.llr)
    assert np.allclose(state.pair_belief, 0.25, atol=1e-12)
    assert state.first_active_belief == pytest.approx(0.5, abs=1e-12)
    assert state.p10_a - cfg.p10_a == pytest.approx(0.5 + (N - 1) / 4.0, abs=1e-10)
    assert state.p10_b - cfg.p10_b == pytest.approx(0.5 + (N - 1) / 4.0, abs=1e-10)
    assert state.p01_a - cfg.p01_a == pytest.approx((N - 1) / 4.0, abs=1e-10)
    assert state.p01_b - cfg.p01_b == pytest.approx((N - 1) / 4.0, abs=1e-10)


def test_updated_transition_parameters_exceed_priors():
    cfg = PriorConfig()
    rng = np.random.default_rng(15)
    h = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    _, _, state = denoise(h, np.full(4, 0.3), cfg)
    assert state.p10_a >= cfg.p10_a and state.p10_b >= cfg.p10_b
    assert state.p01_a >= cfg.p01_a and state.p01_b >= cfg.p01_b


def test_single_pair_hand_case():
    cfg = PriorConfig()
    rng = np.random.default_rng(17)
    state = frozen_chain_state(rng, 2, 1, cfg)
    first_w, trans_w = chain_weights(state)
    loglike = loglike_from_pi(state.support_like)
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    backward_pass(state, cfg, x.transitions, x.backward_odds)
    update_transition_beliefs(state, cfg, x.transitions, x.llr)
    ref = chain_enumeration(first_w, trans_w, loglike)
    b1 = ref["full"][0, 1]
    pair = ref["pair"][0]
    assert state.p10_a == pytest.approx(b1 + cfg.p10_a + pair[0, 1], abs=1e-12)
    assert state.p10_b == pytest.approx((1 - b1) + cfg.p10_b + pair[0, 0], abs=1e-12)
    assert state.p01_a == pytest.approx(cfg.p01_a + pair[1, 0], abs=1e-12)
    assert state.p01_b == pytest.approx(cfg.p01_b + pair[1, 1], abs=1e-12)


# ---------------------------------------------------------------------------
# leave-one-out extrinsic messages


def test_extrinsic_single_subcarrier_formula():
    cfg = PriorConfig()
    state = frozen_chain_state(np.random.default_rng(19), 6, 1, cfg)
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    backward_pass(state, cfg, x.transitions, x.backward_odds)
    support_extrinsic(state, cfg, x.like_logit, x.llr)
    up, dn = state.bwd_pred, state.fwd_pred
    expect = up * dn / (up * dn + (1.0 - up) * (1.0 - dn))
    assert np.allclose(state.support_ext[:, 0], expect, atol=1e-12)


def test_extrinsic_symmetric_everything_half():
    cfg = PriorConfig()
    state = init_state(5, 3, cfg)
    state.p10_a = state.p10_b = state.p01_a = state.p01_b = 1.0
    state.support_like = np.full((5, 3), 0.5)
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    backward_pass(state, cfg, x.transitions, x.backward_odds)
    support_extrinsic(state, cfg, x.like_logit, x.llr)
    assert np.allclose(state.support_ext, 0.5, atol=1e-12)


def test_extrinsic_three_subcarrier_direct_products():
    cfg = PriorConfig()
    state = frozen_chain_state(np.random.default_rng(21), 5, 3, cfg)
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    backward_pass(state, cfg, x.transitions, x.backward_odds)
    support_extrinsic(state, cfg, x.like_logit, x.llr)
    pi = state.support_like
    for n in range(5):
        for p in range(3):
            on = state.fwd_pred[n] * state.bwd_pred[n]
            off = (1 - state.fwd_pred[n]) * (1 - state.bwd_pred[n])
            for q in range(3):
                if q != p:
                    on *= pi[n, q]
                    off *= 1 - pi[n, q]
            assert state.support_ext[n, p] == pytest.approx(
                on / (on + off), abs=1e-12
            )


# ---------------------------------------------------------------------------
# precision-belief updates


def _forced_weight_state(N, P, cfg, value):
    state = init_state(N, P, cfg)
    state.support_like = np.full((N, P), value)
    state.support_ext = np.full((N, P), value)
    return state


def test_all_quiet_update():
    cfg = PriorConfig()
    N, P = 6, 2
    state = _forced_weight_state(N, P, cfg, 1e-12)
    rng = np.random.default_rng(23)
    h = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    x = step_inputs(state, cfg, h)
    update_precision_beliefs(x.r2, np.full(P, 0.5), state, cfg, x.like_logit, x.ext_logit)
    assert np.allclose(state.large_shape, cfg.large_shape, atol=1e-8)
    assert np.allclose(state.large_rate, cfg.large_rate, atol=1e-8)
    assert np.allclose(state.small_shape, cfg.small_shape + N, atol=1e-8)


def test_all_active_update():
    cfg = PriorConfig()
    N, P = 6, 2
    state = _forced_weight_state(N, P, cfg, 1.0 - 1e-12)
    rng = np.random.default_rng(25)
    h = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    x = step_inputs(state, cfg, h)
    update_precision_beliefs(x.r2, np.full(P, 0.5), state, cfg, x.like_logit, x.ext_logit)
    assert np.allclose(state.large_shape, cfg.large_shape + 1.0, atol=1e-8)
    assert np.allclose(state.small_shape, cfg.small_shape, atol=1e-8)
    assert np.allclose(state.small_rate, cfg.small_rate, atol=1e-8)


def test_single_element_hand_update():
    cfg = PriorConfig()
    state = _forced_weight_state(1, 1, cfg, 1.0 - 1e-12)
    x = step_inputs(state, cfg, np.array([[2.0]]))
    update_precision_beliefs(x.r2, np.array([1.0]), state, cfg, x.like_logit, x.ext_logit)
    # component posterior: variance 1/(1/1 + 1) = 0.5, mean 0.5*2 = 1
    assert state.large_rate[0, 0] == pytest.approx(2.5, abs=1e-9)
    assert state.large_shape[0, 0] == pytest.approx(2.0, abs=1e-9)


def test_pooled_variant_shares_parameters_across_elements():
    rng = np.random.default_rng(27)
    h = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    v = np.full(3, 0.4)
    _, _, state = denoise(h, v, PriorConfig(variant=VARIANT_TSGM))
    assert np.allclose(state.large_shape, state.large_shape[0:1, :])
    assert np.allclose(state.large_rate, state.large_rate[0:1, :])
    _, _, state_lvd = denoise(h, v, PriorConfig(variant=VARIANT_LVD))
    assert not np.allclose(state_lvd.large_shape, state_lvd.large_shape[0:1, :])


def test_bg_variant_keeps_precision_beliefs():
    cfg = PriorConfig(variant=VARIANT_BG)
    state = _forced_weight_state(4, 2, cfg, 0.7)
    before = state.large_shape.copy()
    x = step_inputs(state, cfg, np.ones((4, 2)))
    update_precision_beliefs(x.r2, np.full(2, 0.5), state, cfg, x.like_logit, x.ext_logit)
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
        state.large_shape = np.array([[s]])
        state.large_rate = np.array([[s * v1]])
        state.small_shape = np.array([s])
        state.small_rate = np.array([s * v0])
        state.support_ext = np.array([[lam]])
        h = np.array([[r]])
        x = step_inputs(state, cfg, h)
        h_post, v_post = posterior_moments(h, np.array([tau]), state, cfg, x.r2, x.ext_logit)
        mean, var, w = mixture_posterior_closed_form(r, tau, lam, v1, v0)
        assert abs(h_post[0, 0] - mean) < 1e-12
        assert abs(v_post[0] - var) < 1e-12
        assert abs(state.support_post[0, 0] - w) < 1e-12


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
    state.support_ext = np.array([[lam]])
    state.support_post = None
    h, v = np.array([[r]]), np.array([tau])
    support_likelihood(_squared_magnitude(h), v, state, cfg)
    x = step_inputs(state, cfg, h)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit)
    h_post, v_post = posterior_moments(h, v, state, cfg, x.r2, x.ext_logit)
    assert state.support_post[0, 0] == pytest.approx(
        spike_slab_weight(r, tau, lam, 1.0), abs=1e-12
    )
    g_mean, g_var = mixture_posterior_grid(r, tau, lam, 1.0, 0.0, points=501)
    assert abs(h_post[0, 0] - g_mean) < 2e-3 * abs(g_mean)
    assert abs(v_post[0] - g_var) < 2e-3 * g_var


def test_degenerate_weight_selects_large_component():
    cfg = PriorConfig(
        variant=VARIANT_BG, bg_variance=2.0, large_shape=1.0, large_rate=2.0
    )
    state = init_state(1, 1, cfg)
    state.support_like = np.array([[1.0 - 1e-12]])
    state.support_ext = np.array([[1.0 - 1e-12]])
    h, v = np.array([[1.5 + 0.5j]]), np.array([0.5])
    x = step_inputs(state, cfg, h)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit)
    h_post, _ = posterior_moments(h, v, state, cfg, x.r2, x.ext_logit)
    # large-component posterior mean with variance 1/(1/0.5 + 1/2)
    var_l = 1.0 / (1.0 / 0.5 + 0.5)
    assert h_post[0, 0] == pytest.approx(var_l * (1.5 + 0.5j) / 0.5, rel=1e-9)



def test_bg_moments_use_the_bg_variance():
    # the slab variance is bg_variance = 4, not the rate/shape = 1 of the
    # Gamma prior that bg never updates: a saturated support gives the
    # gain 4 / (4 + 0.5), not 1 / (1 + 0.5)
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=4.0)
    h_post, v_post, state = denoise(np.full((4, 1), 30.0 + 0j), [0.5], cfg)
    assert np.all(state.support_post == pytest.approx(1.0, abs=1e-11))
    gain = 4.0 / 4.5
    assert np.all(h_post == pytest.approx(gain * 30.0, rel=1e-9))
    assert v_post[0] == pytest.approx(gain * 0.5, rel=1e-8)

def test_balanced_weight_includes_mean_spread():
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=1.0)
    state = init_state(1, 1, cfg)
    state.support_post = np.array([[0.5]])
    r, tau = 1.2 + 0.4j, 0.5
    h = np.array([[r]])
    x = step_inputs(state, cfg, h)
    h_post, v_post = posterior_moments(h, np.array([tau]), state, cfg, x.r2, x.ext_logit)
    var_l = 1.0 / (1.0 / tau + 1.0)
    mean_l = var_l * r / tau
    assert h_post[0, 0] == pytest.approx(0.5 * mean_l, rel=1e-12)
    # the collapsed variance exceeds the averaged component variance by the
    # mean-spread term 0.25 |mean_l - 0|^2
    assert v_post[0] == pytest.approx(
        0.5 * var_l + 0.25 * abs(mean_l) ** 2, rel=1e-12
    )


def test_bg_full_posterior_matches_enumeration():
    cfg = PriorConfig(variant=VARIANT_BG, bg_variance=1.0)
    rng = np.random.default_rng(31)
    N, P = 8, 2
    h = 0.8 * (rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P)))
    v = rng.uniform(0.1, 0.4, P)
    state = init_state(N, P, cfg)
    support_likelihood(_squared_magnitude(h), v, state, cfg)
    first_w, trans_w = chain_weights(state)
    loglike = np.zeros((N, 2))
    for n in range(N):
        loglike[n, 1] = sum(cn_logpdf(h[n, p], v[p] + 1.0) for p in range(P))
        loglike[n, 0] = sum(cn_logpdf(h[n, p], v[p]) for p in range(P))
    x = step_inputs(state, cfg)
    forward_pass(state, cfg, x.transitions, x.forward_odds)
    backward_pass(state, cfg, x.transitions, x.backward_odds)
    support_extrinsic(state, cfg, x.like_logit, x.llr)
    x = step_inputs(state, cfg, h)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit)
    ref = chain_enumeration(first_w, trans_w, loglike)
    for p in range(P):
        assert np.max(np.abs(state.support_post[:, p] - ref["full"][:, 1])) < 1e-8


# ---------------------------------------------------------------------------
# the wide steps against their complex oracles


def _oracle_case(case, variant, std_weight, exact):
    """Inputs and a random belief state for one step-by-step comparison."""
    rng = np.random.default_rng(51)
    N, P = (2, 1) if case == "N=2, P=1" else (6, 3)
    h = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    v = rng.uniform(0.05, 1.0, P)
    if case == "h=0":
        h[:] = 0.0
    elif case == "|h|=1e6":
        h *= 1e6 / np.abs(h)
    elif case == "v_pri=1e-12":
        v[:] = 1e-12
    cfg = PriorConfig(variant=variant, std_gamma_weight=std_weight, exact_digamma=exact)
    state = init_state(N, P, cfg)
    state.large_shape = rng.uniform(0.5, 4.0, (N, P))
    state.large_rate = rng.uniform(0.2, 3.0, (N, P))
    state.small_shape = rng.uniform(0.5, 4.0, P)
    state.small_rate = rng.uniform(0.005, 0.1, P)
    state.support_ext = rng.uniform(0.05, 0.95, (N, P))
    return h, v, cfg, state


def _assert_rel(a, b, rtol=1e-12):
    assert np.all(np.abs(a - b) <= rtol * np.abs(b)), np.max(np.abs(a - b) / np.abs(b))


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("std_weight, exact", [(False, False), (True, False), (False, True)])
@pytest.mark.parametrize("case", ["random", "h=0", "|h|=1e6", "v_pri=1e-12", "N=2, P=1"])
def test_real_steps_match_their_complex_oracles(variant, std_weight, exact, case):
    h, v, cfg, state = _oracle_case(case, variant, std_weight, exact)
    ref = copy.deepcopy(state)

    support_likelihood(_squared_magnitude(h), v, state, cfg)
    support_likelihood_complex(h, v, ref, cfg)
    _assert_rel(state.support_like, ref.support_like)

    # each step below starts from the oracle's state, so it is compared alone
    state = copy.deepcopy(ref)
    x = step_inputs(state, cfg, h)
    update_precision_beliefs(x.r2, v, state, cfg, x.like_logit, x.ext_logit)
    update_precision_beliefs_complex(h, v, ref, cfg)
    for name in ("support_post", "large_shape", "large_rate", "small_shape", "small_rate"):
        _assert_rel(getattr(state, name), getattr(ref, name))

    state = copy.deepcopy(ref)
    x = step_inputs(state, cfg, h)
    h_post, v_post = posterior_moments(h, v, state, cfg, x.r2, x.ext_logit)
    h_ref, v_ref = posterior_moments_complex(h, v, ref, cfg)
    _assert_rel(state.support_post, ref.support_post)
    assert np.all(np.abs(h_post - h_ref) <= 1e-12 * np.abs(h_ref))
    # the oracle's E|m|^2 - |E m|^2 cancels: its rounding error scales with
    # E|m|^2, which is |h|^2 ~ 1e12 in the |h| = 1e6 case
    second = (np.abs(h_ref) ** 2).mean(axis=0) + v_ref
    assert np.all(np.abs(v_post - v_ref) <= 1e-12 * second)


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_denoise_rejects_a_non_positive_or_non_finite_v_pri(variant, bad):
    h = np.ones((4, 3), dtype=complex)
    v = np.array([0.5, bad, 0.5])
    with pytest.raises(ValueError, match="v_pri must be positive and finite"):
        denoise(h, v, PriorConfig(variant=variant))


@pytest.mark.parametrize("field, bad", [
    ("prob_floor", 0.0),
    ("prob_floor", -1e-3),
    ("prob_floor", math.nan),
    ("prob_floor", 0.5),
    ("prob_floor", 0.6),
    ("small_rate", -1.0),
    ("large_shape", 0.0),
    ("large_rate", math.inf),
    ("small_shape", math.nan),
    ("p10_a", -0.5),
    ("p10_b", 0.0),
    ("p01_a", math.inf),
    ("p01_b", -2.0),
    ("bg_variance", -1.0),
    ("bg_variance", math.nan),
])
def test_prior_config_rejects_invalid_values(field, bad):
    # without the check, prob_floor=0 raised ZeroDivisionError in the sweep,
    # a negative or NaN floor and small_rate=-1 returned non-finite
    # estimates, and a floor of 0.5 or more pinned every support probability;
    # bg_variance=-1 or NaN gave NaN estimates
    with pytest.raises(ValueError, match=field):
        PriorConfig(**{field: bad})


@pytest.mark.parametrize("floor", [1e-3, 0.49])
def test_prior_config_accepts_floors_inside_the_half_interval(floor):
    rng = np.random.default_rng(48)
    h = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    cfg = PriorConfig(prob_floor=floor)
    h_post, v_post, state = denoise(h, rng.uniform(0.2, 0.6, 3), cfg)
    assert np.all(np.isfinite(h_post)) and np.all(np.isfinite(v_post))
    assert np.all(state.support_post >= floor) and np.all(state.support_post <= 1.0 - floor)


# ---------------------------------------------------------------------------
# full passes


STATE_FIELDS = CHAIN_FIELDS + (
    "support_like", "support_ext", "support_post",
    "large_shape", "large_rate", "small_shape", "small_rate",
)


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
def test_denoise_equals_manual_schedule(variant):
    # the schedule written out: each hand-in computed once per pass, the
    # transition weights once per chain round, over two warm-started passes
    cfg = PriorConfig(variant=variant)
    rng = np.random.default_rng(33)
    v = rng.uniform(0.2, 0.6, 3)
    got = ref = None
    for _ in range(2):
        h = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        h_post, v_post, got = denoise(h, v, cfg, got)
        ref = init_state(12, 3, cfg) if ref is None else ref
        r2 = _squared_magnitude(h)
        support_likelihood(r2, v, ref, cfg)
        like_logit, llr = pooled_evidence(ref)
        forward_odds, backward_odds = evidence_odds(llr)
        for _ in range(2):
            transitions = transition_log_expectations(ref, cfg)
            forward_pass(ref, cfg, transitions, forward_odds)
            backward_pass(ref, cfg, transitions, backward_odds)
            update_transition_beliefs(ref, cfg, transitions, llr)
        support_extrinsic(ref, cfg, like_logit, llr)
        ext_logit = _logit(ref.support_ext)
        update_precision_beliefs(r2, v, ref, cfg, like_logit, ext_logit)
        h_ref, v_ref = posterior_moments(h, v, ref, cfg, r2, ext_logit)
        assert np.array_equal(h_post, h_ref)
        assert np.array_equal(v_post, v_ref)
        for name in STATE_FIELDS:
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)


@pytest.mark.parametrize("name, params", [
    ("support_likelihood", ("r2", "v_pri", "state", "cfg")),
    ("forward_pass", ("state", "cfg", "transitions", "odds")),
    ("backward_pass", ("state", "cfg", "transitions", "odds")),
    ("update_transition_beliefs", ("state", "cfg", "transitions", "llr")),
    ("support_extrinsic", ("state", "cfg", "like_logit", "llr")),
    ("update_precision_beliefs", ("r2", "v_pri", "state", "cfg", "like_logit", "ext_logit")),
    ("posterior_moments", ("h_pri", "v_pri", "state", "cfg", "r2", "ext_logit")),
])
def test_step_takes_its_per_pass_inputs_as_required_arguments(name, params):
    # one input contract: denoise computes each per-pass value once and
    # hands it in, so a step has no optional input to fall back on
    import hmpce.denoiser as denoiser

    step = getattr(denoiser, name)
    sig = inspect.signature(step)
    assert tuple(sig.parameters) == params
    for p in sig.parameters.values():
        assert p.default is inspect.Parameter.empty, p.name
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, p.name
    with pytest.raises(TypeError):
        step(*range(len(params) - 1))


def test_denoise_computes_transition_weights_once_per_round(monkeypatch):
    import hmpce.denoiser as denoiser

    calls = []

    def counted(state, cfg):
        calls.append(1)
        return transition_log_expectations(state, cfg)

    monkeypatch.setattr(denoiser, "transition_log_expectations", counted)
    rng = np.random.default_rng(34)
    h = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    denoise(h, rng.uniform(0.2, 0.6, 3), PriorConfig())
    assert len(calls) == 2


def test_denoise_computes_evidence_odds_once_per_pass(monkeypatch):
    import hmpce.denoiser as denoiser

    calls = []

    def counted(llr):
        calls.append(1)
        return evidence_odds(llr)

    monkeypatch.setattr(denoiser, "evidence_odds", counted)
    rng = np.random.default_rng(35)
    h = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    v = rng.uniform(0.2, 0.6, 3)
    _, _, state = denoise(h, v, PriorConfig())
    assert len(calls) == 1
    denoise(h, v, PriorConfig(), state)
    assert len(calls) == 2


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
def test_denoise_takes_extrinsic_logit_once_per_pass(monkeypatch, variant):
    import hmpce.denoiser as denoiser

    cfg = PriorConfig(variant=variant)
    state = init_state(12, 3, cfg)
    calls = []

    def counted(p):
        if p is state.support_ext:
            calls.append(1)
        return _logit(p)

    monkeypatch.setattr(denoiser, "_logit", counted)
    rng = np.random.default_rng(36)
    v = rng.uniform(0.2, 0.6, 3)
    for passes in (1, 2):
        h = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        denoise(h, v, cfg, state)
        assert len(calls) == passes


def test_sigmoid_matches_expit_within_4_ulp():
    z = np.linspace(-800.0, 800.0, 1_600_001)
    got, want = _sigmoid(z), expit(z)
    # both are non-negative, so the integer views count the ulps between them
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert ulps.max() <= 4
    for floor in (1e-12, 1e-3):
        assert np.allclose(_clamp(got, floor), _clamp(want, floor), rtol=1e-15, atol=0.0)


def test_sigmoid_clamp_bounds_are_exact_and_quiet():
    floor = 1e-12
    z = np.array([-1e4, -800.0, -50.0, 50.0, 800.0, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = _clamp(_sigmoid(z), floor)
        first = float(_clamp(_sigmoid(np.float64(-1e4)), floor))
    assert np.all(p[:3] == floor)
    assert np.all(p[3:] == 1.0 - floor)
    assert first == floor
    assert np.isnan(_sigmoid(np.array([np.nan]))[0])
    assert np.isnan(_clamp(_sigmoid(np.array([0.0, np.nan])), floor)[1])


def test_zero_input_symmetry():
    for variant in (VARIANT_LVD, VARIANT_TSGM, VARIANT_BG):
        h_post, v_post, _ = denoise(
            np.zeros((8, 2), dtype=complex), np.full(2, 1e6), PriorConfig(variant=variant)
        )
        assert np.all(h_post == 0.0)
        assert np.all(v_post > 0.0)


def test_negation_symmetry():
    cfg = PriorConfig()
    rng = np.random.default_rng(35)
    h = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    v = rng.uniform(0.2, 0.5, 2)
    pos, vpos, _ = denoise(h, v, cfg)
    neg, vneg, _ = denoise(-h, v, cfg)
    assert np.array_equal(neg, -pos)
    assert np.array_equal(vneg, vpos)


def test_subcarrier_permutation_equivariance():
    cfg = PriorConfig()
    rng = np.random.default_rng(37)
    h = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    v = rng.uniform(0.2, 0.5, 4)
    perm = np.array([2, 0, 3, 1])
    base_h, base_v, _ = denoise(h, v, cfg)
    perm_h, perm_v, _ = denoise(h[:, perm], v[perm], cfg)
    assert np.allclose(perm_h, base_h[:, perm], rtol=1e-12, atol=1e-12)
    assert np.allclose(perm_v, base_v[perm], rtol=1e-12, atol=1e-12)


def test_probabilities_stay_in_unit_interval():
    cfg = PriorConfig()
    rng = np.random.default_rng(39)
    h = 2.0 * (rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4)))
    v = rng.uniform(0.01, 0.1, 4)
    _, _, state = denoise(h, v, cfg)
    for arr in (
        state.support_like, state.support_ext, state.support_post,
        state.fwd_pred, state.fwd_filt, state.bwd_pred, state.bwd_filt,
    ):
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
    assert np.allclose(state.pair_belief.sum(axis=1), 1.0, atol=1e-12)
    assert 0.0 <= state.first_active_belief <= 1.0
    assert np.all(state.large_shape >= cfg.large_shape - 1e-12)
    assert np.all(state.small_shape >= cfg.small_shape - 1e-12)


def test_posterior_variance_bounds():
    cfg = PriorConfig()
    rng = np.random.default_rng(41)
    h = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    v = rng.uniform(0.1, 0.8, 3)
    h_post, v_post, state = denoise(h, v, cfg)
    assert np.all(v_post > 0.0)
    var_l = 1.0 / (1.0 / v[None, :] + state.large_shape / state.large_rate)
    mean_l = var_l * h / v[None, :]
    var_s = 1.0 / (1.0 / v[None, :] + state.small_shape / state.small_rate)
    mean_s = var_s * h / v[None, :]
    spread = 0.25 * np.abs(mean_l - mean_s) ** 2
    assert np.all(v_post <= v + spread.max(axis=0) + 1e-12)


def test_warm_start_changes_beliefs_reset_does_not():
    cfg = PriorConfig()
    rng = np.random.default_rng(43)
    h = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    v = np.full(2, 0.3)
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
    h = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    v = rng.uniform(0.1, 0.5, P)
    cfg = PriorConfig(variant=variant)
    state = None
    for _ in range(2):
        h_post, v_post, state = denoise(h, v, cfg, state)
        assert h_post.shape == (N, P) and v_post.shape == (P,)
        assert np.all(np.isfinite(h_post)) and np.all(np.isfinite(v_post))
        assert state.pair_belief.shape == (N - 1, 4)
        for arr in (
            state.support_like, state.support_ext, state.support_post,
            state.fwd_pred, state.fwd_filt, state.bwd_pred, state.bwd_filt,
            state.pair_belief,
        ):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        assert 0.0 <= state.first_active_belief <= 1.0
