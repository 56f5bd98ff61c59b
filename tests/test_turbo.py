import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    ComplexMmseSampler,
    FancyIndexPilotSet,
    complex_bank,
    denoise_complex,
    lmmse_update_out_of_place,
    mmse_oracle,
    mmse_standard_error,
    mmse_unblocked,
    posterior_moments_mixture,
    run_turbo_per_subcarrier,
)
from hmpce import turbo
from hmpce.channels import (
    make_pilot_set,
    sample_channel,
    sample_support,
    synthesize_measurements,
)
from hmpce.denoiser import PriorConfig
from hmpce.priors import (
    VARIANT_BG,
    VARIANT_LVD,
    VARIANT_TSGM,
    VARIANTS,
    ScalarPrior,
    posterior_variance_mixture,
)
from hmpce.turbo import (
    AlgoConfig,
    BatchTrace,
    MmseSampler,
    NonFiniteStateError,
    SeUndefinedError,
    linear_stage_eta,
    nmse,
    run_state_evolution,
    run_turbo,
    run_turbo_batch,
    se_step,
    to_db,
)


def make_sim(N, M, P, snr_db, seed, spread=(0.1, 10.0)):
    root = np.random.SeedSequence(seed)
    s_support, s_gain, s_pilot, s_noise = root.spawn(4)
    support = sample_support(N, 0.05, 0.20, rng_seed=s_support)
    channel = sample_channel(support, P, vL_spread=spread, vS=100.0, rng_seed=s_gain)
    pilots = make_pilot_set(N, M, P, rng_seed=s_pilot)
    meas = synthesize_measurements(channel, pilots, snr_db, rng_seed=s_noise)
    return meas, pilots, channel.gains


def algo(variant=VARIANT_LVD, **kw):
    init = ScalarPrior(variant=variant).mean_power()
    return AlgoConfig(
        name=variant, prior=PriorConfig(variant=variant), init_variance=init, **kw
    )


# ---------------------------------------------------------------------------
# metric


def test_nmse_trivial_values():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert nmse(truth, truth) == 0.0
    assert nmse(np.zeros_like(truth), truth) == pytest.approx(1.0, abs=1e-15)
    assert nmse(2.0 * truth, truth) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("truth, match", [
    (np.zeros((2, 2)), "all-zero truth"),
    # ||truth||^2 overflows to inf, with no RuntimeWarning
    (np.full((2, 2), 1e160 + 0j), "energy is not finite"),
    # a (2, 1) truth would broadcast against the (2, 2) estimate
    (np.ones((2, 1)), "estimate is"),
], ids=["zero", "overflow", "shape"])
def test_nmse_zero_truth_error(truth, match):
    with pytest.raises(ValueError, match=match):
        nmse(np.ones((2, 2)), truth)


def test_to_db():
    assert to_db(1.0) == 0.0
    assert to_db(0.01) == pytest.approx(-20.0, abs=1e-12)
    assert to_db(0.0) == pytest.approx(-3000.0)


# ---------------------------------------------------------------------------
# turbo loop


@pytest.mark.parametrize("variant", [
    VARIANT_LVD,
    VARIANT_TSGM,
    # ROADMAP item 6: after its first iteration hmp-bg's NMSE grows to inf
    # with overflow warnings, while the estimate stays finite
    pytest.param(VARIANT_BG, marks=pytest.mark.xfail(
        strict=True, raises=RuntimeWarning, reason="ROADMAP item 6: hmp-bg diverges")),
])
def test_noiseless_full_pilots_ten_iterations(variant):
    N = P = 16
    root = np.random.SeedSequence(5)
    s_support, s_gain, s_pilot = root.spawn(3)
    support = sample_support(N, 0.05, 0.20, rng_seed=s_support)
    channel = sample_channel(support, P, rng_seed=s_gain)
    pilots = make_pilot_set(N, N, P, rng_seed=s_pilot)
    meas = synthesize_measurements(channel, pilots, np.inf)
    cfg = algo(variant, max_iters=10, early_stop=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = run_turbo(meas, pilots, cfg, truth=channel.gains)
    assert trace.iterations == 10
    assert max(trace.nmse) < 1e-20


@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM, VARIANT_BG])
@pytest.mark.parametrize("M, P", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_two_element_channel(M, P, variant):
    meas, pilots, truth = make_sim(2, M, P, 20.0, seed=40 + 2 * M + P)
    h, trace = run_turbo(meas, pilots, algo(variant, max_iters=6), truth=truth)
    assert h.shape == (2, P) and np.all(np.isfinite(h))
    assert 1 <= trace.iterations <= 6
    assert max(trace.roundtrip_err) <= 1e-10


@pytest.mark.parametrize(
    "N, M, P, snr_db, variant, iters, with_truth",
    [
        (64, 26, 4, 20.0, VARIANT_LVD, 10, True),
        (64, 26, 1, 20.0, VARIANT_TSGM, 10, True),    # one subcarrier
        (32, 32, 3, 30.0, VARIANT_BG, 10, True),      # M = N
        (32, 32, 1, np.inf, VARIANT_LVD, 1, True),    # M = N, P = 1, noiseless
        (64, 26, 4, 20.0, VARIANT_LVD, 10, False),    # early stop without truth
    ],
)
def test_stacked_turbo_matches_per_subcarrier_oracle(N, M, P, snr_db, variant, iters,
                                                     with_truth):
    meas, pilots, truth = make_sim(N, M, P, snr_db, seed=N + M + P)
    truth = truth if with_truth else None
    for early_stop in (False, True):
        cfg = algo(variant, max_iters=iters, early_stop=early_stop)
        h, trace = run_turbo(meas, pilots, cfg, truth=truth)
        h_ref, ref = run_turbo_per_subcarrier(meas, pilots, cfg, truth=truth)
        assert trace.iterations == ref.iterations
        assert trace.clamped_a == ref.clamped_a and trace.clamped_b == ref.clamped_b
        if with_truth:
            assert np.max(np.abs(np.subtract(trace.nmse, ref.nmse))) < 1e-12
        assert np.max(np.abs(h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))
        assert max(trace.roundtrip_err) <= 1e-10 and max(ref.roundtrip_err) <= 1e-10


@pytest.mark.parametrize(
    "N, M, P, snr_db, variant, iters",
    [
        (64, 26, 4, 20.0, VARIANT_LVD, 10),
        (64, 26, 1, 20.0, VARIANT_TSGM, 10),
        (64, 26, 4, np.inf, VARIANT_LVD, 10),
        (32, 32, 3, 30.0, VARIANT_BG, 10),
        # bg amplifies last-digit differences from about iteration 8 on
        # (1e-11 relative by iteration 10 here), so it runs 7 iterations
        (64, 26, 4, 20.0, VARIANT_BG, 7),
    ],
)
def test_real_denoiser_reproduces_the_complex_trace(monkeypatch, N, M, P, snr_db, variant,
                                                    iters):
    meas, pilots, truth = make_sim(N, M, P, snr_db, seed=N + M + P)
    cfg = algo(variant, max_iters=iters, early_stop=False)
    h, trace = run_turbo(meas, pilots, cfg, truth=truth)
    monkeypatch.setattr(turbo, "denoise", denoise_complex)
    h_ref, ref = run_turbo(meas, pilots, cfg, truth=truth)
    assert trace.iterations == ref.iterations == iters
    assert trace.clamped_a == ref.clamped_a and trace.clamped_b == ref.clamped_b
    assert np.all(np.abs(np.subtract(trace.nmse, ref.nmse)) <= 1e-12 * np.array(ref.nmse))
    assert np.max(np.abs(h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))


def _out_of_place_lmmse(y, pilots, h_pri, v_pri, sigma2):
    # a one-member run's (1, ...) blocks through the (N, P) oracle
    h_post, v_post = lmmse_update_out_of_place(
        y[0], FancyIndexPilotSet(pilots), h_pri[0], v_pri[0], sigma2[0]
    )
    return h_post[None], v_post[None]


@pytest.mark.parametrize(
    "N, M, P, snr_db, variant, iters",
    [
        (64, 26, 8, 20.0, VARIANT_LVD, 10),
        (64, 26, 8, 20.0, VARIANT_TSGM, 10),
        # bg collapses here and amplifies last-digit differences from about
        # iteration 8 on (5e-12 relative by iteration 10), so it runs 7
        (64, 26, 8, 20.0, VARIANT_BG, 7),
        (32, 32, 3, np.inf, VARIANT_LVD, 1),    # M = N, noiseless: clamped columns
    ],
)
def test_run_turbo_matches_the_out_of_place_module_a(monkeypatch, N, M, P, snr_db, variant,
                                                     iters):
    meas, pilots, truth = make_sim(N, M, P, snr_db, seed=N + M + P)
    saved = (meas.Y.copy(), truth.copy())
    cfg = algo(variant, max_iters=iters, early_stop=False)
    h, trace = run_turbo(meas, pilots, cfg, truth=truth)
    monkeypatch.setattr(turbo, "lmmse_update", _out_of_place_lmmse)
    h_ref, ref = run_turbo(meas, pilots, cfg, truth=truth)
    assert trace.iterations == ref.iterations == iters
    assert trace.clamped_a == ref.clamped_a and trace.clamped_b == ref.clamped_b
    assert np.all(np.abs(np.subtract(trace.nmse, ref.nmse)) <= 1e-12 * np.array(ref.nmse))
    assert np.max(np.abs(h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))
    assert max(trace.roundtrip_err) <= 1e-10 and max(ref.roundtrip_err) <= 1e-10
    assert np.array_equal(meas.Y, saved[0]) and np.array_equal(truth, saved[1])
    if snr_db == np.inf:
        assert trace.clamped_b[0] == P


def test_run_turbo_with_an_all_zero_truth_raises():
    meas, pilots, truth = make_sim(16, 7, 2, 20.0, seed=3)
    with pytest.raises(ValueError, match="all-zero truth"):
        run_turbo(meas, pilots, algo(max_iters=3), truth=np.zeros_like(truth))


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_turbo_nmse_trace_equals_nmse_of_each_estimate(monkeypatch, variant):
    # the truth's energy is taken once per run; every trace value still
    # equals nmse() of that iteration's denoiser estimate, bit for bit
    estimates = []

    def recorded(*args):
        out = turbo_denoise(*args)
        estimates.append(out[0].copy())
        return out

    turbo_denoise = turbo.denoise
    monkeypatch.setattr(turbo, "denoise", recorded)
    meas, pilots, truth = make_sim(64, 26, 4, 20.0, seed=14)
    _, trace = run_turbo(meas, pilots, algo(variant, max_iters=6, early_stop=False), truth)
    assert len(estimates) == trace.iterations == 6
    # each estimate is the (1, N, P) batch of this one run
    assert trace.nmse == [nmse(h[0], truth) for h in estimates]


def _lmmse_must_not_run(*args):
    raise AssertionError("run_turbo reached the linear stage")


@pytest.mark.parametrize("rows, cols", [(12, 3), (14, 3), (13, 2)])
def test_run_turbo_rejects_measurements_that_do_not_fit_the_pilots(monkeypatch, rows, cols):
    # a wrong row count was a numpy broadcast error inside the linear stage
    meas, pilots, truth = make_sim(32, 13, 3, 20.0, seed=12)
    meas.Y = np.zeros((rows, cols), complex)
    monkeypatch.setattr(turbo, "lmmse_update", _lmmse_must_not_run)
    with pytest.raises(ValueError, match=r"need \(M, P\) = \(13, 3\)"):
        run_turbo(meas, pilots, algo(max_iters=4), truth=truth)


@pytest.mark.parametrize("shape", [(32, 2), (31, 3), (32,)])
def test_run_turbo_rejects_a_truth_of_the_wrong_shape(monkeypatch, shape):
    # this was a numpy broadcast error, and only after a whole iteration
    meas, pilots, _ = make_sim(32, 13, 3, 20.0, seed=12)
    monkeypatch.setattr(turbo, "lmmse_update", _lmmse_must_not_run)
    with pytest.raises(ValueError, match=r"need \(N, P\) = \(32, 3\)"):
        run_turbo(meas, pilots, algo(max_iters=4), truth=np.ones(shape, complex))


def test_turbo_trace_determinism():
    meas, pilots, truth = make_sim(32, 13, 2, 20.0, seed=11)
    _, t1 = run_turbo(meas, pilots, algo(max_iters=8), truth=truth)
    _, t2 = run_turbo(meas, pilots, algo(max_iters=8), truth=truth)
    assert t1.nmse == t2.nmse
    assert all(np.array_equal(a, b) for a, b in zip(t1.v_a_ext, t2.v_a_ext))
    assert all(np.array_equal(a, b) for a, b in zip(t1.v_b_ext, t2.v_b_ext))


def test_turbo_roundtrip_identity():
    meas, pilots, truth = make_sim(64, 26, 4, 20.0, seed=13)
    _, trace = run_turbo(
        meas, pilots, algo(max_iters=8, early_stop=False), truth=truth
    )
    assert trace.iterations == 8
    assert max(trace.roundtrip_err) <= 1e-10


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("active", (False, True))
@pytest.mark.parametrize("snr_db", (10.0, 30.0, math.inf))
@pytest.mark.parametrize("N, M, P", ((64, 26, 4), (32, 31, 2)))
@pytest.mark.parametrize("with_truth", (True, False))
def test_run_turbo_on_an_all_quiet_or_all_active_support(variant, active, snr_db, N, M, P,
                                                         with_truth):
    # the support chain never switches state; M = N at SNR inf is left out
    # (ROADMAP item 6)
    root = np.random.SeedSequence([N, M, int(active)])
    s_gain, s_pilot, s_noise = root.spawn(3)
    channel = sample_channel(np.full(N, int(active)), P, rng_seed=s_gain)
    pilots = make_pilot_set(N, M, P, rng_seed=s_pilot)
    meas = synthesize_measurements(channel, pilots, snr_db, rng_seed=s_noise)
    truth = channel.gains if with_truth else None
    h, trace = run_turbo(meas, pilots, algo(variant, max_iters=10, early_stop=False), truth)
    assert trace.iterations == 10
    assert np.isfinite(h).all()
    assert max(trace.roundtrip_err) <= 1e-10


def test_turbo_improves_over_iterations():
    for seed in (17, 18, 19):
        meas, pilots, truth = make_sim(64, 26, 8, 30.0, seed=seed)
        _, trace = run_turbo(meas, pilots, algo(max_iters=10), truth=truth)
        assert trace.nmse[-1] < trace.nmse[0]


def test_trace_invariants():
    meas, pilots, truth = make_sim(32, 13, 3, 15.0, seed=21)
    _, trace = run_turbo(meas, pilots, algo(max_iters=6), truth=truth)
    assert trace.iterations <= 6
    assert all(val >= 0.0 for val in trace.nmse)
    for v_a, v_b in zip(trace.v_a_ext, trace.v_b_ext):
        assert v_a.shape == (3,) and v_b.shape == (3,)
        assert np.all(v_a > 0) and np.all(v_b > 0)


def test_early_stop_flag():
    meas, pilots, truth = make_sim(64, 26, 4, 40.0, seed=23)
    _, t_full = run_turbo(
        meas, pilots, algo(max_iters=25, early_stop=False), truth=truth
    )
    _, t_stop = run_turbo(meas, pilots, algo(max_iters=25), truth=truth)
    assert t_full.iterations == 25
    assert t_stop.iterations < 25
    # identical prefix up to the stopping point
    assert t_stop.nmse == t_full.nmse[: t_stop.iterations]


def test_early_stop_without_truth_tracks_the_estimate(monkeypatch):
    meas, pilots, _ = make_sim(64, 26, 4, 40.0, seed=23)
    base = np.random.default_rng(0).standard_normal((1, 64, 4)) + 0j
    calls = []

    def rotating(h_pri, v_pri, prior, state):
        # the same mean power every call, but a different estimate
        calls.append(None)
        return base * np.exp(0.3j * len(calls)), 0.5 * v_pri, state

    def frozen(h_pri, v_pri, prior, state):
        return base, 0.5 * v_pri, state

    monkeypatch.setattr(turbo, "denoise", rotating)
    h, t_moving = run_turbo(meas, pilots, algo(max_iters=8))
    assert t_moving.iterations == 8
    assert np.array_equal(h, base[0] * np.exp(0.3j * 8))
    assert all(math.isnan(x) for x in t_moving.nmse)
    monkeypatch.setattr(turbo, "denoise", frozen)
    _, t_still = run_turbo(meas, pilots, algo(max_iters=8))
    assert t_still.iterations == 2


def test_collapsed_spread_variants_agree():
    # with a single shared slab variance the per-element learning has
    # nothing extra to find, so both variants land on the same estimate
    for seed in (201, 202, 203):
        meas, pilots, truth = make_sim(
            256, 103, 32, 30.0, seed=seed, spread=(1.0, 1.0)
        )
        _, t_lvd = run_turbo(meas, pilots, algo(VARIANT_LVD, max_iters=12), truth=truth)
        _, t_tsgm = run_turbo(meas, pilots, algo(VARIANT_TSGM, max_iters=12), truth=truth)
        assert abs(to_db(t_lvd.nmse[-1]) - to_db(t_tsgm.nmse[-1])) < 0.5


def test_bg_converges_at_moderate_snr():
    # the exact-spike variant is only unstable when the noise floor drops
    # below the quiet-component power; at 15 dB it tracks the others
    meas, pilots, truth = make_sim(256, 103, 32, 15.0, seed=301)
    _, trace = run_turbo(
        meas, pilots, algo(VARIANT_BG, max_iters=15, early_stop=False), truth=truth
    )
    for i in range(4):
        assert trace.nmse[i + 1] <= trace.nmse[i]
    assert to_db(trace.nmse[-1]) < -8.0


def test_reset_beliefs_changes_trace():
    meas, pilots, truth = make_sim(64, 26, 4, 20.0, seed=29)
    _, warm = run_turbo(
        meas, pilots, algo(max_iters=6, early_stop=False), truth=truth
    )
    _, cold = run_turbo(
        meas, pilots, algo(max_iters=6, early_stop=False, reset_beliefs=True),
        truth=truth,
    )
    assert warm.nmse != cold.nmse


def _drawn_transitions(support):
    """The support chain's own transition frequencies (0 -> 1, 1 -> 0)."""
    prev, nxt = support[:-1], support[1:]
    return (np.sum((prev == 0) & (nxt == 1)) / np.sum(prev == 0),
            np.sum((prev == 1) & (nxt == 0)) / np.sum(prev == 1))


@pytest.mark.parametrize("snr_db", [10.0, 30.0])
@pytest.mark.parametrize("variant", [VARIANT_LVD, VARIANT_TSGM])
def test_the_learning_recovers_the_generators_values(monkeypatch, variant, snr_db):
    # the generator is the oracle of the learned hyperparameters: the final
    # state's Beta means against the drawn support's transition frequencies,
    # its near-zero variance against the generator's 1 / vS = 0.01, and its
    # support posterior against the drawn support.  Measured on seeds 0-5:
    # E[p10] - drawn +0.0038 to +0.0041, E[p01] - drawn +0.0093 to +0.0187,
    # the variance ratio 0.68 to 1.38 per subcarrier and 0.94 to 1.02 in the
    # mean over the 32, and no support error
    states = []
    denoise = turbo.denoise

    def spy(*args):
        out = denoise(*args)
        states.append(out[2])
        return out

    for seed in range(6):
        meas, pilots, truth = make_sim(256, 103, 32, snr_db, seed=seed)
        # make_sim's support, drawn again from the first child of its seed
        support = sample_support(256, 0.05, 0.20,
                                 rng_seed=np.random.SeedSequence(seed).spawn(1)[0])
        states.clear()
        with monkeypatch.context() as patch:
            patch.setattr(turbo, "denoise", spy)
            run_turbo(meas, pilots, algo(variant, max_iters=12, early_stop=False), truth=truth)
        assert len(states) == 12
        state = states[-1]
        drawn_p10, drawn_p01 = _drawn_transitions(support)
        learned_p10 = state.p10_a[0] / (state.p10_a[0] + state.p10_b[0])
        learned_p01 = state.p01_a[0] / (state.p01_a[0] + state.p01_b[0])
        assert abs(learned_p10 - drawn_p10) <= 0.01, seed
        assert abs(learned_p01 - drawn_p01) <= 0.04, seed
        ratio = (state.small_rate / state.small_shape)[0, 0] / 0.01
        assert 0.9 <= ratio.mean() <= 1.1, seed
        assert 0.5 <= ratio.min() and ratio.max() <= 2.0, seed
        support_error = np.mean((state.support_post[0] > 0.5) != (support[:, None] == 1))
        assert support_error <= 0.01, seed


@pytest.mark.parametrize("field, bad", [
    ("init_variance", math.nan),    # was a RuntimeError at iteration 1
    ("init_variance", math.inf),    # also warned in the linear stage
    ("init_variance", 0.0),
    ("init_variance", -1.0),
    ("max_iters", 0),               # returned an all-zero estimate, empty trace
    ("max_iters", -1),
])
def test_algo_config_rejects_invalid_values(field, bad):
    fields = {"init_variance": 1.0, field: bad}
    with pytest.raises(ValueError, match=field):
        AlgoConfig(name=VARIANT_LVD, prior=PriorConfig(variant=VARIANT_LVD), **fields)


def test_non_finite_measurements_abort():
    meas, pilots, truth = make_sim(32, 13, 2, 20.0, seed=31)
    meas.Y[0, 0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError, match="iteration 1"):
            run_turbo(meas, pilots, algo(max_iters=4), truth=truth)


# ---------------------------------------------------------------------------
# batched runs: B members as the blocks of (B, N, P) arrays


def make_batch(N, M, P, snrs, seed):
    """One channel and one pilot set, measured once per SNR."""
    root = np.random.SeedSequence(seed)
    s_support, s_gain, s_pilot, *s_noise = root.spawn(3 + len(snrs))
    support = sample_support(N, 0.05, 0.20, rng_seed=s_support)
    channel = sample_channel(support, P, vS=100.0, rng_seed=s_gain)
    pilots = make_pilot_set(N, M, P, rng_seed=s_pilot)
    meas = [synthesize_measurements(channel, pilots, snr, rng_seed=s)
            for snr, s in zip(snrs, s_noise)]
    return meas, pilots, channel.gains


def _trace_bits(trace):
    """A trace as bytes and float hex, for bit-for-bit comparison (NaN NMSE
    values of a run without truth compare equal)."""
    return (
        [float(x).hex() for x in trace.nmse],
        [v.tobytes() for v in trace.v_a_ext], [v.tobytes() for v in trace.v_b_ext],
        trace.clamped_a, trace.clamped_b,
        [float(x).hex() for x in trace.roundtrip_err],
    )


def _run_bits(result):
    """Everything a run returns, as bytes and float hex."""
    h, trace = result
    return h.shape, h.tobytes(), _trace_bits(trace)


BATCH_CASES = [
    # N, M, P, SNRs, loop controls, seed; the 256 x 32 batch of five crosses
    # numpy's 256 KiB temporary-elision threshold, which a single run's
    # arrays do not
    (256, 103, 32, (0.0, 10.0, 20.0, 30.0, math.inf), {}, 2),
    (64, 26, 4, (5.0, 15.0, 25.0, 40.0), {}, 98),
    (64, 26, 4, (10.0, 30.0, math.inf), {"early_stop": False}, 3),
    (64, 26, 4, (10.0, 20.0, 30.0), {"reset_beliefs": True}, 4),
    (64, 26, 4, (10.0, 20.0, 30.0), {"exact_digamma": True}, 5),
    (64, 26, 1, (5.0, 20.0, math.inf), {}, 6),
    (2, 1, 1, (10.0, 20.0, math.inf), {}, 7),
]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("with_truth", (True, False))
@pytest.mark.parametrize("N, M, P, snrs, controls, seed", BATCH_CASES)
def test_each_member_equals_its_run_alone_bit_for_bit(N, M, P, snrs, controls, seed,
                                                      with_truth, variant):
    controls = dict(controls)
    exact = controls.pop("exact_digamma", False)
    cfg = AlgoConfig(
        name=variant, prior=PriorConfig(variant=variant, exact_digamma=exact),
        init_variance=ScalarPrior(variant=variant).mean_power(), max_iters=12, **controls,
    )
    meas, pilots, truth = make_batch(N, M, P, snrs, seed)
    truths = [truth if with_truth else None] * len(meas)
    estimates, traces = run_turbo_batch(meas, pilots, cfg, truths)
    alone = [run_turbo(m, pilots, cfg, truth=t) for m, t in zip(meas, truths)]
    assert len(estimates) == len(traces) == len(meas)
    for got, want in zip(zip(estimates, traces), alone):
        assert _run_bits(got) == _run_bits(want)


def test_batch_cases_stop_members_at_different_iterations():
    # the bit-for-bit cases above include batches whose members stop at
    # different iterations, so that removing a member is covered
    # for every variant
    for variant in VARIANTS:
        stops = []
        for N, M, P, snrs, _, seed in BATCH_CASES[:2]:
            meas, pilots, truth = make_batch(N, M, P, snrs, seed)
            cfg = algo(variant, max_iters=12)
            stops.append({run_turbo(m, pilots, cfg, truth=truth)[1].iterations for m in meas})
        assert any(len(s) > 1 for s in stops), (variant, stops)


def test_a_member_is_never_iterated_past_its_stop(monkeypatch):
    # the denoiser sees the stopped member's block no more: its member
    # count falls by one once the first member stops
    meas, pilots, truth = make_batch(64, 26, 4, (5.0, 15.0, 25.0, 40.0), seed=98)
    widths = []

    def recorded(h_pri, v_pri, prior, state):
        widths.append(h_pri.shape[0])
        return turbo_denoise(h_pri, v_pri, prior, state)

    turbo_denoise = turbo.denoise
    monkeypatch.setattr(turbo, "denoise", recorded)
    _, traces = run_turbo_batch(meas, pilots, algo(max_iters=12), [truth] * len(meas))
    stops = [trace.iterations for trace in traces]
    assert widths == [sum(stop >= it for stop in stops) for it in range(1, max(stops) + 1)]
    assert len(set(stops)) > 1


def test_each_estimate_is_an_array_of_its_own():
    # a finished member's estimate is a copy, not a view of its block that
    # would keep the whole (B, N, P) batch alive
    meas, pilots, truth = make_batch(64, 26, 4, (5.0, 15.0, 25.0, 40.0), seed=98)
    cfg = algo(max_iters=12)
    estimates, _ = run_turbo_batch(meas, pilots, cfg, [truth] * len(meas))
    alone, _ = run_turbo(meas[0], pilots, cfg, truth=truth)
    for estimate in estimates + [alone]:
        assert estimate.shape == (64, 4) and estimate.flags.c_contiguous
        assert estimate.base is None and estimate.flags.owndata


def test_a_member_warns_only_as_its_run_alone_does():
    # a noiseless member with M = N diverges with every column clamped
    # (ROADMAP item 6) beside a noisy member that keeps its columns; the
    # batch raises no floating-point warning that neither run alone raises,
    # and each member still equals its run alone
    meas, pilots, truth = make_batch(32, 32, 3, (math.inf, 10.0), seed=1)
    cfg = algo(VARIANT_BG, max_iters=10, early_stop=False)

    def run(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn()
        return out, {(w.category, str(w.message)) for w in caught}

    batch, batch_warned = run(lambda: run_turbo_batch(meas, pilots, cfg, [truth, truth]))
    alone, alone_warned = zip(*(run(lambda m=m: run_turbo(m, pilots, cfg, truth=truth))
                                for m in meas))
    assert batch_warned <= set().union(*alone_warned)
    estimates, traces = batch
    assert max(traces[0].clamped_b) == 3 and traces[1].clamped_b[-1] == 0
    for got, want in zip(zip(estimates, traces), alone):
        assert _run_bits(got) == _run_bits(want)


def test_a_diverging_member_leaves_the_others_their_results():
    # the noiseless M = N member's state goes non-finite at iteration 14
    # (ROADMAP item 6) while the 10 dB member runs all 30 iterations: the
    # batch drops the first, finishes the second and then reports both
    meas, pilots, truth = make_batch(32, 32, 3, (math.inf, 10.0), seed=1)
    cfg = algo(VARIANT_BG, max_iters=30, early_stop=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonFiniteStateError, match="at iteration 14") as alone_err:
            run_turbo(meas[0], pilots, cfg, truth=truth)
        healthy = run_turbo(meas[1], pilots, cfg, truth=truth)
        with pytest.raises(NonFiniteStateError, match="at iteration 14") as batch_err:
            run_turbo_batch(meas, pilots, cfg, [truth, truth])
    err = batch_err.value
    assert isinstance(err, RuntimeError) and err.failed == {0: 14}
    assert err.estimates[0] is None and err.traces[0].iterations == 13
    assert _trace_bits(err.traces[0]) == _trace_bits(alone_err.value.traces[0])
    assert _run_bits((err.estimates[1], err.traces[1])) == _run_bits(healthy)
    assert healthy[1].iterations == 30


def test_run_turbo_given_a_list_is_the_batch():
    # the CLI's batched calls go through run_turbo; the returned traces
    # read as one trace of the whole batch, the totals of the members' runs
    meas, pilots, truth = make_batch(64, 26, 4, (5.0, 15.0, 25.0, 40.0), seed=98)
    cfg = algo(max_iters=12)
    estimates, traces = run_turbo(meas, pilots, cfg, [truth] * len(meas))
    want_estimates, want_traces = run_turbo_batch(meas, pilots, cfg, [truth] * len(meas))
    assert isinstance(traces, BatchTrace) and len(traces) == len(meas)
    for got, want in zip(zip(estimates, traces), zip(want_estimates, want_traces)):
        assert _run_bits(got) == _run_bits(want)
    assert traces.iterations == sum(trace.iterations for trace in traces)
    assert len({trace.iterations for trace in traces}) > 1
    for name in ("clamped_a", "clamped_b", "roundtrip_err"):
        assert getattr(traces, name) == sum((getattr(t, name) for t in traces), [])


def test_run_turbo_batch_checks_its_members():
    meas, pilots, truth = make_batch(16, 7, 2, (10.0, 20.0), seed=4)
    cfg = algo(max_iters=2)
    with pytest.raises(ValueError, match="at least one member"):
        run_turbo_batch([], pilots, cfg, [])
    with pytest.raises(ValueError, match="1 truths for 2 members"):
        run_turbo_batch(meas, pilots, cfg, [truth])
    with pytest.raises(ValueError, match="all-zero truth"):
        run_turbo_batch(meas, pilots, cfg, [truth, np.zeros_like(truth)])
    # a member without truth beside one with it
    _, mixed = run_turbo_batch(meas, pilots, cfg, [None, truth])
    assert math.isnan(mixed[0].nmse[0]) and not math.isnan(mixed[1].nmse[0])


# ---------------------------------------------------------------------------
# state evolution


def test_linear_stage_eta_value():
    assert linear_stage_eta(1.0, 0.25, 2, 1) == pytest.approx(1.0 / 1.5, abs=1e-15)


def test_se_step_algebra():
    eta, m, v_next = se_step(1.0, 0.25, 2, 1, lambda e: 0.3)
    assert eta == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m == 0.3
    assert v_next == pytest.approx(1.0 / (1.0 / 0.3 - 2.0 / 3.0), abs=1e-15)


@pytest.mark.parametrize("mmse", (0.0, -1e-3, math.nan, math.inf))
def test_se_step_rejects_a_non_positive_or_non_finite_mmse(mmse):
    with pytest.raises(SeUndefinedError, match="denoiser stage"):
        se_step(1.0, 0.25, 2, 1, lambda e: mmse)


def test_se_step_takes_a_zero_mmse_without_noise_as_exact_recovery():
    # noiseless, an MMSE of exactly 0 is the fixed point v = 0; a negative or
    # non-finite one still raises, as a zero one does at finite noise
    assert se_step(1.0, 0.0, 2, 1, lambda e: 0.0) == (1.0, 0.0, 0.0)
    for mmse in (-1e-3, math.nan, math.inf):
        with pytest.raises(SeUndefinedError, match="denoiser stage"):
            se_step(1.0, 0.0, 2, 1, lambda e: mmse)


def test_noiseless_state_evolution_stops_at_exact_recovery():
    # bg at M close to N without noise shrinks v geometrically until the
    # MMSE underflows to 0: that row is the fixed point v = 0, and the run
    # stops there converged.  At M = 28 the decay stops short of underflow,
    # and 100 iterations end unconverged.
    prior = ScalarPrior(variant=VARIANT_BG)
    trace = run_state_evolution(prior, math.inf, 32, 31, num_samples=20_000, seed=3)
    assert trace.converged and len(trace.rows) < 100
    assert trace.rows[-1][1] == 0.0 and trace.fixed_point_nmse == 0.0
    assert all(row[1] > 0.0 for row in trace.rows[:-1])
    slower = run_state_evolution(prior, math.inf, 32, 28, num_samples=20_000, seed=3)
    assert not slower.converged and len(slower.rows) == 100
    assert 0.0 < slower.rows[-1][1] < 1e-100


def test_se_map_undefined():
    with pytest.raises(SeUndefinedError, match="SE map undefined"):
        linear_stage_eta(1.0, 0.0, 8, 8)
    with pytest.raises(SeUndefinedError) as exc:
        run_state_evolution(
            ScalarPrior(), np.inf, 8, 8, num_samples=1000, seed=3
        )
    assert exc.value.iteration == 1


def test_mmse_single_gaussian_wiener():
    prior = ScalarPrior(variant=VARIANT_TSGM, activation=1.0, large_power=1.0)
    sampler = MmseSampler(prior, num_samples=20_000, seed=7)
    for eta in (0.5, 2.0, 10.0):
        est = sampler(eta)
        assert type(est) is float
        assert abs(est - 1.0 / (1.0 + eta)) <= 3.0 * mmse_standard_error(sampler, eta) + 1e-12


def test_mmse_limits_and_monotonicity():
    prior = ScalarPrior()
    assert prior.mean_power() == pytest.approx(0.208, abs=1e-12)
    low = mmse_oracle(1e-8, prior, num_samples=200_000, seed=9)
    assert abs(low - 0.208) < 3e-3
    high = mmse_oracle(1e8, prior, num_samples=20_000, seed=9)
    assert high < 1e-6
    mid1 = mmse_oracle(0.1, prior, num_samples=20_000, seed=9)
    mid2 = mmse_oracle(10.0, prior, num_samples=20_000, seed=9)
    assert low > mid1 > mid2 > high


def test_mmse_sampler_frozen_bank():
    prior = ScalarPrior()
    s1 = MmseSampler(prior, num_samples=5000, seed=11)
    s2 = MmseSampler(prior, num_samples=5000, seed=11)
    assert s1(2.0) == s2(2.0)
    assert s1(2.0) == mmse_oracle(2.0, prior, num_samples=5000, seed=11)


def test_mmse_sampler_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2"):
        MmseSampler(ScalarPrior(), num_samples=1)


@pytest.mark.parametrize("eta", (math.nan, 0.0, -1.0))
def test_mmse_sampler_rejects_an_eta_that_is_not_positive(eta):
    # NaN used to pass the check and return nan
    sampler = MmseSampler(ScalarPrior(), num_samples=100)
    with pytest.raises(ValueError, match="eta"):
        sampler(eta)


@pytest.mark.parametrize("field, bad", [
    ("large_power", -1.0),
    ("large_power", 0.0),
    ("large_power", math.inf),
    ("large_power", math.nan),
    ("small_variance", -1e-3),
    ("small_variance", math.inf),
    ("small_variance", math.nan),
    ("spread", (10.0, 0.1)),
    ("spread", (0.0, 1.0)),
    ("spread", (-1.0, 1.0)),
    ("spread", (0.1, math.inf)),
    ("spread", (math.nan, 1.0)),
])
def test_scalar_prior_rejects_invalid_values(field, bad):
    # without the check each failed later: large_power=-1 warned in sqrt, 0
    # raised ZeroDivisionError, a reversed spread failed in numpy's uniform,
    # a zero lower end in math.log, an infinite upper end with
    # OverflowError, and NaN reached the state evolution as mmse = nan
    with pytest.raises(ValueError, match=field):
        ScalarPrior(**{field: bad})


@pytest.mark.parametrize("prior, per_draw", [
    (ScalarPrior(variant=VARIANT_TSGM), False),
    (ScalarPrior(variant=VARIANT_BG), False),
    (ScalarPrior(variant=VARIANT_LVD, spread=(2.0, 2.0)), False),
    (ScalarPrior(variant=VARIANT_LVD), True),
])
def test_sample_keeps_a_constant_active_variance_as_one_float(prior, per_draw):
    # a constant active variance is the float large_power, not a bank-sized
    # fill, and the sampler keeps it as it comes
    _, _, v_large = prior.sample(np.random.default_rng(5), 1000)
    sampler = MmseSampler(prior, 1000, seed=5)
    if per_draw:
        assert v_large.shape == (1000,) and sampler.v_large.shape == (1000,)
    else:
        assert type(v_large) is float and v_large == prior.large_power
        assert type(sampler.v_large) is float


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("activation", (0.0, 0.2, 1.0))
@pytest.mark.parametrize("num_samples", (2, 3, turbo._BLOCK + 1, 200_000))
def test_bank_matches_the_complex_build(variant, activation, num_samples):
    # the in-place build does the complex build's real arithmetic on the same
    # draws in the same order; the complex product adds signed zeros, so the
    # cross term may differ from it in the sign of a zero only
    sampler = MmseSampler(ScalarPrior(variant=variant, activation=activation), num_samples, seed=3)
    gain_sq, cross, noise_sq, v_large = complex_bank(sampler.prior, num_samples, seed=3)
    assert sampler.gain_sq.tobytes() == gain_sq.tobytes()
    assert sampler.noise_sq.tobytes() == noise_sq.tobytes()
    np.testing.assert_array_equal(sampler.cross, cross)
    assert np.shape(sampler.v_large) == np.shape(v_large)
    assert np.asarray(sampler.v_large).tobytes() == np.asarray(v_large).tobytes()


def _peak_bank_arrays(build, num_samples):
    """Peak traced memory of `build()` in bank-sized float64 arrays."""
    build()  # first-call allocations are not the build's
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return (peak - base) / (8 * num_samples)


@pytest.mark.parametrize("variant", VARIANTS)
def test_bank_build_peak_memory(variant):
    # the in-place build holds at most five bank-sized arrays and one block
    # at once: the three it keeps, the per-draw variances and the imaginary
    # part of the gain while the second noise normal is drawn block by block
    # (measured 5.17 for tsgm-lvd and 4.17 for tsgm and bg, whose variances
    # collapse to one value); the complex build peaks at 9.1 for every variant
    prior = ScalarPrior(variant=variant)
    num_samples = 200_000
    bound = 5.5
    assert _peak_bank_arrays(lambda: MmseSampler(prior, num_samples), num_samples) <= bound
    assert _peak_bank_arrays(lambda: complex_bank(prior, num_samples, 1234), num_samples) > bound


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("activation", (0.0, 0.2, 1.0))
@pytest.mark.parametrize(
    "num_samples", (2, turbo._BLOCK - 1, turbo._BLOCK, turbo._BLOCK + 1, 200_000)
)
def test_blocked_mmse_matches_the_one_shot_evaluation(variant, activation, num_samples):
    # the block walk changes only where each draw's variance is computed, so
    # the estimate keeps every bit
    sampler = MmseSampler(ScalarPrior(variant=variant, activation=activation), num_samples, seed=3)
    for eta in np.logspace(-8.0, 6.0, 8):
        assert sampler(eta) == mmse_unblocked(sampler, eta), eta


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("activation", (0.0, 0.2, 1.0))
def test_posterior_variance_matches_the_complex_oracle(variant, activation):
    # The oracle forms the variance as E|m|^2 - |E m|^2 with |m|^2 up to
    # |r|^2, so it carries an absolute error of a few ulps of |r|^2, about
    # 1e-10 of the variance at eta = 1e6; the package's |r|^2 from the real
    # bank rounds within ulps of |g|^2 + tau |n|^2.  Each draw may therefore
    # differ by 16 ulps of |g|^2 + tau |n|^2 + var, and the mean by the mean
    # of that bound.
    prior = ScalarPrior(variant=variant, activation=activation)
    sampler = MmseSampler(prior, num_samples=20_000, seed=7)
    ref = ComplexMmseSampler(prior, num_samples=20_000, seed=7)
    eps = np.finfo(float).eps
    for eta in np.logspace(-8.0, 6.0, 15):
        tau = 1.0 / eta
        r = ref.gains + ref.noise * math.sqrt(tau)
        _, var_ref, _ = posterior_moments_mixture(r, tau, activation, ref.vlarge, sampler.v_small)
        var = posterior_variance_mixture(
            np.abs(r) ** 2, tau, activation, ref.vlarge, sampler.v_small
        )
        bound = 16.0 * eps * (np.abs(ref.gains) ** 2 + tau * np.abs(ref.noise) ** 2 + var_ref)
        assert np.all(np.abs(var - var_ref) <= bound), eta
        assert abs(sampler(eta) - ref(eta)) <= bound.mean(), eta


@pytest.mark.parametrize("lam", (0.0, 0.3, 1.0))
def test_posterior_variance_accepts_lists_and_integer_arrays(lam):
    r_sq = [0.0, 0.5, 4.0]
    want = posterior_variance_mixture(np.array(r_sq), 0.5, lam, np.array([1.0, 2.0, 3.0]), 0.0)
    for v_large in ([1, 2, 3], np.array([1, 2, 3])):
        got = posterior_variance_mixture(r_sq, 0.5, lam, v_large, 0)
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        posterior_variance_mixture(r_sq, 0.5, lam, 2, 0),
        posterior_variance_mixture(np.array(r_sq), 0.5, lam, 2.0, 0.0),
    )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("activation", (0.0, 1.0))
@pytest.mark.parametrize("snr_db", (20.0, math.inf))
def test_state_evolution_at_the_activation_edges(monkeypatch, variant, activation, snr_db):
    # an all-quiet or all-active prior, run once with the package's sampler
    # and once with the complex reference on the same bank
    prior = ScalarPrior(variant=variant, activation=activation)

    def outcome():
        try:
            trace = run_state_evolution(prior, snr_db, 64, 51, num_samples=20_000, seed=5)
        except SeUndefinedError as err:
            return str(err), err.iteration
        return np.array(trace.rows), trace.converged

    got = outcome()
    monkeypatch.setattr(turbo, "MmseSampler", ComplexMmseSampler)
    want = outcome()
    if isinstance(want[0], str):
        # a Bernoulli-Gaussian prior that is never active has zero power
        assert (variant, activation) == (VARIANT_BG, 0.0)
        assert got == want
        return
    assert got[1] == want[1]
    assert got[0].shape == want[0].shape
    np.testing.assert_allclose(got[0], want[0], rtol=1e-10, atol=0.0)


def test_state_evolution_rejects_nan_snr():
    # NaN used to reach the sampler and fail in iteration 1 as mmse = nan
    with pytest.raises(ValueError, match="snr_db"):
        run_state_evolution(ScalarPrior(), math.nan, 64, 51, num_samples=1000)


@pytest.mark.parametrize("N, M, match", [
    (8, 0, "M=0, N=8"),      # ended in ZeroDivisionError
    (8, -1, "M=-1, N=8"),
    (8, 9, "M=9, N=8"),      # blamed the map: "SE map undefined at the linear stage"
    (0, 0, "N=0"),
    (0, 1, "N=0"),
    (-2, 1, "N=-2"),
])
def test_state_evolution_rejects_sizes_outside_one_to_n(N, M, match):
    # M = N stays valid input: test_se_map_undefined's noiseless case
    with pytest.raises(ValueError, match=match):
        run_state_evolution(ScalarPrior(), 10.0, N, M, num_samples=1000)


def test_state_evolution_rejects_minus_inf_snr():
    prior = ScalarPrior(variant=VARIANT_LVD)
    with pytest.raises(ValueError, match="-inf"):
        run_state_evolution(prior, -math.inf, 64, 51, num_samples=1000)
    trace = run_state_evolution(prior, math.inf, 64, 51, max_iters=3, num_samples=1000)
    assert len(trace.rows) == 3 and all(math.isfinite(row[1]) for row in trace.rows)


def test_state_evolution_rejects_a_sampler_built_for_another_prior():
    # the noise power comes from `prior` and the bank from `sampler.prior`
    prior = ScalarPrior(variant=VARIANT_TSGM)
    other = ScalarPrior(variant=VARIANT_TSGM, activation=0.3)
    sampler = MmseSampler(other, num_samples=1000, seed=3)
    with pytest.raises(ValueError, match="activation=0.3.*activation=0.2"):
        run_state_evolution(prior, 10.0, 64, 51, sampler=sampler)
    # an equal prior built separately matches, and gives the run that
    # draws its own bank from the same seed
    shared = run_state_evolution(
        prior, 10.0, 64, 51, sampler=MmseSampler(ScalarPrior(variant=VARIANT_TSGM), 1000, 3)
    )
    own = run_state_evolution(prior, 10.0, 64, 51, num_samples=1000, seed=3)
    assert shared.rows == own.rows and shared.converged == own.converged


def test_state_evolution_fixed_points_decrease_with_snr():
    fixed = []
    for snr in (10.0, 20.0, 30.0):
        trace = run_state_evolution(
            ScalarPrior(), snr, 512, 410, num_samples=20_000, seed=13
        )
        assert trace.converged
        assert len(trace.rows) <= 100
        for _, v, eta, pred in trace.rows:
            assert v > 0 and eta > 0 and pred > 0
        fixed.append(trace.fixed_point_nmse)
    assert fixed[0] > fixed[1] > fixed[2]


def test_state_evolution_low_snr_prior_variance():
    trace = run_state_evolution(
        ScalarPrior(), -60.0, 512, 410, num_samples=20_000, seed=15
    )
    assert trace.converged
    assert trace.rows[-1][1] == pytest.approx(0.208, rel=0.02)
    assert trace.fixed_point_nmse == pytest.approx(1.0, rel=0.02)


def test_state_evolution_starts_at_the_prior_power():
    prior = ScalarPrior()
    sigma2 = prior.mean_power() / 100.0
    trace = run_state_evolution(prior, 20.0, 512, 410, num_samples=5000, seed=17)
    assert trace.rows[0][2] == linear_stage_eta(prior.mean_power(), sigma2, 512, 410)


def test_state_evolution_deterministic():
    a = run_state_evolution(ScalarPrior(), 20.0, 512, 410, num_samples=5000, seed=19)
    b = run_state_evolution(ScalarPrior(), 20.0, 512, 410, num_samples=5000, seed=19)
    assert a.rows == b.rows and a.converged == b.converged


def test_se_tracks_simulated_variance_trajectory():
    # The scalar recursion models a memoryless support and fixed
    # hyperparameters, so the matched simulation uses p10 + p01 = 1
    # (which makes the chain i.i.d.) and re-initialized beliefs; the
    # average module-B prior variance then self-averages onto the
    # predicted trajectory at N = 512.
    N, M, trials = 512, 410, 50
    prior = ScalarPrior()
    for snr in (10.0, 20.0, 30.0):
        se = run_state_evolution(
            prior, snr, N, M, max_iters=10, tol=0.0, num_samples=200_000, seed=42
        )
        se_v_b_pri = np.array([1.0 / row[2] for row in se.rows])
        sims = np.zeros((trials, 10))
        for t in range(trials):
            root = np.random.SeedSequence(2000 + t)
            s_sup, s_gain, s_pilot, s_noise = root.spawn(4)
            support = sample_support(N, 0.2, 0.8, rng_seed=s_sup)
            channel = sample_channel(support, 1, rng_seed=s_gain)
            pilots = make_pilot_set(N, M, 1, rng_seed=s_pilot)
            meas = synthesize_measurements(channel, pilots, snr, rng_seed=s_noise)
            _, trace = run_turbo(
                meas,
                pilots,
                algo(max_iters=10, early_stop=False, reset_beliefs=True),
                truth=channel.gains,
            )
            sims[t] = [v[0] for v in trace.v_a_ext]
        rel = np.abs(sims.mean(axis=0) - se_v_b_pri) / se_v_b_pri
        assert rel.max() <= 0.05
