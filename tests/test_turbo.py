import math

import numpy as np
import pytest

from oracles import (
    ComplexMmseSampler,
    FancyIndexPilotSet,
    denoise_complex,
    lmmse_update_out_of_place,
    mmse_oracle,
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
    MmseSampler,
    SeUndefinedError,
    linear_stage_eta,
    nmse,
    run_state_evolution,
    run_turbo,
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


def test_nmse_zero_truth_error():
    with pytest.raises(ValueError, match="all-zero truth"):
        nmse(np.ones((2, 2)), np.zeros((2, 2)))


def test_to_db():
    assert to_db(1.0) == 0.0
    assert to_db(0.01) == pytest.approx(-20.0, abs=1e-12)
    assert to_db(0.0) == pytest.approx(-3000.0)


# ---------------------------------------------------------------------------
# turbo loop


def test_noiseless_full_pilots_one_iteration():
    N = P = 16
    root = np.random.SeedSequence(5)
    s_support, s_gain, s_pilot = root.spawn(3)
    support = sample_support(N, 0.05, 0.20, rng_seed=s_support)
    channel = sample_channel(support, P, rng_seed=s_gain)
    pilots = make_pilot_set(N, N, P, rng_seed=s_pilot)
    meas = synthesize_measurements(channel, pilots, np.inf)
    _, trace = run_turbo(meas, pilots, algo(max_iters=1), truth=channel.gains)
    assert trace.nmse[0] < 1e-20


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
        h_ref, ref = run_turbo_per_subcarrier(meas, list(pilots), cfg, truth=truth)
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
    return lmmse_update_out_of_place(y, FancyIndexPilotSet(pilots), h_pri, v_pri, sigma2)


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


def test_run_turbo_stacks_a_list_of_pilot_operators():
    meas, pilots, truth = make_sim(32, 13, 3, 20.0, seed=12)
    cfg = algo(max_iters=4)
    h_set, t_set = run_turbo(meas, pilots, cfg, truth=truth)
    h_list, t_list = run_turbo(meas, list(pilots), cfg, truth=truth)
    assert np.array_equal(h_set, h_list) and t_set.nmse == t_list.nmse
    with pytest.raises(ValueError):
        run_turbo(meas, list(pilots)[:2], cfg, truth=truth)


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
    base = np.random.default_rng(0).standard_normal((64, 4)) + 0j
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
    assert np.array_equal(h, base * np.exp(0.3j * 8))
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


def test_non_finite_measurements_abort():
    meas, pilots, truth = make_sim(32, 13, 2, 20.0, seed=31)
    meas.Y[0, 0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError, match="iteration 1"):
            run_turbo(meas, pilots, algo(max_iters=4), truth=truth)


# ---------------------------------------------------------------------------
# state evolution


def test_linear_stage_eta_value():
    assert linear_stage_eta(1.0, 0.25, 2, 1) == pytest.approx(1.0 / 1.5, abs=1e-15)


def test_se_step_algebra():
    eta, m, v_next = se_step(1.0, 0.25, 2, 1, lambda e: (0.3, 0.0))
    assert eta == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m == 0.3
    assert v_next == pytest.approx(1.0 / (1.0 / 0.3 - 2.0 / 3.0), abs=1e-15)


@pytest.mark.parametrize("mmse", (0.0, -1e-3, math.nan, math.inf))
def test_se_step_rejects_a_non_positive_or_non_finite_mmse(mmse):
    with pytest.raises(SeUndefinedError, match="denoiser stage"):
        se_step(1.0, 0.25, 2, 1, lambda e: (mmse, 0.0))


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
    for eta in (0.5, 2.0, 10.0):
        est, stderr = mmse_oracle(eta, prior, num_samples=20_000, seed=7)
        assert abs(est - 1.0 / (1.0 + eta)) <= 3.0 * stderr + 1e-12


def test_mmse_limits_and_monotonicity():
    prior = ScalarPrior()
    assert prior.mean_power() == pytest.approx(0.208, abs=1e-12)
    low, _ = mmse_oracle(1e-8, prior, num_samples=200_000, seed=9)
    assert abs(low - 0.208) < 3e-3
    high, _ = mmse_oracle(1e8, prior, num_samples=20_000, seed=9)
    assert high < 1e-6
    mid1, _ = mmse_oracle(0.1, prior, num_samples=20_000, seed=9)
    mid2, _ = mmse_oracle(10.0, prior, num_samples=20_000, seed=9)
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


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("activation", (0.0, 0.2, 1.0))
@pytest.mark.parametrize(
    "num_samples", (2, turbo._BLOCK - 1, turbo._BLOCK, turbo._BLOCK + 1, 200_000)
)
def test_blocked_mmse_matches_the_one_shot_evaluation(variant, activation, num_samples):
    # the block walk changes only where each draw's variance is computed, so
    # the estimate and its standard error keep every bit
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
    # differ by 16 ulps of |g|^2 + tau |n|^2 + var, the mean by the mean of
    # that bound and the standard error by its maximum over sqrt(n).
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
        est, stderr = sampler(eta)
        est_ref, stderr_ref = ref(eta)
        assert abs(est - est_ref) <= bound.mean(), eta
        assert abs(stderr - stderr_ref) <= bound.max() / math.sqrt(var.size) + 1e-12 * stderr_ref


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


def test_state_evolution_rejects_minus_inf_snr():
    prior = ScalarPrior(variant=VARIANT_LVD)
    with pytest.raises(ValueError, match="-inf"):
        run_state_evolution(prior, -math.inf, 64, 51, num_samples=1000)
    trace = run_state_evolution(prior, math.inf, 64, 51, max_iters=3, num_samples=1000)
    assert len(trace.rows) == 3 and all(math.isfinite(row[1]) for row in trace.rows)


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


def test_state_evolution_v_init_first_step():
    prior = ScalarPrior()
    sigma2 = prior.mean_power() / 100.0
    trace = run_state_evolution(
        prior, 20.0, 512, 410, num_samples=5000, seed=17, v_init=0.05
    )
    assert trace.rows[0][2] == linear_stage_eta(0.05, sigma2, 512, 410)


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
