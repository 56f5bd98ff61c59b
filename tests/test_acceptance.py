"""Acceptance gate for the estimator stack.

Every test prints a single pass/fail line with the measured numbers, so the
whole gate can be read off `pytest tests/test_acceptance.py -s`.  Runtime
budgets are asserted together with the numeric tolerances.  The high-SNR
comparison runs are shared between the prior-model-gain check, the
round-trip check, and the early-iteration monotonicity check.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from graphgen import random_hybrid_graph, random_tree_graph
from oracles import (
    chain_enumeration,
    dense_lmmse_measurement_form,
    make_pdft_rp,
    stack_pilots,
    step_inputs,
)
from hmpce.channels import (
    make_pilot_set,
    sample_channel,
    sample_support,
    synthesize_measurements,
)
from hmpce.cli import main as cli_main
from hmpce.denoiser import (
    PriorConfig,
    forward_pass,
    init_state,
    update_transition_beliefs,
)
from hmpce.factorgraph import exact_marginals, stretched_graph_equivalence_check
from hmpce.lmmse import lmmse_update
from hmpce.priors import VARIANT_BG, VARIANT_LVD, ScalarPrior
from hmpce.turbo import AlgoConfig, run_state_evolution, run_turbo, to_db


def report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _algo(variant, **kw):
    init = ScalarPrior(variant=variant).mean_power()
    return AlgoConfig(
        name=variant, prior=PriorConfig(variant=variant), init_variance=init, **kw
    )


def _make_sim(N, M, P, snr_db, seed):
    root = np.random.SeedSequence(seed)
    s_support, s_gain, s_pilot, s_noise = root.spawn(4)
    support = sample_support(N, 0.05, 0.20, rng_seed=s_support)
    channel = sample_channel(
        support, P, vL_spread=(0.1, 10.0), vS=100.0, rng_seed=s_gain
    )
    pilots = make_pilot_set(N, M, P, rng_seed=s_pilot)
    meas = synthesize_measurements(channel, pilots, snr_db, rng_seed=s_noise)
    return meas, pilots, channel.gains


# ---------------------------------------------------------------------------
# 1. support-chain smoothing vs brute-force enumeration


def _psi_hat(x):
    return math.log(x) - 0.5 / x


def _beta_log_pair(a, b):
    tot = _psi_hat(a + b)
    return _psi_hat(a) - tot, _psi_hat(b) - tot


def test_criterion_1_markov_smoothing_exactness():
    cfg = PriorConfig()
    rng = np.random.default_rng(9001)
    N, P = 8, 2
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(50):
        state = init_state(N, P, cfg)
        # a one-member state: the Beta counts are (1,) arrays, and the
        # likelihoods and chain fields are read as member 0's blocks
        state.p10_a = np.array([rng.uniform(0.5, 3.0)])
        state.p10_b = np.array([rng.uniform(0.5, 3.0)])
        state.p01_a = np.array([rng.uniform(0.5, 3.0)])
        state.p01_b = np.array([rng.uniform(0.5, 3.0)])
        state.support_like = rng.uniform(0.05, 0.95, size=(1, N, P))

        ln_p10, ln_q10 = _beta_log_pair(state.p10_a[0], state.p10_b[0])
        ln_p01, ln_q01 = _beta_log_pair(state.p01_a[0], state.p01_b[0])
        first_w = np.array([math.exp(ln_q10), math.exp(ln_p10)])
        trans_w = np.array(
            [
                [math.exp(ln_q10), math.exp(ln_p10)],
                [math.exp(ln_p01), math.exp(ln_q01)],
            ]
        )
        loglike = np.stack(
            [
                np.log1p(-state.support_like[0]).sum(axis=1),
                np.log(state.support_like[0]).sum(axis=1),
            ],
            axis=1,
        )
        x = step_inputs(state, cfg)
        forward_pass(state, x.transitions, x.odds)
        update_transition_beliefs(state, x.transitions, x.llr)
        ref = chain_enumeration(first_w, trans_w, loglike)
        pair_cols = np.stack(
            [
                ref["pair"][:, 0, 0],
                ref["pair"][:, 1, 0],
                ref["pair"][:, 0, 1],
                ref["pair"][:, 1, 1],
            ],
            axis=1,
        )
        worst = max(
            worst,
            float(np.max(np.abs(state.fwd_filt[0] - ref["prefix_filt"][:, 1]))),
            float(np.max(np.abs(state.bwd_filt[0] - ref["suffix_filt"][:, 1]))),
            abs(state.first_active_belief[0] - ref["full"][0, 1]),
            float(np.max(np.abs(state.pair_belief[0].T - pair_cols))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(
        1,
        "support-chain smoothing vs enumeration",
        ok,
        f"max abs err {worst:.2e}, 50 instances, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 2. fast linear stage vs dense solve


def test_criterion_2_lmmse_oracle_equivalence():
    rng = np.random.default_rng(9002)
    N, M = 32, 13
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        # the estimator's operator: a P = 1 set of one per-subcarrier draw
        pilots = stack_pilots([make_pdft_rp(N, M, rng_seed=int(rng.integers(1 << 31)))])
        v_pri = float(rng.uniform(0.1, 3.0))
        sigma2 = float(rng.uniform(0.01, 1.0))
        h_pri = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        h_post, v_post = lmmse_update(
            y[:, None], pilots, h_pri[:, None], np.array([v_pri]), sigma2
        )
        h_ref, v_ref = dense_lmmse_measurement_form(y, pilots.matrix[0], h_pri, v_pri, sigma2)
        worst = max(
            worst,
            float(np.max(np.abs(h_post[:, 0] - h_ref))),
            abs(float(v_post[0]) - v_ref),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    report(
        2,
        "linear stage vs dense solve",
        ok,
        f"max abs err {worst:.2e}, 100 instances, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 3. message-rule degeneracy and stretched-graph equivalence


def test_criterion_3_hybrid_rule_reductions():
    rng = np.random.default_rng(9003)
    worst_bp = 0.0
    worst_stretch = 0.0
    t0 = time.perf_counter()
    for _ in range(20):
        g = random_tree_graph(rng)
        g.run(max_sweeps=200, tol=1e-12)
        exact = exact_marginals(g)
        for name, probs in exact.items():
            worst_bp = max(
                worst_bp, float(np.max(np.abs(g.belief(name).probs - probs)))
            )
    for _ in range(20):
        g = random_hybrid_graph(rng)
        rep = stretched_graph_equivalence_check(g)
        worst_stretch = max(worst_stretch, rep["max_discrepancy"])
    elapsed = time.perf_counter() - t0
    ok = worst_bp < 1e-10 and worst_stretch < 1e-10 and elapsed < 10.0
    report(
        3,
        "all-sum-product reduction and stretched-graph equivalence",
        ok,
        f"bp err {worst_bp:.2e}, stretched err {worst_stretch:.2e}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 4. scalar recursion predicts the simulated NMSE trajectory


def test_criterion_4_state_evolution_agreement():
    N, M, P = 512, 410, 1
    trials, iters = 50, 10
    prior = ScalarPrior()
    t0 = time.perf_counter()
    worst_gap = 0.0
    for si, snr in enumerate((10.0, 20.0, 30.0)):
        se = run_state_evolution(
            prior, snr, N, M, max_iters=iters, tol=0.0, num_samples=200_000, seed=42
        )
        pred_db = np.array([to_db(row[3]) for row in se.rows])
        lin = np.empty((trials, iters))
        for t in range(trials):
            meas, pilots, gains = _make_sim(N, M, P, snr, seed=7000 + 100 * si + t)
            cfg = _algo(VARIANT_LVD, max_iters=iters, early_stop=False)
            _, trace = run_turbo(meas, pilots, cfg, truth=gains)
            lin[t] = trace.nmse
        sim_db = np.array([to_db(v) for v in lin.mean(axis=0)])
        worst_gap = max(worst_gap, float(np.max(np.abs(sim_db - pred_db))))
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1.0 and elapsed < 300.0
    report(
        4,
        "simulated NMSE vs scalar-recursion prediction",
        ok,
        f"max gap {worst_gap:.2f} dB over iterations 1..{iters}, "
        f"{trials} trials x 3 SNRs, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 5./6. high-SNR prior-model gain, with the round-trip identity checked
# inline on the very same runs


@pytest.fixture(scope="module")
def high_snr_runs():
    N, M, P, snr = 256, 103, 32, 30.0
    trials, iters = 100, 12
    lvd, bg = [], []
    t0 = time.perf_counter()
    for t in range(trials):
        meas, pilots, gains = _make_sim(N, M, P, snr, seed=50_000 + t)
        for variant, bucket in ((VARIANT_LVD, lvd), (VARIANT_BG, bg)):
            cfg = _algo(variant, max_iters=iters, early_stop=False)
            _, trace = run_turbo(meas, pilots, cfg, truth=gains)
            bucket.append(trace)
    return {"lvd": lvd, "bg": bg, "elapsed": time.perf_counter() - t0}


def test_criterion_5_high_snr_prior_model_gain(high_snr_runs):
    lvd_final = np.array([tr.nmse[-1] for tr in high_snr_runs["lvd"]])
    bg_final = np.array([tr.nmse[-1] for tr in high_snr_runs["bg"]])
    lvd_db = to_db(float(lvd_final.mean()))
    bg_db = to_db(float(bg_final.mean()))
    gain = bg_db - lvd_db
    elapsed = high_snr_runs["elapsed"]
    ok = gain >= 2.0 and elapsed < 600.0
    report(
        5,
        "per-element-variance prior vs flat spike-and-slab at 30 dB",
        ok,
        f"mean NMSE {lvd_db:.1f} vs {bg_db:.1f} dB, gain {gain:.1f} dB, "
        f"100 trials, {elapsed:.1f} s",
    )


def test_criterion_6_extrinsic_roundtrip_identity(high_snr_runs):
    worst = 0.0
    count = 0
    for key in ("lvd", "bg"):
        for tr in high_snr_runs[key]:
            worst = max(worst, max(tr.roundtrip_err))
            count += len(tr.roundtrip_err)
    ok = worst <= 1e-10
    report(
        6,
        "extrinsic round-trip identity on every iteration",
        ok,
        f"max rel err {worst:.2e} over {count} iterations",
    )


def test_early_iterations_decrease_in_most_trials(high_snr_runs):
    # companion check on the same runs: the NMSE trace of the structured
    # estimator drops through each of the first five iterations in at
    # least 90% of trials
    good = 0
    for tr in high_snr_runs["lvd"]:
        head = tr.nmse[:5]
        if all(b < a for a, b in zip(head, head[1:])):
            good += 1
    total = len(high_snr_runs["lvd"])
    print(f"[companion] monotone first-5-iteration decrease: {good}/{total} trials")
    assert good >= 0.9 * total


# ---------------------------------------------------------------------------
# 7. per-iteration cost grows log-linearly in N


def test_criterion_7_per_iteration_scaling():
    P, iters, reps = 32, 6, 5
    sizes = (256, 512, 1024)
    cfg = _algo(VARIANT_LVD, max_iters=iters, early_stop=False)
    sims = {}
    for N in sizes:
        M = round(N * 103 / 256)
        sims[N] = _make_sim(N, M, P, 30.0, seed=60_000 + N)
        meas, pilots, gains = sims[N]
        run_turbo(meas, pilots, cfg, truth=gains)  # warm-up
    # the sizes take turns within each repeat, so drift in host speed
    # spreads over all three instead of landing on one
    samples = {N: [] for N in sizes}
    for _ in range(reps):
        for N in sizes:
            meas, pilots, gains = sims[N]
            t0 = time.perf_counter()
            run_turbo(meas, pilots, cfg, truth=gains)
            samples[N].append((time.perf_counter() - t0) / iters)
    medians = {N: statistics.median(samples[N]) for N in sizes}
    r1 = medians[512] / medians[256]
    r2 = medians[1024] / medians[512]
    ok = r1 <= 2.6 and r2 <= 2.6
    report(
        7,
        "per-iteration wall time under doubling of N",
        ok,
        f"ratios {r1:.2f} (256 to 512) and {r2:.2f} (512 to 1024), "
        f"median of {reps}",
    )


# ---------------------------------------------------------------------------
# 8. identical seeds give identical output bytes


def test_criterion_8_cli_determinism(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("se_samples=20000\n", encoding="utf-8")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = [
        "--config", str(conf),
        "--N", "64", "--K", "64", "--P", "4", "--M", "26,48",
        "--snr", "10,20",
        "--algos", "hmp-tsgm-lvd,hmp-bg",
        "--trials", "2", "--iters", "4", "--seed", "11",
    ]
    t0 = time.perf_counter()
    assert cli_main(base + ["--out", str(out_a)]) == 0
    assert cli_main(base + ["--out", str(out_b)]) == 0
    elapsed = time.perf_counter() - t0
    names = sorted(os.listdir(out_a))
    assert sorted(os.listdir(out_b)) == names
    diffs = [
        name
        for name in names
        if (out_a / name).read_bytes() != (out_b / name).read_bytes()
    ]
    ok = not diffs and len(names) == 5
    report(
        8,
        "repeated CLI run is byte-identical",
        ok,
        f"{len(names)} files compared, diffs {diffs}, {elapsed:.1f} s",
    )
