import math

import numpy as np
import pytest

from oracles import (
    FancyIndexPilotSet,
    GaussianMsg,
    dense_lmmse,
    dense_lmmse_measurement_form,
    extrinsic_split_columnwise,
    PilotMatrix,
    gaussian_multiply,
    lmmse_update_out_of_place,
    make_pdft_rp,
    roundtrip_error_columns,
    stack_pilots,
    unstack_pilots,
)
from hmpce.channels import (
    make_pilot_set,
    sample_channel,
    sample_support,
    synthesize_measurements,
)
from hmpce.lmmse import extrinsic_split, lmmse_update
from hmpce.priors import VARIANT_LVD, ScalarPrior


def _identity_pilot():
    return stack_pilots(
        [PilotMatrix(1, 1, np.array([0]), np.array([0]), np.ones(1, dtype=complex))]
    )


def test_scalar_wiener_filter():
    h_post, v_post = lmmse_update(
        np.array([[2.0 + 0.0j]]), _identity_pilot(), np.zeros((1, 1), dtype=complex),
        np.ones(1), 1.0,
    )
    assert h_post[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert v_post[0] == pytest.approx(0.5, abs=1e-14)


def test_uninformative_measurement_returns_prior():
    rng = np.random.default_rng(2)
    pilots = stack_pilots([make_pdft_rp(32, 13, rng_seed=0)])
    h_pri = (rng.standard_normal(32) + 1j * rng.standard_normal(32))[:, None]
    y = (rng.standard_normal(13) + 1j * rng.standard_normal(13))[:, None]
    h_post, v_post = lmmse_update(y, pilots, h_pri, np.ones(1), 1e12)
    assert np.max(np.abs(h_post - h_pri)) < 1e-10
    assert v_post[0] == pytest.approx(1.0, rel=1e-10)


def test_input_guards():
    pilots = _identity_pilot()
    y = np.zeros((1, 1), dtype=complex)
    with pytest.raises(ValueError):
        lmmse_update(y, pilots, y, np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        lmmse_update(y, pilots, y, np.ones(1), -0.5)


@pytest.mark.parametrize("v_pri", [math.nan, math.inf])
def test_rejects_a_prior_variance_that_is_not_finite(v_pri):
    # unchecked, a NaN surfaces only as a non-finite turbo state after a
    # whole iteration
    y = np.zeros((1, 1), dtype=complex)
    with pytest.raises(ValueError, match="prior variance must be positive and finite"):
        lmmse_update(y, _identity_pilot(), y, np.array([v_pri]), 1.0)


def test_rejects_a_nan_noise_variance():
    y = np.zeros((1, 1), dtype=complex)
    with pytest.raises(ValueError, match="noise variance"):
        lmmse_update(y, _identity_pilot(), y, np.ones(1), math.nan)


def test_noiseless_determined_system_floors_variance():
    pilots = stack_pilots([make_pdft_rp(16, 16, rng_seed=1)])
    rng = np.random.default_rng(3)
    h = (rng.standard_normal(16) + 1j * rng.standard_normal(16))[:, None]
    h_post, v_post = lmmse_update(
        pilots.apply(h), pilots, np.zeros((16, 1), complex), np.ones(1), 0.0
    )
    assert np.max(np.abs(h_post - h)) < 1e-12
    assert 0.0 < v_post[0] <= 1e-30


def test_matches_dense_oracles():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pilots = stack_pilots([make_pdft_rp(32, 13, rng_seed=int(rng.integers(1 << 31)))])
        A = pilots.matrix[0]
        v_pri = float(rng.uniform(0.1, 3.0))
        sigma2 = float(rng.uniform(0.01, 1.0))
        h_pri = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        y = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        h_post, v_post = lmmse_update(
            y[:, None], pilots, h_pri[:, None], np.array([v_pri]), sigma2
        )
        h_post, v_post = h_post[:, 0], v_post[0]
        h_ref, v_ref = dense_lmmse_measurement_form(y, A, h_pri, v_pri, sigma2)
        assert np.max(np.abs(h_post - h_ref)) < 1e-8
        assert abs(v_post - v_ref) < 1e-8
        h_inf, v_inf = dense_lmmse(y, A, h_pri, v_pri, sigma2)
        assert np.max(np.abs(h_post - h_inf)) < 1e-8
        assert abs(v_post - v_inf) < 1e-8


@pytest.mark.parametrize("N, M, P", [(32, 13, 6), (32, 13, 1), (16, 16, 4)])
def test_batched_update_matches_per_subcarrier(N, M, P):
    pilots = make_pilot_set(N, M, P, rng_seed=P)
    rng = np.random.default_rng(N + P)
    H_pri = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    Y = rng.standard_normal((M, P)) + 1j * rng.standard_normal((M, P))
    v_pri = rng.uniform(0.1, 3.0, P)
    H_post, v_post = lmmse_update(Y, pilots, H_pri, v_pri, 0.05)
    assert H_post.shape == (N, P) and v_post.shape == (P,)
    for p, pilot in enumerate(unstack_pilots(pilots)):
        h_ref, v_ref = lmmse_update(
            Y[:, p:p + 1], stack_pilots([pilot]), H_pri[:, p:p + 1], v_pri[p:p + 1], 0.05
        )
        assert np.max(np.abs(H_post[:, p] - h_ref[:, 0])) < 1e-12
        assert v_post[p] == v_ref[0]
    with pytest.raises(ValueError):
        lmmse_update(Y, pilots, H_pri, np.where(np.arange(P) == 0, 0.0, v_pri), 0.05)


@pytest.mark.parametrize("bad", [-1e-3, math.nan])
def test_update_takes_one_noise_variance_per_column(bad):
    # a per-column sigma2 gives each column the update of its own scalar;
    # a negative or NaN entry raises the scalar's ValueError
    N, M, P = 32, 13, 4
    pilots = make_pilot_set(N, M, P, rng_seed=3)
    rng = np.random.default_rng(3)
    H_pri = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    Y = rng.standard_normal((M, P)) + 1j * rng.standard_normal((M, P))
    v_pri = rng.uniform(0.1, 3.0, P)
    sigma2 = np.array([0.05, 0.0, 0.3, 0.05])
    H_post, v_post = lmmse_update(Y, pilots, H_pri, v_pri, sigma2)
    for p, s2 in enumerate(sigma2):
        h_ref, v_ref = lmmse_update(Y, pilots, H_pri, v_pri, float(s2))
        assert np.array_equal(H_post[:, p], h_ref[:, p]) and v_post[p] == v_ref[p]
    sigma2[2] = bad
    with pytest.raises(ValueError, match="noise variance must be non-negative"):
        lmmse_update(Y, pilots, H_pri, v_pri, sigma2)
    with pytest.raises(ValueError, match="noise variance must be non-negative"):
        lmmse_update(Y, pilots, H_pri, v_pri, bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("clamp_cols, huge", [
    ([], False), ([1], False), ([0, 1, 2], False), ([4, 7], False), ([0, 1, 2], True),
])
def test_extrinsic_split_checks_each_member_alone(clamp_cols, huge):
    # on a (B, N, P) stack each member's message and round-trip error are
    # those of its (N, P) block alone; a member whose columns are all
    # clamped is checked on nothing, even where its columns hold a 1e300
    # entry, with every warning an error
    members, P = 3, 3
    rng = np.random.default_rng(len(clamp_cols))
    h_post, v_post, h_pri, v_pri = _split_case(rng, 64, members * P, clamp_cols, False)
    if huge:
        h_post[5, 1] = 1e300
    args = [np.stack(np.split(x, members, axis=-1)) for x in (h_post, v_post, h_pri, v_pri)]
    split = extrinsic_split(*args)
    assert split[3].shape == (members,)
    for b in range(members):
        alone = extrinsic_split(*(x[b] for x in args))
        assert alone[3].shape == ()
        for got, want in zip(split, alone):
            assert np.array_equal(got[b], want)
    # each member's mean error is relative to its own max |h_post|, at most
    # the whole array's
    assert max(split[3]) >= extrinsic_split(h_post, v_post, h_pri, v_pri)[3]
    with pytest.raises(ValueError, match=r"\(\.\.\., N, P\) means"):
        extrinsic_split(args[0], args[1][:, :2], args[2], args[3])
    with pytest.raises(ValueError, match=r"\(\.\.\., N, P\) means"):
        extrinsic_split(h_post[:, 0], v_post[0], h_pri[:, 0], v_pri[0])


def test_extrinsic_variance_value():
    h_ext, v_ext, clamped, _ = extrinsic_split(
        np.array([[1.0 + 0.0j]]), np.array([0.5]), np.array([[0.0 + 0.0j]]), np.array([1.0])
    )
    assert v_ext[0] == pytest.approx(1.0, abs=1e-14)
    assert h_ext[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert not clamped[0]


def test_extrinsic_roundtrip_recovers_posterior():
    rng = np.random.default_rng(7)
    for _ in range(30):
        v_pri = float(rng.uniform(0.2, 3.0))
        v_post = v_pri * float(rng.uniform(0.05, 0.95))
        h_pri = complex(rng.standard_normal(), rng.standard_normal())
        h_post = complex(rng.standard_normal(), rng.standard_normal())
        h_ext, v_ext, clamped, err = extrinsic_split(
            np.array([[h_post]]), np.array([v_post]), np.array([[h_pri]]), np.array([v_pri])
        )
        assert not clamped[0]
        assert err < 1e-10
        back = gaussian_multiply(GaussianMsg(h_ext[0, 0], v_ext[0]), GaussianMsg(h_pri, v_pri))
        assert abs(back.mean - h_post) < 1e-10 * max(1.0, abs(h_post))
        assert abs(back.variance - v_post) < 1e-10 * v_post


def test_extrinsic_flat_prior_passthrough():
    rng = np.random.default_rng(9)
    h_post = (rng.standard_normal(8) + 1j * rng.standard_normal(8))[:, None]
    h_pri = (rng.standard_normal(8) + 1j * rng.standard_normal(8))[:, None]
    h_ext, v_ext, clamped, _ = extrinsic_split(h_post, np.array([0.4]), h_pri, np.array([1e14]))
    assert not clamped[0]
    assert v_ext[0] == pytest.approx(0.4, rel=1e-10)
    assert np.max(np.abs(h_ext - h_post)) < 1e-10


def test_extrinsic_clamps_when_uninformative():
    h_ext, v_ext, clamped, err = extrinsic_split(
        np.array([[1.0 + 0.0j]]), np.array([1.0]), np.array([[0.0 + 0.0j]]), np.array([1.0]),
    )
    assert clamped[0] and v_ext[0] == 1e8
    assert err == 0.0


def test_extrinsic_split_columns_with_clamped_columns():
    N, P, cap = 16, 6, 1e8
    rng = np.random.default_rng(12)
    h_post = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    h_pri = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    v_pri = rng.uniform(0.2, 3.0, P)
    v_post = v_pri * rng.uniform(0.05, 0.95, P)
    # columns 1 and 4 are uninformative; column 4 also carries a huge mean
    # that must not enter the round-trip scale
    v_post[[1, 4]] = v_pri[[1, 4]] * np.array([1.0, 1.5])
    h_post[:, 4] *= 1e12
    h_ext, v_ext, clamped, err = extrinsic_split(h_post, v_post, h_pri, v_pri)
    assert clamped.tolist() == [False, True, False, False, True, False]
    assert np.all(v_ext[clamped] == cap)
    for p in range(P):
        cols = slice(p, p + 1)
        col = extrinsic_split(h_post[:, cols], v_post[cols], h_pri[:, cols], v_pri[cols])
        assert np.array_equal(h_ext[:, p], col[0][:, 0])
        assert v_ext[p] == col[1][0] and clamped[p] == col[2][0]
    h_old = v_ext * (h_post / v_post - h_pri / v_pri)
    assert np.max(np.abs(h_ext - h_old)[:, ~clamped]) < 1e-12
    ref = roundtrip_error_columns(h_ext, v_ext, h_pri, v_pri, h_post, v_post, clamped)
    assert err < 1e-14 and ref < 1e-14
    keep = ~clamped
    kept = extrinsic_split(h_post[:, keep], v_post[keep], h_pri[:, keep], v_pri[keep])
    assert kept[3] == err > 0.0
    everything = extrinsic_split(h_post, v_pri, h_pri, v_pri)
    assert np.all(everything[2]) and everything[3] == 0.0


def _split_case(rng, N, P, clamp_cols, scalar_var):
    h_post = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    h_pri = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    h_post *= rng.uniform(0.01, 100.0, P)
    if scalar_var:
        # one variance shared by every column
        v_pri = np.full(P, float(rng.uniform(0.2, 3.0)))
        v_post = v_pri * float(rng.uniform(0.05, 0.95))
    else:
        v_pri = rng.uniform(0.2, 3.0, P)
        v_post = v_pri * rng.uniform(0.05, 0.95, P)
        v_post[clamp_cols] = v_pri[clamp_cols] * rng.uniform(1.0, 2.0, len(clamp_cols))
    return h_post, v_post, h_pri, v_pri


@pytest.mark.parametrize("N, P", [(1, 1), (7, 3), (2048, 8), (256, 128)])
@pytest.mark.parametrize("scalar_var", [False, True])
def test_roundtrip_error_equals_the_columnwise_form_bit_for_bit(N, P, scalar_var):
    # the round-trip maxima over the kept columns as one full-array
    # reduction give the bits of per-column maxima followed by a mask
    rng = np.random.default_rng([N, P, scalar_var])
    for trial in range(8):
        clamp_cols = [] if scalar_var else sorted(
            set(rng.integers(0, P, size=trial % 3).tolist())
        )
        args = _split_case(rng, N, P, clamp_cols, scalar_var)
        for one_column in (False, True):
            if one_column:
                h_post, v_post, h_pri, v_pri = args
                cases = [(h_post[:, p:p + 1], v_post[p:p + 1], h_pri[:, p:p + 1],
                          v_pri[p:p + 1]) for p in range(P)]
            else:
                cases = [args]
            for case in cases:
                got = extrinsic_split(*case)
                ref = extrinsic_split_columnwise(*case)
                assert np.array_equal(got[0], ref[0])
                assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])
                assert got[3] == ref[3]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_clamped_column_never_reaches_the_roundtrip_error(bad):
    rng = np.random.default_rng(13)
    h_post, v_post, h_pri, v_pri = _split_case(rng, 64, 5, [1, 3], False)
    _, _, clamped, err = extrinsic_split(h_post, v_post, h_pri, v_pri)
    assert clamped.tolist() == [False, True, False, True, False] and err > 0.0
    h_post[5, 1] = bad
    h_post[:, 3] = complex(bad, 0.0)
    with np.errstate(invalid="ignore"):
        got = extrinsic_split(h_post, v_post, h_pri, v_pri)
        ref = extrinsic_split_columnwise(h_post, v_post, h_pri, v_pri)
    assert got[3] == err == ref[3]


# ---------------------------------------------------------------------------
# module A against its out-of-place, fancy-index oracle

MODULE_A_SIZES = [(2, 1, 1), (32, 13, 8), (256, 103, 128), (64, 63, 3)]


def _module_a_inputs(N, M, P, seed):
    """A pilot set, H (N, P), Y (M, P), prior variances (P,) and a module-A
    posterior with its first column made uninformative, so it clamps."""
    pilots = make_pilot_set(N, M, P, rng_seed=seed)
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    Y = rng.standard_normal((M, P)) + 1j * rng.standard_normal((M, P))
    v_pri = rng.uniform(0.1, 3.0, P)
    h_post, v_post = lmmse_update(Y, pilots, H, v_pri, 0.05)
    v_post[0] = v_pri[0]
    return pilots, H, Y, v_pri, h_post, v_post


def _within_1e15(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("N, M, P", MODULE_A_SIZES)
def test_module_a_matches_the_out_of_place_oracle(N, M, P):
    pilots, H, Y, v_pri, *_ = _module_a_inputs(N, M, P, seed=N + M + P)
    ref = FancyIndexPilotSet(pilots)
    _within_1e15(pilots.apply(H), ref.apply(H))
    _within_1e15(pilots.apply(H.real), ref.apply(H.real))
    _within_1e15(pilots.adjoint(Y), ref.adjoint(Y))
    got = lmmse_update(Y, pilots, H, v_pri, 0.05)
    want = lmmse_update_out_of_place(Y, ref, H, v_pri, 0.05)
    _within_1e15(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def _module_a_outputs(pilots, H, Y, v_pri, h_post, v_post):
    return (
        pilots.apply(H),
        pilots.adjoint(Y),
        *lmmse_update(Y, pilots, H, v_pri, 0.05),
        *extrinsic_split(h_post, v_post, H, v_pri),
    )


@pytest.mark.parametrize("layout", ["F", "strided"])
def test_module_a_takes_any_memory_layout(layout):
    inputs = _module_a_inputs(32, 13, 8, seed=4)
    pilots, arrays = inputs[0], inputs[1:]

    def relaid(x):
        if layout == "F":
            return np.asfortranarray(x)
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), x.dtype)
        wide[..., ::2] = x
        return wide[..., ::2]

    want = _module_a_outputs(pilots, *arrays)
    got = _module_a_outputs(pilots, *(relaid(x) for x in arrays))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_module_a_writes_to_no_input():
    pilots, *arrays = _module_a_inputs(32, 13, 8, seed=6)
    # measurements as synthesis leaves them: noise added into apply's output
    noise = arrays[1]
    arrays[1] = pilots.apply(arrays[0])
    arrays[1] += noise
    fields = (pilots.gather, pilots.select, pilots.phases)
    saved = [x.copy() for x in (*arrays, *fields)]
    _module_a_outputs(pilots, *arrays)
    for x, before in zip((*arrays, *fields), saved):
        assert np.array_equal(x, before)


@pytest.mark.parametrize("N, M, P", MODULE_A_SIZES)
def test_pilot_set_adjoint_identity_per_column(N, M, P):
    pilots, H, Y, *_ = _module_a_inputs(N, M, P, seed=N * M + P)
    lhs = np.sum(np.conj(Y) * pilots.apply(H), axis=0)     # <A H, Y>
    rhs = np.sum(np.conj(pilots.adjoint(Y)) * H, axis=0)   # <H, A^H Y>
    scale = np.linalg.norm(H, axis=0) * np.linalg.norm(Y, axis=0)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_extrinsic_error_concentrates_on_se_map():
    # one module-A pass from the zero prior: the measured extrinsic error
    # power should match 1/eta with eta = 1/((N/M)(v+s2) - v)
    N, M, trials, snr_db = 256, 103, 100, 20.0
    prior = ScalarPrior(VARIANT_LVD)
    v = prior.mean_power()
    sigma2 = v / 10.0 ** (snr_db / 10.0)
    eta = 1.0 / ((N / M) * (v + sigma2) - v)
    err_power = []
    for trial in range(trials):
        support = sample_support(N, rng_seed=1000 + trial)
        channel = sample_channel(support, P=1, rng_seed=2000 + trial)
        pilots = stack_pilots([make_pdft_rp(N, M, rng_seed=3000 + trial)])
        rng = np.random.default_rng(4000 + trial)
        noise = math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(M) + 1j * rng.standard_normal(M)
        )
        truth = channel.gains
        y = pilots.apply(truth) + noise[:, None]
        zeros = np.zeros((N, 1), complex)
        h_post, v_post = lmmse_update(y, pilots, zeros, np.full(1, v), sigma2)
        h_ext, v_ext, _, _ = extrinsic_split(h_post, v_post, zeros, np.full(1, v))
        assert v_ext[0] == pytest.approx(1.0 / eta, rel=1e-10)
        err_power.append(float(np.mean(np.abs(h_ext - truth) ** 2)))
    assert float(np.mean(err_power)) == pytest.approx(1.0 / eta, rel=0.05)


def test_posterior_error_orthogonal_to_residual():
    N, M, trials = 64, 26, 200
    prior = ScalarPrior(VARIANT_LVD)
    v = prior.mean_power()
    sigma2 = v / 10.0
    inner = []
    for trial in range(trials):
        support = sample_support(N, rng_seed=trial)
        channel = sample_channel(support, P=1, rng_seed=trial + 1)
        pilots = stack_pilots([make_pdft_rp(N, M, rng_seed=trial + 2)])
        rng = np.random.default_rng(trial + 3)
        noise = math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(M) + 1j * rng.standard_normal(M)
        )
        truth = channel.gains
        y = pilots.apply(truth) + noise[:, None]
        h_post, _ = lmmse_update(y, pilots, np.zeros((N, 1), complex), np.full(1, v), sigma2)
        err = h_post - truth
        residual = y - pilots.apply(h_post)
        inner.append(np.vdot(pilots.adjoint(residual), err) / N)
    inner = np.asarray(inner)
    for comp in (inner.real, inner.imag):
        stderr = comp.std(ddof=1) / math.sqrt(trials)
        assert abs(comp.mean()) <= 3.0 * stderr
