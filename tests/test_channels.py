import math
import struct

import numpy as np
import pytest

from oracles import angle_transform
from hmpce.channels import (
    PilotMatrix,
    PilotSet,
    load_channel,
    make_pdft_rp,
    make_pilot_set,
    sample_channel,
    sample_support,
    save_channel,
    stationary_activation,
    synthesize_measurements,
)


def test_support_deterministic_limits():
    s = sample_support(16, p10=1.0 - 1e-12, p01=1.0 - 1e-12, rng_seed=3)
    assert np.array_equal(s, np.tile([1, 0], 8))
    s = sample_support(64, p10=1e-15, p01=0.2, rng_seed=5)
    assert not s.any()


def test_support_rejects_bad_probabilities():
    for p10, p01 in ((0.0, 0.2), (1.0, 0.2), (0.05, 0.0), (0.05, 1.5), (-0.1, 0.2)):
        with pytest.raises(ValueError):
            sample_support(8, p10=p10, p01=p01)


def test_support_transition_frequencies():
    p10, p01 = 0.05, 0.20
    s = sample_support(1_000_000, p10=p10, p01=p01, rng_seed=0).astype(bool)
    prev, nxt = s[:-1], s[1:]
    n0 = np.count_nonzero(~prev)
    n1 = np.count_nonzero(prev)
    f01 = np.count_nonzero(~prev & nxt) / n0
    f10 = np.count_nonzero(prev & ~nxt) / n1
    assert abs(f01 - p10) < 3.0 * math.sqrt(p10 * (1 - p10) / n0)
    assert abs(f10 - p01) < 3.0 * math.sqrt(p01 * (1 - p01) / n1)


def test_support_reproducible():
    a = sample_support(256, rng_seed=11)
    b = sample_support(256, rng_seed=11)
    c = sample_support(256, rng_seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_support_fraction_matches_stationary():
    lam = stationary_activation(0.05, 0.20)
    assert lam == pytest.approx(0.2)
    assert stationary_activation(0.0, 0.20) == 0.0
    total = 0
    count = 0
    for seed in range(2000):
        s = sample_support(500, rng_seed=seed)
        total += int(s.sum())
        count += s.size
    assert total / count == pytest.approx(lam, rel=0.02)


def test_quiet_channel_power():
    support = np.zeros(500, dtype=np.uint8)
    ch = sample_channel(support, P=200, vS=100.0, rng_seed=1)
    power = float(np.mean(np.abs(ch.gains) ** 2))
    assert power == pytest.approx(0.01, rel=0.05)


def test_collapsed_spread_gives_equal_precisions():
    support = np.ones(32, dtype=np.uint8)
    ch = sample_channel(support, P=4, vL_spread=(1.0, 1.0), rng_seed=2)
    assert np.allclose(ch.large_precisions, 1.0, atol=1e-12)


def test_common_support_power_separation():
    support = np.array([1] * 8 + [0] * 8, dtype=np.uint8)
    ch = sample_channel(support, P=64, rng_seed=3)
    row_power = np.mean(np.abs(ch.gains) ** 2, axis=1)
    assert row_power[:8].min() > row_power[8:].max()
    assert np.array_equal(ch.support, support)


def test_channel_reproducible():
    support = sample_support(64, rng_seed=0)
    a = sample_channel(support, P=8, rng_seed=7)
    b = sample_channel(support, P=8, rng_seed=7)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.large_precisions, b.large_precisions)


def test_pdft_rp_row_orthonormal():
    for seed in range(5):
        pilot = make_pdft_rp(64, 29, rng_seed=seed)
        A = pilot.matrix
        gram = A @ A.conj().T
        assert np.max(np.abs(gram - np.eye(29))) < 1e-12


def test_pdft_rp_identity_config_is_unitary():
    pilot = PilotMatrix(8, 8, np.arange(8), np.arange(8), np.ones(8))
    A = pilot.matrix
    assert np.max(np.abs(A @ A.conj().T - np.eye(8))) < 1e-12
    assert np.max(np.abs(A.conj().T @ A - np.eye(8))) < 1e-12


def test_pdft_rp_rejects_bad_m():
    with pytest.raises(ValueError):
        make_pdft_rp(8, 9)
    with pytest.raises(ValueError):
        make_pdft_rp(8, 0)


def test_pdft_rp_energy_compaction():
    N, M, draws = 64, 26, 10_000
    pilot = make_pdft_rp(N, M, rng_seed=4)
    rng = np.random.default_rng(8)
    h = (rng.standard_normal((N, draws)) + 1j * rng.standard_normal((N, draws)))
    h *= math.sqrt(0.5 / N)     # unit expected total power per column
    energy = np.sum(np.abs(pilot.apply(h)) ** 2, axis=0)
    assert float(energy.mean()) == pytest.approx(M / N, rel=0.02)


def test_pdft_rp_apply_matches_dense():
    pilot = make_pdft_rp(32, 13, rng_seed=6)
    rng = np.random.default_rng(9)
    h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.allclose(pilot.apply(h), pilot.matrix @ h, atol=1e-12)
    y = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    assert np.allclose(pilot.adjoint(y), pilot.matrix.conj().T @ y, atol=1e-12)


def test_make_pilot_set_deterministic():
    a = make_pilot_set(32, 13, 4, rng_seed=9)
    b = make_pilot_set(32, 13, 4, rng_seed=9)
    assert len(a) == 4
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.rows, pb.rows)
        assert np.array_equal(pa.perm, pb.perm)
        assert np.array_equal(pa.phases, pb.phases)
    assert not (
        np.array_equal(a[0].rows, a[1].rows)
        and np.array_equal(a[0].perm, a[1].perm)
    )


@pytest.mark.parametrize("N, M, P", [(32, 13, 5), (32, 13, 1), (16, 16, 3), (8, 8, 1)])
def test_pilot_set_matches_dense_per_subcarrier(N, M, P):
    pilots = make_pilot_set(N, M, P, rng_seed=N + M + P)
    rng = np.random.default_rng(P)
    H = rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    Y = rng.standard_normal((M, P)) + 1j * rng.standard_normal((M, P))
    AH, AY = pilots.apply(H), pilots.adjoint(Y)
    assert AH.shape == (M, P) and AY.shape == (N, P)
    for p in range(P):
        A = pilots[p].matrix
        assert np.max(np.abs(AH[:, p] - A @ H[:, p])) < 1e-12
        assert np.max(np.abs(AY[:, p] - A.conj().T @ Y[:, p])) < 1e-12


def test_pilot_set_runs_on_the_numpy_1_fft_signature(monkeypatch):
    # pyproject allows numpy >= 1.24, whose np.fft.fft and ifft take no `out=`
    pilots = make_pilot_set(32, 13, 5, rng_seed=2)
    rng = np.random.default_rng(2)
    H = rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))
    Y = rng.standard_normal((13, 5)) + 1j * rng.standard_normal((13, 5))
    want = pilots.apply(H), pilots.adjoint(Y)
    for name in ("fft", "ifft"):
        numpy_2_fft = getattr(np.fft, name)

        def numpy_1_fft(a, n=None, axis=-1, norm=None, fft=numpy_2_fft):
            return fft(a, n, axis, norm)

        monkeypatch.setattr(np.fft, name, numpy_1_fft)
    got = pilots.apply(H), pilots.adjoint(Y)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_pilot_set_stacks_the_per_subcarrier_draws():
    N, M, P = 32, 13, 4
    pilots = make_pilot_set(N, M, P, rng_seed=9)
    assert isinstance(pilots, PilotSet) and len(pilots) == P
    assert pilots.rows.shape == (P, M)
    assert pilots.perm.shape == pilots.phases.shape == (P, N)
    children = np.random.SeedSequence(9).spawn(P)
    refs = [make_pdft_rp(N, M, rng_seed=child) for child in children]
    for p, (view, ref) in enumerate(zip(pilots, refs)):
        for got in (view, pilots[p], pilots[p - P]):
            assert (got.N, got.M) == (N, M)
            assert np.array_equal(got.rows, ref.rows)
            assert np.array_equal(got.perm, ref.perm)
            assert np.array_equal(got.phases, ref.phases)
    # the stored form is the flat indices; rows and perm are derived from them
    assert np.array_equal(pilots.rows, np.stack([ref.rows for ref in refs]))
    assert np.array_equal(pilots.perm, np.stack([ref.perm for ref in refs]))
    sub = np.arange(P)[:, None]
    assert pilots.gather.dtype == pilots.select.dtype == np.int64
    assert np.array_equal(pilots.gather, pilots.perm * P + sub)
    assert np.array_equal(pilots.select, pilots.rows + N * sub)
    assert not pilots.rows.flags.writeable and not pilots.perm.flags.writeable
    with pytest.raises(IndexError):
        pilots[P]
    again = PilotSet.stack(list(pilots))
    for field in ("gather", "select", "rows", "perm", "phases"):
        assert np.array_equal(getattr(again, field), getattr(pilots, field))


def test_pilot_set_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PilotSet.stack([])
    with pytest.raises(ValueError):
        PilotSet.stack([make_pdft_rp(16, 5), make_pdft_rp(16, 6)])
    pilots = make_pilot_set(16, 5, 3)
    with pytest.raises(ValueError):
        pilots.apply(np.zeros((16, 4), complex))
    with pytest.raises(ValueError):
        pilots.adjoint(np.zeros((16, 3), complex))


def _toy_setup(N=64, M=32, P=50, seed=0):
    support = sample_support(N, rng_seed=seed)
    channel = sample_channel(support, P, rng_seed=seed + 1)
    pilots = make_pilot_set(N, M, P, rng_seed=seed + 2)
    return channel, pilots


def test_synthesize_noiseless():
    channel, pilots = _toy_setup()
    ms = synthesize_measurements(channel, pilots, snr_db=np.inf)
    assert ms.noise_variance == 0.0
    clean = np.stack(
        [pilots[p].apply(channel.gains[:, p]) for p in range(channel.P)], axis=1
    )
    # batched and single-vector FFTs need not agree bit for bit
    assert np.max(np.abs(ms.Y - clean)) <= 1e-12 * np.max(np.abs(clean))


def test_synthesize_rejects_minus_inf_snr():
    channel, pilots = _toy_setup(P=3)
    with pytest.raises(ValueError, match="-inf"):
        synthesize_measurements(channel, pilots, snr_db=-np.inf)
    assert synthesize_measurements(channel, pilots, snr_db=np.inf).noise_variance == 0.0


def test_synthesize_accepts_a_list_of_pilot_operators():
    channel, pilots = _toy_setup(P=6)
    stacked = synthesize_measurements(channel, pilots, snr_db=10.0, rng_seed=3)
    listed = synthesize_measurements(channel, list(pilots), snr_db=10.0, rng_seed=3)
    assert np.array_equal(stacked.Y, listed.Y)
    with pytest.raises(ValueError):
        synthesize_measurements(channel, list(pilots)[:5], snr_db=10.0)


def test_synthesize_zero_db_noise_power():
    channel, pilots = _toy_setup(P=100)
    clean = np.stack(
        [pilots[p].apply(channel.gains[:, p]) for p in range(channel.P)], axis=1
    )
    sig = np.mean(np.abs(clean) ** 2)
    noise_powers = []
    for seed in range(4):
        ms = synthesize_measurements(channel, pilots, snr_db=0.0, rng_seed=seed)
        noise_powers.append(np.mean(np.abs(ms.Y - clean) ** 2))
    assert float(np.mean(noise_powers)) / sig == pytest.approx(1.0, rel=0.03)


def test_synthesize_snr_to_sigma_map():
    channel, pilots = _toy_setup(P=8)
    lo = synthesize_measurements(channel, pilots, snr_db=10.0)
    hi = synthesize_measurements(channel, pilots, snr_db=10.0 - 10.0 * math.log10(2.0))
    assert hi.noise_variance == pytest.approx(2.0 * lo.noise_variance, rel=1e-12)


def test_angle_transform_roundtrip_and_parseval():
    rng = np.random.default_rng(13)
    h = rng.standard_normal((48, 3)) + 1j * rng.standard_normal((48, 3))
    back = angle_transform(angle_transform(h, "to_angle"), "to_frequency")
    assert np.max(np.abs(back - h)) < 1e-12
    a = angle_transform(h, "to_angle")
    assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_angle_transform_dc_concentrates():
    a = angle_transform(np.ones(16, dtype=complex), "to_angle")
    assert abs(a[0]) == pytest.approx(4.0, rel=1e-12)
    assert np.max(np.abs(a[1:])) < 1e-12


def test_angle_transform_rejects_direction():
    with pytest.raises(ValueError):
        angle_transform(np.ones(4), "sideways")


def test_save_load_roundtrip(tmp_path):
    support = sample_support(24, rng_seed=1)
    channel = sample_channel(support, P=3, rng_seed=2)
    path = tmp_path / "chan.haf"
    save_channel(path, channel)
    loaded = load_channel(path)
    assert np.array_equal(loaded.gains, channel.gains)
    assert np.array_equal(loaded.support, channel.support)
    bare = tmp_path / "bare.haf"
    channel.support = None
    save_channel(bare, channel)
    loaded = load_channel(bare)
    assert np.array_equal(loaded.gains, channel.gains)
    assert loaded.support is None


def test_load_error_messages(tmp_path):
    support = sample_support(8, rng_seed=3)
    channel = sample_channel(support, P=2, rng_seed=4)
    good = tmp_path / "good.haf"
    save_channel(good, channel)
    blob = good.read_bytes()

    bad_magic = tmp_path / "magic.haf"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="not a channel file"):
        load_channel(bad_magic)

    short_header = tmp_path / "header.haf"
    short_header.write_bytes(blob[:6])
    with pytest.raises(ValueError, match="unexpected end of file"):
        load_channel(short_header)

    truncated = tmp_path / "trunc.haf"
    truncated.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="unexpected end of file"):
        load_channel(truncated)

    trailing = tmp_path / "trail.haf"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_channel(trailing)

    non_finite = tmp_path / "inf.haf"
    non_finite.write_bytes(
        b"HAF1" + struct.pack("<IIB", 1, 1, 0) + struct.pack("<dd", math.inf, 0.0)
    )
    with pytest.raises(ValueError, match="non-finite"):
        load_channel(non_finite)

    bad_support = tmp_path / "supp.haf"
    bad_support.write_bytes(
        b"HAF1" + struct.pack("<IIB", 1, 1, 1) + struct.pack("<dd", 0.5, 0.0) + b"\x02"
    )
    with pytest.raises(ValueError, match="support bytes"):
        load_channel(bad_support)
