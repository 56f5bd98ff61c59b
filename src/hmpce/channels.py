"""Synthetic angular-domain channels, structured pilot operators, file I/O.

The channel model: a common support vector (first-order Markov chain along
the angular index, shared by all pilot subcarriers), per-(element, subcarrier)
gains drawn from the large/small two-component Gaussian mixture, and
partial-DFT plus random-permutation/phase pilot operators that are
row-orthonormal by construction and admit FFT-based application.

The estimator, the synthesis and the LMMSE stage take one operator type,
`PilotSet`: the P pilot subcarriers' operators stored stacked as flat gather
indices (P, N), flat row-selection indices (P, M) and phases (P, N), so
applying them to an N x P channel is one `np.take`, one batched FFT and one
more `np.take` for all subcarriers at once; the adjoint scatters through the
same two indices.  One subcarrier is a P = 1 set.  Leading axes are
members of a batch that share the set: a (B, N, P) stack maps to (B, M, P),
each member's block as it maps alone.

`make_pilot_set` draws a set, and `PilotSet.matrix` is the dense reference
that tests, the acceptance gate and a demo build.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .priors import sample_loguniform_precisions

_MAGIC = b"HAF1"


def sample_support(N, p10=0.05, p01=0.20, rng_seed=0):
    """Markov support: Pr(s_1=1) = p10, then 0->1 w.p. p10 and 1->0 w.p. p01."""
    if not (0.0 < p10 < 1.0 and 0.0 < p01 < 1.0):
        raise ValueError(
            f"transition probabilities must lie in (0,1), got ({p10}, {p01})"
        )
    if N < 1:
        raise ValueError(f"need N >= 1 angular elements, got N={N}")
    rng = np.random.default_rng(rng_seed)
    u = rng.random(N)
    s = np.zeros(N, dtype=np.uint8)
    s[0] = u[0] < p10
    for n in range(1, N):
        if s[n - 1]:
            s[n] = u[n] >= p01
        else:
            s[n] = u[n] < p10
    return s


def stationary_activation(p10, p01):
    """Stationary probability of the active state."""
    if p10 == 0.0:
        return 0.0
    return 1.0 / (1.0 + p01 / p10)


@dataclass
class ChannelRealization:
    """Angular-domain gains (N x P) with the generating metadata."""

    gains: np.ndarray
    support: np.ndarray = None
    large_precisions: np.ndarray = None

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=np.complex128)
        if self.gains.ndim != 2:
            raise ValueError("gains must be an N x P matrix")
        if self.support is not None:
            self.support = np.asarray(self.support, dtype=np.uint8)
            if self.support.shape != (self.gains.shape[0],):
                raise ValueError("support length must match the angular dimension")

    @property
    def N(self):
        return self.gains.shape[0]

    @property
    def P(self):
        return self.gains.shape[1]


def sample_channel(support, P, vL_spread=(0.1, 10.0), vS=100.0, rng_seed=0, large_power=1.0):
    """Gains for a given support, common across the P pilot subcarriers.

    Active elements draw CN(0, 1/v_L) with v_L log-uniform over vL_spread and
    rescaled so the active mean power equals large_power; inactive elements
    draw CN(0, 1/vS).
    """
    support = np.asarray(support, dtype=np.uint8)
    N = support.shape[0]
    rng = np.random.default_rng(rng_seed)
    prec_large = sample_loguniform_precisions(rng, (N, P), vL_spread, large_power)
    variances = np.where(support[:, None] == 1, 1.0 / prec_large, 1.0 / vS)
    gains = np.sqrt(variances / 2.0) * (
        rng.standard_normal((N, P)) + 1j * rng.standard_normal((N, P))
    )
    return ChannelRealization(gains, support, prec_large)


@dataclass
class PilotSet:
    """The pilot operators of P subcarriers, stacked along a leading axis.

    Operator p is row-orthonormal: the M rows `rows[p]` of the unitary DFT
    after the permutation `perm[p]` and the unit-modulus `phases[p]`.  The
    operators are stored as flat int64 indices: `gather` (P, N) holds
    perm * P + p, the positions of H[perm[p], p] in a C-ordered (N, P)
    channel, and `select` (P, M) holds rows + N * p, the positions of the
    selected rows in a C-ordered (P, N) spectrum.  `len(pilots)` is P.

    `apply` and `adjoint` act on all subcarriers at once: column p of the
    input goes through operator p, in every member of the leading axes.
    `apply` gathers through both indices with `np.take` and `adjoint`
    scatters back through them; each runs one batched FFT along the rows of
    a (..., P, N) work array, which are contiguous.  The phase products and
    the sqrt(N) scalings run in place on the arrays that the gathers and the
    FFTs return.
    """

    N: int
    M: int
    gather: np.ndarray
    select: np.ndarray
    phases: np.ndarray

    def __len__(self):
        return self.phases.shape[0]

    def apply(self, H):
        """Column-wise A_p @ H[..., :, p]: (..., N, P) to (..., M, P)."""
        lead = self._check_shape(H, self.N)
        P, N = self.phases.shape
        H = np.asarray(H, dtype=np.complex128).reshape(lead + (N * P,))
        x = np.take(H, self.gather, axis=-1)
        # x first: complex products can round differently by operand order,
        # and numpy's temporary elision gives an out-of-place `phases * x`
        # this order from 256 KiB up, so the benchmark sizes keep their bits
        np.multiply(x, self.phases, out=x)
        x = np.fft.fft(x, axis=-1)
        y = np.take(x.reshape(lead + (P * N,)), self.select, axis=-1)
        # times the reciprocal: a real divisor still runs numpy's slower complex division
        y *= 1.0 / np.sqrt(self.N)
        return y.swapaxes(-1, -2)

    def adjoint(self, Y):
        """Column-wise A_p^H @ Y[..., :, p]: (..., M, P) to (..., N, P).

        The scatters run member by member through the flat indices: one
        scatter of a transposed stack copies it first, which is slower.
        """
        lead = self._check_shape(Y, self.M)
        Y = np.asarray(Y)
        P, N = self.phases.shape
        z = np.zeros(lead + (P, N), dtype=np.complex128)
        for z_b, y_b in zip(z.reshape(-1, P * N), Y.reshape((-1,) + Y.shape[-2:])):
            z_b[self.select] = y_b.T
        w = np.fft.ifft(z, axis=-1)
        w *= np.sqrt(self.N)
        np.multiply(np.conj(self.phases), w, out=w)
        out = np.empty(lead + (N, P), dtype=np.complex128)
        for out_b, w_b in zip(out.reshape(-1, N * P), w.reshape(-1, P, N)):
            out_b[self.gather] = w_b
        return out

    @property
    def matrix(self):
        """The dense (P, M, N) operators, built on each access (the hot path
        is matrix-free).

        The DFT matrix is built as `scipy.linalg.dft` builds it, powers of
        the column of roots of unity, so the two agree bit for bit.  Each
        subcarrier's product is its own (N, N) matmul: a batched one can
        round differently.
        """
        P, N = self.phases.shape
        roots = np.exp(-2j * np.pi * np.arange(N) / N).reshape(-1, 1)
        F = roots ** np.arange(N) / np.sqrt(N)
        out = np.empty((P, self.M, N), dtype=np.complex128)
        for p in range(P):
            theta = np.zeros((N, N), dtype=np.complex128)
            theta[np.arange(N), self.gather[p] // P] = self.phases[p]
            out[p] = (F @ theta)[self.select[p] - N * p]
        return out

    def _check_shape(self, X, length):
        """X's leading shape, after checking that it ends in (length, P)."""
        shape = np.shape(X)
        if len(shape) < 2 or shape[-2:] != (length, len(self)):
            raise ValueError(f"expected shape (..., {length}, {len(self)}), got {shape}")
        return shape[:-2]


# The name that the benchmark's tracer wraps for the pilot spans, until
# ROADMAP item 7 retargets them to `PilotSet`.
PilotMatrix = PilotSet


def make_pilot_set(N, M, P, rng_seed=0):
    """Independent pilot operators for P subcarriers, stacked.

    Subcarrier p draws from a generator on the p-th child of `rng_seed`'s
    SeedSequence: M sorted rows without replacement, a permutation of the
    N elements and N phases uniform on the unit circle, in that order.
    """
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    if P < 1:
        raise ValueError(f"need P >= 1 pilot subcarriers, got P={P}")
    ss = rng_seed if isinstance(rng_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(rng_seed)
    rows, perm, phases = [], [], []
    for child in ss.spawn(P):
        rng = np.random.default_rng(child)
        rows.append(np.sort(rng.choice(N, size=M, replace=False)))
        perm.append(rng.permutation(N))
        phases.append(np.exp(2j * np.pi * rng.random(N)))
    sub = np.arange(P, dtype=np.int64)[:, None]
    return PilotSet(N, M, np.stack(perm) * P + sub, np.stack(rows) + N * sub, np.stack(phases))


@dataclass
class MeasurementSet:
    """Noisy pilot observations, one column per subcarrier."""

    Y: np.ndarray
    noise_variance: float
    snr_db: float


def synthesize_measurements(channel, pilots, snr_db, rng_seed=0):
    """Y = A H + noise with the noise variance set from the realized
    per-sample signal power: snr = E||A h||^2 / (M sigma^2).  The noise is
    added into the output of `PilotSet.apply`, so Y is that (M, P) array.

    `pilots` is a `PilotSet` with one operator per subcarrier of
    `channel`.  snr_db = +inf is noiseless; -inf and NaN raise `ValueError`.
    """
    if not snr_db > -math.inf:
        raise ValueError(f"snr_db = {snr_db} has no finite noise variance")
    P = channel.P
    if len(pilots) != P:
        raise ValueError("need one pilot operator per subcarrier")
    M = pilots.M
    Y = pilots.apply(channel.gains)
    sig_power = float(np.mean(np.abs(Y) ** 2))
    if snr_db == math.inf:
        sigma2 = 0.0
    else:
        sigma2 = sig_power / 10.0 ** (snr_db / 10.0)
        rng = np.random.default_rng(rng_seed)
        Y += np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal((M, P)) + 1j * rng.standard_normal((M, P))
        )
    return MeasurementSet(Y, sigma2, float(snr_db))


def save_channel(path, channel):
    """Binary channel file: magic, u32 N, u32 P, u8 has_support, gains as
    interleaved little-endian float64 (re, im) in subcarrier-major order,
    then N support bytes when present."""
    has_support = channel.support is not None
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIB", channel.N, channel.P, int(has_support)))
        fh.write(np.ascontiguousarray(channel.gains.T, dtype="<c16").tobytes())
        if has_support:
            fh.write(channel.support.astype(np.uint8).tobytes())


def load_channel(path):
    """Inverse of save_channel; validates magic, length, and finiteness."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: not a channel file (bad magic)")
    if len(blob) < 13:
        raise ValueError(f"{path}: unexpected end of file in header")
    N, P, has_support = struct.unpack("<IIB", blob[4:13])
    if has_support not in (0, 1):
        raise ValueError(f"{path}: invalid support flag {has_support}")
    need = 13 + 16 * N * P + (N if has_support else 0)
    if len(blob) < need:
        raise ValueError(f"{path}: unexpected end of file (need {need} bytes, have {len(blob)})")
    if len(blob) > need:
        raise ValueError(f"{path}: trailing bytes after payload")
    gains = np.frombuffer(blob, dtype="<c16", count=N * P, offset=13).reshape(P, N).T.copy()
    if not np.all(np.isfinite(gains.view(np.float64))):
        raise ValueError(f"{path}: non-finite values in gains")
    support = None
    if has_support:
        support = np.frombuffer(blob, dtype=np.uint8, count=N, offset=13 + 16 * N * P).copy()
        if np.any(support > 1):
            raise ValueError(f"{path}: support bytes must be 0 or 1")
    return ChannelRealization(gains, support)
