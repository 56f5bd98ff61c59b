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

`make_pdft_rp` draws one subcarrier's operator as a `PilotMatrix`, and
`PilotSet.stack` is the one way from such operators to a set.
`PilotMatrix.matrix` is the dense reference that tests, the acceptance gate
and a demo build.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .priors import sample_loguniform_precisions

_MAGIC = b"HAF1"


def sample_support(N, p10=0.05, p01=0.20, rng_seed=0):
    """Markov support: Pr(s_1=1) = p10, then 0->1 w.p. p10 and 1->0 w.p. p01."""
    if not (0.0 < p10 < 1.0 and 0.0 < p01 < 1.0):
        raise ValueError(
            f"transition probabilities must lie in (0,1), got ({p10}, {p01})"
        )
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
class PilotMatrix:
    """Row-orthonormal pilot operator: M-row selection of unitary-DFT after
    a random permutation and random unit-modulus phases."""

    N: int
    M: int
    rows: np.ndarray
    perm: np.ndarray
    phases: np.ndarray
    _matrix: np.ndarray = field(default=None, repr=False)

    def apply(self, h):
        """A @ h for h of shape (N,) or (N, ...)."""
        scrambled = self.phases.reshape((-1,) + (1,) * (h.ndim - 1)) * h[self.perm]
        spectrum = np.fft.fft(scrambled, axis=0) / np.sqrt(self.N)
        return spectrum[self.rows]

    def adjoint(self, y):
        """A^H @ y for y of shape (M,) or (M, ...)."""
        z = np.zeros((self.N,) + y.shape[1:], dtype=np.complex128)
        z[self.rows] = y
        w = np.fft.ifft(z, axis=0) * np.sqrt(self.N)
        out = np.empty_like(w)
        out[self.perm] = np.conj(self.phases).reshape((-1,) + (1,) * (w.ndim - 1)) * w
        return out

    @property
    def matrix(self):
        """Dense M x N matrix (built on demand; the hot path is matrix-free).

        The DFT matrix is built as `scipy.linalg.dft` builds it, powers of
        the column of roots of unity, so the two agree bit for bit.
        """
        if self._matrix is None:
            theta = np.zeros((self.N, self.N), dtype=np.complex128)
            theta[np.arange(self.N), self.perm] = self.phases
            roots = np.exp(-2j * np.pi * np.arange(self.N) / self.N).reshape(-1, 1)
            F = roots ** np.arange(self.N) / np.sqrt(self.N)
            self._matrix = (F @ theta)[self.rows]
        return self._matrix


def make_pdft_rp(N, M, rng_seed=0):
    """Random partial-DFT pilot with random permutation and phases."""
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    rng = np.random.default_rng(rng_seed)
    rows = np.sort(rng.choice(N, size=M, replace=False))
    perm = rng.permutation(N)
    phases = np.exp(2j * np.pi * rng.random(N))
    return PilotMatrix(N, M, rows, perm, phases)


@dataclass
class PilotSet:
    """The pilot operators of P subcarriers, stacked along a leading axis.

    The operators are stored as flat int64 indices: `gather` (P, N) holds
    perm * P + p, the positions of H[perm[p], p] in a C-ordered (N, P)
    channel, and `select` (P, M) holds rows + N * p, the positions of the
    selected rows in a C-ordered (P, N) spectrum.  `stack` builds a set
    from per-subcarrier `PilotMatrix` operators; `len(pilots)` is P.

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

    @classmethod
    def stack(cls, pilots):
        """Stack a sequence of `PilotMatrix` operators that share N and M."""
        pilots = list(pilots)
        if not pilots:
            raise ValueError("need at least one pilot operator")
        N, M = pilots[0].N, pilots[0].M
        if any((p.N, p.M) != (N, M) for p in pilots):
            raise ValueError("stacked pilot operators must share N and M")
        sub = np.arange(len(pilots))[:, None]
        gather = np.stack([p.perm for p in pilots]).astype(np.int64, copy=False)
        gather *= len(pilots)
        gather += sub
        select = np.stack([p.rows for p in pilots]).astype(np.int64, copy=False)
        select += N * sub
        return cls(N, M, gather, select, np.stack([p.phases for p in pilots]))

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

    def _check_shape(self, X, length):
        """X's leading shape, after checking that it ends in (length, P)."""
        if np.ndim(X) < 2 or X.shape[-2:] != (length, len(self)):
            raise ValueError(f"expected shape (..., {length}, {len(self)}), got {np.shape(X)}")
        return X.shape[:-2]


def make_pilot_set(N, M, P, rng_seed=0):
    """Independent pilot operators for P subcarriers, stacked.

    Subcarrier p draws `make_pdft_rp(N, M, rng_seed=c_p)` from the p-th
    child of `rng_seed`'s SeedSequence.
    """
    ss = rng_seed if isinstance(rng_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(rng_seed)
    return PilotSet.stack(make_pdft_rp(N, M, rng_seed=c) for c in ss.spawn(P))


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
