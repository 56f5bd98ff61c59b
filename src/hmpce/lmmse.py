"""Linear MMSE estimation against row-orthonormal pilot operators.

For A with A A^H = I_M and an i.i.d. prior CN(h_pri, v_pri I), the posterior
mean and average variance have the closed forms

    h_post = h_pri + v_pri / (v_pri + sigma2) * A^H (y - A h_pri)
    v_post = v_pri - (M / N) * v_pri^2 / (v_pri + sigma2)

which the FFT-based pilot structure evaluates in O(N log N).  The update
runs all P subcarriers of a `PilotSet` at once, with means (..., N, P) and
one variance per column, (..., P); one subcarrier is a P = 1 set.  Leading
axes are members of a batch: a (B, N, P) stack holds member b's means in
its C-contiguous block [b].  The extrinsic split that turns a posterior
into the message for the other module takes the same means and variances
and checks its round trip per member.

The update works on the fresh arrays that `apply` and `adjoint` return: it
subtracts the measurements into the first and scales and adds the prior mean
into the second.  No input is written to.
"""

import numpy as np

_VAR_FLOOR = 1e-30
# Extrinsic variance of a column whose posterior is not informative enough
_EXT_VAR_CAP = 1e8


def lmmse_update(y, pilots, h_pri, v_pri, sigma2):
    """One matrix-free LMMSE update through a `PilotSet`.

    y is (..., M, P), h_pri (..., N, P) and v_pri (..., P), one prior
    variance per subcarrier; sigma2 is one noise variance or any array that
    broadcasts against v_pri, such as one per member, (B, 1).  Returns
    (h_post, v_post), v_post shaped like v_pri.  A prior variance that is
    not positive and finite, or a negative or NaN sigma2 entry, raises
    `ValueError`.  sigma2 = 0 with M = N pins the posterior variance to a
    tiny positive floor.
    """
    v_pri = np.asarray(v_pri, dtype=float)
    if not np.all((v_pri > 0.0) & (v_pri < np.inf)):
        raise ValueError(f"prior variance must be positive and finite, got {v_pri}")
    if not np.all(np.greater_equal(sigma2, 0.0)):
        raise ValueError(f"noise variance must be non-negative, got {sigma2}")
    gain = v_pri / (v_pri + sigma2)
    residual = pilots.apply(h_pri)
    np.subtract(y, residual, out=residual)
    h_post = pilots.adjoint(residual)
    h_post *= gain[..., None, :]
    h_post += h_pri
    v_post = v_pri * (1.0 - gain * pilots.M / pilots.N)
    return h_post, np.maximum(v_post, _VAR_FLOOR)


def extrinsic_split(h_post, v_post, h_pri, v_pri):
    """Gaussian extrinsic division post / pri, with its round-trip check.

    Means are (..., N, P) with one variance per column, (..., P); each
    leading index is one member.  Where the posterior is not informative
    enough (1/v_post - 1/v_pri <= 1/_EXT_VAR_CAP) the extrinsic variance is
    clamped to _EXT_VAR_CAP = 1e8.

    The extrinsic message is multiplied back with the prior and compared
    with the posterior over each member's unclamped columns: the member's
    error is the worst relative variance mismatch or the worst mean mismatch
    relative to its max |h_post|, whichever is larger (0 when every column
    of the member is clamped).  Returns (h_ext, v_ext, clamped,
    roundtrip_err), the last shaped like the leading axes: (B,) for a
    (B, N, P) stack, a 0-d array for one (N, P) member.
    """
    v_post = np.asarray(v_post, dtype=float)
    v_pri = np.asarray(v_pri, dtype=float)
    if np.ndim(h_post) < 2 or v_post.shape != h_post.shape[:-2] + h_post.shape[-1:]:
        raise ValueError(
            f"need (..., N, P) means with (..., P) variances; "
            f"got {np.shape(h_post)} and {v_post.shape}"
        )
    inv = 1.0 / v_post - 1.0 / v_pri
    clamped = ~(inv > 1.0 / _EXT_VAR_CAP)
    v_ext = np.where(clamped, _EXT_VAR_CAP, 1.0 / np.where(clamped, 1.0, inv))
    h_ext = h_post * (v_ext / v_post)[..., None, :] - h_pri * (v_ext / v_pri)[..., None, :]
    err = _roundtrip_error((h_post, v_post), (h_pri, v_pri), (h_ext, v_ext), ~clamped)
    return h_ext, v_ext, clamped, err


def _roundtrip_error(post, pri, ext, kept):
    """Each member's round-trip error over its kept columns.

    post, pri and ext are (mean, variance) pairs of (..., N, P) means and
    (..., P) variances; kept is (..., P).  The error is the worst relative
    variance mismatch or the worst mean mismatch relative to the member's
    max |h_post|, whichever is larger, and 0 for a member with no kept
    column.
    """
    (h_post, v_post), (h_pri, v_pri), (h_ext, v_ext) = post, pri, ext
    v_rec = 1.0 / (1.0 / v_ext + 1.0 / v_pri)
    h_rec = h_ext * (v_rec / v_ext)[..., None, :] + h_pri * (v_rec / v_pri)[..., None, :]
    h_rec -= h_post
    scale = np.maximum(_max_abs(h_post, kept), 1e-300)
    err_m = _max_abs(h_rec, kept) / scale
    err_v = np.max(np.abs(v_rec - v_post) / v_post, axis=-1, where=kept, initial=0.0)
    # max(err_v, err_m) of each member, NaN as Python's max takes it
    return np.where(err_m > err_v, err_m, err_v)


def _max_abs(h, kept):
    """Each member's max |h| over its kept columns, h (..., N, P) and kept
    (..., P); a NaN in a kept column is the member's maximum.  With every
    column kept, a member's maximum is one pass over its contiguous block."""
    mag = np.abs(h)
    if kept.all():
        return mag.max(axis=(-2, -1))
    return np.max(mag.max(axis=-2), axis=-1, where=kept, initial=0.0)

