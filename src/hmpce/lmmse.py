"""Linear MMSE estimation against row-orthonormal pilot operators.

For A with A A^H = I_M and an i.i.d. prior CN(h_pri, v_pri I), the posterior
mean and average variance have the closed forms

    h_post = h_pri + v_pri / (v_pri + sigma2) * A^H (y - A h_pri)
    v_post = v_pri - (M / N) * v_pri^2 / (v_pri + sigma2)

which the FFT-based pilot structure evaluates in O(N log N).  The same code
runs one subcarrier (a `PilotMatrix`, scalar variance) or all P subcarriers
at once (a `PilotSet`, means (N, P) and one variance per column), and so
does the extrinsic split that turns a posterior into the message for the
other module.

The update works on the fresh arrays that `apply` and `adjoint` return: it
subtracts the measurements into the first and scales and adds the prior mean
into the second.  No input is written to.
"""

import numpy as np

_VAR_FLOOR = 1e-30


def lmmse_update(y, pilot, h_pri, v_pri, sigma2):
    """One matrix-free LMMSE update.

    With a `PilotMatrix`, y is (M,), h_pri (N,) and v_pri a scalar; with a
    `PilotSet`, Y is (M, P), H_pri (N, P) and v_pri (P,), one prior variance
    per subcarrier.  Returns (h_post, v_post), v_post shaped like v_pri.
    sigma2 = 0 with M = N pins the posterior variance to a tiny positive
    floor.
    """
    v_pri = np.asarray(v_pri, dtype=float)
    if np.any(v_pri <= 0.0):
        raise ValueError(f"prior variance must be positive, got {v_pri}")
    if sigma2 < 0.0:
        raise ValueError(f"noise variance must be non-negative, got {sigma2}")
    gain = v_pri / (v_pri + sigma2)
    residual = pilot.apply(h_pri)
    np.subtract(y, residual, out=residual)
    h_post = pilot.adjoint(residual)
    h_post *= gain
    h_post += h_pri
    v_post = v_pri * (1.0 - gain * pilot.M / pilot.N)
    return h_post, np.maximum(v_post, _VAR_FLOOR)


def extrinsic_split(h_post, v_post, h_pri, v_pri, max_variance=1e8):
    """Gaussian extrinsic division post / pri, with its round-trip check.

    Means are (N,) with scalar variances, or (N, P) with one variance per
    column.  Where the posterior is not informative enough
    (1/v_post - 1/v_pri <= 1/max_variance) the extrinsic variance is clamped
    to max_variance.

    The extrinsic message is multiplied back with the prior and compared
    with the posterior over the unclamped columns: the error is the worst
    relative variance mismatch or the worst mean mismatch relative to
    max |h_post|, whichever is larger (0 when every column is clamped).
    Returns (h_ext, v_ext, clamped, roundtrip_err).
    """
    v_post = np.asarray(v_post, dtype=float)
    v_pri = np.asarray(v_pri, dtype=float)
    inv = 1.0 / v_post - 1.0 / v_pri
    clamped = ~(inv > 1.0 / max_variance)
    v_ext = np.where(clamped, max_variance, 1.0 / np.where(clamped, 1.0, inv))
    h_ext = h_post * (v_ext / v_post) - h_pri * (v_ext / v_pri)
    err = 0.0
    keep = ~clamped
    if np.any(keep):
        v_rec = 1.0 / (1.0 / v_ext + 1.0 / v_pri)
        h_rec = h_ext * (v_rec / v_ext) + h_pri * (v_rec / v_pri)
        h_rec -= h_post
        h_ref = h_post
        if not keep.all():
            # only (N, P) inputs can have both kept and clamped columns
            h_rec, h_ref = h_rec[:, keep], h_post[:, keep]
        scale = max(float(np.abs(h_ref).max()), 1e-300)
        err_m = np.abs(h_rec).max() / scale
        err_v = np.max(np.abs(v_rec - v_post) / v_post, where=keep, initial=0.0)
        err = float(max(err_v, err_m))
    return h_ext, v_ext[()], clamped[()], err


def dense_lmmse(y, A, h_pri, v_pri, sigma2):
    """Reference dense solve of the same posterior (for validation).

    Solves (A^H A / sigma2 + I / v_pri) h = A^H y / sigma2 + h_pri / v_pri
    and returns (h_post, v_post) with v_post the average of the posterior
    covariance diagonal.
    """
    N = A.shape[1]
    G = A.conj().T @ A / sigma2 + np.eye(N) / v_pri
    rhs = A.conj().T @ y / sigma2 + h_pri / v_pri
    cov = np.linalg.inv(G)
    h_post = cov @ rhs
    v_post = float(np.real(np.trace(cov))) / N
    return h_post, v_post
