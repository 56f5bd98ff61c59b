import math

import numpy as np
import pytest

from oracles import cgauss_logpdf
from hmpce.messages import (
    BetaBelief,
    GammaBelief,
    GaussianMsg,
    beta_log_expectations,
    digamma_approx,
    digamma_exact,
    gamma_log_mean,
    gaussian_multiply,
)
from hmpce.lmmse import extrinsic_split


def test_psi_hat_values():
    assert digamma_approx(1.0) == pytest.approx(-0.5, abs=1e-15)
    assert digamma_approx(2.0) == pytest.approx(math.log(2.0) - 0.25, abs=1e-15)
    assert digamma_approx(0.5) == pytest.approx(math.log(0.5) - 1.0, abs=1e-15)


def test_psi_hat_domain():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            digamma_approx(bad)
        with pytest.raises(ValueError):
            digamma_exact(bad)
    with pytest.raises(ValueError):
        digamma_approx(np.array([1.0, 0.0]))


def test_psi_hat_approaches_digamma():
    # the approximation error decays like 1/(12 x^2)
    for x in (5.0, 20.0, 100.0):
        assert abs(digamma_approx(x) - digamma_exact(x)) < 1.0 / (10.0 * x * x)


def test_gaussian_multiply_examples():
    out = gaussian_multiply(GaussianMsg(0.0, 1.0), GaussianMsg(0.0, 1.0))
    assert out.mean == 0.0 and out.variance == pytest.approx(0.5)
    out = gaussian_multiply(GaussianMsg(1.0, 1.0), GaussianMsg(1.0, 1.0))
    assert out.mean == pytest.approx(1.0) and out.variance == pytest.approx(0.5)
    out = gaussian_multiply(GaussianMsg(2.0, 1.0), GaussianMsg(0.0, 1.0))
    assert out.mean == pytest.approx(1.0) and out.variance == pytest.approx(0.5)


def test_gaussian_multiply_commutative_associative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        msgs = [
            GaussianMsg(
                complex(rng.standard_normal(), rng.standard_normal()),
                float(rng.uniform(0.05, 5.0)),
            )
            for _ in range(3)
        ]
        ab = gaussian_multiply(msgs[0], msgs[1])
        ba = gaussian_multiply(msgs[1], msgs[0])
        assert abs(ab.mean - ba.mean) <= 1e-12 * max(1.0, abs(ab.mean))
        assert abs(ab.variance - ba.variance) <= 1e-12 * ab.variance
        left = gaussian_multiply(ab, msgs[2])
        right = gaussian_multiply(msgs[0], gaussian_multiply(msgs[1], msgs[2]))
        assert abs(left.mean - right.mean) <= 1e-12 * max(1.0, abs(left.mean))
        assert abs(left.variance - right.variance) <= 1e-12 * left.variance


def _extrinsic(post, pri, max_variance=1e8):
    # the scalar case of the extrinsic division post / pri, through the one
    # implementation of it (lmmse.extrinsic_split on a length-1 vector)
    h_ext, v_ext, clamped, _ = extrinsic_split(
        np.array([post.mean], dtype=complex), post.variance,
        np.array([pri.mean], dtype=complex), pri.variance, max_variance,
    )
    return GaussianMsg(complex(h_ext[0]), float(v_ext)), bool(clamped)


def test_extrinsic_examples():
    out, clamped = _extrinsic(GaussianMsg(1.0, 0.5), GaussianMsg(0.0, 1.0))
    assert out.mean == pytest.approx(2.0) and out.variance == pytest.approx(1.0)
    assert not clamped
    out, clamped = _extrinsic(GaussianMsg(0.7 + 0.1j, 0.3), GaussianMsg(0.7 + 0.1j, 0.6))
    assert out.mean == pytest.approx(0.7 + 0.1j) and out.variance == pytest.approx(0.6)
    assert not clamped
    # a posterior no narrower than the prior has no proper extrinsic: it clamps
    for post in (GaussianMsg(1.0, 1.0), GaussianMsg(1.0, 2.0)):
        out, clamped = _extrinsic(post, GaussianMsg(0.0, 1.0))
        assert clamped and out.variance == 1e8 and np.isfinite(out.mean)


def test_extrinsic_roundtrip():
    # the extrinsic division inverts the Gaussian product
    rng = np.random.default_rng(11)
    for _ in range(100):
        v_pri = float(rng.uniform(0.1, 4.0))
        v_post = float(rng.uniform(0.01, 0.99)) * v_pri
        pri = GaussianMsg(complex(rng.standard_normal(), rng.standard_normal()), v_pri)
        post = GaussianMsg(complex(rng.standard_normal(), rng.standard_normal()), v_post)
        ext, clamped = _extrinsic(post, pri)
        assert not clamped
        back = gaussian_multiply(ext, pri)
        assert abs(back.mean - post.mean) <= 1e-10 * max(1.0, abs(post.mean))
        assert abs(back.variance - post.variance) <= 1e-10 * post.variance


def test_extrinsic_clamped():
    # barely informative posterior hits the cap and sets the flag
    msg, clamped = _extrinsic(GaussianMsg(1.0, 0.999999999), GaussianMsg(0.0, 1.0))
    assert clamped and msg.variance == 1e8
    # clearly informative posterior matches the exact division
    msg, clamped = _extrinsic(GaussianMsg(1.0, 0.5), GaussianMsg(0.0, 1.0))
    assert not clamped
    assert msg.mean == pytest.approx(2.0) and msg.variance == pytest.approx(1.0)
    # equal variances (invalid division) also clamp rather than raise
    _, clamped = _extrinsic(GaussianMsg(1.0, 1.0), GaussianMsg(0.0, 1.0))
    assert clamped


def test_cgauss_values():
    def pdf(x, mean, variance):
        return np.exp(cgauss_logpdf(x, mean, variance))

    assert pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert pdf(1.0, 1.0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert pdf(1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-12)
    x = np.array([0.3 + 0.4j, -1.0j])
    expect = np.exp(-np.abs(x - 0.1) ** 2 / 0.7) / (math.pi * 0.7)
    assert np.allclose(pdf(x, 0.1, 0.7), expect, rtol=1e-12, atol=0.0)


def test_cgauss_domain():
    for bad in (0.0, -2.0):
        with pytest.raises(ValueError):
            cgauss_logpdf(0.0, 0.0, bad)
        with pytest.raises(ValueError):
            cgauss_logpdf(np.zeros(2), 0.0, np.array([1.0, bad]))


def test_cgauss_grid_integral():
    v = 0.8
    sigma = math.sqrt(v)
    ax = np.linspace(-6.0 * sigma, 6.0 * sigma, 601)
    re, im = np.meshgrid(ax, ax)
    cell = (ax[1] - ax[0]) ** 2
    total = np.exp(cgauss_logpdf(re + 1j * im, 0.2 + 0.1j, v)).sum() * cell
    assert abs(total - 1.0) < 1e-3


def test_beta_log_expectations_values():
    lp, lq = beta_log_expectations(1.0, 1.0)
    expect = -0.5 - (math.log(2.0) - 0.25)
    assert lp == pytest.approx(expect, abs=1e-12)
    assert lq == pytest.approx(expect, abs=1e-12)
    lp, lq = beta_log_expectations(2.0, 2.0)
    assert lp == pytest.approx(lq, abs=1e-15)
    lp, lq = beta_log_expectations(3.0, 1.0)
    assert lp > lq
    # raw pseudo-counts: arrays work elementwise, and NaN passes through
    # (a non-finite turbo state must reach the turbo loop's own check)
    lp, lq = beta_log_expectations(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
    assert lp[0] == pytest.approx(expect, abs=1e-12) and lp[1] > lq[1]
    lp, lq = beta_log_expectations(float("nan"), 1.0)
    assert math.isnan(lp) and math.isnan(lq)


def test_beta_log_expectations_swap_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(0.2, 6.0, size=2)
        lp, lq = beta_log_expectations(a, b)
        lp2, lq2 = beta_log_expectations(b, a)
        assert lp == pytest.approx(lq2, abs=1e-14)
        assert lq == pytest.approx(lp2, abs=1e-14)


def test_beta_log_expectations_exact_switch():
    from scipy.special import digamma

    lp, lq = beta_log_expectations(2.5, 1.5, exact=True)
    assert lp == pytest.approx(digamma(2.5) - digamma(4.0), abs=1e-14)
    assert lq == pytest.approx(digamma(1.5) - digamma(4.0), abs=1e-14)


def test_gamma_expected_log_values():
    from scipy.special import digamma

    assert gamma_log_mean(1.0, 1.0) == pytest.approx(-0.5, abs=1e-15)
    assert gamma_log_mean(2.0, 4.0) == pytest.approx(
        math.log(2.0) - 0.25 - math.log(4.0), abs=1e-15
    )
    exact = gamma_log_mean(2.5, 2.0, exact=True)
    assert exact == float(digamma(2.5)) - math.log(2.0)
    with pytest.raises(ValueError):
        gamma_log_mean(0.0, 1.0)


def test_type_validation():
    with pytest.raises(ValueError):
        GaussianMsg(0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianMsg(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianMsg(float("nan"), 1.0)
    # Gamma: shape > 0 and rate >= 0; rate 0 is the flat-in-rate message
    for shape, rate in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, -1e-300),
                        (float("nan"), 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            GammaBelief(shape, rate)
    assert GammaBelief(2.0, 0.0).rate == 0.0
    with pytest.raises(ValueError):
        BetaBelief(-1.0, 1.0)
    with pytest.raises(ValueError):
        BetaBelief(1.0, 0.0)
    assert GammaBelief(2.0, 4.0).mean() == pytest.approx(0.5)
