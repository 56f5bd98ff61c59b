"""Every name that the benchmark's tracer wraps exists in the package, and
its attribute extractors run on what the package passes and returns.

`perfbench/tracing.py` patches the package's functions and methods by name
from outside, and skips a name that it does not find, so that span's
metrics read 0 with no error.  A package change that renames or removes
one of those names (a shim such as `channels.PilotMatrix`,
`denoiser.backward_pass` or `turbo.posterior_moments_mixture` among
them) fails here instead.  The tracer is loaded from its file, read-only,
and resolved the way `Tracer.install` resolves it.  Its extractors read
the package's objects (the turbo trace, the denoiser state, the sampler's
blocks, the SE trace), so tiny traced runs check that a change to those
objects keeps every span's attributes.
"""

import contextlib
import importlib.util
import math
import os

import numpy as np
import pytest

import hmpce
import hmpce.cli
from hmpce.priors import VARIANTS, ScalarPrior

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target_params():
    try:
        targets = _load_tracing()._targets(hmpce)
    except AttributeError as exc:  # a class that the tracer wraps is gone
        return [pytest.param(None, None, str(exc), id="_targets")]
    params = []
    for owner, attr, span, _ in targets:
        name = f"{owner.__name__}.{attr}"
        marks = ()
        if name == "hmpce.denoiser.cgauss_logpdf":
            marks = pytest.mark.xfail(strict=True, reason=(
                "ROADMAP item 7: the denoiser runs on |r|^2 and has no cgauss_logpdf; "
                "the benchmark change drops the messages.cgauss_logpdf span"))
        params.append(pytest.param(owner, attr, span, id=name, marks=marks))
    return params


@pytest.mark.parametrize("owner, attr, span", _target_params())
def test_every_tracer_target_resolves(owner, attr, span):
    assert owner is not None, span
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(found), f"{span}: {owner.__name__}.{attr} is missing"


def test_the_pilot_spans_wrap_the_operator_the_estimator_calls():
    assert hmpce.channels.PilotMatrix is hmpce.channels.PilotSet


def test_the_chain_spans_wrap_the_round_the_estimator_calls():
    # `denoise` runs each chain round through `forward_pass` alone
    assert hmpce.denoiser.backward_pass is hmpce.denoiser.forward_pass


@contextlib.contextmanager
def _traced():
    """The tracer installed on the package, and uninstalled on exit."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install(hmpce)
    try:
        yield tracing, tracer
    finally:
        tracer.uninstall()


def _spans(tracer, name):
    return [span for span in tracer.spans if span[0] == name]


def _tiny_turbo(variant):
    channels, turbo = hmpce.channels, hmpce.turbo
    root = np.random.SeedSequence(4)
    s_support, s_gain, s_pilot, s_noise = root.spawn(4)
    support = channels.sample_support(32, 0.05, 0.2, rng_seed=s_support)
    channel = channels.sample_channel(support, 2, rng_seed=s_gain)
    pilots = channels.make_pilot_set(32, 13, 2, rng_seed=s_pilot)
    meas = channels.synthesize_measurements(channel, pilots, 20.0, rng_seed=s_noise)
    cfg = turbo.AlgoConfig(
        name=variant, prior=hmpce.denoiser.PriorConfig(variant=variant),
        init_variance=ScalarPrior(variant=variant).mean_power(), max_iters=3)
    return turbo.run_turbo(meas, pilots, cfg, truth=channel.gains)


@pytest.mark.parametrize("variant", VARIANTS)
def test_traced_turbo_spans_carry_their_attributes(variant):
    with _traced() as (tracing, tracer):
        _, trace = tracer.op(0, _tiny_turbo, variant)
    assert not any(hasattr(fn, "__wrapped__") for fn in (
        hmpce.turbo.run_turbo, hmpce.denoiser.forward_pass, hmpce.turbo.denoise))
    (turbo_span,) = _spans(tracer, "turbo.run_turbo")
    assert turbo_span[5] == {
        "iterations": trace.iterations,
        "clamped": sum(trace.clamped_a) + sum(trace.clamped_b),
        "roundtrip_err": max(trace.roundtrip_err, default=0.0),
    }
    # two chain rounds per pass, each reading the one-member state
    chain = _spans(tracer, "denoiser.chain")
    assert len(chain) == 2 * trace.iterations
    assert all(span[5] == {"steps": 1} for span in chain)
    metrics = tracing.layer_metrics(tracer, [0], [], 1, [1.0], [1.0])
    assert metrics["turbo.iterations"] == trace.iterations
    assert metrics["denoiser.denoise_calls"] == trace.iterations
    assert metrics["denoiser.chain_steps"] == 2 * trace.iterations
    assert metrics["denoiser.chain_s"] > 0.0 and metrics["denoiser.precision_s"] > 0.0


def test_traced_state_evolution_spans_carry_their_attributes():
    prior = ScalarPrior()
    with _traced() as (tracing, tracer):
        se = tracer.op(0, lambda: hmpce.turbo.run_state_evolution(
            prior, 20.0, 32, 13, num_samples=2000, seed=1))
    (run,) = _spans(tracer, "se.run")
    assert run[5] == {"iterations": len(se.rows)} and len(se.rows) > 0
    calls = _spans(tracer, "se.mmse")
    assert len(calls) == len(se.rows)
    # one kernel block per call, a bank of 2000 draws being one block
    mixture = _spans(tracer, "priors.mixture_moments")
    assert len(mixture) == len(calls)
    assert all(span[5] == {"samples": 2000} for span in mixture)
    metrics = tracing.layer_metrics(tracer, [0], [], 1, [1.0], [1.0])
    assert metrics["se.iterations"] == len(se.rows)
    assert metrics["priors.mixture_moments_samples"] == 2000 * len(calls)


def test_traced_cli_spans_carry_their_attributes(tmp_path):
    conf = tmp_path / "cli.conf"
    conf.write_text("se_samples=2000\n", encoding="utf-8")
    argv = ["--N", "32", "--K", "64", "--P", "2", "--M", "13", "--snr", "10,30",
            "--algos", "hmp-tsgm-lvd,hmp-tsgm,hmp-bg", "--iters", "3", "--seed", "2",
            "--config", str(conf), "--out", str(tmp_path / "out")]
    with _traced() as (tracing, tracer):
        assert tracer.op(0, hmpce.cli.main, argv) == 0
    # one batched turbo run per algorithm, its two SNR points as members
    turbo_spans = _spans(tracer, "turbo.run_turbo")
    assert len(turbo_spans) == 3
    for span in turbo_spans:
        assert set(span[5]) == {"iterations", "clamped", "roundtrip_err"}
        assert span[5]["iterations"] >= 1 and math.isfinite(span[5]["roundtrip_err"])
    chain = _spans(tracer, "denoiser.chain")
    assert chain and all(span[5]["steps"] in (1, 2) for span in chain)
    se_runs = _spans(tracer, "se.run")
    assert se_runs and all(span[5]["iterations"] >= 1 for span in se_runs)
    assert all(span[5]["samples"] == 2000 for span in _spans(tracer, "priors.mixture_moments"))
    metrics = tracing.layer_metrics(tracer, [0], [], 1, [1.0], [1.0])
    for name in ("cli.sweep_s", "cli.se_s", "cli.write_s", "turbo.iterations",
                 "denoiser.chain_steps", "se.iterations", "priors.mixture_moments_samples"):
        assert metrics[name] > 0, name
