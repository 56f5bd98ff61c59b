"""Every name that the benchmark's tracer wraps exists in the package.

`perfbench/tracing.py` patches the package's functions and methods by name
from outside, and skips a name that it does not find, so that span's
metrics read 0 with no error.  A package change that renames or removes
one of those names (a shim such as `channels.PilotMatrix` or
`turbo.posterior_moments_mixture` among them) fails here instead.  The
tracer is loaded from its file, read-only, and resolved the way
`Tracer.install` resolves it.
"""

import importlib.util
import os

import pytest

import hmpce
import hmpce.cli

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
