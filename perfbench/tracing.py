"""Span tracing from outside the package.

`Tracer.install` rebinds the module and class attributes listed in `_targets`
to wrappers that record one span per call: name, start, end, parent span
and the id of the op the span belongs to.  Names are patched where callers
look them up (`turbo` imports `denoise` and `lmmse_update` by name, `cli`
imports `run_turbo` and the channel synthesis functions by name), so the
package itself carries no hooks.  A target that does not exist is skipped,
and its metrics read 0.

Spans stay in memory until `write` dumps them; `layer_metrics` derives the
per-layer numbers from them.
"""

import math
import statistics
import time


def _turbo_attrs(args, kwargs, out):
    trace = out[1]
    return {
        "iterations": trace.iterations,
        "clamped": sum(trace.clamped_a) + sum(trace.clamped_b),
        "roundtrip_err": max(trace.roundtrip_err, default=0.0),
    }


def _chain_attrs(args, kwargs, out):
    return {"steps": args[0].support_like.shape[0]}


def _mixture_attrs(args, kwargs, out):
    return {"samples": out[0].size}


def _se_attrs(args, kwargs, out):
    return {"iterations": len(out.rows)}


def _targets(hmpce):
    """(owner, attribute, span name, attribute extractor) for every wrapped call."""
    channels, cli, denoiser, turbo = hmpce.channels, hmpce.cli, hmpce.denoiser, hmpce.turbo
    synth = ("make_pilot_set", "sample_support", "sample_channel", "synthesize_measurements")
    return (
        [(channels.PilotMatrix, "apply", "channels.pilot_apply", None),
         (channels.PilotMatrix, "adjoint", "channels.pilot_adjoint", None)]
        + [(owner, fn, "channels.synth", None) for owner in (channels, cli) for fn in synth]
        + [(turbo, "lmmse_update", "lmmse.update", None),
           (turbo, "run_turbo", "turbo.run_turbo", _turbo_attrs),
           (cli, "run_turbo", "turbo.run_turbo", _turbo_attrs),
           (turbo, "denoise", "denoiser.denoise", None),
           (denoiser, "forward_pass", "denoiser.chain", _chain_attrs),
           (denoiser, "backward_pass", "denoiser.chain", _chain_attrs),
           (denoiser, "update_transition_beliefs", "denoiser.transition", None),
           (denoiser, "support_likelihood", "denoiser.likelihood", None),
           (denoiser, "support_extrinsic", "denoiser.extrinsic", None),
           (denoiser, "update_precision_beliefs", "denoiser.precision", None),
           (denoiser, "posterior_moments", "denoiser.moments", None),
           (denoiser, "cgauss_logpdf", "messages.cgauss_logpdf", None),
           (turbo, "posterior_moments_mixture", "priors.mixture_moments", _mixture_attrs),
           (turbo.MmseSampler, "__init__", "se.sampler_init", None),
           (turbo.MmseSampler, "__call__", "se.mmse", None),
           (turbo, "run_state_evolution", "se.run", _se_attrs),
           (cli, "run_state_evolution", "se.run", _se_attrs),
           (cli, "run_sweep", "cli.sweep", None),
           (cli, "run_se", "cli.se", None),
           (cli, "main", "cli.main", None)]
    )


class Tracer:
    """Records spans in memory; `op` marks the span that roots one op."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, attrs or None]
        self.spans = []
        self._stack = []
        self._saved = []
        self.op_id = None

    def _wrap(self, name, fn, attrs_fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
            if attrs_fn is not None:
                span[5] = attrs_fn(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, hmpce):
        for owner, attr, name, attrs_fn in _targets(hmpce):
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, attrs_fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def op(self, op_id, fn, *args):
        """Call fn(*args) as op `op_id`, under a root span named bench.op."""
        self.op_id = op_id
        try:
            return self._wrap("bench.op", fn, None)(*args)
        finally:
            self.op_id = None

    def write(self, path):
        """Spans as tab-separated lines: name, start, end, parent, op, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\tattrs\n")
            for name, start, end, parent, op_id, attrs in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op_id}\t{attrs or ''}\n")


# per-layer metric -> (span name, quantity); quantities: calls, self (span
# minus its wrapped children), incl (whole span), or an attrs key.  Every
# quantity is summed over the traced ops and divided by their number.
LAYER_METRICS = {
    "channels.pilot_apply_calls": ("channels.pilot_apply", "calls"),
    "channels.pilot_apply_s": ("channels.pilot_apply", "self"),
    "channels.pilot_adjoint_calls": ("channels.pilot_adjoint", "calls"),
    "channels.pilot_adjoint_s": ("channels.pilot_adjoint", "self"),
    "lmmse.update_calls": ("lmmse.update", "calls"),
    "lmmse.update_self_s": ("lmmse.update", "self"),
    "turbo.self_s": ("turbo.run_turbo", "self"),
    "turbo.iterations": ("turbo.run_turbo", "iterations"),
    "turbo.clamped": ("turbo.run_turbo", "clamped"),
    "denoiser.denoise_calls": ("denoiser.denoise", "calls"),
    "denoiser.denoise_s": ("denoiser.denoise", "incl"),
    "denoiser.chain_s": ("denoiser.chain", "self"),
    "denoiser.chain_steps": ("denoiser.chain", "steps"),
    "denoiser.transition_s": ("denoiser.transition", "self"),
    "denoiser.likelihood_s": ("denoiser.likelihood", "self"),
    "denoiser.extrinsic_s": ("denoiser.extrinsic", "self"),
    "denoiser.precision_s": ("denoiser.precision", "self"),
    "denoiser.moments_s": ("denoiser.moments", "self"),
    "messages.cgauss_logpdf_calls": ("messages.cgauss_logpdf", "calls"),
    "messages.cgauss_logpdf_s": ("messages.cgauss_logpdf", "self"),
    "priors.mixture_moments_calls": ("priors.mixture_moments", "calls"),
    "priors.mixture_moments_samples": ("priors.mixture_moments", "samples"),
    "priors.mixture_moments_s": ("priors.mixture_moments", "self"),
    "se.sampler_init_s": ("se.sampler_init", "self"),
    "se.mmse_calls": ("se.mmse", "calls"),
    "se.mmse_s": ("se.mmse", "self"),
    "se.iterations": ("se.run", "iterations"),
    "cli.sweep_s": ("cli.sweep", "incl"),
    "cli.se_s": ("cli.se", "incl"),
    "cli.write_s": ("cli.main", "self"),
    "bench.self_s": ("bench.op", "self"),
}


def _span_totals(spans, op_ids):
    """Per span name: calls, inclusive and self seconds, summed attrs."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for index, (name, start, end, _, op_id, attrs) in enumerate(spans):
        if op_id not in op_ids:
            continue
        entry = totals.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["incl"] += end - start
        entry["self"] += end - start - child_time[index]
        for key, value in (attrs or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def layer_metrics(tracer, op_ids, setup_ids, pool_size, untraced_op_s, traced_op_s):
    """Per-op means of every per-layer metric over the ops in `op_ids`.

    `channels.synth_s` is the synthesis time of one op's inputs: inside the
    op for the CLI, or the traced set-up synthesis (spans with an id in
    `setup_ids`) over the pool size for the workloads that synthesize their
    inputs ahead.
    """
    op_ids = set(op_ids)
    n = max(len(op_ids), 1)
    totals = _span_totals(tracer.spans, op_ids)
    metrics = {
        name: totals.get(span, {}).get(quantity, 0) / n
        for name, (span, quantity) in LAYER_METRICS.items()
    }
    setup = _span_totals(tracer.spans, set(setup_ids))
    metrics["channels.synth_s"] = (
        totals.get("channels.synth", {}).get("incl", 0.0) / n
        + setup.get("channels.synth", {}).get("incl", 0.0) / pool_size
    )
    metrics["turbo.roundtrip_err_max"] = max(
        [s[5]["roundtrip_err"] for s in tracer.spans
         if s[0] == "turbo.run_turbo" and s[4] in op_ids and s[5]] or [0.0]
    )
    metrics["trace.self_sum_s"] = sum(
        entry["self"] for name, entry in totals.items() if name != "bench.op"
    ) / n
    metrics["trace.untraced_op_s"] = statistics.median(untraced_op_s or [math.nan])
    metrics["trace.op_s"] = statistics.median(traced_op_s or [math.nan])
    metrics["trace.overhead_s"] = metrics["trace.op_s"] - metrics["trace.untraced_op_s"]
    return metrics
