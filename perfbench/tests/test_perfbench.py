"""Tests for the benchmark runner itself.

    python3 -m pytest perfbench/tests

Tiny sizes only (`--tiny`), so the whole file runs in well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

hmpce = run.load_package()

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_main(capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_spec_lists_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_tiny_pass_prints_every_metric(capsys, workload, trace):
    code, lines, result = run_main(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}")
                   for line in lines)


def test_probe_scales_wall_time_by_the_host_speed():
    host = probe.Probe(("loop", "big"))
    assert host.ref_s == pytest.approx(probe.REF_S["loop"] + probe.REF_S["big"])
    assert host.adjust(2.0, host.ref_s, host.ref_s) == pytest.approx(2.0)
    assert host.adjust(2.0, 1.5 * host.ref_s, 2.5 * host.ref_s) == pytest.approx(1.0)
    assert host.measure() > 0.0


def test_import_time_splits_own_from_whole():
    own, whole = run.import_seconds()
    assert 0.0 < own < whole


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_workloads_probe_with_known_kernels(tmp_path, workload):
    for tiny in (False, True):
        wl = workloads.make_workload(workload, str(tmp_path), tiny=tiny)
        assert wl.probe and set(wl.probe) <= set(probe.KERNELS)


def test_nan_estimate_counts_as_failure(capsys, monkeypatch):
    real = hmpce.turbo.run_turbo

    def corrupted(*args, **kwargs):
        estimate, trace = real(*args, **kwargs)
        estimate = estimate.copy()
        estimate[0, 0] = np.nan
        return estimate, trace

    monkeypatch.setattr(hmpce.turbo, "run_turbo", corrupted)
    code, _, result = run_main(capsys, "chain-long")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_missing_cli_file_counts_as_failure(capsys, monkeypatch):
    monkeypatch.setattr(hmpce.cli, "_write_manifest", lambda cfg, path: None)
    code, _, result = run_main(capsys, "cli-sweep")
    assert code == 1
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_reference_mismatch_fails_the_op(tmp_path, workload):
    wl = workloads.make_workload(workload, str(tmp_path), tiny=True)
    inputs = wl.make_inputs(5)[:1]
    ref = wl.summary(wl.run(inputs[0]))
    for scale, fails in ((1.0 + 1e-9, 0), (1.0 + 1e-5, 1)):
        refs = [[ref[0] * scale + (scale - 1.0)] + ref[1:]]
        runner = run.Runner(wl, inputs, refs)
        runner.op(0)
        assert len(runner.failures) == fails
        assert runner.attempted == 1


def test_shipped_references_cover_each_pool():
    for name in workloads.WORKLOAD_NAMES:
        with open(os.path.join(run.REFS_DIR, f"{name}.json"), encoding="utf-8") as fh:
            refs = json.load(fh)
        assert refs, name
        pool = len(workloads.make_workload(name, run.WORK_DIR).make_inputs(0))
        assert all(len(per_seed) == pool for per_seed in refs.values()), name


def test_traced_self_times_add_up_to_the_op(tmp_path):
    wl = workloads.make_workload("cli-sweep", str(tmp_path), tiny=True)
    inp = wl.make_inputs(1)[0]
    tracer = tracing.Tracer()
    originals = (hmpce.turbo.run_turbo, hmpce.cli.main, hmpce.channels.PilotMatrix.apply)
    tracer.install(hmpce)
    try:
        tracer.op(0, wl.run, inp)
    finally:
        tracer.uninstall()
    assert (hmpce.turbo.run_turbo, hmpce.cli.main,
            hmpce.channels.PilotMatrix.apply) == originals
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.sweep", "cli.se", "turbo.run_turbo", "denoiser.chain",
            "se.mmse", "priors.mixture_moments", "channels.synth"} <= names
    root = next(span for span in tracer.spans if span[0] == "bench.op")
    totals = tracing._span_totals(tracer.spans, {0})
    self_sum = sum(entry["self"] for entry in totals.values())
    assert self_sum == pytest.approx(root[2] - root[1], rel=1e-9)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no package source" in proc.stderr
