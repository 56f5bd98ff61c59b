import dataclasses
import math
import os
import re

import numpy as np
import pytest

from oracles import run_sweep_per_snr
from hmpce import cli, turbo
from hmpce.channels import ChannelRealization, sample_channel, sample_support, save_channel
from hmpce.cli import (
    ExperimentConfig,
    build_parser,
    main,
    resolve_config,
    run_se,
    run_sweep,
)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def run_cli(*args):
    return main(list(args))


def small_args(out, **overrides):
    base = {
        "N": "32", "M": "13", "P": "2", "K": "64",
        "snr": "20", "algos": "hmp-tsgm-lvd", "trials": "1",
        "iters": "3", "seed": "5",
    }
    base.update(overrides)
    args = []
    for key, val in base.items():
        args += [f"--{key}", val]
    return args + ["--out", out]


def test_row_accounting_matches_flag_budget(tmp_path):
    out = str(tmp_path / "run")
    rc = run_cli(
        "--N", "256", "--M", "103", "--P", "32", "--snr", "15",
        "--algos", "hmp-tsgm-lvd", "--trials", "2", "--iters", "10",
        "--seed", "7", "--out", out,
    )
    assert rc == 0
    lines = read_lines(os.path.join(out, "nmse_vs_iter.csv"))
    assert lines[0] == "algo,snr_db,trial,iter,nmse_db"
    assert len(lines) == 21
    rows = [line.split(",") for line in lines[1:]]
    assert [r[2] for r in rows] == ["1"] * 10 + ["2"] * 10
    assert [r[3] for r in rows] == [str(i) for i in range(1, 11)] * 2


def test_repeated_runs_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["--N", "64", "--M", "26", "--P", "4", "--snr", "10,20",
            "--algos", "hmp-tsgm-lvd,hmp-bg", "--trials", "2",
            "--iters", "5", "--seed", "9"]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        with open(os.path.join(out1, name), "rb") as fh:
            body1 = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            body2 = fh.read()
        assert body1 == body2, name


def read_outputs(out):
    bodies = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            bodies[name] = fh.read()
    return bodies


@pytest.mark.parametrize("from_file", [False, True])
def test_repeated_list_values_run_once(tmp_path, from_file):
    # a repeated pilot length, SNR or algorithm is one point of the sweep:
    # it used to run, and write its rows and SE block, once per repeat
    base = ["--N", "32", "--K", "64", "--P", "2", "--iters", "3", "--trials", "1"]
    once = {"M": "13", "snr": "10", "algos": "hmp-tsgm"}
    repeated = {"M": "13,13", "snr": "10,10.0", "algos": "hmp-tsgm,hmp-tsgm"}
    outputs = []
    for i, lists in enumerate((once, repeated)):
        out = str(tmp_path / f"run{i}")
        if from_file:
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text("".join(f"{key} = {val}\n" for key, val in lists.items()))
            args = ["--config", str(cfg)]
        else:
            args = [arg for key, val in lists.items() for arg in (f"--{key}", val)]
        assert run_cli(*base, *args, "--out", out) == 0
        outputs.append(read_outputs(out))
    assert outputs[0] == outputs[1]
    assert len(read_lines(str(tmp_path / "run1" / "nmse_vs_snr.csv"))) == 2


def test_batched_sweep_rows_equal_the_per_snr_loop(tmp_path):
    # the SNR points of each (trial, M, algorithm) run as one batch; every
    # row equals the one-run-per-point loop's, bit for bit
    args = ["--N", "64", "--M", "26,40", "--P", "4", "--K", "64", "--snr", "30,inf,10",
            "--algos", "hmp-tsgm-lvd,hmp-tsgm,hmp-bg", "--trials", "2", "--iters", "15",
            "--seed", "1", "--out", str(tmp_path)]
    cfg = resolve_config(build_parser().parse_args(args))
    got, want = run_sweep(cfg), run_sweep_per_snr(cfg)
    assert got == want
    iter_rows = got[0]
    stops = {}
    for algo, snr, trial, it, _ in iter_rows:
        stops[(algo, trial, snr)] = it
    # a batch of every algorithm stops its members at different iterations
    assert all(
        any(len({stops[(algo, trial, snr)] for snr in cfg.snr}) > 1 for trial in (1, 2))
        for algo in cfg.algos
    )


def test_sweep_runs_each_batch_through_run_turbo(tmp_path, monkeypatch):
    # one batched run_turbo call per (trial, M, algorithm), with the SNR
    # points as its members; a profiler that times the turbo layer by
    # wrapping `run_turbo` sees every turbo run of the sweep
    args = ["--N", "32", "--M", "13,20", "--P", "2", "--K", "64", "--snr", "10,30,inf",
            "--algos", "hmp-tsgm-lvd,hmp-bg", "--trials", "2", "--iters", "3",
            "--out", str(tmp_path)]
    cfg = resolve_config(build_parser().parse_args(args))
    calls = []

    def recorded(measurements, pilots, algo_cfg, truth=None):
        calls.append([meas.snr_db for meas in measurements])
        return run_turbo(measurements, pilots, algo_cfg, truth)

    run_turbo = cli.run_turbo
    monkeypatch.setattr(cli, "run_turbo", recorded)
    run_sweep(cfg)
    assert calls == [[10.0, 30.0, math.inf]] * (2 * 2 * 2)


def test_missing_channel_file(tmp_path, capsys):
    rc = run_cli(*small_args(str(tmp_path / "o"), **{"channel-file": "missing.haf"}))
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_unknown_algorithm(tmp_path, capsys):
    rc = run_cli(*small_args(str(tmp_path / "o"), algos="hmp-nope"))
    assert rc == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment knobs\n"
        "N = 32\nM = 13\nP = 2\nK = 64\n"
        "snr = 10\nalgos = hmp-tsgm-lvd\ntrials = 1\niters = 2\nseed = 1\n"
    )
    out = str(tmp_path / "o")
    rc = run_cli("--config", str(cfg), "--seed", "2", "--out", out)
    assert rc == 0
    manifest = dict(
        line.split("=", 1) for line in read_lines(os.path.join(out, "manifest.txt"))
    )
    assert manifest["seed"] == "2"
    assert manifest["N"] == "32"


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("se_only", [False, True])
def test_nan_snr_flag_is_bad_input(tmp_path, capsys, se_only):
    out = tmp_path / "o"
    args = small_args(str(out), snr="10,nan", algos="hmp-bg", iters="2")
    rc = run_cli(*args, *(["--se-only"] if se_only else []))
    err = capsys.readouterr().err
    assert rc == 2
    assert "snr" in err and "nan" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_nan_snr_config_file_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 32\nM = 13\nP = 2\nK = 64\nsnr = nan\nalgos = hmp-bg\niters = 2\n")
    out = tmp_path / "o"
    rc = run_cli("--config", str(cfg), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 2
    assert "snr" in err and "nan" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["large_power", "small_variance", "bg_variance",
                                  "vl_lo", "vl_hi"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_variance_config_file_is_bad_input(tmp_path, capsys, name, bad):
    # without the check, large_power, small_variance or bg_variance = inf or
    # nan got past validation and died in PriorConfig (exit 1), and
    # vl_hi = inf in the channel sampler's uniform draw
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"N = 32\nM = 13\nP = 2\nK = 64\nsnr = 10\niters = 2\n{name} = {bad}\n")
    out = tmp_path / "o"
    rc = run_cli("--config", str(cfg), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 2
    assert name in err and bad in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("se_only", [False, True])
def test_minus_inf_snr_flag_is_bad_input(tmp_path, capsys, se_only):
    out = tmp_path / "o"
    args = small_args(str(out), algos="hmp-bg", iters="2")
    rc = run_cli(*args, "--snr=-inf", *(["--se-only"] if se_only else []))
    err = capsys.readouterr().err
    assert rc == 2
    assert "snr" in err and "-inf" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_minus_inf_snr_config_file_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 32\nM = 13\nP = 2\nK = 64\nsnr = 10, -inf\nalgos = hmp-bg\niters = 2\n")
    out = tmp_path / "o"
    rc = run_cli("--config", str(cfg), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 2
    assert "snr" in err and "-inf" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_manifest_is_sorted_flat_key_value(tmp_path):
    out = str(tmp_path / "o")
    assert run_cli(*small_args(out)) == 0
    lines = read_lines(os.path.join(out, "manifest.txt"))
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == sorted(keys)
    manifest = dict(line.split("=", 1) for line in lines)
    assert manifest["seed"] == "5"
    assert "version" in manifest and manifest["version"]


def test_se_only_outputs(tmp_path):
    cfg = tmp_path / "se.cfg"
    cfg.write_text("se_samples = 20000\n")
    out = str(tmp_path / "o")
    rc = run_cli(
        "--config", str(cfg), "--se-only", "--N", "512", "--M", "410",
        "--snr", "10,20,30", "--seed", "3", "--out", out,
    )
    assert rc == 0
    assert not os.path.exists(os.path.join(out, "nmse_vs_iter.csv"))
    lines = read_lines(os.path.join(out, "se_trace.csv"))
    assert lines[0] == "snr_db,iter,v,eta,predicted_nmse_db,converged"
    rows = [line.split(",") for line in lines[1:]]
    finals = {}
    for snr, it, v, eta, pred, _ in rows:
        assert float(v) > 0 and float(eta) > 0
        assert int(it) <= 100
        finals[float(snr)] = float(pred)
    assert sorted(finals) == [10.0, 20.0, 30.0]
    assert finals[10.0] > finals[20.0] > finals[30.0]


def test_se_only_without_an_algorithm_runs_the_tsgm_lvd_prior(tmp_path):
    # `--se-only` needs no algorithm: the trace is the tsgm-lvd prior's, and
    # the manifest records the empty list
    runs = {}
    for algos in ("", "hmp-tsgm-lvd"):
        out = str(tmp_path / (algos or "none"))
        rc = run_cli("--se-only", "--algos", algos, "--snr", "10,inf", "--N", "64",
                     "--M", "51", "--P", "2", "--K", "64", "--out", out)
        assert rc == 0
        assert sorted(os.listdir(out)) == ["manifest.txt", "se_trace.csv"]
        runs[algos] = read_outputs(out)
    assert runs[""]["se_trace.csv"] == runs["hmp-tsgm-lvd"]["se_trace.csv"]
    assert "algos=" in runs[""]["manifest.txt"].decode().splitlines()


@pytest.mark.parametrize(
    "algo, runs_to_limit",
    [("hmp-tsgm-lvd", False), ("hmp-tsgm", False), ("hmp-bg", True)],
)
def test_se_only_small_noisy_and_noiseless(tmp_path, capsys, algo, runs_to_limit):
    # every SE run exits cleanly with finite, positive rows; with no noise
    # the Bernoulli-Gaussian variance keeps shrinking geometrically, so that
    # run ends unconverged at its 100-iteration limit
    out = str(tmp_path / "o")
    rc = run_cli(
        "--se-only", "--algos", algo, "--snr", "10,inf", "--N", "64", "--M", "51",
        "--P", "2", "--K", "64", "--out", out,
    )
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in read_lines(os.path.join(out, "se_trace.csv"))[1:]]
    for _, _, v, eta, pred, _ in rows:
        assert 0.0 < float(v) < math.inf and 0.0 < float(eta) < math.inf
        assert math.isfinite(float(pred))
    manifest = dict(
        line.split("=", 1) for line in read_lines(os.path.join(out, "manifest.txt"))
    )
    for snr in ("10", "inf"):
        run = [r for r in rows if r[0] == snr]
        assert [int(r[1]) for r in run] == list(range(1, len(run) + 1))
        assert float(run[-1][2]) < float(run[0][2])
        unconverged = runs_to_limit and snr == "inf"
        assert (len(run) == 100) == unconverged
        # the limit is reported, not passed off as a fixed point
        assert {r[5] for r in run} == {"0" if unconverged else "1"}
        assert manifest[f"se_converged.{snr}"] == ("false" if unconverged else "true")


def test_se_only_noiseless_exact_recovery(tmp_path, capsys):
    # with M close to N and no noise the Bernoulli-Gaussian MMSE underflows
    # to 0 (at iteration 78): exact recovery, the fixed point v = 0, which
    # ends the run converged rather than failing it
    out = str(tmp_path / "o")
    rc = run_cli(
        "--se-only", "--algos", "hmp-bg", "--snr", "inf", "--N", "32", "--M", "31",
        "--P", "1", "--K", "64", "--out", out,
    )
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in read_lines(os.path.join(out, "se_trace.csv"))[1:]]
    assert len(rows) < 100
    assert all(0.0 < float(r[2]) for r in rows[:-1])
    assert float(rows[-1][2]) == 0.0 and rows[-1][5] == "1"
    assert "se_converged.inf=true" in read_lines(os.path.join(out, "manifest.txt"))


def test_noiseless_sweep_writes_the_se_trace_and_manifest(tmp_path, capsys):
    # the sweep runs the SE after its trials; the MMSE underflow at SNR = inf
    # used to fail that step after the sweep tables were written
    out = str(tmp_path / "o")
    args = small_args(out, snr="inf", algos="hmp-bg", M="31", P="1")
    assert run_cli(*args) == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(out)) == [
        "manifest.txt", "nmse_vs_iter.csv", "nmse_vs_m.csv", "nmse_vs_snr.csv",
        "se_trace.csv",
    ]
    last = read_lines(os.path.join(out, "se_trace.csv"))[-1].split(",")
    assert float(last[2]) == 0.0 and last[5] == "1"
    assert "se_converged.inf=true" in read_lines(os.path.join(out, "manifest.txt"))


def test_se_shares_one_sample_bank_across_snrs(monkeypatch):
    cfg = resolve_config(build_parser().parse_args(
        ["--se-only", "--algos", "hmp-tsgm", "--snr", "10,20,inf", "--N", "64",
         "--M", "51", "--seed", "4"]
    ))
    cfg.se_samples = 5000
    built = []
    init = turbo.MmseSampler.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(turbo.MmseSampler, "__init__", counted)
    rows = run_se(cfg)
    assert len(built) == 1
    # the same rows as one run per SNR, each drawing its own bank
    expect = []
    for snr in cfg.snr:
        expect += run_se(dataclasses.replace(cfg, snr=(snr,)))
    assert len(built) == 4
    assert rows == expect


def test_unwritable_output_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = run_cli(*small_args(str(blocker / "sub")))
    assert rc == 1
    assert "not writable" in capsys.readouterr().err


def test_invalid_dimension_inputs(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run_cli(*small_args(out, N="1")) == 2
    assert run_cli(*small_args(out, M="32")) == 2         # M must be < N
    assert run_cli(*small_args(out, P="65")) == 2         # P must be <= K
    assert run_cli(*small_args(out, trials="0")) == 2
    assert run_cli(*small_args(out, snr="abc")) == 2
    capsys.readouterr()
    # a value that is not a number names its key, from a flag or the file
    for key, bad in (("N", "abc"), ("trials", "x")):
        assert run_cli(*small_args(out, **{key: bad})) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key}: expected an integer, got {bad!r}\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("iters = x\n")
    assert run_cli("--config", str(cfg), "--out", out) == 2
    assert capsys.readouterr().err == "error: iters: expected an integer, got 'x'\n"


def test_channel_file_run_and_dimension_check(tmp_path, capsys):
    support = sample_support(32, 0.05, 0.20, rng_seed=np.random.SeedSequence(1))
    channel = sample_channel(support, 2, rng_seed=np.random.SeedSequence(2))
    path = str(tmp_path / "chan.haf")
    save_channel(path, channel)
    out = str(tmp_path / "o")
    rc = run_cli(*small_args(out, **{"channel-file": path}))
    assert rc == 0
    rc = run_cli(*small_args(str(tmp_path / "o2"), N="64", M="26",
                             **{"channel-file": path}))
    assert rc == 2
    assert "channel file has N=32" in capsys.readouterr().err


def test_all_zero_channel_file_is_bad_input(tmp_path, capsys):
    # an all-zero channel has no NMSE: it is bad input, reported before the
    # turbo loop's truth-energy check can raise
    path = str(tmp_path / "zero.haf")
    save_channel(path, ChannelRealization(np.zeros((32, 2), dtype=complex), None))
    out = tmp_path / "o"
    rc = run_cli(*small_args(str(out), algos="hmp-bg", **{"channel-file": path}))
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: channel_file: {path} holds an all-zero channel, whose NMSE " \
                  "is undefined\n"
    assert not out.exists()


def test_pilot_sweep_rows(tmp_path):
    out = str(tmp_path / "o")
    rc = run_cli(*small_args(out, M="13,26", iters="3"), "--no-early-stop")
    assert rc == 0
    m_lines = read_lines(os.path.join(out, "nmse_vs_m.csv"))
    assert m_lines[0] == "algo,snr_db,m,mean_nmse_db"
    ms = [line.split(",")[2] for line in m_lines[1:]]
    assert ms == ["13", "26"]
    # per-iteration trace only covers the first (primary) pilot length
    iter_lines = read_lines(os.path.join(out, "nmse_vs_iter.csv"))
    assert len(iter_lines) == 4


def test_rows_sorted_by_algo_snr_trial_iter(tmp_path):
    out = str(tmp_path / "o")
    rc = run_cli(*small_args(
        out, algos="hmp-tsgm-lvd,hmp-bg", snr="20,10", trials="2", iters="2",
    ))
    assert rc == 0
    rows = [
        line.split(",")
        for line in read_lines(os.path.join(out, "nmse_vs_iter.csv"))[1:]
    ]
    keys = [(r[0], float(r[1]), int(r[2]), int(r[3])) for r in rows]
    assert keys == sorted(keys)
    assert keys[0][0] == "hmp-bg"
    snr_rows = read_lines(os.path.join(out, "nmse_vs_snr.csv"))
    assert snr_rows[0] == "algo,snr_db,mean_nmse_db"
    assert len(snr_rows) == 5


def test_every_knob_round_trips_through_the_manifest(tmp_path):
    support = sample_support(40, 0.05, 0.20, rng_seed=np.random.SeedSequence(1))
    channel = sample_channel(support, 3, rng_seed=np.random.SeedSequence(2))
    path = str(tmp_path / "chan.haf")
    save_channel(path, channel)
    # every knob but out, each off its default and written as the manifest
    # prints it back
    values = {
        "N": "40", "K": "70", "P": "3", "M": "13,20", "snr": "12.5,inf",
        "algos": "hmp-bg,hmp-tsgm", "trials": "2", "iters": "4", "seed": "11",
        "channel_file": path, "reset_beliefs": "true", "std_gamma_weight": "true",
        "exact_digamma": "true", "no_early_stop": "true", "se_only": "true",
        "p10": "0.07", "p01": "0.3", "large_power": "1.5", "small_variance": "0.02",
        "bg_variance": "2", "vl_lo": "0.2", "vl_hi": "8", "se_samples": "500",
    }
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, text in values.items()))
    parsed = resolve_config(build_parser().parse_args(["--config", str(cfg)]))
    defaults = ExperimentConfig()
    for key in values:
        assert getattr(parsed, key) != getattr(defaults, key), key
    out = str(tmp_path / "o")
    assert run_cli("--config", str(cfg), "--out", out) == 0
    manifest = dict(
        line.split("=", 1) for line in read_lines(os.path.join(out, "manifest.txt"))
    )
    knobs = {key for key in manifest
             if key != "version" and not key.startswith("se_converged.")}
    assert knobs == set(values)
    for key, text in values.items():
        assert manifest[key] == text, key


def test_help_lists_the_config_flag_and_the_sixteen_knob_flags(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags == [
        "--config", "--N", "--K", "--P", "--M", "--snr", "--algos", "--trials",
        "--iters", "--seed", "--channel-file", "--out", "--reset-beliefs",
        "--std-gamma-weight", "--exact-digamma", "--no-early-stop", "--se-only",
    ]


@pytest.mark.parametrize("key, bad, rule", [
    ("N", "1", "must be at least 2, got 1"),
    ("K", "0", "must be at least 1, got 0"),
    ("P", "0", "must be at least 1, got 0"),
    ("M", "13,0", "must be at least 1, got 0"),
    ("M", ",", "need at least one value"),
    ("snr", "", "need at least one value"),
    ("trials", "0", "must be at least 1, got 0"),
    ("iters", "-2", "must be at least 1, got -2"),
    ("seed", "-1", "must be at least 0, got -1"),
    ("p10", "1.5", "must be in (0, 1), got 1.5"),
    ("p01", "0", "must be in (0, 1), got 0.0"),
    ("vl_lo", "-1", "must be positive and finite, got -1.0"),
    ("se_samples", "99", "must be at least 100, got 99"),
])
def test_a_knobs_own_rule_is_kept_by_its_parser(tmp_path, capsys, key, bad, rule):
    # the same one-line error, naming the key, from the config file and, for
    # a knob with a flag, from the flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {bad}\n")
    runs = [["--config", str(cfg)]]
    if key in vars(build_parser().parse_args([])):
        runs.append([f"--{key}", bad])
    out = tmp_path / "o"
    for args in runs:
        assert run_cli(*args, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {key}: {rule}\n"
    assert not out.exists()


@pytest.mark.parametrize("values, error", [
    ({"M": "13,32"}, "M: pilot length 32 must be less than N=32"),
    ({"P": "65"}, "need P <= K, got P=65, K=64"),
    ({"vl_lo": "2", "vl_hi": "1"}, "need vl_lo <= vl_hi, got vl_lo=2.0, vl_hi=1.0"),
    ({"algos": ""}, "algos: need at least one algorithm unless se_only is set"),
    ({"vl_lo": "2", "vl_hi": "2"}, None),
    ({"algos": "", "se_only": "true"}, None),
])
def test_rules_between_knobs(tmp_path, capsys, values, error):
    cfg = tmp_path / "run.cfg"
    base = {"N": "32", "M": "13", "P": "2", "K": "64", "snr": "10", "algos": "hmp-bg",
            "iters": "2", "se_samples": "1000"}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**base, **values}.items()))
    rc = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    if error is None:
        assert (rc, err) == (0, "")
    else:
        assert (rc, err) == (2, f"error: {error}\n")
