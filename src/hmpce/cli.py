"""Experiment runner.

Sweeps (algorithm x SNR x pilot count x trials), writes CSV artifacts plus a
flat key=value manifest that pins every knob needed to reproduce the run.
Configuration comes from an optional flat key=value file with flag
overrides (flags win).  All randomness is derived from the single --seed
through fixed derivation keys, so a repeated run is byte-identical; the
channel and pilot draws do not depend on the algorithm, so the estimators
are always compared on the same realizations.

Exit codes: 0 success, 1 runtime failure, 2 bad input.
"""

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channels import (
    load_channel,
    make_pilot_set,
    sample_channel,
    sample_support,
    stationary_activation,
    synthesize_measurements,
)
from .denoiser import PriorConfig
from .priors import VARIANT_BG, VARIANT_LVD, VARIANT_TSGM, ScalarPrior
from .turbo import (
    AlgoConfig,
    MmseSampler,
    SeUndefinedError,
    run_state_evolution,
    run_turbo,
    to_db,
)

ALGO_CHOICES = ("hmp-tsgm-lvd", "hmp-tsgm", "hmp-bg")

_ALGO_VARIANT = {
    "hmp-tsgm-lvd": VARIANT_LVD,
    "hmp-tsgm": VARIANT_TSGM,
    "hmp-bg": VARIANT_BG,
}

# derivation keys for the per-purpose random streams
_KEY_CHANNEL = 0
_KEY_PILOTS = 1
_KEY_NOISE = 2
_KEY_SE = 3


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    N: int = 256
    K: int = 512
    P: int = 32
    M_list: tuple = (103,)
    snr_db: tuple = (10.0, 20.0, 30.0)
    algos: tuple = ALGO_CHOICES
    trials: int = 1
    max_iters: int = 15
    seed: int = 0
    channel_file: str = ""
    out: str = "out"
    reset_beliefs: bool = False
    std_gamma_weight: bool = False
    exact_digamma: bool = False
    early_stop: bool = True
    se_only: bool = False
    # prior defaults (config-file keys only, no dedicated flags)
    p10: float = 0.05
    p01: float = 0.20
    large_power: float = 1.0
    small_variance: float = 0.01
    bg_variance: float = 1.0
    vl_lo: float = 0.1
    vl_hi: float = 10.0
    se_samples: int = 200_000
    channel: object = field(default=None, repr=False)


def _parse_int(text, key):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(text, key):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _parse_bool(text, key):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _split_list(text):
    return [t.strip() for t in str(text).split(",") if t.strip()]


def load_config_file(path):
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    return values


def build_parser():
    p = argparse.ArgumentParser(
        prog="hmpce",
        description="Turbo channel estimation experiment runner (CSV artifacts).",
    )
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    p.add_argument("--N", type=int, help="transform size / antenna count")
    p.add_argument("--K", type=int, help="total subcarrier count")
    p.add_argument("--P", type=int, help="pilot subcarrier count")
    p.add_argument("--M", help="pilot length(s), comma list sweeps the pilot count")
    p.add_argument("--snr", help="SNR in dB, comma list")
    p.add_argument("--algos", help="comma list from: " + ",".join(ALGO_CHOICES))
    p.add_argument("--trials", type=int, help="Monte-Carlo trials per point")
    p.add_argument("--iters", type=int, help="max turbo iterations")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--channel-file", metavar="PATH", help="load the channel instead of sampling")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--reset-beliefs", action="store_true", default=None,
                   help="re-initialize hyperparameter beliefs every turbo iteration")
    p.add_argument("--std-gamma-weight", action="store_true", default=None,
                   help="use exp<ln v> with the rate in the activity weight")
    p.add_argument("--exact-digamma", action="store_true", default=None,
                   help="use the exact digamma instead of ln x - 1/(2x)")
    p.add_argument("--no-early-stop", action="store_true", default=None,
                   help="always run the full iteration budget")
    p.add_argument("--se-only", action="store_true", default=None,
                   help="write only the state-evolution trace")
    return p


_CONFIG_KEYS = {
    "N": ("N", _parse_int),
    "K": ("K", _parse_int),
    "P": ("P", _parse_int),
    "M": ("M", str),
    "snr": ("snr", str),
    "algos": ("algos", str),
    "trials": ("trials", _parse_int),
    "iters": ("iters", _parse_int),
    "seed": ("seed", _parse_int),
    "channel_file": ("channel_file", str),
    "out": ("out", str),
    "reset_beliefs": ("reset_beliefs", _parse_bool),
    "std_gamma_weight": ("std_gamma_weight", _parse_bool),
    "exact_digamma": ("exact_digamma", _parse_bool),
    "no_early_stop": ("no_early_stop", _parse_bool),
    "se_only": ("se_only", _parse_bool),
    "p10": ("p10", _parse_float),
    "p01": ("p01", _parse_float),
    "large_power": ("large_power", _parse_float),
    "small_variance": ("small_variance", _parse_float),
    "bg_variance": ("bg_variance", _parse_float),
    "vl_lo": ("vl_lo", _parse_float),
    "vl_hi": ("vl_hi", _parse_float),
    "se_samples": ("se_samples", _parse_int),
}


def resolve_config(args):
    """Merge defaults <- config file <- flags and validate."""
    merged = {}
    if args.config:
        raw = load_config_file(args.config)
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            name, conv = _CONFIG_KEYS[key]
            merged[name] = conv(value, key) if conv is not str else value

    def flag(name, key=None):
        val = getattr(args, name if key is None else key)
        if val is not None:
            merged[name] = val

    for name in ("N", "K", "P", "trials", "iters", "seed", "out"):
        flag(name)
    flag("M")
    flag("snr")
    flag("algos")
    flag("channel_file", key="channel_file")
    for name in ("reset_beliefs", "std_gamma_weight", "exact_digamma",
                 "no_early_stop", "se_only"):
        flag(name)

    cfg = ExperimentConfig()
    cfg.N = int(merged.get("N", cfg.N))
    cfg.K = int(merged.get("K", cfg.K))
    cfg.P = int(merged.get("P", cfg.P))
    cfg.trials = int(merged.get("trials", cfg.trials))
    cfg.max_iters = int(merged.get("iters", cfg.max_iters))
    cfg.seed = int(merged.get("seed", cfg.seed))
    cfg.out = str(merged.get("out", cfg.out))
    cfg.channel_file = str(merged.get("channel_file", cfg.channel_file))
    cfg.reset_beliefs = bool(merged.get("reset_beliefs", cfg.reset_beliefs))
    cfg.std_gamma_weight = bool(merged.get("std_gamma_weight", cfg.std_gamma_weight))
    cfg.exact_digamma = bool(merged.get("exact_digamma", cfg.exact_digamma))
    cfg.early_stop = not bool(merged.get("no_early_stop", False))
    cfg.se_only = bool(merged.get("se_only", cfg.se_only))
    for name in ("p10", "p01", "large_power", "small_variance", "bg_variance",
                 "vl_lo", "vl_hi", "se_samples"):
        if name in merged:
            setattr(cfg, name, merged[name])

    if "M" in merged:
        cfg.M_list = tuple(_parse_int(t, "M") for t in _split_list(merged["M"]))
    if "snr" in merged:
        cfg.snr_db = tuple(_parse_float(t, "snr") for t in _split_list(merged["snr"]))
    if "algos" in merged:
        algos = []
        for name in _split_list(merged["algos"]):
            if name not in ALGO_CHOICES:
                raise ConfigError(
                    f"unknown algorithm {name!r}; choose from {', '.join(ALGO_CHOICES)}"
                )
            if name not in algos:
                algos.append(name)
        cfg.algos = tuple(algos)

    _validate(cfg)
    if cfg.channel_file:
        cfg.channel = _load_channel_checked(cfg)
    return cfg


def _validate(cfg):
    if cfg.N < 2:
        raise ConfigError("N must be at least 2")
    if not cfg.M_list:
        raise ConfigError("need at least one pilot length")
    for m in cfg.M_list:
        if not 1 <= m < cfg.N:
            raise ConfigError(f"pilot length M={m} must satisfy 1 <= M < N={cfg.N}")
    if cfg.P < 1 or cfg.P > cfg.K:
        raise ConfigError(f"need 1 <= P <= K, got P={cfg.P}, K={cfg.K}")
    if not cfg.snr_db:
        raise ConfigError("need at least one SNR value")
    for snr in cfg.snr_db:
        if math.isnan(snr) or snr == -math.inf:
            raise ConfigError(f"snr: an SNR value is {snr}; give dB values or inf")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.max_iters < 1:
        raise ConfigError("iters must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if not cfg.algos and not cfg.se_only:
        raise ConfigError("need at least one algorithm")
    if not (0.0 < cfg.p10 < 1.0 and 0.0 < cfg.p01 < 1.0):
        raise ConfigError("p10 and p01 must lie in (0, 1)")
    for name in ("large_power", "small_variance", "bg_variance", "vl_lo", "vl_hi"):
        value = getattr(cfg, name)
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    if cfg.vl_lo > cfg.vl_hi:
        raise ConfigError("need vl_lo <= vl_hi")
    if cfg.se_samples < 100:
        raise ConfigError("se_samples must be >= 100")


def _load_channel_checked(cfg):
    path = cfg.channel_file
    if not os.path.exists(path):
        raise ConfigError(f"no such file: {path}")
    try:
        channel = load_channel(path)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if channel.N != cfg.N or channel.P != cfg.P:
        raise ConfigError(
            f"channel file has N={channel.N}, P={channel.P}; "
            f"run is configured for N={cfg.N}, P={cfg.P}"
        )
    return channel


def scalar_prior_for(cfg, algo):
    return ScalarPrior(
        variant=_ALGO_VARIANT[algo],
        activation=stationary_activation(cfg.p10, cfg.p01),
        large_power=cfg.large_power,
        small_variance=cfg.bg_variance if _ALGO_VARIANT[algo] == VARIANT_BG else cfg.small_variance,
        spread=(cfg.vl_lo, cfg.vl_hi),
    )


def algo_config_for(cfg, algo):
    pc = PriorConfig(
        variant=_ALGO_VARIANT[algo],
        large_rate=cfg.large_power,
        small_rate=cfg.small_variance,
        bg_variance=cfg.bg_variance,
        exact_digamma=cfg.exact_digamma,
        std_gamma_weight=cfg.std_gamma_weight,
    )
    return AlgoConfig(
        name=algo,
        prior=pc,
        init_variance=scalar_prior_for(cfg, algo).mean_power(),
        max_iters=cfg.max_iters,
        early_stop=cfg.early_stop,
        reset_beliefs=cfg.reset_beliefs,
    )


def _trial_channel(cfg, trial):
    if cfg.channel is not None:
        return cfg.channel
    key = np.random.SeedSequence((cfg.seed, _KEY_CHANNEL, trial))
    support_seed, gain_seed = key.spawn(2)
    support = sample_support(cfg.N, cfg.p10, cfg.p01, rng_seed=support_seed)
    return sample_channel(
        support,
        cfg.P,
        vL_spread=(cfg.vl_lo, cfg.vl_hi),
        vS=1.0 / cfg.small_variance,
        rng_seed=gain_seed,
        large_power=cfg.large_power,
    )


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(cfg, path, se_rows):
    """The run's knobs, plus `se_converged.<snr>` from each SNR's SE rows."""
    entries = {
        "version": __version__,
        "seed": cfg.seed,
        "N": cfg.N,
        "K": cfg.K,
        "P": cfg.P,
        "M": ",".join(str(m) for m in cfg.M_list),
        "snr": ",".join(_fmt(s) for s in cfg.snr_db),
        "algos": ",".join(cfg.algos),
        "trials": cfg.trials,
        "iters": cfg.max_iters,
        "channel_file": cfg.channel_file,
        "reset_beliefs": cfg.reset_beliefs,
        "std_gamma_weight": cfg.std_gamma_weight,
        "exact_digamma": cfg.exact_digamma,
        "no_early_stop": not cfg.early_stop,
        "se_only": cfg.se_only,
        "p10": cfg.p10,
        "p01": cfg.p01,
        "large_power": cfg.large_power,
        "small_variance": cfg.small_variance,
        "bg_variance": cfg.bg_variance,
        "vl_lo": cfg.vl_lo,
        "vl_hi": cfg.vl_hi,
        "se_samples": cfg.se_samples,
    }
    for snr, *_, converged in se_rows:
        entries[f"se_converged.{_fmt(snr)}"] = bool(converged)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            value = entries[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = _fmt(value)
            fh.write(f"{key}={value}\n")


def run_sweep(cfg):
    """All turbo runs; returns (iter_rows, snr_rows, m_rows)."""
    iter_rows = []
    finals = {}  # (algo, snr, m) -> [linear nmse per trial]
    algo_cfgs = {algo: algo_config_for(cfg, algo) for algo in cfg.algos}
    primary_m = cfg.M_list[0]
    for trial in range(1, cfg.trials + 1):
        channel = _trial_channel(cfg, trial)
        truth = channel.gains
        for m_idx, m in enumerate(cfg.M_list):
            pilot_key = np.random.SeedSequence((cfg.seed, _KEY_PILOTS, trial, m_idx))
            pilots = make_pilot_set(cfg.N, m, cfg.P, rng_seed=pilot_key)
            for snr_idx, snr in enumerate(sorted(cfg.snr_db)):
                noise_key = np.random.SeedSequence(
                    (cfg.seed, _KEY_NOISE, trial, m_idx, snr_idx)
                )
                meas = synthesize_measurements(channel, pilots, snr, rng_seed=noise_key)
                for algo in cfg.algos:
                    _, trace = run_turbo(meas, pilots, algo_cfgs[algo], truth=truth)
                    if m == primary_m:
                        for it, val in enumerate(trace.nmse, 1):
                            iter_rows.append((algo, snr, trial, it, to_db(val)))
                    finals.setdefault((algo, snr, m), []).append(trace.nmse[-1])
    iter_rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    snr_rows = [
        (algo, snr, to_db(float(np.mean(finals[(algo, snr, primary_m)]))))
        for algo in sorted(cfg.algos)
        for snr in sorted(cfg.snr_db)
    ]
    m_rows = [
        (algo, snr, m, to_db(float(np.mean(finals[(algo, snr, m)]))))
        for algo in sorted(cfg.algos)
        for snr in sorted(cfg.snr_db)
        for m in sorted(cfg.M_list)
    ]
    return iter_rows, snr_rows, m_rows


def run_se(cfg):
    """State-evolution traces, one block per SNR (ascending), all from one
    sample bank.

    Each row is (snr, iter, v, eta, predicted_nmse_db, converged); the
    last is 1 on every row of an SNR whose run met the tolerance, 0 when it
    stopped at the 100-iteration limit.
    """
    variant_algo = cfg.algos[0] if cfg.algos else "hmp-tsgm-lvd"
    prior = scalar_prior_for(cfg, variant_algo)
    se_seed = int(np.random.SeedSequence((cfg.seed, _KEY_SE)).generate_state(1)[0])
    sampler = MmseSampler(prior, cfg.se_samples, se_seed)
    rows = []
    for snr in sorted(cfg.snr_db):
        trace = run_state_evolution(
            prior, snr, cfg.N, cfg.M_list[0], max_iters=100, tol=1e-8, sampler=sampler
        )
        for it, v, eta, pred in trace.rows:
            rows.append((snr, it, v, eta, to_db(pred), int(trace.converged)))
    return rows


def run(cfg):
    try:
        os.makedirs(cfg.out, exist_ok=True)
        probe = os.path.join(cfg.out, ".write_probe")
        with open(probe, "w", encoding="utf-8"):
            pass
        os.remove(probe)
    except OSError as err:
        print(f"error: output directory not writable: {err}", file=sys.stderr)
        return 1

    try:
        if not cfg.se_only:
            iter_rows, snr_rows, m_rows = run_sweep(cfg)
            _write_csv(
                os.path.join(cfg.out, "nmse_vs_iter.csv"),
                ("algo", "snr_db", "trial", "iter", "nmse_db"),
                iter_rows,
            )
            _write_csv(
                os.path.join(cfg.out, "nmse_vs_snr.csv"),
                ("algo", "snr_db", "mean_nmse_db"),
                snr_rows,
            )
            _write_csv(
                os.path.join(cfg.out, "nmse_vs_m.csv"),
                ("algo", "snr_db", "m", "mean_nmse_db"),
                m_rows,
            )
        se_rows = run_se(cfg)
        _write_csv(
            os.path.join(cfg.out, "se_trace.csv"),
            ("snr_db", "iter", "v", "eta", "predicted_nmse_db", "converged"),
            se_rows,
        )
        _write_manifest(cfg, os.path.join(cfg.out, "manifest.txt"), se_rows)
    except SeUndefinedError as err:
        print(f"error: state evolution undefined at iteration {err.iteration}: {err}",
              file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
