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
from dataclasses import dataclass, field, fields

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

_ALGO_VARIANT = {
    "hmp-tsgm-lvd": VARIANT_LVD,
    "hmp-tsgm": VARIANT_TSGM,
    "hmp-bg": VARIANT_BG,
}
ALGO_CHOICES = tuple(_ALGO_VARIANT)

# derivation keys for the per-purpose random streams
_KEY_CHANNEL = 0
_KEY_PILOTS = 1
_KEY_NOISE = 2
_KEY_SE = 3


class ConfigError(Exception):
    pass


def _parse_str(text, key):
    return text


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
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _split_list(text):
    return [t.strip() for t in text.split(",") if t.strip()]


def _list_of(parse):
    """A parser for a comma list whose items each go through `parse`."""
    def parse_list(text, key):
        return tuple(parse(t, key) for t in _split_list(text))
    return parse_list


def _parse_algos(text, key):
    names = _split_list(text)
    for name in names:
        if name not in ALGO_CHOICES:
            raise ConfigError(
                f"unknown algorithm {name!r}; choose from {', '.join(ALGO_CHOICES)}"
            )
    return tuple(dict.fromkeys(names))


def _knob(default, parse, help=None, metavar=None, manifest=True):
    """A run knob.  The field name is its config-file key, its manifest key
    and, with help text, its flag `--<name>` (`_` written as `-`; a boolean
    flag takes no value).  `parse(text, key)` turns the text from the config
    file or a flag into the value."""
    return field(default=default, metadata={
        "parse": parse, "help": help, "metavar": metavar, "manifest": manifest,
    })


@dataclass
class ExperimentConfig:
    N: int = _knob(256, _parse_int, "transform size / antenna count")
    K: int = _knob(512, _parse_int, "total subcarrier count")
    P: int = _knob(32, _parse_int, "pilot subcarrier count")
    M: tuple = _knob((103,), _list_of(_parse_int),
                     "pilot length(s), comma list sweeps the pilot count")
    snr: tuple = _knob((10.0, 20.0, 30.0), _list_of(_parse_float), "SNR in dB, comma list")
    algos: tuple = _knob(ALGO_CHOICES, _parse_algos,
                         "comma list from: " + ",".join(ALGO_CHOICES))
    trials: int = _knob(1, _parse_int, "Monte-Carlo trials per point")
    iters: int = _knob(15, _parse_int, "max turbo iterations")
    seed: int = _knob(0, _parse_int, "master seed")
    channel_file: str = _knob("", _parse_str, "load the channel instead of sampling",
                              metavar="PATH")
    out: str = _knob("out", _parse_str, "output directory", metavar="DIR", manifest=False)
    reset_beliefs: bool = _knob(
        False, _parse_bool, "re-initialize hyperparameter beliefs every turbo iteration")
    std_gamma_weight: bool = _knob(
        False, _parse_bool, "use exp<ln v> with the rate in the activity weight")
    exact_digamma: bool = _knob(
        False, _parse_bool, "use the exact digamma instead of ln x - 1/(2x)")
    no_early_stop: bool = _knob(False, _parse_bool, "always run the full iteration budget")
    se_only: bool = _knob(False, _parse_bool, "write only the state-evolution trace")
    # prior knobs (config-file keys only, no flags)
    p10: float = _knob(0.05, _parse_float)
    p01: float = _knob(0.20, _parse_float)
    large_power: float = _knob(1.0, _parse_float)
    small_variance: float = _knob(0.01, _parse_float)
    bg_variance: float = _knob(1.0, _parse_float)
    vl_lo: float = _knob(0.1, _parse_float)
    vl_hi: float = _knob(10.0, _parse_float)
    se_samples: int = _knob(200_000, _parse_int)
    channel: object = field(default=None, repr=False)


_KNOBS = tuple(f for f in fields(ExperimentConfig) if "parse" in f.metadata)


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
    """`--config` plus one flag per knob with help text; every flag value
    stays a string until `resolve_config` parses it."""
    p = argparse.ArgumentParser(
        prog="hmpce",
        description="Turbo channel estimation experiment runner (CSV artifacts).",
    )
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for knob in _KNOBS:
        help_text = knob.metadata["help"]
        if help_text is None:
            continue
        flag = "--" + knob.name.replace("_", "-")
        if isinstance(knob.default, bool):
            p.add_argument(flag, action="store_const", const="true", help=help_text)
        else:
            p.add_argument(flag, metavar=knob.metadata["metavar"], help=help_text)
    return p


def resolve_config(args):
    """Merge defaults <- config file <- flags, parse each given value with its
    knob's parser, and validate."""
    given = load_config_file(args.config) if args.config else {}
    parsers = {knob.name: knob.metadata["parse"] for knob in _KNOBS}
    for key in given:
        if key not in parsers:
            raise ConfigError(f"unknown config key {key!r}")
    for name in parsers:
        flag = getattr(args, name, None)
        if flag is not None:
            given[name] = flag
    cfg = ExperimentConfig(**{key: parsers[key](text, key) for key, text in given.items()})
    _validate(cfg)
    if cfg.channel_file:
        cfg.channel = _load_channel_checked(cfg)
    return cfg


def _validate(cfg):
    if cfg.N < 2:
        raise ConfigError("N must be at least 2")
    if not cfg.M:
        raise ConfigError("need at least one pilot length")
    for m in cfg.M:
        if not 1 <= m < cfg.N:
            raise ConfigError(f"pilot length M={m} must satisfy 1 <= M < N={cfg.N}")
    if cfg.P < 1 or cfg.P > cfg.K:
        raise ConfigError(f"need 1 <= P <= K, got P={cfg.P}, K={cfg.K}")
    if not cfg.snr:
        raise ConfigError("need at least one SNR value")
    for snr in cfg.snr:
        if math.isnan(snr) or snr == -math.inf:
            raise ConfigError(f"snr: an SNR value is {snr}; give dB values or inf")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.iters < 1:
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
        small_variance=cfg.small_variance,
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
        max_iters=cfg.iters,
        early_stop=not cfg.no_early_stop,
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


def _manifest_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value)


def _write_manifest(cfg, path, se_rows):
    """The run's knobs, plus `se_converged.<snr>` from each SNR's SE rows."""
    entries = {
        knob.name: getattr(cfg, knob.name) for knob in _KNOBS if knob.metadata["manifest"]
    }
    entries["version"] = __version__
    for snr, *_, converged in se_rows:
        entries[f"se_converged.{_fmt(snr)}"] = bool(converged)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={_manifest_value(entries[key])}\n")


def run_sweep(cfg):
    """All turbo runs; returns (iter_rows, snr_rows, m_rows)."""
    iter_rows = []
    finals = {}  # (algo, snr, m) -> [linear nmse per trial]
    algo_cfgs = {algo: algo_config_for(cfg, algo) for algo in cfg.algos}
    primary_m = cfg.M[0]
    for trial in range(1, cfg.trials + 1):
        channel = _trial_channel(cfg, trial)
        truth = channel.gains
        for m_idx, m in enumerate(cfg.M):
            pilot_key = np.random.SeedSequence((cfg.seed, _KEY_PILOTS, trial, m_idx))
            pilots = make_pilot_set(cfg.N, m, cfg.P, rng_seed=pilot_key)
            for snr_idx, snr in enumerate(sorted(cfg.snr)):
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
        for snr in sorted(cfg.snr)
    ]
    m_rows = [
        (algo, snr, m, to_db(float(np.mean(finals[(algo, snr, m)]))))
        for algo in sorted(cfg.algos)
        for snr in sorted(cfg.snr)
        for m in sorted(cfg.M)
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
    for snr in sorted(cfg.snr):
        trace = run_state_evolution(
            prior, snr, cfg.N, cfg.M[0], max_iters=100, tol=1e-8, sampler=sampler
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
