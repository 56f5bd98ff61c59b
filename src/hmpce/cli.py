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


def _parse_bool(text, key):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _checked(rule, wanted, convert=float, noun="a number"):
    """A parser that converts the text with `convert` and keeps the knob's
    own rule: a value for which `rule` is false is bad input, worded as
    `<key>: must be <wanted>`."""
    def parse(text, key):
        try:
            value = convert(text)
        except ValueError:
            raise ConfigError(f"{key}: expected {noun}, got {text!r}") from None
        if not rule(value):
            raise ConfigError(f"{key}: must be {wanted}, got {value}")
        return value
    return parse


def _int_at_least(low):
    return _checked(lambda n: n >= low, f"at least {low}", int, "an integer")


_positive_finite = _checked(lambda x: 0.0 < x < math.inf, "positive and finite")
_in_unit_interval = _checked(lambda x: 0.0 < x < 1.0, "in (0, 1)")
_snr_db = _checked(lambda x: not math.isnan(x) and x != -math.inf, "a dB value or inf")


def _list_of(parse, empty_ok=False):
    """A parser for a comma list whose items each go through `parse`; a
    repeated value is kept once, where it first appears.  An empty list is
    bad input unless `empty_ok`."""
    def parse_list(text, key):
        items = (t.strip() for t in text.split(","))
        values = tuple(dict.fromkeys(parse(t, key) for t in items if t))
        if not values and not empty_ok:
            raise ConfigError(f"{key}: need at least one value")
        return values
    return parse_list


def _parse_algo(text, key):
    if text not in ALGO_CHOICES:
        raise ConfigError(
            f"{key}: unknown algorithm {text!r}; choose from {', '.join(ALGO_CHOICES)}"
        )
    return text


def _knob(default, parse, help=None, metavar=None, manifest=True):
    """A run knob.  The field name is its config-file key, its manifest key
    and, with help text, its flag `--<name>` (`_` written as `-`; a boolean
    flag takes no value).  `parse(text, key)` turns the text from the config
    file or a flag into the value and raises `ConfigError` for a value that
    breaks the knob's own rule; `_validate` keeps the rules between knobs."""
    return field(default=default, metadata={
        "parse": parse, "help": help, "metavar": metavar, "manifest": manifest,
    })


@dataclass
class ExperimentConfig:
    N: int = _knob(256, _int_at_least(2), "transform size / antenna count")
    K: int = _knob(512, _int_at_least(1), "total subcarrier count: checked against P (P <= K) "
                   "and recorded in the manifest; no computation reads it")
    P: int = _knob(32, _int_at_least(1), "pilot subcarrier count")
    M: tuple = _knob((103,), _list_of(_int_at_least(1)),
                     "pilot length(s), comma list sweeps the pilot count")
    snr: tuple = _knob((10.0, 20.0, 30.0), _list_of(_snr_db), "SNR in dB, comma list")
    algos: tuple = _knob(ALGO_CHOICES, _list_of(_parse_algo, empty_ok=True),
                         "comma list from: " + ",".join(ALGO_CHOICES))
    trials: int = _knob(1, _int_at_least(1), "Monte-Carlo trials per point")
    iters: int = _knob(15, _int_at_least(1), "max turbo iterations")
    seed: int = _knob(0, _int_at_least(0), "master seed")
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
    p10: float = _knob(0.05, _in_unit_interval)
    p01: float = _knob(0.20, _in_unit_interval)
    large_power: float = _knob(1.0, _positive_finite)
    small_variance: float = _knob(0.01, _positive_finite)
    bg_variance: float = _knob(1.0, _positive_finite)
    vl_lo: float = _knob(0.1, _positive_finite)
    vl_hi: float = _knob(10.0, _positive_finite)
    se_samples: int = _knob(200_000, _int_at_least(100))
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
    """The rules that read more than one knob; each knob's own rule is kept
    by its parser."""
    for m in cfg.M:
        if m >= cfg.N:
            raise ConfigError(f"M: pilot length {m} must be less than N={cfg.N}")
    if cfg.P > cfg.K:
        raise ConfigError(f"need P <= K, got P={cfg.P}, K={cfg.K}")
    if cfg.vl_lo > cfg.vl_hi:
        raise ConfigError(f"need vl_lo <= vl_hi, got vl_lo={cfg.vl_lo}, vl_hi={cfg.vl_hi}")
    if not cfg.algos and not cfg.se_only:
        raise ConfigError("algos: need at least one algorithm unless se_only is set")


def _load_channel_checked(cfg):
    path = cfg.channel_file
    if not os.path.exists(path):
        raise ConfigError(f"channel_file: no such file: {path}")
    try:
        channel = load_channel(path)
    except ValueError as err:
        raise ConfigError(f"channel_file: {err}") from None
    if not np.any(channel.gains):
        raise ConfigError(f"channel_file: {path} holds an all-zero channel, whose NMSE "
                          "is undefined")
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
    """All turbo runs; returns (iter_rows, snr_rows, m_rows).

    The SNR points of one (trial, pilot length, algorithm) share the
    channel and the pilots, so they run as the members of one batched
    `run_turbo` call.
    """
    iter_rows = []
    finals = {}  # (algo, snr, m) -> [linear nmse per trial]
    algo_cfgs = {algo: algo_config_for(cfg, algo) for algo in cfg.algos}
    primary_m = cfg.M[0]
    snrs = sorted(cfg.snr)
    for trial in range(1, cfg.trials + 1):
        channel = _trial_channel(cfg, trial)
        truth = channel.gains
        for m_idx, m in enumerate(cfg.M):
            pilot_key = np.random.SeedSequence((cfg.seed, _KEY_PILOTS, trial, m_idx))
            pilots = make_pilot_set(cfg.N, m, cfg.P, rng_seed=pilot_key)
            meas = [
                synthesize_measurements(
                    channel, pilots, snr,
                    rng_seed=np.random.SeedSequence((cfg.seed, _KEY_NOISE, trial, m_idx, snr_idx)),
                )
                for snr_idx, snr in enumerate(snrs)
            ]
            for algo in cfg.algos:
                # every SNR point as one member of one batched run
                _, traces = run_turbo(meas, pilots, algo_cfgs[algo], [truth] * len(meas))
                for snr, trace in zip(snrs, traces):
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
    last is 1 on every row of an SNR whose run met the tolerance or, at an
    SNR of inf, reached exact recovery (v = 0), and 0 when it stopped at
    `run_state_evolution`'s iteration limit.
    """
    variant_algo = cfg.algos[0] if cfg.algos else "hmp-tsgm-lvd"
    prior = scalar_prior_for(cfg, variant_algo)
    se_seed = int(np.random.SeedSequence((cfg.seed, _KEY_SE)).generate_state(1)[0])
    sampler = MmseSampler(prior, cfg.se_samples, se_seed)
    rows = []
    for snr in sorted(cfg.snr):
        trace = run_state_evolution(prior, snr, cfg.N, cfg.M[0], sampler=sampler)
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
