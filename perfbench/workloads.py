"""The four benchmark workloads.

Each workload turns a seed into a fixed pool of inputs (`make_inputs`),
runs one operation on one input through the package's public entry points
(`run`), checks the output (`check`), and reports what the end-to-end
metrics need from a result (`iterations`, `final_nmse`, `summary`).  The
harness cycles through the pool, so every run covers every input of the
pool the same number of times.  WORKLOADS.md records why each workload was
chosen.

`check` returns None or what is wrong with a result; `summary` is the list
of numbers the harness compares against the shipped references in `refs/`.
"""

import csv
import math
import os
import shutil

import numpy as np

from hmpce import channels, cli, turbo
from hmpce.denoiser import PriorConfig
from hmpce.priors import VARIANT_BG, VARIANT_LVD, VARIANT_TSGM, ScalarPrior

# Criterion 6's bound on the extrinsic round-trip identity.
ROUNDTRIP_BOUND = 1e-10

# Channel model and prior hyperparameters: the CLI defaults.
P10, P01 = 0.05, 0.20
SMALL_VARIANCE = 0.01
BG_VARIANCE = 1.0
VL_SPREAD = (0.1, 10.0)

# Host-speed probe kernels (probe.py) per workload: the ones whose speed
# tracked the workload's op time best on a shared 2-core VM.  cli-sweep
# mixes the turbo and SE work of the others, so it probes with all four.
PROBE_CHAIN = ("loop", "python")
PROBE_WIDE = ("loop", "wide", "python")
PROBE_SE = ("wide", "big")
PROBE_CLI = ("loop", "wide", "python", "big")

CLI_FILES = ("nmse_vs_iter.csv", "nmse_vs_snr.csv", "nmse_vs_m.csv",
             "se_trace.csv", "manifest.txt")


def scalar_prior(variant):
    """The CLI's scalar prior for a variant (the bg slab uses bg_variance)."""
    return ScalarPrior(
        variant=variant,
        activation=channels.stationary_activation(P10, P01),
        large_power=1.0,
        small_variance=BG_VARIANCE if variant == VARIANT_BG else SMALL_VARIANCE,
        spread=VL_SPREAD,
    )


def lvd_config(max_iters):
    """hmp-tsgm-lvd with a fixed iteration budget and no early stop."""
    prior = PriorConfig(
        variant=VARIANT_LVD, large_rate=1.0, small_rate=SMALL_VARIANCE,
        bg_variance=BG_VARIANCE,
    )
    return turbo.AlgoConfig(
        name="hmp-tsgm-lvd", prior=prior,
        init_variance=scalar_prior(VARIANT_LVD).mean_power(),
        max_iters=max_iters, early_stop=False,
    )


class TurboWorkload:
    """`run_turbo` on synthesized (channel, pilots, measurements) triples."""

    def __init__(self, key, N, P, M, snr_db, iters, pool, probe):
        self.key = key
        self.probe = probe
        self.N, self.P, self.M = N, P, M
        self.snr_db = snr_db
        self.cfg = lvd_config(iters)
        self.pool = pool

    def make_inputs(self, seed):
        inputs = []
        for i in range(self.pool):
            ss = np.random.SeedSequence((seed, self.key, i))
            support_seed, gain_seed, pilot_seed, noise_seed = ss.spawn(4)
            support = channels.sample_support(self.N, P10, P01, rng_seed=support_seed)
            chan = channels.sample_channel(
                support, self.P, vL_spread=VL_SPREAD, vS=1.0 / SMALL_VARIANCE,
                rng_seed=gain_seed,
            )
            pilots = channels.make_pilot_set(self.N, self.M, self.P, rng_seed=pilot_seed)
            meas = channels.synthesize_measurements(
                chan, pilots, self.snr_db, rng_seed=noise_seed
            )
            inputs.append((meas, pilots, chan.gains))
        return inputs

    def run(self, inp):
        meas, pilots, truth = inp
        return turbo.run_turbo(meas, pilots, self.cfg, truth=truth)

    def check(self, inp, result):
        estimate, trace = result
        if not np.isfinite(estimate).all():
            return "non-finite estimate"
        if not all(math.isfinite(v) for v in trace.nmse):
            return "non-finite NMSE trace"
        if trace.iterations != self.cfg.max_iters:
            return f"ran {trace.iterations} of {self.cfg.max_iters} iterations"
        worst = max(trace.roundtrip_err)
        if not worst <= ROUNDTRIP_BOUND:
            return f"round-trip error {worst:.3g} > {ROUNDTRIP_BOUND:g}"
        return None

    @staticmethod
    def iterations(result):
        return result[1].iterations

    @staticmethod
    def final_nmse(inp, result):
        return result[1].nmse[-1]

    @staticmethod
    def summary(result):
        return [float(v) for v in result[1].nmse]


SE_POINTS = [(variant, snr) for variant in (VARIANT_LVD, VARIANT_TSGM, VARIANT_BG)
             for snr in (10.0, 20.0, 30.0)]


class SeWorkload:
    """`run_state_evolution` to its fixed point, one (prior, SNR) per op."""

    key = 3
    probe = PROBE_SE

    def __init__(self, N, M, num_samples, points):
        self.N, self.M = N, M
        self.num_samples = num_samples
        self.points = points

    def make_inputs(self, seed):
        se_seed = int(np.random.SeedSequence((seed, self.key)).generate_state(1)[0])
        return [(scalar_prior(variant), snr, se_seed) for variant, snr in self.points]

    def run(self, inp):
        prior, snr, se_seed = inp
        return turbo.run_state_evolution(
            prior, snr, self.N, self.M, num_samples=self.num_samples, seed=se_seed
        )

    def check(self, inp, result):
        if not result.converged:
            return "state evolution did not converge"
        if not all(math.isfinite(v) and v > 0.0 for v in self.summary(result)):
            return "non-finite or non-positive SE row"
        return None

    @staticmethod
    def iterations(result):
        return len(result.rows)

    @staticmethod
    def final_nmse(inp, result):
        """The accuracy metric averages the tsgm-lvd points only."""
        return result.fixed_point_nmse if inp[0].variant == VARIANT_LVD else None

    @staticmethod
    def summary(result):
        return [float(x) for row in result.rows for x in row[1:]]


class CliWorkload:
    """In-process `hmpce.cli.main` sweeps, one invocation per op."""

    probe = PROBE_CLI

    def __init__(self, flags, pool, work_dir, se_samples=None):
        self.flags = flags
        self.pool = pool
        self.work_dir = work_dir
        self.se_samples = se_samples

    def make_inputs(self, seed):
        inputs = []
        for i in range(self.pool):
            out = os.path.join(self.work_dir, f"cli-{seed}-{i}")
            argv = self.flags + ["--seed", str(seed * 100 + i), "--out", out]
            if self.se_samples is not None:
                os.makedirs(self.work_dir, exist_ok=True)
                conf = os.path.join(self.work_dir, "cli.conf")
                with open(conf, "w", encoding="utf-8") as fh:
                    fh.write(f"se_samples={self.se_samples}\n")
                argv += ["--config", conf]
            inputs.append((argv, out))
        return inputs

    @staticmethod
    def prepare(inp):
        """Remove the previous op's output so that the check sees fresh files."""
        shutil.rmtree(inp[1], ignore_errors=True)

    def run(self, inp):
        argv, out = inp
        code = cli.main(argv)
        return code, out, self._read(out) if code == 0 else None

    @staticmethod
    def _read(out):
        tables = {}
        for name in ("nmse_vs_iter.csv", "nmse_vs_snr.csv", "se_trace.csv"):
            path = os.path.join(out, name)
            if os.path.exists(path):
                with open(path, newline="", encoding="utf-8") as fh:
                    tables[name] = list(csv.DictReader(fh))
        return tables

    def check(self, inp, result):
        code, out, tables = result
        if code != 0:
            return f"exit code {code}"
        missing = [f for f in CLI_FILES if not os.path.exists(os.path.join(out, f))]
        if missing:
            return "missing output files: " + ", ".join(missing)
        if not all(math.isfinite(v) for v in self.summary(result)):
            return "non-finite value in the CSV output"
        return None

    @staticmethod
    def iterations(result):
        return len(result[2]["nmse_vs_iter.csv"])

    @staticmethod
    def final_nmse(inp, result):
        finals = [10.0 ** (float(row["mean_nmse_db"]) / 10.0)
                  for row in result[2]["nmse_vs_snr.csv"] if row["algo"] == "hmp-tsgm-lvd"]
        return sum(finals) / len(finals)

    @staticmethod
    def summary(result):
        tables = result[2]
        values = [float(row["nmse_db"]) for row in tables["nmse_vs_iter.csv"]]
        values += [float(row["predicted_nmse_db"]) for row in tables["se_trace.csv"]]
        return values


def make_workload(name, work_dir, tiny=False):
    """The named workload at benchmark size, or a seconds-long version for tests."""
    if name == "chain-long":
        if tiny:
            return TurboWorkload(1, N=64, P=2, M=26, snr_db=20.0, iters=3, pool=2,
                                 probe=PROBE_CHAIN)
        return TurboWorkload(1, N=2048, P=8, M=819, snr_db=20.0, iters=10, pool=4,
                             probe=PROBE_CHAIN)
    if name == "subcarrier-wide":
        if tiny:
            return TurboWorkload(2, N=32, P=8, M=13, snr_db=30.0, iters=3, pool=2,
                                 probe=PROBE_WIDE)
        return TurboWorkload(2, N=256, P=128, M=103, snr_db=30.0, iters=10, pool=8,
                             probe=PROBE_WIDE)
    if name == "se-fixed-point":
        if tiny:
            return SeWorkload(N=64, M=51, num_samples=2000, points=SE_POINTS[::4])
        return SeWorkload(N=512, M=410, num_samples=200_000, points=SE_POINTS)
    if name == "cli-sweep":
        if tiny:
            flags = ["--N", "32", "--K", "64", "--P", "2", "--M", "13", "--snr", "10,30",
                     "--algos", "hmp-tsgm-lvd,hmp-bg", "--iters", "3"]
            return CliWorkload(flags, pool=2, work_dir=work_dir, se_samples=2000)
        flags = ["--N", "256", "--K", "512", "--P", "8", "--M", "103", "--snr", "10,30",
                 "--algos", "hmp-tsgm-lvd,hmp-tsgm,hmp-bg", "--iters", "10", "--trials", "1"]
        return CliWorkload(flags, pool=8, work_dir=work_dir, se_samples=20_000)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("chain-long", "subcarrier-wide", "se-fixed-point", "cli-sweep")
