"""Benchmark runner for hmpce.

    python3 perfbench/run.py --workload chain-long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one thread, closed loop: each op starts when the
previous one has finished and been checked.  The workload's inputs come
from `--seed`; the run measures for `--seconds` (rounded up to whole passes
over the workload's input pool) and checks every op's output.

Timings are adjusted for the host's speed: fixed reference kernels
(probe.py) run before and after every op and every set-up step but the
import, and each wall time is scaled by the probe's nominal time over the
mean of the probe times around it.  On a shared host this removes most of the run-to-run
drift, while a change to the package still moves adjusted times in full.
The unadjusted median is printed too.

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends the first
half of the time untraced and the second half with every layer wrapped
(see tracing.py), and prints the per-layer metrics with the tracing
overhead; these are unadjusted wall times, like the spans they come from.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a fuller record (machine, git sha,
sample counts) goes to `perfbench/_work/`.  Exit code 0 when every
op passed its checks, 1 when any failed, 2 when the run could not start.
"""

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "_work")
REFS_DIR = os.path.join(BENCH_DIR, "refs")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# References are matched within this tolerance instead of bit for bit, so
# that a change which only reorders floating-point sums still passes.
REF_RTOL = 1e-7
REF_ATOL = 1e-9
# the highest percentile reported needs at least ten samples beyond it
P90_MIN_SAMPLES = 100


class SetupError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


def load_package():
    """Import hmpce from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hmpce", "__init__.py")):
        raise SetupError(f"no package source at {src}/hmpce; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if src not in sys.path:
        sys.path.insert(0, src)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    hmpce = importlib.import_module("hmpce")
    importlib.import_module("hmpce.cli")
    if not os.path.abspath(hmpce.__file__).startswith(src + os.sep):
        raise SetupError(f"imported hmpce from {hmpce.__file__}, not from {src}")
    return hmpce


IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import hmpce, hmpce.cli"


def import_seconds():
    """Import hmpce and hmpce.cli in a fresh interpreter under -X importtime.

    Returns (own, whole): the summed self times of the package's modules,
    which exclude the numpy and scipy imports they trigger, and the whole
    import with those dependencies.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_CODE, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    own = whole = 0
    for line in proc.stderr.splitlines():
        # import time: <self us> | <cumulative us> | <indent><module>
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name.split(".")[0] == "hmpce":
            own += int(fields[0])
        if name in ("hmpce", "hmpce.cli"):
            whole += int(fields[1])
    return own / 1e6, whole / 1e6


def git_sha():
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(hmpce):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hmpce": hmpce.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def load_refs(name, seed):
    """Reference summaries per pool input for this seed, or None."""
    path = os.path.join(REFS_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def numbers_close(got, want):
    """True when two flat lists of numbers agree within the reference tolerance."""
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=REF_RTOL, abs_tol=REF_ATOL) for g, w in zip(got, want)
    )


class Runner:
    """Runs and checks ops on a pool of inputs."""

    def __init__(self, wl, inputs, refs, host=None):
        self.wl = wl
        self.host = host
        self.inputs = inputs
        self.refs = refs
        self.first_summary = {}
        self.final_nmse = {}
        self.attempted = 0
        self.failures = []

    def op(self, index, call=None):
        """One checked op on input `index`; returns (seconds, iterations) or None."""
        wl, inp = self.wl, self.inputs[index]
        prepare = getattr(wl, "prepare", None)
        if prepare is not None:
            prepare(inp)
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call(wl.run, inp) if call else wl.run(inp)
        except Exception as err:  # an op that raises is a failed op, not a crash
            self.failures.append(f"input {index}: {type(err).__name__}: {err}")
            return None
        elapsed = time.perf_counter() - start
        try:
            problem = self._check(index, inp, result)
        except Exception as err:  # a malformed result fails its check
            problem = f"{type(err).__name__} while checking: {err}"
        if problem is not None:
            self.failures.append(f"input {index}: {problem}")
            return None
        return elapsed, wl.iterations(result)

    def _check(self, index, inp, result):
        problem = self.wl.check(inp, result)
        if problem is not None:
            return problem
        summary = self.wl.summary(result)
        if self.refs is not None and not numbers_close(summary, self.refs[index]):
            return "output differs from the reference"
        first = self.first_summary.setdefault(index, summary)
        if not numbers_close(summary, first):
            return "repeated op on the same input gave a different result"
        nmse = self.wl.final_nmse(inp, result)
        if nmse is not None:
            self.final_nmse[index] = nmse
        return None

    def phase(self, seconds, call=None):
        """Whole passes over the pool until `seconds` have passed.

        A run of the host probe (probe.py) brackets every op.  Returns the
        ops' wall seconds, their adjusted seconds (wall time times the
        probe's nominal time over the mean of the two probe times around the
        op), adjusted seconds per iteration, and the probe times.
        """
        raw_s, op_s, iter_s = [], [], []
        probes = [self.host.measure()]
        start = time.perf_counter()
        while True:
            for index in range(len(self.inputs)):
                timing = self.op(index, call)
                probes.append(self.host.measure())
                if timing is not None:
                    wall, iterations = timing
                    adjusted = self.host.adjust(wall, probes[-2], probes[-1])
                    raw_s.append(wall)
                    op_s.append(adjusted)
                    iter_s.append(adjusted / max(iterations, 1))
            if time.perf_counter() - start >= seconds:
                return raw_s, op_s, iter_s, probes


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="hmpce benchmark runner")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        raise SetupError("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    try:
        hmpce = load_package()
        import probe  # after load_package pins the BLAS threads: it loads numpy
        import tracing
        import workloads

        args = parse_args(argv, workloads.WORKLOAD_NAMES)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    wl = workloads.make_workload(args.workload, WORK_DIR, tiny=args.tiny)
    # The whole import is mostly numpy and scipy, and its time drifts with
    # the host in a way no probe kernel tracks; set-up counts the package's
    # own share, and the record keeps the whole.
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    setup = {"import_s": statistics.median(own for own, _ in imports)}
    whole_import_s = statistics.median(whole for _, whole in imports)
    host = probe.Probe(wl.probe)
    host.measure()  # the first call pays numpy's lazy set-up
    probes = [host.measure()]
    synth_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.make_inputs(args.seed)
        elapsed = time.perf_counter() - start
        probes.append(host.measure())
        synth_times.append(host.adjust(elapsed, probes[-2], probes[-1]))
    setup["synth_s"] = statistics.median(synth_times)
    refs = None if args.tiny else load_refs(args.workload, args.seed)
    if refs is not None and len(refs) != len(inputs):
        print(f"error: reference file holds {len(refs)} inputs, pool has {len(inputs)}",
              file=sys.stderr)
        return 2
    runner = Runner(wl, inputs, refs, host)
    start = time.perf_counter()
    runner.op(0)  # warm-up, checked like every other op
    elapsed = time.perf_counter() - start
    probes.append(host.measure())
    setup["warmup_s"] = host.adjust(elapsed, probes[-2], probes[-1])
    setup_s = sum(setup.values())

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "git_sha": git_sha(),
        "machine": machine(hmpce), "pool": len(inputs),
        "references": refs is not None, "setup": setup,
        "whole_import_s": whole_import_s,
    }
    if args.trace:
        untraced_s, _, _, _ = runner.phase(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(hmpce)
        try:
            tracer.op_id = "setup"
            wl.make_inputs(args.seed)
            tracer.op_id = None
            counter = itertools.count()
            traced_s, _, _, _ = runner.phase(
                args.seconds / 2, call=lambda fn, inp: tracer.op(next(counter), fn, inp)
            )
        finally:
            tracer.uninstall()
        op_ids = [span[4] for span in tracer.spans if span[0] == "bench.op"]
        metrics = tracing.layer_metrics(
            tracer, op_ids, ["setup"], len(inputs), untraced_s, traced_s
        )
        units = {name: _layer_unit(name) for name in metrics}
        tracer.write(os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.tsv"))
        record["samples"] = {"untraced_ops": len(untraced_s), "traced_ops": len(traced_s)}
    else:
        raw_s, op_s, iter_s, probes = runner.phase(args.seconds)
        nmse_values = list(runner.final_nmse.values())
        metrics = {
            "op_ms_p50": 1e3 * statistics.median(op_s) if op_s else math.nan,
            "ops_per_s": len(op_s) / sum(op_s) if op_s else math.nan,
            "iter_ms_p50": 1e3 * statistics.median(iter_s) if iter_s else math.nan,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "neg_nmse_db": (-10.0 * math.log10(sum(nmse_values) / len(nmse_values))
                            if nmse_values else math.nan),
        }
        units = {"op_ms_p50": "ms", "ops_per_s": "1/s", "iter_ms_p50": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB", "neg_nmse_db": "dB"}
        record["samples"] = {"ops": len(op_s)}
        record["op_s"] = op_s
        record["wall_op_s"] = raw_s
        record["probe_s"] = probes
        if raw_s:
            record["wall_op_ms_p50"] = 1e3 * statistics.median(raw_s)
        record["probe_ms_p50"] = 1e3 * statistics.median(probes)
        if len(op_s) >= P90_MIN_SAMPLES:
            record["op_ms_p90"] = 1e3 * statistics.quantiles(op_s, n=10)[-1]

    failed = len(runner.failures)
    record["fail_frac"] = failed / runner.attempted
    record["failures"] = runner.failures[:20]
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(result)
    out = os.path.join(WORK_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in runner.failures[:5]:
        print(f"failed op: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, git {record['git_sha']}, "
          f"{record['machine']['cpu']}, nproc {record['machine']['nproc']}, "
          f"python {record['machine']['python']}, numpy {record['machine']['numpy']}, "
          f"scipy {record['machine']['scipy']}")
    print(f"samples: {record['samples']}, fail_frac {record['fail_frac']:.4g}"
          + (f", op_ms_p90 {record['op_ms_p90']:.4f} ms" if "op_ms_p90" in record else ""))
    if "wall_op_ms_p50" in record:
        print(f"unadjusted: wall_op_ms_p50 {record['wall_op_ms_p50']:.4f} ms, "
              f"probe_ms_p50 {record['probe_ms_p50']:.4f} ms (nominal {1e3 * host.ref_s:g} ms, "
              f"kernels {'+'.join(wl.probe)}), whole import {whole_import_s:.4f} s")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("roundtrip_err_max"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
