"""Every check that needs its own interpreter: the package on numpy alone,
the demos, and the CLI with the exit status that `sys.exit` gives.

No module under `src/hmpce` imports scipy.  The default CLI sweep and the
state evolution never load `hmpce.factorgraph`, and every path, the exact
digamma, the dense pilot matrices and the factor-graph engine included, runs
where scipy cannot be imported.  Those checks run in a fresh interpreter,
because the test process itself may have scipy loaded.  The numpy digamma
and DFT matrix are compared with scipy's where scipy is installed; where it
is not, those comparisons skip themselves and the rest of the module runs.

Each demo and each CLI run below is a separate process, run with every
RuntimeWarning and DeprecationWarning an error: a run must exit 0 with
nothing on stderr, bad input must exit 2 and an unwritable `--out` exit 1,
each with one stderr line.  The in-process CLI tests in `test_cli.py` see
neither the exit status nor a warning that a filter would turn into an
exception.
"""

import ast
import glob
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import hmpce
from hmpce.channels import ChannelRealization, save_channel
from hmpce.messages import digamma_approx, digamma_exact

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hmpce.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(TESTS), "demos", "*.py")))

ALGOS = "hmp-tsgm-lvd,hmp-tsgm,hmp-bg"
SWEEP = ["--N", "32", "--K", "64", "--P", "2", "--M", "13", "--snr", "10,inf",
         "--iters", "3", "--trials", "1", "--seed", "3"]
# The small sweep: every variant on SWEEP's grid, at the default seed.
SMALL_SWEEP = SWEEP[:-2] + ["--algos", ALGOS]

# Prints the scipy modules loaded by the end of the script.
REPORT_SCIPY = 'print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))\n'

# The root of the digamma, where its relative error is not meaningful.
PSI_ROOT = 1.4616321449683623


def run_python(*args, env=None):
    """Run `python *args` in a new interpreter with every RuntimeWarning and
    DeprecationWarning an error, `src` and `tests` first on PYTHONPATH and
    any inherited entries after them, and the variables of `env` set;
    returns the finished process, or raises after 600 s."""
    env = dict(os.environ, **(env or {}))
    inherited = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS] + ([inherited] if inherited else []))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         *args],
        capture_output=True, text=True, timeout=600, env=env,
    )


def run_fresh(body, *args):
    """Run the script `body` with `args` as sys.argv[1:]; see run_python."""
    return run_python("-c", body, *args)


def default_runs(block_scipy):
    """Import the package and the CLI, then run a small sweep of the three
    variants and an `--se-only` run, and check that none of it loaded the
    factor-graph engine; with `block_scipy`, any scipy import raises
    ImportError."""
    block = "sys.modules['scipy'] = None" if block_scipy else ""
    return textwrap.dedent(f"""
    import sys
    {block}
    import hmpce, hmpce.cli
    out = sys.argv[1]
    sweep = {SWEEP!r}
    rc = hmpce.cli.main(sweep + ["--algos", "hmp-tsgm-lvd,hmp-tsgm,hmp-bg",
                                 "--out", out + "/sweep"])
    assert rc == 0, rc
    rc = hmpce.cli.main(sweep + ["--se-only", "--out", out + "/se"])
    assert rc == 0, rc
    assert "hmpce.factorgraph" not in sys.modules
    """)


# The paths that once imported scipy: an `--exact-digamma` sweep, a dense
# pilot matrix and the factor-graph engine's stretched-graph check.
FORMER_SCIPY_PATHS = textwrap.dedent(f"""
    import numpy as np
    from graphgen import random_hybrid_graph
    from hmpce.channels import PilotSet
    from hmpce.factorgraph import stretched_graph_equivalence_check
    rc = hmpce.cli.main({SWEEP!r} + ["--algos", "hmp-tsgm-lvd,hmp-tsgm,hmp-bg",
                                    "--exact-digamma", "--out", out + "/exact"])
    assert rc == 0, rc
    rng = np.random.default_rng(4)  # the operator of make_pdft_rp(16, 7, rng_seed=4)
    rows = np.sort(rng.choice(16, size=7, replace=False))
    perm = rng.permutation(16)
    A = PilotSet(16, 7, perm[None], rows[None], np.exp(2j * np.pi * rng.random(16))[None])
    h = np.random.default_rng(1).standard_normal(16) + 0j
    err = np.max(np.abs(A.matrix[0] @ h - A.apply(h[:, None])[:, 0]))
    assert A.matrix.shape == (1, 7, 16) and err < 1e-12, err
    rng = np.random.default_rng(9003)
    worst = max(stretched_graph_equivalence_check(random_hybrid_graph(rng))
                ["max_discrepancy"] for _ in range(3))
    assert worst < 1e-10, worst
""")


def test_default_runs_load_no_scipy(tmp_path):
    proc = run_fresh(default_runs(False) + REPORT_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.split() == []
    assert os.path.exists(tmp_path / "sweep" / "nmse_vs_snr.csv")
    assert os.path.exists(tmp_path / "se" / "se_trace.csv")


def test_default_runs_exit_zero_with_scipy_blocked(tmp_path):
    proc = run_fresh(default_runs(True) + FORMER_SCIPY_PATHS, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for run, name in (("sweep", "nmse_vs_snr.csv"), ("se", "se_trace.csv"),
                      ("exact", "nmse_vs_snr.csv")):
        assert os.path.exists(tmp_path / run / name)


def test_no_module_imports_scipy():
    # every import statement, those inside functions included
    package = pathlib.Path(hmpce.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_digamma_matches_scipy():
    special = pytest.importorskip("scipy.special")
    x = np.logspace(-3.0, 8.0, 100_001)
    got, want = digamma_exact(x), special.digamma(x)
    near = np.abs(x - PSI_ROOT) <= 0.01
    assert near.sum() > 10 and (~near).sum() > 99_000
    assert np.max(np.abs(got - want)[near]) <= 5e-15
    assert np.max(np.abs(got - want)[~near] / np.abs(want[~near])) <= 2e-13


def test_digamma_edge_inputs():
    # x <= 0 raises: test_messages.py::test_psi_hat_domain
    assert math.isnan(digamma_exact(math.nan))
    assert digamma_exact(math.inf) == math.inf
    assert type(digamma_exact(2.0)) is float
    assert digamma_exact(1.0) == pytest.approx(-0.5772156649015329, abs=1e-15)
    assert math.isnan(digamma_approx(math.nan))
    assert digamma_approx(math.inf) == math.inf
    for psi in (digamma_exact, digamma_approx):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # psi(x) ~ -1/x overflows for a subnormal x; ln(x) at 1e308
            got = psi(np.array([5e-324, 1e-310, 1e308, math.nan]))
        assert got[0] == got[1] == -math.inf, psi.__name__
        assert got[2] == pytest.approx(math.log(1e308), rel=1e-15), psi.__name__
        assert math.isnan(got[3]), psi.__name__


@pytest.mark.parametrize("N", [1, 2, 3, 16, 64, 256])
def test_pilot_set_matrix_matches_scipy_dft_bit_for_bit(N):
    linalg = pytest.importorskip("scipy.linalg")
    from oracles import make_pdft_rp, stack_pilots  # loads scipy

    A = make_pdft_rp(N, (N + 1) // 2, rng_seed=N)
    theta = np.zeros((N, N), dtype=np.complex128)
    theta[np.arange(N), A.perm] = A.phases
    want = (linalg.dft(N) / np.sqrt(N) @ theta)[A.rows]
    got = stack_pilots([A]).matrix[0]
    np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))


def assert_clean(proc):
    assert (proc.returncode, proc.stderr) == (0, "")


def assert_one_error_line(proc, returncode):
    assert proc.returncode == returncode, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_0_with_empty_stderr(demo):
    assert_clean(run_python(demo))


# Each CLI run that must exit 0 with nothing on stderr, by id.
CLEAN_RUNS = {
    **{f"se-{algo}": ["--se-only", "--algos", algo, "--snr", "10,inf", "--N", "64",
                      "--M", "51", "--P", "2", "--K", "64"] for algo in ALGOS.split(",")},
    "sweep": SMALL_SWEEP,
    "sweep-exact-digamma": SMALL_SWEEP + ["--exact-digamma"],
    # five SNR points of 256 x 32 as one batch, whose (B, N, P) arrays pass
    # the 256 KiB at which numpy's temporary elision swaps the operands of a
    # product while each point's own arrays do not
    "batched": ["--N", "256", "--K", "512", "--P", "32", "--M", "103",
                "--snr", "0,10,20,30,inf", "--algos", ALGOS, "--iters", "5"],
    # N = 2048 with two SNR members, so the chain sweeps run in lanes
    "long-chain": ["--N", "2048", "--K", "4096", "--P", "2", "--M", "819",
                   "--snr", "10,inf", "--algos", ALGOS, "--iters", "3"],
    "help": ["--help"],
}


@pytest.mark.parametrize("args", CLEAN_RUNS.values(), ids=CLEAN_RUNS.keys())
def test_cli_run_exits_0_with_empty_stderr(tmp_path, args):
    assert_clean(run_python("-m", "hmpce.cli", *args, "--out", str(tmp_path / "out")))


# Bad input, by id: a value that does not parse, a NaN SNR, a knob out of
# its range from a flag or the config file, and a channel file that is all
# zero or whose energy overflows.  {tmp} is the test's directory.
CHANNEL_RUN = ["--N", "32", "--M", "13", "--P", "2", "--K", "4", "--snr", "10",
               "--algos", "hmp-bg", "--channel-file"]
BAD_INPUTS = {
    "N-abc": ["--N", "abc"],
    "snr-nan": ["--snr", "nan"],
    "trials-0": ["--trials", "0"],
    "p10-config": ["--config", "{tmp}/p10.cfg"],
    "zero-channel": CHANNEL_RUN + ["{tmp}/zero.haf"],
    "huge-channel": CHANNEL_RUN + ["{tmp}/huge.haf"],
}


@pytest.mark.parametrize("args", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_with_one_stderr_line(tmp_path, args):
    (tmp_path / "p10.cfg").write_text("p10 = 1.5\n")
    for name, value in (("zero", 0.0), ("huge", 1e160)):
        gains = np.full((32, 2), value, dtype=complex)
        save_channel(str(tmp_path / f"{name}.haf"), ChannelRealization(gains, None))
    args = [arg.format(tmp=tmp_path) for arg in args]
    assert_one_error_line(run_python("-m", "hmpce.cli", *args, "--out", str(tmp_path / "out")), 2)


def test_out_that_is_a_file_exits_1_with_one_stderr_line(tmp_path):
    out = tmp_path / "file"
    out.write_text("x")
    assert_one_error_line(run_python("-m", "hmpce.cli", *SMALL_SWEEP, "--out", str(out)), 1)


def test_small_sweep_is_byte_identical_across_hash_seeds(tmp_path):
    # criterion 8 runs both of its runs in one interpreter, so under one
    # hash seed; here each run has its own
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        assert_clean(run_python("-m", "hmpce.cli", *SMALL_SWEEP, "--out", str(out),
                                env={"PYTHONHASHSEED": seed}))
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(outputs[0]) == ["manifest.txt", "nmse_vs_iter.csv", "nmse_vs_m.csv",
                                  "nmse_vs_snr.csv", "se_trace.csv"]
    assert outputs[0] == outputs[1]
