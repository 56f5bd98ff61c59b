"""The package runs on numpy alone, and the factor-graph engine stays off the
estimator's import path.

No module under `src/hmpce` imports scipy.  The default CLI sweep and the
state evolution never load `hmpce.factorgraph`, and every path, the exact
digamma, the dense pilot matrices and the factor-graph engine included, runs
where scipy cannot be imported.  Those checks run in a fresh interpreter,
because the test process itself may have scipy loaded.  The numpy digamma
and DFT matrix are compared with scipy's where scipy is installed.
"""

import ast
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
from hmpce.channels import make_pdft_rp
from hmpce.messages import digamma_exact

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hmpce.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))

SWEEP = ["--N", "32", "--K", "64", "--P", "2", "--M", "13", "--snr", "10,inf",
         "--iters", "3", "--trials", "1", "--seed", "3"]

# Prints the scipy modules loaded by the end of the script.
REPORT_SCIPY = 'print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))\n'

# The root of the digamma, where its relative error is not meaningful.
PSI_ROOT = 1.4616321449683623


def run_fresh(body, *args):
    """Run `body` in a new interpreter with the package and the test
    helpers importable; returns the finished process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS])
    return subprocess.run(
        [sys.executable, "-c", body, *args],
        capture_output=True, text=True, timeout=300, env=env,
    )


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
    from hmpce.channels import make_pdft_rp
    from hmpce.factorgraph import stretched_graph_equivalence_check
    rc = hmpce.cli.main({SWEEP!r} + ["--algos", "hmp-tsgm-lvd,hmp-tsgm,hmp-bg",
                                    "--exact-digamma", "--out", out + "/exact"])
    assert rc == 0, rc
    A = make_pdft_rp(16, 7, rng_seed=4)
    h = np.random.default_rng(1).standard_normal(16) + 0j
    err = np.max(np.abs(A.matrix @ h - A.apply(h)))
    assert A.matrix.shape == (7, 16) and err < 1e-12, err
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # psi(x) ~ -1/x overflows for a subnormal x; ln(x) at 1e308
        got = digamma_exact(np.array([5e-324, 1e-310, 1e308, math.nan]))
    assert got[0] == got[1] == -math.inf
    assert got[2] == pytest.approx(math.log(1e308), rel=1e-15)
    assert math.isnan(got[3])


@pytest.mark.parametrize("N", [1, 2, 3, 16, 64, 256])
def test_pilot_matrix_matches_scipy_dft_bit_for_bit(N):
    linalg = pytest.importorskip("scipy.linalg")
    A = make_pdft_rp(N, (N + 1) // 2, rng_seed=N)
    theta = np.zeros((N, N), dtype=np.complex128)
    theta[np.arange(N), A.perm] = A.phases
    want = (linalg.dft(N) / np.sqrt(N) @ theta)[A.rows]
    np.testing.assert_array_equal(A.matrix.view(np.float64), want.view(np.float64))
