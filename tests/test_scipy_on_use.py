"""scipy and the factor-graph engine stay off the estimator's import path.

The package, the default CLI sweep and the state evolution run on numpy
alone and never load `hmpce.factorgraph`; scipy is imported only by the
paths that need it (the exact digamma, the dense pilot matrices, the
factor-graph engine).  Each check runs in a fresh interpreter, because the
test process itself has scipy loaded.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import hmpce

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hmpce.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))

SWEEP = ["--N", "32", "--K", "64", "--P", "2", "--M", "13", "--snr", "10,inf",
         "--iters", "3", "--trials", "1", "--seed", "3"]

# Prints the scipy modules loaded by the end of the script.
REPORT_SCIPY = 'print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))\n'


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


def test_default_runs_load_no_scipy(tmp_path):
    proc = run_fresh(default_runs(False) + REPORT_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.split() == []
    assert os.path.exists(tmp_path / "sweep" / "nmse_vs_snr.csv")
    assert os.path.exists(tmp_path / "se" / "se_trace.csv")


def test_default_runs_exit_zero_with_scipy_blocked(tmp_path):
    proc = run_fresh(default_runs(True), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert os.path.exists(tmp_path / "sweep" / "nmse_vs_snr.csv")
    assert os.path.exists(tmp_path / "se" / "se_trace.csv")


# Per scipy path: the scipy module it loads, code that uses the path
# without importing scipy itself, and code that checks the result.
SCIPY_PATHS = {
    "digamma_exact": ("scipy.special", """
        from hmpce.messages import digamma_exact
        got = [digamma_exact(2.5), digamma_exact([0.5, 3.0]).tolist()]
    """, """
        from scipy.special import digamma
        assert got == [float(digamma(2.5)), digamma([0.5, 3.0]).tolist()], got
    """),
    "pilot_matrix": ("scipy.linalg", """
        import numpy as np
        from hmpce.channels import make_pdft_rp
        A = make_pdft_rp(16, 7, rng_seed=4)
        h = np.random.default_rng(1).standard_normal(16) + 0j
        err = np.max(np.abs(A.matrix @ h - A.apply(h)))
    """, """
        assert A.matrix.shape == (7, 16) and err < 1e-12, err
    """),
    "factor_graph_engine": ("scipy.special", """
        import numpy as np
        from graphgen import random_hybrid_graph
        from hmpce.factorgraph import stretched_graph_equivalence_check
        rng = np.random.default_rng(9003)
        worst = max(stretched_graph_equivalence_check(random_hybrid_graph(rng))
                    ["max_discrepancy"] for _ in range(3))
    """, """
        assert worst < 1e-10, worst
    """),
}


@pytest.mark.parametrize("path", sorted(SCIPY_PATHS))
def test_scipy_paths_load_it_on_first_use(path):
    module, use, check = SCIPY_PATHS[path]
    body = "\n".join([
        f"import sys\nimport hmpce, hmpce.cli\nassert {module!r} not in sys.modules",
        textwrap.dedent(use),
        f"assert {module!r} in sys.modules",
        textwrap.dedent(check),
    ])
    proc = run_fresh(body)
    assert proc.returncode == 0, proc.stderr
