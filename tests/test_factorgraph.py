import inspect
import itertools
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from graphgen import random_hybrid_graph, random_tree_graph
from hmpce.factorgraph import (
    BP,
    FLAT,
    MF,
    BernoulliMixFactor,
    BetaBelief,
    FactorGraph,
    GammaBelief,
    MixtureObservationFactor,
    PriorFactor,
    TableFactor,
    UnnormalizableMessageError,
    UnsupportedGraphError,
    exact_marginals,
    stretched_graph_equivalence_check,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def one_sweep_reference(table, anchors, tags):
    """First synchronous sweep of the edge-typed rule on a single factor,
    written with explicit loops as an independent reference.  On the first
    sweep both n-messages and beliefs reduce to the normalized anchors
    (uniform where absent)."""
    k = table.ndim
    sizes = table.shape
    logf = np.log(table)

    def unit(i):
        if anchors[i] is None:
            return np.full(sizes[i], 1.0 / sizes[i])
        vec = np.asarray(anchors[i], dtype=float)
        return vec / vec.sum()

    n_vecs = [unit(i) for i in range(k)]
    beliefs = [unit(i) for i in range(k)]
    bp = [i for i in range(k) if tags[i] == BP]
    mf = [i for i in range(k) if tags[i] == MF]

    def expected_log(idx_fixed, over):
        total = 0.0
        for combo in itertools.product(*(range(sizes[j]) for j in over)):
            idx = list(idx_fixed)
            w = 1.0
            for pos, j in enumerate(over):
                idx[j] = combo[pos]
                w *= beliefs[j][combo[pos]]
            total += w * logf[tuple(idx)]
        return total

    msgs = {}
    for i in bp:
        others = [j for j in bp if j != i]
        vec = np.zeros(sizes[i])
        for xi in range(sizes[i]):
            for combo in itertools.product(*(range(sizes[j]) for j in others)):
                idx = [None] * k
                idx[i] = xi
                w = 1.0
                for pos, j in enumerate(others):
                    idx[j] = combo[pos]
                    w *= n_vecs[j][combo[pos]]
                vec[xi] += w * math.exp(expected_log(idx, mf))
        msgs[i] = vec / vec.sum()

    joint = {}
    for combo in itertools.product(*(range(sizes[j]) for j in bp)):
        idx = [None] * k
        w = 1.0
        for pos, j in enumerate(bp):
            idx[j] = combo[pos]
            w *= n_vecs[j][combo[pos]]
        joint[combo] = w * math.exp(expected_log(idx, mf))
    z = sum(joint.values())
    joint = {key: val / z for key, val in joint.items()}

    for l in mf:
        others = [j for j in mf if j != l]
        vec = np.zeros(sizes[l])
        for xl in range(sizes[l]):
            total = 0.0
            for combo, w in joint.items():
                idx = [None] * k
                for pos, j in enumerate(bp):
                    idx[j] = combo[pos]
                idx[l] = xl
                total += w * expected_log(idx, others)
            vec[xl] = total
        vec = np.exp(vec - vec.max())
        msgs[l] = vec / vec.sum()
    return msgs


def build_single_factor_graph(table, anchors, tags):
    names = ["a", "b", "c", "d"][: table.ndim]
    g = FactorGraph()
    for name, size in zip(names, table.shape):
        g.add_variable(name, "discrete", size)
    hub = TableFactor("hub", names, table)
    g.add_factor(hub, tags=dict(zip(names, tags)))
    for name, anchor in zip(names, anchors):
        if anchor is not None:
            g.add_factor(TableFactor("anchor_" + name, [name], anchor))
    return g, hub, names


def test_bp_message_reduces_to_sum_product_without_mf_neighbors():
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    anchor_b = np.array([0.6, 0.4])
    g, hub, names = build_single_factor_graph(table, [None, anchor_b], [BP, BP])
    g.sweep()
    expect = table @ anchor_b
    assert np.allclose(g.message(hub, "a").probs, expect / expect.sum(), atol=1e-14)


def test_bp_message_with_point_mass_mf_neighbor():
    # point-mass belief on the mf neighbor picks out one slice of the factor
    table = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, 0.25]])
    g, hub, names = build_single_factor_graph(
        table, [None, np.array([0.0, 1.0])], [BP, MF]
    )
    g.sweep()
    expect = table[:, 1] / table[:, 1].sum()
    assert np.allclose(g.message(hub, "a").probs, expect, atol=1e-14)


def test_mf_message_without_bp_neighbors():
    table = np.array([[0.5, 1.5, 2.0], [1.0, 0.25, 0.75]])
    anchor_b = np.array([1.0, 2.0, 1.0])
    g, hub, names = build_single_factor_graph(table, [None, anchor_b], [MF, MF])
    g.sweep()
    q = anchor_b / anchor_b.sum()
    expect = np.exp(np.log(table) @ q)
    assert np.allclose(g.message(hub, "a").probs, expect / expect.sum(), atol=1e-14)


def test_mf_message_under_uniform_bp_belief_is_geometric_mean():
    # the two rows hold the same multiset of potentials, so the collapsed
    # bp table is constant and the bp-neighborhood belief stays uniform
    table = np.array([[0.2, 0.9, 1.4], [1.4, 0.2, 0.9]])
    g, hub, names = build_single_factor_graph(table, [None, None], [BP, MF])
    g.sweep()
    assert np.allclose(g.message(hub, "a").probs, [0.5, 0.5], atol=1e-14)
    expect = np.sqrt(table[0] * table[1])
    assert np.allclose(g.message(hub, "b").probs, expect / expect.sum(), atol=1e-14)


def test_mixed_tag_messages_match_loop_reference():
    rng = np.random.default_rng(17)
    tag_sets = [
        (BP, BP, MF),
        (BP, MF, MF),
        (MF, MF, MF),
        (BP, BP, BP),
        (MF, BP, MF),
    ]
    for tags in tag_sets:
        for _ in range(4):
            table = rng.uniform(0.1, 2.0, size=(2, 3, 2))
            anchors = [
                rng.uniform(0.2, 1.5, size=s) if rng.random() < 0.7 else None
                for s in table.shape
            ]
            g, hub, names = build_single_factor_graph(table, anchors, tags)
            g.sweep()
            ref = one_sweep_reference(table, anchors, tags)
            for i, name in enumerate(names):
                got = g.message(hub, name).probs
                assert np.max(np.abs(got - ref[i])) < 1e-12, (tags, name)


def test_gamma_message_shape_increment_one():
    # unit exponents make the shape increment equal the total joint weight;
    # obs_sq = 0 gives the flat-in-rate message Ga(2, 0) and the belief
    # Ga(2.5, 2), which must be accepted
    digamma = pytest.importorskip("scipy.special").digamma
    for obs_sq in (np.array([0.4, 1.3]), np.zeros(2)):
        g = FactorGraph()
        g.add_variable("x", "discrete", 2)
        g.add_variable("v", "gamma")
        factor = MixtureObservationFactor(
            "mix", ["x"], ["v"],
            log_base=np.zeros(2), exponents=[np.ones(2)], obs_sq=[obs_sq],
        )
        g.add_factor(PriorFactor("pv", "v", GammaBelief(1.5, 2.0)))
        g.add_factor(factor)
        g.add_factor(TableFactor("ax", ["x"], np.array([0.3, 0.7])))
        g.sweep()
        msg = g.message(factor, "v")
        assert msg.shape == pytest.approx(2.0, abs=1e-12)
        # hand-computed joint weight over x at the first sweep
        log_ev = digamma(1.5) - math.log(2.0)
        lt = (log_ev - math.log(math.pi)) - 0.75 * obs_sq
        w = np.exp(lt - lt.max()) * np.array([0.3, 0.7])
        w /= w.sum()
        assert msg.rate == pytest.approx(float(w @ obs_sq), rel=1e-12)
        belief = g.belief("v")
        assert belief.shape == pytest.approx(1.5 + 1.0, abs=1e-12)
        assert belief.rate == pytest.approx(2.0 + float(w @ obs_sq), rel=1e-12)
    assert (msg.shape, msg.rate) == (2.0, 0.0)
    assert (belief.shape, belief.rate) == (2.5, 2.0)


def test_prior_factors_validate_parameters():
    # the belief a prior factor is given does the validation
    for shape, rate in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            PriorFactor("pv", "v", GammaBelief(shape, rate))
    assert PriorFactor("pv", "v", GammaBelief(1.0, 0.0)).msg.rate == 0.0
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            PriorFactor("pq", "q", BetaBelief(a, b))


def test_belief_types_validate_parameters():
    # Gamma: shape > 0 and rate >= 0; rate 0 is the flat-in-rate message
    for shape, rate in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, -1e-300),
                        (float("nan"), 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            GammaBelief(shape, rate)
    assert GammaBelief(2.0, 0.0).rate == 0.0
    with pytest.raises(ValueError):
        BetaBelief(-1.0, 1.0)
    with pytest.raises(ValueError):
        BetaBelief(1.0, 0.0)
    assert GammaBelief(2.0, 4.0).mean() == pytest.approx(0.5)


def test_expected_log_tables_match_scipy():
    # a one-hot x reads E[ln v] - ln(pi) under Ga(shape, rate), and E[ln p]
    # and E[ln(1-p)] under Beta(a, b), off the engine's log tables
    onehot = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    mix = MixtureObservationFactor("mix", ["x"], ["v"], log_base=np.zeros(2),
                                   exponents=onehot[:1], obs_sq=[np.zeros(2)])
    bern = BernoulliMixFactor("bern", ["x"], ["q"], log_base=np.zeros(2),
                              succ=onehot[:1], fail=onehot[1:])
    # swapped pseudo-counts swap the two logs bit for bit
    rng = np.random.default_rng(3)
    for a, b in rng.uniform(0.2, 6.0, size=(20, 2)):
        np.testing.assert_array_equal(bern.current_log_table([BetaBelief(a, b)]),
                                      bern.current_log_table([BetaBelief(b, a)])[::-1])
    lp, lq = bern.current_log_table([BetaBelief(2.0, 2.0)])
    assert lp == lq
    lp, lq = bern.current_log_table([BetaBelief(3.0, 1.0)])
    assert lp > lq
    digamma = pytest.importorskip("scipy.special").digamma
    # the numpy digamma is within a few ulp of scipy's, not bit-equal to it
    log_v, zero = mix.current_log_table([GammaBelief(2.5, 2.0)])
    assert zero == 0.0
    assert log_v + math.log(math.pi) == pytest.approx(
        float(digamma(2.5)) - math.log(2.0), abs=1e-15)
    lp, lq = bern.current_log_table([BetaBelief(2.5, 1.5)])
    assert lp == pytest.approx(digamma(2.5) - digamma(4.0), abs=1e-14)
    assert lq == pytest.approx(digamma(1.5) - digamma(4.0), abs=1e-14)


def test_hybrid_rule_demo_reports_zero_discrepancy(capsys):
    runpy.run_path(str(DEMOS / "demo_hybrid_rule.py"), run_name="__main__")
    assert "max discrepancy 0.00e+00" in capsys.readouterr().out


def test_variable_to_factor_rules():
    g = FactorGraph()
    g.add_variable("a", "discrete", 2)
    g.add_variable("b", "discrete", 2)
    hub = TableFactor("hub", ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
    g.add_factor(hub, tags={"a": BP, "b": MF})
    # degree-1 variable on a bp edge: empty product, the flat marker
    assert g.n_message("a", hub) is FLAT
    g.add_factor(TableFactor("ab", ["b"], np.array([0.3, 0.7])))
    # mf edge: the full belief, anchor included
    assert np.allclose(g.n_message("b", hub).probs, g.belief("b").probs)
    assert np.allclose(g.belief("b").probs, [0.3, 0.7])
    # degree-2 variable on a bp edge: copy of the other incoming message
    g2 = FactorGraph()
    g2.add_variable("a", "discrete", 2)
    g2.add_variable("b", "discrete", 2)
    hub2 = TableFactor("hub", ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
    g2.add_factor(hub2)
    g2.add_factor(TableFactor("ab", ["b"], np.array([2.0, 6.0])))
    assert np.allclose(g2.n_message("b", hub2).probs, [0.25, 0.75])


def test_all_bp_tree_beliefs_match_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = random_tree_graph(rng)
        g.run(max_sweeps=200, tol=1e-12)
        exact = exact_marginals(g)
        for name, probs in exact.items():
            assert np.max(np.abs(g.belief(name).probs - probs)) < 1e-10


def test_all_mf_fixed_point_is_stationary():
    rng = np.random.default_rng(29)
    for _ in range(5):
        table = rng.uniform(0.1, 2.0, size=(2, 3))
        g, hub, names = build_single_factor_graph(
            table,
            [rng.uniform(0.2, 1.5, size=2), rng.uniform(0.2, 1.5, size=3)],
            [MF, MF],
        )
        g.run(max_sweeps=500, tol=1e-12)
        assert g.sweep() < 1e-10


def test_emitted_discrete_messages_are_normalized():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_hybrid_graph(rng)
        for _ in range(3):
            g.sweep()
            for factor in g.factors:
                for var in factor.vars:
                    msg = g.message(factor, var)
                    if msg is FLAT or not hasattr(msg, "probs"):
                        continue
                    assert abs(msg.probs.sum() - 1.0) < 1e-12
                    assert np.all(msg.probs >= 0.0)


def test_unnormalizable_message_names_the_factor():
    g = FactorGraph()
    g.add_variable("a", "discrete", 2)
    g.add_variable("b", "discrete", 2)
    g.add_factor(TableFactor("fz", ["a", "b"], np.zeros((2, 2))))
    with pytest.raises(UnnormalizableMessageError, match="fz"):
        g.sweep()


def test_parametric_edges_must_be_mf():
    g = FactorGraph()
    g.add_variable("x", "discrete", 2)
    g.add_variable("v", "gamma")
    factor = MixtureObservationFactor(
        "mix", ["x"], ["v"],
        log_base=np.zeros(2), exponents=[np.ones(2)], obs_sq=[np.ones(2)],
    )
    with pytest.raises(UnsupportedGraphError):
        g.add_factor(factor, tags={"v": BP})


def test_rate_0_belief_on_a_mixture_factor_names_the_factor_and_variable():
    # a rate-0 Gamma prior builds (it is the flat-in-rate message), but it
    # has no E[ln v], so the mixture factor that reads it cannot sweep
    g = FactorGraph()
    g.add_variable("x", "discrete", 2)
    g.add_variable("v", "gamma")
    g.add_factor(PriorFactor("pv", "v", GammaBelief(1.0, 0.0)))
    g.add_factor(MixtureObservationFactor(
        "mix", ["x"], ["v"],
        log_base=np.zeros(2), exponents=[np.ones(2)], obs_sq=[np.ones(2)],
    ))
    with pytest.raises(UnsupportedGraphError, match="factor 'mix': gamma variable 'v'"):
        g.sweep()


@pytest.mark.parametrize("kind", ["cgauss", "Gamma", ""], ids=["cgauss", "capitalized", "empty"])
def test_unknown_variable_kind_fails_when_added(kind):
    g = FactorGraph()
    with pytest.raises(UnsupportedGraphError, match="unknown kind"):
        g.add_variable("q", kind)
    assert "q" not in g.variables


@pytest.mark.parametrize("kind, belief", [
    ("beta", GammaBelief(1.0, 1.0)),
    ("gamma", BetaBelief(1.0, 1.0)),
    ("discrete", GammaBelief(1.0, 1.0)),
], ids=["gamma-on-beta", "beta-on-gamma", "gamma-on-discrete"])
def test_prior_of_the_wrong_family_fails_when_added(kind, belief):
    g = FactorGraph()
    g.add_variable("q", kind, 2 if kind == "discrete" else None)
    with pytest.raises(UnsupportedGraphError, match="prior 'p'"):
        g.add_factor(PriorFactor("p", "q", belief))
    assert g.factors == [] and g.neighbors("q") == []


def _graph_with_one_factor():
    """a, b binary, c ternary, a Gamma v and a Beta q, and the factor 'f'."""
    g = FactorGraph()
    for name, size in (("a", 2), ("b", 2), ("c", 3)):
        g.add_variable(name, "discrete", size)
    g.add_variable("v", "gamma")
    g.add_variable("q", "beta")
    g.add_factor(TableFactor("f", ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]])))
    return g


def _mix(log_base=np.zeros((2, 3)), exponent=np.ones((2, 3)), obs_sq=np.ones((2, 3)),
         disc=("a", "c"), gammas=("v",)):
    return MixtureObservationFactor("h", disc, gammas, log_base=log_base,
                                    exponents=[exponent], obs_sq=[obs_sq])


def _bern(log_base=np.zeros((2, 3)), succ=np.ones((2, 3)), fail=np.ones((2, 3))):
    return BernoulliMixFactor("h", ["a", "c"], ["q"], log_base=log_base, succ=[succ],
                              fail=[fail])


# Factors that fail as they are added, each with its tags and the start of
# its error; before the checks ran at build time, the first two gave wrong
# beliefs (a: [0.155, 0.845] against enumeration's [0.794, 0.206], and
# [0.273, 0.727] against [0.25, 0.75]), the tag cases failed at the first
# sweep or were ignored, and the shape cases failed at the first sweep or
# broadcast.
BAD_FACTORS = {
    "duplicate-name": (TableFactor("f", ["a"], np.array([0.9, 0.1])), None,
                       "duplicate factor 'f'"),
    "variable-twice": (TableFactor("h", ["a", "a"], np.array([[1.0, 5.0], [2.0, 3.0]])),
                       None, "factor 'h' lists a variable twice"),
    "unknown-tag": (TableFactor("h", ["a", "b"], np.ones((2, 2))), {"b": "sp"},
                    "factor 'h': discrete variable 'b' cannot sit on a 'sp'"),
    "capitalized-tag": (TableFactor("h", ["a", "b"], np.ones((2, 2))), {"a": "MF"},
                        "factor 'h': discrete variable 'a' cannot sit on a 'MF'"),
    "tag-on-another-variable": (TableFactor("h", ["a", "b"], np.ones((2, 2))),
                                {"a": MF, "c": BP}, "factor 'h' tags variables"),
    "tag-on-no-variable": (TableFactor("h", ["a"], np.ones(2)), {"z": MF},
                           "factor 'h' tags variables"),
    "table-transposed": (TableFactor("h", ["a", "c"], np.ones((3, 2))), None,
                         "factor 'h': table has shape"),
    "table-broadcast": (TableFactor("h", ["a", "c"], np.ones(3)), None,
                        "factor 'h': table has shape"),
    "log-base": (_mix(log_base=np.zeros(3)), None, "factor 'h': log_base has shape"),
    "exponent": (_mix(exponent=np.ones((3, 2))), None, "factor 'h': exponents has shape"),
    "obs-sq": (_mix(obs_sq=np.ones((2, 1))), None, "factor 'h': obs_sq has shape"),
    "succ": (_bern(succ=np.ones((3, 2))), None, "factor 'h': succ has shape"),
    "fail": (_bern(fail=np.ones(3)), None, "factor 'h': fail has shape"),
    "beta-as-gamma": (_mix(gammas=("q",)), None, "factor 'h' sends a gamma belief to beta"),
    "discrete-as-gamma": (_mix(gammas=("b",)), None, "factor 'h' sends a gamma belief to discrete"),
    "gamma-as-discrete": (TableFactor("h", ["a", "v"], np.ones((2, 2))), None,
                          "factor 'h' sends a discrete belief to gamma"),
    "zero-unary-table": (TableFactor("h", ["a"], np.zeros(2)), None, "factor 'h'"),
}


@pytest.mark.parametrize("case", BAD_FACTORS)
def test_malformed_factor_fails_when_added_and_leaves_the_graph_unchanged(case):
    factor, tags, match = BAD_FACTORS[case]
    g = _graph_with_one_factor()
    factors, tag_map, messages = list(g.factors), dict(g._tags), dict(g._m)
    with pytest.raises(ValueError, match=match):
        g.add_factor(factor, tags=tags)
    assert g.factors == factors and g._tags == tag_map
    assert g._m.keys() == messages.keys() and all(g._m[k] is m for k, m in messages.items())
    # the graph still runs as 'f' alone: its marginals are the table's sums
    g.run()
    assert np.allclose(g.belief("a").probs, [0.3, 0.7], rtol=0.0, atol=1e-15)
    assert np.allclose(g.belief("b").probs, [0.4, 0.6], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("build", [
    lambda: _mix(gammas=("v", "w")),
    lambda: BernoulliMixFactor("h", ["a"], ["q"], log_base=np.zeros(2),
                               succ=[np.ones(2)] * 2, fail=[np.ones(2)]),
    lambda: BernoulliMixFactor("h", ["a"], ["q", "r"], log_base=np.zeros(2),
                               succ=[np.ones(2)] * 2, fail=[np.ones(2)]),
], ids=["mixture", "bernoulli-succ", "bernoulli-fail"])
def test_factor_needs_its_arrays_once_per_parametric_variable(build):
    # zip would drop the extra arrays, or leave a variable without its own
    with pytest.raises(ValueError, match="per (gamma|beta) variable"):
        build()


def test_exact_marginals_rejects_parametric_graphs():
    g = FactorGraph()
    g.add_variable("v", "gamma")
    g.add_factor(PriorFactor("pv", "v", GammaBelief(1.0, 1.0)))
    with pytest.raises(UnsupportedGraphError):
        exact_marginals(g)


def test_stretched_check_needs_single_hybrid_factor():
    g = FactorGraph()
    for name in ("a", "b", "c"):
        g.add_variable(name, "discrete", 2)
    g.add_factor(TableFactor("f1", ["a", "b"], np.ones((2, 2))))
    g.add_factor(TableFactor("f2", ["b", "c"], np.ones((2, 2))))
    with pytest.raises(UnsupportedGraphError):
        stretched_graph_equivalence_check(g)


def test_stretched_check_takes_only_the_graph():
    # the sweep limit and tolerance are `FactorGraph.run`'s defaults
    assert tuple(inspect.signature(stretched_graph_equivalence_check).parameters) == ("graph",)


def test_stretched_equivalence_cn_mixture():
    rng = np.random.default_rng(42)
    g = FactorGraph()
    g.add_variable("x1", "discrete", 2)
    g.add_variable("x2", "discrete", 2)
    g.add_variable("v", "gamma")
    g.add_factor(PriorFactor("pv", "v", GammaBelief(1.5, 1.0)))
    factor = MixtureObservationFactor(
        "mix", ["x1", "x2"], ["v"],
        log_base=rng.normal(size=(2, 2)),
        exponents=[rng.uniform(0.0, 2.0, size=(2, 2))],
        obs_sq=[rng.uniform(0.1, 2.0, size=(2, 2))],
    )
    g.add_factor(factor, tags={"x1": BP, "x2": BP})
    g.add_factor(TableFactor("a1", ["x1"], rng.uniform(0.2, 1.5, size=2)))
    g.add_factor(TableFactor("a2", ["x2"], rng.uniform(0.2, 1.5, size=2)))
    report = stretched_graph_equivalence_check(g)
    assert report["max_discrepancy"] < 1e-10
    assert report["messages_compared"] >= 8


def test_stretched_equivalence_degenerate_tags():
    rng = np.random.default_rng(47)
    table = rng.uniform(0.1, 2.0, size=(2, 3))
    anchors = [rng.uniform(0.2, 1.5, size=2), rng.uniform(0.2, 1.5, size=3)]
    # all edges bp degenerates to plain sum-product: the check passes and
    # the converged beliefs equal the enumeration marginals
    g, hub, names = build_single_factor_graph(table, anchors, [BP, BP])
    report = stretched_graph_equivalence_check(g)
    assert report["max_discrepancy"] < 1e-10
    exact = exact_marginals(g)
    for name in names:
        assert np.max(np.abs(g.belief(name).probs - exact[name])) < 1e-10
    # all edges mf degenerates to the variational fixed point
    g, hub, names = build_single_factor_graph(table, anchors, [MF, MF])
    report = stretched_graph_equivalence_check(g)
    assert report["max_discrepancy"] < 1e-10


def test_stretched_equivalence_random_graphs():
    rng = np.random.default_rng(53)
    for _ in range(8):
        g = random_hybrid_graph(rng)
        report = stretched_graph_equivalence_check(g)
        assert report["max_discrepancy"] < 1e-10
