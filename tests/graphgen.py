"""Random toy-graph builders shared by the engine tests."""

import numpy as np

from hmpce.factorgraph import (
    BP,
    MF,
    BernoulliMixFactor,
    BetaBelief,
    FactorGraph,
    GammaBelief,
    MixtureObservationFactor,
    PriorFactor,
    TableFactor,
)


def random_tree_graph(rng):
    """Chain of finite-domain variables with pairwise tables, all edges bp."""
    n = int(rng.integers(3, 7))
    sizes = [int(rng.integers(2, 5)) for _ in range(n)]
    names = [f"x{i}" for i in range(n)]
    g = FactorGraph()
    for name, size in zip(names, sizes):
        g.add_variable(name, "discrete", size)
    for i in range(n - 1):
        table = rng.uniform(0.1, 2.0, size=(sizes[i], sizes[i + 1]))
        g.add_factor(TableFactor(f"f{i}", [names[i], names[i + 1]], table))
    for i in range(n):
        if rng.random() < 0.5:
            g.add_factor(
                TableFactor(f"a{i}", [names[i]], rng.uniform(0.2, 1.5, size=sizes[i]))
            )
    return g


def random_hybrid_graph(rng):
    """One multi-variable factor with random edge tags plus unary anchors,
    shaped to satisfy the stretched-check preconditions."""
    n_disc = int(rng.integers(2, 4))
    sizes = [int(rng.integers(2, 4)) for _ in range(n_disc)]
    disc = [f"x{i}" for i in range(n_disc)]
    g = FactorGraph()
    for name, size in zip(disc, sizes):
        g.add_variable(name, "discrete", size)
    tags = {name: (BP if rng.random() < 0.5 else MF) for name in disc}
    shape = tuple(sizes)
    kind = ("table", "mixture", "bernoulli")[int(rng.integers(3))]
    if kind == "table":
        factor = TableFactor("hub", disc, rng.uniform(0.05, 2.0, size=shape))
    elif kind == "mixture":
        gammas = [f"v{i}" for i in range(int(rng.integers(1, 3)))]
        for name in gammas:
            g.add_variable(name, "gamma")
            g.add_factor(
                PriorFactor(
                    f"prior_{name}", name,
                    GammaBelief(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)),
                )
            )
        factor = MixtureObservationFactor(
            "hub", disc, gammas,
            log_base=rng.normal(size=shape),
            exponents=[rng.uniform(0.0, 2.0, size=shape) for _ in gammas],
            obs_sq=[rng.uniform(0.05, 2.0, size=shape) for _ in gammas],
        )
    else:
        betas = [f"q{i}" for i in range(int(rng.integers(1, 3)))]
        for name in betas:
            g.add_variable(name, "beta")
            g.add_factor(
                PriorFactor(
                    f"prior_{name}", name,
                    BetaBelief(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)),
                )
            )
        factor = BernoulliMixFactor(
            "hub", disc, betas,
            log_base=rng.normal(size=shape),
            succ=[rng.uniform(0.0, 2.0, size=shape) for _ in betas],
            fail=[rng.uniform(0.0, 2.0, size=shape) for _ in betas],
        )
    g.add_factor(factor, tags=tags)
    for i, name in enumerate(disc):
        if rng.random() < 0.7:
            g.add_factor(
                TableFactor(f"anchor_{name}", [name], rng.uniform(0.2, 1.5, size=sizes[i]))
            )
    return g
