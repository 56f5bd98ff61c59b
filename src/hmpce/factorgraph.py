"""Small factor-graph engine with per-edge message types.

Every edge of a factor carries one of two tags.  A "bp" edge receives
sum-product style messages in which the factor is first collapsed by taking
the exponentiated expected log over the beliefs of its "mf" neighbors; an
"mf" edge receives a variational message built from the joint belief of the
factor's bp neighborhood and the beliefs of the remaining mf neighbors.
With all edges tagged "bp" the engine degenerates to loopy sum-product,
with all edges "mf" to coordinate-ascent variational message passing.
The rule is the hybrid BP/MF rule of Riegler et al., "Merging belief
propagation and the mean field approximation", IEEE TIT 2013.

Supported variable kinds: "discrete" (`DiscreteMsg`), "gamma" precisions
(`GammaBelief`) and "beta" probabilities (`BetaBelief`).  The Gamma and Beta
variables sit on mf edges, anchored by a `PriorFactor` of their family; a
graph that breaks these rules fails as it is built (`FactorGraph.add_factor`).
Expectations are evaluated in closed form per family, E[ln v] and E[ln p]
from `priors.digamma_exact`; there is no generic quadrature.  Sweeps are
synchronous (`FactorGraph.sweep`).

It is the subject of `demos/demo_hybrid_rule.py` and acceptance criterion
3; no estimator path calls it, and `import hmpce` does not load it.

The stretched-graph checker rebuilds a single-hybrid-factor graph in the
classic combined form (hard-constraint factor plus one joint variable, the
original factor demoted to a pure mf factor) with an independent direct
implementation, runs both, and reports the worst message discrepancy.
"""

import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .priors import digamma_exact

BP = "bp"
MF = "mf"

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class UnsupportedGraphError(ValueError):
    pass


class UnnormalizableMessageError(ValueError):
    pass


class _Flat:
    """Marker for the improper uniform message."""

    def __repr__(self):
        return "FLAT"


FLAT = _Flat()


@dataclass
class DiscreteMsg:
    probs: np.ndarray


@dataclass(frozen=True)
class GammaBelief:
    """Gamma belief Ga(shape, rate) over a precision.

    The rate may be 0: a mixture observation whose squared observations or
    exponents vanish sends such a message, flat in the rate direction.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.rate >= 0.0):
            raise ValueError(f"need shape > 0 and rate >= 0, got ({self.shape}, {self.rate})")

    def mean(self):
        return self.shape / self.rate


@dataclass(frozen=True)
class BetaBelief:
    """Beta belief with pseudo-counts (a, b) for (success, failure)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"pseudo-counts must be positive, got ({self.a}, {self.b})")


@dataclass
class Variable:
    name: str
    kind: str           # "discrete" | "gamma" | "beta"
    size: int = None

    def __post_init__(self):
        if self.kind not in ("discrete", "gamma", "beta"):
            raise UnsupportedGraphError(f"variable '{self.name}' has unknown kind {self.kind!r}")
        if self.kind == "discrete" and not (self.size and self.size >= 2):
            raise ValueError(f"discrete variable {self.name} needs size >= 2")


def _normalize(vec, owner, target):
    total = vec.sum()
    if not (total > 0.0 and np.isfinite(total)):
        raise UnnormalizableMessageError(
            f"factor '{owner}' produced an unnormalizable message for variable '{target}'"
        )
    return vec / total


def _msg_product(kind, msgs):
    """Belief-style product of factor-to-variable messages; FLAT if empty."""
    msgs = [m for m in msgs if m is not FLAT]
    if not msgs:
        return FLAT
    if kind == "discrete":
        probs = msgs[0].probs.copy()
        for m in msgs[1:]:
            probs = probs * m.probs
        return DiscreteMsg(_normalize(probs, "<product>", "<belief>"))
    if kind == "gamma":
        shape = sum(m.shape for m in msgs) - (len(msgs) - 1)
        rate = sum(m.rate for m in msgs)
        return GammaBelief(shape, rate)
    a = sum(m.a for m in msgs) - (len(msgs) - 1)
    b = sum(m.b for m in msgs) - (len(msgs) - 1)
    return BetaBelief(a, b)


def _msg_delta(old, new):
    if old is FLAT and new is FLAT:
        return 0.0
    if (old is FLAT) != (new is FLAT):
        return 1.0
    if isinstance(new, DiscreteMsg):
        return float(np.max(np.abs(old.probs - new.probs)))
    # parametric messages: summed absolute change of their fields
    return sum(abs(o - n) for o, n in zip(astuple(old), astuple(new)))


class Factor:
    """Base: subclasses fill vars and implement compute_messages(graph).
    The variables in `disc_vars` are discrete, the others of `param_kind`."""

    disc_vars = ()
    param_kind = None

    def __init__(self, name, variables):
        self.name = name
        self.vars = list(variables)

    def compute_messages(self, graph):
        raise NotImplementedError


class _DiscreteCoreFactor(Factor):
    """Shared machinery for factors whose non-parametric neighbors are all
    finite-domain: collapse parametric beliefs into a log-table, then do
    table message passing with mixed edge tags."""

    def __init__(self, name, disc_vars, param_vars):
        super().__init__(name, list(disc_vars) + list(param_vars))
        self.disc_vars = list(disc_vars)
        self.param_vars = list(param_vars)

    # subclass hooks -----------------------------------------------------
    def current_log_table(self, param_beliefs):
        raise NotImplementedError

    def param_message(self, idx, joint_weights):
        raise NotImplementedError

    # ---------------------------------------------------------------------
    def compute_messages(self, graph):
        param_beliefs = []
        for v in self.param_vars:
            b = graph.belief(v)
            if b is FLAT:
                raise UnsupportedGraphError(
                    f"factor '{self.name}': parametric variable '{v}' has no proper belief"
                )
            param_beliefs.append(b)
        LT = self.current_log_table(param_beliefs)

        tags = [graph.tag(self, v) for v in self.disc_vars]
        bp_idx = [i for i, t in enumerate(tags) if t == BP]
        mf_idx = [i for i, t in enumerate(tags) if t == MF]
        labels = _LETTERS[: len(self.disc_vars)]
        mf_beliefs = {}
        for i in mf_idx:
            b = graph.belief(self.disc_vars[i])
            if b is FLAT:
                size = graph.variables[self.disc_vars[i]].size
                mf_beliefs[i] = np.full(size, 1.0 / size)
            else:
                mf_beliefs[i] = b.probs

        # expected log-table over the bp neighborhood
        if mf_idx:
            sub = ",".join([labels] + [labels[i] for i in mf_idx])
            out = "".join(labels[i] for i in bp_idx)
            LT_bp = np.einsum(f"{sub}->{out}", LT, *[mf_beliefs[i] for i in mf_idx])
        else:
            LT_bp = LT

        n_vecs = {}
        for i in bp_idx:
            n = graph.n_message(self.disc_vars[i], self)
            size = graph.variables[self.disc_vars[i]].size
            n_vecs[i] = np.full(size, 1.0 / size) if n is FLAT else n.probs

        shift = LT_bp.max() if LT_bp.size else 0.0
        if not np.isfinite(shift):
            shift = 0.0     # all-zero potentials; let _normalize raise
        T_bp = np.exp(LT_bp - shift)
        bp_labels = "".join(labels[i] for i in bp_idx)
        out_msgs = {}

        # sum-product style messages to bp-tagged neighbors
        for i in bp_idx:
            others = [j for j in bp_idx if j != i]
            sub = ",".join([bp_labels] + [labels[j] for j in others])
            vec = np.einsum(f"{sub}->{labels[i]}", T_bp, *[n_vecs[j] for j in others])
            out_msgs[self.disc_vars[i]] = DiscreteMsg(
                _normalize(vec, self.name, self.disc_vars[i])
            )

        # joint belief of the bp neighborhood (normalized)
        W_bp = T_bp
        for i in bp_idx:
            shape = [1] * len(bp_idx)
            shape[bp_idx.index(i)] = -1
            W_bp = W_bp * n_vecs[i].reshape(shape)
        W_bp = _normalize(W_bp, self.name, "<bp-joint>") if W_bp.size else W_bp

        # variational messages to mf-tagged discrete neighbors
        for l in mf_idx:
            others = [j for j in mf_idx if j != l]
            sub = ",".join([labels] + [labels[j] for j in others])
            out = "".join(labels[i] for i in bp_idx) + labels[l]
            LT2 = np.einsum(f"{sub}->{out}", LT, *[mf_beliefs[j] for j in others])
            if bp_idx:
                elt = np.tensordot(W_bp, LT2, axes=(range(len(bp_idx)), range(len(bp_idx))))
            else:
                elt = LT2
            elt = elt - elt.max()
            out_msgs[self.disc_vars[l]] = DiscreteMsg(
                _normalize(np.exp(elt), self.name, self.disc_vars[l])
            )

        # variational messages to parametric neighbors need the joint weight
        # over every discrete dimension: bp joint times mf beliefs
        if self.param_vars:
            operands = []
            subs = []
            if bp_idx:
                operands.append(W_bp)
                subs.append(bp_labels)
            for i in mf_idx:
                operands.append(mf_beliefs[i])
                subs.append(labels[i])
            if operands:
                W_full = np.einsum(f"{','.join(subs)}->{labels}", *operands)
            else:
                W_full = np.ones(())
            for idx, v in enumerate(self.param_vars):
                out_msgs[v] = self.param_message(idx, W_full)
        return out_msgs


class TableFactor(_DiscreteCoreFactor):
    """Plain potential table over finite-domain variables."""

    def __init__(self, name, disc_vars, table):
        super().__init__(name, disc_vars, [])
        self.table = np.asarray(table, dtype=float)
        if np.any(self.table < 0.0):
            raise ValueError(f"factor '{name}': potentials must be non-negative")
        with np.errstate(divide="ignore"):
            self._log_table = np.log(self.table)

    def current_log_table(self, param_beliefs):
        return self._log_table


class MixtureObservationFactor(_DiscreteCoreFactor):
    """f(x, v_1..v_L) = base(x) * prod_l CN(y_l(x); 0, 1/v_l)^(e_l(x)).

    The v_l are Gamma precision variables on mf edges; exponents e_l and
    squared observations |y_l(x)|^2 are arrays over the discrete dimensions.
    """

    param_kind = "gamma"

    def __init__(self, name, disc_vars, gamma_vars, log_base, exponents, obs_sq):
        super().__init__(name, disc_vars, gamma_vars)
        self.log_base = np.asarray(log_base, dtype=float)
        self.exponents = [np.asarray(e, dtype=float) for e in exponents]
        self.obs_sq = [np.asarray(q, dtype=float) for q in obs_sq]
        if len(self.exponents) != len(gamma_vars) or len(self.obs_sq) != len(gamma_vars):
            raise ValueError("need one exponent and one obs_sq array per gamma variable")

    def current_log_table(self, param_beliefs):
        LT = self.log_base.astype(float).copy()
        for v, e, q, b in zip(self.param_vars, self.exponents, self.obs_sq, param_beliefs):
            if not b.rate > 0.0:
                raise UnsupportedGraphError(
                    f"factor '{self.name}': gamma variable '{v}' has a rate-0 belief, "
                    "which has no expected log"
                )
            LT = LT + e * (digamma_exact(b.shape) - math.log(b.rate) - math.log(math.pi))
            LT = LT - b.mean() * e * q
        return LT

    def param_message(self, idx, joint_weights):
        e, q = self.exponents[idx], self.obs_sq[idx]
        shape_inc = float((joint_weights * e).sum())
        rate = float((joint_weights * e * q).sum())
        return GammaBelief(1.0 + shape_inc, rate)


class BernoulliMixFactor(_DiscreteCoreFactor):
    """f(x, q_1..q_J) = base(x) * prod_j q_j^(s_j(x)) (1-q_j)^(t_j(x)) with
    Beta probability variables on mf edges."""

    param_kind = "beta"

    def __init__(self, name, disc_vars, beta_vars, log_base, succ, fail):
        super().__init__(name, disc_vars, beta_vars)
        self.log_base = np.asarray(log_base, dtype=float)
        self.succ = [np.asarray(s, dtype=float) for s in succ]
        self.fail = [np.asarray(t, dtype=float) for t in fail]
        if len(self.succ) != len(beta_vars) or len(self.fail) != len(beta_vars):
            raise ValueError("need one succ and one fail array per beta variable")

    def current_log_table(self, param_beliefs):
        LT = self.log_base.astype(float).copy()
        for s, t, b in zip(self.succ, self.fail, param_beliefs):
            tot = digamma_exact(b.a + b.b)
            LT = LT + s * (digamma_exact(b.a) - tot) + t * (digamma_exact(b.b) - tot)
        return LT

    def param_message(self, idx, joint_weights):
        s, t = self.succ[idx], self.fail[idx]
        return BetaBelief(
            1.0 + float((joint_weights * s).sum()),
            1.0 + float((joint_weights * t).sum()),
        )


class PriorFactor(Factor):
    """Unary prior: sends `belief`, a `GammaBelief` or `BetaBelief`, to `var`."""

    def __init__(self, name, var, belief):
        super().__init__(name, [var])
        self.msg = belief
        self.param_kind = {GammaBelief: "gamma", BetaBelief: "beta"}.get(type(belief))

    def compute_messages(self, graph):
        return {self.vars[0]: self.msg}


class FactorGraph:
    def __init__(self):
        self.variables = {}
        self.factors = []
        self._tags = {}
        self._m = {}       # (factor, var) -> factor-to-variable message
        self._beliefs = {}

    # construction -------------------------------------------------------
    def add_variable(self, name, kind, size=None):
        if name in self.variables:
            raise ValueError(f"duplicate variable '{name}'")
        self.variables[name] = Variable(name, kind, size)

    def add_factor(self, factor, tags=None):
        """Add `factor`, each edge on its tag in `tags`: bp (the default) or mf
        for a discrete variable, mf for a Gamma or Beta one.  A new name,
        distinct variables of the kinds it takes and arrays of its discrete
        sizes are required too; a factor that breaks a rule raises, naming
        itself, before anything is written."""
        name, tags = factor.name, dict(tags or {})
        stray = sorted(set(tags) - set(factor.vars))
        if any(f.name == name for f in self.factors):
            raise UnsupportedGraphError(f"duplicate factor '{name}'")
        if len(set(factor.vars)) != len(factor.vars):
            raise UnsupportedGraphError(f"factor '{name}' lists a variable twice: {factor.vars}")
        if stray:
            raise UnsupportedGraphError(f"factor '{name}' tags variables it does not touch: {stray}")
        edges = {}
        for v in factor.vars:
            if v not in self.variables:
                raise ValueError(f"factor '{name}' references unknown variable '{v}'")
            kind = self.variables[v].kind
            want = "discrete" if v in factor.disc_vars else factor.param_kind
            if kind != want:
                who = "prior" if isinstance(factor, PriorFactor) else "factor"
                raise UnsupportedGraphError(
                    f"{who} '{name}' sends a {want} belief to {kind} variable '{v}'")
            tag = edges[(name, v)] = tags.get(v, BP if kind == "discrete" else MF)
            if tag not in (BP, MF) or (kind != "discrete" and tag != MF):
                raise UnsupportedGraphError(
                    f"factor '{name}': {kind} variable '{v}' cannot sit on a {tag!r} edge")
        sizes = tuple(self.variables[v].size for v in factor.disc_vars)
        for attr, value in vars(factor).items():  # every array is over disc_vars
            for arr in value if isinstance(value, list) else [value]:
                if isinstance(arr, np.ndarray) and arr.shape != sizes:
                    raise UnsupportedGraphError(
                        f"factor '{name}': {attr} has shape {arr.shape}, not {sizes}")
        self._tags.update(edges)
        try:  # unary messages are constant; make them available immediately
            unary = factor.compute_messages(self) if len(factor.vars) == 1 else {}
        except ValueError:
            for key in edges:
                del self._tags[key]
            raise
        self.factors.append(factor)
        self._m.update(dict.fromkeys(edges, FLAT))
        self._m.update(((name, v), msg) for v, msg in unary.items())
        self._beliefs = {}

    # accessors ------------------------------------------------------------
    def tag(self, factor, var):
        return self._tags[(factor.name, var)]

    def message(self, factor, var):
        return self._m[(factor.name, var)]

    def neighbors(self, var):
        return [f for f in self.factors if var in f.vars]

    def belief(self, var):
        if var not in self._beliefs:
            kind = self.variables[var].kind
            msgs = [self._m[(f.name, var)] for f in self.neighbors(var)]
            self._beliefs[var] = _msg_product(kind, msgs)
        return self._beliefs[var]

    def n_message(self, var, factor):
        """Variable-to-factor message: on a bp edge the product of the other
        incoming messages (FLAT when there are none), on an mf edge the
        full belief."""
        if self.tag(factor, var) == MF:
            return self.belief(var)
        kind = self.variables[var].kind
        msgs = [
            self._m[(f.name, var)] for f in self.neighbors(var) if f.name != factor.name
        ]
        return _msg_product(kind, msgs)

    # scheduling -----------------------------------------------------------
    def sweep(self):
        """One synchronous sweep over all non-unary factors; returns the
        largest message change."""
        self._beliefs = {}
        updates = {}
        for factor in self.factors:
            if len(factor.vars) == 1:
                continue
            for v, msg in factor.compute_messages(self).items():
                updates[(factor.name, v)] = msg
        delta = 0.0
        for key, msg in updates.items():
            delta = max(delta, _msg_delta(self._m[key], msg))
            self._m[key] = msg
        self._beliefs = {}
        return delta

    def run(self, max_sweeps=200, tol=1e-10):
        """Sweeps until quiescence; returns the number of sweeps executed."""
        for it in range(1, max_sweeps + 1):
            if self.sweep() < tol:
                return it
        return max_sweeps


def exact_marginals(graph):
    """Brute-force marginals of an all-discrete graph (enumeration oracle)."""
    names = list(graph.variables)
    for v in names:
        if graph.variables[v].kind != "discrete":
            raise UnsupportedGraphError("enumeration needs an all-discrete graph")
    sizes = [graph.variables[v].size for v in names]
    joint = np.zeros(sizes)
    for assign in itertools.product(*(range(s) for s in sizes)):
        value = 1.0
        for f in graph.factors:
            idx = tuple(assign[names.index(v)] for v in f.disc_vars)
            value *= float(f.table[idx])
        joint[assign] = value
    total = joint.sum()
    if not total > 0.0:
        raise UnnormalizableMessageError("joint distribution sums to zero")
    joint /= total
    out = {}
    for i, v in enumerate(names):
        axes = tuple(j for j in range(len(names)) if j != i)
        out[v] = joint.sum(axis=axes)
    return out


# --------------------------------------------------------------------------
# stretched-graph equivalence
# --------------------------------------------------------------------------

def _collapse_log_table(factor, param_beliefs):
    """Independent expected-log collapse used by the stretched pipeline.

    Reads the raw factor parameterization instead of going through the
    factor's own method so the two pipelines do not share the computation.
    """
    if isinstance(factor, MixtureObservationFactor):
        LT = factor.log_base.astype(float).copy()
        for e, q, (shape, rate) in zip(factor.exponents, factor.obs_sq, param_beliefs):
            LT = LT + e * (digamma_exact(shape) - math.log(rate) - math.log(math.pi))
            LT = LT - (shape / rate) * e * q
        return LT
    if isinstance(factor, BernoulliMixFactor):
        LT = factor.log_base.astype(float).copy()
        for s, t, (a, b) in zip(factor.succ, factor.fail, param_beliefs):
            tot = digamma_exact(a + b)
            LT = LT + s * (digamma_exact(a) - tot) + t * (digamma_exact(b) - tot)
        return LT
    if isinstance(factor, TableFactor):
        with np.errstate(divide="ignore"):
            return np.log(factor.table)
    raise UnsupportedGraphError(f"unsupported hybrid factor type {type(factor)}")


def _param_message_raw(factor, idx, joint_weights):
    if isinstance(factor, MixtureObservationFactor):
        e, q = factor.exponents[idx], factor.obs_sq[idx]
        return ("gamma", 1.0 + float((joint_weights * e).sum()),
                float((joint_weights * e * q).sum()))
    if isinstance(factor, BernoulliMixFactor):
        s, t = factor.succ[idx], factor.fail[idx]
        return ("beta", 1.0 + float((joint_weights * s).sum()),
                1.0 + float((joint_weights * t).sum()))
    raise UnsupportedGraphError(f"factor type {type(factor)} has no parametric neighbors")


def stretched_graph_equivalence_check(graph):
    """Compare the hybrid-rule messages on `graph` against the combined
    sum-product/variational rule on the stretched construction.

    The graph must contain exactly one multi-variable factor; each of its
    neighbors may carry one unary anchor factor.  Both rules run the sweeps
    that `FactorGraph.run`'s defaults take to quiescence.  Returns a report
    dict with the worst absolute discrepancy over all corresponding messages.
    """
    hybrids = [f for f in graph.factors if len(f.vars) > 1]
    if len(hybrids) != 1:
        raise UnsupportedGraphError("need exactly one multi-variable factor")
    hybrid = hybrids[0]
    if not isinstance(hybrid, _DiscreteCoreFactor):
        raise UnsupportedGraphError("hybrid factor must have finite-domain neighbors")
    for v in hybrid.vars:
        others = [f for f in graph.neighbors(v) if f.name != hybrid.name]
        if any(len(f.vars) > 1 for f in others) or len(others) > 1:
            raise UnsupportedGraphError(
                "stretched check expects at most one unary anchor per neighbor"
            )

    tags = [graph.tag(hybrid, v) for v in hybrid.disc_vars]
    bp_idx = [i for i, t in enumerate(tags) if t == BP]
    mf_idx = [i for i, t in enumerate(tags) if t == MF]
    sizes = [graph.variables[v].size for v in hybrid.disc_vars]
    labels = _LETTERS[: len(hybrid.disc_vars)]

    def anchor_table(var):
        others = [f for f in graph.neighbors(var) if f.name != hybrid.name]
        if not others:
            size = graph.variables[var].size
            return np.full(size, 1.0 / size)
        return _normalize(others[0].table.astype(float), others[0].name, var)

    def anchor_param(var):
        others = [f for f in graph.neighbors(var) if f.name != hybrid.name]
        if not others:
            raise UnsupportedGraphError(f"parametric variable '{var}' needs a prior factor")
        return list(astuple(others[0].compute_messages(graph)[var]))

    # pipeline 1: hybrid rule on the original graph
    sweeps = graph.run()

    # pipeline 2: combined rule on the stretched graph, same sweep count.
    # n-messages into the hard-constraint factor equal the unary anchors and
    # never change; the joint variable's belief couples the two halves.
    n_vecs = [anchor_table(hybrid.disc_vars[i]) for i in bp_idx]
    mf_disc_priors = [anchor_table(hybrid.disc_vars[i]) for i in mf_idx]
    param_priors = [anchor_param(v) for v in hybrid.param_vars]
    param_beliefs = [list(p) for p in param_priors]
    mf_disc_beliefs = [p.copy() for p in mf_disc_priors]
    to_bp = [None] * len(bp_idx)
    to_mf_disc = [None] * len(mf_idx)
    to_param = [None] * len(hybrid.param_vars)

    for _ in range(sweeps):
        LT = _collapse_log_table(hybrid, [tuple(p) for p in param_beliefs])
        # collapse mf-tagged discrete beliefs (they are not in the joint)
        if mf_idx:
            sub = ",".join([labels] + [labels[i] for i in mf_idx])
            out = "".join(labels[i] for i in bp_idx)
            LT_joint = np.einsum(f"{sub}->{out}", LT, *mf_disc_beliefs)
        else:
            LT_joint = LT
        # message from the demoted factor to the joint variable, Eq-(3) style
        m_to_joint = np.exp(LT_joint - (LT_joint.max() if LT_joint.size else 0.0))
        # hard-constraint factor: plain sum-product over the joint
        for pos, i in enumerate(bp_idx):
            others = [p for p in range(len(bp_idx)) if p != pos]
            sub = ",".join(["".join(labels[j] for j in bp_idx)]
                           + [labels[bp_idx[p]] for p in others])
            vec = np.einsum(
                f"{sub}->{labels[i]}", m_to_joint, *[n_vecs[p] for p in others]
            )
            to_bp[pos] = _normalize(vec, "stretched", hybrid.disc_vars[i])
        # belief of the joint variable
        W = m_to_joint
        for pos in range(len(bp_idx)):
            shape = [1] * len(bp_idx)
            shape[pos] = -1
            W = W * n_vecs[pos].reshape(shape)
        W = _normalize(W, "stretched", "<joint>") if W.size else W
        # variational messages out of the demoted factor
        for pos, l in enumerate(mf_idx):
            others = [q for q in range(len(mf_idx)) if q != pos]
            sub = ",".join([labels] + [labels[mf_idx[q]] for q in others])
            out = "".join(labels[i] for i in bp_idx) + labels[l]
            LT2 = np.einsum(f"{sub}->{out}", LT, *[mf_disc_beliefs[q] for q in others])
            if bp_idx:
                elt = np.tensordot(W, LT2, axes=(range(len(bp_idx)), range(len(bp_idx))))
            else:
                elt = LT2
            to_mf_disc[pos] = _normalize(np.exp(elt - elt.max()), "stretched",
                                         hybrid.disc_vars[l])
        if hybrid.param_vars:
            operands, subs = [], []
            if bp_idx:
                operands.append(W)
                subs.append("".join(labels[i] for i in bp_idx))
            for q in range(len(mf_idx)):
                operands.append(mf_disc_beliefs[q])
                subs.append(labels[mf_idx[q]])
            W_full = (np.einsum(f"{','.join(subs)}->{labels}", *operands)
                      if operands else np.ones(()))
            for idx in range(len(hybrid.param_vars)):
                to_param[idx] = _param_message_raw(hybrid, idx, W_full)
        # belief refresh at the end of the sweep
        for pos in range(len(mf_idx)):
            b = mf_disc_priors[pos] * to_mf_disc[pos]
            mf_disc_beliefs[pos] = _normalize(b, "stretched", "belief")
        for idx, prior in enumerate(param_priors):
            kind, x, y = to_param[idx]
            param_beliefs[idx] = (
                [prior[0] + x - 1.0, prior[1] + y] if kind == "gamma"
                else [prior[0] + x - 1.0, prior[1] + y - 1.0]
            )

    # compare corresponding messages and beliefs
    worst = 0.0
    count = 0
    for pos, i in enumerate(bp_idx):
        v = hybrid.disc_vars[i]
        worst = max(worst, float(np.max(np.abs(
            graph.message(hybrid, v).probs - to_bp[pos]
        ))))
        eng_belief = graph.belief(v).probs
        direct_belief = _normalize(to_bp[pos] * anchor_table(v), "stretched", v)
        worst = max(worst, float(np.max(np.abs(eng_belief - direct_belief))))
        count += 2
    for pos, l in enumerate(mf_idx):
        v = hybrid.disc_vars[l]
        worst = max(worst, float(np.max(np.abs(
            graph.message(hybrid, v).probs - to_mf_disc[pos]
        ))))
        worst = max(worst, float(np.max(np.abs(
            graph.belief(v).probs - mf_disc_beliefs[pos]
        ))))
        count += 2
    for idx, v in enumerate(hybrid.param_vars):
        # message then belief, each as (shape, rate) or (a, b)
        engine = astuple(graph.message(hybrid, v)) + astuple(graph.belief(v))
        direct = to_param[idx][1:] + tuple(param_beliefs[idx])
        worst = max(worst, *(abs(e - d) for e, d in zip(engine, direct)))
        count += 4
    return {"max_discrepancy": worst, "messages_compared": count, "sweeps": sweeps}
