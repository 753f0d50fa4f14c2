"""Classification of weighted oriented forests by their last matching power.

The classifier decides whether the top nonvanishing matching power of the edge
ideal is polymatroidal, peeling one matching-number level per step: an
isolated edge or a strong pendant edge factors out as a monomial times the
power of a smaller forest; otherwise a distant configuration (leaves a_1..a_t
on a centre b next to an anchor c) must satisfy exact weight and orientation
conditions, splitting into a star factorization or a two-part decomposition
depending on whether deleting {b, c} kills the next power, down to a star
decided by its shape (:class:`NuOneBaseNode`).  :func:`verify_certificate`
replays every certificate with independent machinery, oracles included.

Each level's structural choices (the matching number, the distant
configuration, whether its pendant edge is strong, the star test and the
subforests that come next) depend on the underlying forest only, so the
classifier plans, then evaluates.  A :class:`ForestPlan` holds one node per
subforest reached, each built by one engine pass the first time an evaluation
needs it; :func:`evaluate_plan` walks the plan for one orientation and
weighting, on an explicit stack, and applies the weight and orientation
conditions and the two bases.  :func:`classify_last_power` is a fresh plan
plus one evaluation; the thm34 campaign shares one plan among every
orientation and weighting of a forest.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields, is_dataclass
from itertools import filterfalse
from typing import Optional, Sequence, Union

from .exchange import is_polymatroidal
from .graphs import (
    DistantConfig,
    FindResult,
    IsolatedEdge,
    WeightedOrientedGraph,
    _Forest,
    enumerate_matchings,
    find_distant_configuration,
    is_forest,
    is_strong_edge,
    matching_number,
)
from .monomials import Monomial, MonomialIdeal
from .powers import edge_ideal, edge_monomial, matching_power

__all__ = [
    "UnweightedBaseNode",
    "NuOneBaseNode",
    "IsolatedEdgeNode",
    "StrongEdgeNode",
    "StarFactorNode",
    "StarSplitNode",
    "RefutedNode",
    "ClassificationCertificate",
    "strong_edge_criterion",
    "classify_last_power",
    "ForestPlan",
    "evaluate_plan",
    "verify_certificate",
]


@dataclass(frozen=True)
class UnweightedBaseNode:
    """All non-source weights are 1: the last power is polymatroidal outright."""


@dataclass(frozen=True)
class NuOneBaseNode:
    """Matching number 1: a star K_{1,t}, whose edge monomials x_a^p x_b^q
    (leaf a, centre b) have p = 1, q = w(b) on an edge into b and p = w(a),
    q = 1 on an edge out.  The ideal is polymatroidal exactly when t = 1, or
    every p is 1 and all q are equal: lowering x_a can be repaired only by
    x_{a'}, which needs p = p' = 1 and q = q', or by x_b, which never works."""

    polymatroidal: bool


@dataclass(frozen=True)
class IsolatedEdgeNode:
    edge: tuple[int, int]
    child: "ClassificationCertificate"


@dataclass(frozen=True)
class StrongEdgeNode:
    config: DistantConfig
    child: "ClassificationCertificate"


@dataclass(frozen=True)
class StarFactorNode:
    """Deleting centre and anchor kills the next power; the ideal factors as
    x_b^delta * (pendant variables) * (power of the forest without the centre)."""

    config: DistantConfig
    delta: int
    child_without_center: "ClassificationCertificate"


@dataclass(frozen=True)
class StarSplitNode:
    """The next power survives without centre and anchor; the ideal decomposes
    as x_b^{w(b)} * [pendants * power(D - b) + x_c * power(D - b - c)]."""

    config: DistantConfig
    child_without_center: "ClassificationCertificate"
    child_without_center_anchor: "ClassificationCertificate"


@dataclass(frozen=True)
class RefutedNode:
    """A failed condition, with the vertices it failed at.

    Conditions: no_edges, leaf_weight (a pendant leaf has weight > 1),
    pendant_exponent (pendant edge monomials disagree on the centre exponent,
    or miss the required one), bridge_shape (the centre-anchor edge is not
    x_c * x_b^{w(b)} with w(c) = 1), child_power (a recursive subforest fails;
    its certificate is attached).
    """

    condition: str
    locus: tuple[int, ...]
    child: Optional["ClassificationCertificate"] = None


TraceNode = Union[
    UnweightedBaseNode,
    NuOneBaseNode,
    IsolatedEdgeNode,
    StrongEdgeNode,
    StarFactorNode,
    StarSplitNode,
    RefutedNode,
]


@dataclass(frozen=True)
class ClassificationCertificate:
    verdict: bool
    trace: TraceNode

    def _tokens(self) -> list[object]:
        # The tree in prefix order (a dataclass node as its type, then its
        # fields; any other value with its type), built on a stack: a
        # certificate is one level deep per matching-number step.
        out: list[object] = []
        stack: list[object] = [self]
        while stack:
            x = stack.pop()
            if is_dataclass(x):
                out.append(type(x))
                stack.extend(getattr(x, f.name) for f in fields(x))
            else:
                out.append((type(x), x))
        return out

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._tokens() == other._tokens()

    def __hash__(self) -> int:
        return hash(tuple(self._tokens()))

    def __repr__(self) -> str:
        # The generated dataclass text, built on a stack too: a str on the stack
        # is literal text, a 1-tuple holds a value still to be written.
        parts: list[str] = []
        stack: list[object] = [(self,)]
        while stack:
            x = stack.pop()
            if isinstance(x, str):
                parts.append(x)
            elif is_dataclass(x[0]):
                todo: list[object] = [type(x[0]).__qualname__ + "("]
                for k, f in enumerate(fields(x[0])):
                    todo += [(", " if k else "") + f.name + "=", (getattr(x[0], f.name),)]
                stack += reversed(todo + [")"])
            else:
                parts.append(repr(x[0]))
        return "".join(parts)


def _validate_config(D: WeightedOrientedGraph, config: DistantConfig) -> bool:
    """The configuration lists every leaf neighbour of the centre except a
    possibly-promoted anchor, and the centre has no second non-leaf neighbour."""
    if config.center not in D.adjacency or config.anchor not in D.adjacency:
        return False
    nbrs = set(D.adjacency[config.center])
    if config.anchor not in nbrs:
        return False
    leaf_nbrs = {u for u in nbrs if D.degree(u) == 1}
    if set(config.leaves) != leaf_nbrs - {config.anchor}:
        return False
    if not config.leaves:
        return False
    non_leaf = nbrs - leaf_nbrs
    return non_leaf <= {config.anchor}


def strong_edge_criterion(D: WeightedOrientedGraph, config: DistantConfig) -> bool:
    """Pendant-edge strongness via matchings of the centre-deleted forest.

    Some pendant edge {a_i, b} of the configuration is strong exactly when
    t = 1 and every (nu - 1)-matching of the graph without the centre covers
    the anchor.
    """
    nu = matching_number(D)
    if nu < 2:
        raise ValueError("criterion requires matching number >= 2")
    if not _validate_config(D, config):
        raise ValueError(f"{config} is not a distant configuration of the graph")
    if config.t != 1:
        return False
    sub = D.delete({config.center})
    return all(
        config.anchor in m.vertices() for m in enumerate_matchings(sub, nu - 1)
    )


def _pendant_deltas(D: WeightedOrientedGraph, config: DistantConfig) -> set[int]:
    """Centre exponents of the pendant edge monomials x_{a_i} x_b^delta.

    Pendant edges oriented into the centre contribute w(b); edges oriented out
    contribute 1 (their leaf weight is 1 whenever this is consulted).
    """
    b = config.center
    out = set()
    for a in config.leaves:
        if (a, b) in D.edges:
            out.add(D.weight(b))
        else:
            out.add(1)
    return out


def classify_last_power(D: WeightedOrientedGraph) -> ClassificationCertificate:
    """Certificate for: the top matching power of the edge ideal is polymatroidal.

    Requires a normalized weighted oriented forest.  Edgeless graphs are
    refuted (there is no power to classify).  Runs a fresh plan of the
    underlying forest and one evaluation against it.
    """
    if not is_forest(D):
        raise ValueError("classification requires a forest")
    if not D.is_normalized():
        raise ValueError("sources must have weight 1; call normalize_sources first")
    return evaluate_plan(ForestPlan(D.n, D.edges), D.edges, (1, *D.weights))


Edges = tuple[tuple[int, int], ...]
_UNWEIGHTED = ClassificationCertificate(True, UnweightedBaseNode())
_NO_EDGES = ClassificationCertificate(False, RefutedNode("no_edges", ()))


class _PlanNode:
    """One subforest of a plan: ``ids`` index the plan's edge list.

    ``config`` is None on the bases (``nu`` <= 1); at ``nu`` 1 ``center`` is
    the star's centre, or None for a single edge.  Otherwise ``factor`` says
    whether an isolated or strong pendant edge factors out (one child);
    if not, ``star`` is the star test and ``pendants`` and ``bridge`` are the
    ids of the configuration's pendant edges (in leaf order) and of the
    centre-anchor edge.  Child k is the subforest without the vertices
    ``drops[k]``; ``kids[k]`` holds it once an evaluation has reached it.
    """

    __slots__ = (
        "ids", "nu", "config", "center", "factor", "star", "pendants", "bridge", "drops", "kids"
    )

    def __init__(self, plan: ForestPlan, ids: tuple[int, ...]) -> None:
        self.ids = ids
        self.config: Optional[FindResult] = None
        if not ids:
            self.nu = 0
            return
        # one engine pass; the node keeps only what the evaluation reads
        forest = _Forest(plan.n, tuple(map(plan.edges.__getitem__, ids)))
        self.nu = forest.nu
        if self.nu == 1:
            # a star: its centre is the vertex its first two edges share
            first = [set(plan.edges[i]) for i in ids[:2]]
            self.center = (first[0] & first[1]).pop() if len(first) == 2 else None
            return
        config = self.config = forest.distant()
        if isinstance(config, IsolatedEdge):
            self.factor, self.drops = True, ((config.a, config.b),)
        else:
            b, c = config.center, config.anchor
            a0 = config.leaves[0]
            # a0 is a leaf, so the pendant edge a0b lies in every maximum
            # matching (is strong) exactly when a0 is always covered
            self.factor = config.t == 1 and forest.covered(a0)
            if self.factor:
                self.drops = ((a0, b),)
            else:
                # Star case: nu(D - b - c) < nu(D - b) = nu - 1, that is, c is
                # covered by every maximum matching of D - b.  The centre b is
                # always covered and is matched to one of its leaves whenever
                # c is exposed, so that holds exactly when c is always covered
                # in D.
                self.star = forest.covered(c)
                self.drops = ((b,), (b, c))
                at_b = {}  # neighbour of b -> id of its edge to b
                for i in plan.incident[b]:
                    t, h = plan.edges[i]
                    at_b[t + h - b] = i
                self.pendants = tuple(at_b[a] for a in config.leaves)
                self.bridge = at_b[c]
        self.kids: list[Optional[_PlanNode]] = [None] * len(self.drops)


class ForestPlan:
    """The structural half of the classifier for one forest on labels 1..n.

    ``edges`` are the forest's edges in either orientation; an instance is
    evaluated (:func:`evaluate_plan`) with an orientation of each.  Nodes are
    keyed by the ids of their edges, in increasing order, and built the first
    time an evaluation reaches them: refuted instances stop after a few
    levels, and a large forest has exponentially many reachable subforests.
    Building a child checks that its matching number is one below its
    parent's.  The plan holds no verdict: the evaluation applies every weight
    and orientation condition, the star rule included.
    """

    __slots__ = ("n", "edges", "incident", "nodes", "root")

    def __init__(self, n: int, edges: Edges) -> None:
        self.n, self.edges = n, tuple(edges)
        self.incident: list[list[int]] = [[] for _ in range(n + 1)]  # vertex -> edge ids
        for i, (t, h) in enumerate(self.edges):
            self.incident[t].append(i)
            self.incident[h].append(i)
        self.nodes: dict[tuple[int, ...], _PlanNode] = {}
        self.root = self._node(tuple(range(len(self.edges))))

    def _node(self, ids: tuple[int, ...]) -> _PlanNode:
        node = self.nodes.get(ids)
        if node is None:
            node = self.nodes[ids] = _PlanNode(self, ids)
        return node

    def _child(self, node: _PlanNode, k: int) -> _PlanNode:
        kid = node.kids[k]
        if kid is None:
            dead = {i for v in node.drops[k] for i in self.incident[v]}
            kid = self._node(tuple(filterfalse(dead.__contains__, node.ids)))
            # every subforest a level asks for has matching number one lower
            assert kid.nu == node.nu - 1, f"child {kid.ids} of {node.ids} has nu {kid.nu}"
            node.kids[k] = kid
        return kid


def evaluate_plan(
    plan: ForestPlan, directed: Sequence[tuple[int, int]], weights: Sequence[int]
) -> ClassificationCertificate:
    """The certificate of one weighted orientation of the plan's forest.

    ``directed[i]`` is the (tail, head) form of ``plan.edges[i]`` and
    ``weights[v]`` the weight of vertex v (index 0 unused); sources must have
    weight 1, which the caller checks.  The levels run on an explicit stack,
    one entry per level in progress, and a subforest reached twice is
    certified once.
    """
    # ids of the edges whose head is weighted: a subforest without any of
    # them is the unweighted base (its non-sources are the heads of its edges)
    heavy = {i for i, (_, h) in enumerate(directed) if weights[h] != 1}
    root = plan.root
    if _unweighted(root, heavy):
        return _UNWEIGHTED
    done: dict[_PlanNode, ClassificationCertificate] = {}
    stack = [root]
    while True:
        node = stack[-1]
        out = _certify(plan, node, directed, weights, done)
        if type(out) is _PlanNode:
            # each subforest meets this test once: it is then done or stacked
            if _unweighted(out, heavy):
                done[out] = _UNWEIGHTED
            else:
                stack.append(out)
            continue
        done[node] = out
        stack.pop()
        if not stack:
            return out


def _unweighted(node: _PlanNode, heavy: set[int]) -> bool:
    return bool(node.ids) and heavy.isdisjoint(node.ids)


def _certify(
    plan: ForestPlan,
    node: _PlanNode,
    directed: Sequence[tuple[int, int]],
    weights: Sequence[int],
    done: dict[_PlanNode, ClassificationCertificate],
) -> Union[ClassificationCertificate, _PlanNode]:
    """One level: the node's certificate, or the first child it still needs
    (the child without the centre before the one without centre and anchor)."""
    config = node.config
    if config is None:
        if not node.nu:
            return _NO_EDGES
        # the star rule: one edge, or one shape (1, q) of every x_a^p x_b^q
        b = node.center
        heads = [directed[i][1] for i in node.ids]
        shapes = {(1, weights[b]) if h == b else (weights[h], 1) for h in heads}
        ok = b is None or len(shapes) == 1 and shapes.pop()[0] == 1
        return ClassificationCertificate(ok, NuOneBaseNode(ok))

    if node.factor:
        child = plan._child(node, 0)
        cert = done.get(child)
        if cert is None:
            return child
        if isinstance(config, IsolatedEdge):
            return ClassificationCertificate(
                cert.verdict, IsolatedEdgeNode((config.a, config.b), cert)
            )
        return ClassificationCertificate(cert.verdict, StrongEdgeNode(config, cert))

    # A weight counts only on a vertex that heads an edge of this subforest:
    # deleting vertices can leave a weighted vertex a source, of weight 1.
    # Pendant leaves must be weightless; a leaf's one edge is its pendant.
    for a, i in zip(config.leaves, node.pendants):
        if weights[a] != 1 and directed[i][1] == a:
            return ClassificationCertificate(False, RefutedNode("leaf_weight", (a,)))
    b, c = config.center, config.anchor
    child_b = plan._child(node, 0)
    cert_b = done.get(child_b)
    if cert_b is None:
        return child_b
    if not cert_b.verdict:
        return ClassificationCertificate(False, RefutedNode("child_power", (b,), cert_b))

    # b's edges here are its pendants and the bridge
    heads = [directed[i][1] for i in node.pendants]
    bridge_in = directed[node.bridge][1] == b
    wb = weights[b] if bridge_in or b in heads else 1
    deltas = {wb if h == b else 1 for h in heads}
    if node.star:
        # the power without centre and anchor vanishes
        if len(deltas) > 1:
            return ClassificationCertificate(False, RefutedNode("pendant_exponent", config.leaves))
        return ClassificationCertificate(True, StarFactorNode(config, deltas.pop(), cert_b))

    # split case: the centre exponent must be w(b) throughout, the anchor must
    # be weightless, and the bridge monomial must be x_c * x_b^{w(b)}
    if deltas != {wb}:
        return ClassificationCertificate(False, RefutedNode("pendant_exponent", config.leaves))
    if weights[c] != 1 and _heads_an_edge(plan, node, directed, c):
        return ClassificationCertificate(False, RefutedNode("bridge_shape", (c,)))
    # with w(c) = 1 both orientations give x_b x_c; otherwise (c, b) is forced
    if not bridge_in and wb != 1:
        return ClassificationCertificate(False, RefutedNode("bridge_shape", (b, c)))
    child_bc = plan._child(node, 1)
    cert_bc = done.get(child_bc)
    if cert_bc is None:
        return child_bc
    if not cert_bc.verdict:
        return ClassificationCertificate(False, RefutedNode("child_power", (b, c), cert_bc))
    return ClassificationCertificate(True, StarSplitNode(config, cert_b, cert_bc))


def _heads_an_edge(
    plan: ForestPlan, node: _PlanNode, directed: Sequence[tuple[int, int]], v: int
) -> bool:
    """Whether v is the head of an edge of the node's subforest."""
    ids = node.ids
    for i in plan.incident[v]:
        if directed[i][1] == v:
            k = bisect_left(ids, i)
            if k < len(ids) and ids[k] == i:
                return True
    return False


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------


def _pendant_variable_ideal(D: WeightedOrientedGraph, config: DistantConfig) -> MonomialIdeal:
    return MonomialIdeal(
        D.n, tuple(sorted((Monomial.variable(a, D.n) for a in config.leaves),
                          key=lambda m: m.exponents))
    )


# A replay entry: a subforest, its certificate, and (k, M_k) with M_k the k-th
# matching power of its edge ideal if the parent's equation built it.
_Power = Optional[tuple[int, MonomialIdeal]]
_Entry = tuple[WeightedOrientedGraph, ClassificationCertificate, _Power]


def verify_certificate(D: WeightedOrientedGraph, cert: ClassificationCertificate) -> bool:
    """Replay a certificate, recomputing every claimed factorization.

    Positive nodes are checked by computing both sides of the stated ideal
    equation with independent machinery (matching powers, products and sums
    of ideals); refuted nodes re-check the failed condition.  Untrue claims
    make the replay return False; structurally malformed certificates raise.

    Nodes are replayed from a work list, parents before children and the
    child without the centre first, so replay has no depth limit.  A power on
    the right side of a node's equation is the left side of the child it
    belongs to, so each subforest's top power is built once, and a star base
    is checked with the exchange oracle.  The search behind
    :func:`matching_power` still walks every smaller matching, so the cost
    grows exponentially with the matching number: weighted paths of 16, 20,
    24 and 26 vertices replay in about 1.2, 2.3, 5 and 9 ms on a 2-vCPU Xeon,
    doubling with each added pair of vertices.  Classification, stars
    included, is linear per level.
    """
    if not isinstance(cert, ClassificationCertificate):
        raise ValueError("not a classification certificate")
    todo: list[_Entry] = [(D, cert, None)]
    while todo:
        kids = _replay(*todo.pop())
        if kids is None:
            return False
        todo += reversed(kids)
    return True


def _replay(
    D: WeightedOrientedGraph, cert: ClassificationCertificate, power: _Power
) -> Optional[list[_Entry]]:
    """One node: None if a check fails, else the entries of its children."""
    node = cert.trace

    if isinstance(node, UnweightedBaseNode):
        if not cert.verdict or not D.underlying_edges:
            return None
        # the non-sources are the heads of the edges
        return [] if all(D.weight(h) == 1 for _, h in D.edges) else None

    if isinstance(node, NuOneBaseNode):
        if matching_number(D) != 1:
            return None
        ok = is_polymatroidal(edge_ideal(D))
        return [] if ok == node.polymatroidal == cert.verdict else None

    if isinstance(node, RefutedNode):
        if cert.verdict:
            return None
        if node.condition == "child_power":
            if node.child is None or node.child.verdict:
                return None
            return [(D.delete(node.locus), node.child, None)]
        return [] if _refutation_holds(D, node) else None

    # the factor nodes: M_nu(D) must equal a right side built from the powers
    # M_{nu-1} of the subforests ``subs``, which their ``children`` certify
    if isinstance(node, (IsolatedEdgeNode, StrongEdgeNode)):
        # an isolated or a strong pendant edge factors out of the power
        if isinstance(node, IsolatedEdgeNode):
            edge = a, b = node.edge
            if not D.has_edge(a, b) or D.degree(a) != 1 or D.degree(b) != 1:
                return None
        else:
            config = node.config
            if not _validate_config(D, config) or config.t != 1:
                return None
            edge = (config.leaves[0], config.center)
            if not is_strong_edge(D, edge):
                return None
        if cert.verdict != node.child.verdict:
            return None
        subs, children = [D.delete(edge)], [node.child]
        if not cert.verdict:
            return [(subs[0], children[0], None)]
        nu = matching_number(D)
        sub_powers = [matching_power(edge_ideal(subs[0]), nu - 1)]
        rhs = sub_powers[0].times_monomial(edge_monomial(D, edge))
    elif isinstance(node, (StarFactorNode, StarSplitNode)):
        # x_b^delta * [pendants * M(D - b)], plus x_c * M(D - b - c) on a split
        split = isinstance(node, StarSplitNode)
        children = [node.child_without_center]
        if split:
            children.append(node.child_without_center_anchor)
        if not cert.verdict or not all(child.verdict for child in children):
            return None
        config = node.config
        if not _validate_config(D, config) or any(D.weight(a) != 1 for a in config.leaves):
            return None
        b, c = config.center, config.anchor
        nu = matching_number(D)
        subs = [D.delete({b}), D.delete({b, c})]
        delta = D.weight(b) if split else node.delta
        if _pendant_deltas(D, config) != {delta} or delta not in (1, D.weight(b)):
            return None
        # deleting b and c kills the next power in the star case (the factor);
        # b has a leaf, so nu(D - b - c) <= nu - 1, with equality on a split
        if (matching_number(subs[1]) < nu - 1) == split or split and not _is_bridge(D, b, c):
            return None
        sub_powers = [matching_power(edge_ideal(sub), nu - 1) for sub in subs[:len(children)]]
        inner = _pendant_variable_ideal(D, config) * sub_powers[0]
        if split:
            inner = inner + sub_powers[1].times_monomial(Monomial.variable(c, D.n))
        rhs = inner.times_monomial(Monomial.variable(b, D.n, delta))
    else:
        raise ValueError(f"unknown certificate node {type(node).__name__}")

    # the left side is the power the parent built for D if its index is nu
    if power is not None and power[0] == nu:
        lhs = power[1]
    else:
        lhs = matching_power(edge_ideal(D), nu)
    if lhs != rhs:
        return None
    return [(sub, child, (nu - 1, below)) for sub, child, below in zip(subs, children, sub_powers)]


def _is_bridge(D: WeightedOrientedGraph, b: int, c: int) -> bool:
    """The centre-anchor edge monomial is x_c * x_b^{w(b)} with w(c) = 1."""
    bridge = Monomial.variable(c, D.n) * Monomial.variable(b, D.n, D.weight(b))
    return D.weight(c) == 1 and edge_monomial(D, (b, c)) == bridge


def _refutation_holds(D: WeightedOrientedGraph, node: RefutedNode) -> bool:
    """A refutation without a child holds; all but no_edges re-check the
    distant configuration the classifier chose."""
    if node.condition == "no_edges":
        return not D.underlying_edges
    if node.condition in ("leaf_weight", "pendant_exponent", "bridge_shape"):
        found = find_distant_configuration(D)
        if not isinstance(found, DistantConfig):
            return False
    if node.condition == "leaf_weight":
        return any(a in node.locus and D.weight(a) != 1 for a in found.leaves)
    if node.condition == "pendant_exponent":
        deltas = _pendant_deltas(D, found)
        if len(deltas) > 1:
            return True
        nu = matching_number(D)
        star_case = matching_number(D.delete({found.center, found.anchor})) < nu - 1
        return not star_case and deltas != {D.weight(found.center)}
    if node.condition == "bridge_shape":
        return not _is_bridge(D, found.center, found.anchor)
    raise ValueError(f"unknown refutation condition {node.condition!r}")
