"""JSON document formats for graphs, ideals, certificates, and trial reports.

Graph documents name vertices (position in ``vertices`` is the index); ideal
documents are canonical: generators sorted lexicographically by exponent
vector.  A certificate document lists the classifier trace's nodes flat, in
preorder, each child field holding the index of a later node.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from .classify import (
    ClassificationCertificate,
    IsolatedEdgeNode,
    NuOneBaseNode,
    RefutedNode,
    StarFactorNode,
    StarSplitNode,
    StrongEdgeNode,
    UnweightedBaseNode,
)
from .graphs import DistantConfig, WeightedOrientedGraph
from .monomials import Monomial, MonomialIdeal

__all__ = [
    "graph_to_doc",
    "graph_from_doc",
    "load_graph",
    "save_graph",
    "ideal_to_doc",
    "ideal_from_doc",
    "load_ideal",
    "save_ideal",
    "certificate_to_doc",
    "certificate_from_doc",
]


def graph_to_doc(D: WeightedOrientedGraph) -> dict[str, Any]:
    names = [D.name_of(v) for v in range(1, D.n + 1)]
    doc: dict[str, Any] = {
        "vertices": [names[v - 1] for v in D.vertices],
        "edges": [[names[t - 1], names[h - 1]] for t, h in D.edges],
        "weights": {
            names[v - 1]: D.weight(v) for v in D.vertices if D.weight(v) != 1
        },
    }
    return doc


def _object(doc: Any, kind: str) -> dict[str, Any]:
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document must be a JSON object")
    return doc


def _field(doc: dict[str, Any], key: str, kind: str) -> Any:
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{kind} document missing field: {key!r}") from None


def _array(value: Any, what: str) -> Union[list, tuple]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


def _int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _bool(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _name(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"vertex name must be a string or an integer, got {value!r}")
    return str(value)


def graph_from_doc(doc: dict[str, Any]) -> WeightedOrientedGraph:
    doc = _object(doc, "graph")
    names = [_name(v) for v in _array(_field(doc, "vertices", "graph"), "vertices")]
    raw_edges = _array(_field(doc, "edges", "graph"), "edges")
    if len(set(names)) != len(names):
        raise ValueError("vertex names must be unique")
    index = {name: i + 1 for i, name in enumerate(names)}
    edges = []
    for e in raw_edges:
        if len(_array(e, "an edge")) != 2:
            raise ValueError(f"edge {e} must be a [tail, head] pair")
        t, h = _name(e[0]), _name(e[1])
        if t not in index or h not in index:
            raise ValueError(f"edge {e} uses an unknown vertex name")
        edges.append((index[t], index[h]))
    weights = {}
    raw_weights = doc.get("weights", {})
    if not isinstance(raw_weights, dict):
        raise ValueError("weights must be a JSON object")
    for name, w in raw_weights.items():
        if str(name) not in index:
            raise ValueError(f"weight for unknown vertex {name!r}")
        weights[index[str(name)]] = _int(w, f"weight of {name!r}")
    return WeightedOrientedGraph.build(
        len(names), edges, weights, names=tuple(names)
    )


def load_graph(path: Union[str, Path]) -> WeightedOrientedGraph:
    with open(path, encoding="utf-8") as f:
        return graph_from_doc(json.load(f))


def save_graph(D: WeightedOrientedGraph, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(graph_to_doc(D), indent=2) + "\n", encoding="utf-8")


def ideal_to_doc(I: MonomialIdeal) -> dict[str, Any]:
    return {"n": I.n, "generators": [list(g.exponents) for g in I.gens]}


def ideal_from_doc(doc: dict[str, Any]) -> MonomialIdeal:
    doc = _object(doc, "ideal")
    n = _int(_field(doc, "n", "ideal"), "n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    monomials = []
    for g in _array(_field(doc, "generators", "ideal"), "generators"):
        if len(_array(g, "a generator")) != n:
            raise ValueError(f"generator {g} does not have length n={n}")
        monomials.append(Monomial(tuple(_int(e, "an exponent") for e in g)))
    return MonomialIdeal.from_monomials(n, monomials)


def load_ideal(path: Union[str, Path]) -> MonomialIdeal:
    with open(path, encoding="utf-8") as f:
        return ideal_from_doc(json.load(f))


def save_ideal(I: MonomialIdeal, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(ideal_to_doc(I), indent=2) + "\n", encoding="utf-8")


def _config_to_doc(config: DistantConfig) -> dict[str, Any]:
    return {
        "leaves": list(config.leaves),
        "center": config.center,
        "anchor": config.anchor,
    }


def _config_from_doc(doc: Any) -> DistantConfig:
    doc = _object(doc, "configuration")
    return DistantConfig(
        tuple(_int(a, "a leaf") for a in _array(_field(doc, "leaves", "configuration"), "leaves")),
        _int(_field(doc, "center", "configuration"), "center"),
        _int(_field(doc, "anchor", "configuration"), "anchor"),
    )


# A certificate is one level deep per matching-number step, so its document
# lists the nodes flat rather than nesting them.  The node kinds, each with its
# child fields in document order; a child field holds a later node's index.
_CHILDREN: dict[str, tuple[str, ...]] = {
    "unweighted_base": (),
    "single_matching_base": (),
    "isolated_edge": ("child",),
    "strong_edge": ("child",),
    "star_factor": ("child_without_center",),
    "star_split": ("child_without_center", "child_without_center_anchor"),
    "refuted": ("child",),
}


def certificate_to_doc(cert: ClassificationCertificate) -> dict[str, Any]:
    """``{"nodes": [...]}``: the tree's nodes in preorder, the root first."""
    nodes: list[dict[str, Any]] = []
    stack = [(cert, None, "")]  # (certificate, its parent's node, the field naming it there)
    while stack:
        cert, parent, name = stack.pop()
        if parent is not None:
            parent[name] = len(nodes)
        node = {"verdict": cert.verdict, **_node_to_doc(cert.trace)}
        nodes.append(node)
        for name in reversed(_CHILDREN[node["kind"]]):
            child = getattr(cert.trace, name)
            if child is not None:
                stack.append((child, node, name))
    return {"nodes": nodes}


def _node_to_doc(node: Any) -> dict[str, Any]:
    """The node's kind and own fields; :func:`certificate_to_doc` adds the
    verdict and the child indices."""
    if isinstance(node, UnweightedBaseNode):
        return {"kind": "unweighted_base"}
    if isinstance(node, NuOneBaseNode):
        return {"kind": "single_matching_base", "polymatroidal": node.polymatroidal}
    if isinstance(node, IsolatedEdgeNode):
        return {"kind": "isolated_edge", "edge": list(node.edge)}
    if isinstance(node, StrongEdgeNode):
        return {"kind": "strong_edge", "config": _config_to_doc(node.config)}
    if isinstance(node, StarFactorNode):
        return {"kind": "star_factor", "config": _config_to_doc(node.config), "delta": node.delta}
    if isinstance(node, StarSplitNode):
        return {"kind": "star_split", "config": _config_to_doc(node.config)}
    if isinstance(node, RefutedNode):
        return {"kind": "refuted", "condition": node.condition, "locus": list(node.locus)}
    raise ValueError(f"unknown trace node {type(node).__name__}")


def certificate_from_doc(doc: dict[str, Any]) -> ClassificationCertificate:
    nodes = _array(_field(_object(doc, "certificate"), "nodes", "certificate"), "nodes")
    if not nodes:
        raise ValueError("certificate document has no nodes")
    # children come after their parents, so building from the last node back
    # finds every child built; a used child's slot is emptied
    built: list[Optional[ClassificationCertificate]] = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        node = _object(nodes[i], "certificate node")
        verdict = _bool(_field(node, "verdict", "certificate node"), "verdict")
        kind = node.get("kind")
        if not isinstance(kind, str) or kind not in _CHILDREN:
            raise ValueError(f"unknown certificate node kind {kind!r}")
        names = _CHILDREN[kind]
        if kind == "refuted" and node.get("child") is None:
            names = ()  # the one kind whose child is optional
        children = []
        for name in names:
            j = _int(_field(node, name, kind), name)
            if not i < j < len(nodes):
                raise ValueError(f"{name} of node {i} must index a later node, got {j}")
            if built[j] is None:
                raise ValueError(f"node {j} is the child of two nodes")
            children.append(built[j])
            built[j] = None
        built[i] = ClassificationCertificate(verdict, _node_from_doc(kind, node, children))
    orphan = next((j for j in range(1, len(nodes)) if built[j] is not None), None)
    if orphan is not None:
        raise ValueError(f"node {orphan} is no node's child")
    return built[0]


def _node_from_doc(kind: str, doc: dict[str, Any], children: list) -> Any:
    """The node's own fields, with its already built child certificates."""
    if kind == "unweighted_base":
        return UnweightedBaseNode()
    if kind == "single_matching_base":
        return NuOneBaseNode(_bool(_field(doc, "polymatroidal", kind), "polymatroidal"))
    if kind == "isolated_edge":
        edge = _array(_field(doc, "edge", kind), "edge")
        if len(edge) != 2:
            raise ValueError(f"edge {edge} must be a pair")
        return IsolatedEdgeNode((_int(edge[0], "an edge end"), _int(edge[1], "an edge end")), *children)
    if kind == "refuted":
        condition = _field(doc, "condition", kind)
        if not isinstance(condition, str):
            raise ValueError(f"condition must be a string, got {condition!r}")
        locus = _array(_field(doc, "locus", kind), "locus")
        return RefutedNode(condition, tuple(_int(v, "a locus vertex") for v in locus), *children)
    config = _config_from_doc(_field(doc, "config", kind))
    if kind == "strong_edge":
        return StrongEdgeNode(config, *children)
    if kind == "star_factor":
        return StarFactorNode(config, _int(_field(doc, "delta", kind), "delta"), *children)
    return StarSplitNode(config, *children)
