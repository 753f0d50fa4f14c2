import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_graph, seven_vertex_example
from matchpow import (
    Monomial,
    MonomialIdeal,
    WeightedOrientedGraph,
    classify_last_power,
    verify_certificate,
)
from matchpow.classify import ClassificationCertificate, StarSplitNode
from matchpow.serialize import (
    certificate_from_doc,
    certificate_to_doc,
    graph_from_doc,
    graph_to_doc,
    ideal_from_doc,
    ideal_to_doc,
    load_graph,
    load_ideal,
    save_graph,
    save_ideal,
)


def test_graph_roundtrip_with_names():
    D = seven_vertex_example()
    doc = graph_to_doc(D)
    assert doc["vertices"] == list("abcdefg")
    assert doc["weights"] == {"a": 2, "b": 2}
    assert ["c", "a"] in doc["edges"]
    back = graph_from_doc(doc)
    assert back == D


def test_graph_doc_defaults_and_errors():
    doc = {"vertices": ["1", "2"], "edges": [["1", "2"]]}
    D = graph_from_doc(doc)
    assert D.weight(2) == 1
    with pytest.raises(ValueError):
        graph_from_doc({"vertices": ["1", "1"], "edges": []})
    with pytest.raises(ValueError):
        graph_from_doc({"vertices": ["1", "2"], "edges": [["1", "3"]]})
    with pytest.raises(ValueError):
        graph_from_doc({"vertices": ["1", "2"], "edges": [["1", "2"]], "weights": {"9": 2}})
    with pytest.raises(ValueError):
        graph_from_doc({"edges": []})
    for weights in ([], 0, False, "", None):
        with pytest.raises(ValueError, match="weights must be a JSON object"):
            graph_from_doc({"vertices": ["1", "2"], "edges": [["1", "2"]], "weights": weights})


def test_graph_file_roundtrip(tmp_path):
    D = seven_vertex_example()
    path = tmp_path / "g.json"
    save_graph(D, path)
    assert load_graph(path) == D


def test_ideal_doc_is_canonical(tmp_path):
    I = MonomialIdeal.from_monomials(
        3, [Monomial((1, 1, 0)), Monomial((0, 0, 2)), Monomial((1, 1, 1))]
    )
    doc = ideal_to_doc(I)
    assert doc == {"n": 3, "generators": [[0, 0, 2], [1, 1, 0]]}
    assert ideal_from_doc(doc) == I
    path = tmp_path / "i.json"
    save_ideal(I, path)
    assert load_ideal(path) == I
    assert json.loads(path.read_text())["generators"] == [[0, 0, 2], [1, 1, 0]]


def test_ideal_doc_errors():
    with pytest.raises(ValueError):
        ideal_from_doc({"n": 2, "generators": [[1, 0, 0]]})
    with pytest.raises(ValueError):
        ideal_from_doc({"generators": []})


def test_certificate_roundtrip_positive():
    D = seven_vertex_example()
    cert = classify_last_power(D)
    doc = certificate_to_doc(cert)
    assert doc["verdict"] is True
    assert doc["trace"]["kind"] == "strong_edge"
    assert certificate_from_doc(json.loads(json.dumps(doc))) == cert


def test_certificate_roundtrip_refuted():
    D = WeightedOrientedGraph.build(6, [(1, 3), (3, 2), (3, 4), (4, 5), (4, 6)], {3: 2})
    cert = classify_last_power(D)
    doc = certificate_to_doc(cert)
    assert doc["trace"]["kind"] == "refuted"
    assert doc["trace"]["condition"] == "pendant_exponent"
    assert certificate_from_doc(doc) == cert


def test_star_split_children_keep_their_order():
    # both children of the root split differ, so swapping them changes the
    # certificate; replay hands each child the power built for its subforest
    D = WeightedOrientedGraph.build(8, [(2, 1), (2, 7), (3, 1), (4, 3), (5, 6), (8, 6)], {6: 2})
    cert = classify_last_power(D)
    doc = certificate_to_doc(cert)
    assert certificate_from_doc(json.loads(json.dumps(doc))) == cert
    trace = doc["trace"]
    assert trace["kind"] == "star_split"
    children = [trace["child_without_center"], trace["child_without_center_anchor"]]
    assert [c["trace"]["kind"] for c in children] == ["star_split", "isolated_edge"]
    node = cert.trace
    swapped = StarSplitNode(node.config, node.child_without_center_anchor, node.child_without_center)
    assert verify_certificate(D, cert)
    assert not verify_certificate(D, ClassificationCertificate(True, swapped))


def test_certificate_doc_errors():
    with pytest.raises(ValueError):
        certificate_from_doc({"verdict": True, "trace": {"kind": "banana"}})
    with pytest.raises(ValueError):
        certificate_from_doc({"trace": {"kind": "unweighted_base"}})


READERS = {
    "graph": graph_from_doc,
    "ideal": ideal_from_doc,
    "certificate": certificate_from_doc,
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_non_object_document_is_rejected(kind):
    for doc in ([1, 2], "x", None, 5):
        with pytest.raises(ValueError, match=f"^{kind} document must be a JSON object$"):
            READERS[kind](doc)


def _valid(kind, obj):
    """The reader's result is well typed: writing and reading it again gives
    it back."""
    if kind == "graph":
        return isinstance(obj, WeightedOrientedGraph) and graph_from_doc(graph_to_doc(obj)) == obj
    if kind == "ideal":
        return isinstance(obj, MonomialIdeal) and ideal_from_doc(ideal_to_doc(obj)) == obj
    doc = json.loads(json.dumps(certificate_to_doc(obj)))
    return certificate_from_doc(doc) == obj


def _read(kind, doc):
    try:
        obj = READERS[kind](doc)
    except ValueError:
        return
    assert _valid(kind, obj)


# what json.loads can return, non-finite floats included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@given(st.sampled_from(sorted(READERS)), JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_readers_take_any_json_value(kind, doc):
    _read(kind, doc)


def _sample_docs():
    graphs = [
        seven_vertex_example(),
        WeightedOrientedGraph.build(6, [(1, 4), (2, 3)], {4: 2}),
        WeightedOrientedGraph.build(6, [(1, 2), (1, 4), (1, 5), (2, 3)], {3: 2}),
        WeightedOrientedGraph.build(6, [(2, 3), (2, 4), (3, 1), (5, 1)], {1: 2}),
        WeightedOrientedGraph.build(6, [(1, 3), (3, 2), (3, 4), (4, 5), (4, 6)], {3: 2}),
        path_graph(5, {5: 2}),
    ]
    certs = [classify_last_power(D) for D in graphs]
    ideal = MonomialIdeal.from_monomials(3, [Monomial((1, 2, 0)), Monomial((0, 2, 1))])
    return (
        [("graph", graph_to_doc(seven_vertex_example())), ("ideal", ideal_to_doc(ideal))]
        + [("certificate", certificate_to_doc(c)) for c in certs]
    )


SAMPLE_DOCS = _sample_docs()


@given(st.sampled_from(SAMPLE_DOCS), st.data())
@settings(max_examples=600, deadline=None)
def test_readers_take_documents_with_one_wrong_value(sample, data):
    """A valid document with one value, at any depth, replaced by any JSON
    value or removed."""
    kind, doc = sample
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            break
        else:
            node[key] = data.draw(JSON_VALUES)
            break
    _read(kind, doc)


def test_sample_documents_cover_every_node_kind():
    kinds = set()
    for kind, doc in SAMPLE_DOCS:
        stack = [doc] if kind == "certificate" else []
        while stack:
            trace = stack.pop()["trace"]
            kinds.add(trace["kind"])
            stack.extend(v for k, v in trace.items() if k.startswith("child"))
    assert len(kinds) == 7
