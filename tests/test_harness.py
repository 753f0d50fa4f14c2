import pytest

from conftest import seven_vertex_example
from matchpow import OracleCaps, WeightedOrientedGraph, cross_validate
from matchpow.harness import (
    _canonical_key,
    _oracle_abc,
    _oracle_linrel,
    _thm34_forest_task,
    _max_matching_supports,
    verify_lemma22,
    verify_lemma31,
    verify_thm11_exhaustive,
    verify_thm11_random,
    verify_thm34_exhaustive,
    verify_thm34_random,
    worker_count,
)


def test_worker_count_resolution(monkeypatch):
    assert worker_count(3) == 3
    monkeypatch.setenv("MATCHPOW_WORKERS", "5")
    assert worker_count() == 5
    monkeypatch.delenv("MATCHPOW_WORKERS")
    assert worker_count() >= 1


def test_canonical_key_is_relabelling_invariant():
    gens = ((2, 0, 1, 0), (2, 1, 0, 0), (0, 1, 1, 1))
    swapped = tuple(sorted((g[1], g[0], g[3], g[2]) for g in gens))
    assert _canonical_key(gens) == _canonical_key(swapped)
    # projection drops unused columns
    padded = tuple(sorted(g + (0, 0) for g in gens))
    assert _canonical_key(gens) == _canonical_key(padded)


def test_oracle_cache_does_not_leak_across_caps():
    p4 = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))
    tight = OracleCaps(betti_max_generators=1)
    # either order must give each caps its own answer; linear relations
    # read pairwise lcms only and are never capped
    assert _oracle_abc(p4, tight) == (True, False, None)
    assert _oracle_abc(p4, OracleCaps()) == (True, False, True)
    assert _oracle_abc(p4, tight) == (True, False, None)
    assert _oracle_linrel(p4) is True


def test_max_matching_supports_p4():
    nu, supports = _max_matching_supports(4, [(1, 2), (2, 3), (3, 4)])
    assert nu == 2
    assert supports == {0b1111}
    nu, supports = _max_matching_supports(3, [(1, 2), (2, 3)])
    assert nu == 1
    assert supports == {0b011, 0b110}


def test_cross_validate_seven_vertex_example():
    report = cross_validate(seven_vertex_example(), instance_info={"index": 0})
    assert report.agreement
    assert report.verdicts == {
        "polymatroidal": True,
        "linearly_related": True,
        "linear_resolution": True,
        "classifier": True,
    }
    assert not report.skipped
    doc = report.to_doc()
    assert doc["instance"]["matching_number"] == 3


def test_cross_validate_negative_instance():
    D = WeightedOrientedGraph.build(6, [(1, 3), (3, 2), (3, 4), (4, 5), (4, 6)], {3: 2})
    report = cross_validate(D)
    assert report.agreement
    assert set(report.verdicts.values()) == {False}


def test_cross_validate_respects_caps():
    D = seven_vertex_example()
    tight = OracleCaps(betti_max_generators=1, exchange_max_pairs=1)
    report = cross_validate(D, caps=tight)
    assert set(report.skipped) == {"polymatroidal", "linear_resolution"}
    assert report.verdicts["linearly_related"] is True
    assert report.verdicts["classifier"] is True
    assert report.agreement  # linear relations and the classifier remain


def test_thm11_exhaustive_small():
    summary = verify_thm11_exhaustive(max_n=4, workers=1)
    assert summary["graphs_checked"] == 1 + 7 + 63
    assert summary["failures"] == []


def test_thm11_exhaustive_workers_merge_deterministically():
    one = verify_thm11_exhaustive(max_n=4, workers=1)
    two = verify_thm11_exhaustive(max_n=4, workers=2)
    assert one["graphs_checked"] == two["graphs_checked"]
    assert one["failures"] == two["failures"]


def test_thm11_random_small():
    summary = verify_thm11_random(trials=25, max_n=6, seed=42)
    assert summary["failures"] == []
    assert len(summary["reports"]) == 25
    again = verify_thm11_random(trials=25, max_n=6, seed=42)
    assert summary["reports"] == again["reports"]


def test_thm34_exhaustive_tiny():
    summary = verify_thm34_exhaustive(max_n=4, max_weight=2, workers=1)
    assert summary["instances"] > 0
    assert summary["disagreement_count"] == 0
    assert summary["low_power_violations"] == []
    assert summary["constant_degree_violations"] == []
    assert summary["skipped_oracle"] == 0


def test_thm34_random_small():
    summary = verify_thm34_random(trials=30, seed=5, max_n=6, max_weight=3)
    assert summary["disagreements"] == []
    assert len(summary["reports"]) == 30


def test_lemma22_small():
    summary = verify_lemma22(pairs=8, seed=7)
    assert summary["failures"] == []
    assert len(summary["reports"]) == 8
    # at least one drawn pair should exercise a nontrivial table
    assert any(r["k"] >= 1 for r in summary["reports"])


def test_lemma31_scan():
    summary = verify_lemma31(max_n=5)
    assert summary["mismatches"] == []
    assert summary["configurations_checked"] > 100


def test_thm34_task_rejects_a_cycle():
    with pytest.raises(ValueError, match="forest"):
        _thm34_forest_task((4, ((1, 2), (1, 4), (2, 3), (3, 4)), 3, 14, 4000))
