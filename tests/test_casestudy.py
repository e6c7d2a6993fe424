"""Tests for the fraud-detection case study (attack injection, detectors,
metrics — local and Spark, with the DuckDB oracle on the metric join)."""
import time

import pytest

import repro.casestudy.detect as detect
from repro.casestudy.attack import camouflage_attack
from repro.casestudy.detect import (
    detect_biclique,
    detect_core,
    detect_kbiplex,
    detect_quasi_biclique,
    evaluate,
    metrics,
    metrics_spark,
)


@pytest.fixture(scope="module")
def scenario():
    # Small scenario for tests: dense 12x12 fraud block on a thin organic
    # background; everything completes in seconds.
    return camouflage_attack(
        n_real_users=300,
        n_real_products=200,
        n_real_reviews=500,
        n_fake_users=12,
        n_fake_products=12,
        n_fake_comments=72,
        n_camouflage=72,
        n_heavy_users=20,
        n_popular_products=30,
        n_heavy_reviews=160,
        seed=1,
    )


def test_attack_shapes(scenario):
    g = scenario.graph
    assert g.n_left == 312
    assert g.n_right == 212
    assert len(scenario.fake_users) == 12
    assert len(scenario.fake_products) == 12
    assert len(scenario.fake_items) == 24


def test_attack_edges_per_fake_user(scenario):
    g = scenario.graph
    for v in scenario.fake_users:
        in_block = sum(1 for u in g.adj_l[v] if u in scenario.fake_products)
        camouflage = len(g.adj_l[v]) - in_block
        assert in_block == 6  # 72 fake comments / 12 users
        assert camouflage == 6


def test_attack_deterministic():
    a = camouflage_attack(seed=3, n_real_users=100, n_real_products=80,
                          n_real_reviews=150, n_fake_users=5,
                          n_fake_products=5, n_fake_comments=15,
                          n_camouflage=15, n_heavy_users=10,
                          n_popular_products=10, n_heavy_reviews=30)
    b = camouflage_attack(seed=3, n_real_users=100, n_real_products=80,
                          n_real_reviews=150, n_fake_users=5,
                          n_fake_products=5, n_fake_comments=15,
                          n_camouflage=15, n_heavy_users=10,
                          n_popular_products=10, n_heavy_reviews=30)
    assert a.graph.edges() == b.graph.edges()


def test_attack_rejects_uneven_split():
    with pytest.raises(ValueError):
        camouflage_attack(n_fake_users=7, n_fake_comments=10, n_camouflage=7)


def test_metrics_basic():
    fake = frozenset({("L", 1), ("L", 2), ("R", 1)})
    flagged = frozenset({("L", 1), ("R", 1), ("R", 9)})
    p, r, f1 = metrics(flagged, fake)
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
    assert f1 == pytest.approx(2 / 3)


def test_metrics_nothing_flagged_is_nd():
    p, r, f1 = metrics(frozenset(), frozenset({("L", 0)}))
    assert p is None and f1 is None and r == 0.0


def test_detect_core_flags_block(scenario):
    flagged = detect_core(scenario, alpha=4, beta=4)
    assert scenario.fake_items <= flagged  # dense block always in the core


def test_detect_kbiplex_finds_block(scenario):
    flagged = detect_kbiplex(scenario, 1, 3, 4, budget_s=20)
    tp = len(flagged & scenario.fake_items)
    assert tp >= 0.8 * len(scenario.fake_items)


def test_detect_biclique_recall_collapses_with_theta(scenario):
    low = detect_biclique(scenario, 3, 3, budget_s=20)
    high = detect_biclique(scenario, 3, 6, budget_s=20)
    rec_low = len(low & scenario.fake_items)
    rec_high = len(high & scenario.fake_items)
    assert rec_high <= rec_low


def test_detect_biclique_budget_interrupts_between_yields(scenario, monkeypatch):
    """The budget cuts an enumerator that stalls between two yields and
    flags what was collected before the cut."""
    first = (frozenset({0, 1}), frozenset({0}))

    def stalling(sub, **kwargs):
        yield first
        time.sleep(3)
        yield (frozenset({2}), frozenset({1}))

    monkeypatch.setattr(detect, "maximal_bicliques", stalling)
    _, lids, rids = detect._core_subgraph(scenario.graph, 3, 3)
    t0 = time.monotonic()
    flagged = detect_biclique(scenario, 3, 3, budget_s=0.3)
    assert time.monotonic() - t0 < 1.5
    assert flagged == {("L", lids[0]), ("L", lids[1]), ("R", rids[0])}


def test_detect_quasi_biclique_small_delta_is_biclique(scenario):
    qb = detect_quasi_biclique(scenario, 0.1, 3, 3, budget_s=20)
    bc = detect_biclique(scenario, 3, 3, budget_s=20)
    assert qb == bc


def test_evaluate_row_shape(scenario):
    res = evaluate(scenario, "m", frozenset(), 4, 5)
    row = res.row()
    assert row["precision"] == "ND"
    assert set(row) == {
        "method", "theta_l", "theta_r", "flagged", "precision", "recall", "f1"
    }


def test_metrics_spark_matches_local(spark, scenario):
    flagged = detect_core(scenario, alpha=3, beta=3)
    want = metrics(flagged, scenario.fake_items)
    got = metrics_spark(spark, flagged, scenario.fake_items)
    assert got[0] == pytest.approx(want[0])
    assert got[1] == pytest.approx(want[1])
    assert got[2] == pytest.approx(want[2])


def test_metrics_spark_against_duckdb(spark, scenario):
    import duckdb
    import pandas as pd

    flagged = detect_core(scenario, alpha=3, beta=3)
    fake = scenario.fake_items
    con = duckdb.connect()
    con.register("fl", pd.DataFrame(sorted(flagged), columns=["side", "id"]))
    con.register("fk", pd.DataFrame(sorted(fake), columns=["side", "id"]))
    tp, n_fl, n_fk = con.execute(
        """SELECT (SELECT count(*) FROM fl JOIN fk USING (side, id)),
                  (SELECT count(*) FROM fl), (SELECT count(*) FROM fk)"""
    ).fetchone()
    con.close()
    p, r, _ = metrics_spark(spark, flagged, fake)
    assert p == pytest.approx(tp / n_fl)
    assert r == pytest.approx(tp / n_fk)
