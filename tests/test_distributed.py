"""Distributed == local: the decisive tests for the PySpark enumerators."""
import pytest

from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import solution_key
from repro.core.itraversal import VARIANTS, itraversal, successors
from repro.distributed.frontier import (
    collect_solutions,
    frontier_enumerate,
    solution_row,
)
from repro.distributed.partition import enumerate_large_mbps_partitioned


def local_keys(it):
    return {solution_key(s) for s in it}


def test_solution_row_canonical():
    row = solution_row((frozenset({2, 0}), frozenset({1})))
    assert row == {"key": "0,2|1", "l": [0, 2], "r": [1]}


def test_frontier_kernel_links_are_right_shrinking_mbps():
    # The frontier's row: successors of H0 are maximal k-biplexes whose
    # right side shrinks, and the exclusion set stays empty.
    from repro.bipartite.predicates import is_maximal_kbiplex
    from repro.core.extend import initial_solution_left

    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=3)
    k = 1
    h0 = initial_solution_left(g, k)
    links = list(successors(g, k, h0, frozenset(), VARIANTS["iTraversal-ES"], None))
    assert links
    for (lp, rp), child_excl in links:
        assert is_maximal_kbiplex(g, lp, rp, k)
        assert rp <= h0[1]  # right-shrinking
        assert child_excl() == frozenset()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed,p", [(0, 0.5), (1, 0.4)])
def test_frontier_matches_bruteforce(spark, k, seed, p):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=p, seed=seed)
    df = frontier_enumerate(spark, g, k)
    assert collect_solutions(df) == all_maximal_kbiplexes(g, k)


def test_frontier_matches_local_itraversal_larger(spark):
    g = random_bipartite_gnp(n_left=7, n_right=6, p=0.45, seed=7)
    k = 1
    df = frontier_enumerate(spark, g, k)
    assert collect_solutions(df) == local_keys(itraversal(g, k))


def test_frontier_theta(spark):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.65, seed=5)
    k, theta = 1, 3
    want = {
        (l, r)
        for l, r in all_maximal_kbiplexes(g, k)
        if len(l) >= theta and len(r) >= theta
    }
    df = frontier_enumerate(spark, g, k, theta=theta)
    assert collect_solutions(df) == want


@pytest.mark.parametrize("theta", [(2, 3), (3, 2)], ids=["2-3", "3-2"])
def test_frontier_asymmetric_theta(spark, theta):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.6, seed=4)
    k, (tl, tr) = 1, theta
    want = {
        (l, r)
        for l, r in all_maximal_kbiplexes(g, k)
        if len(l) >= tl and len(r) >= tr
    }
    assert want
    df = frontier_enumerate(spark, g, k, theta=theta)
    assert collect_solutions(df) == want


def test_entry_points_reject_bad_k_and_theta(spark):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=0)
    for k, theta in [(0, None), (1, -3), (1, True), (1, 2.7), (1, "3")]:
        with pytest.raises(ValueError):
            frontier_enumerate(spark, g, k, theta=theta)
    for k, theta in [(0, 3), (1, None), (True, 3), (1, 3.0)]:
        with pytest.raises(ValueError):
            enumerate_large_mbps_partitioned(spark, g, k, theta)


def test_frontier_no_duplicate_keys(spark):
    g = random_bipartite_gnp(n_left=6, n_right=5, p=0.5, seed=9)
    df = frontier_enumerate(spark, g, 1)
    assert df.count() == df.select("key").distinct().count()


@pytest.mark.parametrize("seed", [0, 1])
def test_partitioned_matches_filtered_bruteforce(spark, seed):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.7, seed=seed)
    k, theta = 1, 3  # theta = 2k+1: the partition-validity bound
    want = {
        (l, r)
        for l, r in all_maximal_kbiplexes(g, k)
        if len(l) >= theta and len(r) >= theta
    }
    df = enumerate_large_mbps_partitioned(spark, g, k, theta)
    assert collect_solutions(df) == want


def test_partitioned_multi_component(spark):
    # Two disjoint dense blocks; each contributes its own large MBPs.
    import itertools

    from repro.bipartite.graph import BipartiteGraph

    edges = [(v, u) for v, u in itertools.product(range(4), range(4))]
    edges += [(v + 4, u + 4) for v, u in itertools.product(range(4), range(4))]
    edges.remove((0, 0))
    edges.remove((4, 4))
    g = BipartiteGraph.from_edges(edges, n_left=8, n_right=8)
    k, theta = 1, 3
    want = local_keys(itraversal(g, k, theta=theta))
    df = enumerate_large_mbps_partitioned(spark, g, k, theta)
    assert collect_solutions(df) == want
    assert len(want) >= 2  # both blocks represented


def test_partitioned_rejects_unsafe_theta(spark):
    g = random_bipartite_gnp(n_left=4, n_right=4, p=0.5, seed=0)
    with pytest.raises(ValueError):
        enumerate_large_mbps_partitioned(spark, g, k=2, theta=3)


def test_partitioned_empty_core(spark):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.15, seed=2)
    df = enumerate_large_mbps_partitioned(spark, g, k=1, theta=4)
    assert df.count() == 0
