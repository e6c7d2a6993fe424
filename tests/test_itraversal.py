"""Differential tests for the reverse-search traversal engine.

The decisive property: every Fig 11 row (bTraversal and each iTraversal
ablation) with each local enumerator enumerates *exactly* the set of
maximal k-biplexes that brute force finds — on many random graphs,
including hypothesis-generated ones. This is also how we validate the
exclusion-strategy rule, whose proof lives in the paper's offline
technical report (see module docstring of itraversal.py).
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.itraversal as engine
from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph, solution_key
from repro.core.extend import initial_solution_left
from repro.core.itraversal import (
    VARIANTS,
    TraversalStats,
    itraversal,
    successors,
)


def keys(it):
    return {solution_key(s) for s in it}


# Test id → VARIANTS row; "iTraversal(link)" is full iTraversal (link-pruning exclusion).
CONFIGS = {
    "bTraversal": "bTraversal",
    "iTraversal-ES-RS": "iTraversal-ES-RS",
    "iTraversal-ES": "iTraversal-ES",
    "iTraversal(link)": "iTraversal",
}


@pytest.mark.parametrize("name,variant", CONFIGS.items(), ids=list(CONFIGS))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed,p", [(0, 0.5), (1, 0.35), (2, 0.65), (3, 0.5)])
def test_configs_match_bruteforce(name, variant, k, seed, p):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=p, seed=seed)
    want = all_maximal_kbiplexes(g, k)
    got = keys(itraversal(g, k, variant=variant))
    assert got == want, f"{name} diverged from brute force"


@pytest.mark.parametrize("local_enum", ["l2r2", "inflation"])
@pytest.mark.parametrize("k", [1, 2])
def test_local_enum_variants_complete(local_enum, k):
    g = random_bipartite_gnp(n_left=5, n_right=4, p=0.5, seed=5)
    want = all_maximal_kbiplexes(g, k)
    assert keys(itraversal(g, k, local_enum=local_enum)) == want


@pytest.mark.parametrize("k", [1, 2])
def test_btraversal_inflation_complete(k):
    g = random_bipartite_gnp(n_left=4, n_right=5, p=0.45, seed=8)
    want = all_maximal_kbiplexes(g, k)
    for local_enum in ("inflation", "l2r2"):
        got = keys(itraversal(g, k, variant="bTraversal", local_enum=local_enum))
        assert got == want, local_enum


def test_no_duplicates():
    g = random_bipartite_gnp(n_left=6, n_right=5, p=0.5, seed=2)
    out = [solution_key(s) for s in itraversal(g, 1)]
    assert len(out) == len(set(out))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("theta", [None, (2, 2)], ids=["None", "2"])
def test_links_never_enter_exclusion_set(seed, theta):
    """Every link the kernel yields keeps the child's left side out of the
    child's exclusion set, so no pre-extension exclusion test is needed.
    Walks the whole solution graph with the full iTraversal row."""
    g = random_bipartite_gnp(n_left=7, n_right=7, p=0.3 + 0.04 * seed, seed=seed)
    k, row = 2, VARIANTS["iTraversal"]
    h0 = initial_solution_left(g, k)
    seen, todo, links = {solution_key(h0)}, [(h0, frozenset())], 0
    while todo:
        sol, excl = todo.pop()
        assert sol[0].isdisjoint(excl)
        for child, child_excl in successors(g, k, sol, excl, row, theta):
            links += 1
            cx = child_excl()
            assert child[0].isdisjoint(cx), (sol, child, cx)
            if solution_key(child) not in seen:
                seen.add(solution_key(child))
                todo.append((child, cx))
    assert links >= len(seen) - 1


def test_kernel_looks_up_every_layer_at_call_time(monkeypatch):
    """The profiler rebinds these module globals; a local alias in the
    kernel would hide a layer from it without failing anything else."""
    layers = ("enum_almost_sat", "_has_right_extension", "_theta_potential_ok",
              "extend_to_maximal", "solution_key")
    calls = dict.fromkeys(layers, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in layers:
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    g = random_bipartite_gnp(n_left=8, n_right=8, p=0.5, seed=0)
    st_ = TraversalStats()
    assert list(itraversal(g, 1, theta=4, stats=st_))
    # Every pruning fires here, so each layer is on the path.
    assert st_.pruned_right_shrinking and st_.pruned_theta_potential
    assert st_.pruned_exclusion
    assert all(calls.values()), calls


def test_lazy_first_n():
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=6)
    import itertools

    full = list(itraversal(g, 1))
    first3 = list(itertools.islice(itraversal(g, 1), 3))
    assert first3 == full[:3]


@pytest.mark.parametrize("k", [1, 2])
def test_link_counts_monotone_sparsification(k):
    """Fig 3/11: |links(𝒢)| >= |links(𝒢_L)| >= |links(𝒢_R)| >= |links(𝒢_E)|."""
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.55, seed=10)
    counts = {}
    for name in VARIANTS:
        st_ = TraversalStats()
        list(itraversal(g, k, variant=name, stats=st_))
        counts[name] = st_.links
    assert (
        counts["bTraversal"]
        >= counts["iTraversal-ES-RS"]
        >= counts["iTraversal-ES"]
        >= counts["iTraversal"]
    )
    assert counts["iTraversal"] < counts["bTraversal"]


def test_stats_populated():
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=1)
    st_ = TraversalStats()
    n = len(list(itraversal(g, 1, stats=st_)))
    assert st_.solutions == n
    assert st_.expansions >= 1
    assert st_.links >= n - 1  # a DFS tree alone has n-1 links
    d = st_.as_dict()
    assert d["solutions"] == n


def test_invalid_configs_rejected():
    g = random_bipartite_gnp(n_left=3, n_right=3, p=0.5, seed=0)
    bad = [
        dict(k=0),
        dict(k=-1),
        dict(k=True),
        dict(k=1.0),
        dict(variant="bogus"),
        dict(local_enum="l3r9"),
        dict(local_enum="l1r1"),
        dict(theta=2, variant="iTraversal-ES-RS"),
        dict(theta=2, variant="bTraversal"),
        dict(theta=-3),
        dict(theta=True),
        dict(theta=2.7),
        dict(theta="3"),
        dict(theta=(2, -1)),
        dict(theta=(2, 3, 4)),
        dict(theta=(2.0, 3)),
    ]
    for kwargs in bad:
        k = kwargs.pop("k", 1)
        with pytest.raises(ValueError):
            list(itraversal(g, k, **kwargs))


def test_edge_cases_tiny_graphs():
    for k in (1, 2):
        g = BipartiteGraph.from_edges([], n_left=2, n_right=2)
        assert keys(itraversal(g, k)) == all_maximal_kbiplexes(g, k)
        g2 = BipartiteGraph.from_biadjacency([[1]])
        assert keys(itraversal(g2, k)) == all_maximal_kbiplexes(g2, k)


def test_star_graph():
    g = BipartiteGraph.from_edges([(0, u) for u in range(5)], n_left=4, n_right=5)
    for k in (1, 2):
        assert keys(itraversal(g, k)) == all_maximal_kbiplexes(g, k)
        got = keys(itraversal(g, k, variant="bTraversal", local_enum="inflation"))
        assert got == all_maximal_kbiplexes(g, k)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=2**20 - 1),
    k=st.integers(min_value=1, max_value=2),
)
def test_hypothesis_itraversal_complete(bits, k):
    rows = [[(bits >> (i * 5 + j)) & 1 for j in range(5)] for i in range(4)]
    g = BipartiteGraph.from_biadjacency(rows)
    want = all_maximal_kbiplexes(g, k)
    assert keys(itraversal(g, k)) == want
    assert keys(itraversal(g, k, variant="iTraversal-ES")) == want


@settings(max_examples=25, deadline=None)
@given(bits=st.integers(min_value=0, max_value=2**20 - 1))
def test_hypothesis_btraversal_complete(bits):
    rows = [[(bits >> (i * 5 + j)) & 1 for j in range(5)] for i in range(4)]
    g = BipartiteGraph.from_biadjacency(rows)
    assert keys(itraversal(g, 1, variant="bTraversal")) == all_maximal_kbiplexes(g, 1)
