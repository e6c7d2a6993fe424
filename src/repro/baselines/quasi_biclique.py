"""δ-quasi-biclique predicate — comparator for the Fig 13 case study.

A δ-quasi-biclique (δ-QB) (L, R) allows each v ∈ L to miss at most
δ·|R| edges toward R and each u ∈ R at most δ·|L| toward L [30]. The
structure is *not* hereditary, so exact maximal enumeration is much
harder than for k-biplexes (the paper makes this point in §1); the
literature solves the maximum variant with MIP [23, 24]. The case study
(`repro.casestudy.detect.detect_quasi_biclique`) finds δ-QBs as the
θ-constrained maximal k-biplexes that pass `is_delta_qb`.
"""
from __future__ import annotations

from ..bipartite.graph import BipartiteGraph


def is_delta_qb(
    g: BipartiteGraph, left: frozenset[int], right: frozenset[int], delta: float
) -> bool:
    """Definition of δ-quasi-biclique (misses ≤ δ·|other side|)."""
    return all(g.miss_l(v, right) <= delta * len(right) for v in left) and all(
        g.miss_r(u, left) <= delta * len(left) for u in right
    )
