"""Fraud detection with cohesive structures (paper §6.3, Fig 13).

For each structure family — biclique, k-biplex, (α,β)-core, δ-QB — find
the qualifying subgraphs, flag every user/product involved in any of
them, and score precision/recall/F1 against the injected ground truth.
Thresholds follow the paper: θ_L (=β) fixed, θ_R (=α) swept.

Every enumerative detector first shrinks the graph with the sound core
peeling for its structure (a subgraph whose every member meets the size
thresholds survives the peel, and maximality inside the core equals
global maximality — see `repro.distributed.partition` for the argument),
which is what makes the sweep tractable. The per-cell time budget
``budget_s`` (a `repro.experiments.harness.budget`, the paper's INF
budget) is the only bound on enumeration: each detector collects
solutions under it and flags whatever it collected, so a censored cell
flags a budget-limited sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ..baselines.biclique import maximal_bicliques
from ..baselines.quasi_biclique import is_delta_qb
from ..bipartite.core_decomp import alpha_beta_core
from ..bipartite.graph import BipartiteGraph
from ..core.itraversal import itraversal
from ..experiments.harness import budget
from .attack import FraudScenario

Flagged = frozenset[tuple[str, int]]


@dataclass
class DetectionResult:
    method: str
    theta_l: int
    theta_r: int
    n_flagged: int
    precision: float | None  # None = "ND" (nothing flagged)
    recall: float
    f1: float | None

    def row(self) -> dict:
        fmt = lambda x: "ND" if x is None else round(x, 3)  # noqa: E731
        return {
            "method": self.method,
            "theta_l": self.theta_l,
            "theta_r": self.theta_r,
            "flagged": self.n_flagged,
            "precision": fmt(self.precision),
            "recall": round(self.recall, 3),
            "f1": fmt(self.f1),
        }


def metrics(flagged: Flagged, fake: Flagged) -> tuple[float | None, float, float | None]:
    """(precision, recall, F1); precision/F1 are None when nothing flagged."""
    tp = len(flagged & fake)
    recall = tp / len(fake) if fake else 0.0
    if not flagged:
        return None, recall, None
    precision = tp / len(flagged)
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def _flag(subgraphs: Iterable, lids=None, rids=None) -> Flagged:
    out: set[tuple[str, int]] = set()
    for lp, rp in subgraphs:
        out.update(("L", int(lids[v] if lids else v)) for v in lp)
        out.update(("R", int(rids[u] if rids else u)) for u in rp)
    return frozenset(out)


def _core_subgraph(g: BipartiteGraph, alpha: int, beta: int):
    """Core subgraph, relabeled by descending degree.

    The reverse-search framework allows any "pre-set order on all
    vertices"; ordering by descending degree makes the DFS reach the
    dense region (where the large MBPs live) first, so a budget-truncated
    enumeration still covers it. Returns (subgraph, lids, rids) with
    id maps already composed with the relabeling.
    """
    core_l, core_r = alpha_beta_core(g, alpha, beta)
    sub, lids, rids = g.induced(core_l, core_r)
    lorder = sorted(range(sub.n_left), key=lambda v: -len(sub.adj_l[v]))
    rorder = sorted(range(sub.n_right), key=lambda u: -len(sub.adj_r[u]))
    l_pos = {v: i for i, v in enumerate(lorder)}
    r_pos = {u: j for j, u in enumerate(rorder)}
    sub2 = BipartiteGraph.from_edges(
        ((l_pos[v], r_pos[u]) for v, u in sub.edges()),
        n_left=sub.n_left,
        n_right=sub.n_right,
    )
    return sub2, [lids[v] for v in lorder], [rids[u] for u in rorder]


def detect_kbiplex(
    scenario: FraudScenario,
    k: int,
    theta_l: int,
    theta_r: int,
    *,
    budget_s: float = 60.0,
) -> Flagged:
    """Flag vertices in maximal k-biplexes with |L| ≥ θ_L, |R| ≥ θ_R."""
    sub, lids, rids = _core_subgraph(
        scenario.graph, max(theta_r - k, 1), max(theta_l - k, 1)
    )
    sols: list = []
    with budget(budget_s):
        sols.extend(itraversal(sub, k, theta=(theta_l, theta_r)))
    return _flag(sols, lids, rids)


def detect_biclique(
    scenario: FraudScenario,
    theta_l: int,
    theta_r: int,
    *,
    budget_s: float = 60.0,
) -> Flagged:
    sub, lids, rids = _core_subgraph(scenario.graph, theta_r, theta_l)
    sols: list = []
    with budget(budget_s):
        sols.extend(maximal_bicliques(sub, min_left=theta_l, min_right=theta_r))
    return _flag(sols, lids, rids)


def detect_core(scenario: FraudScenario, alpha: int, beta: int) -> Flagged:
    """The (α,β)-core itself is the flagged structure (α=θ_R, β=θ_L)."""
    core_l, core_r = alpha_beta_core(scenario.graph, alpha, beta)
    return frozenset({("L", v) for v in core_l} | {("R", u) for u in core_r})


def detect_quasi_biclique(
    scenario: FraudScenario,
    delta: float,
    theta_l: int,
    theta_r: int,
    *,
    budget_s: float = 60.0,
) -> Flagged:
    """δ-QB detector via the paper's own correspondence (§6.3): a δ-QB
    with both sides around θ is a ⌈θδ⌉-biplex, so enumerate maximal
    k'-biplexes with k' = max(1, ⌊δ·max(θ_L, θ_R)⌋) and keep those that
    satisfy the δ-QB definition (`repro.baselines.quasi_biclique.is_delta_qb`).

    When δ·θ < 1 a δ-QB at threshold scale tolerates no missing edge at
    all — the structure degenerates to a biclique (the paper makes this
    point in §6.3), so the biclique detector is used directly."""
    if math.floor(delta * max(theta_l, theta_r)) < 1:
        return detect_biclique(scenario, theta_l, theta_r, budget_s=budget_s)
    k = math.floor(delta * max(theta_l, theta_r))
    sub, lids, rids = _core_subgraph(
        scenario.graph,
        max(math.ceil((1 - delta) * theta_r), 1),
        max(math.ceil((1 - delta) * theta_l), 1),
    )
    sols: list = []
    with budget(budget_s):
        sols.extend(itraversal(sub, k, theta=(theta_l, theta_r)))
    return _flag(
        (sol for sol in sols if is_delta_qb(sub, sol[0], sol[1], delta)),
        lids,
        rids,
    )


def evaluate(
    scenario: FraudScenario,
    method: str,
    flagged: Flagged,
    theta_l: int,
    theta_r: int,
) -> DetectionResult:
    p, r, f1 = metrics(flagged, scenario.fake_items)
    return DetectionResult(method, theta_l, theta_r, len(flagged), p, r, f1)


def run_case_study(
    scenario: FraudScenario,
    *,
    theta_l: int = 4,
    theta_r_values: tuple[int, ...] = (3, 4, 5, 6, 7),
    ks: tuple[int, ...] = (1, 2),
    deltas: tuple[float, ...] = (0.1, 0.2, 0.3),
    budget_s: float = 60.0,
) -> list[DetectionResult]:
    """The full Fig 13 sweep. Returns one DetectionResult per cell."""
    out: list[DetectionResult] = []
    for tr in theta_r_values:
        out.append(
            evaluate(
                scenario,
                "biclique",
                detect_biclique(scenario, theta_l, tr, budget_s=budget_s),
                theta_l,
                tr,
            )
        )
        for k in ks:
            out.append(
                evaluate(
                    scenario,
                    f"{k}-biplex",
                    detect_kbiplex(scenario, k, theta_l, tr, budget_s=budget_s),
                    theta_l,
                    tr,
                )
            )
        out.append(
            evaluate(
                scenario,
                "(a,b)-core",
                detect_core(scenario, alpha=tr, beta=theta_l),
                theta_l,
                tr,
            )
        )
        for d in deltas:
            out.append(
                evaluate(
                    scenario,
                    f"{d}-QB",
                    detect_quasi_biclique(
                        scenario, d, theta_l, tr, budget_s=budget_s
                    ),
                    theta_l,
                    tr,
                )
            )
    return out


def metrics_spark(spark, flagged: Flagged, fake: Flagged):
    """Precision/recall via Spark DataFrame joins (used by the Fig 13 job;
    differential-tested against `metrics` and the DuckDB oracle)."""
    from pyspark.sql import functions as F

    def df(items, name):
        rows = [(s, int(i)) for s, i in sorted(items)]
        return spark.createDataFrame(rows or [], "side string, id long").alias(name)

    fl, fk = df(flagged, "fl"), df(fake, "fk")
    tp = fl.join(fk, ["side", "id"], "inner").count()
    n_fl, n_fk = fl.count(), fk.count()
    precision = tp / n_fl if n_fl else None
    recall = tp / n_fk if n_fk else 0.0
    if precision is None:
        return precision, recall, None
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1
