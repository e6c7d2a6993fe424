"""One function per reproduced table (see DESIGN.md §2 for the index).

Every function returns a list of row dicts — `harness.format_table`
renders them, jobs print them, EXPERIMENTS.md records them next to the
paper's numbers. All functions take explicit scale/budget parameters so
the same code runs in seconds inside tests and at full reproduction
scale inside jobs/.
"""
from __future__ import annotations

import random
import time
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from ..baselines.imb import imb
from ..baselines.inflation import faplexen, inflated_edge_count
from ..bipartite.core_decomp import theta_k_core
from ..bipartite.generators import erdos_renyi_bipartite
from ..bipartite.graph import BipartiteGraph
from ..core.almost_sat import enum_almost_sat, enum_almost_sat_inflation
from ..core.itraversal import VARIANTS, TraversalStats, itraversal
from . import datasets
from .harness import budget, measure_delay, time_first_n

# Default memory budget for FaPlexen's inflation step, in edges. 32 GB at
# ~12 bytes/edge (the paper's OUT budget) would be ~2.7e9; scaled to this
# reproduction's footprint we cap at 2e7 inflated edges (~1 GB of Python
# sets), which censors the same datasets the paper reports as OUT.
FAPLEXEN_EDGE_BUDGET = 20_000_000


def algorithms(
    g: BipartiteGraph, k: int
) -> dict[str, Callable[[], Iterator]]:
    """Generator factories for the four compared algorithms (§6.1)."""
    return {
        "iTraversal": lambda: itraversal(g, k),
        "bTraversal": lambda: itraversal(
            g, k, variant="bTraversal", local_enum="inflation"
        ),
        "iMB": lambda: imb(g, k),
        "FaPlexen": lambda: faplexen(
            g, k, max_inflated_edges=FAPLEXEN_EDGE_BUDGET
        ),
    }


# ---------------------------------------------------------------- Table 1
def table1_datasets(spark=None) -> list[dict]:
    """Table 1: dataset statistics (paper sizes vs our stand-ins)."""
    rows = []
    for spec in datasets.SPECS.values():
        g = datasets.load(spec.name)
        if spark is not None:
            from ..bipartite.spark_graph import edges_to_spark, graph_stats

            stats = graph_stats(edges_to_spark(spark, g))
            n_edges = stats["n_edges"]
        else:
            n_edges = g.n_edges
        rows.append(
            {
                "name": spec.name,
                "category": spec.category,
                "paper_L": spec.paper_n_left,
                "paper_R": spec.paper_n_right,
                "paper_E": spec.paper_n_edges,
                "scale": f"1/{spec.scale}",
                "ours_L": g.n_left,
                "ours_R": g.n_right,
                "ours_E": n_edges,
            }
        )
    return rows


# ------------------------------------------------------- Table 2 (Fig 7)
def table2_runtime_real(
    dataset_names: Sequence[str] = ("Divorce", "Cfat", "Crime", "Opsahl",
                                    "Marvel", "Writer", "Actors", "IMDB",
                                    "DBLP", "Google"),
    *,
    ks: Sequence[int] = (1,),
    n_solutions: int = 1000,
    budget_s: float = 60.0,
    algos: Sequence[str] = ("iTraversal", "bTraversal", "iMB", "FaPlexen"),
) -> list[dict]:
    """Fig 7: time to return the first ``n_solutions`` MBPs."""
    rows = []
    for name in dataset_names:
        g = datasets.load(name)
        for k in ks:
            factories = algorithms(g, k)
            for algo in algos:
                res = time_first_n(factories[algo], n_solutions, budget_s)
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "algorithm": algo,
                        "status": res["status"],
                        "seconds": res["seconds"],
                        "mbps_returned": res["count"],
                    }
                )
    return rows


# ------------------------------------------------------- Table 3 (Fig 8)
def table3_delay(
    dataset_names: Sequence[str] = ("Divorce", "Cfat"),
    *,
    ks: Sequence[int] = (1, 2, 3),
    budget_s: float = 120.0,
    algos: Sequence[str] = ("iTraversal", "bTraversal", "iMB", "FaPlexen"),
) -> list[dict]:
    """Fig 8: maximum delay over a full enumeration (small datasets)."""
    rows = []
    for name in dataset_names:
        g = datasets.load(name)
        for k in ks:
            factories = algorithms(g, k)
            for algo in algos:
                res = measure_delay(factories[algo], budget_s)
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "algorithm": algo,
                        "status": res["status"],
                        "max_delay_s": res["max_delay"],
                        "observed_gap_s": res.get("observed_max_gap"),
                        "mbps": res["count"],
                    }
                )
    return rows


# ------------------------------------------------------- Table 4 (Fig 9)
def table4_scalability(
    *,
    n_vertices: Sequence[int] = (1000, 2000, 5000, 10000, 20000),
    densities: Sequence[float] = (2, 4, 6, 8, 10),
    default_n: int = 10000,
    default_density: float = 10.0,
    k: int = 1,
    n_solutions: int = 1000,
    budget_s: float = 120.0,
    algos: Sequence[str] = ("iTraversal", "bTraversal"),
    seed: int = 7,
) -> list[dict]:
    """Fig 9: first-1000-MBP time on ER graphs, varying size and density."""
    rows = []
    configs = [("vary_n", n, default_density) for n in n_vertices]
    configs += [("vary_density", default_n, d) for d in densities]
    for sweep, n, density in configs:
        g = erdos_renyi_bipartite(n_vertices=n, density=density, seed=seed)
        factories = algorithms(g, k)
        for algo in algos:
            res = time_first_n(factories[algo], n_solutions, budget_s)
            rows.append(
                {
                    "sweep": sweep,
                    "n_vertices": n,
                    "density": density,
                    "k": k,
                    "algorithm": algo,
                    "status": res["status"],
                    "seconds": res["seconds"],
                    "mbps_returned": res["count"],
                }
            )
    return rows


# ------------------------------------------------------ Table 5 (Fig 10)
def table5_large_mbps(
    dataset_names: Sequence[str] = ("Cfat", "Marvel"),
    *,
    k: int = 1,
    thetas: Sequence[int] = (3, 4, 5, 6),
    budget_s: float = 120.0,
    spark=None,
) -> list[dict]:
    """Fig 10: enumerate *all* large MBPs — iTraversal-θ vs iMB-θ, both
    after (θ−k)-core preprocessing (as the paper does for both).

    With a SparkSession, a third row runs the partition-parallel
    distributed enumerator (this reproduction's §8-future-work layer)
    whenever θ meets its exactness bound (θ ≥ 2k+1)."""
    rows = []
    for name in dataset_names:
        g = datasets.load(name)
        for theta in thetas:
            core_l, core_r = theta_k_core(g, theta, k)
            sub, _, _ = g.induced(core_l, core_r)
            runs = []
            for algo, factory in (
                ("iTraversal-theta", lambda: itraversal(sub, k, theta=theta)),
                ("iMB-theta", lambda: imb(sub, k, theta_l=theta, theta_r=theta)),
            ):
                count = 0
                with budget(budget_s) as run:
                    for _ in factory():
                        count += 1
                runs.append((algo, run.status, run.seconds, count))
            if spark is not None and theta >= 2 * k + 1:
                from ..distributed.partition import (
                    enumerate_large_mbps_partitioned,
                )

                # Outside any budget: a SIGALRM landing in a py4j call
                # poisons the bridge. The distributed run is bounded by
                # the core size, so it is timed plainly.
                t0 = time.monotonic()
                df = enumerate_large_mbps_partitioned(spark, g, k, theta)
                count = len(df.collect())
                runs.append(
                    ("iTraversal-theta-spark", "ok", time.monotonic() - t0, count)
                )
            rows.extend(
                {
                    "dataset": name,
                    "theta": theta,
                    "core_size": f"{sub.n_left}x{sub.n_right}",
                    "algorithm": algo,
                    "status": status,
                    "seconds": seconds,
                    "large_mbps": count,
                }
                for algo, status, seconds, count in runs
            )
    return rows


# ------------------------------------------------------ Table 6 (Fig 11)
def table6_solution_graph(
    dataset_names: Sequence[str] = ("Divorce", "Cfat"),
    *,
    ks: Sequence[int] = (1,),
    budget_s: float = 120.0,
) -> list[dict]:
    """Fig 11: #links of the solution graph + runtime for the ablation
    (bTraversal / iTraversal-ES-RS / iTraversal-ES / iTraversal), all
    with the L2.0+R2.0 EnumAlmostSat for fairness."""
    rows = []
    for name in dataset_names:
        g = datasets.load(name)
        for k in ks:
            for variant in VARIANTS:
                stats = TraversalStats()
                with budget(budget_s) as run:
                    for _ in itraversal(g, k, variant=variant, stats=stats):
                        pass
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "variant": variant,
                        "status": run.status,
                        "links": stats.links,
                        "solutions": stats.solutions,
                        "seconds": run.seconds,
                    }
                )
    return rows


# ------------------------------------------------------ Table 7 (Fig 12)
def table7_enum_almost_sat(
    dataset_name: str = "Writer",
    *,
    ks: Sequence[int] = (1, 2, 3),
    n_instances: int = 200,
    n_seed_mbps: int = 200,
    seed: int = 3,
    budget_s: float = 300.0,
) -> list[dict]:
    """Fig 12: mean EnumAlmostSat time per variant over random
    almost-satisfying graphs built from real MBPs (paper protocol: take
    MBPs found by iTraversal, add one random outside left vertex)."""
    g = datasets.load(dataset_name)
    rng = random.Random(seed)
    variants: dict[str, Callable] = {
        "L1.0+R1.0": lambda sol, v, k: enum_almost_sat(
            g, sol, v, k, l2=False, r2=False
        ),
        "L1.0+R2.0": lambda sol, v, k: enum_almost_sat(
            g, sol, v, k, l2=False, r2=True
        ),
        "L2.0+R1.0": lambda sol, v, k: enum_almost_sat(
            g, sol, v, k, l2=True, r2=False
        ),
        "L2.0+R2.0": lambda sol, v, k: enum_almost_sat(
            g, sol, v, k, l2=True, r2=True
        ),
        "Inflation": lambda sol, v, k: enum_almost_sat_inflation(g, sol, v, k),
    }
    rows = []
    for k in ks:
        mbps: list = []
        with budget(budget_s):
            mbps.extend(islice(itraversal(g, k), n_seed_mbps))
        instances = []
        for sol in mbps:
            outside = [v for v in range(g.n_left) if v not in sol[0]]
            if outside:
                instances.append((sol, rng.choice(outside)))
            if len(instances) >= n_instances:
                break
        for variant, fn in variants.items():
            n_local = 0
            # The Inflation variant can blow up combinatorially on dense
            # almost-satisfying graphs — the very effect Fig 12 reports;
            # the budget censors it like the paper's INF.
            with budget(budget_s) as run:
                for sol, v in instances:
                    n_local += sum(1 for _ in fn(sol, v, k))
            rows.append(
                {
                    "dataset": dataset_name,
                    "k": k,
                    "variant": variant,
                    "status": run.status,
                    "instances": len(instances),
                    "mean_ms": (
                        None
                        if run.seconds is None
                        else 1000 * run.seconds / max(len(instances), 1)
                    ),
                    "local_solutions": n_local,
                }
            )
    return rows


# ------------------------------------------------------ Table 8 (Fig 13)
def table8_fraud(
    *,
    seed: int = 0,
    theta_l: int = 4,
    theta_r_values: Sequence[int] = (3, 4, 5, 6, 7),
    ks: Sequence[int] = (1, 2),
    deltas: Sequence[float] = (0.1, 0.2, 0.3),
    budget_s: float = 60.0,
    scenario=None,
) -> list[dict]:
    """Fig 13: fraud-detection precision/recall/F1 per structure."""
    from ..casestudy.attack import camouflage_attack
    from ..casestudy.detect import run_case_study

    sc = scenario if scenario is not None else camouflage_attack(seed=seed)
    results = run_case_study(
        sc,
        theta_l=theta_l,
        theta_r_values=tuple(theta_r_values),
        ks=tuple(ks),
        deltas=tuple(deltas),
        budget_s=budget_s,
    )
    return [r.row() for r in results]
