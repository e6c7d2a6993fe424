"""The benchmark's workloads: how each builds its input and runs one query.

Every workload is one query issued by one client in a closed loop. Its
input is a stand-in graph from `repro.experiments.datasets`, the same at
every seed: the engine's traversal order follows vertex ids, so a
relabelled input would change the measured work, not just its labels.
The seed is recorded with each result and changes nothing else.
"""
from __future__ import annotations

import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from repro.bipartite.core_decomp import theta_k_core
from repro.bipartite.graph import BipartiteGraph, Solution
from repro.core.itraversal import TraversalStats, itraversal
from repro.experiments import datasets

QUERY_DEADLINE_S = 45.0
"""Every query stops here (the engine's ``deadline=``, or a job-group
cancel on Spark). Normal queries take 2–12 s; a stopped one fails the
gate, so a truncated query never counts as a fast one."""


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    k: int
    why: str
    theta: int | None = None    # (θ−k)-core peel, then θ-iTraversal
    spark: bool = False         # frontier_enumerate + collect_solutions
    expected: str | None = None  # expected.json entry, if not its own


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "dense-full", "Divorce", 1,
            "Fig 8 delay: full enumeration of a small dense graph, where "
            "EnumAlmostSat and the right-shrinking test do most of the work",
        ),
        Workload(
            "theta-core", "Cfat", 1,
            "Fig 10: (θ−k)-core peel then θ-iTraversal; the θ-potential "
            "test rejects most local solutions, so pruning-order changes "
            "show here",
            theta=4,
        ),
        Workload(
            "spark-frontier", "Divorce", 1,
            "the only workload through the distributed layer; same input "
            "as dense-full, so Spark and local compare directly",
            spark=True, expected="dense-full",
        ),
    ]
}


def make_input(w: Workload) -> BipartiteGraph:
    """Build the workload's input graph (the timed set-up step)."""
    return datasets.load.__wrapped__(w.dataset)  # uncached on purpose


# ----------------------------------------------------------------------
# peak memory of this process, reset per query
# ----------------------------------------------------------------------
def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark (VmHWM); False if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# one query
# ----------------------------------------------------------------------
@dataclass
class QueryResult:
    wall_s: float
    gaps_ns: list[int]          # call → first delivery, then between deliveries
    sols: list                  # (left, right) pairs in the graph's labels
    peak_rss_mb: float
    stats: TraversalStats | None = None
    layers: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    count: int = 0              # len(sols), kept once the gate has run


def run_local(w: Workload, g: BipartiteGraph, tracer=None) -> QueryResult:
    """One iTraversal query, consumed by the caller as a stream.

    ``tracer`` (see tracing.py) gets a root span over the timed region and
    a span around the core peel; everything else it times from the
    names it rebinds in the engine's module.
    """
    st = TraversalStats()
    sols: list[Solution] = []
    stamps: list[int] = []
    layers: dict[str, float] = {}
    deadline = time.monotonic() + QUERY_DEADLINE_S
    if tracer:
        tracer.open("itraversal")
    t0 = perf_counter_ns()
    graph, lmap, rmap = g, None, None
    if w.theta is not None:
        if tracer:
            tracer.open("core_decomp")
        core_l, core_r = theta_k_core(g, w.theta, w.k)
        if tracer:
            tracer.close("core_decomp")
        layers["core_decomp.kept_ratio"] = (len(core_l) + len(core_r)) / (
            g.n_left + g.n_right
        )
        graph, lmap, rmap = g.induced(core_l, core_r)
    gen = itraversal(graph, w.k, theta=w.theta, stats=st, deadline=deadline)
    for sol in gen:
        stamps.append(perf_counter_ns())
        sols.append(sol)
    t1 = perf_counter_ns()
    if tracer:
        tracer.close("itraversal")
    gen.close()
    peak = peak_rss_mb()
    if lmap is not None:
        sols = [
            (frozenset(lmap[x] for x in l), frozenset(rmap[x] for x in r))
            for l, r in sols
        ]
    gaps = [b - a for a, b in zip([t0, *stamps], stamps)]
    return QueryResult((t1 - t0) / 1e9, gaps, sols, peak, st, layers)


class SparkRunner:
    """A local-mode SparkSession that runs the frontier query.

    The driver-side Python process is this one, so peak RSS is measured
    the same way as for the local workloads (the JVM and the Python
    workers are not counted).
    """

    def __init__(self, root: Path, scratch: Path) -> None:
        src = str(root / "src")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        os.environ["PYSPARK_PYTHON"] = sys.executable
        tmp = scratch / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # Keep every temporary file inside the checkout.
        java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
        os.environ["TMPDIR"] = str(tmp)
        os.environ["SPARK_LOCAL_DIRS"] = str(scratch / "spark-local")
        os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
        from pyspark.sql import SparkSession

        self.cores = min(4, os.cpu_count() or 1)
        self.spark = (
            SparkSession.builder.appName("perfbench")
            .master(f"local[{self.cores}]")
            .config("spark.driver.memory", "1g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            # One shuffle partition per local core: more only adds tasks.
            .config("spark.sql.shuffle.partitions", str(self.cores))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.driver.extraJavaOptions", java_opts)
            .getOrCreate()
        )
        self.sc = self.spark.sparkContext
        self.sc.setLogLevel("ERROR")
        self._n = 0

    def config(self) -> dict[str, str]:
        return dict(sorted(self.sc.getConf().getAll()))

    def query(self, w: Workload, g: BipartiteGraph) -> QueryResult:
        from repro.distributed.frontier import collect_solutions, frontier_enumerate

        self._n += 1
        group = f"perfbench-{self._n}"
        self.sc.setJobGroup(group, w.name)
        watchdog = threading.Timer(
            QUERY_DEADLINE_S, self.sc.cancelJobGroup, [group]
        )
        watchdog.start()
        try:
            t0 = perf_counter_ns()
            df = frontier_enumerate(self.spark, g, w.k, theta=w.theta)
            t1 = perf_counter_ns()
            keys = collect_solutions(df)
            t2 = perf_counter_ns()
        finally:
            watchdog.cancel()
            watchdog.join()
        peak = peak_rss_mb()
        layers = {
            "frontier.enumerate_s": (t1 - t0) / 1e9,
            "frontier.collect_s": (t2 - t1) / 1e9,
            **self._job_group_stats(group),
        }
        # collect_solutions hands every MBP over at once: one delivery.
        return QueryResult(
            (t2 - t0) / 1e9, [t2 - t0], list(keys), peak, None, layers
        )

    def _job_group_stats(self, group: str) -> dict[str, float]:
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        stage_ids = {
            s for j in jobs if (info := tracker.getJobInfo(j)) for s in info.stageIds
        }
        stages = [s for s in map(tracker.getStageInfo, stage_ids) if s]
        tasks = sum(s.numTasks for s in stages)
        return {
            "spark.jobs": len(jobs),
            "spark.stages": len(stages),
            "spark.tasks": tasks,
            "spark.failed_tasks": sum(s.numFailedTasks for s in stages),
            "spark.tasks_per_stage": tasks / len(stages) if stages else 0.0,
        }

    def close(self) -> None:
        """Stop the session and wait for the JVM it launched to exit."""
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the JVM exits when this pipe closes
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
