"""Correctness gate, run on every timed query outside its timer.

A query passes only if every MBP it returned is a maximal k-biplex (with
both sides ≥ θ in θ mode), none repeats, and the number of distinct MBPs
and an order-independent digest of their canonical keys equal the values
recorded in ``expected.json``. The engine's deadline ends a traversal
silently, so the count and digest checks are also what turns a truncated
query into a failed one.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.bipartite.graph import SolutionKey, solution_key
from repro.bipartite.predicates import is_maximal_kbiplex

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(keys) -> str:
    """Order-independent digest of a set of canonical solution keys."""
    h = hashlib.sha256()
    for left, right in sorted(keys):
        h.update(f"{','.join(map(str, left))}|{','.join(map(str, right))}\n".encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Expected:
    """What one workload must return."""

    count: int
    digest: str
    counters: dict[str, int] | None  # TraversalStats, if recorded


def load_expected(entry: str) -> Expected:
    """Recorded values for ``entry`` (a workload name)."""
    e = json.loads(EXPECTED_PATH.read_text())[entry]
    return Expected(e["count"], e["digest"], e["counters"])


class Gate:
    """Checks query outputs against one input and its expectation.

    Maximality is proved once per canonical key: repeated queries return
    the same MBPs, and the proof depends only on the graph.
    """

    def __init__(self, graph, k: int, theta: int | None, expected: Expected):
        self.graph = graph
        self.k = k
        self.theta = theta or 0
        self.expected = expected
        self._proved: set[SolutionKey] = set()

    def check(self, sols) -> list[str]:
        """Problems with one query's output; empty when it is right."""
        problems = []
        keys = [solution_key(s) for s in sols]
        distinct = set(keys)
        if len(distinct) != len(keys):
            problems.append(f"{len(keys) - len(distinct)} duplicate MBP(s)")
        bad = 0
        for (left, right), key in zip(sols, keys):
            if key in self._proved:
                continue
            if min(len(left), len(right)) >= self.theta and is_maximal_kbiplex(
                self.graph, left, right, self.k
            ):
                self._proved.add(key)
            else:
                bad += 1
        if bad:
            problems.append(f"{bad} output(s) not a maximal k-biplex of size >= θ")
        if len(distinct) != self.expected.count:
            problems.append(
                f"{len(distinct)} distinct MBPs, expected {self.expected.count}"
            )
        if digest(distinct) != self.expected.digest:
            problems.append("digest differs from the recorded MBP set")
        return problems


def counter_diff(observed: dict[str, int], recorded: dict[str, int] | None):
    """Observed minus recorded, per counter; None when nothing is recorded.

    The counters are machine-independent, so any non-zero entry means the
    traversal itself changed. That is reported, not failed: a change to
    the engine may move them on purpose.
    """
    if recorded is None:
        return None
    return {name: observed[name] - recorded[name] for name in recorded}
