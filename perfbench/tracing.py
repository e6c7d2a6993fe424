"""Outside-in tracing of the local engine's layers.

`repro.core.itraversal.traverse` looks up the layer functions below in
its module's namespace on every call, so rebinding those names for the
length of one query records a span around every call into each layer
without changing the program. Spans are kept in memory, one flat array
of (start ns, end ns) pairs per layer, and written out once the run
ends; which span encloses which is worked out afterwards from the
intervals, so the hot path only reads the clock twice and appends twice.
A clock read costs about 0.2 µs on the reference machine, so dense-full,
with about 330k spans per query, runs 10–20% slower traced; the
overhead lands mostly in ``itraversal.self_s``.

Spark's Python workers import the engine afresh, so none of this reaches
them; the spark-frontier workload is traced from the driver side only.
"""
from __future__ import annotations

import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import repro.core.itraversal as engine

LAYERS = {  # name looked up by the engine → layer name in the metrics
    "enum_almost_sat": "almost_sat",
    "_has_right_extension": "rs_test",
    "_theta_potential_ok": "theta_potential",
    "extend_to_maximal": "extend",
    "solution_key": "dedup",
}


class Tracer:
    """Spans around calls into each layer, plus per-layer outcome counts."""

    def __init__(self) -> None:
        self.spans = {
            name: array("q")
            for name in ("itraversal", "core_decomp", *LAYERS.values())
        }
        self.calls: Counter[str] = Counter()     # generator layers only
        self.outcomes: Counter[str] = Counter()  # yields, or prunes
        self._dedup_keys: set[int] = set()

    def open(self, name: str) -> None:
        self.spans[name].append(perf_counter_ns())

    def close(self, name: str) -> None:
        self.spans[name].append(perf_counter_ns())

    # -- wrappers (hot path: keep them lean) ------------------------------
    def _wrap(self, fn, layer: str, pruned):
        mark, ns, outcomes = self.spans[layer].append, perf_counter_ns, self.outcomes

        def traced(*args, **kwargs):
            mark(ns())
            out = fn(*args, **kwargs)
            mark(ns())
            if out is pruned:
                outcomes[layer] += 1
            return out

        return traced

    def _wrap_generator(self, fn, layer: str):
        """Time each ``next()`` into the generator, not its lifetime."""
        mark, ns = self.spans[layer].append, perf_counter_ns
        calls, outcomes = self.calls, self.outcomes

        def traced(*args, **kwargs):
            calls[layer] += 1
            step = fn(*args, **kwargs).__next__
            while True:
                mark(ns())
                try:
                    item = step()
                except StopIteration:
                    mark(ns())
                    return
                mark(ns())
                outcomes[layer] += 1
                yield item

        return traced

    def _wrap_dedup(self, fn):
        mark, ns, seen = self.spans["dedup"].append, perf_counter_ns, self._dedup_keys

        def traced(sol):
            mark(ns())
            key = fn(sol)
            mark(ns())
            seen.add(hash(key))
            return key

        return traced

    @contextmanager
    def installed(self):
        """Rebind the engine's layer names to traced wrappers."""
        saved = {name: getattr(engine, name) for name in LAYERS}
        engine.enum_almost_sat = self._wrap_generator(
            saved["enum_almost_sat"], "almost_sat"
        )
        engine._has_right_extension = self._wrap(
            saved["_has_right_extension"], "rs_test", pruned=True
        )
        engine._theta_potential_ok = self._wrap(
            saved["_theta_potential_ok"], "theta_potential", pruned=False
        )
        engine.extend_to_maximal = self._wrap(
            saved["extend_to_maximal"], "extend", pruned=None
        )
        engine.solution_key = self._wrap_dedup(saved["solution_key"])
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(engine, name, fn)

    # -- results ---------------------------------------------------------
    def _triples(self):
        return [
            (name, s[i], s[i + 1])
            for name, s in self.spans.items()
            for i in range(0, len(s), 2)
        ]

    def summary(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Per span name: span count, total time, and self time (total
        minus the time of the spans directly inside it), in ns."""
        spans = sorted(self._triples(), key=lambda t: (t[1], -t[2]))
        count: Counter[str] = Counter()
        busy: Counter[str] = Counter()
        own: Counter[str] = Counter()
        stack: list[tuple[int, str]] = []  # (end, name) of enclosing spans
        for name, start, end in spans:
            while stack and stack[-1][0] <= start:
                stack.pop()
            dur = end - start
            if stack:
                own[stack[-1][1]] -= dur
            count[name] += 1
            busy[name] += dur
            own[name] += dur
            stack.append((end, name))
        return count, busy, own

    def layer_metrics(self) -> dict[str, float]:
        count, busy, own = self.summary()
        o = self.outcomes
        n_almost_sat = self.calls["almost_sat"]  # count["almost_sat"] is next() calls

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "itraversal.self_s": own["itraversal"] / 1e9,
            "almost_sat.calls": n_almost_sat,
            "almost_sat.busy_s": busy["almost_sat"] / 1e9,
            "almost_sat.yield": ratio(o["almost_sat"], n_almost_sat),
            "rs_test.calls": count["rs_test"],
            "rs_test.busy_s": busy["rs_test"] / 1e9,
            "rs_test.prune_ratio": ratio(o["rs_test"], count["rs_test"]),
            "theta_potential.calls": count["theta_potential"],
            "theta_potential.busy_s": busy["theta_potential"] / 1e9,
            "theta_potential.prune_ratio": ratio(
                o["theta_potential"], count["theta_potential"]
            ),
            "extend.calls": count["extend"],
            "extend.busy_s": busy["extend"] / 1e9,
            "dedup.calls": count["dedup"],
            "dedup.busy_s": busy["dedup"] / 1e9,
            "dedup.dup_ratio": 1 - ratio(len(self._dedup_keys), count["dedup"]),
            "core_decomp.busy_s": busy["core_decomp"] / 1e9,
        }

    def write(self, path: Path) -> None:
        """All spans as gzip'd CSV: name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start_ns,end_ns\n")
            for name, start, end in sorted(self._triples(), key=lambda t: t[1]):
                f.write(f"{name},{start},{end}\n")
