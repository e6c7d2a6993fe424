"""Record the values the correctness gate checks against.

    python3 perfbench/record.py

For each local workload this runs one untimed query, proves its output
(every MBP maximal, none repeated) and stores in expected.json the MBP
count, the digest of their canonical keys and the TraversalStats
counters. spark-frontier is checked against dense-full's entry.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gate import EXPECTED_PATH, Expected, Gate, digest  # noqa: E402
from repro.bipartite.graph import solution_key  # noqa: E402
from run import COUNTERS  # noqa: E402
from workloads import WORKLOADS, make_input, run_local  # noqa: E402


def main() -> None:
    out = {}
    for w in WORKLOADS.values():
        if w.expected:
            continue
        g = make_input(w)
        q = run_local(w, g)
        keys = {solution_key(s) for s in q.sols}
        count, dig = len(keys), digest(keys)
        problems = Gate(g, w.k, w.theta, Expected(count, dig, None)).check(q.sols)
        if problems:
            raise SystemExit(f"{w.name}: {problems}")
        counters = {c: getattr(q.stats, c) for c in COUNTERS}
        out[w.name] = {"count": count, "digest": dig, "counters": counters}
        print(w.name, count, dig, counters, flush=True)
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
