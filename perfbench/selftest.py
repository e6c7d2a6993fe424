"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The gate passes a correct output and fails planted bad ones: a
   non-maximal MBP, a repeated MBP, a missing MBP, and a query cut short
   by its deadline.
2. A one-second run of every workload in workloads.py, in both modes,
   prints every metric BENCHMARK.json names, with its unit, and a
   correct result.
3. Without the program's source next to it, the benchmark exits non-zero
   and prints no result.

Exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from gate import Gate, load_expected  # noqa: E402


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def gate_catches_planted_errors() -> None:
    w = workloads.WORKLOADS["dense-full"]
    g = workloads.make_input(w)
    gate = Gate(g, w.k, w.theta, load_expected(w.name))
    sols = workloads.run_local(w, g).sols
    check(gate.check(sols) == [], "correct output passes")

    left, right = next(s for s in sols if len(s[0]) > 1)
    shrunk = (left - {min(left)}, right)  # a k-biplex, but not maximal
    problems = gate.check([shrunk, *sols[1:]])
    check(any("not a maximal" in p for p in problems), f"non-maximal MBP fails: {problems}")
    problems = gate.check([*sols, sols[0]])
    check(any("duplicate" in p for p in problems), f"repeated MBP fails: {problems}")
    problems = gate.check(sols[:-1])
    check(any("expected" in p for p in problems), f"missing MBP fails: {problems}")

    saved = workloads.QUERY_DEADLINE_S
    workloads.QUERY_DEADLINE_S = 0.2
    try:
        cut = workloads.run_local(w, g).sols
    finally:
        workloads.QUERY_DEADLINE_S = saved
    problems = gate.check(cut)
    check(bool(problems), f"query cut by its deadline ({len(cut)} MBPs) fails: {problems}")


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def every_metric_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Every runnable workload, including dense-full, which BENCHMARK.json
    # leaves out, so that none goes untested.
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, *spec["command"][1:], "--workload", name,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            res = last_json(p.stdout)
            check(p.returncode == 0 and res is not None,
                  f"{name} trace={trace} ran (exit {p.returncode})")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            check(got == want, f"{name} trace={trace} emits every {kind} metric with its unit")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={trace} correct, {res['attempted']} queries")


def fails_without_source() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dense-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(p.returncode != 0 and last_json(p.stdout) is None,
          f"exits {p.returncode} with no result when the source is missing")


if __name__ == "__main__":
    gate_catches_planted_errors()
    fails_without_source()
    every_metric_emitted()
    print("selftest passed")
