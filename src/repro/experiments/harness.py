"""Measurement harness: budgets, delay recording, table formatting.

The paper's evaluation semantics that this module reproduces:

* INF — a run is censored at a wall-clock budget (paper: 24 h; here a
  per-cell budget in seconds). `budget` enforces it with SIGALRM, so even
  an enumerator stuck *between* outputs is interrupted.
* OUT — a run exceeds the memory budget (paper: 32 GB); reproduced by
  `InflationBudgetExceeded` guards inside the algorithms, which `budget`
  records as OUT.
* delay — the maximum of (start → first output), (gaps between
  consecutive outputs), (last output → termination), per §3.5.

`budget` is the one way a run is cut short; every table and detector
runs under it. No Spark call may run inside it: a SIGALRM landing in a
py4j call poisons the JVM bridge.
"""
from __future__ import annotations

import signal
import time
from itertools import islice
from typing import Callable, Iterable, Iterator

from ..baselines.inflation import InflationBudgetExceeded

INF = "INF"
OUT = "OUT"


class Timeout(Exception):
    pass


class budget:
    """``with budget(seconds) as run:`` — run the block under a SIGALRM
    wall-clock budget.

    A `Timeout` (status INF) or `InflationBudgetExceeded` (status OUT)
    raised inside the block is swallowed; any other exception
    propagates. Afterwards ``run.status`` is ``"ok"``, INF or OUT and
    ``run.seconds`` the block's wall-clock time (None unless ok).
    Main-thread only and not nestable (fine: jobs, tests and benches
    are); a caller off the main thread bounds the engine with
    ``itraversal(deadline=)`` instead.
    """

    def __init__(self, seconds: float):
        self.limit = seconds
        self.status = "ok"
        self.seconds: float | None = None
        self._fired = False

    def _alarm(self, signum, frame) -> None:
        self._fired = True
        # An alarm that lands while __exit__ disarms the timer is
        # recorded, not raised: it must not escape the with-statement.
        if frame is None or frame.f_code is not budget.__exit__.__code__:
            raise Timeout()

    def __enter__(self) -> "budget":
        self._old = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        elapsed = time.monotonic() - self._t0
        if isinstance(exc, InflationBudgetExceeded):
            self.status = OUT
        elif isinstance(exc, Timeout) or (exc is None and self._fired):
            self.status = INF
        elif exc is not None:
            return False
        else:
            self.seconds = elapsed
        return True


def time_first_n(
    make_gen: Callable[[], Iterator], n: int, budget_s: float
) -> dict:
    """Time producing the first ``n`` solutions (the paper's standard
    runtime measurement, after [4]).

    Returns {'status': 'ok'|'INF'|'OUT', 'seconds': float|None, 'count'}.
    """
    count = 0
    with budget(budget_s) as run:
        for _ in islice(make_gen(), n):
            count += 1
    return {"status": run.status, "seconds": run.seconds, "count": count}


def measure_delay(make_gen: Callable[[], Iterator], budget_s: float) -> dict:
    """Max delay over a full enumeration (§3.5 definition).

    Returns {'status', 'max_delay', 'mean_delay', 'observed_max_gap',
    'count'}; INF when the enumeration does not finish within the budget.
    A censored run still reports ``observed_max_gap``: the largest gap
    seen so far, including the unfinished stall up to the cutoff, is a
    lower bound on the delay.
    """
    stamps: list[float] = []
    t0 = time.monotonic()
    with budget(budget_s) as run:
        for _ in make_gen():
            stamps.append(time.monotonic())
    bounds = [t0, *stamps, time.monotonic()]
    gaps = [b - a for a, b in zip(bounds, bounds[1:])]
    ok = run.status == "ok"
    return {
        "status": run.status,
        "max_delay": max(gaps) if ok else None,
        "mean_delay": sum(gaps) / len(gaps) if ok else None,
        "observed_max_gap": max(gaps) if run.status != OUT else None,
        "count": len(stamps),
    }


def fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01 or abs(value) >= 1e5:
            return f"{value:.2e}"
        return f"{value:.3f}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


def format_table(rows: Iterable[dict], title: str = "") -> str:
    """Render rows as an aligned text table (same rows go in
    EXPERIMENTS.md)."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(rows[0].keys())
    cells = [[fmt_cell(r.get(c)) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(out)
