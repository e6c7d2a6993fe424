"""Reverse-search traversal engine: bTraversal, iTraversal and ablations.

One successor kernel implements the whole family of Fig 11 (paper §3);
`VARIANTS` holds its four rows as flags:

* ``bTraversal``      — anchors on both sides, arbitrary initial MBP,
  strongly-connected solution graph 𝒢 (Algorithm 1).
* ``iTraversal-ES-RS``— left-anchored traversal only (𝒢_L, §3.3).
* ``iTraversal-ES``   — + right-shrinking traversal (𝒢_R, §3.4).
* ``iTraversal``      — + exclusion strategy (𝒢_E, §3.5).

The kernel is two pure functions: `successors` (anchor scan →
EnumAlmostSat → right-shrinking test → extension → exclusion test) and
`expandable` (the §5 subtree prunings). `itraversal` drives them with an
explicit-stack DFS over the implicit solution graph; it is a *generator*,
so "return the first N MBPs" and delay measurement come for free (the
paper's evaluation leans on both). The alternating pre-/post-order output
trick of §3.5 [38] — which yields at least one solution every two
expansions, hence polynomial delay — is implemented by emitting a
solution before its expansion at even depth and after it at odd depth.
The Spark frontier (`repro.distributed.frontier`) calls the same two
functions with the iTraversal-ES row.

Exclusion strategy. The paper defers the exact rule and its (non-trivial)
correctness proof to an offline technical report, so we implement the
Berlowitz-et-al.-style rule it cites: every solution carries an inherited
exclusion set of left vertices; (a) anchors already in the set are
skipped, and (b) the link to a successor is pruned when the successor
contains an excluded vertex; a child's exclusion set is the parent's plus
all anchors the parent finished before the child's anchor. The
differential tests against brute force (tests/test_itraversal.py) check
that every row stays complete.

θ mode (§5, large MBPs): ``theta`` enables the right-side prunings
(almost-satisfying-graph, local-solution and solution pruning) plus the
exclusion-based left-side pruning, and filters emissions to MBPs with
both sides ≥ θ. ``theta`` may be a single int (the paper's symmetric
constraint) or a ``(theta_l, theta_r)`` pair (the "easily customized"
asymmetric variant of §5, which the Fig 13 case study needs).

The layer functions (`enum_almost_sat`, `_has_right_extension`,
`_theta_potential_ok`, `extend_to_maximal`, `solution_key`) are looked up
as globals of this module on every call, so a profiler can rebind them
from outside.
"""
from __future__ import annotations

import numbers
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, NamedTuple

from ..bipartite.graph import BipartiteGraph, Solution, SolutionKey, solution_key
from .almost_sat import enum_almost_sat, enum_almost_sat_inflation
from .extend import extend_to_maximal, initial_solution_any, initial_solution_left

Theta = tuple[int, int]


class Variant(NamedTuple):
    """One Fig 11 row: which solution-graph sparsifications are on."""

    left_anchored: bool
    right_shrinking: bool
    exclusion: bool


VARIANTS: dict[str, Variant] = {
    "bTraversal": Variant(False, False, False),
    "iTraversal-ES-RS": Variant(True, False, False),
    "iTraversal-ES": Variant(True, True, False),
    "iTraversal": Variant(True, True, True),
}
"""Fig 11's four ablation rows, keyed by the paper's names."""


@dataclass
class TraversalStats:
    """Counters for the solution-graph experiments (Fig 11)."""

    links: int = 0            # successor links generated (after pruning)
    expansions: int = 0       # solutions expanded (iThreeStep calls)
    almost_sat_calls: int = 0
    local_solutions: int = 0
    pruned_right_shrinking: int = 0
    pruned_exclusion: int = 0
    pruned_theta_potential: int = 0
    solutions: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Node:
    sol: Solution
    succ: Iterator[tuple[Solution, Callable[[], frozenset[int]]]]
    depth: int
    emitted: bool


def check_k_theta(k: int, theta: int | tuple[int, int] | None) -> Theta | None:
    """Reject a bad ``k`` or ``theta``; return θ as a ``(θ_L, θ_R)`` pair.

    ``k`` must be an int ≥ 1; ``theta`` None, an int ≥ 0 or a pair of
    them. Booleans, floats and strings are refused rather than coerced.
    """

    def is_int(x) -> bool:
        return isinstance(x, numbers.Integral) and not isinstance(x, bool)

    if not is_int(k) or k < 1:
        raise ValueError(f"k must be an int >= 1; got {k!r}")
    if theta is None:
        return None
    pair = (theta, theta) if is_int(theta) else theta
    if (
        not isinstance(pair, (tuple, list))
        or len(pair) != 2
        or not all(is_int(t) and t >= 0 for t in pair)
    ):
        raise ValueError(
            f"theta must be an int >= 0 or a (theta_l, theta_r) pair; got {theta!r}"
        )
    return (int(pair[0]), int(pair[1]))


def _has_right_extension(
    g: BipartiteGraph, loc: Solution, k: int, outside_right: frozenset[int]
) -> bool:
    """Algorithm 2 line 7: ∃ u ∈ 𝓡 \\ V(H_loc) with H_loc ∪ {u} a k-biplex?

    Right vertices of the almost-satisfying graph were already ruled out
    by local maximality, so only ``outside_right`` (𝓡 \\ R) matters.
    Instead of scanning all of it (O(|𝓡|) per local solution), candidates
    are derived from the solution's own adjacency:

    * a left vertex x at miss-capacity (δ̄(x, R_loc) ≥ k) blocks every u
      it disconnects, so u must be a common neighbour of all such x;
    * with no vertex at capacity, u only needs δ̄(u, L_loc) ≤ k, i.e. at
      least |L_loc| − k neighbours in L_loc — found by counting over the
      left adjacency lists.
    """
    if not outside_right:
        return False
    left, right = loc
    tight = [x for x in left if g.miss_l(x, right) >= k]
    if tight:
        t0 = min(tight, key=lambda x: len(g.adj_l[x]))
        for u in g.adj_l[t0]:
            if u not in outside_right:
                continue
            if g.miss_r(u, left) <= k and all(u in g.adj_l[x] for x in tight):
                return True
        return False
    if len(left) <= k:
        return True  # every outside u satisfies δ̄(u, L) ≤ |L| ≤ k
    cnt: Counter[int] = Counter()
    for x in left:
        cnt.update(g.adj_l[x])
    need = len(left) - k
    return any(c >= need and u in outside_right for u, c in cnt.items())


def _theta_potential_ok(
    g: BipartiteGraph,
    right: frozenset[int],
    k: int,
    theta_l: int,
    theta_r: int,
    excl: frozenset[int] = frozenset(),
) -> bool:
    """Can any MBP with sides ≥ (θ_L, θ_R), right side inside ``right``
    and no left vertex in ``excl``, exist?

    The (θ−k)-core argument of §5/§6.1, applied dynamically: such an MBP
    (L'', R'') has every v ∈ L'' with δ(v, right) ≥ δ(v, R'') ≥
    |R''| − k ≥ θ_R − k, so L'' lies inside the potential set P (minus
    ``excl``); and every u ∈ R'' has δ(u, L'') ≥ θ_L − k with L'' ⊆ P.
    Counting via the right side's adjacency lists keeps this
    O(Σ_{u∈right} deg(u)).
    """
    need_l = theta_r - k
    if need_l <= 0:
        p = frozenset(range(g.n_left)) - excl
    else:
        cnt: Counter[int] = Counter()
        for u in right:
            cnt.update(g.adj_r[u])
        p = frozenset(v for v, c in cnt.items() if c >= need_l and v not in excl)
    if len(p) < theta_l:
        return False
    need_r = theta_l - k
    if need_r <= 0:
        return len(right) >= theta_r
    n_ok = sum(1 for u in right if len(g.adj_r[u] & p) >= need_r)
    return n_ok >= theta_r


def successors(
    g: BipartiteGraph,
    k: int,
    sol: Solution,
    excl: frozenset[int],
    row: Variant,
    theta: Theta | None,
    local_enum: str = "l2r2",
    stats: TraversalStats | None = None,
) -> Iterator[tuple[Solution, Callable[[], frozenset[int]]]]:
    """Lazily yield the links out of ``sol``: ``(child, child_excl)``.

    One reverse-search expansion (Algorithms 1/2) under the Fig 11
    ``row``: scan anchors, enumerate local solutions of G[H ∪ v], drop
    those failing the θ-potential or right-shrinking test, extend the
    rest and drop extensions that hit the exclusion set. ``child_excl``
    is a thunk for the child's exclusion set (``excl`` plus the anchors
    finished before the child's), since only new children need it.
    """
    left_anchored, right_shrinking, exclusion = row
    st = stats if stats is not None else TraversalStats()
    st.expansions += 1
    left, right = sol
    theta_r = theta[1] if theta is not None else 0
    outside_right = (
        frozenset(range(g.n_right)) - right if right_shrinking else frozenset()
    )
    # Lazily — a materialized list per expansion costs O(|V|) even when
    # the DFS consumes only the first few successors.
    anchors: Iterator[tuple[str, int]] = (
        ("L", v) for v in range(g.n_left) if v not in left
    )
    if not left_anchored:
        anchors = chain(anchors, (("R", u) for u in range(g.n_right) if u not in right))

    # ``processed`` holds anchors finished at this node. Materializing
    # excl ∪ processed per anchor is O(|excl|) and dominates on big
    # graphs, so membership checks use (excl, processed_set) directly and
    # the union is built only when the caller asks for it.
    processed: list[int] = []
    processed_set: set[int] = set()
    for side, v in anchors:
        # Skip excluded anchors, and (§5 right-side pruning (1)) anchors
        # below which every solution keeps ≤ δ(v,R)+k < θ_R right vertices.
        if side == "L" and (
            (exclusion and v in excl)
            or (theta is not None and len(g.adj_l[v] & right) + k < theta_r)
        ):
            processed.append(v)
            processed_set.add(v)
            continue
        n_proc = len(processed)

        def child_excl(n=n_proc):
            return excl | frozenset(processed[:n]) if exclusion else excl

        st.almost_sat_calls += 1
        if local_enum == "inflation":
            local = enum_almost_sat_inflation(g, sol, v, k, side=side)
        else:
            local = enum_almost_sat(g, sol, v, k, side=side, r_min=theta_r)
        for loc in local:
            st.local_solutions += 1
            if theta is not None and not _theta_potential_ok(
                g, loc[1], k, theta[0], theta_r
            ):
                # Under right-shrinking the extension keeps the local
                # solution's right side, so the potential check on loc[1]
                # prunes the link before the expensive extension and
                # right-shrinking scans; the check also passes whenever
                # the extension itself is large, so no emission is lost.
                st.pruned_theta_potential += 1
                continue
            if right_shrinking and _has_right_extension(g, loc, k, outside_right):
                st.pruned_right_shrinking += 1
                continue
            # loc[0] ⊆ L ∪ {v} never meets excl ∪ processed: v was just
            # checked, and the test below one level up keeps L out of
            # excl. So only the extension's new vertices can.
            ext = extend_to_maximal(
                g, loc[0], loc[1], k, allow_right=not right_shrinking
            )
            if exclusion and any(x in excl or x in processed_set for x in ext[0]):
                st.pruned_exclusion += 1
                continue
            st.links += 1
            yield ext, child_excl
        if side == "L":
            processed.append(v)
            processed_set.add(v)


def expandable(
    g: BipartiteGraph, k: int, sol: Solution, excl: frozenset[int], theta: Theta | None
) -> bool:
    """Can the subtree below ``sol`` still hold an MBP with sides ≥ θ?

    Every MBP reachable from (L, R) by right-shrinking links has its
    right side inside R and no left vertex in ``excl``: §5 right-side
    pruning (3), the left-side pruning, and the dynamic (θ−k)-core test
    of `_theta_potential_ok` (our addition).
    """
    if theta is None:
        return True
    theta_l, theta_r = theta
    if len(sol[1]) < theta_r or g.n_left - len(excl) < theta_l:
        return False
    return _theta_potential_ok(g, sol[1], k, theta_l, theta_r, excl)


def itraversal(
    g: BipartiteGraph,
    k: int,
    *,
    variant: str = "iTraversal",
    theta: int | tuple[int, int] | None = None,
    local_enum: str = "l2r2",
    stats: TraversalStats | None = None,
    deadline: float | None = None,
) -> Iterator[Solution]:
    """Lazily enumerate maximal k-biplexes by reverse search.

    ``variant``: a `VARIANTS` row; the default is full iTraversal
    (Algorithm 2). ``local_enum``: 'l2r2' (refined EnumAlmostSat) or
    'inflation' (bTraversal's implementation, §6); Fig 12 calls the
    other refined variants of `enum_almost_sat` directly.
    ``theta``: only emit MBPs with both sides ≥ theta, with §5 prunings.
    ``deadline``: ``time.monotonic()`` timestamp after which the traversal
    stops early (the reproduction's analog of the paper's INF budget —
    enumeration between yields can be long, so the cutoff must live
    inside the engine, not in the consumer).
    """
    theta = check_k_theta(k, theta)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if local_enum not in ("l2r2", "inflation"):
        raise ValueError(f"unknown local_enum {local_enum!r}")
    row = VARIANTS[variant]
    if theta is not None and not row.right_shrinking:
        raise ValueError("θ pruning requires the full iTraversal prunings")
    st = stats if stats is not None else TraversalStats()

    def emit(sol: Solution) -> bool:
        if theta is not None and (len(sol[0]) < theta[0] or len(sol[1]) < theta[1]):
            return False
        st.solutions += 1
        return True

    def push(sol: Solution, excl: frozenset[int], depth: int, pre: bool) -> None:
        succ = successors(g, k, sol, excl, row, theta, local_enum, st)
        stack.append(_Node(sol, succ, depth, pre))

    h0 = initial_solution_left(g, k) if row.left_anchored else initial_solution_any(g, k)
    visited: set[SolutionKey] = {solution_key(h0)}
    stack: list[_Node] = []
    if expandable(g, k, h0, frozenset(), theta):
        push(h0, frozenset(), 0, True)  # depth 0 → pre-order
    if emit(h0):
        yield h0
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            return
        node = stack[-1]
        nxt = next(node.succ, None)
        if nxt is None:
            stack.pop()
            if not node.emitted and emit(node.sol):
                yield node.sol
            continue
        child, child_excl = nxt
        ck = solution_key(child)
        if ck in visited:
            continue
        visited.add(ck)
        excl = child_excl()
        depth = node.depth + 1
        pre = depth % 2 == 0
        if expandable(g, k, child, excl, theta):
            # ``emitted=pre``: pre-order children are emitted now, the
            # rest when their expansion completes (pop) — the §3.5
            # alternating-output trick for polynomial delay.
            push(child, excl, depth, pre)
            if pre and emit(child):
                yield child
        elif emit(child):
            yield child
