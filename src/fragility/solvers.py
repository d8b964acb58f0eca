"""Removal-set solvers: greedy heuristic and exact branch and bound.

Both solvers pick node sets whose deletion drives the surviving network's
degree centralization as high as possible, while never touching nodes in the
protected (no-strike) set and never exceeding the removal budget ``k``.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Collection, Iterator
from heapq import heappop, heappush
from math import comb, inf, isnan, nextafter

from .defaults import DEFAULT_WORK_LIMIT
from .graph import Graph, _centralization, _node_set, fragile, network_degree_centrality


class WorkLimitExceeded(RuntimeError):
    """Raised when the exact search space holds more subsets than the work limit."""

    exit_status = 2  # the ``fragility`` command's code for this error


class RemovalSolution(namedtuple("RemovalSolution",
                                  ("removed", "trace", "final_fragility"))):
    """Ordered removal set plus the fragility after each step.

    ``trace[0]`` is the fragility of the untouched graph; ``trace[j]`` the
    fragility after the first ``j`` removals, so ``len(trace) == len(removed)
    + 1`` and ``final_fragility == trace[-1]``.  A named tuple, so loading
    the solvers does not load ``dataclasses``.
    """

    __slots__ = ()


class DegreeTracker:
    """Degree bookkeeping for a graph under progressive node removal.

    Maintains surviving node/edge counts, per-node surviving degrees,
    ``alive`` flags (a ``bytearray``, one byte a node) and ``count[d]``, the
    number of alive nodes at degree d, so pricing one more removal costs
    O(deg) instead of a full recount.  ``removed`` lists the removed nodes
    in removal order, and ``deg`` keeps each one at its (stale) degree when
    it was removed, so :meth:`undo` reverts removals, last in first out,
    for the exact search.  :func:`fragility.graph.fragile` scores a removal
    set by replaying it on a fresh tracker.
    """

    __slots__ = ("graph", "alive", "deg", "count", "removed", "n_alive",
                 "m_alive", "max_deg")

    def __init__(self, graph: Graph) -> None:
        n = graph.node_count
        self.graph = graph
        self.alive = bytearray(b"\x01") * n
        self.deg = list(graph.degree)
        self.removed: list[int] = []
        self.n_alive = n
        self.m_alive = graph.edge_count
        self.max_deg = graph.max_degree
        self.count = [0] * (self.max_deg + 1)
        for d in self.deg:
            self.count[d] += 1

    def centrality(self) -> float:
        return _centralization(self.n_alive, self.max_deg, self.m_alive)

    def remove(self, i: int) -> None:
        if not self.alive[i]:
            raise ValueError(f"node {i} is already removed")
        alive, deg, count = self.alive, self.deg, self.count
        alive[i] = False
        self.removed.append(i)
        self.n_alive -= 1
        self.m_alive -= deg[i]
        count[deg[i]] -= 1
        for j in self.graph.adjacency[i]:
            if alive[j]:
                dj = deg[j]
                count[dj] -= 1
                deg[j] = dj - 1
                count[dj - 1] += 1
        v = self.max_deg
        while v > 0 and not count[v]:
            v -= 1
        self.max_deg = v

    def undo(self) -> None:
        """Revert the latest :meth:`remove` that is not yet undone."""
        if not self.removed:
            raise ValueError("no removal to undo")
        i = self.removed.pop()
        alive, deg, count = self.alive, self.deg, self.count
        d = deg[i]  # i's alive neighbours are the d it had when removed
        top = max(self.max_deg, d)
        for j in self.graph.adjacency[i]:
            if alive[j]:
                dj = deg[j]
                count[dj] -= 1
                deg[j] = dj + 1
                count[dj + 1] += 1
                if dj >= top:
                    top = dj + 1
        alive[i] = True
        self.n_alive += 1
        self.m_alive += d
        count[d] += 1
        self.max_deg = top


def _best_removal(tracker: DegreeTracker, heap: list[int],
                  held: list) -> tuple[int, int]:
    """Best alive candidate as ``(numerator, node)``; needs ``n_alive >= 4``.

    With D the max degree and T the alive nodes at D, let L be D for a
    candidate i of degree d, or the highest non-empty level below D when i
    is all of T.  Removing i moves only its neighbours, each one level
    down, so its new max is L-1 when at most d other alive nodes sit at L
    and all of them are i's neighbours, and L otherwise.  Pricing only
    reads the tracker: O(d) an entry, to find i's alive neighbours at L
    when ``count`` puts at most d others there, plus one walk down the
    empty levels a round, for the one entry that is all of T.  Over the
    round's shared denominator ``(n2-1)(n2-2)`` the value's integer
    numerator is ``n2*D' - 2*(m - d_i)``.  Below about 4e7 nodes distinct
    numerators give distinct float gains, so the largest key ``(numerator,
    -i)`` is the node that comparing float gains in id order would pick.
    ``heap`` holds ``i - d*N`` for every released alive candidate i of
    degree d (N the node count), which sorts as ``(-d, i)`` since ``0 <= i
    < N``, plus stale entries that are dropped here.  ``held[e]`` lists the
    candidates of initial degree e in ascending id (``()`` for none), and
    the levels from ``len(held)`` up are released: a candidate's own level
    is never empty.  Before the top entry is read, every held level at or
    above its degree is popped off the end, one a pass, and its ids pushed,
    or the next level when the heap is empty; an empty level releases
    nothing.  A held node's degree is at most its level, so held nodes sort
    below every entry read, and the scan reads the entries a heap of every
    candidate would; a stale top can only release a level early.

    No new max exceeds ``cap``: D, or D-1 when T's nodes are adjacent to
    every alive node.  So a key is at most its bound ``(n2*cap - 2*(m -
    d_i), -i)``, and the bound falls strictly along the heap: the scan ends
    at the first entry whose bound is below the best key, or right after
    pricing a node whose new max meets ``cap``.  Popped entries are pushed
    back.
    """
    deg, alive, count = tracker.deg, tracker.alive, tracker.count
    adjacency = tracker.graph.adjacency
    n = len(deg)
    n2 = tracker.n_alive - 1
    m, top_d = tracker.m_alive, tracker.max_deg
    cap = top_d - (top_d == n2)
    best = (-1, 0)  # below every key: no numerator is negative
    popped = []
    while heap or held:
        neg_d, i = divmod(heap[0], n) if heap else (0, 0)
        d = -neg_d
        if d < len(held):  # a held level at or above the top entry
            # held nodes are alive: one is removed only on fewer than four
            # alive nodes, and no level is released after that
            for j in held.pop():
                heappush(heap, j - deg[j] * n)
            continue
        if not alive[i] or deg[i] != d:
            heappop(heap)
            continue
        if (n2 * cap - 2 * (m - d), -i) < best:
            break
        after, others = top_d, count[top_d] - (d == top_d)
        if not others:  # i is all of T: L is the next non-empty level down
            after -= 1
            while not count[after]:
                after -= 1
            others = count[after]
        # i is not its own neighbour, so at most `others` of its neighbours
        # sit alive at L, and finding that many ends the count; a removed
        # neighbour keeps a stale degree, which may equal L
        if d >= others:
            need = others
            for j in adjacency[i]:
                if deg[j] == after and alive[j]:
                    need -= 1
                    if not need:
                        after -= 1
                        break
        best = max(best, (n2 * after - 2 * (m - d), -i))
        if after == cap:
            break
        popped.append(heappop(heap))
    for entry in popped:
        heappush(heap, entry)
    num, neg_i = best
    return num, -neg_i


def iter_greedy_steps(graph: Graph, no_strike: Collection[int] | None,
                      k: int) -> Iterator[tuple[int, float]]:
    """Yield ``(node, fragility_after)`` for each removal the greedy accepts.

    Each round keeps the remaining targetable node with the largest
    non-negative fragility gain; zero-gain moves are accepted, so the budget
    is normally spent in full.  The lowest id among maximal scorers wins,
    and the run stops early once every candidate's gain is negative.
    A round scans a heap of int keys by degree, then id, from the top,
    pricing each entry exactly until no later entry's bound can beat the
    best (see :func:`_best_removal`), which only reads the tracker.  It
    costs O(log N + d) for each priced entry of degree d, plus one walk
    down the empty degree levels and O(d log N) to remove a degree-d node,
    instead of pricing every node in O(N + M).  The heap starts empty: the
    candidates wait in an ``array`` per initial degree and are released a
    level at a time, top down, as the scan reaches them, so a level no round
    reaches never gets an int key.
    """
    if k < 0:
        raise ValueError("budget k must be non-negative")
    ns = _node_set(graph.node_count, no_strike)
    tracker = DegreeTracker(graph)
    alive, deg = tracker.alive, tracker.deg
    n = graph.node_count
    # held[d]: the candidates of initial degree d in an array, or () for none
    held: list = [()] * (graph.max_degree + 1)
    for i, d in enumerate(graph.degree):
        if i not in ns:
            if not held[d]:
                held[d] = array("i")
            held[d].append(i)
    heap: list[int] = []
    for _ in range(min(k, n - len(ns))):
        base = tracker.centrality()
        n2 = tracker.n_alive - 1
        if n2 < 3:
            # every removal scores 0.0: only a zero base accepts one
            if base > 0.0:
                break
            best = min(i for i in range(n) if alive[i] and i not in ns)
        else:
            num, best = _best_removal(tracker, heap, held)
            # the float fragile gives this removal, so a zero gain is accepted exactly
            if num / ((n2 - 1) * (n2 - 2)) - base < 0.0:
                break
        tracker.remove(best)
        for j in graph.adjacency[best]:
            # a held node is pushed at its current degree when released
            if alive[j] and graph.degree[j] >= len(held) and j not in ns:
                heappush(heap, j - deg[j] * n)
        yield best, tracker.centrality()


def greedy_fragile(graph: Graph, no_strike: Collection[int] | None = None,
                   k: int = 0) -> RemovalSolution:
    """Greedy removal-set search under budget ``k``.

    Runs k rounds of :func:`iter_greedy_steps`, each pricing only the
    candidates a bound cannot rule out instead of every node; returns the
    chosen nodes in removal order with the fragility trace.  The final
    fragility is never below the untouched graph's whenever any node was
    removed.
    """
    removed: list[int] = []
    trace: list[float] = [network_degree_centrality(graph)]
    for node, value in iter_greedy_steps(graph, no_strike, k):
        removed.append(node)
        trace.append(value)
    return RemovalSolution(tuple(removed), tuple(trace), trace[-1])


def _exact_pool(graph: Graph, no_strike: Collection[int] | None, k: int,
                work_limit: int) -> tuple[list[int], int]:
    """Targetable ids in ascending order and ``k`` clipped to their count.

    Raises :class:`WorkLimitExceeded` up front when sizes ``0..k`` hold more
    than ``work_limit`` subsets, however few of them the search visits.
    """
    if k < 0:
        raise ValueError("budget k must be non-negative")
    if work_limit < 0:
        raise ValueError("work limit must be non-negative")
    ns = _node_set(graph.node_count, no_strike)
    pool = [i for i in range(graph.node_count) if i not in ns]
    k = min(k, len(pool))
    subsets = 0
    for j in range(k + 1):
        subsets += comb(len(pool), j)
        if subsets > work_limit:
            raise WorkLimitExceeded(
                f"work limit exceeded: more than {work_limit} candidate subsets")
    return pool, k


def _search(graph: Graph, pool: list[int], k: int,
            floor: float) -> tuple[int, ...]:
    """Depth-first branch and bound over removal tuples of at most ``k`` ids.

    Tuples are ascending ids from ``pool``, visited in preorder, so tuples
    of one size come in lexicographic order.  Each is the ``removed`` list
    of one :class:`DegreeTracker`, scored by removing its last id and
    undone on the way back.  Returns the best tuple (highest value, then
    most removals, then lexicographically smallest) that scores at least
    ``floor``, or ``()`` when no tuple does or the untouched graph is best.

    With candidates ``pool[start:]`` left, a tuple bounds each descendant
    with s more removals by ``((n-s)*D - 2*(m - S_s)) / ((n-s-1)*(n-s-2))``
    (0.0 once ``n-s < 3``), where ``S_s`` sums the s largest current
    candidate degrees: the max degree D cannot rise and s removals delete
    at most ``S_s`` edges.  The bound is a correctly rounded int/int
    quotient and rounding is monotone, so no descendant's float value
    exceeds it.  Each step tests it at ``start = q`` before removing
    ``pool[q]``, and ends the frame when it is below the incumbent, or
    equal to it with no descendant larger than the incumbent tuple.  The
    incumbent starts as ``()`` at the higher of the untouched score and
    ``floor``, so one threshold also skips every subtree whose bound is
    below the floor; a bound equal to it is still searched, since ``()``
    has the fewest removals, so the tie rule is kept.
    """
    tracker = DegreeTracker(graph)
    deg, removed = tracker.deg, tracker.removed
    best: tuple[int, ...] = ()
    best_val = max(tracker.centrality(), floor)

    def promising(start: int) -> bool:
        r = min(k - len(removed), len(pool) - start)
        if r <= 0:  # the budget is spent or pool[start:] is empty
            return False
        if len(degrees) < len(stack):  # the frame's first test: sort once
            degrees.append(sorted(deg[i] for i in pool[start:]))
        else:  # the frame's state is as before: drop the id just tried
            degrees[-1].remove(deg[pool[start - 1]])
        n, top, m = tracker.n_alive, tracker.max_deg, tracker.m_alive
        ascending, bound, lost = degrees[-1], 0.0, 0
        for s in range(1, r + 1):
            lost += ascending[-s]
            bound = max(bound, _centralization(n - s, top, m - lost))
        # an equal score wins only with more removals than the incumbent
        return bound > best_val or (bound == best_val and len(removed) + r > len(best))

    stack = [0]  # stack[t]: next pool index at depth t
    degrees: list[list[int]] = []  # degrees[t]: frame t's candidates', ascending
    while stack:
        q = stack[-1]
        if promising(q):  # a set adding ids from pool[q:] may still win
            stack[-1] = q + 1
            tracker.remove(pool[q])
            val = tracker.centrality()
            if val > best_val or (val == best_val and len(removed) > len(best)):
                best, best_val = tuple(removed), val
            stack.append(q + 1)
        else:  # the frame ends
            del degrees[len(stack) - 1:]
            stack.pop()
            if removed:
                tracker.undo()
    return best


def exact_opt(graph: Graph, no_strike: Collection[int] | None = None,
              k: int = 0, work_limit: int = DEFAULT_WORK_LIMIT) -> RemovalSolution:
    """Optimum over all removal sets of size 0..k, by branch and bound.

    Every size is searched because fragility is not monotone: a smaller
    set can beat a larger one.  Ties on value prefer more removals, then the
    lexicographically smallest id tuple, which keeps results deterministic.
    The search scores sets incrementally and skips subtrees whose bound
    cannot reach the incumbent, or the best value among the greedy's
    prefixes, with the same result as scoring every subset; one tracker
    replays the best tuple for the trace.  Raises :class:`WorkLimitExceeded`
    up front when the subset count would exceed ``work_limit``.
    """
    pool, k = _exact_pool(graph, no_strike, k, work_limit)
    floor = max(greedy_fragile(graph, no_strike, k).trace)
    best = _search(graph, pool, k, floor)
    tracker = DegreeTracker(graph)
    trace = [tracker.centrality()]
    for i in best:
        tracker.remove(i)
        trace.append(tracker.centrality())
    return RemovalSolution(best, tuple(trace), trace[-1])


def fragility_decision(graph: Graph, no_strike: Collection[int] | None,
                       k: int, x: float,
                       work_limit: int = DEFAULT_WORK_LIMIT) -> bool:
    """True iff some removal set of size <= k pushes fragility strictly above x.

    Raises ``ValueError`` for a NaN ``x``.  Validates ids and checks
    ``work_limit`` up front like :func:`exact_opt`, then stops at the first
    set scoring above x: the untouched graph, then each prefix of the
    greedy's removals.  Otherwise every prefix scored at most x, and the
    answer is whether the optimum's branch and bound, run with the floor
    just above x, returns a set: it returns ``()`` when no set reaches that
    floor.  A float bound is below the floor exactly when it is at most x,
    so the search skips only subtrees that cannot hold a set above x, and
    is never cut off from an optimum above x, whose path's bounds are all
    at least its value.
    """
    if isnan(x):
        raise ValueError("threshold x must not be NaN")
    pool, k = _exact_pool(graph, no_strike, k, work_limit)
    return (fragile(graph, ()) > x
            or any(value > x for _, value in iter_greedy_steps(graph, no_strike, k))
            or bool(_search(graph, pool, k, nextafter(x, inf))))
