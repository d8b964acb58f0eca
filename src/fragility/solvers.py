"""Removal-set solvers: greedy heuristic and exact branch and bound.

Both solvers pick node sets whose deletion drives the surviving network's
degree centralization as high as possible, while never touching nodes in the
protected (no-strike) set and never exceeding the removal budget ``k``.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb

from .graph import Graph, _centralization, _node_set, fragile

DEFAULT_WORK_LIMIT = 10_000_000


class WorkLimitExceeded(RuntimeError):
    """Raised when the exact search space holds more subsets than the work limit."""


@dataclass(frozen=True)
class RemovalSolution:
    """Ordered removal set plus the fragility after each step.

    ``trace[0]`` is the fragility of the untouched graph; ``trace[j]`` the
    fragility after the first ``j`` removals, so ``len(trace) == len(removed)
    + 1`` and ``final_fragility == trace[-1]``.
    """

    removed: tuple[int, ...]
    trace: tuple[float, ...]
    final_fragility: float


class DegreeTracker:
    """Degree bookkeeping for a graph under progressive node removal.

    Maintains surviving node/edge counts, per-node surviving degrees and the
    set of alive nodes at each degree, so pricing one more removal costs
    O(deg) instead of a full recount; :meth:`restore` undoes removals, last
    in first out, for the exact search and for pricing the greedy's sole top
    node.  Values match :func:`fragility.graph.fragile` bit for bit because
    both pass the same integer counts to the same scoring function.
    """

    __slots__ = ("graph", "alive", "deg", "level", "n_alive", "m_alive", "max_deg")

    def __init__(self, graph: Graph) -> None:
        n = graph.node_count
        self.graph = graph
        self.alive = [True] * n
        self.deg = list(graph.degree)
        self.n_alive = n
        self.m_alive = graph.edge_count
        self.max_deg = graph.max_degree
        self.level: list[set[int]] = [set() for _ in range(self.max_deg + 1)]
        for i, d in enumerate(self.deg):
            self.level[d].add(i)

    def centrality(self) -> float:
        return _centralization(self.n_alive, self.max_deg, self.m_alive)

    def remove(self, i: int) -> None:
        if not self.alive[i]:
            raise ValueError(f"node {i} is already removed")
        deg, level = self.deg, self.level
        self.alive[i] = False
        self.n_alive -= 1
        self.m_alive -= deg[i]
        level[deg[i]].remove(i)
        for j in self.graph.adjacency[i]:
            if self.alive[j]:
                dj = deg[j]
                level[dj].remove(j)
                deg[j] = dj - 1
                level[dj - 1].add(j)
        deg[i] = 0
        v = self.max_deg
        while v > 0 and not level[v]:
            v -= 1
        self.max_deg = v

    def restore(self, i: int, d: int) -> None:
        """Undo the latest :meth:`remove`, of node ``i``, whose degree was ``d``.

        Removals must be undone last in, first out, so that ``i``'s alive
        neighbours are exactly the ``d`` it had when it was removed.
        """
        if self.alive[i]:
            raise ValueError(f"node {i} is not removed")
        deg, level = self.deg, self.level
        top = max(self.max_deg, d)
        for j in self.graph.adjacency[i]:
            if self.alive[j]:
                dj = deg[j]
                level[dj].remove(j)
                deg[j] = dj + 1
                level[dj + 1].add(j)
                if dj >= top:
                    top = dj + 1
        self.alive[i] = True
        self.n_alive += 1
        self.m_alive += d
        deg[i] = d
        level[d].add(i)
        self.max_deg = top


def _best_removal(tracker: DegreeTracker, ns: frozenset[int],
                  heap: list[tuple[int, int]], left: int) -> tuple[int, int]:
    """Best alive candidate as ``(numerator, node)``; needs ``n_alive >= 4``.

    With D the max degree and T the alive nodes at D, removing candidate i
    leaves the max at D unless every node of T other than i is adjacent to
    i; then it falls to exactly D-1, except when i is all of T, where it is
    recomputed.  Over the round's shared denominator ``(n2-1)(n2-2)`` the
    value's integer numerator ``n2*D' - 2*(m - d_i)`` rises strictly with
    ``d_i`` inside each class, so only each class's highest-degree,
    lowest-id member is priced.  Below about 4e7 nodes distinct numerators
    give distinct float gains, so this picks the node that comparing float
    gains in id order would.  ``heap`` holds ``(-deg, id)`` for every alive
    candidate, plus stale entries that are dropped here; ``left`` counts the
    alive candidates.
    """
    deg, alive, adjacency = tracker.deg, tracker.alive, tracker.graph.adjacency
    n2 = tracker.n_alive - 1
    m, top_d = tracker.m_alive, tracker.max_deg
    top = tracker.level[top_d]
    leaders: list[tuple[int, int]] = []  # (numerator, -id): max() wins
    t0 = next(iter(top))
    falls: set[int] = set()
    if len(top) <= top_d + 1:  # else nobody is adjacent to all of T
        falls = {x for x in chain(adjacency[t0], (t0,))
                 if alive[x] and x not in ns
                 and all(x == t or x in adjacency[t] for t in top)}
    sole = -1
    if len(top) == 1:
        falls.discard(t0)
        if t0 not in ns:
            sole = t0
            tracker.remove(t0)
            leaders.append((n2 * tracker.max_deg - 2 * tracker.m_alive, -t0))
            tracker.restore(t0, top_d)
    if falls:
        f = min(falls, key=lambda x: (-deg[x], x))
        leaders.append((n2 * (top_d - 1) - 2 * (m - deg[f]), -f))
    if left > len(falls) + (sole >= 0):
        skipped = []
        while True:
            neg_d, i = heap[0]
            if not alive[i] or deg[i] != -neg_d:
                heappop(heap)
            elif i in falls or i == sole:
                skipped.append(heappop(heap))
            else:
                leaders.append((n2 * top_d - 2 * (m - deg[i]), -i))
                break
        for entry in skipped:
            heappush(heap, entry)
    num, neg_i = max(leaders)
    return num, -neg_i


def iter_greedy_steps(graph: Graph, no_strike: Collection[int] | None,
                      k: int) -> Iterator[tuple[int, float]]:
    """Yield ``(node, fragility_after)`` for each removal the greedy accepts.

    Each round keeps the remaining targetable node with the largest
    non-negative fragility gain; zero-gain moves are accepted, so the budget
    is normally spent in full.  The lowest id among maximal scorers wins,
    and the run stops early once every candidate's gain is negative.
    Candidates fall into three classes by how their removal moves the max
    degree (it stays, drops by one, or is recomputed for a sole top node);
    within a class the value rises with degree, so a round prices only the
    three class leaders (see :func:`_best_removal`).  A round costs
    O(D * |T| + s log N) for max degree D, |T| nodes at D and s candidates
    skipped in the degree heap, plus O(d log N) to remove a degree-d node,
    instead of pricing every node in O(N + M).
    """
    if k < 0:
        raise ValueError("budget k must be non-negative")
    ns = _node_set(graph.node_count, no_strike)
    tracker = DegreeTracker(graph)
    alive, deg = tracker.alive, tracker.deg
    heap = [(-d, i) for i, d in enumerate(deg) if i not in ns]
    heapify(heap)
    left = len(heap)
    taken = 0
    while taken < k and left:
        base = tracker.centrality()
        n2 = tracker.n_alive - 1
        if n2 < 3:
            # every removal scores 0.0: only a zero base accepts one
            if base > 0.0:
                break
            best = min(i for i in range(graph.node_count) if alive[i] and i not in ns)
        else:
            num, best = _best_removal(tracker, ns, heap, left)
            # the float fragile gives this removal, so a zero gain is accepted exactly
            if num / ((n2 - 1) * (n2 - 2)) - base < 0.0:
                break
        tracker.remove(best)
        for j in graph.adjacency[best]:
            if alive[j] and j not in ns:
                heappush(heap, (-deg[j], j))
        left -= 1
        taken += 1
        yield best, tracker.centrality()


def greedy_fragile(graph: Graph, no_strike: Collection[int] | None = None,
                   k: int = 0) -> RemovalSolution:
    """Greedy removal-set search under budget ``k``.

    Runs k rounds of :func:`iter_greedy_steps`, each pricing three class
    leaders instead of every node; returns the chosen nodes in removal order
    with the fragility trace.  The final fragility is never below the
    untouched graph's whenever any node was removed.
    """
    base = fragile(graph, ())
    removed: list[int] = []
    trace: list[float] = [base]
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
            above: float | None = None) -> tuple[int, ...] | None:
    """Depth-first branch and bound over removal tuples of at most ``k`` ids.

    Tuples are ascending ids from ``pool``, visited in preorder, so tuples
    of one size come in lexicographic order.  Each is scored on one
    :class:`DegreeTracker` by removing its last id and restoring it on the
    way back.  With ``above`` None this returns the best tuple: highest
    value, then most removals, then lexicographically smallest.  Otherwise
    it returns the first non-empty tuple scoring strictly above ``above``,
    or None; the caller scores the empty tuple.

    With candidates ``pool[start:]`` left, a tuple bounds each descendant
    with s more removals by ``((n-s)*D - 2*(m - S_s)) / ((n-s-1)*(n-s-2))``
    (0.0 once ``n-s < 3``), where ``S_s`` sums the s largest current
    candidate degrees: the max degree D cannot rise and s removals delete
    at most ``S_s`` edges.  The bound is a correctly rounded int/int
    quotient and rounding is monotone, so no descendant's float value
    exceeds it.  A subtree is skipped when that float bound is below the
    incumbent, or equal to it with no descendant larger than the incumbent
    tuple; the decision skips it when the bound is at most ``above``.
    """
    tracker = DegreeTracker(graph)
    deg = tracker.deg
    deciding = above is not None
    best: tuple[int, ...] = ()
    # a decision starts its incumbent at above, so an equal score is no witness
    best_val = above if deciding else tracker.centrality()
    removed: list[int] = []
    degrees: list[int] = []  # degree of each removed id just before its removal

    def promising(start: int) -> bool:
        r = min(k - len(removed), len(pool) - start)
        if r <= 0:
            return False
        n, top, m = tracker.n_alive, tracker.max_deg, tracker.m_alive
        largest = sorted((deg[i] for i in pool[start:]), reverse=True)
        bound, lost = 0.0, 0
        for s in range(1, r + 1):
            lost += largest[s - 1]
            bound = max(bound, _centralization(n - s, top, m - lost))
        if deciding:
            return bound > best_val
        # an equal score wins only with more removals than the incumbent
        return bound > best_val or (bound == best_val
                                    and len(removed) + r > len(best))

    stack = [0] if promising(0) else []  # stack[t]: next pool index at depth t
    while stack:
        q = stack[-1]
        if q == len(pool):
            stack.pop()
            if removed:
                tracker.restore(removed.pop(), degrees.pop())
            continue
        stack[-1] = q + 1
        i = pool[q]
        degrees.append(deg[i])
        removed.append(i)
        tracker.remove(i)
        val = tracker.centrality()
        if val > best_val:
            if deciding:
                return tuple(removed)
            best, best_val = tuple(removed), val
        elif val == best_val and not deciding and len(removed) > len(best):
            best = tuple(removed)
        if promising(q + 1):
            stack.append(q + 1)
        else:
            tracker.restore(removed.pop(), degrees.pop())
    return None if deciding else best


def exact_opt(graph: Graph, no_strike: Collection[int] | None = None,
              k: int = 0, work_limit: int = DEFAULT_WORK_LIMIT) -> RemovalSolution:
    """Optimum over all removal sets of size 0..k, by branch and bound.

    Every size is searched because fragility is not monotone: a smaller
    set can beat a larger one.  Ties on value prefer more removals, then the
    lexicographically smallest id tuple, which keeps results deterministic.
    The search scores sets incrementally and skips subtrees whose bound
    cannot reach the incumbent, with the same result as scoring every
    subset.  Raises :class:`WorkLimitExceeded` up front when the subset
    count would exceed ``work_limit``.
    """
    pool, k = _exact_pool(graph, no_strike, k, work_limit)
    best = _search(graph, pool, k)
    trace = [fragile(graph, best[:j]) for j in range(len(best) + 1)]
    return RemovalSolution(best, tuple(trace), trace[-1])


def fragility_decision(graph: Graph, no_strike: Collection[int] | None,
                       k: int, x: float,
                       work_limit: int = DEFAULT_WORK_LIMIT) -> bool:
    """True iff some removal set of size <= k pushes fragility strictly above x.

    Validates ids and checks ``work_limit`` up front like :func:`exact_opt`,
    then stops at the first set scoring above x: the untouched graph first,
    scored without building a tracker, then the search, which skips
    subtrees whose bound is at most x.
    """
    pool, k = _exact_pool(graph, no_strike, k, work_limit)
    if fragile(graph, ()) > x:
        return True
    return _search(graph, pool, k, x) is not None
