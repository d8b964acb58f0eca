"""Static centrality-ranking removal strategies used for comparison.

Each strategy scores every node once on the untouched graph, ranks the
targetable nodes (those outside the protected set), and removes from the top
of that fixed ranking whatever the budget allows.  Because the ranking is
computed once, the cost of these strategies does not depend on how many
nodes are ultimately removed.

Costs, for N nodes, M edges and eccentricity ecc(v):

- degree: one sort.
- closeness: bit-parallel ball growth, sum over v of ecc(v) * deg(v) ORs of
  N-bit integers.  Fast on small-world graphs; a path or cycle of N nodes
  costs order N**2 ORs, slower than one BFS per source.  Ranking ties are
  exact: nodes are ordered by the rational key r**2 / s, the score without
  its common 1 / (N - 1) factor.
- betweenness: Brandes, one level-synchronous BFS and one backward pass per
  source, O(N * M) spread over the usable CPUs: the sources run in forked
  workers, one per CPU in ``os.sched_getaffinity(0)``, and their dependency
  vectors are added in source order, so the floats do not depend on the
  number of workers.  The sweep runs in-process when N * M is below 250,000,
  when one CPU is usable, or when the process cannot fork safely (no
  ``fork`` start method, other threads running, or itself a pool worker).
  Ranking ties are exact: runs of floats within 1e-9 of each other are
  ranked again by exact rational scores from an integer Brandes pass, so
  equal scores rank by ascending id; that pass is a second sweep, made only
  when such a run exists.  Timings of this ranking are wall-clock
  time, not CPU time.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from collections.abc import Callable, Collection, Iterator, Sequence
from fractions import Fraction
from functools import partial
from operator import add

from .graph import Graph, _node_set


def _rank(graph: Graph, keys: Sequence,
          no_strike: frozenset[int]) -> tuple[int, ...]:
    """Targetable nodes by descending key, ties by ascending id."""
    targetable = [i for i in range(graph.node_count) if i not in no_strike]
    return tuple(sorted(targetable, key=lambda i: (-keys[i], i)))


def degree_ranking(graph: Graph,
                   no_strike: Collection[int] | None = None) -> tuple[int, ...]:
    """Rank targetable nodes by plain degree."""
    return _rank(graph, graph.degree, _node_set(graph.node_count, no_strike))


def _reach_sums(graph: Graph) -> list[tuple[int, int]]:
    """Per node, the peers it reaches ``r`` and their summed distance ``s``.

    Node v's ball B_d(v), the nodes within distance d, is one int with bit u
    set for each member u.  A level ORs v's ball with its neighbours' balls
    at level d; the bits it gains are the nodes at distance exactly d + 1.
    All of a level's balls are read before any is replaced.  A ball that
    stops growing holds v's whole component, so v leaves the loop, and its
    ball stays correct at every later level its neighbours read it.
    """
    n, adj = graph.node_count, graph.adjacency
    ball = [1 << v for v in range(n)]
    r = [0] * n
    s = [0] * n
    active = [v for v in range(n) if adj[v]]
    d = 0
    while active:
        d += 1
        grown_balls = []
        for v in active:
            b = ball[v]
            for u in adj[v]:
                b |= ball[u]
            grown_balls.append(b)
        still = []
        for v, b in zip(active, grown_balls):
            grown = b.bit_count() - 1 - r[v]
            if grown:
                r[v] += grown
                s[v] += d * grown
                ball[v] = b
                still.append(v)
        active = still
    return list(zip(r, s))


def closeness_scores(graph: Graph) -> list[float]:
    """Component-adjusted closeness for every node.

    For node i with r reachable peers at total distance s, the score is
    (r / (N - 1)) * (r / s); isolated nodes score 0.  On a connected graph
    this is the usual inverse of the mean shortest-path distance.
    """
    n = graph.node_count
    return [(r / (n - 1)) * (r / s) if s else 0.0
            for r, s in _reach_sums(graph)]


def closeness_ranking(graph: Graph, no_strike: Collection[int] | None = None
                      ) -> tuple[int, ...]:
    """Rank targetable nodes by closeness, on the exact keys ``r**2 / s``."""
    ns = _node_set(graph.node_count, no_strike)
    keys = [Fraction(r * r, s) if s else 0 for r, s in _reach_sums(graph)]
    return _rank(graph, keys, ns)


# Below this N * M a pool's start-up costs more than its workers save.  On
# a 2-CPU host (medians of 7), N * M = 196,000 took 0.076 s in-process and
# 0.110 s over two workers; 306,250 took 0.124 s and 0.099 s.
_POOL_MIN_WORK = 250_000

_worker_task: tuple = ()  # (per_source, adj), set only in pool workers


def _pool_size(work: int) -> int:
    """Worker processes for a sweep of ``work = N * M`` steps; 1 means
    in-process."""
    if work < _POOL_MIN_WORK or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return 1
    import multiprocessing
    # fork copies only the calling thread, and a pool worker may not fork
    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    return cpus


def _init_worker(per_source: Callable, adj: Sequence) -> None:
    global _worker_task
    _worker_task = (per_source, adj)


def _run_source(s: int):
    per_source, adj = _worker_task
    return per_source(adj, s)


def _sweep(per_source: Callable, graph: Graph) -> Iterator:
    """``per_source(adj, s)`` for every source ``s``, yielded in order 0..N-1.

    The sources run in forked workers, one per usable CPU, which receive
    the adjacency once, at fork.  The sweep runs in-process instead when
    :func:`_pool_size` allows one worker.
    """
    n, adj = graph.node_count, graph.adjacency
    workers = _pool_size(n * graph.edge_count)
    if workers == 1:
        for s in range(n):
            yield per_source(adj, s)
        return
    import multiprocessing
    # about eight chunks per worker keep the workers evenly loaded; a chunk
    # carries at most 2**21 result floats (16 MB)
    chunk = max(1, min(n // (8 * workers), (1 << 21) // n))
    with multiprocessing.get_context("fork").Pool(
            workers, _init_worker, (per_source, adj)) as pool:
        yield from pool.imap(_run_source, range(n), chunk)
        pool.close()
        pool.join()


def _paths(adj: Sequence, s: int) -> tuple[list[int], list[int], list]:
    """Shortest-path DAG from ``s``: the other reached nodes in BFS order,
    path counts ``sigma`` and predecessor lists.

    The BFS runs level by level, so nodes are found in the order of a FIFO
    queue.
    """
    n = len(adj)
    sigma = [0] * n
    dist = [-1] * n
    pred: list = [None] * n  # pred[w] is made when w is found
    sigma[s] = 1
    dist[s] = 0
    found: list[int] = []
    level = [s]
    d = 0
    while level:
        d += 1
        nxt = []
        for v in level:
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = d
                    sigma[w] = sv
                    pred[w] = [v]
                    nxt.append(w)
                elif dw == d:
                    sigma[w] += sv
                    pred[w].append(v)
        found += nxt
        level = nxt
    return found, sigma, pred


def _dependencies(adj: Sequence, s: int) -> array:
    """Source ``s``'s dependency on every node, 0.0 on itself."""
    found, sigma, pred = _paths(adj, s)
    delta = [0.0] * len(adj)
    for w in reversed(found):
        sw = sigma[w]
        dw1 = 1.0 + delta[w]
        for v in pred[w]:
            delta[v] += sigma[v] / sw * dw1
    delta[s] = 0.0
    return array("d", delta)


def betweenness_scores(graph: Graph) -> list[float]:
    """Exact shortest-path betweenness, endpoints excluded, each pair once.

    Unweighted accumulation over breadth-first shortest-path DAGs; the
    undirected double count is halved at the end.  No further normalization.
    Each node's dependencies are added in source order, so the sum does not
    depend on how the sources are spread over workers, nor, as each BFS
    walks the ascending ``Graph.adjacency``, on the order of the edges given.
    """
    bet = [0.0] * graph.node_count
    for delta in _sweep(_dependencies, graph):
        bet = list(map(add, bet, delta))
    return [b / 2.0 for b in bet]


def _exact_dependencies(want: Sequence[int], adj: Sequence,
                        s: int) -> list[Fraction]:
    """Source ``s``'s dependency on each node of ``want``, exactly.

    With ``L`` the lcm of the path counts, ``H[w]`` sums ``L / sigma[c] +
    H[c]`` over the children ``c`` of ``w`` in the DAG; the dependency is
    ``sigma[w] * H[w] / L``, integers until that one division.
    """
    found, sigma, pred = _paths(adj, s)
    big_l = math.lcm(*(sigma[w] for w in found))
    h = [0] * len(adj)
    for w in reversed(found):
        hw = big_l // sigma[w] + h[w]
        for v in pred[w]:
            h[v] += hw
    h[s] = 0
    return [Fraction(sigma[w] * h[w], big_l) for w in want]


def _near_ties(order: Sequence[int], scores: list[float]) -> list[int]:
    """Nodes of ``order`` whose float score is within 1e-9 of a neighbour's.

    Runs at 0.0 are left out: every addend of a score is positive, so a
    score of 0.0 means no shortest path passes through the node.
    """
    tied = set()
    for a, b in zip(order, order[1:]):
        if scores[a] and math.isclose(scores[a], scores[b],
                                      rel_tol=1e-9, abs_tol=1e-9):
            tied.update((a, b))
    return sorted(tied)


def betweenness_ranking(graph: Graph, no_strike: Collection[int] | None = None
                        ) -> tuple[int, ...]:
    """Rank targetable nodes by betweenness, exact ties by ascending id.

    Near-equal float scores are ranked again by their exact values, summed
    over the same sweep of sources.
    """
    ns = _node_set(graph.node_count, no_strike)
    scores = betweenness_scores(graph)
    order = _rank(graph, scores, ns)
    tied = _near_ties(order, scores)
    if not tied:
        return order
    keys: list = list(scores)
    exact = [Fraction(0)] * len(tied)
    for part in _sweep(partial(_exact_dependencies, tied), graph):
        exact = list(map(add, exact, part))
    for v, x in zip(tied, exact):
        keys[v] = x / 2
    return _rank(graph, keys, ns)


_RANKERS = {
    "degree": degree_ranking,
    "closeness": closeness_ranking,
    "betweenness": betweenness_ranking,
}
