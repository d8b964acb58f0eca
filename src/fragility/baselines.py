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
  source.  The BFS finds a level top-down while its frontier holds no more
  nodes than remain unfound, and bottom-up after that (the direction switch
  of Beamer, Asanovic and Patterson, SC 2012): each unfound node reads its
  own neighbours for parents, and the level is sorted by the frontier
  position of each node's first parent, then by id, which is the order a
  FIFO queue finds it in.  The BFS stops once every node is found.  On the
  scale-free 1133/5541 graph a source reads 4,173 adjacency entries, not
  all 11,082.  O(N * M) in all, spread over the usable CPUs: the sources
  run in ``os.fork`` workers, one per CPU in ``os.sched_getaffinity(0)``
  and each without the cyclic garbage collector, each writing its results
  into its own pipe, and their dependency vectors are read back and added
  in source order, so the floats do not depend on the number of workers.
  The sweep runs in-process when N * M is below 100,000, when one CPU is
  usable or its CPUs are unknown, or when other threads run, since a fork
  copies only the calling thread.  Ranking ties are exact: runs of floats
  within 1e-9 of each other are ranked again by exact rational scores from
  an integer Brandes pass, so equal scores rank by ascending id; that pass
  is a second sweep, made only when such a run exists, and sends each
  source's integer numerators over its lcm ``L``.  Timings of this ranking
  are wall-clock time, not CPU time.
"""

from __future__ import annotations

import gc
import marshal
import math
import os
import sys
import threading
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


# Below this N * M forking workers costs more than they save.  On a 2-CPU
# host, timing the first sweep of a fresh process on scale-free graphs with
# M = 2.5 N (medians of 11), N * M = 64,000 took 0.018 s in-process and
# 0.020 s over two workers; 100,000 took 0.041 s and 0.031 s.
_POOL_MIN_WORK = 100_000

_PIPE_BYTES = 1 << 20  # per worker; 64 KiB pipes stall the workers in turn


def _pool_size(work: int) -> int:
    """Worker processes for a sweep of ``work = N * M`` steps; 1 means
    in-process."""
    if work < _POOL_MIN_WORK or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    # fork copies only the calling thread
    if cpus < 2 or threading.active_count() > 1:
        return 1
    return cpus


def _work(per_source: Callable, adj: Sequence, first: int, step: int,
          fd: int, readers: list[int]) -> None:
    """A forked worker: writes ``per_source(adj, s)`` for ``s = first,
    first + step, ...`` into ``fd``, each as an 8-byte length and its
    ``marshal`` bytes, then leaves through ``os._exit``, so no ``atexit``
    handler or buffered stream of the parent runs here."""
    gc.disable()  # the per-source lists form no cycles, and os._exit frees all
    status = 1
    try:
        for r in readers:  # a worker holding a read end keeps its pipe open
            os.close(r)
        with open(fd, "wb") as out:
            for s in range(first, len(adj), step):
                data = marshal.dumps(per_source(adj, s))
                out.write(len(data).to_bytes(8, "little") + data)
                out.flush()
        status = 0
    except BrokenPipeError:
        pass  # the parent stopped reading
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _receive(pipe) -> object:
    size = int.from_bytes(pipe.read(8), "little")
    data = pipe.read(size)
    if not size or len(data) < size:
        raise RuntimeError("a betweenness worker stopped before its last source")
    return marshal.loads(data)


def _sweep(per_source: Callable, graph: Graph) -> Iterator:
    """``per_source(adj, s)`` for every source ``s``, yielded in order 0..N-1.

    Worker w of W, forked with the adjacency, runs sources w, w + W, ... and
    writes each result into its own pipe; the results are read back in
    source order.  Closing the generator early closes the pipes, so each
    worker stops at its next write, and reaps every worker.  The sweep runs
    in-process instead when :func:`_pool_size` allows one worker.
    """
    n, adj = graph.node_count, graph.adjacency
    workers = _pool_size(n * graph.edge_count)
    if workers == 1:
        for s in range(n):
            yield per_source(adj, s)
        return
    import fcntl  # POSIX, like os.fork
    grow = getattr(fcntl, "F_SETPIPE_SZ", None)  # Linux only
    pipes: list = []
    pids = []
    try:
        for w in range(workers):
            r, fd = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if grow is not None:
                    try:
                        fcntl.fcntl(fd, grow, _PIPE_BYTES)
                    except OSError:
                        pass  # above the system's limit: keep the default
                readers = [pipe.fileno() for pipe in pipes]
                pid = os.fork()
                if pid == 0:
                    _work(per_source, adj, w, workers, fd, readers)
                pids.append(pid)
            finally:
                os.close(fd)  # the worker's end, in the parent
        for s in range(n):
            yield _receive(pipes[s % workers])
    finally:
        for pipe in pipes:
            pipe.close()
        failed = [pid for pid in pids if os.waitpid(pid, 0)[1]]
    if failed:
        raise RuntimeError(f"{len(failed)} betweenness workers failed")


def _paths(adj: Sequence, s: int) -> tuple[list[int], list[int], list]:
    """Shortest-path DAG from ``s``: the other reached nodes in the order a
    FIFO-queue BFS finds them, path counts ``sigma`` and predecessor lists.

    The BFS runs level by level and stops once every node is found.  While
    the frontier holds no more nodes than remain unfound, each frontier node
    scans its neighbours (top-down).  Later, a level walks every id and
    skips those already at a distance: each unfound node scans its own
    neighbours for its parents, those on the frontier (bottom-up), and the
    new level is sorted by the frontier position of the node's first
    parent, then by id: a FIFO queue finds each parent's children in
    ascending id, as ``adj`` lists them.  Such a node's ``pred`` list is
    ascending by id rather than in frontier order.
    """
    n = len(adj)
    sigma = [0] * n
    dist = [-1] * n
    pred: list = [None] * n  # pred[w] is made when w is found
    rank = [0] * n  # frontier position, for a bottom-up level
    sigma[s] = 1
    dist[s] = 0
    found: list[int] = []
    level = [s]
    left = n - 1  # nodes not yet found
    d = 0
    while level and left:
        d += 1
        nxt = []
        if len(level) <= left:
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
        else:
            for i, v in enumerate(level):
                rank[v] = i
            up = d - 1
            keys = []
            for w in range(n):
                if dist[w] >= 0:
                    continue
                ps = None
                for v in adj[w]:
                    if dist[v] == up:
                        if ps is None:
                            ps = [v]
                            sw = sigma[v]
                            first = rank[v]
                        else:
                            ps.append(v)
                            sw += sigma[v]
                            if rank[v] < first:
                                first = rank[v]
                if ps is not None:
                    dist[w] = d
                    sigma[w] = sw
                    pred[w] = ps
                    keys.append(first * n + w)  # (first parent, id)
            keys.sort()
            nxt = [k % n for k in keys]
        found += nxt
        left -= len(nxt)
        level = nxt
    return found, sigma, pred


def _dependencies(adj: Sequence, s: int) -> list[float]:
    """Source ``s``'s dependency on every node, 0.0 on itself."""
    found, sigma, pred = _paths(adj, s)
    delta = [0.0] * len(adj)
    for w in reversed(found):
        sw = sigma[w]
        dw1 = 1.0 + delta[w]
        for v in pred[w]:
            delta[v] += sigma[v] / sw * dw1
    delta[s] = 0.0
    return delta


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
                        s: int) -> tuple[int, list[int]]:
    """Source ``s``'s dependency on each node of ``want``, exactly, as
    ``(L, numerators)``: the dependency of ``want[j]`` is
    ``numerators[j] / L``.

    With ``L`` the lcm of the path counts, ``H[w]`` sums ``L / sigma[c] +
    H[c]`` over the children ``c`` of ``w`` in the DAG; the numerator is
    ``sigma[w] * H[w]``, so no step divides.
    """
    found, sigma, pred = _paths(adj, s)
    big_l = math.lcm(*(sigma[w] for w in found))
    h = [0] * len(adj)
    for w in reversed(found):
        hw = big_l // sigma[w] + h[w]
        for v in pred[w]:
            h[v] += hw
    h[s] = 0
    return big_l, [sigma[w] * h[w] for w in want]


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
    over the same sweep of sources: the numerators are added per distinct
    denominator ``L``, and each node's ``Fraction`` is built at the end.
    """
    ns = _node_set(graph.node_count, no_strike)
    scores = betweenness_scores(graph)
    order = _rank(graph, scores, ns)
    tied = _near_ties(order, scores)
    if not tied:
        return order
    sums: dict[int, list[int]] = {}
    for big_l, part in _sweep(partial(_exact_dependencies, tied), graph):
        total = sums.get(big_l)
        sums[big_l] = part if total is None else list(map(add, total, part))
    keys: list = list(scores)
    for j, v in enumerate(tied):
        keys[v] = sum(Fraction(total[j], big_l)
                      for big_l, total in sums.items()) / 2
    return _rank(graph, keys, ns)


_RANKERS = {
    "degree": degree_ranking,
    "closeness": closeness_ranking,
    "betweenness": betweenness_ranking,
}
