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
  source, O(N * M).  Ties are broken on the float scores.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, _node_set


@dataclass(frozen=True)
class NodeRanking:
    """Per-node scores plus the fixed removal order they induce.

    ``order`` ranks the targetable nodes by descending score, ties broken by
    ascending node id.
    """

    scores: dict[int, float]
    order: tuple[int, ...]


def _rank(graph: Graph, full_scores: list[float], keys: Sequence,
          no_strike: frozenset[int]) -> NodeRanking:
    targetable = [i for i in range(graph.node_count) if i not in no_strike]
    order = tuple(sorted(targetable, key=lambda i: (-keys[i], i)))
    return NodeRanking({i: full_scores[i] for i in targetable}, order)


def degree_ranking(graph: Graph,
                   no_strike: Collection[int] | None = None) -> NodeRanking:
    """Rank targetable nodes by plain degree."""
    ns = _node_set(graph.node_count, no_strike)
    return _rank(graph, [float(d) for d in graph.degree], graph.degree, ns)


def _reach_sums(graph: Graph) -> list[tuple[int, int]]:
    """Per node, the peers it reaches ``r`` and their summed distance ``s``.

    Node v's ball B_d(v), the nodes within distance d, is one int with bit u
    set for each member u.  A level ORs v's ball with its neighbours' balls
    at level d; the bits it gains are the nodes at distance exactly d + 1.
    All of a level's balls are read before any is replaced.  A ball that
    stops growing holds v's whole component, so v leaves the loop, and its
    ball stays correct at every later level its neighbours read it.
    """
    n = graph.node_count
    adj = graph.adjacency
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


def _closeness(graph: Graph) -> tuple[list[float], list[Fraction | int]]:
    """Closeness scores, and the exact keys ``r**2 / s`` that rank them."""
    n = graph.node_count
    reach = _reach_sums(graph)
    scores = [(r / (n - 1)) * (r / s) if s else 0.0 for r, s in reach]
    return scores, [Fraction(r * r, s) if s else 0 for r, s in reach]


def closeness_scores(graph: Graph) -> list[float]:
    """Component-adjusted closeness for every node.

    For node i with r reachable peers at total distance s, the score is
    (r / (N - 1)) * (r / s); isolated nodes score 0.  On a connected graph
    this is the usual inverse of the mean shortest-path distance.
    """
    return _closeness(graph)[0]


def closeness_ranking(graph: Graph,
                      no_strike: Collection[int] | None = None) -> NodeRanking:
    ns = _node_set(graph.node_count, no_strike)
    return _rank(graph, *_closeness(graph), ns)


def betweenness_scores(graph: Graph) -> list[float]:
    """Exact shortest-path betweenness, endpoints excluded, each pair once.

    Unweighted accumulation over breadth-first shortest-path DAGs; the
    undirected double count is halved at the end.  No further normalization.
    The BFS runs level by level, so nodes are found, and their dependencies
    accumulated, in the order of a FIFO queue.
    """
    n = graph.node_count
    adj = graph.adjacency
    bet = [0.0] * n
    for s in range(n):
        sigma = [0] * n
        dist = [-1] * n
        pred: list = [None] * n  # pred[w] is made when w is found
        sigma[s] = 1
        dist[s] = 0
        found: list[int] = []  # every node but s, in BFS order
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
        delta = [0.0] * n
        for w in reversed(found):
            sw = sigma[w]
            dw1 = 1.0 + delta[w]
            for v in pred[w]:
                delta[v] += sigma[v] / sw * dw1
            bet[w] += delta[w]
    return [b / 2.0 for b in bet]


def betweenness_ranking(graph: Graph,
                        no_strike: Collection[int] | None = None) -> NodeRanking:
    ns = _node_set(graph.node_count, no_strike)
    scores = betweenness_scores(graph)
    return _rank(graph, scores, scores, ns)


def static_removal_schedule(ranking: NodeRanking, m: int) -> frozenset[int]:
    """Top ``m`` nodes of a fixed ranking, as the set to remove."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > len(ranking.order):
        raise ValueError(
            f"cannot remove {m} nodes: only {len(ranking.order)} are targetable")
    return frozenset(ranking.order[:m])
