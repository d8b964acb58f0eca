"""Static centrality-ranking removal strategies used for comparison.

Each strategy scores every node once on the untouched graph, ranks the
targetable nodes (those outside the protected set), and removes from the top
of that fixed ranking whatever the budget allows.  Because the ranking is
computed once, the cost of these strategies does not depend on how many
nodes are ultimately removed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection
from dataclasses import dataclass

from .graph import Graph, _node_set


@dataclass(frozen=True)
class NodeRanking:
    """Per-node scores plus the fixed removal order they induce.

    ``order`` ranks the targetable nodes by descending score, ties broken by
    ascending node id.
    """

    scores: dict[int, float]
    order: tuple[int, ...]


def _rank(graph: Graph, full_scores: list[float],
          no_strike: frozenset[int]) -> NodeRanking:
    targetable = [i for i in range(graph.node_count) if i not in no_strike]
    order = tuple(sorted(targetable, key=lambda i: (-full_scores[i], i)))
    return NodeRanking({i: full_scores[i] for i in targetable}, order)


def degree_ranking(graph: Graph,
                   no_strike: Collection[int] | None = None) -> NodeRanking:
    """Rank targetable nodes by plain degree."""
    ns = _node_set(graph.node_count, no_strike)
    return _rank(graph, [float(d) for d in graph.degree], ns)


def _bfs_distances(graph: Graph, src: int) -> list[int]:
    dist = [-1] * graph.node_count
    dist[src] = 0
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in graph.adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def closeness_scores(graph: Graph) -> list[float]:
    """Component-adjusted closeness for every node.

    For node i with r reachable peers at total distance s, the score is
    (r / (N - 1)) * (r / s); isolated nodes score 0.  On a connected graph
    this is the usual inverse of the mean shortest-path distance.
    """
    n = graph.node_count
    out = []
    for i in range(n):
        dist = _bfs_distances(graph, i)
        reach = [d for j, d in enumerate(dist) if j != i and d >= 0]
        r = len(reach)
        s = sum(reach)
        out.append(0.0 if r == 0 or s == 0 else (r / (n - 1)) * (r / s))
    return out


def closeness_ranking(graph: Graph,
                      no_strike: Collection[int] | None = None) -> NodeRanking:
    ns = _node_set(graph.node_count, no_strike)
    return _rank(graph, closeness_scores(graph), ns)


def betweenness_scores(graph: Graph) -> list[float]:
    """Exact shortest-path betweenness, endpoints excluded, each pair once.

    Unweighted accumulation over breadth-first shortest-path DAGs; the
    undirected double count is halved at the end.  No further normalization.
    """
    n = graph.node_count
    bet = [0.0] * n
    for s in range(n):
        stack: list[int] = []
        pred: list[list[int]] = [[] for _ in range(n)]
        sigma = [0] * n
        dist = [-1] * n
        sigma[s] = 1
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in graph.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    pred[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in pred[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bet[w] += delta[w]
    return [b / 2.0 for b in bet]


def betweenness_ranking(graph: Graph,
                        no_strike: Collection[int] | None = None) -> NodeRanking:
    ns = _node_set(graph.node_count, no_strike)
    return _rank(graph, betweenness_scores(graph), ns)


def static_removal_schedule(ranking: NodeRanking, m: int) -> frozenset[int]:
    """Top ``m`` nodes of a fixed ranking, as the set to remove."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > len(ranking.order):
        raise ValueError(
            f"cannot remove {m} nodes: only {len(ranking.order)} are targetable")
    return frozenset(ranking.order[:m])
