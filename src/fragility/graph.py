"""Undirected simple graphs and network-wide degree centralization.

The centralization score of a graph compares every node's degree against the
most connected node and normalizes so that a star scores 1.0 and any
degree-regular graph (cycle, complete graph, ...) scores 0.0.  Graphs with
fewer than three nodes score 0.0 by convention, since the normalizing factor
vanishes there.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sized
from itertools import islice
from operator import eq


class Graph:
    """Immutable undirected simple graph over dense integer node ids.

    Nodes are ``0 .. node_count - 1``.  Each node carries an external string
    label (defaulting to its id).  Self-loops and parallel edges are rejected
    at construction.  ``adjacency[i]`` is the tuple of i's neighbour ids in
    ascending order, whatever the order of the edges given, so
    ``j in adjacency[i]`` works but costs O(deg i).
    """

    __slots__ = ("node_count", "edge_count", "adjacency", "degree", "labels",
                 "max_degree")

    def __init__(self, node_count: int,
                 edges: Iterable[tuple[int, int]],
                 labels: Iterable[str] | None = None) -> None:
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        self.node_count = node_count
        if labels is None:
            label_tuple = tuple(str(i) for i in range(node_count))
        else:
            label_tuple = tuple(labels)
            if len(label_tuple) != node_count:
                raise ValueError("need exactly one label per node")
            if not all(isinstance(lab, str) and lab for lab in label_tuple):
                raise ValueError("labels must be non-empty strings")
            if len(dict.fromkeys(label_tuple)) != node_count:
                raise ValueError("labels must be unique")
        self.labels = label_tuple

        if isinstance(edges, Sized) and not len(edges):
            adjacency: list = [()] * node_count  # no edges: no per-node lists
        else:
            adjacency = [[] for _ in range(node_count)]
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) references an unknown node id")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adjacency[u].append(v)
            adjacency[v].append(u)
        if repeat := _finish(self, adjacency)[0]:
            raise ValueError(f"duplicate edge {repeat}")

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return tuple((u, v) for u, adj in enumerate(self.adjacency)
                     for v in adj if u < v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def _finish(graph: Graph, adjacency: list) -> tuple[tuple[int, int] | None, int]:
    """Store ``adjacency``'s lists on ``graph`` as ascending tuples, repeats
    collapsed, with the degrees; return the lowest repeated pair (``None`` if
    none) and the count of surplus entries, two per extra copy of an edge."""
    repeat, surplus = None, 0
    for u, nb in enumerate(adjacency):
        if len(nb) > 1:
            nb.sort()
            if extra := sum(map(eq, nb, islice(nb, 1, None))):
                surplus += extra
                # u is the lowest node with a repeat, so each repeat is above it
                repeat = repeat or (u, next(v for v, w in zip(nb, nb[1:]) if v == w))
                nb = dict.fromkeys(nb)
        adjacency[u] = tuple(nb)
    graph.adjacency = tuple(adjacency)
    graph.degree = tuple(map(len, adjacency))
    graph.edge_count = sum(graph.degree) // 2
    graph.max_degree = max(graph.degree, default=0)
    return repeat, surplus


def _node_set(node_count: int, nodes: Collection[int] | None) -> frozenset[int]:
    """``nodes`` (``None`` for none) as a frozenset of ids below ``node_count``."""
    ids = frozenset(() if nodes is None else nodes)
    for i in ids:
        if not (0 <= i < node_count):
            raise ValueError(f"unknown node id {i}")
    return ids


def _centralization(n: int, top: int, m: int) -> float:
    """Score of ``n`` nodes with max degree ``top`` and ``m`` edges; 0.0 if n < 3."""
    return 0.0 if n < 3 else (n * top - 2 * m) / ((n - 1) * (n - 2))


def network_degree_centrality(graph: Graph) -> float:
    """Degree centralization of the whole network, in [0, 1].

    Computed as (N * d_max - 2 * M) / ((N - 1) * (N - 2)).  Returns 0.0 for
    graphs with fewer than three nodes.
    """
    return _centralization(graph.node_count, graph.max_degree, graph.edge_count)


def fragile(graph: Graph, removed: Collection[int]) -> float:
    """Centralization of the subgraph left after deleting ``removed``.

    ``removed`` must be a set of valid node ids; surviving nodes keep only
    edges whose other endpoint also survives.  Scores the degenerate 0.0
    when fewer than three nodes survive.  The ids are replayed on a fresh
    :class:`fragility.solvers.DegreeTracker`, the one survivor count every
    solver scores with; it is imported here because ``solvers`` imports
    this module.
    """
    from .solvers import DegreeTracker
    tracker = DegreeTracker(graph)
    for i in _node_set(graph.node_count, removed):
        tracker.remove(i)
    return tracker.centrality()


def star_graph(leaves: int) -> Graph:
    """Star with one hub (id 0) and ``leaves`` pendant nodes."""
    if leaves < 0:
        raise ValueError("leaves must be non-negative")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])
