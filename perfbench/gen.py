"""Seeded inputs for the benchmark, built with the standard library only.

The generator is the benchmark's own and does not call
``fragility.harness.generate_synthetic``, so a change to the program cannot
change what the benchmark feeds it.  Node ``i`` carries the label ``n<i>``
and is declared on its own line before any edge, in id order, so the ids the
program assigns by first appearance equal the ids used here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Instance:
    """A generated graph: ``adj[i]`` is the set of neighbours of node ``i``."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[frozenset[int], ...]
    protected: frozenset[int]

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degree(self) -> list[int]:
        return [len(a) for a in self.adj]


def label(i: int) -> str:
    return f"n{i}"


def scale_free(n: int, m: int, seed: int) -> tuple[tuple[int, int], ...]:
    """Preferential attachment that lands on exactly ``m`` edges.

    Node ``t`` joins with as many degree-weighted picks among older nodes as
    keep the running edge count on the line ``m * (t + 1) / n``.
    """
    rng = random.Random(seed)
    first = min(n, max(2, -(-m // n) + 1))
    edges = [(0, j) for j in range(1, first)]
    ends = [e for uv in edges for e in uv]
    for t in range(first, n):
        want = (2 * m * (t + 1) + n) // (2 * n)
        count = max(1, min(t, want - len(edges)))
        picked: set[int] = set()
        while len(picked) < count:
            picked.add(ends[rng.randrange(len(ends))])
        for j in sorted(picked):
            edges.append((j, t))
            ends += (j, t)
    if len(edges) != m:
        raise ValueError(f"generator reached {len(edges)} edges, wanted {m}")
    return tuple(edges)


def make_instance(n: int, m: int, seed: int, protect_top: int = 0) -> Instance:
    edges = scale_free(n, m, seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    by_degree = sorted(range(n), key=lambda i: (-len(adj[i]), i))
    return Instance(n, edges, tuple(frozenset(a) for a in adj),
                    frozenset(by_degree[:protect_top]))


def write_instance(inst: Instance, directory: Path) -> tuple[Path, Path | None]:
    """Write ``graph.txt`` (and ``protected.txt`` when there is a protected
    set) into ``directory``; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = [label(i) for i in range(inst.n)]
    lines += [f"{label(u)} {label(v)}" for u, v in inst.edges]
    graph_path = directory / "graph.txt"
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not inst.protected:
        return graph_path, None
    ns_path = directory / "protected.txt"
    ns_path.write_text("".join(f"{label(i)}\n" for i in sorted(inst.protected)),
                       encoding="utf-8")
    return graph_path, ns_path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
