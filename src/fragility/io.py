"""File formats: edge lists, no-strike lists, and run manifests.

Edge-list format, one record per line:

* ``u v`` or ``u,v``   -- an undirected edge between labels u and v
* ``u``                -- declares an isolated node
* ``# ...``            -- comment (also allowed after a record)

Labels are arbitrary non-empty strings without whitespace, commas or ``#``.
Node ids are assigned densely in first-appearance order.  Duplicate edges
collapse to one with a warning; self-loops are an error.  The no-strike
format is one label per line with the same comment and split rules.

The parser reads the text in blocks of about 64 KiB, each cut just past a
newline, so it never holds the list of all lines.  Each edge record appends
each endpoint's id to the other's neighbour list, so the edges are walked
once; the lists then go through the same finishing step as ``Graph``'s own,
which sorts them and collapses the repeats.
"""

from __future__ import annotations

import json
import re
import warnings
from collections.abc import Iterable

from .graph import Graph, _finish

_LABEL_SAFE = re.compile(r"^[^,\s#]+$")
_BLOCK = 1 << 16  # characters of text split into lines at a time


class EdgeListError(ValueError):
    """Malformed edge-list or no-strike input; carries the line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DuplicateEdgeWarning(UserWarning):
    pass


def _records(text: str):
    """Line number and labels of each record: the body before any ``#``,
    split on runs of commas and whitespace.

    The text is split into lines one block at a time, each block ending
    just past a ``"\\n"``, so no line or ``"\\r\\n"`` is cut and the lines of
    the whole text are never held at once.
    """
    lineno = start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        for lineno, raw in enumerate(text[start:end].splitlines(), lineno + 1):
            body = raw.split("#", 1)[0].strip()
            if body:
                yield lineno, body.replace(",", " ").split()
        start = end


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Emits a single :class:`DuplicateEdgeWarning` naming how many duplicate
    edge records were collapsed, if any.
    """
    index: dict[str, int] = {}  # label -> id, in first-appearance order
    intern = index.setdefault
    adjacency: list[list[int]] = []  # each id's neighbour ids, repeats kept
    for lineno, parts in _records(text):
        if len(parts) == 2:
            u, v = parts
            if u == v:
                raise EdgeListError(lineno, f"self-loop on {u!r}")
            i = intern(u, len(index))
            j = intern(v, len(index))
            while len(adjacency) < len(index):
                adjacency.append([])
            adjacency[i].append(j)
            adjacency[j].append(i)
        elif len(parts) == 1:
            intern(parts[0], len(index))
        else:
            raise EdgeListError(lineno, f"expected 1 or 2 labels, got {len(parts)}")
    adjacency += ([] for _ in range(len(index) - len(adjacency)))  # ids declared last
    # an edgeless graph over the labels, then the lists become its adjacency
    graph = Graph(len(adjacency), (), labels=tuple(index))
    duplicates = _finish(graph, adjacency)[1] // 2
    if duplicates:
        warnings.warn(DuplicateEdgeWarning(
            f"collapsed {duplicates} duplicate edge record(s)"), stacklevel=2)
    return graph


def emit_edge_list(graph: Graph) -> str:
    """Serialize a graph so that parsing it back reproduces the same labeled
    edges (node ids may be renumbered in reading order)."""
    for lab in graph.labels:
        if not _LABEL_SAFE.match(lab):
            raise ValueError(
                f"label {lab!r} cannot be written to the edge-list format")
    lines = [f"{graph.labels[u]} {graph.labels[v]}" for u, v in graph.edges()]
    lines.extend(graph.labels[i] for i in range(graph.node_count)
                 if graph.degree[i] == 0)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_no_strike(text: str, graph: Graph) -> frozenset[int]:
    """Parse a no-strike list against an already-loaded graph."""
    ids = {lab: i for i, lab in enumerate(graph.labels)}
    members: set[int] = set()
    for lineno, parts in _records(text):
        if len(parts) != 1:
            raise EdgeListError(lineno, "expected exactly one label per line")
        label = parts[0]
        if label not in ids:
            raise EdgeListError(lineno, f"unknown node label {label!r}")
        members.add(ids[label])
    return frozenset(members)


def run_manifest(command: str, parameters: dict, graph_path: str | None = None,
                 no_strike_path: str | None = None, seed: int | None = None,
                 outputs: Iterable[str] = ()) -> dict:
    """Reproducibility record written next to produced outputs."""
    return {"command": command, "parameters": parameters,
            "graph_path": graph_path, "no_strike_path": no_strike_path,
            "seed": seed, "outputs": list(outputs)}


def write_manifest(manifest: dict, path) -> None:
    """Write ``manifest`` as JSON: indent 2, sorted keys, then a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
