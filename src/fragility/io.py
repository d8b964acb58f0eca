"""File formats: edge lists, no-strike lists, and run manifests.

Edge-list format, one record per line:

* ``u v`` or ``u,v``   -- an undirected edge between labels u and v
* ``u``                -- declares an isolated node
* ``# ...``            -- comment (also allowed after a record)

Labels are arbitrary non-empty strings without whitespace, commas or ``#``.
Node ids are assigned densely in first-appearance order.  Duplicate edges
collapse to one with a warning; self-loops are an error.  The no-strike
format is one label per line with the same comment and split rules.

Both parsers take the text as a ``str`` or as an open text file, which they
read in blocks of about 16 KiB, each cut just past a newline, so neither
holds the whole file or the list of all its lines.  Each block is searched
once for ``#`` and ``,``: the lines of a block with neither are only split
on whitespace, and only those of a block with either are cut at ``#``,
stripped and have their commas replaced.  Each label costs one dict probe;
a label not seen before gets the next id and an empty neighbour list.  Each
edge record appends each endpoint's id to the other's neighbour list, so the
edges are walked once; the lists then go through the same finishing step
as ``Graph``'s own, which sorts them and collapses the repeats.  The
label-to-id dict is freed before that step, and the ``Graph`` the step fills
is built over the labels with no edges, so it holds no per-node lists.  The
no-strike parser keeps only the list's own labels and finds them in one pass
over the graph's labels.
"""

from __future__ import annotations

import json
import re
import warnings
from collections.abc import Iterable
from typing import TextIO

from .graph import Graph, _finish

_LABEL_SAFE = re.compile(r"[^,\s#]+")
# characters of text split into lines at a time: a block and its lines are
# the load's transient peak beside the graph; 16 KiB loaded the benchmark's
# 20,000-node graph with a lower peak resident size than 64, 8 or 4 KiB
_BLOCK = 1 << 14


class EdgeListError(ValueError):
    """Malformed edge-list or no-strike input; carries the line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DuplicateEdgeWarning(UserWarning):
    pass


def _blocks(source: str | TextIO):
    """The text of ``source``, a ``str`` or an open text file, in blocks of
    about ``_BLOCK`` characters, each ending just past a ``"\\n"`` but the
    last, so no line or ``"\\r\\n"`` is cut.  A ``str`` is sliced where it
    lies; a file is read ``_BLOCK`` characters at a time, and what follows a
    read's last ``"\\n"`` is carried into the next block."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = source.find("\n", start + _BLOCK) + 1 or len(source)
            yield source[start:end]
            start = end
        return
    head: list[str] = []  # text read since the last "\n"
    while chunk := source.read(_BLOCK):
        if cut := chunk.rfind("\n") + 1:
            head.append(chunk[:cut])
            yield "".join(head)
            head = [chunk[cut:]]
        else:
            head.append(chunk)
    if tail := "".join(head):
        yield tail


def _records(source: str | TextIO):
    """Line number and labels of each record: the body before any ``#``,
    split on runs of commas and whitespace.

    The text is split into lines one block at a time (see :func:`_blocks`),
    so the lines of the whole text are never held at once.  Each block is
    searched once for ``#`` and ``,``: in a block with neither, a line's
    labels are just its whitespace split, and only the lines of a block with
    either are cut at ``#``, stripped and have their commas replaced.
    """
    lineno = 0
    for block in _blocks(source):
        if "#" not in block and "," not in block:
            for lineno, raw in enumerate(block.splitlines(), lineno + 1):
                if parts := raw.split():
                    yield lineno, parts
        else:
            for lineno, raw in enumerate(block.splitlines(), lineno + 1):
                # a body of commas alone is a record of no labels
                if body := raw.split("#", 1)[0].strip():
                    yield lineno, body.replace(",", " ").split()


def parse_edge_list(source: str | TextIO) -> Graph:
    """Parse edge-list text, a ``str`` or an open text file, into a Graph.

    Emits a single :class:`DuplicateEdgeWarning` naming how many duplicate
    edge records were collapsed, if any.
    """
    index: dict[str, int] = {}  # label -> id, in first-appearance order
    probe = index.get
    adjacency: list[list[int]] = []  # each id's neighbour ids, repeats kept
    for lineno, parts in _records(source):
        if len(parts) == 2:
            u, v = parts
            if u == v:
                raise EdgeListError(lineno, f"self-loop on {u!r}")
            if (i := probe(u)) is None:
                i = index[u] = len(adjacency)
                adjacency.append([])
            if (j := probe(v)) is None:
                j = index[v] = len(adjacency)
                adjacency.append([])
            adjacency[i].append(j)
            adjacency[j].append(i)
        elif len(parts) == 1:
            if parts[0] not in index:
                index[parts[0]] = len(adjacency)
                adjacency.append([])
        else:
            raise EdgeListError(lineno, f"expected 1 or 2 labels, got {len(parts)}")
    labels = tuple(index)
    del index, probe  # frees the dict: the lists hold the ids they need
    # an edgeless graph over the labels, then the lists become its adjacency
    graph = Graph(len(adjacency), (), labels=labels)
    duplicates = _finish(graph, adjacency)[1] // 2
    if duplicates:
        warnings.warn(DuplicateEdgeWarning(
            f"collapsed {duplicates} duplicate edge record(s)"), stacklevel=2)
    return graph


def emit_edge_list(graph: Graph) -> str:
    """Serialize a graph so that parsing it back reproduces the same labeled
    edges (node ids may be renumbered in reading order)."""
    for lab in graph.labels:
        if not _LABEL_SAFE.fullmatch(lab):
            raise ValueError(
                f"label {lab!r} cannot be written to the edge-list format")
    lines = [f"{graph.labels[u]} {graph.labels[v]}" for u, v in graph.edges()]
    lines.extend(graph.labels[i] for i in range(graph.node_count)
                 if graph.degree[i] == 0)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_no_strike(source: str | TextIO, graph: Graph) -> frozenset[int]:
    """Parse a no-strike list, a ``str`` or an open text file, against an
    already-loaded graph: its labels are kept with the first line naming
    each, then found in one pass over ``graph.labels``.  The first bad line,
    with an unknown label or more than one, is the one reported."""
    first: dict[str, int] = {}  # label -> the first line naming it
    bad = None  # the error of the first line that is not one label
    for lineno, parts in _records(source):
        if len(parts) != 1:
            bad = EdgeListError(lineno, "expected exactly one label per line")
            break
        first.setdefault(parts[0], lineno)
    ids = {lab: i for i, lab in enumerate(graph.labels) if lab in first}
    for label, lineno in first.items():  # in the order of their first lines
        if label not in ids:
            raise EdgeListError(lineno, f"unknown node label {label!r}")
    if bad:
        raise bad
    return frozenset(ids.values())


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
