"""Peak traced memory of the greedy, the edge-list parser, the graph and
no-strike loads from files, the LP-family writer and the parent of a pooled
betweenness sweep.

The greedy, the parser and the loads run on the benchmark's greedy_large
size, a 20,000-node/97,800-edge scale-free graph with its 20 hubs
protected; the LP family (k = 10) and the sweep on paper_mid's
1,133-node/5,541-edge one.  ``tracemalloc`` counts every block the call
allocates, so the peaks are deterministic for one Python version.  Each
bound sits between the peak of the older code and the peak now (Python
3.11): the greedy with per-degree sets of ids and tuple heap entries
5.36 MB, with an int heap entry for every candidate 1.48 MB, now releasing
the candidates one degree level at a time 0.29 MB; the parser with a label
graph of empty lists 6.80 MB, now 5.71 MB; the graph file read whole into
one string and then parsed 6.73 MB, in 64 KiB blocks 5.90 MB, now in
16 KiB blocks 5.74 MB; the no-strike labels looked up in a dict over every
graph label 0.97 MB, now 0.005 MB; the LP family holding its 1.63 MB body
and each joined objective 5.34 MB, now 1.30 MB; the sweep's parent with a
``multiprocessing.Pool`` 4.25 MB, now 0.11 MB.  Run as a script, this file
prints every peak without checking them.
"""

from __future__ import annotations

import gc
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from fragility import (betweenness_scores, build_fragility_ip, emit_edge_list,
                       generate_synthetic, greedy_fragile, parse_edge_list,
                       parse_no_strike, write_lp_family)

MB = 1e6
LARGE = ("scale-free", 20000, 97800, 1)  # the benchmark's greedy_large graph
MID = ("scale-free", 1133, 5541, 1)  # the size of paper_mid's graph


@pytest.fixture(scope="module")
def large():
    return generate_synthetic(*LARGE)


@pytest.fixture(scope="module")
def mid():
    return generate_synthetic(*MID)


def traced_peak(call) -> int:
    """Peak bytes ``call()`` allocates beyond what was live before it, also
    when tracing was already on (``python -X tracemalloc``)."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def top20(graph) -> list[int]:
    return sorted(range(graph.node_count), key=lambda i: (-graph.degree[i], i))[:20]


def greedy_peak(graph) -> int:
    protected = top20(graph)
    return traced_peak(lambda: greedy_fragile(graph, protected, 100))


def parse_peak(graph) -> int:
    text = emit_edge_list(graph)
    return traced_peak(lambda: parse_edge_list(text))


def file_load_peak(graph, path) -> int:
    """The peak of loading ``graph``'s edge list from a file, opened as the
    command-line interface opens it."""
    path.write_text(emit_edge_list(graph), encoding="utf-8")

    def load():
        with open(path, encoding="utf-8-sig") as fh:
            parse_edge_list(fh)
    return traced_peak(load)


def no_strike_peak(graph) -> int:
    """The peak of resolving the 20 hubs' labels against ``graph``."""
    text = "".join(graph.labels[i] + "\n" for i in top20(graph))
    return traced_peak(lambda: parse_no_strike(text, graph))


def lp_family_peak(graph, out_dir) -> int:
    model = build_fragility_ip(graph, k=10)
    paths = [Path(out_dir, f"model_i{i}.lp") for i in range(1, 11)]
    return traced_peak(lambda: write_lp_family(model, paths))


def sweep_peak(graph) -> int:
    """The parent's peak while two forked workers run the betweenness sweep
    (the workers are other processes, which ``tracemalloc`` does not see)."""
    affinity = os.sched_getaffinity
    os.sched_getaffinity = lambda pid: {0, 1}
    try:
        return traced_peak(lambda: betweenness_scores(graph))
    finally:
        os.sched_getaffinity = affinity


def test_greedy_peak(large):
    # per-degree counts, not sets of ids, one int per heap entry, and heap
    # entries only for the degree levels the rounds reach
    assert greedy_peak(large) < 0.75 * MB


def test_parse_peak(large):
    # the label dict is gone and the label graph holds no per-node lists
    # when the neighbour lists are finished
    assert parse_peak(large) < 6.25 * MB


def test_file_load_peak(large, tmp_path):
    # the file is read in 16 KiB blocks, not into one string of 1.3 MB
    assert file_load_peak(large, tmp_path / "g.txt") < 6.5 * MB


def test_no_strike_peak(large):
    # only the list's own labels are kept, not a dict over every node
    assert no_strike_peak(large) < 0.1 * MB


def test_lp_family_peak(mid, tmp_path):
    # each head is written as it is wrapped and the body is copied from the
    # first file, so the peak stays below the 1.63 MB body itself
    assert lp_family_peak(mid, tmp_path) < 1.5 * MB


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the sweep forks only where CPU affinity is known")
def test_sweep_parent_peak(mid, monkeypatch):
    # each result is read from its worker's pipe when it is added
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    assert sweep_peak(mid) < 0.5 * MB
    assert len(forks) == 2


if __name__ == "__main__":
    # every peak on one line, for a report; the tests above hold the bounds
    g = generate_synthetic(*LARGE)
    with tempfile.TemporaryDirectory() as tmp:
        line = (f"traced peaks, Python {sys.version.split()[0]}: "
                f"parser {parse_peak(g) / MB:.2f} MB, "
                f"file load {file_load_peak(g, Path(tmp, 'g.txt')) / MB:.2f} MB, "
                f"no-strike {no_strike_peak(g) / MB:.3f} MB, "
                f"greedy {greedy_peak(g) / MB:.2f} MB")
    del g
    g = generate_synthetic(*MID)
    with tempfile.TemporaryDirectory() as tmp:
        line += f", LP family {lp_family_peak(g, tmp) / MB:.2f} MB"
    if hasattr(os, "sched_getaffinity"):
        line += f", sweep parent {sweep_peak(g) / MB:.2f} MB"
    print(line)
