"""Peak traced memory of the greedy and of the edge-list parser.

Both run on the benchmark's greedy_large size, a 20,000-node/97,800-edge
scale-free graph.  ``tracemalloc`` counts every block the call allocates, so
the peaks are deterministic for one Python version.  Each bound sits between
the peak with per-degree sets of ids, tuple heap entries and a label graph
of empty lists, and the peak without them (Python 3.11): greedy 5.36 MB
then 1.48 MB, parser 6.80 MB then 5.71 MB.  Run as a script, this file
prints both peaks without checking them.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from fragility import (emit_edge_list, generate_synthetic, greedy_fragile,
                       parse_edge_list)

MB = 1e6
LARGE = ("scale-free", 20000, 97800, 1)  # the benchmark's greedy_large graph


@pytest.fixture(scope="module")
def large():
    return generate_synthetic(*LARGE)


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


def greedy_peak(graph) -> int:
    top20 = sorted(range(graph.node_count),
                   key=lambda i: (-graph.degree[i], i))[:20]
    return traced_peak(lambda: greedy_fragile(graph, top20, 100))


def parse_peak(graph) -> int:
    text = emit_edge_list(graph)
    return traced_peak(lambda: parse_edge_list(text))


def test_greedy_peak(large):
    # per-degree counts, not sets of ids, and one int per heap entry
    assert greedy_peak(large) < 3.0 * MB


def test_parse_peak(large):
    # the label dict is gone and the label graph holds no per-node lists
    # when the neighbour lists are finished
    assert parse_peak(large) < 6.25 * MB


if __name__ == "__main__":
    # both peaks on one line, for a report; the tests above hold the bounds
    g = generate_synthetic(*LARGE)
    print(f"traced peaks, Python {sys.version.split()[0]}: "
          f"parser {parse_peak(g) / MB:.2f} MB, greedy {greedy_peak(g) / MB:.2f} MB")
