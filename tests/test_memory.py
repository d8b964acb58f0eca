"""Peak traced memory of the greedy and of the edge-list parser.

Both run on the benchmark's greedy_large size, a 20,000-node/97,800-edge
scale-free graph.  ``tracemalloc`` counts every block the call allocates, so
the peaks are deterministic for one Python version.  Each bound sits between
the peak with per-degree sets of ids, tuple heap entries and a label graph
of empty lists, and the peak without them (Python 3.11): greedy 5.36 MB
then 1.48 MB, parser 6.80 MB then 5.71 MB.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from fragility import (emit_edge_list, generate_synthetic, greedy_fragile,
                       parse_edge_list)

MB = 1e6


@pytest.fixture(scope="module")
def large():
    return generate_synthetic("scale-free", 20000, 97800, seed=1)


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


def test_greedy_peak(large):
    top20 = sorted(range(large.node_count),
                   key=lambda i: (-large.degree[i], i))[:20]
    # per-degree counts, not sets of ids, and one int per heap entry
    assert traced_peak(lambda: greedy_fragile(large, top20, 100)) < 3.0 * MB


def test_parse_peak(large):
    text = emit_edge_list(large)
    # the label dict is gone and the label graph holds no per-node lists
    # when the neighbour lists are finished
    assert traced_peak(lambda: parse_edge_list(text)) < 6.25 * MB
