"""Spans recorded around the program's public calls, and the undo."""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout

import pytest

from perfbench import gen, trace
from perfbench.run import SRC

sys.path.insert(0, str(SRC))
import fragility  # noqa: E402
from fragility import cli, harness, io as fio, solvers  # noqa: E402


@pytest.fixture(scope="module")
def graph(tmp_path_factory):
    inst = gen.make_instance(80, 230, 3, protect_top=2)
    return gen.write_instance(inst, tmp_path_factory.mktemp("inst"))


def traced(argv) -> trace.Tracer:
    tracer = trace.Tracer()
    restore = trace.instrument(tracer, fragility)
    try:
        with redirect_stdout(io.StringIO()):
            assert tracer.call("cli.main", cli.main, [str(a) for a in argv]) == 0
    finally:
        restore()
    return tracer


def test_instrument_is_undone():
    originals = (fio.parse_edge_list, solvers.fragile, solvers.DegreeTracker,
                 harness._RANKERS["betweenness"], harness._ranking_curve)
    tracer = trace.Tracer()
    restore = trace.instrument(tracer, fragility)
    assert solvers.fragile is not originals[1]
    assert harness._RANKERS["betweenness"] is not originals[3]
    restore()
    assert (fio.parse_edge_list, solvers.fragile, solvers.DegreeTracker,
            harness._RANKERS["betweenness"], harness._ranking_curve) == originals


def test_greedy_spans(graph):
    path, protected = graph
    tracer = traced(["greedy", "--graph", path, "--no-strike", protected,
                     "--k", 7, "--format", "json"])
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "cli.main"
    assert names.count("solvers.iter_greedy_steps") == 7
    assert names.count("solvers.DegreeTracker") == 1
    parse = names.index("io.parse_edge_list")
    build = names.index("graph.Graph")
    assert tracer.parent[build] == parse
    assert all(tracer.end[s] >= tracer.start[s] for s in range(len(names)))
    figures = trace.layer_metrics(tracer)
    assert figures["solvers.greedy_round_ms"] > 0
    assert figures["solvers.greedy_round_p90_ms"] >= figures["solvers.greedy_round_ms"]
    assert figures["io.parse_edge_list_s"] > 0 and figures["graph.build_s"] > 0
    assert figures["solvers.exact_s"] == 0 and figures["baselines.betweenness_s"] == 0
    assert 0 < figures["cli.self_s"] < tracer.end[0] - tracer.start[0]


def test_curve_spans_exclude_rankers_and_greedy(graph):
    path, _ = graph
    tracer = traced(["curve", "--graph", path, "--format", "json"])
    figures = trace.layer_metrics(tracer)
    names = [tracer.names[i] for i in tracer.name]
    run = names.index("harness.run_curves")
    whole = tracer.end[run] - tracer.start[run]
    assert names.count("harness._ranking_curve") == 3
    assert figures["baselines.betweenness_s"] > 0 and figures["baselines.closeness_s"] > 0
    assert 0 < figures["harness.ranking_curve_s"] <= figures["harness.run_curves_s"] < whole


def test_exact_inside_decision_counts_as_decision(graph):
    path, _ = graph
    tracer = traced(["decision", "--graph", path, "--k", 1, "--x", "0.5",
                     "--format", "json"])
    figures = trace.layer_metrics(tracer)
    assert figures["solvers.decision_s"] > 0
    assert figures["solvers.exact_s"] == 0
    assert figures["graph.fragile_us"] > 0


def test_written_trace_round_trips(tmp_path, graph):
    import gzip
    import json
    path, _ = graph
    tracer = traced(["centrality", "--graph", path, "--format", "json"])
    trace.write([tracer, tracer], tmp_path / "t.jsonl.gz")
    with gzip.open(tmp_path / "t.jsonl.gz", "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 2
    assert rows[0]["names"] == tracer.names
    assert rows[0]["parent"] == list(tracer.parent)
