"""Spans around calls into the program, recorded from outside it.

:func:`instrument` swaps each public function of the package (the names in
``fragility.__all__``), the two classes whose construction is a layer's work
and the private ``harness._ranking_curve``, for a wrapper that records a
span: a name ``<module>.<function>``, a start, an end and the enclosing span.  The swap is made in every module
namespace of the package, and in the dicts held there, so calls between the
program's own modules are seen too.  A generator function gets one span per
item it yields.  Spans stay in flat arrays in memory and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict
from collections.abc import Callable

# Classes whose construction is work worth a span of its own: the graph
# built from parsed edges and the greedy's degree tracker.
WORK_CLASSES = ("Graph", "DegreeTracker")
# Private boundaries the per-layer table needs; skipped when absent.
PRIVATE = (("harness", "_ranking_curve"),)
RANKERS = ("baselines.betweenness_ranking", "baselines.closeness_ranking",
           "baselines.degree_ranking")
STEP = "solvers.iter_greedy_steps"


class Tracer:
    """Spans of one traced round; ids index the parallel arrays."""

    __slots__ = ("names", "_index", "name", "parent", "start", "end", "_stack")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = self._intern(name)
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def to_json(self) -> str:
        t0 = self.start[0] if self.start else 0.0
        return json.dumps({
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
        })


def write(tracers: list[Tracer], path) -> None:
    """One JSON line per traced round, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for tr in tracers:
            fh.write(tr.to_json() + "\n")


def _wrap_call(tracer: Tracer, fn, name: str):
    # Tracer.call inlined: this runs once per span, 850k times a round on
    # exact_small
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)
    return traced


def _wrap_steps(tracer: Tracer, fn, name: str):
    """One span per yielded item; the call that finds the generator
    exhausted is recorded as ``<name>.stop``."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            sid = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.close(sid)
                tracer.name[sid] = tracer._intern(name + ".stop")
                return
            except BaseException:
                tracer.close(sid)
                raise
            tracer.close(sid)
            yield item
    return traced


def instrument(tracer: Tracer, package) -> Callable[[], None]:
    """Route the package's public calls through ``tracer``; return the undo."""
    wrappers = {}
    targets = [(name, getattr(package, name)) for name in package.__all__]
    for layer, name in PRIVATE:
        module = sys.modules.get(f"{package.__name__}.{layer}")
        if module is not None and hasattr(module, name):
            targets.append((name, getattr(module, name)))
    for name, obj in targets:
        if not (inspect.isfunction(obj) or
                (inspect.isclass(obj) and name in WORK_CLASSES)):
            continue
        span = f"{obj.__module__.rsplit('.', 1)[-1]}.{name}"
        wrap = _wrap_steps if inspect.isgeneratorfunction(obj) else _wrap_call
        wrappers[id(obj)] = (obj, wrap(tracer, obj, span))
    undo = []

    def swap(container: dict) -> None:
        for key, value in list(container.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                container[key] = hit[1]
                undo.append((container, key, value))

    prefix = package.__name__ + "."
    for modname, module in list(sys.modules.items()):
        if modname == package.__name__ or modname.startswith(prefix):
            namespace = vars(module)
            swap(namespace)
            for value in list(namespace.values()):
                if isinstance(value, dict) and value is not namespace:
                    swap(value)

    def restore() -> None:
        for container, key, value in reversed(undo):
            container[key] = value
    return restore


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round: a median per call where the
    layer is called many times, a sum where its calls add up to one job,
    and 0 where the round never enters the layer."""
    names = tracer.names
    kind = [names[i] for i in tracer.name]
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * len(dur)
    for sid, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[sid]
    own = [d - c for d, c in zip(dur, child)]
    by_name = defaultdict(list)
    for sid, k in enumerate(kind):
        by_name[k].append(sid)

    def ancestors(sid: int):
        p = tracer.parent[sid]
        while p >= 0:
            yield p
            p = tracer.parent[p]

    # time under run_curves and _ranking_curve spent in rankers and greedy
    excluded = defaultdict(float)
    for k in (*RANKERS, STEP):
        for sid in by_name[k]:
            for a in ancestors(sid):
                excluded[a] += dur[sid]
    rounds = [own[s] * 1e3 for s in by_name[STEP]]
    return {
        "io.parse_edge_list_s": _median([own[s] for s in by_name["io.parse_edge_list"]]),
        "graph.build_s": _median([dur[s] for s in by_name["graph.Graph"]
                                  if kind[tracer.parent[s]] == "io.parse_edge_list"]),
        "graph.fragile_us": _median([dur[s] * 1e6 for s in by_name["graph.fragile"]]),
        "solvers.tracker_init_ms": _median([dur[s] * 1e3 for s in
                                            by_name["solvers.DegreeTracker"]]),
        "solvers.greedy_round_ms": _median(rounds),
        "solvers.greedy_round_p90_ms": _p90(rounds),
        "solvers.exact_s": sum(dur[s] for s in by_name["solvers.exact_opt"]
                               if not any(kind[a] == "solvers.fragility_decision"
                                          for a in ancestors(s))),
        "solvers.decision_s": sum(dur[s] for s in
                                  by_name["solvers.fragility_decision"]),
        "baselines.betweenness_s": sum(dur[s] for s in
                                       by_name["baselines.betweenness_ranking"]),
        "baselines.closeness_s": sum(dur[s] for s in
                                     by_name["baselines.closeness_ranking"]),
        "harness.run_curves_s": sum(dur[s] - excluded[s]
                                    for s in by_name["harness.run_curves"]),
        "harness.ranking_curve_s": sum(dur[s] - excluded[s]
                                       for s in by_name["harness._ranking_curve"]),
        "ip_model.build_ms": 1e3 * sum(dur[s] for s in
                                       by_name["ip_model.build_fragility_ip"]),
        "ip_model.emit_lp_s": _median([dur[s] for s in by_name["ip_model.emit_lp"]]),
        "ip_model.check_feasible_s": _median([dur[s] for s in
                                              by_name["ip_model.check_feasible"]]),
        "cli.self_s": sum(own[s] for s in by_name["cli.main"]),
    }
