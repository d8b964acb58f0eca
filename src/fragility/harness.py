"""Experiment harness: removal curves, runtime benchmarks, synthetic graphs.

A curve sweeps removal budgets for one or more strategies and records, per
budget, the surviving network's fragility and its percent increase over the
untouched graph.  Each strategy first makes one list of steps up to the
largest budget: the fragility after each removal and the seconds that point
reports.  The greedy runs once and stamps each step with its elapsed time; a
ranking scores the graph once, walks its fixed order on a degree tracker and
stamps every step with the ranking's time.  One budget loop then reads every
point from the list: budget ``b`` takes ``min(b, len(steps))`` removals, the
untouched graph when that is none, and the whole run's time when the run
stopped short of ``b``.

``run_curves`` checks its strategies, fraction and step before any strategy
runs; ``_strategies`` is the one check of strategy names.  ``CurvePoint`` is
a named tuple, so loading the harness does not load ``dataclasses``.
"""

from __future__ import annotations

import csv
import io as _stdio
import math
import random
import statistics
import time
from collections import namedtuple
from collections.abc import Collection, Iterable

from .baselines import _RANKERS
from .defaults import DEFAULT_MAX_FRACTION, STRATEGIES
from .graph import Graph, _node_set, network_degree_centrality
from .solvers import DegreeTracker, greedy_fragile, iter_greedy_steps

CSV_HEADER = "strategy,nodes_removed,fraction_removed,fragility,percent_increase,wall_time_s"
BENCH_COLUMNS = ("strategy", "budget", "median_wall_time_s")
BENCH_ROW = "{},{},{:.6f}"  # one CSV row of BENCH_COLUMNS: seconds to 6 places


class InfeasibleDensityError(ValueError):
    """The requested (n, m) combination cannot be generated."""

    exit_status = 2  # the ``fragility`` command's code for this error


class ZeroBaselineError(ValueError):
    """The untouched graph's fragility is zero, so percent change is undefined."""

    exit_status = 2


CurvePoint = namedtuple("CurvePoint", ("strategy", "nodes_removed", "fraction_removed",
                                       "fragility", "percent_increase", "wall_time"))


def _strategies(names: Iterable[str]) -> tuple[str, ...]:
    """The distinct ``names`` in the order first named; an unknown one raises."""
    names = tuple(dict.fromkeys(names))
    for s in names:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    return names


def run_curves(graph: Graph, no_strike: Collection[int] | None,
               strategies: Iterable[str] = STRATEGIES,
               max_fraction: float = DEFAULT_MAX_FRACTION,
               step: int = 1) -> list[CurvePoint]:
    """Removal curves for each strategy at budgets ``step, 2*step, ...`` up to
    ``max_fraction`` of the nodes.

    The strategies, the fraction (in (0, 1]) and the step (at least 1) are
    checked before any strategy runs.  The untouched graph's fragility is the
    baseline for percent increases and must be positive (degree-regular
    graphs have no meaningful percent change).  Points come back sorted by
    (strategy, nodes_removed), each strategy once however often it is named.
    """
    strategies = _strategies(strategies)
    if not (0.0 < max_fraction <= 1.0):
        raise ValueError("max_fraction must lie in (0, 1]")
    if step < 1:
        raise ValueError("step must be at least 1")
    ns = _node_set(graph.node_count, no_strike)
    base = network_degree_centrality(graph)
    if base <= 0.0:
        raise ZeroBaselineError(
            "baseline fragility is zero; percent increase is undefined on "
            "degree-regular graphs")
    budgets = range(step, int(max_fraction * graph.node_count + 1e-9) + 1, step)
    if not budgets:
        return []
    points: list[CurvePoint] = []
    for strategy in sorted(strategies):
        if strategy == "greedy":
            t0 = time.perf_counter()
            steps = [(frag, time.perf_counter() - t0)
                     for _, frag in iter_greedy_steps(graph, ns, budgets[-1])]
            total = time.perf_counter() - t0
        else:
            steps, total = _ranking_curve(graph, ns, strategy, budgets[-1])
        for b in budgets:
            taken = min(b, len(steps))
            frag = steps[taken - 1][0] if taken else base
            # a budget the run stopped short of needed the whole run
            elapsed = steps[b - 1][1] if taken == b else total
            points.append(CurvePoint(strategy, taken, taken / graph.node_count,
                                     frag, 100.0 * (frag - base) / base, elapsed))
    return points


def _ranking_curve(graph: Graph, no_strike, strategy: str,
                   limit: int) -> tuple[list[tuple[float, float]], float]:
    """Steps ``(fragility, seconds)`` of the first ``limit`` ranked removals.

    Every step, and the returned total, carries the ranking's own time.
    """
    t0 = time.perf_counter()
    order = _RANKERS[strategy](graph, no_strike)
    ranking_time = time.perf_counter() - t0
    tracker = DegreeTracker(graph)
    steps = []
    for i in order[:limit]:
        tracker.remove(i)
        steps.append((tracker.centrality(), ranking_time))
    return steps, ranking_time


def benchmark_runtime(graph: Graph, no_strike: Collection[int] | None,
                      strategy: str, budgets: Collection[int],
                      repeats: int = 3) -> list[tuple[int, float]]:
    """Median wall time of a full strategy run at each budget.

    Ranking strategies re-rank on every run, which is exactly why their
    measured time barely moves with the budget.
    """
    _strategies((strategy,))
    results = []
    for b in sorted(set(budgets)):
        if b < 0:
            raise ValueError("budgets must be non-negative")
        times = []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            if strategy == "greedy":
                greedy_fragile(graph, no_strike, b)
            else:
                _RANKERS[strategy](graph, no_strike)[:b]
            times.append(time.perf_counter() - t0)
        results.append((b, statistics.median(times)))
    return results


# ----- CSV -----------------------------------------------------------------

def emit_csv(points: Collection[CurvePoint]) -> str:
    """Serialize curve points as CSV, 6-decimal floats, deterministic order."""
    rows = sorted(points, key=lambda p: (p.strategy, p.nodes_removed))
    lines = [CSV_HEADER]
    for p in rows:
        lines.append(f"{p.strategy},{p.nodes_removed},{p.fraction_removed:.6f},"
                     f"{p.fragility:.6f},{p.percent_increase:.6f},{p.wall_time:.6f}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[CurvePoint]:
    """Parse curve CSV back into points (at the emitted precision)."""
    reader = csv.reader(_stdio.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header: {','.join(header)!r}")
    points = []
    for row in reader:
        if not row:
            continue
        if len(row) != 6:
            raise ValueError(f"expected 6 fields, got {len(row)}: {row!r}")
        points.append(CurvePoint(row[0], int(row[1]), float(row[2]),
                                 float(row[3]), float(row[4]), float(row[5])))
    return points


# ----- synthetic graphs ----------------------------------------------------

def generate_synthetic(kind: str, n: int, m_target: int | None = None,
                       seed: int = 0) -> Graph:
    """Deterministic synthetic graph families for experiments.

    ``scale-free`` grows by preferential attachment with per-node edge counts
    steered so the final edge count lands on ``m_target`` (within 5%).
    ``random`` samples exactly ``m_target`` distinct pairs uniformly.
    ``star-of-stars`` nests stars: a root hub, satellite hubs, leaves; its
    edge count is structural, so ``m_target`` is optional and only validated.
    Identical inputs always produce the identical graph.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    if kind == "scale-free":
        return _scale_free(n, m_target, rng)
    if kind == "random":
        return _uniform_random(n, m_target, rng)
    if kind == "star-of-stars":
        return _star_of_stars(n, m_target)
    raise ValueError(f"unknown synthetic kind {kind!r}")


def _require_m(m_target: int | None) -> int:
    if m_target is None:
        raise ValueError("this synthetic kind requires a target edge count")
    if m_target < 0:
        raise ValueError("target edge count must be non-negative")
    return m_target


def _scale_free(n: int, m_target: int | None, rng: random.Random) -> Graph:
    m_target = _require_m(m_target)
    if n < 3:
        raise ValueError("scale-free generation needs at least 3 nodes")
    max_edges = n * (n - 1) // 2
    if not (0.95 * (n - 1) <= m_target <= max_edges):
        raise InfeasibleDensityError(
            f"infeasible density: {m_target} edges for {n} nodes (need about "
            f"{n - 1}..{max_edges})")
    mu = m_target / n
    seed_size = min(n, max(2, math.ceil(mu) + 1))
    edges: list[tuple[int, int]] = [(0, i) for i in range(1, seed_size)]
    # `ends` holds each edge endpoint once, so sampling it is degree-weighted.
    ends: list[int] = [e for uv in edges for e in uv]
    for newcomer in range(seed_size, n):
        want_total = round(m_target * (newcomer + 1) / n)
        count = max(1, min(newcomer, want_total - len(edges)))
        chosen: set[int] = set()
        tries = 0
        while len(chosen) < count:
            tries += 1
            if tries > 60 * count:
                for cand in range(newcomer):  # rare dense corner: fill directly
                    if cand not in chosen:
                        chosen.add(cand)
                        if len(chosen) == count:
                            break
                break
            cand = ends[rng.randrange(len(ends))]
            if cand != newcomer and cand not in chosen:
                chosen.add(cand)
        for cand in sorted(chosen):
            edges.append((cand, newcomer))
            ends.append(cand)
            ends.append(newcomer)
    graph = Graph(n, edges)
    if abs(graph.edge_count - m_target) > 0.05 * m_target:
        raise InfeasibleDensityError(
            f"generation landed at {graph.edge_count} edges, more than 5% from "
            f"target {m_target}")
    return graph


def _uniform_random(n: int, m_target: int | None, rng: random.Random) -> Graph:
    m_target = _require_m(m_target)
    max_edges = n * (n - 1) // 2
    if m_target > max_edges:
        raise InfeasibleDensityError(f"infeasible density: {m_target} > {max_edges}")
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m_target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        chosen.add((u, v) if u < v else (v, u))
    return Graph(n, chosen)


def _star_of_stars(n: int, m_target: int | None) -> Graph:
    hubs = max(1, round(math.sqrt(n)))
    edges = [(0, h) for h in range(1, hubs)]
    for leaf in range(hubs, n):
        edges.append(((leaf - hubs) % hubs, leaf))
    graph = Graph(n, edges)
    if m_target is not None:
        if abs(graph.edge_count - _require_m(m_target)) > 0.05 * m_target:
            raise InfeasibleDensityError(
                f"infeasible density: star-of-stars on {n} nodes has "
                f"{graph.edge_count} edges, more than 5% from {m_target}")
    return graph
