"""Checks of the program's outputs against the reference results.

Each check takes the decoded output of one command and raises
:class:`Mismatch` on the first disagreement.  Scores are compared as exact
floats wherever the program divides two integers, since that division is
correctly rounded on both sides; values the program derives in further
float steps are compared within float rounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import lpread, reference
from .gen import Instance, label


class Mismatch(Exception):
    """An output disagrees with the reference."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _ids(inst: Instance, labels) -> list[int]:
    out = []
    for lab in labels:
        _expect(isinstance(lab, str) and lab[:1] == "n" and lab[1:].isdigit()
                and int(lab[1:]) < inst.n, f"unknown label {lab!r}")
        out.append(int(lab[1:]))
    return out


def _same_float(got, want: Fraction, what: str) -> None:
    _expect(isinstance(got, float) and got == float(want),
            f"{what} is {got!r}, reference {float(want)!r}")


def centrality(inst: Instance, payload: dict) -> None:
    _same_float(payload.get("centrality"), reference.score_after(inst.adj, ()),
                "centrality")


def greedy(inst: Instance, payload: dict, k: int, seed: int,
           sample: int) -> None:
    """Removed labels, the whole trace, and the choice made at ``sample``
    rounds drawn with ``seed``."""
    removed = _ids(inst, payload["removed"])
    _expect(len(removed) == k, f"{len(removed)} removals, budget {k}")
    _expect(len(set(removed)) == k, "a node is removed twice")
    hit = sorted(set(removed) & inst.protected)
    _expect(not hit, f"protected nodes removed: {[label(i) for i in hit]}")
    trace = payload["trace"]
    _expect(len(trace) == k + 1, f"trace has {len(trace)} entries, want {k + 1}")
    _same_float(payload["baseline_fragility"], reference.score_after(inst.adj, ()),
                "baseline_fragility")
    _expect(payload["final_fragility"] == trace[-1], "final_fragility != trace[-1]")
    rounds = set(random.Random(seed).sample(range(k), min(sample, k)))
    state = reference.Removal(inst.adj)
    for j, node in enumerate(removed):
        _same_float(trace[j], state.value(), f"trace[{j}]")
        if j in rounds:
            best = state.best_candidate(inst.protected)
            _expect(best is not None and best[0] == node,
                    f"round {j}: chose {label(node)}, reference "
                    f"{label(best[0]) if best else None}")
        state.remove(node)
    _same_float(trace[k], state.value(), f"trace[{k}]")
    for j in range(k):
        _expect(trace[j + 1] >= trace[j], f"trace falls at step {j + 1}")


def exact(inst: Instance, payload: dict, best: tuple[int, ...],
          value: Fraction) -> None:
    got = _ids(inst, payload["removed"])
    _expect(tuple(got) == best, f"removed {payload['removed']}, reference "
            f"{[label(i) for i in best]}")
    _same_float(payload["final_fragility"], value, "final_fragility")
    trace = payload["trace"]
    _expect(len(trace) == len(best) + 1, "trace length")
    for j in range(len(best) + 1):
        _same_float(trace[j], reference.score_after(inst.adj, best[:j]),
                    f"trace[{j}]")


def decision(payload: dict, optimum: Fraction, x: float) -> None:
    want = optimum > Fraction(x)
    _expect(payload.get("decision") is want,
            f"decision {payload.get('decision')!r}, reference {want}")


@dataclass(frozen=True)
class CurveReference:
    """The curve's budgets and, per strategy, the score after each prefix
    of the reference removal order."""

    budgets: tuple[int, ...]
    scores: dict[str, list[Fraction]]


def curve_reference(inst: Instance, max_fraction_pct: int) -> CurveReference:
    depth = inst.n * max_fraction_pct // 100
    orders = {
        "betweenness": reference.betweenness_order(inst.adj, inst.protected, depth),
        "closeness": reference.closeness_order(inst.adj, inst.protected),
        "degree": reference.degree_order(inst.adj, inst.protected),
        "greedy": reference.greedy(inst.adj, inst.protected, depth),
    }
    return CurveReference(
        tuple(range(1, depth + 1)),
        {s: reference.prefix_scores(inst.adj, o[:depth]) for s, o in orders.items()})


def curve(inst: Instance, payload: dict, ref: CurveReference) -> None:
    """Every row but its wall time, in the program's row order."""
    points = payload["points"]
    want = [(s, min(b, len(ref.scores[s]) - 1))
            for s in sorted(ref.scores) for b in ref.budgets]
    _expect(len(points) == len(want), f"{len(points)} rows, want {len(want)}")
    base = ref.scores["degree"][0]
    for p, (strategy, count) in zip(points, want):
        where = f"{strategy} at {count}"
        _expect((p["strategy"], p["nodes_removed"]) == (strategy, count),
                f"row {p['strategy']} {p['nodes_removed']}, want {where}")
        frag = ref.scores[strategy][count]
        _same_float(p["fragility"], frag, f"fragility of {where}")
        _expect(p["fraction_removed"] == count / inst.n,
                f"fraction_removed of {where}")
        _expect(math.isclose(p["percent_increase"], 100 * (frag - base) / base,
                             rel_tol=1e-9, abs_tol=1e-9),
                f"percent_increase of {where}")


def _canonical_values(names: set[str], removed: set[int],
                      inst: Instance) -> dict[str, int]:
    """0/1 values that encode deleting ``removed``: the designated survivor
    is the highest-degree survivor (lowest id on ties) and counts each of its
    surviving edges once."""
    deg = {i: len(inst.adj[i] - removed) for i in range(inst.n) if i not in removed}
    chosen = min(deg, key=lambda i: (-deg[i], i))
    values = {}
    for var in names:
        kind, *ends = var.split("_")
        ids = [int(e[1:]) for e in ends]
        if kind == "X":
            values[var] = int(ids[0] in removed)
        elif kind == "Z":
            values[var] = int(ids[0] == chosen)
        else:
            alive = not removed & set(ids)
            values[var] = int(alive and (kind == "Y" or
                                         (kind == "Qf" and ids[0] == chosen) or
                                         (kind == "Qb" and ids[1] == chosen)))
    return values


def lp_model(inst: Instance, text: str, i: int, prefix: list[int]) -> None:
    """Size, feasibility of the greedy prefix of size ``i``, and objective."""
    try:
        model = lpread.parse(text)
    except lpread.LpError as exc:
        raise Mismatch(f"model i={i}: {exc}") from None
    n, m = inst.n, inst.m
    n_vars, n_cons = 2 * n + 3 * m, 2 + 2 * n + 5 * m
    _expect(f"variables={n_vars} constraints={n_cons}" in model.comments,
            f"model i={i}: header counts differ from {n_vars}/{n_cons}")
    names = model.variables()
    _expect(len(names) == n_vars,
            f"model i={i}: {len(names)} variables, want {n_vars}")
    node_domains = (sum(v[0] in "XZ" for v in model.binary) +
                    sum(v[0] in "XZ" for v in model.bounds))
    _expect(len(model.rows) + node_domains == n_cons,
            f"model i={i}: {len(model.rows)} rows + {node_domains} node "
            f"domains, want {n_cons}")
    _expect(model.sense == "maximize", f"model i={i}: not a maximization")
    removed = set(prefix[:i])
    try:
        broken, objective = lpread.evaluate(
            model, _canonical_values(names, removed, inst))
    except lpread.LpError as exc:
        raise Mismatch(f"model i={i}: {exc}") from None
    _expect(not broken, f"model i={i}: greedy prefix violates {broken[:3]}")
    want = reference.score_after(inst.adj, removed)
    _expect(math.isclose(objective, want, rel_tol=1e-9, abs_tol=1e-12),
            f"model i={i}: objective {float(objective)!r}, score {float(want)!r}")
