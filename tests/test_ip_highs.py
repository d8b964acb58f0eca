"""The emitted binary program solved by a real MILP solver.

Each linearized model ``linearize(build_fragility_ip(g, ns, k), i)`` is
turned row by row into a ``scipy.optimize.milp`` problem (HiGHS), with one
extra row ``sum X >= i`` so that exactly ``i`` nodes are removed.  The best
over ``i`` (with the untouched graph for ``i = 0``) must equal the optimum
of ``exact_opt``.  scipy is not a dependency of the package, so the module
is skipped without it.  Two of the scale-free "desk" graphs at the 12%
budget, far past what the score-every-subset oracle can scan, check the
branch and bound and the greedy's gap to the optimum; a third, 105/590,
is collected only when the environment variable ``FRAGILITY_SLOW_HIGHS``
is set, as HiGHS takes about 16 s on it.  No test is skipped without it,
so a run that reports a skip still means scipy is missing.  The
constraint matrix is sparse: each row holds a few of the model's
thousands of variables.
"""

from __future__ import annotations

import os
import random

import pytest

from fragility import (DEFAULT_WORK_LIMIT, Graph, build_fragility_ip,
                       complete_graph, cycle_graph, exact_opt, fragile,
                       generate_synthetic, greedy_fragile, linearize,
                       path_graph, star_graph)
from fragility.ip_model import Row

from conftest import random_graph_edges

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")
np = pytest.importorskip("numpy")


def _solve_at(model, i: int) -> tuple[tuple[int, ...], float] | None:
    """Removal set and objective value of the model at removal count ``i``,
    or None when no set of exactly ``i`` targetable nodes exists."""
    model = linearize(model, i)
    names = model.variable_names()
    col = {name: pos for pos, name in enumerate(names)}
    rows = list(model.rows())
    rows.append(Row("at_least_i",
                    tuple((1.0, model.x_name(j)) for j in range(model.n_nodes)),
                    ">=", float(i)))
    # the matrix in coordinate form; repeated (row, column) pairs are summed
    coefs, row_ids, col_ids = [], [], []
    lower = np.full(len(rows), -np.inf)
    upper = np.full(len(rows), np.inf)
    for r, row in enumerate(rows):
        for coef, var in row.terms:
            coefs.append(coef)
            row_ids.append(r)
            col_ids.append(col[var])
        if row.sense in ("<=", "="):
            upper[r] = row.rhs
        if row.sense in (">=", "="):
            lower[r] = row.rhs
    # LP-format semantics: binaries in [0, 1], every other variable in [0, inf)
    binary = {d.var for d in model.domains() if d.kind == "binary"}
    for e in model.edges:
        binary.update((model.y_name(e), model.qf_name(e), model.qb_name(e)))
    integrality = np.array([1 if name in binary else 0 for name in names])
    ub = np.array([1.0 if name in binary else np.inf for name in names])
    # maximize (N - i) * sum Q - 2 * sum Y; the positive scale does not move
    # the optimum
    c = np.zeros(len(names))
    for e in model.edges:
        c[col[model.qf_name(e)]] -= model.n_nodes - i
        c[col[model.qb_name(e)]] -= model.n_nodes - i
        c[col[model.y_name(e)]] += 2
    a = sparse.csr_array((coefs, (row_ids, col_ids)),
                         shape=(len(rows), len(names)))
    res = optimize.milp(c, integrality=integrality,
                        bounds=optimize.Bounds(np.zeros(len(names)), ub),
                        constraints=optimize.LinearConstraint(a, lower, upper),
                        options={"mip_rel_gap": 0.0})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    removed = tuple(j for j in range(model.n_nodes)
                    if res.x[col[model.x_name(j)]] > 0.5)
    return removed, -res.fun


def _check(graph: Graph, no_strike, k: int,
           work_limit: int = DEFAULT_WORK_LIMIT) -> float:
    """Assert that the best over the family is ``exact_opt``'s; return it."""
    model = build_fragility_ip(graph, no_strike, k)
    pool = graph.node_count - len(set(no_strike))
    best = fragile(graph, ())
    for i in range(1, k + 1):
        solved = _solve_at(model, i)
        if solved is None:
            assert i > pool
            continue
        removed, numerator = solved
        assert len(removed) == i
        assert not set(removed) & set(no_strike)
        n = graph.node_count - i
        if n < 3:
            value = 0.0  # the score's convention; the model is left unscaled
        else:
            value = fragile(graph, removed)
            # the solver's objective is the score of the set it returns
            assert numerator / ((n - 1) * (n - 2)) == pytest.approx(value, abs=1e-9)
        best = max(best, value)
    assert best == exact_opt(graph, no_strike, k, work_limit).final_fragility
    return best


_CASES = [
    ("star6", star_graph(6), (), 4),
    ("star6-hub-protected", star_graph(6), (0,), 4),
    ("cycle7", cycle_graph(7), (), 3),
    ("complete5", complete_graph(5), (1,), 5),
    ("path8", path_graph(8), (), 8),
    ("double-star", Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6),
                              (1, 7)]), (), 3),
    ("disconnected", Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5)]), (6,), 7),
]


@pytest.mark.parametrize("graph, no_strike, k", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_hard_cases_agree_with_exact_opt(graph, no_strike, k):
    _check(graph, no_strike, k)


def test_random_models_agree_with_exact_opt():
    rng = random.Random(0x41D5)
    for _ in range(40):
        n = rng.randint(3, 8)
        g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.2, 0.8)))
        ns = tuple(rng.sample(range(n), rng.randint(0, 2)))
        _check(g, ns, rng.randint(1, n))


_DESKS = [
    pytest.param(57, 162, 7, 0.3248299, 0.3248299, id="desk57"),
    # the greedy falls short of the optimum here
    pytest.param(102, 388, 12, 0.3891726, 0.3894280, id="desk102"),
]
# about 16 s in HiGHS, so collected only when FRAGILITY_SLOW_HIGHS is set
if os.environ.get("FRAGILITY_SLOW_HIGHS"):
    _DESKS.append(pytest.param(105, 590, 12, 0.3399427, 0.3399427, id="desk105"))


@pytest.mark.parametrize("n, m, k, greedy, optimum", _DESKS)
def test_desk_graphs_at_twelve_percent(n, m, k, greedy, optimum):
    g = generate_synthetic("scale-free", n, m, seed=0)
    # the default work limit refuses every desk graph: about 3e8 subsets
    # for 57/162, 1.6e15 and 2.2e15 for the two others
    best = _check(g, (), k, 10**16)
    assert round(best, 7) == optimum
    assert round(max(greedy_fragile(g, (), k).trace), 7) == greedy
