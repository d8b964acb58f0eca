"""End-to-end acceptance gate.

Eight criteria, one test each, every tolerance and time bound stated inline.
Each test records exactly one verdict line of the form ``criterion N: PASS/
FAIL — detail``; the lines are echoed in the terminal summary after the run.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import combinations, product
from time import perf_counter

import conftest
from conftest import (oracle_betweenness, oracle_domains,
                      oracle_evaluate_objective, oracle_fragile,
                      oracle_marginal_gain, oracle_rows, random_graph_edges,
                      var_name)
from test_ip_model import feasible_binary_maximum

from fragility import (Graph, benchmark_runtime,
                       betweenness_scores, build_fragility_ip,
                       canonical_assignment, check_feasible, complete_graph,
                       cycle_graph, emit_csv, emit_edge_list, emit_lp,
                       exact_opt, fragile, generate_synthetic, greedy_fragile,
                       linearize, network_degree_centrality, parse_csv,
                       parse_edge_list, run_curves, star_graph)
from fragility.cli import main as cli_main

PINNED_SEED = 0  # verified: all conditions hold for seeds 0..4
DESK_SIZES = ((57, 162), (102, 388), (105, 590), (135, 556))
EXPECTED_BUDGETS = {57: 6, 102: 12, 105: 12, 135: 16}


@contextmanager
def criterion(num: int):
    note = {"detail": ""}
    try:
        yield note
    except BaseException as exc:  # noqa: BLE001 - verdict line must still appear
        msg = note["detail"] or f"{type(exc).__name__}: {exc}"
        conftest.ACCEPTANCE_LINES.append(f"criterion {num}: FAIL — {msg}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"criterion {num}: PASS — {note['detail']}")


def test_criterion_1_star_and_regular_identities():
    with criterion(1) as note:
        t0 = perf_counter()
        for n in range(2, 51):
            assert abs(network_degree_centrality(star_graph(n)) - 1.0) <= 1e-12
        for n in range(3, 21):
            assert abs(network_degree_centrality(cycle_graph(n))) <= 1e-12
        for n in range(3, 13):
            assert abs(network_degree_centrality(complete_graph(n))) <= 1e-12
        elapsed = perf_counter() - t0
        note["detail"] = (f"stars 1+2..1+50 score 1.0 and 28 regular graphs "
                          f"score 0.0 within 1e-12 in {elapsed:.2f}s")
        assert elapsed < 1.0, f"took {elapsed:.2f}s, bound 1s"


def test_criterion_2_greedy_vs_enumeration_oracle():
    with criterion(2) as note:
        rng = random.Random(0xC2)
        t0 = perf_counter()
        nonempty = 0
        for _ in range(200):
            n = rng.randint(4, 12)
            g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.2, 0.6)))
            ns = frozenset(rng.sample(range(n), rng.randint(0, 2)))
            k = rng.randint(0, 3)
            exact = exact_opt(g, ns, k)
            greedy = greedy_fragile(g, ns, k)
            assert greedy.final_fragility <= exact.final_fragility
            if greedy.removed:
                nonempty += 1
                assert greedy.final_fragility >= fragile(g, ())
            for a, b in zip(greedy.trace, greedy.trace[1:]):
                assert b >= a
        elapsed = perf_counter() - t0
        note["detail"] = (f"200 random instances (N<=12, |S|<=2, k<=3): greedy "
                          f"<= exact, >= baseline on {nonempty} non-empty "
                          f"returns, traces non-decreasing, in {elapsed:.2f}s")
        assert elapsed < 60.0, f"took {elapsed:.2f}s, bound 60s"


def _pruned_binary_maximum(model) -> float:
    """Exhaustive feasible-assignment maximum, pruning only provably
    infeasible points: removal sets beyond the budget or touching protected
    nodes (budget/pin rows), Y differing from edge survival (the per-edge
    cap rows plus the survival lower bound force it), and Q set where its
    caps are zero or summing to 2 (the coupling rows cap Qf+Qb at 1)."""
    n, edges = model.n_nodes, model.edges
    targetable = [i for i in range(n) if i not in model.no_strike]
    best = None
    for r in range(model.k + 1):
        for removed in combinations(targetable, r):
            rem = set(removed)
            ys = {e: 1 if e[0] not in rem and e[1] not in rem else 0
                  for e in edges}
            for z_hot in range(n):
                free = [e for e in edges if ys[e] == 1 and z_hot in e]
                for pattern in product((0, 1, 2), repeat=len(free)):
                    values = {}
                    for i in range(n):
                        values[var_name(model, "X", i)] = 1 if i in rem else 0
                        values[var_name(model, "Z", i)] = 1 if i == z_hot else 0
                    for e in edges:
                        values[var_name(model, "Y", e)] = ys[e]
                        values[var_name(model, "Qf", e)] = 0
                        values[var_name(model, "Qb", e)] = 0
                    for e, pat in zip(free, pattern):
                        values[var_name(model, "Qf", e)] = 1 if pat == 1 else 0
                        values[var_name(model, "Qb", e)] = 1 if pat == 2 else 0
                    if check_feasible(model, values).ok:
                        val = oracle_evaluate_objective(model, values)
                        if best is None or val > best:
                            best = val
    return best


def test_criterion_3_ip_faithfulness():
    with criterion(3) as note:
        rng = random.Random(0xC3)
        t0 = perf_counter()
        # canonical assignments track fragile, and the count identities hold
        for _ in range(50):
            n = rng.randint(3, 8)
            g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.2, 0.8)))
            k = rng.randint(0, n)
            model = build_fragility_ip(g, k=k)
            assert model.variable_count == 2 * n + 3 * g.edge_count
            assert model.constraint_count == 2 + 2 * n + 5 * g.edge_count
            assert (len(oracle_rows(model)) + len(oracle_domains(model))
                    == model.constraint_count)
            for _ in range(3):
                removed = rng.sample(range(n), rng.randint(0, k))
                asg = canonical_assignment(model, removed)
                assert check_feasible(model, asg).ok
                assert abs(oracle_evaluate_objective(model, asg)
                           - fragile(g, removed)) <= 1e-12
        # the pruned sweep agrees with the unpruned product sweep once
        from fragility import path_graph
        small = build_fragility_ip(path_graph(3), k=1)
        assert _pruned_binary_maximum(small) == feasible_binary_maximum(small)
        # brute-force binary maximum equals the enumeration optimum
        matched = 0
        for _ in range(10):
            n = rng.randint(3, 5)
            g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.3, 0.8)))
            ns = frozenset(rng.sample(range(n), rng.randint(0, 1)))
            k = rng.randint(1, 2)
            model = build_fragility_ip(g, no_strike=ns, k=k)
            assert (_pruned_binary_maximum(model)
                    == exact_opt(g, ns, k).final_fragility)
            matched += 1
        elapsed = perf_counter() - t0
        note["detail"] = (f"50 graphs: canonical assignments feasible and equal "
                          f"to direct fragility within 1e-12, counts = 2N+3M / "
                          f"2+2N+5M; binary optimum matches enumeration on "
                          f"{matched} instances, in {elapsed:.2f}s")
        assert elapsed < 120.0, f"took {elapsed:.2f}s, bound 120s"


def test_criterion_4_betweenness_oracle():
    with criterion(4) as note:
        rng = random.Random(0xC4)
        t0 = perf_counter()
        worst = 0.0
        for _ in range(100):
            n = rng.randint(2, 8)
            edges = random_graph_edges(rng, n, rng.uniform(0.2, 0.8))
            got = betweenness_scores(Graph(n, edges))
            want = oracle_betweenness(n, edges)
            for a, b in zip(got, want):
                worst = max(worst, abs(a - b))
                assert abs(a - b) <= 1e-9
        elapsed = perf_counter() - t0
        note["detail"] = (f"100 random graphs N<=8: max deviation from the "
                          f"path-enumeration oracle {worst:.2e} (tol 1e-9) "
                          f"in {elapsed:.2f}s")


def test_criterion_5_gain_reproduction_at_desk_scale():
    with criterion(5) as note:
        t0 = perf_counter()
        dominated, details = 0, []
        problems: list[str] = []
        for n, m in DESK_SIZES:
            g = generate_synthetic("scale-free", n, m, seed=PINNED_SEED)
            points = run_curves(g, None, max_fraction=0.12)
            budget = max(p.nodes_removed for p in points
                         if p.strategy == "greedy")
            if budget != EXPECTED_BUDGETS[n]:
                problems.append(f"N={n}: budget {budget} != {EXPECTED_BUDGETS[n]}")
            finals = {p.strategy: p.percent_increase for p in points
                      if p.nodes_removed == budget}
            greedy_pct = finals["greedy"]
            removed_pct = 100.0 * budget / n
            if greedy_pct <= 0.0:
                problems.append(f"N={n}: greedy increase {greedy_pct:.2f}% not positive")
            if greedy_pct < removed_pct:
                problems.append(f"N={n}: ratio {greedy_pct / removed_pct:.2f} below 1:1")
            if all(greedy_pct >= finals[s]
                   for s in ("degree", "closeness", "betweenness")):
                dominated += 1
            details.append(f"N={n}: +{greedy_pct:.1f}% at {removed_pct:.1f}% removed")
        if dominated < 3:
            problems.append(f"greedy dominates all baselines on only {dominated}/4 sizes")
        elapsed = perf_counter() - t0
        note["detail"] = (f"{'; '.join(details)}; dominates baselines on "
                          f"{dominated}/4 sizes (need 3), seed {PINNED_SEED}, "
                          f"in {elapsed:.2f}s")
        assert not problems, "; ".join(problems)
        assert elapsed < 120.0, f"took {elapsed:.2f}s, bound 120s"


def test_criterion_6_scalability_envelope():
    with criterion(6) as note:
        g = generate_synthetic("scale-free", 1133, 5541, seed=PINNED_SEED)
        assert abs(g.edge_count - 5541) <= 0.05 * 5541
        budget = 113  # 10% of 1133
        t0 = perf_counter()
        sol = greedy_fragile(g, None, budget)
        elapsed = perf_counter() - t0
        assert len(sol.removed) == budget
        # ranking strategies: runtime flat in the budget within timer noise;
        # medians under a millisecond sit below that noise at any budget and
        # count as flat outright
        g135 = generate_synthetic("scale-free", 135, 556, seed=PINNED_SEED)
        worst_ratio = 1.0
        flat_fast = []
        for strategy in ("degree", "closeness", "betweenness"):
            benchmark_runtime(g135, None, strategy, [16], repeats=1)  # warm-up
            times = [t for _, t in benchmark_runtime(
                g135, None, strategy, [1, 8, 16], repeats=15)]
            if max(times) < 1e-3:
                flat_fast.append(strategy)
            else:
                worst_ratio = max(worst_ratio, max(times) / min(times))
        fast_note = (f"; {'/'.join(flat_fast)} under 1 ms at every budget"
                     if flat_fast else "")
        note["detail"] = (f"greedy removed {budget}/1133 nodes "
                          f"(M={g.edge_count}) in {elapsed:.2f}s (bound 120s); "
                          f"baseline budget-sweep time ratio {worst_ratio:.2f} "
                          f"(bound 3x){fast_note}")
        assert elapsed < 120.0, f"took {elapsed:.2f}s, bound 120s"
        assert worst_ratio <= 3.0, f"ratio {worst_ratio:.2f} exceeds 3x"


def test_criterion_7_shape_witnesses(star4, double_star10, k4_pendant):
    with criterion(7) as note:
        # removal can raise the score
        up = fragile(double_star10, {0})
        assert up == 28 / 56 > fragile(double_star10, ()) == 32 / 72
        # removal can lower the score
        assert fragile(star4, {0}) == 0.0 < fragile(star4, ()) == 1.0
        # a node's gain can shrink as the removed set grows
        assert (oracle_marginal_gain(double_star10, (), 0) == 28 / 56 - 32 / 72
                > oracle_marginal_gain(double_star10, {1}, 0) == -0.5)
        # a node's gain can grow as the removed set grows
        assert (oracle_marginal_gain(k4_pendant, (), 4) == -0.5
                < oracle_marginal_gain(k4_pendant, {0}, 4) == 0.0 - 2 / 6)
        note["detail"] = ("fragility rises (4/9 -> 1/2) and falls (1 -> 0) "
                          "under removal; marginal gains shrink (1/18 -> -1/2) "
                          "and grow (-1/2 -> -1/3) with context")


def test_criterion_8_format_round_trips(tmp_path, double_star10):
    with criterion(8) as note:
        rng = random.Random(0xC8)
        # edge-list round trip preserves the labeled topology
        for _ in range(30):
            n = rng.randint(1, 15)
            g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.0, 0.7)))
            back = parse_edge_list(emit_edge_list(g))
            assert back.node_count == g.node_count
            assert set(back.labels) == set(g.labels)
            assert ({frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
                    == {frozenset((back.labels[u], back.labels[v]))
                        for u, v in back.edges()})
        # CSV round trip is stable at the emitted precision
        points = run_curves(double_star10, None, max_fraction=0.3)
        text = emit_csv(points)
        assert emit_csv(parse_csv(text)) == text
        # LP bytes are identical across independent runs over the same input
        graph_path = tmp_path / "g.txt"
        graph_path.write_text(emit_edge_list(double_star10), encoding="utf-8")
        lp_a, lp_b = tmp_path / "a.lp", tmp_path / "b.lp"
        for dest in (lp_a, lp_b):
            rc = cli_main(["emit-ip", "--graph", str(graph_path), "--k", "2",
                           "--linearize-i", "2", "--out", str(dest)])
            assert rc == 0
        assert lp_a.read_bytes() == lp_b.read_bytes()
        direct = emit_lp(linearize(build_fragility_ip(
            parse_edge_list(graph_path.read_text(encoding="utf-8")), k=2), 2))
        assert direct.encode() == lp_a.read_bytes()
        note["detail"] = ("30 edge-list round trips lossless; CSV re-emission "
                          "byte-stable; LP export byte-identical across CLI "
                          "runs and direct emission")
