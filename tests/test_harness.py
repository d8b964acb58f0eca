"""Experiment harness: curves, CSV round-trips, benchmarks, synthetic graphs."""

from __future__ import annotations

import re

import pytest

from fragility import (CurvePoint, Graph, InfeasibleDensityError,
                       ZeroBaselineError, benchmark_runtime,
                       betweenness_ranking, cycle_graph, degree_ranking,
                       emit_csv, generate_synthetic, greedy_fragile, harness,
                       iter_greedy_steps, parse_csv, run_curves, star_graph)
from fragility.harness import _RANKERS, CSV_HEADER, STRATEGIES

from conftest import oracle_fragile


# ----- settings ------------------------------------------------------------

class TestConfig:
    """``run_curves`` checks its own strategies, fraction and step."""

    def test_defaults(self):
        # every strategy, the paper's 12% and step 1: budgets 1..12 of 100
        g = generate_synthetic("scale-free", 100, 250, seed=1)
        points = run_curves(g, None)
        assert sorted({p.strategy for p in points}) == sorted(STRATEGIES)
        for strategy in STRATEGIES:
            assert [p.nodes_removed for p in points
                    if p.strategy == strategy] == list(range(1, 13))

    def test_unknown_strategy(self, double_star10):
        with pytest.raises(ValueError, match="unknown strategy 'pagerank'"):
            run_curves(double_star10, None, ("greedy", "pagerank"))

    def test_fraction_bounds(self, double_star10):
        message = re.escape("max_fraction must lie in (0, 1]")
        with pytest.raises(ValueError, match=message):
            run_curves(double_star10, None, max_fraction=0.0)
        with pytest.raises(ValueError, match=message):
            run_curves(double_star10, None, max_fraction=1.2)
        # inclusive upper end
        points = run_curves(double_star10, None, ("degree",), max_fraction=1.0)
        assert len(points) == 10

    def test_step_bounds(self, double_star10):
        with pytest.raises(ValueError, match="step must be at least 1"):
            run_curves(double_star10, None, step=0)

    @pytest.mark.parametrize("field, bad, match", [
        ("strategies", ("greedy", "pagerank"), "unknown strategy"),
        ("max_fraction", 0.0, "max_fraction"),
        ("max_fraction", 1.2, "max_fraction"),
        ("step", 0, "step must be at least 1"),
    ])
    def test_every_way_to_make_one_checks(
            self, field, bad, match, monkeypatch, double_star10):
        """A run of curves checks its settings whether they are passed by
        keyword or positionally, before any ranker or greedy runs."""
        calls = []
        for name, ranker in list(_RANKERS.items()):
            def counted(*args, _name=name, _ranker=ranker):
                calls.append(_name)
                return _ranker(*args)
            monkeypatch.setitem(_RANKERS, name, counted)

        def counted_greedy(*args):
            calls.append("greedy")
            return iter_greedy_steps(*args)
        monkeypatch.setattr(harness, "iter_greedy_steps", counted_greedy)
        good = {"strategies": ("degree", "greedy"), "max_fraction": 0.5, "step": 2}
        settings = {**good, field: bad}
        with pytest.raises(ValueError, match=match):
            run_curves(double_star10, None, **settings)
        with pytest.raises(ValueError, match=match):
            run_curves(double_star10, None, *settings.values())
        assert calls == []
        # the spies count: the good settings run both strategies
        run_curves(double_star10, None, **good)
        assert sorted(calls) == ["degree", "greedy"]


# ----- curves --------------------------------------------------------------

class TestCurves:
    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroBaselineError):
            run_curves(cycle_graph(6), None, max_fraction=0.5)

    def test_point_grid_and_sorting(self, double_star10):
        points = run_curves(double_star10, None, max_fraction=0.3)
        assert len(points) == 4 * 3  # four strategies, budgets 1..3
        keys = [(p.strategy, p.nodes_removed) for p in points]
        assert keys == sorted(keys)
        assert {p.strategy for p in points} == set(STRATEGIES)

    def test_repeated_strategy_runs_once(self, double_star10):
        once = run_curves(double_star10, None, ("degree", "greedy"),
                          max_fraction=0.3)
        twice = run_curves(double_star10, None,
                           ("greedy", "degree", "degree", "greedy"),
                           max_fraction=0.3)
        assert len(once) == 2 * 3
        assert [p[:5] for p in twice] == [p[:5] for p in once]

    def test_greedy_points_match_prefix_runs(self, double_star10):
        points = run_curves(double_star10, None, ("greedy",), max_fraction=0.3)
        for p in points:
            sol = greedy_fragile(double_star10, None, p.nodes_removed)
            assert p.fragility == sol.final_fragility

    def test_ranking_points_match_schedule_evaluation(self, double_star10):
        points = run_curves(double_star10, None, ("degree",), max_fraction=0.3)
        order = degree_ranking(double_star10)
        n, edges = double_star10.node_count, double_star10.edges()
        for p in points:
            assert p.fragility == oracle_fragile(n, edges, order[:p.nodes_removed])

    def test_percent_increase_arithmetic(self, double_star10):
        (p,) = run_curves(double_star10, None, ("greedy",), max_fraction=0.11)
        base = 32 / 72
        assert p.nodes_removed == 1
        assert p.fraction_removed == 0.1
        assert p.percent_increase == 100.0 * (p.fragility - base) / base

    def test_no_strike_respected(self, double_star10):
        ns = {0, 1}
        points = run_curves(double_star10, ns, max_fraction=0.3)
        order = betweenness_ranking(double_star10, ns)
        assert not (set(order) & ns)
        greedy_pts = [p for p in points if p.strategy == "greedy"]
        sol = greedy_fragile(double_star10, ns, 3)
        assert not (set(sol.removed) & ns)
        assert greedy_pts[-1].fragility == sol.final_fragility

    @pytest.mark.parametrize("strategy", ["betweenness", "closeness", "degree"])
    def test_ranking_walk_matches_prefix_scores(self, strategy):
        g = generate_synthetic("scale-free", 120, 300, seed=3)
        ns = {0, 5}
        order = _RANKERS[strategy](g, ns)
        points = run_curves(g, ns, (strategy,), max_fraction=0.3)
        assert [p.nodes_removed for p in points] == list(range(1, 37))
        n, edges = g.node_count, g.edges()
        for p in points:
            assert p.fragility == oracle_fragile(n, edges, order[:p.nodes_removed])

    @pytest.mark.parametrize("strategies", [("greedy",), ("degree",), STRATEGIES])
    def test_unknown_no_strike_id_rejected_without_budgets(self, strategies):
        # max_fraction 0.1 of five nodes leaves no budget to run anything
        with pytest.raises(ValueError, match="unknown node id 99"):
            run_curves(star_graph(4), [99], strategies, max_fraction=0.1)

    def test_small_pool_clamps_ranking_budget(self):
        g = star_graph(4)  # five nodes, base fragility 1.0
        # only the center is targetable
        points = run_curves(g, range(1, 5), ("degree",), max_fraction=0.5)
        assert [p.nodes_removed for p in points] == [1, 1]

    @pytest.mark.parametrize("strategy", ["betweenness", "closeness", "degree"])
    def test_ranking_points_share_one_wall_time(self, strategy):
        g = generate_synthetic("scale-free", 60, 150, seed=2)
        ns = set(range(50))  # ten targetable nodes, budgets up to 18
        points = run_curves(g, ns, (strategy,), max_fraction=0.3)
        assert [p.nodes_removed for p in points] == [*range(1, 11)] + [10] * 8
        assert len({p.wall_time for p in points}) == 1

    def test_greedy_times_grow_and_cover_an_early_stop(self):
        g = star_graph(6)  # hub protected: four zero-gain removals, then stop
        points = run_curves(g, {0}, ("greedy",), max_fraction=1.0)
        assert [p.nodes_removed for p in points] == [1, 2, 3, 4, 4, 4, 4]
        times = [p.wall_time for p in points]
        assert times == sorted(times)
        # past the stop the point carries the whole run, the refused round too
        assert min(times[4:]) > max(times[:4])

    def test_no_budget_ranks_nothing(self, monkeypatch, double_star10):
        calls = []
        for name, ranker in list(_RANKERS.items()):
            def counted(*args, _name=name, _ranker=ranker):
                calls.append(_name)
                return _ranker(*args)
            monkeypatch.setitem(_RANKERS, name, counted)
        # 0.05 of ten nodes leaves no budget; 0.1 leaves budget 1
        assert run_curves(double_star10, None, max_fraction=0.05) == []
        assert calls == []
        run_curves(double_star10, None, max_fraction=0.1)
        assert sorted(calls) == sorted(_RANKERS)

    def test_wall_times_nonnegative(self, double_star10):
        points = run_curves(double_star10, None, max_fraction=0.2)
        assert all(p.wall_time >= 0.0 for p in points)

    def test_budget_fraction_floor(self):
        # 0.12 of 57 nodes floors to 6 budgets
        g = generate_synthetic("scale-free", 57, 162, seed=1)
        points = run_curves(g, None, ("degree",))
        assert [p.nodes_removed for p in points] == [1, 2, 3, 4, 5, 6]


# ----- CSV -----------------------------------------------------------------

class TestCsv:
    def test_header_and_shape(self, double_star10):
        points = run_curves(double_star10, None, max_fraction=0.2)
        text = emit_csv(points)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(points) + 1
        assert text.endswith("\n")
        assert all(len(line.split(",")) == 6 for line in lines)

    def test_round_trip_is_stable(self, double_star10):
        points = run_curves(double_star10, None, max_fraction=0.3)
        text = emit_csv(points)
        again = emit_csv(parse_csv(text))
        assert again == text

    def test_parsed_fields(self):
        pt = CurvePoint("greedy", 2, 0.2, 0.5, 12.5, 0.001)
        parsed = parse_csv(emit_csv([pt]))
        assert parsed == [CurvePoint("greedy", 2, 0.2, 0.5, 12.5, 0.001)]

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("a,b,c\n1,2,3\n")

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_csv("")

    def test_parse_skips_blank_rows(self):
        pt = CurvePoint("degree", 1, 0.1, 0.4, 1.0, 0.0)
        text = emit_csv([pt])
        assert parse_csv(text.replace("\n", "\n\n")) == [pt]

    def test_parse_rejects_short_row(self):
        with pytest.raises(ValueError, match="6 fields"):
            parse_csv(CSV_HEADER + "\ngreedy,1,0.1\n")


# ----- benchmarks ----------------------------------------------------------

class TestBenchmark:
    def test_shape_and_order(self, double_star10):
        out = benchmark_runtime(double_star10, None, "greedy", [3, 1, 2])
        assert [b for b, _ in out] == [1, 2, 3]
        assert all(t >= 0.0 for _, t in out)

    def test_ranking_strategy_runs(self, double_star10):
        out = benchmark_runtime(double_star10, None, "betweenness", [1, 2])
        assert len(out) == 2

    def test_unknown_strategy(self, double_star10):
        with pytest.raises(ValueError, match="unknown strategy"):
            benchmark_runtime(double_star10, None, "milp", [1])

    def test_negative_budget(self, double_star10):
        with pytest.raises(ValueError, match="non-negative"):
            benchmark_runtime(double_star10, None, "greedy", [-1])


# ----- synthetic graphs ----------------------------------------------------

class TestSynthetic:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            generate_synthetic("small-world", 30, 60)

    def test_positive_n_required(self):
        with pytest.raises(ValueError, match="positive"):
            generate_synthetic("random", 0, 0)

    def test_scale_free_requires_target(self):
        with pytest.raises(ValueError, match="target edge count"):
            generate_synthetic("scale-free", 30)

    @pytest.mark.parametrize("kind", ["scale-free", "random", "star-of-stars"])
    def test_negative_target_rejected(self, kind):
        with pytest.raises(ValueError,
                           match="^target edge count must be non-negative$"):
            generate_synthetic(kind, 9, -4)

    def test_scale_free_needs_three_nodes(self):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            generate_synthetic("scale-free", 2, 1)

    @pytest.mark.parametrize("n,m", [(57, 162), (102, 388), (105, 590),
                                     (135, 556)])
    def test_scale_free_hits_target_window(self, n, m):
        g = generate_synthetic("scale-free", n, m, seed=1)
        assert g.node_count == n
        assert abs(g.edge_count - m) <= 0.05 * m

    def test_scale_free_deterministic(self):
        a = generate_synthetic("scale-free", 57, 162, seed=5)
        b = generate_synthetic("scale-free", 57, 162, seed=5)
        assert a.edges() == b.edges()
        c = generate_synthetic("scale-free", 57, 162, seed=6)
        assert a.edges() != c.edges()

    def test_scale_free_skew(self):
        # preferential attachment should concentrate degree well above the
        # mean somewhere
        g = generate_synthetic("scale-free", 102, 388, seed=1)
        assert g.max_degree >= 3 * (2 * g.edge_count / g.node_count)

    def test_scale_free_density_guards(self):
        with pytest.raises(InfeasibleDensityError):
            generate_synthetic("scale-free", 10, 100)  # above complete graph
        with pytest.raises(InfeasibleDensityError):
            generate_synthetic("scale-free", 100, 50)  # cannot stay connected

    def test_random_exact_edge_count(self):
        g = generate_synthetic("random", 20, 57, seed=3)
        assert g.node_count == 20
        assert g.edge_count == 57

    def test_random_deterministic(self):
        a = generate_synthetic("random", 15, 30, seed=9)
        b = generate_synthetic("random", 15, 30, seed=9)
        assert a.edges() == b.edges()

    def test_random_density_guard(self):
        with pytest.raises(InfeasibleDensityError):
            generate_synthetic("random", 5, 11)

    def test_star_of_stars_structure(self):
        g = generate_synthetic("star-of-stars", 100)
        assert g.node_count == 100
        assert g.edge_count == 99  # a tree: nesting never adds cycles
        assert g.degree[0] >= 9  # root reaches every satellite hub
        hubs = [i for i in range(100) if g.degree[i] > 1]
        assert len(hubs) == 10

    def test_star_of_stars_target_validated(self):
        generate_synthetic("star-of-stars", 100, 99)
        with pytest.raises(InfeasibleDensityError):
            generate_synthetic("star-of-stars", 100, 150)
        # a target of 0 is checked too, and met only without edges
        with pytest.raises(InfeasibleDensityError):
            generate_synthetic("star-of-stars", 9, 0)
        assert generate_synthetic("star-of-stars", 1, 0).edge_count == 0

    def test_graphs_are_simple(self):
        # Graph construction rejects duplicates/self-loops, so reaching here
        # is the assertion; spot-check edge canonicalization anyway
        for kind, n, m in (("scale-free", 57, 162), ("random", 30, 100),
                           ("star-of-stars", 50, None)):
            g = generate_synthetic(kind, n, m, seed=2)
            assert all(u < v for u, v in g.edges())
