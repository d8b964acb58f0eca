"""Greedy and exhaustive removal-set solvers."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fragility import (DegreeTracker, Graph, RemovalSolution, WorkLimitExceeded,
                       complete_graph, cycle_graph, exact_opt, fragile,
                       fragility_decision, generate_synthetic, greedy_fragile,
                       iter_greedy_steps, path_graph, star_graph)
from fragility import solvers

from conftest import (oracle_best_removal, oracle_degree_tally, oracle_exact_opt,
                      oracle_fragile, oracle_greedy_steps, oracle_removal_value,
                      random_graph_edges)


# ----- greedy on the frozen fixtures ---------------------------------------

class TestGreedyExamples:
    def test_zero_budget(self, double_star8):
        sol = greedy_fragile(double_star8, k=0)
        assert sol.removed == ()
        assert sol.trace == (18 / 42,)
        assert sol.final_fragility == 18 / 42
        assert repr(sol) == ("RemovalSolution(removed=(), trace=(0.42857142857142855,),"
                             " final_fragility=0.42857142857142855)")

    def test_negative_budget_rejected(self, star4):
        with pytest.raises(ValueError, match="non-negative"):
            greedy_fragile(star4, k=-1)

    def test_star_spends_budget_on_leaves(self, star4):
        # removing the center would crater the score; zero-gain leaf moves
        # are accepted, lowest id first
        sol = greedy_fragile(star4, k=2)
        assert sol.removed == (1, 2)
        assert sol.trace == (1.0, 1.0, 1.0)

    def test_double_star_prefers_leaf_over_hub(self, double_star8):
        # leaf removal reaches 16/30, hub removal only 15/30
        sol = greedy_fragile(double_star8, k=1)
        assert sol.removed == (2,)
        assert sol.final_fragility == 16 / 30

    def test_no_strike_forces_hub(self, double_star8):
        sol = greedy_fragile(double_star8, no_strike=range(2, 8), k=1)
        assert sol.removed == (0,)
        assert sol.final_fragility == 15 / 30

    def test_stops_when_all_gains_negative(self):
        # on a triangle every removal drops below 3 survivors -> value 0;
        # the graph itself already scores 0, so the first zero-gain move is
        # taken, after which nothing helps
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        sol = greedy_fragile(g, k=3)
        assert sol.trace[0] == 0.0
        assert all(v == 0.0 for v in sol.trace)

    def test_early_stop_on_strictly_negative_gains(self, star4):
        # protect the leaves: only the center is targetable and it only hurts
        sol = greedy_fragile(star4, no_strike={1, 2, 3, 4}, k=3)
        assert sol.removed == ()
        assert sol.final_fragility == 1.0

    def test_unknown_no_strike_id(self, star4):
        with pytest.raises(ValueError, match="unknown node id"):
            greedy_fragile(star4, no_strike={9}, k=1)


# ----- exhaustive search on the frozen fixtures ----------------------------

class TestExactExamples:
    def test_star_tie_prefers_removal_over_empty(self, star4):
        # empty set already scores 1.0; ties prefer more removals, then the
        # lexicographically smallest tuple, so leaf id 1 is reported
        sol = exact_opt(star4, k=1)
        assert sol.removed == (1,)
        assert sol.final_fragility == 1.0

    def test_double_star_two_leaves_same_hub(self, double_star8):
        sol = exact_opt(double_star8, k=2)
        assert sol.removed == (2, 3)
        assert sol.final_fragility == 0.7
        assert sol.trace == (18 / 42, 16 / 30, 0.7)

    def test_budget_larger_than_pool(self, star4):
        sol = exact_opt(star4, no_strike={0}, k=99)
        assert sol.final_fragility >= 1.0 - 1e-15

    def test_k4_pendant(self, k4_pendant):
        sol = exact_opt(k4_pendant, k=1)
        assert sol.removed == (1,)
        assert sol.final_fragility == 2 / 3

    def test_work_limit_trips(self):
        g = Graph(40, [])
        with pytest.raises(WorkLimitExceeded):
            exact_opt(g, k=20)

    def test_work_limit_custom(self, double_star8):
        with pytest.raises(WorkLimitExceeded):
            exact_opt(double_star8, k=2, work_limit=10)

    def test_work_limit_stops_counting_past_the_limit(self):
        # the full count has over 4,300 digits; it is never summed or printed
        with pytest.raises(WorkLimitExceeded,
                           match="^work limit exceeded: more than 10000000 "
                                 "candidate subsets$"):
            exact_opt(path_graph(15000), None, 15000)

    def test_negative_budget_rejected(self, star4):
        with pytest.raises(ValueError, match="non-negative"):
            exact_opt(star4, k=-2)

    @pytest.mark.parametrize("search", [
        lambda g: exact_opt(g, None, 1, -1),
        lambda g: fragility_decision(g, None, 1, 0.5, -1)])
    def test_negative_work_limit_is_bad_input(self, search, star4):
        with pytest.raises(ValueError, match="^work limit must be non-negative$"):
            search(star4)


# ----- decision wrapper ----------------------------------------------------

class TestDecision:
    def test_strictly_above(self, star4):
        assert fragility_decision(star4, None, 1, 0.9) is True

    def test_equal_is_not_above(self, star4):
        assert fragility_decision(star4, None, 1, 1.0) is False

    def test_respects_no_strike(self, double_star8):
        # only hubs targetable: best reachable is 15/30
        assert fragility_decision(double_star8, range(2, 8), 2, 0.49) is True
        assert fragility_decision(double_star8, range(2, 8), 2, 0.51) is False

    def test_work_limit_checked_before_any_witness(self, double_star8):
        # x = -1 is beaten by the empty set, but the limit still comes first
        with pytest.raises(WorkLimitExceeded):
            fragility_decision(double_star8, None, 2, -1.0, work_limit=10)

    def test_unknown_id_checked_before_any_witness(self, star4):
        with pytest.raises(ValueError, match="unknown node id 9"):
            fragility_decision(star4, {9}, 1, -1.0)

    def test_nan_threshold_rejected_before_any_work(self, star4):
        # nextafter(nan) is nan, which would switch the search's floor off
        with pytest.raises(ValueError, match="^threshold x must not be NaN$"):
            fragility_decision(star4, {9}, 1, math.nan, work_limit=-1)

    def test_greedy_witness_skips_the_search(self, double_star8, monkeypatch):
        def search(*args):
            raise AssertionError("the greedy's removals were a witness")
        monkeypatch.setattr(solvers, "_search", search)
        # the untouched graph scores exactly x; one leaf removed beats it
        assert fragility_decision(double_star8, None, 2, 18 / 42) is True

    def test_search_decides_when_the_greedy_falls_short(self, double_star8,
                                                        monkeypatch):
        calls = []
        search = solvers._search
        monkeypatch.setattr(solvers, "_search",
                            lambda *args: calls.append(args) or search(*args))
        x = max(greedy_fragile(double_star8, None, 2).trace)
        assert fragility_decision(double_star8, None, 2, x) is False
        assert len(calls) == 1


# ----- incremental tracker vs naive recomputation --------------------------

class TestDegreeTracker:
    def test_matches_naive_on_random_sequences(self):
        rng = random.Random(0x5EED)
        for _ in range(60):
            n = rng.randint(3, 14)
            g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.1, 0.8)))
            tracker = DegreeTracker(g)
            removed: list[int] = []
            order = rng.sample(range(n), n)
            for i in order:
                # price-before-remove must equal the naive evaluation
                priced = oracle_removal_value(tracker, i)
                assert priced == fragile(g, removed + [i])
                tracker.remove(i)
                removed.append(i)
                assert tracker.centrality() == fragile(g, removed)

    def test_double_remove_rejected(self, star4):
        t = DegreeTracker(star4)
        t.remove(1)
        with pytest.raises(ValueError, match="already removed"):
            t.remove(1)

    def test_undo_reverts_remove(self):
        def state(t):
            return (list(t.alive), list(t.deg), list(t.count),
                    t.max_deg, t.n_alive, t.m_alive)

        rng = random.Random(0x0DD)
        for _ in range(80):
            n = rng.randint(1, 14)
            g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.1, 0.9)))
            tracker = DegreeTracker(g)
            removed: list[int] = []
            before: list[tuple] = []
            for _ in range(4 * n):
                if removed and (len(removed) == n or rng.random() < 0.45):
                    tracker.undo()
                    removed.pop()
                    assert state(tracker) == before.pop()
                else:
                    i = rng.choice([j for j in range(n) if tracker.alive[j]])
                    before.append(state(tracker))
                    removed.append(i)
                    tracker.remove(i)
                    assert tracker.centrality() == fragile(g, removed)
                assert tracker.removed == removed
                assert tracker.count == oracle_degree_tally(tracker)
            while removed:
                tracker.undo()
                removed.pop()
            assert state(tracker) == state(DegreeTracker(g))

    def test_undo_without_removal_rejected(self, star4):
        t = DegreeTracker(star4)
        with pytest.raises(ValueError, match="no removal"):
            t.undo()
        t.remove(1)
        t.undo()
        with pytest.raises(ValueError, match="no removal"):
            t.undo()

    def test_counts_after_removal(self, double_star8):
        t = DegreeTracker(double_star8)
        t.remove(0)
        assert t.n_alive == 7
        assert t.m_alive == 3
        assert t.max_deg == 3  # hub 1 lost its link to hub 0


# ----- cross-solver and randomized properties ------------------------------

class TestSolverAgreement:
    def test_exact_matches_independent_brute_force(self):
        rng = random.Random(0xACE)
        for _ in range(80):
            n = rng.randint(3, 8)
            edges = random_graph_edges(rng, n, rng.uniform(0.2, 0.7))
            ns = frozenset(rng.sample(range(n), rng.randint(0, 2)))
            k = rng.randint(0, 3)
            got = exact_opt(Graph(n, edges), ns, k)
            pool = [i for i in range(n) if i not in ns]
            want = oracle_best_removal(
                pool, k, lambda combo: oracle_fragile(n, edges, combo))
            assert got.removed == want
            assert got.final_fragility == oracle_fragile(n, edges, want)

    def test_greedy_never_beats_exact(self):
        rng = random.Random(0xBEEF)
        for _ in range(80):
            n = rng.randint(3, 10)
            edges = random_graph_edges(rng, n, rng.uniform(0.2, 0.6))
            g = Graph(n, edges)
            ns = frozenset(rng.sample(range(n), rng.randint(0, 2)))
            k = rng.randint(0, 3)
            greedy = greedy_fragile(g, ns, k)
            exact = exact_opt(g, ns, k)
            assert greedy.final_fragility <= exact.final_fragility + 1e-12

    def test_determinism(self, double_star10):
        runs = [greedy_fragile(double_star10, {3}, 4) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        exacts = [exact_opt(double_star10, {3}, 3) for _ in range(3)]
        assert exacts[0] == exacts[1] == exacts[2]


@st.composite
def _instances(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, mask) if keep]
    ns = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2))
    k = draw(st.integers(min_value=0, max_value=3))
    return n, edges, frozenset(ns), k


class TestGreedyProperties:
    @settings(max_examples=60, deadline=None)
    @given(_instances())
    def test_solution_shape(self, inst):
        n, edges, ns, k = inst
        g = Graph(n, edges)
        sol = greedy_fragile(g, ns, k)
        assert isinstance(sol, RemovalSolution)
        assert len(sol.removed) <= k
        assert len(sol.trace) == len(sol.removed) + 1
        assert sol.trace[0] == fragile(g, ())
        assert sol.final_fragility == sol.trace[-1]
        assert not (set(sol.removed) & ns)
        assert len(set(sol.removed)) == len(sol.removed)

    @settings(max_examples=60, deadline=None)
    @given(_instances())
    def test_trace_never_decreases(self, inst):
        n, edges, ns, k = inst
        sol = greedy_fragile(Graph(n, edges), ns, k)
        for a, b in zip(sol.trace, sol.trace[1:]):
            assert b >= a

    @settings(max_examples=60, deadline=None)
    @given(_instances())
    def test_trace_entries_match_prefix_evaluation(self, inst):
        n, edges, ns, k = inst
        g = Graph(n, edges)
        sol = greedy_fragile(g, ns, k)
        for j in range(len(sol.trace)):
            assert sol.trace[j] == fragile(g, sol.removed[:j])


# ----- closed-form rounds vs the price-every-candidate oracle ---------------

def _double_star(a: int, b: int) -> Graph:
    """Adjacent hubs 0 and 1 with ``a`` and ``b`` leaves."""
    edges = [(0, 1)] + [(0, 2 + j) for j in range(a)]
    edges += [(1, 2 + a + j) for j in range(b)]
    return Graph(2 + a + b, edges)


def _wheel(spokes: int) -> Graph:
    """Hub 0 joined to every node of the cycle ``1 .. spokes``."""
    edges = [(0, j) for j in range(1, spokes + 1)]
    edges += [(j, j % spokes + 1) for j in range(1, spokes + 1)]
    return Graph(spokes + 1, edges)


def _k2n(n: int, joined: bool) -> Graph:
    """Hubs 0 and 1 each joined to the ``n`` leaves ``2 .. n+1``."""
    edges = [(0, 1)] if joined else []
    edges += [(h, 2 + j) for h in (0, 1) for j in range(n)]
    return Graph(2 + n, edges)


def _disjoint(*parts: Graph) -> Graph:
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.node_count
    return Graph(offset, edges)


def _gap_hub() -> Graph:
    # hub 8 of degree 7 above an empty level 6; node 4 of degree 5 is not
    # one of its neighbours
    return Graph(9, [(0, 2), (0, 4), (0, 8), (1, 4), (1, 8), (2, 4), (2, 8),
                     (3, 4), (3, 8), (4, 7), (5, 8), (6, 8), (7, 8)])


def _stale_neighbour() -> Graph:
    # once node 1 (degree 3) is removed, node 2 is all of T at D = 3, and
    # node 4's neighbours are node 3 (degree 2) and node 1, whose stale
    # degree 3 equals L
    return Graph(6, [(0, 1), (0, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)])


def _top(graph: Graph, count: int) -> list[int]:
    return sorted(range(graph.node_count),
                  key=lambda i: (-graph.degree[i], i))[:count]


_HARD_CASES = [
    # every node sits at the max degree
    ("cycle6", cycle_graph(6), (), 6),
    ("cycle9-protected", cycle_graph(9), (0, 4), 9),
    ("complete5", complete_graph(5), (), 5),
    ("complete7-protected", complete_graph(7), (3,), 7),
    # a sole top node whose removal drops the max to 0
    ("star", star_graph(6), (), 7),
    ("star-hub-protected", star_graph(6), (0,), 7),
    ("star-leaves-protected", star_graph(6), (1, 2, 3, 4, 5, 6), 3),
    # a sole top node of degree 6 above empty levels 5 to 3, whose next
    # non-empty level holds only its neighbours, leaves 1 and 2
    ("star-leaf-edge", Graph(7, [*star_graph(6).edges(), (1, 2)]), (), 7),
    # a sole top node whose next non-empty level holds a non-neighbour, so
    # its new max stays there and its removal gains: with no empty level,
    # then below one
    ("star-path-hub-targetable", _disjoint(star_graph(3), path_graph(3)),
     (1, 2, 3, 4, 5, 6), 2),
    ("gap-hub-targetable", _gap_hub(), tuple(range(8)), 2),
    # a removed neighbour sits at L by its stale degree: counting it would
    # price node 4 at max 2 and pick node 0 in the second round, not node 4
    ("stale-neighbour", _stale_neighbour(), (), 3),
    # the hub touches every alive node, so no removal keeps the max at D
    ("wheel-hub-protected", _wheel(8), (0,), 9),
    # every leaf is priced before the isolated node, whose max stays at D
    ("star-isolated-hub-protected", _disjoint(star_graph(6), Graph(1, [])),
     (0,), 8),
    # every leaf sits below both protected hubs
    ("k2n-hubs-protected", _k2n(5, False), (0, 1), 6),
    ("k2n-joined-hubs-protected", _k2n(5, True), (0, 1), 6),
    # leaves keep the max at D and joined hubs drop it to D-1: ties among
    # and between them
    ("double-star-even", _double_star(3, 3), (), 8),
    ("double-star-uneven", _double_star(4, 2), (), 8),
    ("double-star-hubs-protected", _double_star(3, 3), (0, 1), 6),
    ("double-star-one-hub-protected", _double_star(2, 4), (1,), 7),
    # fewer than four alive nodes from the first round on
    ("empty", Graph(0, []), (), 3),
    ("single", Graph(1, []), (), 2),
    ("edge", Graph(2, [(0, 1)]), (), 3),
    ("path3", path_graph(3), (), 3),
    ("triangle", complete_graph(3), (1,), 3),
    ("path4", path_graph(4), (), 4),
    ("star3", star_graph(3), (), 5),
    ("isolated4", Graph(4, []), (), 4),
    ("disconnected", _disjoint(star_graph(4), cycle_graph(5), path_graph(3),
                               Graph(2, [])), (6,), 16),
    ("two-stars", _disjoint(star_graph(5), star_graph(5)), (0,), 12),
    # budget beyond the candidate pool
    ("k-beyond-pool", _disjoint(star_graph(3), path_graph(4)), (0, 5), 50),
]

# greedy only: too large for the exhaustive oracle of the branch and bound
_LARGE_CASES = [
    ("star2000", star_graph(2000), (), 60),
    ("k2n2000-hubs-protected", _k2n(2000, False), (0, 1), 60),
    ("complete30", complete_graph(30), (), 30),
]


class TestClosedFormRounds:
    @pytest.mark.parametrize("graph, no_strike, k",
                             [case[1:] for case in _HARD_CASES + _LARGE_CASES],
                             ids=[case[0] for case in _HARD_CASES + _LARGE_CASES])
    def test_hard_cases_match_oracle(self, graph, no_strike, k):
        assert all(type(a) is tuple for a in graph.adjacency)
        assert (list(iter_greedy_steps(graph, no_strike, k))
                == oracle_greedy_steps(graph, no_strike, k))

    @pytest.mark.parametrize("n, m, seed, protected, k", [
        (1133, 5541, 0, 20, 113),
        (1133, 5541, 0, 0, 113),
        (1133, 5541, 1, 0, 113),
        (5000, 24450, 0, 20, 40),
    ])
    def test_scale_free_matches_oracle(self, n, m, seed, protected, k):
        g = generate_synthetic("scale-free", n, m, seed=seed)
        ns = _top(g, protected)
        assert (list(iter_greedy_steps(g, ns, k))
                == oracle_greedy_steps(g, ns, k))

    def test_round_under_a_protected_hub_pops_no_walk(self, monkeypatch):
        # every leaf's new max is the cap, so a round stops at the first
        # valid entry: pops are the stale entries of removed leaves
        pops = []
        heappop = solvers.heappop
        monkeypatch.setattr(solvers, "heappop",
                            lambda heap: pops.append(1) or heappop(heap))
        k = 50
        steps = list(iter_greedy_steps(star_graph(2000), (0,), k))
        assert [node for node, _ in steps] == list(range(1, k + 1))
        assert len(pops) <= 2 * k + 2

    def test_pricing_removes_nothing(self, monkeypatch):
        # the unprotected hub is all of T in every round: pricing it reads
        # the levels below D instead of removing and undoing it
        calls = []
        remove, undo = DegreeTracker.remove, DegreeTracker.undo
        monkeypatch.setattr(DegreeTracker, "remove",
                            lambda t, i: calls.append("remove") or remove(t, i))
        monkeypatch.setattr(DegreeTracker, "undo",
                            lambda t: calls.append("undo") or undo(t))
        steps = list(iter_greedy_steps(star_graph(2000), (), 50))
        assert [node for node, _ in steps] == list(range(1, 51))
        assert calls == ["remove"] * 50

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_instances_match_oracle(self, data):
        n = data.draw(st.integers(min_value=0, max_value=14))
        pairs = list(combinations(range(n), 2))
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                  max_size=len(pairs)))
        g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
        ns = data.draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)),
                               max_size=3 if n else 0))
        k = data.draw(st.integers(min_value=0, max_value=n + 1))
        assert list(iter_greedy_steps(g, ns, k)) == oracle_greedy_steps(g, ns, k)


# ----- branch and bound vs the score-every-subset oracle --------------------

def _check_exact(graph: Graph, no_strike, k: int) -> None:
    want = oracle_exact_opt(graph, no_strike, k)
    assert exact_opt(graph, no_strike, k) == want
    opt = want.final_fragility
    # the greedy's best value decides alone just below it, never at it
    reach = max(greedy_fragile(graph, no_strike, k).trace)
    for x in (opt, math.nextafter(opt, -math.inf), want.trace[0], 0.0,
              reach, math.nextafter(reach, -math.inf)):
        assert fragility_decision(graph, no_strike, k, x) == (opt > x)


# graphs and protected sets the greedy corpus above does not cover
_EXACT_CASES = _HARD_CASES + [
    ("complete7-hub-protected", complete_graph(7), (0,), 7),
    ("star3-hub-protected", star_graph(3), (0,), 5),
    ("path8", path_graph(8), (), 5),
    ("path8-end-protected", path_graph(8), (0,), 5),
    ("all-protected", star_graph(4), (0, 1, 2, 3, 4), 3),
    ("star-and-isolated", _disjoint(star_graph(5), Graph(3, [])), (), 9),
]


class TestBranchAndBound:
    @pytest.mark.parametrize("graph, no_strike, k",
                             [case[1:] for case in _EXACT_CASES],
                             ids=[case[0] for case in _EXACT_CASES])
    def test_hard_cases_match_oracle(self, graph, no_strike, k):
        _check_exact(graph, no_strike, k)

    @pytest.mark.parametrize("n, m, seed, protected, k", [
        (40, 80, 0, 0, 3),
        (40, 120, 1, 3, 3),
        (24, 60, 2, 2, 5),
    ])
    def test_scale_free_matches_oracle(self, n, m, seed, protected, k):
        g = generate_synthetic("scale-free", n, m, seed=seed)
        _check_exact(g, _top(g, protected), k)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_instances_match_oracle(self, data):
        n = data.draw(st.integers(min_value=0, max_value=11))
        pairs = list(combinations(range(n), 2))
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                  max_size=len(pairs)))
        g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
        ns = data.draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)),
                               max_size=3 if n else 0))
        k = data.draw(st.integers(min_value=0, max_value=n + 1))
        _check_exact(g, ns, k)

    def test_subtree_whose_bound_ties_the_floor_is_searched(self):
        # the greedy's three removals reach the optimum's value 1.0, so that
        # is the floor; the tie rule wants the smaller tuple (1, 3, 5), which
        # skipping subtrees whose bound equals the floor would lose
        g = Graph(7, [(0, 2), (0, 4), (0, 6), (1, 4), (2, 3), (2, 5)])
        greedy = greedy_fragile(g, (2,), 3)
        assert greedy.removed == (4, 6, 1)
        assert max(greedy.trace) == 1.0
        want = oracle_exact_opt(g, (2,), 3)
        assert want.removed == (1, 3, 5) and want.final_fragility == 1.0
        assert exact_opt(g, (2,), 3) == want

    def test_greedy_floor_prunes_the_desk_graph(self, monkeypatch):
        removals = []
        remove = DegreeTracker.remove
        monkeypatch.setattr(DegreeTracker, "remove",
                            lambda t, i: removals.append(i) or remove(t, i))
        g = generate_synthetic("scale-free", 57, 162, seed=0)
        sol = exact_opt(g, None, 7, work_limit=10**9)
        # the greedy's 7 removals and the search's; 6,568 sets without the floor
        assert len(removals) == 1089
        assert sol.final_fragility == max(greedy_fragile(g, None, 7).trace)

    def test_decision_stops_at_first_witness(self, monkeypatch):
        removals = []
        remove = DegreeTracker.remove
        monkeypatch.setattr(DegreeTracker, "remove",
                            lambda t, i: removals.append(i) or remove(t, i))
        g = generate_synthetic("scale-free", 1133, 5541, seed=0)
        assert fragility_decision(g, None, 2, 0.0) is True
        assert removals == []  # the untouched graph is the witness
        assert fragility_decision(g, None, 2, fragile(g, ())) is True
        assert 0 < len(removals) < 1133  # of 642,411 sets of size 1 or 2


class TestDecisionAtTheGreedyGap:
    """At k = 12 on the 102-node desk graph the greedy's best falls short of
    the optimum, so every threshold in between needs the search."""

    K = 12
    WORK_LIMIT = 10**16  # sizes 0..12 of 102 ids hold about 1.6e15 sets

    @pytest.fixture(scope="class")
    def gap(self):
        g = generate_synthetic("scale-free", 102, 388, seed=0)
        reach = max(greedy_fragile(g, None, self.K).trace)
        opt = exact_opt(g, None, self.K, self.WORK_LIMIT).final_fragility
        assert reach < opt
        return g, reach, opt

    @staticmethod
    def _counted(monkeypatch, call):
        """``call()`` and the number of DegreeTracker removals it made."""
        removals = []
        remove = DegreeTracker.remove
        monkeypatch.setattr(DegreeTracker, "remove",
                            lambda t, i: removals.append(i) or remove(t, i))
        return call(), len(removals)

    def _decide(self, monkeypatch, g, x):
        return self._counted(monkeypatch, lambda: fragility_decision(
            g, None, self.K, x, self.WORK_LIMIT))

    def test_only_the_search_witnesses_the_greedy_best(self, gap, monkeypatch):
        g, reach, _ = gap
        answer, count = self._decide(monkeypatch, g, reach)
        assert answer is True
        _, exact_count = self._counted(
            monkeypatch, lambda: exact_opt(g, None, self.K, self.WORK_LIMIT))
        # the greedy's removals and one optimum search, no more
        assert count <= exact_count

    def test_optimum_value_is_not_above(self, gap, monkeypatch):
        g, _, opt = gap
        assert self._decide(monkeypatch, g, opt) == (False, 8825)

    def test_just_below_the_optimum_is_above(self, gap, monkeypatch):
        g, _, opt = gap
        answer, _ = self._decide(monkeypatch, g, math.nextafter(opt, -math.inf))
        assert answer is True
