"""Graph construction, centralization scoring, and fragility basics."""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from fragility import (Graph, betweenness_ranking, betweenness_scores,
                       build_fragility_ip, canonical_assignment,
                       closeness_ranking, complete_graph, cycle_graph,
                       degree_ranking, exact_opt, fragile,
                       fragility_decision, greedy_fragile,
                       generate_synthetic, network_degree_centrality,
                       path_graph, star_graph)
from fragility import graph as graph_module, harness

from conftest import (graph_shape, oracle_centrality, oracle_fragile,
                      oracle_graph, oracle_induced_subgraph,
                      oracle_marginal_gain, random_graph_edges)


# ----- construction --------------------------------------------------------

class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown node id"):
            Graph(3, [(0, 3)])

    # every entry point and test oracle that takes node ids, fed one id
    # outside the graph
    @pytest.mark.parametrize("call", [
        pytest.param(lambda g, x: fragile(g, [0, x]), id="fragile"),
        pytest.param(lambda g, x: oracle_marginal_gain(g, [x], 0),
                     id="marginal_gain-base"),
        pytest.param(lambda g, x: oracle_marginal_gain(g, [0], x),
                     id="marginal_gain-candidate"),
        pytest.param(lambda g, x: oracle_induced_subgraph(g, [0, x]),
                     id="induced_subgraph"),
        pytest.param(lambda g, x: greedy_fragile(g, [x], 1), id="greedy_fragile"),
        pytest.param(lambda g, x: exact_opt(g, [x], 1), id="exact_opt"),
        pytest.param(lambda g, x: fragility_decision(g, [x], 1, 0.5),
                     id="fragility_decision"),
        pytest.param(lambda g, x: degree_ranking(g, [x]), id="degree_ranking"),
        pytest.param(lambda g, x: closeness_ranking(g, [x]), id="closeness_ranking"),
        pytest.param(lambda g, x: betweenness_ranking(g, [x]), id="betweenness_ranking"),
        pytest.param(lambda g, x: build_fragility_ip(g, [x], 1), id="build_fragility_ip"),
        pytest.param(lambda g, x: canonical_assignment(
            build_fragility_ip(g, None, 1), [x]), id="canonical_assignment"),
    ])
    @pytest.mark.parametrize("bad", [5, -1])
    def test_entry_points_reject_unknown_node_id(self, call, bad, star4):
        with pytest.raises(ValueError, match=f"^unknown node id {bad}$"):
            call(star4, bad)

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError, match="node_count must be non-negative"):
            Graph(-1, [])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="one label per node"):
            Graph(3, [], labels=("a",))
        with pytest.raises(ValueError, match="non-empty"):
            Graph(2, [], labels=("a", ""))
        with pytest.raises(ValueError, match="non-empty strings"):
            Graph(2, [(0, 1)], labels=[1, 2])
        with pytest.raises(ValueError, match="unique"):
            Graph(2, [], labels=("a", "a"))

    def test_edges_canonical_sorted(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert g.edges() == ((0, 1), (2, 3))
        assert g.degree == (1, 1, 1, 1)
        assert g.max_degree == 1

    def test_edges_built_from_adjacency_match_sorted_input(self):
        rng = random.Random(0xED6E)
        for _ in range(100):
            n = rng.randint(0, 15)
            edges = random_graph_edges(rng, n, rng.uniform(0.0, 0.8))
            given_order = [(v, u) if rng.random() < 0.5 else (u, v)
                           for u, v in rng.sample(edges, len(edges))]
            g = Graph(n, given_order)
            assert g.edges() == tuple(sorted(edges))
            assert all(x < y for a in g.adjacency for x, y in zip(a, a[1:]))
            assert g.edge_count == len(edges)

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.edge_count == 0
        assert network_degree_centrality(g) == 0.0

    def test_family_constructors_reject_bad_sizes(self):
        with pytest.raises(ValueError, match="leaves must be non-negative"):
            star_graph(-1)
        with pytest.raises(ValueError, match="at least 3 nodes"):
            cycle_graph(2)


def _arranged(rng: random.Random, edges, form: str):
    """``edges`` sorted, shuffled, shuffled with about half of the pairs
    reversed, or that last list as a one-shot generator."""
    if form == "sorted":
        return sorted(edges)
    out = rng.sample(edges, len(edges))
    if form != "shuffled":
        out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in out]
    return out


@pytest.fixture
def graph_inputs(monkeypatch):
    """Every Graph the library builds, with the node count and edges it got."""
    built = []

    def record(n, edges, labels=None):
        edges = list(edges)
        g = Graph(n, edges, labels)
        built.append((n, edges, g))
        return g

    monkeypatch.setattr(graph_module, "Graph", record)
    monkeypatch.setattr(harness, "Graph", record)
    return built


class TestBuildMatchesOracle:
    """The list-then-sort build against sets grown one edge at a time and
    sorted at the end: equal in adjacency (each node's neighbours ascending),
    degree, edge count and max degree."""

    @pytest.mark.parametrize("form", ["sorted", "shuffled", "reversed", "generator"])
    def test_edge_list_forms(self, form):
        rng = random.Random(0xB17D)
        cases = [(n, random_graph_edges(rng, n, rng.uniform(0.0, 0.9)))
                 for n in (rng.randint(0, 70) for _ in range(60))]
        hubs = generate_synthetic("scale-free", 2000, 9780, seed=3)
        cases.append((2000, list(hubs.edges())))
        cases.append((301, [(0, i) for i in range(1, 301)]))
        for n, edges in cases:
            given_edges = _arranged(rng, edges, form)
            arg = iter(given_edges) if form == "generator" else given_edges
            assert graph_shape(Graph(n, arg)) == oracle_graph(n, given_edges)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: star_graph(40), id="star"),
        pytest.param(lambda: complete_graph(30), id="complete"),
        pytest.param(lambda: path_graph(50), id="path"),
        pytest.param(lambda: cycle_graph(50), id="cycle"),
        pytest.param(lambda: generate_synthetic("scale-free", 800, 3900, seed=5),
                     id="scale-free"),
        pytest.param(lambda: generate_synthetic("random", 300, 2500, seed=5),
                     id="random"),
        pytest.param(lambda: generate_synthetic("star-of-stars", 400), id="star-of-stars"),
        pytest.param(lambda: oracle_induced_subgraph(
            generate_synthetic("scale-free", 800, 3900, seed=6), range(0, 800, 3)),
            id="induced_subgraph"),
    ])
    def test_library_builds(self, make, graph_inputs):
        make()
        assert graph_inputs
        for n, edges, g in graph_inputs:
            assert graph_shape(g) == oracle_graph(n, edges)

    def test_errors_match_oracle_on_sorted_input(self):
        # canonical pairs in ascending order, with one repeat, self-loop or
        # out-of-range endpoint mixed in
        rng = random.Random(0xE7)
        for _ in range(300):
            n = rng.randint(2, 14)
            edges = random_graph_edges(rng, n, rng.uniform(0.1, 0.7)) or [(0, 1)]
            u = rng.randrange(n)
            edges.append(rng.choice([rng.choice(edges), (u, u), (u, n + rng.randint(0, 3))]))
            edges.sort()
            with pytest.raises(ValueError) as new:
                Graph(n, edges)
            with pytest.raises(ValueError) as old:
                oracle_graph(n, edges)
            assert str(new.value) == str(old.value)

    def test_duplicate_names_lowest_repeated_pair_in_any_order(self):
        rng = random.Random(0xD0)
        for _ in range(300):
            n = rng.randint(2, 14)
            edges = random_graph_edges(rng, n, rng.uniform(0.1, 0.7)) or [(0, 1)]
            edges += [rng.choice(edges) for _ in range(rng.randint(1, 3))]
            given_edges = _arranged(rng, edges, "reversed")
            counts = Counter((min(e), max(e)) for e in given_edges)
            lowest = min(e for e, c in counts.items() if c > 1)
            with pytest.raises(ValueError, match=f"^duplicate edge {re.escape(str(lowest))}$"):
                Graph(n, given_edges)

    def test_range_and_self_loop_win_over_an_earlier_duplicate(self):
        # every edge is range- and loop-checked before any repeat is looked
        # for; the oracle, adding one edge at a time, stops at whichever
        # comes first
        with pytest.raises(ValueError, match="duplicate edge"):
            oracle_graph(3, [(0, 1), (1, 0), (0, 3)])
        with pytest.raises(ValueError, match="unknown node id"):
            Graph(3, [(0, 1), (1, 0), (0, 3)])
        with pytest.raises(ValueError, match="^self-loop at node 2$"):
            Graph(3, [(0, 1), (1, 0), (2, 2)])


def test_edge_order_does_not_change_adjacency_or_betweenness():
    # the same graph from its sorted edges, a shuffle of them, and the
    # reversed list with each pair flipped: the neighbour tuples, and so
    # every betweenness float summed along them, are the same
    edges = list(generate_synthetic("scale-free", 500, 2000, seed=0).edges())
    shuffled = random.Random(0x5EED).sample(edges, len(edges))
    flipped = [(v, u) for u, v in reversed(edges)]
    first, *others = [Graph(500, e) for e in (edges, shuffled, flipped)]
    scores = betweenness_scores(first)
    for g in others:
        assert g.adjacency == first.adjacency
        assert g.edges() == first.edges()
        assert betweenness_scores(g) == scores


# ----- centralization examples (hand-frozen values) ------------------------

class TestCentrality:
    def test_star_is_one(self, star4):
        assert network_degree_centrality(star4) == 1.0

    def test_path3_is_one(self):
        # a 3-path is the star K_{1,2}
        assert network_degree_centrality(path_graph(3)) == 1.0

    def test_path4(self, path4):
        assert network_degree_centrality(path4) == pytest.approx(1 / 3, abs=1e-15)

    def test_complete_is_zero(self):
        assert network_degree_centrality(complete_graph(4)) == 0.0

    def test_cycle_is_zero(self):
        assert network_degree_centrality(cycle_graph(6)) == 0.0

    def test_degenerate_sizes_are_zero(self):
        assert network_degree_centrality(Graph(1, [])) == 0.0
        assert network_degree_centrality(Graph(2, [(0, 1)])) == 0.0

    def test_double_star8(self, double_star8):
        assert network_degree_centrality(double_star8) == 18 / 42

    def test_double_star10(self, double_star10):
        assert network_degree_centrality(double_star10) == 32 / 72

    def test_k4_pendant(self, k4_pendant):
        assert network_degree_centrality(k4_pendant) == 6 / 12


# ----- fragility examples --------------------------------------------------

class TestFragile:
    def test_star_remove_center(self, star4):
        assert fragile(star4, {0}) == 0.0

    def test_star_remove_leaf(self, star4):
        assert fragile(star4, {1}) == 1.0

    def test_double_star_remove_leaf(self, double_star8):
        assert fragile(double_star8, {2}) == 16 / 30

    def test_double_star_remove_hub(self, double_star8):
        assert fragile(double_star8, {0}) == 15 / 30

    def test_empty_removal_matches_centrality(self, double_star8):
        assert fragile(double_star8, ()) == network_degree_centrality(double_star8)

    def test_remove_everything(self, star4):
        assert fragile(star4, {0, 1, 2, 3, 4}) == 0.0

    def test_rejects_unknown_id(self, star4):
        with pytest.raises(ValueError):
            fragile(star4, {99})


# ----- marginal gain -------------------------------------------------------

class TestMarginalGain:
    def test_leaf_gain(self, double_star8):
        assert oracle_marginal_gain(double_star8, (), 2) == 16 / 30 - 18 / 42

    def test_rejects_candidate_in_base(self, double_star8):
        with pytest.raises(ValueError, match="already removed"):
            oracle_marginal_gain(double_star8, {2}, 2)

    def test_matches_two_fragile_calls(self, k4_pendant):
        for base in [(), (1,), (0, 2)]:
            for cand in range(5):
                if cand in base:
                    continue
                expected = (fragile(k4_pendant, set(base) | {cand})
                            - fragile(k4_pendant, base))
                assert oracle_marginal_gain(k4_pendant, base, cand) == expected


# ----- induced subgraph ----------------------------------------------------

class TestInducedSubgraph:
    def test_keeps_labels_and_edges(self, double_star8):
        sub = oracle_induced_subgraph(double_star8, {0, 2, 3, 4})
        assert sub.node_count == 4
        assert sub.labels == ("0", "2", "3", "4")
        assert sub.edge_count == 3  # hub 0 keeps its three leaves

    def test_consistent_with_fragile(self, double_star10):
        removed = {1, 7}
        keep = set(range(10)) - removed
        sub = oracle_induced_subgraph(double_star10, keep)
        assert network_degree_centrality(sub) == fragile(double_star10, removed)

    def test_rejects_unknown_id(self, star4):
        with pytest.raises(ValueError):
            oracle_induced_subgraph(star4, {0, 9})


# ----- non-monotonicity and non-modularity witnesses -----------------------

class TestShapeWitnesses:
    """Fragility can rise or fall, and marginal gains can grow or shrink."""

    def test_removal_can_increase_fragility(self, double_star10):
        assert fragile(double_star10, {0}) == 28 / 56 > 32 / 72

    def test_removal_can_decrease_fragility(self, star4):
        assert fragile(star4, {0}) == 0.0 < 1.0

    def test_gain_can_shrink_with_context(self, double_star10):
        # hub 0 alone helps; after hub 1 is gone it devastates the score
        alone = oracle_marginal_gain(double_star10, (), 0)
        after = oracle_marginal_gain(double_star10, {1}, 0)
        assert alone == 28 / 56 - 32 / 72 > 0
        assert after == 0.0 - 28 / 56
        assert after < alone

    def test_gain_can_grow_with_context(self, k4_pendant):
        # pendant 4 alone hurts; once hub 0 is gone it hurts less
        alone = oracle_marginal_gain(k4_pendant, (), 4)
        after = oracle_marginal_gain(k4_pendant, {0}, 4)
        assert alone == 0.0 - 6 / 12
        assert after == 0.0 - 2 / 6
        assert after > alone


# ----- randomized properties ----------------------------------------------

def _graphs(draw, max_n=11):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, mask) if keep]
    return n, edges


graphs_strategy = st.composite(_graphs)


class TestProperties:
    @given(graphs_strategy())
    def test_matches_summation_oracle(self, ne):
        n, edges = ne
        assert abs(network_degree_centrality(Graph(n, edges))
                   - oracle_centrality(n, edges)) <= 1e-12

    @given(graphs_strategy())
    def test_score_within_unit_interval(self, ne):
        n, edges = ne
        c = network_degree_centrality(Graph(n, edges))
        assert 0.0 <= c <= 1.0

    @given(graphs_strategy())
    def test_one_iff_star(self, ne):
        n, edges = ne
        g = Graph(n, edges)
        c = network_degree_centrality(g)
        if n >= 3:
            is_star = (g.max_degree == n - 1 and g.edge_count == n - 1)
            assert (c == 1.0) == is_star

    @given(graphs_strategy())
    def test_zero_iff_regular(self, ne):
        n, edges = ne
        g = Graph(n, edges)
        c = network_degree_centrality(g)
        if n >= 3:
            assert (c == 0.0) == (len(set(g.degree)) == 1)

    @given(graphs_strategy())
    def test_score_is_exact_rational(self, ne):
        # float result equals the exact rational value of the same counts
        n, edges = ne
        g = Graph(n, edges)
        if n < 3:
            return
        exact = Fraction(n * g.max_degree - 2 * g.edge_count,
                         (n - 1) * (n - 2))
        assert network_degree_centrality(g) == float(exact)

    @given(st.data())
    def test_fragile_matches_oracle(self, data):
        # repeated ids, every node removed, and Graph(0, ()) with none removed
        n, edges = data.draw(st.just((0, [])) | graphs_strategy())
        everyone = list(range(n))
        removed = data.draw(st.just(everyone + everyone[::-1])
                            | st.lists(st.sampled_from(everyone), max_size=2 * n)
                            if n else st.just([]))
        assert fragile(Graph(n, edges), removed) == oracle_fragile(n, edges,
                                                                   removed)

    def test_fragile_matches_oracle_random_sweep(self):
        rng = random.Random(0xF7A6)
        for _ in range(150):
            n = rng.randint(3, 12)
            edges = random_graph_edges(rng, n, rng.uniform(0.15, 0.7))
            g = Graph(n, edges)
            removed = set(rng.sample(range(n), rng.randint(0, n)))
            assert fragile(g, removed) == oracle_fragile(n, edges, removed)
