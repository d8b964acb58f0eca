"""The reference code against hand-computed values and brute force.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from perfbench import gen, lpread, reference


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [frozenset(a) for a in adj]


STAR = adjacency(6, [(0, i) for i in range(1, 6)])
CYCLE = adjacency(6, [(i, (i + 1) % 6) for i in range(6)])
DOUBLE_STAR = adjacency(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
PATH4 = adjacency(4, [(0, 1), (1, 2), (2, 3)])


def random_graph(rng, n, p):
    return adjacency(n, [(u, v) for u, v in combinations(range(n), 2)
                         if rng.random() < p])


@pytest.mark.parametrize("adj, want", [
    (STAR, Fraction(1)), (CYCLE, Fraction(0)),
    (DOUBLE_STAR, Fraction(18, 42)), (PATH4, Fraction(1, 3)),
])
def test_hand_computed_scores(adj, want):
    assert reference.score_after(adj, ()) == want
    assert reference.Removal(adj).value() == want


def test_two_survivors_score_zero():
    assert reference.score_after(PATH4, (0, 1)) == 0


def test_removal_tracks_scratch_scores():
    rng = random.Random(1)
    for _ in range(30):
        adj = random_graph(rng, 9, 0.35)
        order = rng.sample(range(9), 9)
        got = reference.prefix_scores(adj, order)
        assert got == [reference.score_after(adj, order[:b]) for b in range(10)]


def brute_greedy(adj, protected, k):
    chosen = []
    while len(chosen) < k:
        now = reference.score_after(adj, chosen)
        cands = [i for i in range(len(adj)) if i not in protected and i not in chosen]
        if not cands:
            break
        vals = {i: reference.score_after(adj, chosen + [i]) for i in cands}
        best = min(cands, key=lambda i: (-vals[i], i))
        if vals[best] < now:
            break
        chosen.append(best)
    return chosen


def test_greedy_matches_brute_force():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(3, 10)
        adj = random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
        protected = set(rng.sample(range(n), rng.randint(0, 2)))
        k = rng.randint(0, n)
        assert reference.greedy(adj, protected, k) == brute_greedy(adj, protected, k)


def test_greedy_prefers_lowest_id_on_ties():
    # every leaf of the star scores the same; the lowest id goes first
    assert reference.greedy(STAR, {0}, 2) == [1, 2]


def brute_exact(adj, protected, k):
    pool = [i for i in range(len(adj)) if i not in protected]
    best, best_val = (), reference.score_after(adj, ())
    for size in range(1, min(k, len(pool)) + 1):
        for combo in combinations(pool, size):
            val = reference.score_after(adj, combo)
            if val > best_val or (val == best_val and size > len(best)):
                best, best_val = combo, val
    return best, best_val


def test_exhaustive_matches_brute_force():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 9)
        adj = random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
        protected = set(rng.sample(range(n), rng.randint(0, 2)))
        k = rng.randint(0, 4)
        assert reference.exhaustive(adj, protected, k) == brute_exact(adj, protected, k)


def test_exhaustive_tie_order():
    # two leaves of one hub: the largest value; ties prefer more removals,
    # then the lexicographically smallest tuple
    best, val = reference.exhaustive(DOUBLE_STAR, set(), 2)
    assert (best, val) == ((2, 3), Fraction(7, 10))


def test_subset_count():
    assert reference.subset_count(57, 4) == 425_924


def test_degree_and_closeness_orders():
    assert reference.degree_order(DOUBLE_STAR, {0}) == [1, 2, 3, 4, 5, 6, 7]
    assert reference.closeness_order(PATH4, set()) == [1, 2, 0, 3]
    # a small component's nodes rank below equally central ones of a big one
    adj = adjacency(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert reference.closeness_order(adj, set())[:2] == [1, 2]
    assert reference.closeness_order(adj, set())[-1] == 6


def brute_betweenness(adj):
    n = len(adj)
    dist, sigma = [], []
    for s in range(n):
        order, sig, _ = reference._paths(adj, s)
        d = [-1] * n
        for v in order:
            d[v] = 0 if v == s else min(d[u] for u in adj[v] if d[u] >= 0) + 1
        dist.append(d)
        sigma.append(sig)
    out = []
    for v in range(n):
        total = Fraction(0)
        for s, t in combinations([u for u in range(n) if u != v], 2):
            if dist[s][t] > 0 and dist[s][v] > 0 and dist[v][t] > 0 and \
                    dist[s][v] + dist[v][t] == dist[s][t]:
                total += Fraction(sigma[s][v] * sigma[v][t], sigma[s][t])
        out.append(total)
    return out


def test_betweenness_hand_values():
    assert reference.betweenness_exact(STAR, range(6))[0] == 10
    assert reference.betweenness_exact(PATH4, [1, 2]) == {1: 2, 2: 2}
    cycle = reference.betweenness_exact(CYCLE, range(6))
    assert set(cycle.values()) == {Fraction(2)}


def test_betweenness_matches_pair_enumeration():
    rng = random.Random(4)
    for _ in range(25):
        adj = random_graph(rng, rng.randint(3, 10), rng.choice((0.25, 0.5)))
        want = brute_betweenness(adj)
        exact = reference.betweenness_exact(adj, range(len(adj)))
        floats = reference.betweenness_float(adj)
        assert [exact[v] for v in range(len(adj))] == want
        assert all(abs(f - float(w)) < 1e-9 for f, w in zip(floats, want))


def test_betweenness_order_breaks_exact_ties_by_id():
    assert reference.betweenness_order(CYCLE, set(), 5) == [0, 1, 2, 3, 4, 5]
    assert reference.betweenness_order(DOUBLE_STAR, {1}, 7)[:1] == [0]


def test_generator_is_seeded_and_exact():
    a = gen.make_instance(300, 1400, seed=7, protect_top=5)
    b = gen.make_instance(300, 1400, seed=7, protect_top=5)
    c = gen.make_instance(300, 1400, seed=8, protect_top=5)
    assert a == b and a.edges != c.edges
    assert a.m == 1400 and len(set(a.edges)) == 1400
    assert all(u < v for u, v in a.edges)
    deg = a.degree
    assert min(deg[i] for i in a.protected) >= max(
        deg[i] for i in range(300) if i not in a.protected)


def test_generated_files_declare_nodes_in_id_order(tmp_path):
    inst = gen.make_instance(50, 140, seed=1, protect_top=3)
    graph, protected = gen.write_instance(inst, tmp_path)
    lines = graph.read_text().splitlines()
    assert lines[:50] == [gen.label(i) for i in range(50)]
    assert len(lines) == 50 + 140
    assert protected.read_text().split() == [gen.label(i) for i in sorted(inst.protected)]


LP = """\\ a comment
Maximize
 obj: 0.5 a + 0.25 b
   - c
Subject To
 r1: a + b <= 1
 r2: a - c >= 0
 r3: 2 b + c = 1
Bounds
 0 <= c <= 1
Binary
 a
 b
End
"""


def test_lp_reader_parses_and_evaluates():
    model = lpread.parse(LP)
    assert model.comments == ["a comment"]
    assert model.sense == "maximize"
    assert model.objective == {"a": Fraction(1, 2), "b": Fraction(1, 4), "c": -1}
    assert [r.name for r in model.rows] == ["r1", "r2", "r3"]
    assert model.variables() == {"a", "b", "c"}
    broken, obj = lpread.evaluate(model, {"a": 1, "b": 0, "c": 1})
    assert broken == [] and obj == Fraction(-1, 2)
    broken, _ = lpread.evaluate(model, {"a": 1, "b": 1, "c": 2})
    assert broken == ["r1", "r2", "r3", "bound c"]
    broken, _ = lpread.evaluate(model, {"a": 0, "b": Fraction(1, 2), "c": 0})
    assert broken == ["binary b"]


@pytest.mark.parametrize("text", [
    LP.replace("End\n", ""),
    LP.replace(" r1: a + b <= 1", " r1: a + b 1"),
    LP.replace("Subject To\n", "Subject To\n + d <= 1\n"),
])
def test_lp_reader_rejects_malformed_text(text):
    with pytest.raises(lpread.LpError):
        lpread.parse(text)
