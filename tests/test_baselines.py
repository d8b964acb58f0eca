"""Static ranking strategies: degree, closeness, betweenness."""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fragility import baselines
from fragility import (Graph, betweenness_ranking, betweenness_scores,
                       closeness_ranking, closeness_scores, complete_graph,
                       cycle_graph, degree_ranking, generate_synthetic,
                       path_graph, star_graph)

from conftest import (oracle_betweenness, oracle_brandes_scores,
                      oracle_closeness_scores, random_graph_edges)


# ----- degree --------------------------------------------------------------

class TestDegree:
    def test_star(self, star4):
        assert star4.degree[0] == 4
        assert degree_ranking(star4) == (0, 1, 2, 3, 4)

    def test_no_strike_excluded(self, star4):
        assert degree_ranking(star4, no_strike={0, 2}) == (1, 3, 4)

    def test_ties_by_ascending_id(self):
        g = cycle_graph(5)
        assert degree_ranking(g) == (0, 1, 2, 3, 4)

    def test_unknown_no_strike(self, star4):
        with pytest.raises(ValueError, match="unknown node id"):
            degree_ranking(star4, no_strike={7})


# ----- closeness -----------------------------------------------------------

class TestCloseness:
    def test_star_center(self, star4):
        # center: 4 peers at distance 1 -> (4/4) * (4/4) = 1
        # leaf: distances 1,2,2,2 = 7 -> (4/4) * (4/7)
        s = closeness_scores(star4)
        assert s[0] == 1.0
        assert s[1] == pytest.approx(4 / 7)

    def test_path4(self, path4):
        s = closeness_scores(path4)
        # ends: 1+2+3=6 -> 3/6; middles: 1+1+2=4 -> 3/4
        assert s[0] == pytest.approx(3 / 6)
        assert s[1] == pytest.approx(3 / 4)
        assert closeness_ranking(path4) == (1, 2, 0, 3)

    def test_disconnected_component_adjustment(self, two_disjoint_edges):
        # each node reaches 1 of 3 peers at distance 1: (1/3) * 1 = 1/3
        s = closeness_scores(two_disjoint_edges)
        assert s == [pytest.approx(1 / 3)] * 4
        assert closeness_ranking(two_disjoint_edges) == (0, 1, 2, 3)

    def test_isolated_node_scores_zero(self):
        g = Graph(3, [(0, 1)])
        assert closeness_scores(g)[2] == 0.0

    def test_small_component_outranked(self):
        # a tight pair should not outrank the hub of a large star just
        # because its average internal distance is 1
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
        s = closeness_scores(g)
        assert s[0] > s[5]

    def test_exact_ties_rank_by_id(self):
        # node 0 has (r, s) = (6, 9), node 7 has (4, 4): both keys are
        # exactly r**2 / s = 4, but their float scores differ in the last bit
        g = Graph(12, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6),
                       (7, 8), (7, 9), (7, 10), (7, 11)])
        s = closeness_scores(g)
        assert s[0] != s[7]
        assert closeness_ranking(g)[:2] == (0, 7)


# ----- betweenness ---------------------------------------------------------

_TIED_EDGES = [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
               (3, 4), (4, 5)]


class TestBetweenness:
    def test_star_center_carries_all_pairs(self, star4):
        s = betweenness_scores(star4)
        assert s[0] == pytest.approx(6.0)  # C(4,2) leaf pairs
        assert s[1] == 0.0

    def test_path4_interiors(self, path4):
        s = betweenness_scores(path4)
        assert s[0] == 0.0
        assert s[1] == pytest.approx(2.0)  # pairs (0,2), (0,3)
        assert s[2] == pytest.approx(2.0)

    def test_cycle_even_split(self):
        # on a 4-cycle each opposite pair has two shortest paths, each
        # interior node carries half a pair
        s = betweenness_scores(cycle_graph(4))
        assert s == [pytest.approx(0.5)] * 4

    def test_matches_enumeration_oracle(self):
        rng = random.Random(0xB0B)
        for _ in range(100):
            n = rng.randint(2, 8)
            edges = random_graph_edges(rng, n, rng.uniform(0.2, 0.8))
            got = betweenness_scores(Graph(n, edges))
            want = oracle_betweenness(n, edges)
            assert got == pytest.approx(want, abs=1e-9)

    def test_ranking_order(self, double_star8):
        assert betweenness_ranking(double_star8)[:2] == (0, 1)  # hubs first

    def test_exact_ties_rank_by_id(self):
        # nodes 1 and 3 both score exactly 11/6, but their floats differ in
        # the last bit, node 1's being the smaller
        g = Graph(6, _TIED_EDGES)
        s = betweenness_scores(g)
        assert s[1] < s[3]
        assert s[1] == pytest.approx(11 / 6) and s[3] == pytest.approx(11 / 6)
        assert betweenness_ranking(g) == (1, 3, 4, 0, 5, 2)
        assert betweenness_ranking(g, no_strike={4}) == (1, 3, 0, 5, 2)


# ----- randomized properties ----------------------------------------------

@st.composite
def _graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [p for p, keep in zip(pairs, mask) if keep]


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(_graphs())
    def test_orders_are_permutations(self, ne):
        n, edges = ne
        g = Graph(n, edges)
        for order in (degree_ranking(g), closeness_ranking(g),
                      betweenness_ranking(g)):
            assert sorted(order) == list(range(n))

    @settings(max_examples=50, deadline=None)
    @given(_graphs())
    def test_scores_sorted_descending_along_order(self, ne):
        # exact ties rank by id, so equal scores whose floats differ in the
        # last bits may rise along the order (see the exact-tie tests)
        n, edges = ne
        g = Graph(n, edges)
        for order, scores in ((degree_ranking(g), g.degree),
                              (closeness_ranking(g), closeness_scores(g)),
                              (betweenness_ranking(g), betweenness_scores(g))):
            vals = [scores[i] for i in order]
            assert all(a >= b or math.isclose(a, b, rel_tol=1e-9)
                       for a, b in zip(vals, vals[1:]))

    @settings(max_examples=50, deadline=None)
    @given(_graphs())
    def test_nonnegative_scores(self, ne):
        n, edges = ne
        g = Graph(n, edges)
        assert all(v >= 0 for v in closeness_scores(g))
        assert all(v >= 0 for v in betweenness_scores(g))

    @settings(max_examples=30, deadline=None)
    @given(_graphs())
    def test_betweenness_total_is_pair_excess(self, ne):
        # summed betweenness counts, per connected pair, the interior length
        # of the shortest path(s): sum = sum over pairs (dist - 1)
        n, edges = ne
        g = Graph(n, edges)
        total = sum(betweenness_scores(g))
        from conftest import oracle_betweenness
        assert total == pytest.approx(sum(oracle_betweenness(n, edges)), abs=1e-9)

    def test_no_strike_does_not_change_scores(self, double_star8):
        full = betweenness_ranking(double_star8)
        masked = betweenness_ranking(double_star8, no_strike={0, 3})
        assert masked == tuple(i for i in full if i not in (0, 3))


# ----- fast passes against the per-source BFS oracles ---------------------

def _assert_no_children():
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_equals_oracles(g):
    assert closeness_scores(g) == oracle_closeness_scores(g)
    assert betweenness_scores(g) == oracle_brandes_scores(g)
    _assert_no_children()


def _pooled(monkeypatch):
    """Make every sweep ask for two workers, whatever its size and the host."""
    monkeypatch.setattr(baselines, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def _spy_forks(monkeypatch) -> list[int]:
    """The pids ``os.fork`` returns in this process, from now on."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _rational_ranking(g, no_strike=()):
    """Targetable nodes by descending exact betweenness, ties by id: for
    every pair s < t, node v carries sigma(s, v) * sigma(v, t) / sigma(s, t)
    when it lies on a shortest s-t path."""
    n = g.node_count
    dist, sigma = [], []
    for s in range(n):
        d, c = {s: 0}, {s: 1}
        level = [s]
        while level:
            nxt = []
            for v in level:
                for w in g.adjacency[v]:
                    if w not in d:
                        d[w] = d[v] + 1
                        c[w] = 0
                        nxt.append(w)
                    if d[w] == d[v] + 1:
                        c[w] += c[v]
            level = nxt
        dist.append(d)
        sigma.append(c)
    score = [Fraction(0)] * n
    for s, t in combinations(range(n), 2):
        if t in dist[s]:
            for v in range(n):
                if (v not in (s, t) and v in dist[s]
                        and dist[s][v] + dist[v][t] == dist[s][t]):
                    score[v] += Fraction(sigma[s][v] * sigma[v][t], sigma[s][t])
    return tuple(sorted((v for v in range(n) if v not in no_strike),
                        key=lambda v: (-score[v], v)))


def _fifo_paths(adj, s):
    """``_paths`` by a plain FIFO-queue BFS, with each ``pred`` list sorted,
    and the distance of every node (-1 unreached)."""
    n = len(adj)
    sigma = [0] * n
    dist = [-1] * n
    pred = [None] * n
    sigma[s] = 1
    dist[s] = 0
    found = []
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                pred[w] = []
                found.append(w)
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                pred[w].append(v)
    return found, sigma, [None if p is None else sorted(p) for p in pred], dist


def _direction_plan(adj, s):
    """Adjacency entries a search from ``s`` reads, and its bottom-up
    levels, by the rule of ``_paths``: a level is found bottom-up, by every
    still unfound node reading its own neighbours, when the frontier holds
    more nodes than remain unfound; otherwise the frontier's nodes read
    theirs.  The search stops once every node is found."""
    found, _, _, dist = _fifo_paths(adj, s)
    unfound = [v for v in range(len(adj)) if v != s]
    frontier, d, reads, up = [s], 1, 0, 0
    while frontier and unfound:
        if len(frontier) > len(unfound):
            up += 1
            reads += sum(len(adj[w]) for w in unfound)
        else:
            reads += sum(len(adj[v]) for v in frontier)
        frontier = [w for w in found if dist[w] == d]
        unfound = [w for w in unfound if dist[w] != d]
        d += 1
    return reads, up


class _CountedReads(tuple):
    """An adjacency that counts the entries read through it."""

    entries = 0

    def __getitem__(self, v):
        row = tuple.__getitem__(self, v)
        self.entries += len(row)
        return row


def _assert_fifo(adj, s):
    """``_paths`` from ``s`` equals the FIFO queue's and reads what the
    rule says; returns the search's bottom-up level count."""
    counted = _CountedReads(adj)
    found, sigma, pred = baselines._paths(counted, s)
    want_found, want_sigma, want_pred, _ = _fifo_paths(adj, s)
    assert found == want_found
    assert sigma == want_sigma
    assert [None if p is None else sorted(p) for p in pred] == want_pred
    reads, up = _direction_plan(adj, s)
    assert counted.entries == reads
    return up


# levels from source 0: 5..14; then 15, 2, 3, 4, 1 (3 and 4 share their
# first parent 7, and 2's parents are 6 and 13); then 17, 16, 18 (16's
# parents are 1 and 2, and it shares 18's first parent 2); then 19
_BOTTOM_UP_EDGES = ([(0, v) for v in range(5, 15)]
                    + [(15, 5), (2, 6), (2, 13), (3, 7), (4, 7), (4, 12),
                       (1, 9), (3, 4), (5, 6), (17, 15), (16, 2), (16, 1),
                       (18, 2), (19, 18), (19, 16)])


class TestPaths:
    """The BFS behind both Brandes passes finds what a FIFO queue finds,
    in the same order, top-down and bottom-up."""

    def test_levels_found_bottom_up_keep_the_fifo_order(self):
        adj = Graph(20, _BOTTOM_UP_EDGES).adjacency
        found, _, _ = baselines._paths(adj, 0)
        assert found == [*range(5, 15), 15, 2, 3, 4, 1, 17, 16, 18, 19]
        assert _assert_fifo(adj, 0) == 3
        for s in range(1, 20):
            _assert_fifo(adj, s)

    def test_random_corpus(self):
        # sparse draws leave graphs disconnected and nodes isolated, and the
        # last nodes of each graph are isolated
        rng = random.Random(0xB0770)
        ups = []
        for _ in range(150):
            n = rng.randint(1, 30)
            edges = random_graph_edges(rng, n, rng.uniform(0.02, 0.7))
            adj = Graph(n + rng.randint(0, 2), edges).adjacency
            for s in range(len(adj)):
                up = _assert_fifo(adj, s)
                unreached = len(adj) - 1 - len(baselines._paths(adj, s)[0])
                ups.append((up, unreached > 0))
        assert (1, False) in ups and (1, True) in ups
        assert any(up >= 2 for up, _ in ups)

    def test_scale_free_paper_size(self):
        adj = generate_synthetic("scale-free", 1133, 5541, seed=1).adjacency
        for s in range(0, 1133, 37):
            assert _assert_fifo(adj, s) >= 1


class TestBitIdenticalToOracles:
    """The Brandes sweep in-process; the subclass runs it in workers."""

    @pytest.fixture(autouse=True)
    def sweep(self, monkeypatch):
        monkeypatch.setattr(baselines, "_POOL_MIN_WORK", math.inf)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_graphs(max_n=14))
    def test_random_graphs(self, ne):
        _assert_equals_oracles(Graph(*ne))

    @pytest.mark.parametrize("n", range(1, 61))
    def test_paths_and_cycles(self, n):
        _assert_equals_oracles(path_graph(n))
        if n >= 3:
            _assert_equals_oracles(cycle_graph(n))

    def test_complete_graph(self):
        _assert_equals_oracles(complete_graph(30))

    def test_scale_free_paper_size(self):
        _assert_equals_oracles(
            generate_synthetic("scale-free", 1133, 5541, seed=1))

    def test_ranking_equals_rational_oracle(self):
        # cycles tie every node; the random graphs tie some
        rng = random.Random(0xE4AC7)
        graphs = [cycle_graph(n) for n in (3, 4, 7, 12, 40)]
        graphs += [Graph(6, _TIED_EDGES), complete_graph(9)]
        for _ in range(60):
            n = rng.randint(2, 12)
            graphs.append(Graph(n, random_graph_edges(rng, n, rng.uniform(0.15, 0.6))))
        for g in graphs:
            assert betweenness_ranking(g) == _rational_ranking(g)
            assert betweenness_ranking(g, {0}) == _rational_ranking(g, {0})
        _assert_no_children()


class TestBitIdenticalPooled(TestBitIdenticalToOracles):
    """Every sweep over two forked workers, whatever its size and the host."""

    @pytest.fixture(autouse=True)
    def sweep(self, monkeypatch):
        _pooled(monkeypatch)
        forks = _spy_forks(monkeypatch)
        yield forks
        assert forks

    # hypothesis runs each test function from one class only
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_graphs(max_n=14))
    def test_random_graphs(self, ne):
        _assert_equals_oracles(Graph(*ne))

    def test_exact_ties_rank_by_id(self, sweep):
        # the float pass, then the exact pass, each through two workers
        assert betweenness_ranking(Graph(6, _TIED_EDGES)) == (
            1, 3, 4, 0, 5, 2)
        assert len(sweep) == 4
        _assert_no_children()


def _forbid_fork(monkeypatch):
    """Make every sweep ask for two workers, and fail if one forks."""
    _pooled(monkeypatch)

    def no_fork():
        raise AssertionError("the sweep forked")

    monkeypatch.setattr(os, "fork", no_fork)


def test_one_cpu_sweeps_in_process(monkeypatch):
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    g = generate_synthetic("scale-free", 300, 1470, seed=1)
    assert betweenness_scores(g) == oracle_brandes_scores(g)


def test_other_threads_sweep_in_process(monkeypatch):
    # fork would copy only this thread
    _forbid_fork(monkeypatch)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    waiter.start()
    try:
        g = cycle_graph(40)
        assert betweenness_scores(g) == oracle_brandes_scores(g)
    finally:
        done.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


def _cycle_scores_and_forks(n):
    # the pool worker that runs this is discarded, patch and all
    forks = _spy_forks(pytest.MonkeyPatch())
    return betweenness_scores(cycle_graph(n)), len(forks)


def test_pool_worker_sweeps_in_workers(monkeypatch):
    # a daemonic multiprocessing worker forks the sweep's workers like any
    # other process, and reaps them
    _pooled(monkeypatch)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got, forks = pool.apply_async(_cycle_scores_and_forks, (40,)).get(
            timeout=60)
    assert got == oracle_brandes_scores(cycle_graph(40))
    assert forks == 2


def _collector_on(adj, s):
    return gc.isenabled()


def test_only_workers_turn_off_the_cyclic_collector(monkeypatch):
    monkeypatch.setattr(baselines, "_POOL_MIN_WORK", math.inf)
    assert list(baselines._sweep(_collector_on, cycle_graph(6))) == [True] * 6
    _pooled(monkeypatch)
    forks = _spy_forks(monkeypatch)
    assert list(baselines._sweep(_collector_on, cycle_graph(6))) == [False] * 6
    assert len(forks) == 2 and gc.isenabled()
    _assert_no_children()


def _fail_in_worker(parent: int, bad: int):
    """A per-source function that raises on source ``bad`` in a worker."""
    def per_source(adj, s):
        if s == bad and os.getpid() != parent:
            raise ValueError(f"source {s}")
        return s
    return per_source


@pytest.fixture
def deadline():
    """Fail, instead of waiting, a test whose sweep hangs for 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the sweep hung")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("bad", [0, 3, 39])
def test_worker_failure_raises_in_parent(monkeypatch, capfd, deadline, bad):
    # the sources before the failed one arrive in order, then the sweep
    # raises instead of waiting for the lost result or stopping short
    _pooled(monkeypatch)
    got = []
    with pytest.raises(RuntimeError, match="worker stopped"):
        for s in baselines._sweep(_fail_in_worker(os.getpid(), bad),
                                  cycle_graph(40)):
            got.append(s)
    assert got == list(range(bad))
    _assert_no_children()
    assert f"ValueError: source {bad}" in capfd.readouterr().err


def test_closing_the_sweep_early_reaps_every_worker(monkeypatch, deadline):
    _pooled(monkeypatch)
    forks = _spy_forks(monkeypatch)
    g = generate_synthetic("scale-free", 300, 1470, seed=1)
    sweep = baselines._sweep(baselines._dependencies, g)
    assert next(sweep) == baselines._dependencies(g.adjacency, 0)
    sweep.close()
    assert len(forks) == 2
    _assert_no_children()


_ATEXIT_SCRIPT = """\
import atexit, os, sys
from fragility import baselines, cycle_graph

def record():
    with open(sys.argv[1], "a") as out:
        out.write(f"{os.getpid()}\\n")

atexit.register(record)
baselines._POOL_MIN_WORK = 0
os.sched_getaffinity = lambda pid: {0, 1}
baselines.betweenness_ranking(cycle_graph(40))  # both passes, in workers
print(os.getpid())
"""


def test_workers_skip_the_parents_atexit_handlers(tmp_path):
    # a worker that ran them would, in the benchmark's launcher, overwrite
    # the parent's peak-memory record
    record = tmp_path / "atexit.txt"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", _ATEXIT_SCRIPT, str(record)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert record.read_text().split() == [out.stdout.strip()]
