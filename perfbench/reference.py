"""Reference results computed apart from the program.

Everything here works on a plain adjacency list (``adj[i]`` is the set of
neighbours of node ``i``) and compares scores in exact integer or rational
arithmetic, so agreement with the program does not depend on how either
side rounds.  Only the float Brandes pass in :func:`betweenness_order` uses
floats, and it hands every near-tie to an exact pass.
"""

from __future__ import annotations

import math
from fractions import Fraction


def score(n: int, top: int, m: int) -> Fraction:
    """Degree centralization ``(n*top - 2m) / ((n-1)(n-2))``; 0 below 3 nodes."""
    if n < 3:
        return Fraction(0)
    return Fraction(n * top - 2 * m, (n - 1) * (n - 2))


def score_after(adj, removed) -> Fraction:
    """Score of the graph left after deleting ``removed``, counted from scratch."""
    gone = set(removed)
    top = twice_m = 0
    for i, nbrs in enumerate(adj):
        if i not in gone:
            d = len(nbrs - gone)
            twice_m += d
            top = max(top, d)
    return score(len(adj) - len(gone), top, twice_m // 2)


class Removal:
    """Surviving degrees under progressive node removal."""

    def __init__(self, adj) -> None:
        self.adj = adj
        self.n = len(adj)
        self.alive = [True] * self.n
        self.deg = [len(a) for a in adj]
        self.m = sum(self.deg) // 2
        self.top = max(self.deg, default=0)
        self.cnt = [0] * (self.top + 1)
        for d in self.deg:
            self.cnt[d] += 1

    def value(self) -> Fraction:
        return score(self.n, self.top, self.m)

    def remove(self, i: int) -> None:
        if not self.alive[i]:
            raise ValueError(f"node {i} removed twice")
        self.alive[i] = False
        self.n -= 1
        self.m -= self.deg[i]
        self.cnt[self.deg[i]] -= 1
        for j in self.adj[i]:
            if self.alive[j]:
                self.cnt[self.deg[j]] -= 1
                self.deg[j] -= 1
                self.cnt[self.deg[j]] += 1
        while self.top > 0 and self.cnt[self.top] == 0:
            self.top -= 1

    def _top_without(self, i: int) -> int:
        nbrs = self.adj[i]
        return max((self.deg[j] - (j in nbrs) for j in range(len(self.adj))
                    if self.alive[j] and j != i), default=0)

    def best_candidate(self, protected) -> tuple[int, Fraction] | None:
        """Alive unprotected node whose removal leaves the highest score,
        lowest id on ties, with that score; None when there is no candidate.

        The top degree after removing ``i`` stays ``top`` while some top node
        lies outside ``i`` and its neighbours; otherwise it is ``top - 1``
        when a neighbour of ``i`` was a top node, and only when ``i`` is the
        sole top node is a scan needed.
        """
        n2 = self.n - 1
        tops = [t for t in range(len(self.adj))
                if self.alive[t] and self.deg[t] == self.top]
        hits: dict[int, int] = {}
        for t in tops:
            hits[t] = hits.get(t, 0) + 1
            for j in self.adj[t]:
                if self.alive[j]:
                    hits[j] = hits.get(j, 0) + 1
        best, best_num = -1, 0
        for i in range(len(self.adj)):
            if not self.alive[i] or i in protected:
                continue
            if n2 < 3:
                num = 0
            else:
                h = hits.get(i, 0)
                if len(tops) > h:
                    d = self.top
                elif h > (self.deg[i] == self.top):
                    d = self.top - 1
                else:
                    d = self._top_without(i)
                num = n2 * d - 2 * (self.m - self.deg[i])
            if best < 0 or num > best_num:
                best, best_num = i, num
        if best < 0:
            return None
        return best, (Fraction(best_num, (n2 - 1) * (n2 - 2)) if n2 >= 3
                      else Fraction(0))


def greedy(adj, protected, k: int) -> list[int]:
    """Greedy removal order: best candidate each round, lowest id on ties,
    zero-gain moves accepted, stopping once every gain is negative."""
    state = Removal(adj)
    chosen: list[int] = []
    while len(chosen) < k:
        pick = state.best_candidate(protected)
        if pick is None or pick[1] < state.value():
            break
        state.remove(pick[0])
        chosen.append(pick[0])
    return chosen


def prefix_scores(adj, order) -> list[Fraction]:
    """``out[b]`` is the score after removing the first ``b`` nodes of ``order``."""
    state = Removal(adj)
    out = [state.value()]
    for i in order:
        state.remove(i)
        out.append(state.value())
    return out


def exhaustive(adj, protected, k: int) -> tuple[tuple[int, ...], Fraction]:
    """Best removal set of size ``0..k`` by depth-first search.

    Ties on value prefer more removals, then the lexicographically smallest
    id tuple (the first one met at its size in preorder).
    """
    n = len(adj)
    pool = [i for i in range(n) if i not in protected]
    k = min(k, len(pool))
    state = Removal(adj)
    deg, cnt, alive = state.deg, state.cnt, state.alive
    best_num: list[int | None] = [None] * (k + 1)
    best_set: list[tuple[int, ...]] = [()] * (k + 1)
    best_num[0] = n * state.top - 2 * state.m if n >= 3 else 0
    chosen: list[int] = []

    def visit(start: int, m: int, top: int) -> None:
        size = len(chosen) + 1
        left = n - size
        for idx in range(start, len(pool)):
            i = pool[idx]
            alive[i] = False
            cnt[deg[i]] -= 1
            for j in adj[i]:
                if alive[j]:
                    cnt[deg[j]] -= 1
                    deg[j] -= 1
                    cnt[deg[j]] += 1
            t = top
            while t > 0 and cnt[t] == 0:
                t -= 1
            m2 = m - deg[i]
            num = left * t - 2 * m2 if left >= 3 else 0
            if best_num[size] is None or num > best_num[size]:
                best_num[size] = num
                best_set[size] = (*chosen, i)
            if size < k:
                chosen.append(i)
                visit(idx + 1, m2, t)
                chosen.pop()
            for j in adj[i]:
                if alive[j]:
                    cnt[deg[j]] -= 1
                    deg[j] += 1
                    cnt[deg[j]] += 1
            cnt[deg[i]] += 1
            alive[i] = True

    if k:
        visit(0, state.m, state.top)
    best: tuple[int, ...] = ()
    best_val = None
    for size in range(k + 1):
        left = n - size
        val = (Fraction(best_num[size], (left - 1) * (left - 2)) if left >= 3
               else Fraction(0))
        if best_val is None or val >= best_val:
            best, best_val = best_set[size], val
    return best, best_val


def subset_count(pool: int, k: int) -> int:
    """Number of removal sets of size 0..k from ``pool`` candidates."""
    return sum(math.comb(pool, j) for j in range(min(k, pool) + 1))


# ----- static rankings -------------------------------------------------------

def degree_order(adj, protected) -> list[int]:
    return sorted((i for i in range(len(adj)) if i not in protected),
                  key=lambda i: (-len(adj[i]), i))


def _layers(adj, src: int):
    """Breadth-first layers from ``src``; returns (dist, order of visit).
    Closeness needs only these, and :func:`_paths` costs twice as much."""
    dist = [-1] * len(adj)
    dist[src] = 0
    order = [src]
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        order += nxt
        frontier = nxt
    return dist, order


def closeness_order(adj, protected) -> list[int]:
    """Order by component-adjusted closeness ``r^2 / ((N-1) s)``, exactly."""
    n = len(adj)
    key = []
    for i in range(n):
        dist, order = _layers(adj, i)
        r = len(order) - 1
        s = sum(dist[j] for j in order)
        key.append(Fraction(r * r, (n - 1) * s) if r and s else Fraction(0))
    return sorted((i for i in range(n) if i not in protected),
                  key=lambda i: (-key[i], i))


def _paths(adj, src: int):
    """Shortest-path DAG from ``src``: visit order, path counts, parents."""
    n = len(adj)
    dist = [-1] * n
    sigma = [0] * n
    parents: list[list[int]] = [[] for _ in range(n)]
    dist[src] = 0
    sigma[src] = 1
    order = [src]
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = d
                    nxt.append(w)
                    sigma[w] = sv
                    parents[w].append(v)
                elif dw == d:
                    sigma[w] += sv
                    parents[w].append(v)
        order += nxt
        frontier = nxt
    return order, sigma, parents


def betweenness_float(adj) -> list[float]:
    """Brandes betweenness in floats, each unordered pair counted once."""
    n = len(adj)
    bet = [0.0] * n
    for s in range(n):
        order, sigma, parents = _paths(adj, s)
        delta = [0.0] * n
        for w in reversed(order):
            coef = (1.0 + delta[w]) / sigma[w]
            for v in parents[w]:
                delta[v] += sigma[v] * coef
            if w != s:
                bet[w] += delta[w]
    return [b / 2.0 for b in bet]


def betweenness_exact(adj, nodes) -> dict[int, Fraction]:
    """Exact betweenness of ``nodes``.

    With ``L`` the lcm of the path counts from a source, ``H[w]`` sums
    ``L/sigma[c] + H[c]`` over the children ``c`` of ``w`` in the
    shortest-path DAG, and the dependency of the source on ``w`` is
    ``sigma[w] * H[w] / L``: integers until the last division.
    """
    n = len(adj)
    want = set(nodes)
    acc = {v: Fraction(0) for v in want}
    for s in range(n):
        order, sigma, parents = _paths(adj, s)
        big_l = math.lcm(*(sigma[v] for v in order))
        h = [0] * n
        for w in reversed(order):
            hw = big_l // sigma[w] + h[w]
            for v in parents[w]:
                h[v] += hw
            if w != s and w in want:
                acc[w] += Fraction(sigma[w] * h[w], big_l)
    return {v: a / 2 for v, a in acc.items()}


def betweenness_order(adj, protected, depth: int) -> list[int]:
    """Order by betweenness, ids ascending on ties, exact over the first
    ``depth + 1`` places: runs of float scores within 1e-9 of each other
    that reach into them are re-ranked by :func:`betweenness_exact`."""
    bet = betweenness_float(adj)
    order = sorted((i for i in range(len(adj)) if i not in protected),
                   key=lambda i: (-bet[i], i))
    runs = []
    start = 0
    while start <= depth and start < len(order):
        end = start + 1
        while end < len(order) and math.isclose(
                bet[order[end - 1]], bet[order[end]], rel_tol=1e-9, abs_tol=1e-9):
            end += 1
        if end - start > 1:
            runs.append((start, end))
        start = end
    if runs:
        exact = betweenness_exact(adj, [v for a, b in runs for v in order[a:b]])
        for a, b in runs:
            order[a:b] = sorted(order[a:b], key=lambda v: (-exact[v], v))
    return order
