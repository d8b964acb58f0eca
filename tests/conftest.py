"""Shared fixtures and independent oracles.

Most oracle functions here deliberately avoid the library: they operate on a
raw ``(n, edges)`` description with straightforward (slow) algorithms, so
library results can be checked against an implementation that shares no
code with them.  ``oracle_removal_value`` and ``oracle_greedy_steps`` are
the exception: they are the greedy round that prices every candidate on a
``DegreeTracker``, kept as the reference for the closed-form rounds of
``iter_greedy_steps``.  They read its ``alive`` and ``deg``, not its
``count``: ``oracle_degree_tally`` counts the alive nodes at each degree
for them, and is the reference for ``count`` too.  ``oracle_exact_opt``
scores every subset with the library-free ``oracle_fragile``, the reference
for ``fragile`` and for the branch and bound of ``exact_opt``; its scan,
``oracle_best_removal``, takes any score.  ``oracle_rows`` and
``oracle_domains`` spell out the binary program's row families 3-12 from the
``ip_model`` docstring, naming each variable through ``var_name`` without
reading the module's row table or name layer.  ``oracle_emit_lp`` renders one
linearized model from them in a single pass, term by term, the reference
for the name-table writer behind ``emit_lp`` and ``write_lp_family``; it
has its own term, coefficient and wrap helpers, so it shares no rendering
code with ``ip_model``, and only its objective scale comes from
``ip_model._scale``.  As ``emit_lp`` must equal it byte for byte, the
HiGHS tests, which solve these rows, solve what ``emit-ip`` writes.
``oracle_check_feasible`` walks the same rows and domains, the reference
for ``check_feasible``.  ``oracle_evaluate_objective`` and
``InfeasibleAssignmentError`` evaluate a checked assignment's objective,
which only tests need.
``oracle_closeness_scores`` and ``oracle_brandes_scores`` are the per-source
queue BFS passes that ``closeness_scores`` and ``betweenness_scores`` used to
run; they read ``Graph.adjacency`` in the library's order, so the fast passes
must equal them float for float.  ``oracle_parse_edge_list`` is the parser
that split every record with a regex and deduplicated through a set of
tuples, the reference for the one-pass ``parse_edge_list``.
``oracle_parse_no_strike`` is the no-strike resolver that mapped each line's
label through a dict over every graph label as it read, so its first bad
line, unknown label or not, is the reference for the error order of
``parse_no_strike``, which resolves its labels only after reading them.
``oracle_graph`` checks every edge and adds it to two growing sets, which
it sorts at the end, the reference for the list-then-sort build of
``Graph`` and its ascending neighbour tuples.  ``oracle_marginal_gain`` and
``oracle_induced_subgraph`` are the gain of one more removal and the
reindexed subgraph on kept nodes, which no solver needs; the tests of the
score's shape read them.
"""

from __future__ import annotations

import random
import re
import warnings
from collections import deque
from itertools import combinations

import pytest

from fragility import DegreeTracker, Graph, RemovalSolution, check_feasible
from fragility import graph as graph_module, ip_model
from fragility.io import DuplicateEdgeWarning, EdgeListError

# Populated by tests/test_acceptance.py; echoed after the run so the
# per-criterion verdict lines are visible in normal pytest output.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ----- independent oracles -------------------------------------------------

def oracle_centrality(n: int, edges: list[tuple[int, int]]) -> float:
    """Per-node summation form: sum_i (d_max - d_i) / ((N-1)(N-2))."""
    if n < 3:
        return 0.0
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    d_max = max(deg)
    return sum(d_max - d for d in deg) / ((n - 1) * (n - 2))


def oracle_fragile(n: int, edges: list[tuple[int, int]], removed) -> float:
    """Rebuild the surviving graph explicitly, then score it."""
    removed = set(removed)
    survivors = sorted(set(range(n)) - removed)
    remap = {old: new for new, old in enumerate(survivors)}
    kept = [(remap[u], remap[v]) for u, v in edges
            if u not in removed and v not in removed]
    return oracle_centrality(len(survivors), kept)


def oracle_betweenness(n: int, edges: list[tuple[int, int]]) -> list[float]:
    """Literal enumeration of every shortest path for every unordered pair.

    For each pair, all shortest paths are generated as explicit node
    sequences; each interior appearance contributes 1/num_paths.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def all_shortest_paths(s: int, t: int) -> list[list[int]]:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if t not in dist:
            return []
        paths = []

        def walk(node, acc):
            if node == s:
                paths.append([s] + acc[::-1])
                return
            for p in adj[node]:
                if p in dist and dist[p] == dist[node] - 1:
                    walk(p, acc + [node])

        walk(t, [])
        return paths

    bet = [0.0] * n
    for s, t in combinations(range(n), 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        share = 1.0 / len(paths)
        for path in paths:
            for interior in path[1:-1]:
                bet[interior] += share
    return bet


def oracle_closeness_scores(graph: Graph) -> list[float]:
    """Closeness from one queue BFS per source, the reference for the
    bit-parallel ball growth of ``closeness_scores``."""
    n = graph.node_count
    out = []
    for i in range(n):
        dist = [-1] * n
        dist[i] = 0
        queue = deque([i])
        while queue:
            v = queue.popleft()
            for w in graph.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        reach = [d for j, d in enumerate(dist) if j != i and d >= 0]
        r = len(reach)
        s = sum(reach)
        out.append(0.0 if r == 0 or s == 0 else (r / (n - 1)) * (r / s))
    return out


def oracle_brandes_scores(graph: Graph) -> list[float]:
    """Brandes over a queue BFS with a predecessor list per node, the
    reference for the level-list pass of ``betweenness_scores``."""
    n = graph.node_count
    bet = [0.0] * n
    for s in range(n):
        stack: list[int] = []
        pred: list[list[int]] = [[] for _ in range(n)]
        sigma = [0] * n
        dist = [-1] * n
        sigma[s] = 1
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in graph.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    pred[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in pred[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bet[w] += delta[w]
    return [b / 2.0 for b in bet]


def oracle_degree_tally(tracker: DegreeTracker) -> list[int]:
    """Alive nodes at each degree ``0 .. len(tracker.count) - 1``, counted
    from ``alive`` and ``deg`` alone, the reference for ``tracker.count``."""
    tally = [0] * len(tracker.count)
    for alive, d in zip(tracker.alive, tracker.deg):
        if alive:
            tally[d] += 1
    return tally


def oracle_removal_value(tracker: DegreeTracker, i: int,
                         tally: list[int] | None = None) -> float:
    """Centralization after additionally removing alive node ``i``.

    ``tally`` is ``oracle_degree_tally(tracker)``, which a caller pricing
    many nodes of one state may pass in instead of recounting it each time.
    """
    n2 = tracker.n_alive - 1
    if n2 < 3:
        return 0.0
    if tally is None:
        tally = oracle_degree_tally(tracker)
    # count, per degree, how removing i moves alive nodes between levels
    delta = {tracker.deg[i]: -1}
    for j in tracker.graph.adjacency[i]:
        if tracker.alive[j]:
            dj = tracker.deg[j]
            delta[dj] = delta.get(dj, 0) - 1
            delta[dj - 1] = delta.get(dj - 1, 0) + 1
    top = tracker.max_deg
    while top > 0 and tally[top] + delta.get(top, 0) <= 0:
        top -= 1
    m2 = tracker.m_alive - tracker.deg[i]
    return (n2 * top - 2 * m2) / ((n2 - 1) * (n2 - 2))


def oracle_greedy_steps(graph: Graph, no_strike, k: int) -> list[tuple[int, float]]:
    """Greedy steps found by pricing every alive candidate each round.

    Candidates are scanned in ascending id order and an incumbent is
    displaced only by a strictly greater gain, so the lowest id among
    maximal scorers wins; zero gains are accepted.
    """
    ns = frozenset(no_strike or ())
    tracker = DegreeTracker(graph)
    steps: list[tuple[int, float]] = []
    while len(steps) < k:
        base = tracker.centrality()
        best = -1
        best_gain = 0.0
        tally = oracle_degree_tally(tracker)
        for i in range(graph.node_count):
            if not tracker.alive[i] or i in ns:
                continue
            gain = oracle_removal_value(tracker, i, tally) - base
            if gain > best_gain or (best < 0 and gain >= best_gain):
                best = i
                best_gain = gain
        if best < 0:
            break
        tracker.remove(best)
        steps.append((best, tracker.centrality()))
    return steps


def oracle_best_removal(pool: list[int], k: int, score) -> tuple[int, ...]:
    """Best tuple found by scoring every subset of ``pool`` of size 0..k.

    Sizes are scanned in increasing order and each size in lexicographic
    order; an incumbent is displaced by a greater ``score``, or by an equal
    one from a larger set.
    """
    best: tuple[int, ...] = ()
    best_val = score(())
    for size in range(1, min(k, len(pool)) + 1):
        for combo in combinations(pool, size):
            val = score(combo)
            if val > best_val or (val == best_val and size > len(best)):
                best = combo
                best_val = val
    return best


def oracle_exact_opt(graph: Graph, no_strike, k: int) -> RemovalSolution:
    """``oracle_best_removal`` on ``oracle_fragile``, as a solution."""
    ns = frozenset(no_strike or ())
    pool = [i for i in range(graph.node_count) if i not in ns]
    n, edges = graph.node_count, graph.edges()
    best = oracle_best_removal(pool, k,
                               lambda combo: oracle_fragile(n, edges, combo))
    trace = [oracle_fragile(n, edges, best[:j]) for j in range(len(best) + 1)]
    return RemovalSolution(best, tuple(trace), trace[-1])


def _oracle_fmt_coef(c: float) -> str:
    if float(c).is_integer():
        return str(int(c))
    return repr(float(c))


def _oracle_join_terms(terms: list[tuple[float, str]]) -> list[str]:
    """Terms as LP-format tokens with explicit signs."""
    tokens: list[str] = []
    for coef, name in terms:
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1 else f"{_oracle_fmt_coef(mag)} {name}"
        if not tokens and sign == "+":
            tokens.append(body)
        else:
            tokens.append(f"{sign} {body}")
    if not tokens:
        tokens.append(f"0 {terms[0][1]}" if terms else "0")
    return tokens


def _oracle_wrap(prefix: str, tokens: list[str], width: int = 72) -> list[str]:
    lines: list[str] = []
    cur = prefix
    for tok in tokens:
        candidate = f"{cur} {tok}" if cur else f" {tok}"
        if len(candidate) > width and cur != prefix:
            lines.append(cur)
            cur = f"   {tok}"
        else:
            cur = candidate
    lines.append(cur)
    return lines


def var_name(model, prefix: str, item) -> str:
    """The variable ``prefix`` names for node ``item``, or for edge ``item``
    given as its pair of node ids: ``X_a``, ``Z_a``, ``Y_a_b``, ``Qf_a_b``
    and ``Qb_a_b`` over the sanitized labels."""
    labels = model.var_labels
    if isinstance(item, tuple):
        return f"{prefix}_{labels[item[0]]}_{labels[item[1]]}"
    return f"{prefix}_{labels[item]}"


def oracle_variable_names(model) -> list[str]:
    """Every variable in model order: X per node, Z per node, then each
    edge's Y, Qf and Qb."""
    nodes = range(model.n_nodes)
    return ([var_name(model, "X", i) for i in nodes]
            + [var_name(model, "Z", i) for i in nodes]
            + [var_name(model, p, e) for e in model.edges for p in ("Y", "Qf", "Qb")])


def oracle_rows(model) -> list[tuple]:
    """Rows of families 3-9 and 11 of the ``ip_model`` docstring, in model
    order, as ``(rid, terms, sense, rhs)`` with ``(coefficient, name)``
    terms."""
    xs = [var_name(model, "X", i) for i in range(model.n_nodes)]
    zs = [var_name(model, "Z", i) for i in range(model.n_nodes)]
    budget = model.k if model.removal_count is None else model.removal_count
    per_family: dict[int, list[tuple]] = {f: [] for f in range(5, 10)}
    for u, v in model.edges:
        ab = f"{model.var_labels[u]}_{model.var_labels[v]}"
        y, qf, qb = f"Y_{ab}", f"Qf_{ab}", f"Qb_{ab}"
        per_family[5].append((f"c5_{ab}", ((1.0, y), (1.0, xs[u])), "<=", 1.0))
        per_family[6].append((f"c6_{ab}", ((1.0, y), (1.0, xs[v])), "<=", 1.0))
        per_family[7].append((f"c7_{ab}", ((1.0, y), (1.0, xs[u]), (1.0, xs[v])),
                              ">=", 1.0))
        per_family[8].append((f"c8_{ab}", ((1.0, qf), (1.0, qb), (-1.0, y)), "<=", 0.0))
        per_family[9].append((f"c9_{ab}", ((1.0, qf), (1.0, qb), (-1.0, zs[u]),
                                           (-1.0, zs[v])), "<=", 0.0))
    return [("c3", tuple((1.0, x) for x in xs), "<=", float(budget)),
            ("c4", tuple((1.0, z) for z in zs), "=", 1.0),
            *(row for f in range(5, 10) for row in per_family[f]),
            *((f"c11_{model.var_labels[i]}", ((1.0, xs[i]),), "=", 0.0)
              for i in sorted(model.no_strike))]


def oracle_domains(model) -> list[tuple[str, str, str]]:
    """Families 10 and 12 as ``(rid, name, kind)``: Z per node, then X per
    unprotected node, ``"unit"`` when relaxed and ``"binary"`` otherwise.
    Each edge's Y, Qf and Qb stay binary and are not counted here."""
    kind = "unit" if model.relaxed else "binary"
    labels = model.var_labels
    return ([(f"c10_{labels[i]}", var_name(model, "Z", i), kind)
             for i in range(model.n_nodes)]
            + [(f"c12_{labels[i]}", var_name(model, "X", i), kind)
               for i in range(model.n_nodes) if i not in model.no_strike])


def oracle_check_feasible(model, values) -> tuple[bool, tuple[str, ...]]:
    """``(ok, violations)`` of ``values`` over ``oracle_rows``, then
    ``oracle_domains``, then each edge's binaries, the reference for
    ``check_feasible``."""
    eps = 1e-9
    violations = []
    for rid, terms, sense, rhs in oracle_rows(model):
        lhs = sum(c * values[name] for c, name in terms)
        holds = {"<=": lhs <= rhs + eps, ">=": lhs >= rhs - eps,
                 "=": abs(lhs - rhs) <= eps}[sense]
        if not holds:
            violations.append(f"{rid}: {lhs:g} {sense} {rhs:g} fails")
    edge_binaries = [(f"dom_{name}", name, "binary")
                     for name in oracle_variable_names(model)[2 * model.n_nodes:]]
    for rid, name, kind in oracle_domains(model) + edge_binaries:
        x = values[name]
        if kind == "binary" and min(abs(x), abs(x - 1)) > eps:
            violations.append(f"{rid}: {name}={x:g} not binary")
        elif kind == "unit" and not -eps <= x <= 1 + eps:
            violations.append(f"{rid}: {name}={x:g} outside [0, 1]")
    return not violations, tuple(violations)


class InfeasibleAssignmentError(ValueError):
    """Raised when an assignment offered for evaluation violates the model."""


def oracle_evaluate_objective(model, values) -> float:
    """Objective value of a feasible assignment.

    For the fractional model this equals ``fragile(graph, R)`` whenever the
    assignment canonically encodes removal set R (degenerate 0.0 when fewer
    than three nodes survive).  For linearized models the folded linear
    objective is evaluated as an external solver would report it.
    """
    report = check_feasible(model, values)
    if not report.ok:
        raise InfeasibleAssignmentError(report.violations[0])
    sx = sum(values[var_name(model, "X", i)] for i in range(model.n_nodes))
    sy = sum(values[var_name(model, "Y", e)] for e in model.edges)
    sq = sum(values[var_name(model, "Qf", e)] + values[var_name(model, "Qb", e)]
             for e in model.edges)
    if all(float(x).is_integer() for x in (sx, sy, sq)):
        sx, sy, sq = int(sx), int(sy), int(sq)
    n, i = model.n_nodes, model.removal_count
    if i is not None:
        numerator = (n - i) * sq - 2 * sy
        if ip_model._scale(model) is None:
            return float(numerator)
        return numerator / ((n - 1 - i) * (n - 2 - i))
    return graph_module._centralization(n - sx, sq, sy)


def oracle_emit_lp(model) -> str:
    """LP text of a linearized model, every row taken from ``oracle_rows``."""
    n = model.n_nodes
    i = model.removal_count
    scale = ip_model._scale(model)
    lines = [
        "\\ fragility centralization removal model",
        f"\\ nodes={n} edges={len(model.edges)} budget={model.k}",
        f"\\ variables={model.variable_count} constraints={model.constraint_count}",
        f"\\ objective: linearized at removal count i={i}"
        + (" (relaxed X/Z)" if model.relaxed else ""),
    ]
    if scale is None:
        lines.append("\\ degenerate instance (fewer than 3 survivors): "
                     "objective left unscaled")
    q_coef = (n - i) * scale if scale is not None else float(n - i)
    y_coef = -2.0 * scale if scale is not None else -2.0
    obj_terms = [(q_coef, var_name(model, p, e)) for e in model.edges
                 for p in ("Qf", "Qb")]
    obj_terms += [(y_coef, var_name(model, "Y", e)) for e in model.edges]
    lines.append("Maximize")
    lines.extend(_oracle_wrap(" obj:", _oracle_join_terms(obj_terms)))
    lines.append("Subject To")
    for rid, terms, sense, rhs in oracle_rows(model):
        tokens = _oracle_join_terms(list(terms))
        tokens.append(f"{sense} {_oracle_fmt_coef(rhs)}")
        lines.extend(_oracle_wrap(f" {rid}:", tokens))
    unit_vars = [name for _, name, kind in oracle_domains(model) if kind == "unit"]
    if unit_vars:
        lines.append("Bounds")
        lines.extend(f" 0 <= {name} <= 1" for name in unit_vars)
    binary_vars = [name for _, name, kind in oracle_domains(model) if kind == "binary"]
    names = oracle_variable_names(model)
    binary_vars += names[2 * n:]
    if binary_vars:
        lines.append("Binary")
        order = {name: pos for pos, name in enumerate(names)}
        lines.extend(f" {name}" for name in sorted(binary_vars, key=order.__getitem__))
    lines.append("End")
    return "\n".join(lines) + "\n"


ORACLE_SPLIT = re.compile(r"[,\s]+")


def oracle_parse_edge_list(text: str) -> Graph:
    """Edge-list text as a Graph: regex split, set dedup, one sort."""
    labels: list[str] = []
    index: dict[str, int] = {}

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    edges: set[tuple[int, int]] = set()
    duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = [p for p in ORACLE_SPLIT.split(body) if p]
        if len(parts) == 1:
            intern(parts[0])
            continue
        if len(parts) != 2:
            raise EdgeListError(lineno, f"expected 1 or 2 labels, got {len(parts)}")
        u, v = parts
        if u == v:
            raise EdgeListError(lineno, f"self-loop on {u!r}")
        key = (intern(u), intern(v))
        if key[0] > key[1]:
            key = (key[1], key[0])
        if key in edges:
            duplicates += 1
        else:
            edges.add(key)
    if duplicates:
        warnings.warn(DuplicateEdgeWarning(
            f"collapsed {duplicates} duplicate edge record(s)"), stacklevel=2)
    return Graph(len(labels), sorted(edges), labels=tuple(labels))


def oracle_parse_no_strike(text: str, graph: Graph) -> frozenset[int]:
    """No-strike text as node ids, each line resolved as it is read."""
    ids = {lab: i for i, lab in enumerate(graph.labels)}
    members: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = [p for p in ORACLE_SPLIT.split(body) if p]
        if len(parts) != 1:
            raise EdgeListError(lineno, "expected exactly one label per line")
        if parts[0] not in ids:
            raise EdgeListError(lineno, f"unknown node label {parts[0]!r}")
        members.add(ids[parts[0]])
    return frozenset(members)


def oracle_marginal_gain(graph: Graph, base, candidate: int) -> float:
    """The score after removing ``base | {candidate}`` less the score after
    removing ``base``, both from ``oracle_fragile``; the candidate must not
    already be in the base set, and the library's check rejects unknown ids."""
    base = frozenset(base)
    if candidate in base:
        raise ValueError(f"candidate {candidate} is already removed")
    after = graph_module._node_set(graph.node_count, base | {candidate})
    n, edges = graph.node_count, graph.edges()
    return oracle_fragile(n, edges, after) - oracle_fragile(n, edges, base)


def oracle_induced_subgraph(graph: Graph, keep) -> Graph:
    """Subgraph on ``keep``, reindexed densely in id order with labels
    preserved, built by ``fragility.graph.Graph`` as it is when called."""
    order = sorted(graph_module._node_set(graph.node_count, keep))
    remap = {old: new for new, old in enumerate(order)}
    edges = [(remap[u], remap[v]) for u, v in graph.edges()
             if u in remap and v in remap]
    return graph_module.Graph(len(order), edges,
                              labels=[graph.labels[i] for i in order])


def oracle_graph(n: int, edges) -> tuple:
    """Adjacency (each node's neighbours in ascending order), degree, edge
    count and max degree from adding every edge to two growing sets."""
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references an unknown node id")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if v in adjacency[u]:
            raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
        adjacency[u].add(v)
        adjacency[v].add(u)
    degree = tuple(len(a) for a in adjacency)
    return ([tuple(sorted(a)) for a in adjacency], degree, sum(degree) // 2,
            max(degree, default=0))


def graph_shape(g: Graph) -> tuple:
    """``g`` in the form ``oracle_graph`` returns."""
    return ([tuple(a) for a in g.adjacency], g.degree, g.edge_count, g.max_degree)


def random_graph_edges(rng: random.Random, n: int,
                       density: float) -> list[tuple[int, int]]:
    return [(u, v) for u, v in combinations(range(n), 2)
            if rng.random() < density]


# ----- fixture graphs (expected values frozen from hand arithmetic) --------

@pytest.fixture
def star4() -> Graph:
    """K_{1,4}: hub 0, leaves 1..4.  Centralization exactly 1."""
    return Graph(5, [(0, i) for i in range(1, 5)])


@pytest.fixture
def double_star8() -> Graph:
    """Hubs 0,1 adjacent; 0-{2,3,4}; 1-{5,6,7}.  Centralization 18/42."""
    return Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])


@pytest.fixture
def double_star10() -> Graph:
    """Hubs 0,1 adjacent; 0-{2..5}; 1-{6..9}.  Centralization 32/72."""
    return Graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                      (1, 6), (1, 7), (1, 8), (1, 9)])


@pytest.fixture
def k4_pendant() -> Graph:
    """K4 on 0..3 plus pendant 4 attached to 0.  Centralization 6/12."""
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])


@pytest.fixture
def path4() -> Graph:
    """Path 0-1-2-3.  Centralization 1/3."""
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_disjoint_edges() -> Graph:
    return Graph(4, [(0, 1), (2, 3)])
