"""Integer-programming form of the removal-set optimization, plus LP export.

The model mirrors the solvers' objective: pick at most ``k`` removals outside
the protected set so the surviving network's degree centralization is
maximal.  Encoding, per graph with N nodes and M edges:

* ``X_i``   -- node i is removed (binary; fixed to 0 on protected nodes)
* ``Z_i``   -- node i is the designated top-degree survivor (exactly one)
* ``Y_uv``  -- edge {u, v} survives (forced equal to survival of both ends)
* ``Qf_uv``/``Qb_uv`` -- edge {u, v} is counted toward the designated
  survivor's degree, one variable per direction

The constraint families, with per-edge rows instantiated for every edge:

3. sum X_i <= k (removal budget)
4. sum Z_i  = 1 (one designated survivor)
5. Y_uv + X_u <= 1            (edge dies with endpoint u)
6. Y_uv + X_v <= 1            (edge dies with endpoint v)
7. Y_uv + X_u + X_v >= 1      (edge survives when both endpoints do)
8. Qf_uv + Qb_uv - Y_uv <= 0  (only surviving edges are counted)
9. Qf_uv + Qb_uv - Z_u - Z_v <= 0  (only the designated survivor's edges)
10. Z_i binary
11. X_i = 0 for protected i
12. X_i binary otherwise

Families 8 and 9 each bound both directions in a single row, keeping the
count identity at exactly ``2 + 2N + 5M`` rows and ``2N + 3M`` variables
while still making the binary optimum coincide with the enumeration solver:
Y is pinned to edge survival, so sum(Y) counts surviving edges, and sum(Q)
can reach exactly the designated survivor's surviving degree.

The natural objective is fractional:

    maximize ((N - sum X) * sum Q - 2 * sum Y)
             / ((N - 1 - sum X) * (N - 2 - sum X))

:func:`linearize` fixes the removal count at ``i`` to obtain the linear
objective ``((N - i) * sum Q - 2 * sum Y) / ((N - 1 - i) * (N - 2 - i))``
with the constant denominator folded into the coefficients, and tightens the
budget row to ``sum X <= i``.  Only linearized models can be exported.

:func:`emit_lp` returns one linearized model's text; :func:`write_lp_family`
writes the whole family ``i = 1..k``, one file per model.  Only the header
comments, the objective and the c3 row change with ``i``, so the writer
renders the rest (rows c4..c11, Bounds, Binary) once, section by section,
into the first file, and gives every later file its own head and a byte
copy of that region; each head is written one batch of wrapped lines at a
time, so no model, head or body is held whole.  Both use the same
renderers over variable names built once per model (``_Names``).  The
per-edge rows c5..c9 come from one table, ``_EDGE_ROWS``, which
:func:`check_feasible` reads too; the renderer fills one line template per
family and wraps only rows longer than a line.

The model and the feasibility report are named tuples, so loading this
module does not load ``dataclasses``; the transforms return
``model._replace(...)``.  Rows are plain ``(rid, terms, sense, rhs)``
tuples and an assignment is a dict keyed by variable name.
"""

from __future__ import annotations

import os
import re
import shutil
from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator, Sequence
from itertools import chain, islice

from .graph import Graph, _node_set

_EPS = 1e-9

FeasibilityReport = namedtuple("FeasibilityReport", ("ok", "violations"))


def _sanitize_label(label: str) -> str:
    out = re.sub(r"[^A-Za-z0-9_.]", "_", label)
    return out or "_"


# Per-edge row families c5..c9: id, terms, sense, right-hand side.  A term
# (c, p, k) is coefficient c on the variable named p followed by the edge's
# name ``a_b`` (k = 0) or its endpoint label ``a`` (k = 1) or ``b`` (k = 2).
# ``check_feasible`` and the LP writer both read this table, so checked and
# written rows cannot differ.
_EDGE_ROWS = (
    ("c5", ((1.0, "Y_", 0), (1.0, "X_", 1)), "<=", 1.0),
    ("c6", ((1.0, "Y_", 0), (1.0, "X_", 2)), "<=", 1.0),
    ("c7", ((1.0, "Y_", 0), (1.0, "X_", 1), (1.0, "X_", 2)), ">=", 1.0),
    ("c8", ((1.0, "Qf_", 0), (1.0, "Qb_", 0), (-1.0, "Y_", 0)), "<=", 0.0),
    ("c9", ((1.0, "Qf_", 0), (1.0, "Qb_", 0), (-1.0, "Z_", 1), (-1.0, "Z_", 2)),
     "<=", 0.0),
)


class _Names:
    """A model's variable names, each built once: ``X_a`` and ``Z_a`` per
    node, and per edge its name ``a_b`` and endpoint labels, as
    ``_EDGE_ROWS`` indexes them."""

    def __init__(self, model: IpModel):
        labels = model.var_labels
        self.x = ["X_" + a for a in labels]
        self.z = ["Z_" + a for a in labels]
        self.edges = [(f"{labels[u]}_{labels[v]}", labels[u], labels[v])
                      for u, v in model.edges]


class IpModel(namedtuple("IpModel", ("n_nodes", "var_labels", "edges", "k",
                                     "no_strike", "removal_count", "relaxed"),
                         defaults=(None, False))):
    """Immutable model instance; transforms return new instances.  The
    objective is fractional while ``removal_count`` is None, otherwise
    linear at that fixed removal count i."""

    __slots__ = ()

    @property
    def variable_count(self) -> int:
        return 2 * self.n_nodes + 3 * len(self.edges)

    @property
    def constraint_count(self) -> int:
        return 2 + 2 * self.n_nodes + 5 * len(self.edges)

    def _node_rows(self, names: _Names) -> tuple[tuple[tuple, tuple], list[tuple]]:
        """The rows over node variables as ``(rid, terms, sense, rhs)``, each
        term a ``(coefficient, name)`` pair: c3 and c4, which come before the
        per-edge rows, and the c11 rows, which come after them."""
        budget = self.k if self.removal_count is None else self.removal_count
        c3 = ("c3", [(1.0, x) for x in names.x], "<=", float(budget))
        c4 = ("c4", [(1.0, z) for z in names.z], "=", 1.0)
        return (c3, c4), [(f"c11_{self.var_labels[i]}", ((1.0, names.x[i]),), "=", 0.0)
                          for i in sorted(self.no_strike)]


def build_fragility_ip(graph: Graph, no_strike: Collection[int] | None = None,
                       k: int = 0) -> IpModel:
    """Build the fractional model for ``graph`` with removal budget ``k``."""
    if k < 0 or k > graph.node_count:
        raise ValueError("budget k must lie in 0..N")
    ns = _node_set(graph.node_count, no_strike)
    var_labels = tuple(_sanitize_label(lab) for lab in graph.labels)
    seen: dict[str, str] = {}
    for lab, san in zip(graph.labels, var_labels):
        if san in seen and seen[san] != lab:
            raise ValueError(
                f"labels {seen[san]!r} and {lab!r} collide as variable name {san!r}")
        seen[san] = lab
    edges = graph.edges()
    first: dict[str, tuple[int, int]] = {}
    for u, v in edges:
        other = first.setdefault(f"{var_labels[u]}_{var_labels[v]}", (u, v))
        if other != (u, v):
            a, b = (graph.labels[j] for j in other)
            raise ValueError(
                f"edges ({a!r}, {b!r}) and ({graph.labels[u]!r}, {graph.labels[v]!r}) "
                f"collide as variable name 'Y_{var_labels[u]}_{var_labels[v]}'")
    return IpModel(
        n_nodes=graph.node_count,
        var_labels=var_labels,
        edges=edges,
        k=k,
        no_strike=ns,
    )


def linearize(model: IpModel, i: int) -> IpModel:
    """Fix the removal count at ``i``: linear objective, budget row sum X <= i."""
    if not (1 <= i <= model.k):
        raise ValueError(f"linearization index {i} outside 1..{model.k}")
    return model._replace(removal_count=i)


def _scale(model: IpModel) -> float | None:
    """The linearized objective's folded constant ``1 / ((N-1-i) * (N-2-i))``,
    or None when fewer than three nodes survive i removals: coefficients are
    then emitted unscaled."""
    n, i = model.n_nodes, model.removal_count
    return 1.0 / ((n - 1 - i) * (n - 2 - i)) if n - i >= 3 else None


def relax_bounds(model: IpModel) -> IpModel:
    """Continuous [0, 1] domains for X and Z; edge variables stay binary."""
    return model._replace(relaxed=True)


# ----- assignments ---------------------------------------------------------

def canonical_assignment(model: IpModel, removed: Collection[int],
                         selected: int | None = None) -> dict[str, int]:
    """Feasible assignment encoding ``removed``, as 0/1 values keyed by
    variable name: Y tracks edge survival, Z sits on ``selected`` (default:
    the max-degree survivor, lowest id on ties) and Q routes one unit along
    each of its surviving edges.  Raises ``ValueError`` when ``selected``
    is not the id of a surviving node."""
    removed = _node_set(model.n_nodes, removed)
    for i in removed:
        if i in model.no_strike:
            raise ValueError(f"node {i} is protected and cannot be removed")
    if len(removed) > model.k:
        raise ValueError(f"{len(removed)} removals exceed budget {model.k}")
    deg = [0] * model.n_nodes
    for u, v in model.edges:
        if u not in removed and v not in removed:
            deg[u] += 1
            deg[v] += 1
    survivors = [i for i in range(model.n_nodes) if i not in removed]
    if selected is None:
        selected = max(survivors, key=lambda i: (deg[i], -i)) if survivors else 0
    elif not 0 <= selected < model.n_nodes or selected in removed:
        raise ValueError(f"selected node {selected} is not a surviving node")
    names = _Names(model)
    values: dict[str, int] = {}
    for i, (x, z) in enumerate(zip(names.x, names.z)):
        values[x] = 1 if i in removed else 0
        values[z] = 1 if i == selected else 0
    for (u, v), (ab, _, _) in zip(model.edges, names.edges):
        alive = u not in removed and v not in removed
        values["Y_" + ab] = 1 if alive else 0
        values["Qf_" + ab] = 1 if alive and selected == u else 0
        values["Qb_" + ab] = 1 if alive and selected == v else 0
    return values


def check_feasible(model: IpModel, values: dict[str, float]) -> FeasibilityReport:
    """Verify every row and domain at ``values``, keyed by variable name;
    report all violations by row id: the rows in model order, then the Z
    and X domains, then each edge's Y, Qf and Qb binaries."""
    names = _Names(model)
    per_edge = [p + ab for ab, _, _ in names.edges for p in ("Y_", "Qf_", "Qb_")]
    expected = [*names.x, *names.z, *per_edge]
    missing = [n for n in expected if n not in values]
    if missing or len(values) != len(expected):
        extra = sorted(set(values).difference(expected))
        raise ValueError(
            f"assignment dimension mismatch: missing={missing[:5]} extra={extra[:5]}")
    violations: list[str] = []
    first, last = model._node_rows(names)
    edge_rows = ((f"{fam}_{args[0]}", [(c, p + args[k]) for c, p, k in terms],
                  sense, rhs)
                 for fam, terms, sense, rhs in _EDGE_ROWS for args in names.edges)
    for rid, terms, sense, rhs in chain(first, edge_rows, last):
        lhs = sum(c * values[v] for c, v in terms)
        ok = (lhs <= rhs + _EPS if sense == "<="
              else lhs >= rhs - _EPS if sense == ">="
              else abs(lhs - rhs) <= _EPS)
        if not ok:
            violations.append(f"{rid}: {lhs:g} {sense} {rhs:g} fails")
    labels, binary = model.var_labels, not model.relaxed
    domains = chain(((f"c10_{a}", z, binary) for a, z in zip(labels, names.z)),
                    ((f"c12_{labels[i]}", x, binary) for i, x in enumerate(names.x)
                     if i not in model.no_strike),
                    ((f"dom_{v}", v, True) for v in per_edge))
    for rid, var, is_binary in domains:
        v = values[var]
        if is_binary:
            if not (abs(v) <= _EPS or abs(v - 1) <= _EPS):
                violations.append(f"{rid}: {var}={v:g} not binary")
        elif not (-_EPS <= v <= 1 + _EPS):
            violations.append(f"{rid}: {var}={v:g} outside [0, 1]")
    return FeasibilityReport(not violations, tuple(violations))


# ----- LP-format export ----------------------------------------------------

_WIDTH = 72  # longest LP line written, unless one token is longer


def _fmt_coef(c: float) -> str:
    if float(c).is_integer():
        return str(int(c))
    return repr(float(c))


def _sign(coef: float) -> str:
    """The LP text before a variable name with nonzero coefficient ``coef``:
    its sign and, unless it is 1, its magnitude."""
    mag = abs(coef)
    return ("- " if coef < 0 else "+ ") + ("" if mag == 1 else f"{_fmt_coef(mag)} ")


def _tokens(terms: Iterable[tuple[float, str]], sense: str, rhs: float) -> list[str]:
    """A row's LP tokens: its signed terms, the first without a plus sign,
    then its sense and right-hand side."""
    tokens = [_sign(c) + name for c, name in terms]
    tokens[0] = tokens[0].removeprefix("+ ")
    tokens.append(f"{sense} {_fmt_coef(rhs)}")
    return tokens


def _lines(prefix: str, tokens: Iterable[str]) -> Iterator[str]:
    """``prefix`` and ``tokens`` in lines of at most ``_WIDTH`` columns,
    each yielded, without its newline, as soon as it is full.  A line takes
    its first token whatever its length, then every next token that fits;
    later lines start with three spaces.  No list of all tokens is built."""
    line = [prefix]
    size = len(prefix)
    for tok in tokens:
        size += len(tok) + 1
        if size > _WIDTH and len(line) > 1:
            yield " ".join(line)
            line = ["  ", tok]  # joined, a three-space indent
            size = len(tok) + 3
        else:
            line.append(tok)
    yield " ".join(line)


def _wrap(prefix: str, tokens: Iterable[str]) -> str:
    return "\n".join(_lines(prefix, tokens))


def _row_text(rid: str, terms: Iterable[tuple[float, str]], sense: str,
              rhs: float) -> str:
    return _wrap(f" {rid}:", _tokens(terms, sense, rhs))


def _render_head(model: IpModel, names: _Names) -> Iterator[str]:
    """Header comments, objective and budget row (c3) of a linearized model:
    the part of its LP text that depends on the removal count.  The
    objective comes in batches of wrapped lines, its terms named as they
    are wrapped."""
    n = model.n_nodes
    i = model.removal_count
    scale = _scale(model)
    lines: list[str] = []
    lines.append("\\ fragility centralization removal model")
    lines.append(f"\\ nodes={n} edges={len(model.edges)} budget={model.k}")
    lines.append(f"\\ variables={model.variable_count} constraints={model.constraint_count}")
    lines.append(f"\\ objective: linearized at removal count i={i}"
                 + (" (relaxed X/Z)" if model.relaxed else ""))
    if scale is None:
        lines.append("\\ degenerate instance (fewer than 3 survivors): "
                     "objective left unscaled")
    lines.append("Maximize\n")
    yield "\n".join(lines)
    q_coef = (n - i) * scale if scale is not None else float(n - i)
    y_coef = -2.0 * scale if scale is not None else -2.0
    ab = [e[0] for e in names.edges]
    groups = []  # Qf then Qb per edge, then Y per edge
    if q_coef:
        qf, qb = ((_sign(q_coef) + q).__add__ for q in ("Qf_", "Qb_"))
        groups.append(chain.from_iterable(zip(map(qf, ab), map(qb, ab))))
    if y_coef:
        groups.append(map((_sign(y_coef) + "Y_").__add__, ab))
    tokens = chain.from_iterable(groups)
    first = next(tokens, None)
    wrapped = _lines(" obj:", ["0"] if first is None else
                     chain([first.removeprefix("+ ")], tokens))
    while batch := list(islice(wrapped, 1024)):  # about 74 kB of text
        yield "\n".join(batch) + "\n"
    (c3, _), _ = model._node_rows(names)
    yield f"Subject To\n{_row_text(*c3)}\n"


def _render_body(model: IpModel, names: _Names) -> Iterator[str]:
    """Every row after c3, then Bounds, Binary and End: the same text at
    every removal count.  It is made and yielded row by row, in order: c4,
    the rows of each family c5..c9, the c11 rows, the node domains, the
    per-edge binaries, and End.  Each per-edge family is one line template;
    only a row longer than a line is wrapped, token by token."""
    (_, c4), c11 = model._node_rows(names)
    yield _row_text(*c4) + "\n"
    for fam, terms, sense, rhs in _EDGE_ROWS:
        tokens = _tokens([(c, f"{p}{{{k}}}") for c, p, k in terms], sense, rhs)
        line = f" {fam}_{{0}}: {' '.join(tokens)}\n".format
        for args in names.edges:
            text = line(*args)
            if len(text) > _WIDTH + 1:
                text = _wrap(f" {fam}_{args[0]}:",
                             [t.format(*args) for t in tokens]) + "\n"
            yield text
    for row in c11:
        yield _row_text(*row) + "\n"
    # the domains: Z per node and X per targetable node, unit when relaxed;
    # the Binary section lists X before Z
    free_x = [x for i, x in enumerate(names.x) if i not in model.no_strike]
    if model.relaxed:
        yield "Bounds\n"
        for name in chain(names.z, free_x):
            yield f" 0 <= {name} <= 1\n"
    if not model.relaxed or names.edges:
        yield "Binary\n"
    if not model.relaxed:
        for name in chain(free_x, names.z):
            yield f" {name}\n"
    for ab, _, _ in names.edges:
        yield f" Y_{ab}\n Qf_{ab}\n Qb_{ab}\n"
    yield "End\n"


def emit_lp(model: IpModel) -> str:
    """Serialize a linearized model in LP format, byte-deterministically.

    Fractional models are rejected: call :func:`linearize` first (one model
    per candidate removal count), or :func:`write_lp_family` for all of them.
    """
    if model.removal_count is None:
        raise ValueError(
            "model objective is fractional; call linearize(model, i) for each "
            "removal count i in 1..k and emit those models instead")
    names = _Names(model)
    return "".join(chain(_render_head(model, names), _render_body(model, names)))


def write_lp_family(model: IpModel, paths: Sequence) -> None:
    """Write ``emit_lp(linearize(model, i))`` to ``paths[i - 1]`` for
    ``i = 1..model.k``, in UTF-8.

    Each head is written a batch of wrapped lines at a time.  The body, the
    same at every ``i``, is rendered once, section by section, into the
    first file; every later file gets its own head and then a byte copy of
    that region of the first file.  No model, head or body is held whole in
    memory.  Paths that resolve to one file raise ``ValueError`` before any
    file is opened, since the later one would empty the copy's source.
    """
    if len(paths) != model.k:
        raise ValueError(f"{len(paths)} paths for the {model.k} models i = 1..k")
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise ValueError("two of the paths name one file")
    names = _Names(model)
    for i, path in enumerate(paths, 1):
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(_render_head(linearize(model, i), names))
            if i == 1:
                start = out.tell()  # a byte offset: no decoder state
                out.writelines(_render_body(model, names))
                continue
            out.flush()
            with open(paths[0], "rb") as first:
                first.seek(start)
                shutil.copyfileobj(first, out.buffer)
