"""Integer-programming form of the removal-set optimization, plus LP export.

The model mirrors the solvers' objective: pick at most ``k`` removals outside
the protected set so the surviving network's degree centralization is
maximal.  Encoding, per graph with N nodes and M edges:

* ``X_i``   -- node i is removed (binary; fixed to 0 on protected nodes)
* ``Z_i``   -- node i is the designated top-degree survivor (exactly one)
* ``Y_uv``  -- edge {u, v} survives (forced equal to survival of both ends)
* ``Qf_uv``/``Qb_uv`` -- edge {u, v} is counted toward the designated
  survivor's degree, one variable per direction

Row families, with per-edge rows instantiated for every edge:

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

:func:`emit_lp` writes one linearized model; :func:`emit_lp_family` yields
the whole family ``i = 1..k``, each model as a tuple of text parts to be
written one after another.  Only the header comments, the objective and
the c3 row change with ``i``, so the family renders the rest (rows c4..c11,
Bounds, Binary) once, in sections, and shares those strings among its
models.  Both use the same renderers, which build every variable name once
per family.  The per-edge rows c5..c9 come from ``_EDGE_ROWS``, the table
``IpModel._iter_rows`` also reads; the renderer fills one line template per
family and wraps only rows longer than a line.

The model and its records are named tuples, so loading this module does
not load ``dataclasses``; the transforms return ``model._replace(...)``.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator
from itertools import chain

from .graph import Graph, _centralization, _node_set

_EPS = 1e-9


class InfeasibleAssignmentError(ValueError):
    """Raised when an assignment offered for evaluation violates the model."""


class Objective(namedtuple("Objective", ("removal_count", "scale"),
                           defaults=(None, None))):
    """Objective description: fractional while ``removal_count`` is None,
    otherwise linear at that fixed removal count i.

    For linear objectives ``scale`` is ``1 / ((N-1-i) * (N-2-i))`` when that
    denominator is positive and the model keeps at least three survivors;
    otherwise ``scale`` is None and coefficients are emitted unscaled.
    """

    __slots__ = ()


# ``terms`` is a tuple of (coefficient, variable name); ``sense`` is "<=",
# ">=" or "="; a domain's ``kind`` is "binary" or "unit"
Row = namedtuple("Row", ("rid", "terms", "sense", "rhs"))
DomainRecord = namedtuple("DomainRecord", ("rid", "var", "kind"))
FeasibilityReport = namedtuple("FeasibilityReport", ("ok", "violations"))


class IpAssignment(namedtuple("IpAssignment", ("values",))):
    """Variable values keyed by LP variable name (0/1 for binary domains)."""

    __slots__ = ()


def _sanitize_label(label: str) -> str:
    out = re.sub(r"[^A-Za-z0-9_.]", "_", label)
    return out or "_"


# Per-edge row families c5..c9: id, terms, sense, right-hand side.  A term
# (c, p, k) is coefficient c on the variable named p followed by the edge's
# name ``a_b`` (k = 0) or its endpoint label ``a`` (k = 1) or ``b`` (k = 2).
# ``IpModel._iter_rows`` and the LP writer both read this table, so solved
# and written rows cannot differ.
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

    @functools.cached_property
    def objective(self) -> tuple[list[str], list[str]]:
        """The objective's two term groups: Qf then Qb per edge, and Y."""
        return ([f"{q}_{ab}" for ab, _, _ in self.edges for q in ("Qf", "Qb")],
                ["Y_" + ab for ab, _, _ in self.edges])


class IpModel(namedtuple("IpModel", ("n_nodes", "var_labels", "edges", "k",
                                     "no_strike", "objective", "relaxed"),
                         defaults=(False,))):
    """Immutable model instance; transforms return new instances."""

    __slots__ = ()

    # ----- variable naming ------------------------------------------------
    def x_name(self, i: int) -> str:
        return f"X_{self.var_labels[i]}"

    def z_name(self, i: int) -> str:
        return f"Z_{self.var_labels[i]}"

    def y_name(self, e: tuple[int, int]) -> str:
        return f"Y_{self.var_labels[e[0]]}_{self.var_labels[e[1]]}"

    def qf_name(self, e: tuple[int, int]) -> str:
        return f"Qf_{self.var_labels[e[0]]}_{self.var_labels[e[1]]}"

    def qb_name(self, e: tuple[int, int]) -> str:
        return f"Qb_{self.var_labels[e[0]]}_{self.var_labels[e[1]]}"

    def variable_names(self) -> tuple[str, ...]:
        names = _Names(self)
        return (*names.x, *names.z, *(f"{v}_{ab}" for ab, _, _ in names.edges
                                      for v in ("Y", "Qf", "Qb")))

    @property
    def variable_count(self) -> int:
        return 2 * self.n_nodes + 3 * len(self.edges)

    @property
    def constraint_count(self) -> int:
        return 2 + 2 * self.n_nodes + 5 * len(self.edges)

    # ----- rows and domains ----------------------------------------------
    def rows(self) -> tuple[Row, ...]:
        return tuple(self._iter_rows())

    def _iter_rows(self) -> Iterator[Row]:
        """Rows c3..c9 and c11 in model order, built one at a time."""
        names = _Names(self)
        first, last = self._node_rows(names)
        yield from first
        for fam, terms, sense, rhs in _EDGE_ROWS:
            for args in names.edges:
                yield Row(f"{fam}_{args[0]}",
                          tuple([(c, p + args[k]) for c, p, k in terms]), sense, rhs)
        yield from last

    def _node_rows(self, names: _Names) -> tuple[tuple[Row, Row], list[Row]]:
        """The rows over node variables: c3 and c4, which come before the
        per-edge rows, and the c11 rows, which come after them."""
        budget = self.objective.removal_count
        if budget is None:
            budget = self.k
        c3 = Row("c3", tuple((1.0, x) for x in names.x), "<=", float(budget))
        c4 = Row("c4", tuple((1.0, z) for z in names.z), "=", 1.0)
        return (c3, c4), [Row(f"c11_{self.var_labels[i]}", ((1.0, names.x[i]),), "=", 0.0)
                          for i in sorted(self.no_strike)]

    def domains(self) -> tuple[DomainRecord, ...]:
        kind = "unit" if self.relaxed else "binary"
        out: list[DomainRecord] = []
        for i in range(self.n_nodes):
            out.append(DomainRecord(f"c10_{self.var_labels[i]}", self.z_name(i), kind))
        for i in range(self.n_nodes):
            if i not in self.no_strike:
                out.append(DomainRecord(f"c12_{self.var_labels[i]}", self.x_name(i), kind))
        return tuple(out)


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
        objective=Objective(),
    )


def linearize(model: IpModel, i: int) -> IpModel:
    """Fix the removal count at ``i``: linear objective, budget row sum X <= i."""
    if not (1 <= i <= model.k):
        raise ValueError(f"linearization index {i} outside 1..{model.k}")
    n = model.n_nodes
    den = (n - 1 - i) * (n - 2 - i)
    scale = 1.0 / den if (n - i >= 3 and den > 0) else None
    return model._replace(objective=Objective(i, scale))


def relax_bounds(model: IpModel) -> IpModel:
    """Continuous [0, 1] domains for X and Z; edge variables stay binary."""
    return model._replace(relaxed=True)


# ----- assignments ---------------------------------------------------------

def canonical_assignment(model: IpModel, removed: Collection[int],
                         selected: int | None = None) -> IpAssignment:
    """Feasible assignment encoding ``removed``: Y tracks edge survival, Z
    sits on ``selected`` (default: the max-degree survivor, lowest id on
    ties) and Q routes one unit along each of its surviving edges."""
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
    values: dict[str, float] = {}
    for i in range(model.n_nodes):
        values[model.x_name(i)] = 1 if i in removed else 0
        values[model.z_name(i)] = 1 if i == selected else 0
    for e in model.edges:
        u, v = e
        alive = u not in removed and v not in removed
        values[model.y_name(e)] = 1 if alive else 0
        values[model.qf_name(e)] = 1 if alive and selected == u else 0
        values[model.qb_name(e)] = 1 if alive and selected == v else 0
    return IpAssignment(values)


def check_feasible(model: IpModel, assignment: IpAssignment) -> FeasibilityReport:
    """Verify every row and domain; report all violations by row id."""
    values = assignment.values
    names = model.variable_names()
    expected = set(names)
    missing = [n for n in names if n not in values]
    extra = sorted(set(values) - expected)
    if missing or extra:
        raise ValueError(
            f"assignment dimension mismatch: missing={missing[:5]} extra={extra[:5]}")
    violations: list[str] = []
    for row in model._iter_rows():
        lhs = sum(c * values[v] for c, v in row.terms)
        ok = (lhs <= row.rhs + _EPS if row.sense == "<="
              else lhs >= row.rhs - _EPS if row.sense == ">="
              else abs(lhs - row.rhs) <= _EPS)
        if not ok:
            violations.append(f"{row.rid}: {lhs:g} {row.sense} {row.rhs:g} fails")
    for dom in model.domains():
        v = values[dom.var]
        if dom.kind == "binary":
            if not (abs(v) <= _EPS or abs(v - 1) <= _EPS):
                violations.append(f"{dom.rid}: {dom.var}={v:g} not binary")
        elif not (-_EPS <= v <= 1 + _EPS):
            violations.append(f"{dom.rid}: {dom.var}={v:g} outside [0, 1]")
    for name in names[2 * model.n_nodes:]:  # each edge's Y, Qf and Qb
        v = values[name]
        if not (abs(v) <= _EPS or abs(v - 1) <= _EPS):
            violations.append(f"dom_{name}: {name}={v:g} not binary")
    return FeasibilityReport(not violations, tuple(violations))


def evaluate_objective(model: IpModel, assignment: IpAssignment) -> float:
    """Objective value of a feasible assignment.

    For the fractional model this equals ``fragile(graph, R)`` whenever the
    assignment canonically encodes removal set R (degenerate 0.0 when fewer
    than three nodes survive).  For linearized models the folded linear
    objective is evaluated as an external solver would report it.
    """
    report = check_feasible(model, assignment)
    if not report.ok:
        raise InfeasibleAssignmentError(report.violations[0])
    values = assignment.values
    sx = sum(values[model.x_name(i)] for i in range(model.n_nodes))
    sy = sum(values[model.y_name(e)] for e in model.edges)
    sq = sum(values[model.qf_name(e)] + values[model.qb_name(e)] for e in model.edges)
    if all(float(x).is_integer() for x in (sx, sy, sq)):
        sx, sy, sq = int(sx), int(sy), int(sq)
    n = model.n_nodes
    i = model.objective.removal_count
    if i is not None:
        numerator = (n - i) * sq - 2 * sy
        if model.objective.scale is None:
            return float(numerator)
        return numerator / ((n - 1 - i) * (n - 2 - i))
    return _centralization(n - sx, sq, sy)


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


def _wrap(prefix: str, tokens: Iterable[str]) -> str:
    """``prefix`` and ``tokens`` in lines of at most ``_WIDTH`` columns.  A
    line takes its first token whatever its length, then every next token
    that fits; later lines start with three spaces.  Each line is joined
    as soon as it is full, so no list of all tokens is built."""
    lines = []
    line = [prefix]
    size = len(prefix)
    for tok in tokens:
        size += len(tok) + 1
        if size > _WIDTH and len(line) > 1:
            lines.append(" ".join(line))
            line = ["  ", tok]  # joined, a three-space indent
            size = len(tok) + 3
        else:
            line.append(tok)
    lines.append(" ".join(line))
    return "\n".join(lines)


def _row_text(row: Row) -> str:
    return _wrap(f" {row.rid}:", _tokens(row.terms, row.sense, row.rhs))


def _render_head(model: IpModel, names: _Names) -> str:
    """Header comments, objective and budget row (c3) of a linearized model:
    the part of its LP text that depends on the removal count."""
    n = model.n_nodes
    i = model.objective.removal_count
    scale = model.objective.scale
    lines: list[str] = []
    lines.append("\\ fragility centralization removal model")
    lines.append(f"\\ nodes={n} edges={len(model.edges)} budget={model.k}")
    lines.append(f"\\ variables={model.variable_count} constraints={model.constraint_count}")
    lines.append(f"\\ objective: linearized at removal count i={i}"
                 + (" (relaxed X/Z)" if model.relaxed else ""))
    if scale is None:
        lines.append("\\ degenerate instance (fewer than 3 survivors): "
                     "objective left unscaled")
    q_coef = (n - i) * scale if scale is not None else float(n - i)
    y_coef = -2.0 * scale if scale is not None else -2.0
    tokens = chain.from_iterable(
        map(_sign(coef).__add__, group)
        for coef, group in zip((q_coef, y_coef), names.objective) if coef)
    first = next(tokens, None)
    lines.append("Maximize")
    lines.append(_wrap(" obj:", ["0"] if first is None else
                       chain([first.removeprefix("+ ")], tokens)))
    lines.append("Subject To")
    (c3, _), _ = model._node_rows(names)
    lines.append(_row_text(c3))
    return "\n".join(lines) + "\n"


def _render_body(model: IpModel, names: _Names) -> tuple[str, ...]:
    """Every row after c3, then Bounds, Binary and End: the same text at
    every removal count.  It comes in sections, each joined from its own
    lines: c4, one per family c5..c9, the c11 rows with the node domains,
    the per-edge binaries, and End.  Each per-edge family is one line
    template; only a row longer than a line is wrapped, token by token."""
    (_, c4), c11 = model._node_rows(names)
    sections = [_row_text(c4) + "\n"]
    for fam, terms, sense, rhs in _EDGE_ROWS:
        tokens = _tokens([(c, f"{p}{{{k}}}") for c, p, k in terms], sense, rhs)
        line = f" {fam}_{{0}}: {' '.join(tokens)}\n".format
        lines = []
        for args in names.edges:
            text = line(*args)
            if len(text) > _WIDTH + 1:
                text = _wrap(f" {fam}_{args[0]}:",
                             [t.format(*args) for t in tokens]) + "\n"
            lines.append(text)
        sections.append("".join(lines))
    lines = list(map(_row_text, c11))
    domains = model.domains()
    unit_vars = [d.var for d in domains if d.kind == "unit"]
    if unit_vars:
        lines.append("Bounds")
        lines.extend(f" 0 <= {name} <= 1" for name in unit_vars)
    rank = {name: pos for pos, name in enumerate(names.x + names.z)}
    binary = sorted((d.var for d in domains if d.kind == "binary"),
                    key=rank.__getitem__)
    if binary or names.edges:
        lines.append("Binary")
        lines.extend(f" {name}" for name in binary)
    lines.append("")
    sections.append("\n".join(lines))
    sections.append("".join(f" Y_{ab}\n Qf_{ab}\n Qb_{ab}\n"
                            for ab, _, _ in names.edges))
    sections.append("End\n")
    return tuple(sections)


def emit_lp(model: IpModel) -> str:
    """Serialize a linearized model in LP format, byte-deterministically.

    Fractional models are rejected: call :func:`linearize` first (one model
    per candidate removal count), or :func:`emit_lp_family` for all of them.
    """
    if model.objective.removal_count is None:
        raise ValueError(
            "model objective is fractional; call linearize(model, i) for each "
            "removal count i in 1..k and emit those models instead")
    names = _Names(model)
    return "".join((_render_head(model, names), *_render_body(model, names)))


def emit_lp_family(model: IpModel) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield ``(i, parts)`` for ``i = 1..model.k``, where ``"".join(parts)``
    is ``emit_lp(linearize(model, i))``.

    ``parts`` is the model's head followed by the shared body's sections.
    The body is rendered once, when the first model is requested, and every
    model's parts hold those same strings; each model then costs only its
    head, and is yielded before the next one is rendered.  Writing the parts
    one by one (``fh.writelines(parts)``) never builds a model-sized string.
    """
    names = _Names(model)
    body = _render_body(model, names)
    for i in range(1, model.k + 1):
        yield i, (_render_head(linearize(model, i), names), *body)
