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
the whole family ``i = 1..k``.  Only the header comments, the objective and
the c3 row change with ``i``, so the family renders the rest (rows c4..c11,
Bounds, Binary) once and shares that body among its models.  Both use the
same renderers, which take rows one at a time from ``IpModel._iter_rows``.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Collection, Iterator
from dataclasses import dataclass, replace

from .graph import Graph, _centralization, _node_set

_EPS = 1e-9


class InfeasibleAssignmentError(ValueError):
    """Raised when an assignment offered for evaluation violates the model."""


@dataclass(frozen=True)
class Objective:
    """Objective description: fractional, or linear at a fixed removal count.

    For linear objectives ``scale`` is ``1 / ((N-1-i) * (N-2-i))`` when that
    denominator is positive and the model keeps at least three survivors;
    otherwise ``scale`` is None and coefficients are emitted unscaled.
    """

    kind: str  # "fractional" | "linear"
    removal_count: int | None = None
    scale: float | None = None


@dataclass(frozen=True)
class Row:
    rid: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class DomainRecord:
    rid: str
    var: str
    kind: str  # "binary" | "unit"


@dataclass(frozen=True)
class IpAssignment:
    """Variable values keyed by LP variable name (0/1 for binary domains)."""

    values: dict[str, float]


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[str, ...]


def _sanitize_label(label: str) -> str:
    out = re.sub(r"[^A-Za-z0-9_.]", "_", label)
    return out or "_"


@dataclass(frozen=True)
class IpModel:
    """Immutable model instance; transforms return new instances."""

    n_nodes: int
    var_labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    k: int
    no_strike: frozenset[int]
    objective: Objective
    relaxed: bool = False

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
        names: list[str] = []
        names.extend(self.x_name(i) for i in range(self.n_nodes))
        names.extend(self.z_name(i) for i in range(self.n_nodes))
        for e in self.edges:
            names.extend((self.y_name(e), self.qf_name(e), self.qb_name(e)))
        return tuple(names)

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
        budget = self.k
        if self.objective.kind == "linear":
            budget = self.objective.removal_count
        yield Row("c3", tuple((1.0, self.x_name(i)) for i in range(self.n_nodes)),
                  "<=", float(budget))
        yield Row("c4", tuple((1.0, self.z_name(i)) for i in range(self.n_nodes)),
                  "=", 1.0)
        for fam, builder in (
            ("c5", lambda e: (((1.0, self.y_name(e)), (1.0, self.x_name(e[0]))), "<=", 1.0)),
            ("c6", lambda e: (((1.0, self.y_name(e)), (1.0, self.x_name(e[1]))), "<=", 1.0)),
            ("c7", lambda e: (((1.0, self.y_name(e)), (1.0, self.x_name(e[0])),
                               (1.0, self.x_name(e[1]))), ">=", 1.0)),
            ("c8", lambda e: (((1.0, self.qf_name(e)), (1.0, self.qb_name(e)),
                               (-1.0, self.y_name(e))), "<=", 0.0)),
            ("c9", lambda e: (((1.0, self.qf_name(e)), (1.0, self.qb_name(e)),
                               (-1.0, self.z_name(e[0])), (-1.0, self.z_name(e[1]))),
                              "<=", 0.0)),
        ):
            for e in self.edges:
                terms, sense, rhs = builder(e)
                yield Row(f"{fam}_{self.var_labels[e[0]]}_{self.var_labels[e[1]]}",
                          terms, sense, rhs)
        for i in sorted(self.no_strike):
            yield Row(f"c11_{self.var_labels[i]}", ((1.0, self.x_name(i)),), "=", 0.0)

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
        objective=Objective(kind="fractional"),
    )


def linearize(model: IpModel, i: int) -> IpModel:
    """Fix the removal count at ``i``: linear objective, budget row sum X <= i."""
    if not (1 <= i <= model.k):
        raise ValueError(f"linearization index {i} outside 1..{model.k}")
    n = model.n_nodes
    den = (n - 1 - i) * (n - 2 - i)
    scale = 1.0 / den if (n - i >= 3 and den > 0) else None
    return replace(model, objective=Objective("linear", i, scale))


def relax_bounds(model: IpModel) -> IpModel:
    """Continuous [0, 1] domains for X and Z; edge variables stay binary."""
    return replace(model, relaxed=True)


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
    for e in model.edges:
        for name in (model.y_name(e), model.qf_name(e), model.qb_name(e)):
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
    if model.objective.kind == "linear":
        i = model.objective.removal_count
        numerator = (n - i) * sq - 2 * sy
        if model.objective.scale is None:
            return float(numerator)
        return numerator / ((n - 1 - i) * (n - 2 - i))
    return _centralization(n - sx, sq, sy)


# ----- LP-format export ----------------------------------------------------

@functools.lru_cache(maxsize=256)  # an objective repeats two coefficients
def _fmt_coef(c: float) -> str:
    if float(c).is_integer():
        return str(int(c))
    return repr(float(c))


def _join_terms(terms: list[tuple[float, str]]) -> list[str]:
    """Render terms as LP-format tokens with explicit signs."""
    tokens: list[str] = []
    for coef, name in terms:
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1 else f"{_fmt_coef(mag)} {name}"
        if not tokens and sign == "+":
            tokens.append(body)
        else:
            tokens.append(f"{sign} {body}")
    if not tokens:
        tokens.append(f"0 {terms[0][1]}" if terms else "0")
    return tokens


def _wrap(prefix: str, tokens: list[str], width: int = 72) -> list[str]:
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


def _row_lines(row: Row) -> list[str]:
    tokens = _join_terms(list(row.terms))
    tokens.append(f"{row.sense} {_fmt_coef(row.rhs)}")
    return _wrap(f" {row.rid}:", tokens)


def _render_head(model: IpModel) -> str:
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
    obj_terms: list[tuple[float, str]] = []
    for e in model.edges:
        obj_terms.append((q_coef, model.qf_name(e)))
        obj_terms.append((q_coef, model.qb_name(e)))
    for e in model.edges:
        obj_terms.append((y_coef, model.y_name(e)))
    lines.append("Maximize")
    lines.extend(_wrap(" obj:", _join_terms(obj_terms)))
    lines.append("Subject To")
    lines.extend(_row_lines(next(model._iter_rows())))
    return "\n".join(lines) + "\n"


def _render_body(model: IpModel) -> str:
    """Every row after c3, then Bounds, Binary and End: the same text at
    every removal count."""
    lines: list[str] = []
    rows = model._iter_rows()
    next(rows)  # c3 belongs to the head
    for row in rows:
        lines.extend(_row_lines(row))
    unit_vars = [d.var for d in model.domains() if d.kind == "unit"]
    if unit_vars:
        lines.append("Bounds")
        for name in unit_vars:
            lines.append(f" 0 <= {name} <= 1")
    binary_vars = [d.var for d in model.domains() if d.kind == "binary"]
    for e in model.edges:
        binary_vars.extend((model.y_name(e), model.qf_name(e), model.qb_name(e)))
    if binary_vars:
        lines.append("Binary")
        order = {name: pos for pos, name in enumerate(model.variable_names())}
        for name in sorted(binary_vars, key=order.__getitem__):
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def emit_lp(model: IpModel) -> str:
    """Serialize a linearized model in LP format, byte-deterministically.

    Fractional models are rejected: call :func:`linearize` first (one model
    per candidate removal count), or :func:`emit_lp_family` for all of them.
    """
    if model.objective.kind != "linear":
        raise ValueError(
            "model objective is fractional; call linearize(model, i) for each "
            "removal count i in 1..k and emit those models instead")
    return _render_head(model) + _render_body(model)


def emit_lp_family(model: IpModel) -> Iterator[tuple[int, str]]:
    """Yield ``(i, emit_lp(linearize(model, i)))`` for ``i = 1..model.k``.

    The shared body is rendered once, when the first model is requested;
    each model then costs only its head, and is yielded before the next
    one is rendered.
    """
    body = _render_body(model)
    for i in range(1, model.k + 1):
        yield i, _render_head(linearize(model, i)) + body
