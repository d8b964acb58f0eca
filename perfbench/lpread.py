"""A small reader for the LP text the program writes.

It knows the LP sections the program writes, rows that wrap onto
continuation lines, signed terms with optional coefficients, and ``\\``
comments.  Whole numbers are read as ints, so rows with integer data are
evaluated exactly; other numbers are read as floats, and :func:`evaluate`
sums the objective with ``math.fsum``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

_SECTIONS = {"maximize": "objective", "subject to": "rows", "bounds": "bounds",
             "binary": "binary", "end": "end"}
_SENSES = frozenset(("<=", ">=", "="))
_NAME = re.compile(r"^[A-Za-z_][\w.]*$")
_BOUND = re.compile(r"^\s*(\S+)\s*<=\s*(\S+)\s*<=\s*(\S+)\s*$")


class LpError(ValueError):
    pass


@dataclass
class Row:
    name: str
    terms: dict[str, int | float]
    sense: str
    rhs: int | float


@dataclass
class LpModel:
    comments: list[str] = field(default_factory=list)
    sense: str = ""
    objective: dict[str, int | float] = field(default_factory=dict)
    rows: list[Row] = field(default_factory=list)
    bounds: dict[str, tuple[int | float, int | float]] = field(default_factory=dict)
    binary: list[str] = field(default_factory=list)

    def variables(self) -> set[str]:
        names = set(self.objective) | set(self.bounds) | set(self.binary)
        for row in self.rows:
            names.update(row.terms)
        return names


def _number(tok: str) -> int | float:
    return int(tok) if tok.isdigit() else float(tok)


def _terms(tokens: list[str]) -> dict[str, int | float]:
    out: dict[str, int | float] = {}
    sign = 1
    coef: int | float | None = None
    for tok in tokens:
        if tok == "+" or tok == "-":
            if coef is not None:
                raise LpError(f"dangling coefficient before {tok!r}")
            sign = 1 if tok == "+" else -1
        elif tok[0].isdigit() or tok[0] == ".":
            if coef is not None:
                raise LpError(f"two coefficients in a row near {tok!r}")
            coef = _number(tok)
        elif tok in out or tok in _SENSES:
            raise LpError(f"unexpected {tok!r} in an expression")
        else:
            out[tok] = sign * (1 if coef is None else coef)
            sign, coef = 1, None
    if coef is not None:
        raise LpError("constant term in an expression")
    return out


def _row(name: str, tokens: list[str]) -> Row:
    if len(tokens) < 2 or tokens[-2] not in _SENSES:
        raise LpError(f"row {name}: expected 'terms sense rhs'")
    return Row(name, _terms(tokens[:-2]), tokens[-2], _number(tokens[-1]))


def parse(text: str) -> LpModel:
    model = LpModel()
    section = None
    pending: tuple[str, list[str]] | None = None

    def flush() -> None:
        nonlocal pending
        if pending is None:
            return
        name, tokens = pending
        if section == "objective":
            model.objective = _terms(tokens)
        else:
            model.rows.append(_row(name, tokens))
        pending = None

    for line in text.splitlines():
        if "\\" in line:
            line, _, comment = line.partition("\\")
            if not line.strip():
                model.comments.append(comment.strip())
                continue
        if not line.startswith(" "):
            key = line.strip().lower()
            if key in _SECTIONS:
                flush()
                section = _SECTIONS[key]
                if section == "objective":
                    model.sense = key
                continue
            if not key:
                continue
        if section == "binary":
            model.binary.extend(line.split())
        elif section in ("objective", "rows"):
            head, colon, tail = line.partition(":")
            if colon:
                flush()
                name = head.strip()
                if not _NAME.match(name):
                    raise LpError(f"bad row name {name!r}")
                pending = (name, tail.split())
            elif pending is None:
                raise LpError(f"continuation line without a row: {line!r}")
            else:
                pending[1].extend(line.split())
        elif section == "bounds":
            found = _BOUND.match(line)
            if not found:
                raise LpError(f"unreadable bound: {line!r}")
            model.bounds[found.group(2)] = (_number(found.group(1)),
                                            _number(found.group(3)))
        else:
            raise LpError(f"line outside any section: {line!r}")
    if section != "end":
        raise LpError("missing End")
    return model


def evaluate(model: LpModel, values: dict[str, int]) -> tuple[list[str], float]:
    """Rows and domains violated by ``values``, and the objective there."""
    try:
        broken = []
        for row in model.rows:
            lhs = sum(c * values[v] for v, c in row.terms.items())
            if not (lhs <= row.rhs if row.sense == "<=" else
                    lhs >= row.rhs if row.sense == ">=" else lhs == row.rhs):
                broken.append(row.name)
        for var, (lo, hi) in model.bounds.items():
            if not lo <= values[var] <= hi:
                broken.append(f"bound {var}")
        for var in model.binary:
            if values[var] not in (0, 1):
                broken.append(f"binary {var}")
        objective = math.fsum(c * values[v] for v, c in model.objective.items())
    except KeyError as exc:
        raise LpError(f"assignment has no value for {exc}") from None
    return broken, objective
