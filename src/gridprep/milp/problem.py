"""Solver-neutral linear problem representation.

A :class:`MilpProblem` is built incrementally (variables, constraints,
objective) and then sealed; sealed problems are immutable and safe to share
across solver instances.  Every optimization in the toolkit goes through
this representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy import sparse

CONTINUOUS = "continuous"
BINARY = "binary"
INTEGER = "integer"

LE = "<="
GE = ">="
EQ = "="

FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-6
DEFAULT_GAP_TOL = 1e-4


class ProblemError(ValueError):
    """Ill-formed problem: unknown variable, bad bounds, sealed mutation."""


class NumericalInstabilityError(RuntimeError):
    """HiGHS ended in an error, or returned a point that breaks the problem's rows or bounds."""


@dataclass(frozen=True)
class VarSpec:
    id: int
    lower: float
    upper: float
    kind: str = CONTINUOUS
    name: str = ""

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, BINARY, INTEGER):
            raise ProblemError(f"unknown variable kind '{self.kind}'")
        if self.lower > self.upper:
            raise ProblemError(f"variable {self.name or self.id}: lower > upper")
        if self.kind == BINARY and (self.lower < -1e-12 or self.upper > 1 + 1e-12):
            raise ProblemError(f"binary variable {self.name or self.id} needs bounds within [0, 1]")

    @property
    def is_integer(self) -> bool:
        return self.kind in (BINARY, INTEGER)


class LinearExpr:
    """Sparse linear expression: sum of coef*var plus a constant."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[int, float] | None = None, constant: float = 0.0):
        self.terms: dict[int, float] = {}
        if terms:
            for vid, coef in terms.items():
                if coef != 0.0:
                    self.terms[vid] = float(coef)
        self.constant = float(constant)
        for coef in self.terms.values():
            if not math.isfinite(coef):
                raise ProblemError("non-finite coefficient in linear expression")

    def add(self, var_id: int, coef: float) -> "LinearExpr":
        if not math.isfinite(coef):
            raise ProblemError("non-finite coefficient in linear expression")
        new = self.terms.get(var_id, 0.0) + coef
        if abs(new) < 1e-300:
            self.terms.pop(var_id, None)
        else:
            self.terms[var_id] = new
        return self

    def copy(self) -> "LinearExpr":
        return LinearExpr(dict(self.terms), self.constant)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class Constraint:
    expr: LinearExpr
    sense: str
    rhs: float
    name: str = ""


class MilpProblem:
    """Minimization problem over declared variables; seal before solving."""

    def __init__(self, name: str = ""):
        self.name = name
        self.variables: list[VarSpec] = []
        self.constraints: list[Constraint] = []
        self.objective = LinearExpr()
        self._sealed = False
        self._matrix_cache = None

    # -- construction -----------------------------------------------------
    def add_variable(
        self,
        lower: float,
        upper: float,
        kind: str = CONTINUOUS,
        name: str = "",
    ) -> int:
        self._check_mutable()
        vid = len(self.variables)
        self.variables.append(VarSpec(id=vid, lower=lower, upper=upper, kind=kind, name=name))
        return vid

    def add_constraint(self, expr: LinearExpr, sense: str, rhs: float, name: str = "") -> int:
        self._check_mutable()
        if sense not in (LE, GE, EQ):
            raise ProblemError(f"unknown constraint sense '{sense}'")
        if not math.isfinite(rhs):
            raise ProblemError(f"constraint {name}: non-finite rhs")
        for vid in expr.terms:
            if vid < 0 or vid >= len(self.variables):
                raise ProblemError(f"constraint {name}: unknown variable id {vid}")
        self.constraints.append(Constraint(expr=expr.copy(), sense=sense, rhs=float(rhs), name=name))
        return len(self.constraints) - 1

    def set_objective(self, expr: LinearExpr) -> None:
        self._check_mutable()
        for vid in expr.terms:
            if vid < 0 or vid >= len(self.variables):
                raise ProblemError(f"objective references unknown variable id {vid}")
        self.objective = expr.copy()

    def add_objective_term(self, var_id: int, coef: float) -> None:
        self._check_mutable()
        if var_id < 0 or var_id >= len(self.variables):
            raise ProblemError(f"objective references unknown variable id {var_id}")
        self.objective.add(var_id, coef)

    def seal(self) -> "MilpProblem":
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    def _check_mutable(self):
        if self._sealed:
            raise ProblemError("problem is sealed; copy() it to modify")
        self._matrix_cache = None

    def copy(self) -> "MilpProblem":
        clone = MilpProblem(self.name)
        clone.variables = list(self.variables)
        clone.constraints = list(self.constraints)
        clone.objective = self.objective.copy()
        return clone

    # -- introspection ----------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def integer_ids(self) -> list[int]:
        return [v.id for v in self.variables if v.is_integer]

    def matrices(self):
        """(c, A, senses, b, lower, upper) with A in CSR form; cached."""
        if self._matrix_cache is None:
            n = len(self.variables)
            m = len(self.constraints)
            c = np.zeros(n)
            for vid, coef in self.objective.terms.items():
                c[vid] = coef
            rows, cols, data = [], [], []
            b = np.zeros(m)
            senses = []
            for i, con in enumerate(self.constraints):
                for vid, coef in con.expr.terms.items():
                    rows.append(i)
                    cols.append(vid)
                    data.append(coef)
                b[i] = con.rhs - con.expr.constant
                senses.append(con.sense)
            a_mat = sparse.csr_matrix((data, (rows, cols)), shape=(m, n))
            lower = np.array([v.lower for v in self.variables], dtype=float)
            upper = np.array([v.upper for v in self.variables], dtype=float)
            self._matrix_cache = (c, a_mat, tuple(senses), b, lower, upper)
        return self._matrix_cache


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap_limit"
ITERATION_LIMIT = "iteration_limit"


@dataclass
class MilpSolution:
    status: str
    values: dict[int, float] = field(default_factory=dict)
    objective: float = math.nan
    best_bound: float = math.nan
    node_count: int = 0
    diagnostics: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, GAP_LIMIT)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_lp(problem: MilpProblem) -> str:
    """Render the problem in LP text format for external cross-checking."""

    def render_expr(expr: LinearExpr) -> str:
        parts = []
        for vid in sorted(expr.terms):
            coef = expr.terms[vid]
            name = problem.variables[vid].name or f"x{vid}"
            sign = "+" if coef >= 0 else "-"
            parts.append(f"{sign} {_fmt(abs(coef))} {name}")
        if not parts:
            return "0"
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out

    lines = [f"\\ Problem: {problem.name or 'unnamed'}", "Minimize", f" obj: {render_expr(problem.objective)}"]
    lines.append("Subject To")
    for i, con in enumerate(problem.constraints):
        cname = con.name or f"c{i}"
        op = {LE: "<=", GE: ">=", EQ: "="}[con.sense]
        lines.append(f" {cname}: {render_expr(con.expr)} {op} {_fmt(con.rhs - con.expr.constant)}")
    lines.append("Bounds")
    for v in problem.variables:
        name = v.name or f"x{v.id}"
        lo = "-inf" if math.isinf(v.lower) else _fmt(v.lower)
        hi = "+inf" if math.isinf(v.upper) else _fmt(v.upper)
        lines.append(f" {lo} <= {name} <= {hi}")
    generals = [v for v in problem.variables if v.kind == INTEGER]
    binaries = [v for v in problem.variables if v.kind == BINARY]
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(v.name or f"x{v.id}" for v in generals))
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(v.name or f"x{v.id}" for v in binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"
