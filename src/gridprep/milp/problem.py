"""Solver-neutral linear problem representation.

A :class:`MilpProblem` stores its columns as arrays (bounds and a kind
code) and its rows as COO triplets with a right-hand side and a sense per
row.  There is one way in and one way out.  Builders append whole blocks
(:meth:`MilpProblem.add_columns`, :meth:`MilpProblem.add_rows`,
:meth:`MilpProblem.add_objective`) and replace bounds with
:meth:`MilpProblem.set_bounds`; every check runs once per block: finite
coefficients and right-hand sides, known column ids, lower <= upper and
binary bounds.  Readers take arrays: :meth:`MilpProblem.matrices`,
:meth:`MilpProblem.column_bounds`, :meth:`MilpProblem.kind_mask` and
``objective_constant``.  Names are kept as callables and rendered only when
:func:`write_lp`, :meth:`MilpProblem.row_names` or the ``variables`` records
ask for them.

A problem is built and then sealed; a sealed problem is immutable and safe
to share across solves, and its copies (which can leave out leading rows)
share its blocks.  Every optimization in the toolkit goes through this
representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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

_KINDS = (CONTINUOUS, BINARY, INTEGER)  # a column's kind code is its position here
_SENSES = (LE, GE, EQ)

#: names of a block: a list, or a callable that renders them when asked
Names = Sequence[str] | Callable[[], Sequence[str]] | None


class ProblemError(ValueError):
    """Ill-formed problem: unknown variable, bad bounds, sealed mutation."""


class NumericalInstabilityError(RuntimeError):
    """HiGHS ended in an error, or returned a point that breaks the problem's rows or bounds."""


def _check_bounds(lower: np.ndarray, upper: np.ndarray, binary: np.ndarray, what) -> None:
    crossed = lower > upper
    if crossed.any():
        raise ProblemError(f"variable {what(int(np.argmax(crossed)))}: lower > upper")
    outside = binary & ((lower < -1e-12) | (upper > 1 + 1e-12))
    if outside.any():
        raise ProblemError(f"binary variable {what(int(np.argmax(outside)))} needs bounds within [0, 1]")


@dataclass(frozen=True)
class VarSpec:
    """One column as a record, read from a problem's arrays."""

    id: int
    lower: float
    upper: float
    kind: str = CONTINUOUS
    name: str = ""

    @property
    def is_integer(self) -> bool:
        return self.kind in (BINARY, INTEGER)


def _render(names: Names, count: int, default: str, start: int) -> list[str]:
    """A block's names, with ``default`` + id for the blank ones."""
    rendered = names() if callable(names) else names
    if rendered is None:
        return [f"{default}{start + i}" for i in range(count)]
    return [name or f"{default}{start + i}" for i, name in enumerate(rendered)]


def _concat(parts: list, slot: int) -> np.ndarray:
    return np.concatenate([p[slot] for p in parts]) if len(parts) > 1 else parts[0][slot]


class MilpProblem:
    """Minimization problem over array-stored columns and COO rows; seal before solving."""

    def __init__(self, name: str = ""):
        self.name = name
        self.objective_constant = 0.0
        self._n = 0
        self._m = 0
        self._cols: list[tuple] = []  # (lower, upper, kind codes)
        self._col_names: list[tuple[int, int, Names]] = []  # (first id, count, names)
        self._rows: list[tuple] = []  # (row ids, col ids, coefs, b, sense codes)
        self._row_names: list[tuple[int, int, Names]] = []
        self._obj: list[tuple] = []  # (col ids, coefs), summed in order
        self._sealed = False
        self._matrix_cache = None
        self._var_view: list[VarSpec] | None = None

    # -- construction -----------------------------------------------------
    def add_columns(self, lower, upper, kind: str = CONTINUOUS, names: Names = None) -> int:
        """Append one block of columns of one kind; returns the first new id."""
        self._check_mutable()
        if kind not in _KINDS:
            raise ProblemError(f"unknown variable kind '{kind}'")
        lower, upper = np.broadcast_arrays(np.asarray(lower, dtype=float),
                                           np.asarray(upper, dtype=float))
        lower, upper = lower.ravel().copy(), upper.ravel().copy()
        start = self._n
        _check_bounds(lower, upper, np.full(len(lower), kind == BINARY),
                      lambda i: _render(names, len(lower), "x", start)[i])
        self._cols.append((lower, upper, np.full(len(lower), _KINDS.index(kind), dtype=np.int8)))
        self._col_names.append((start, len(lower), names))
        self._n += len(lower)
        return start

    def add_rows(self, cols, coefs, sense, rhs, names: Names = None) -> int:
        """Append one block of rows; returns the first new row id.

        ``cols`` is a (rows, terms) array of column ids and ``coefs`` holds
        their coefficients (broadcast to it); a zero coefficient leaves its
        term out.  ``sense`` and ``rhs`` are one value or one per row.
        """
        self._check_mutable()
        cols = np.asarray(cols, dtype=np.int64)
        if cols.ndim != 2:
            raise ProblemError("row block columns must be a (rows, terms) array")
        coefs = np.asarray(coefs, dtype=float)
        if coefs.shape != cols.shape:
            coefs = np.broadcast_to(coefs, cols.shape)
        m = cols.shape[0]
        b = np.asarray(rhs, dtype=float)
        b = np.full(m, b) if b.ndim == 0 else b.reshape(m).copy()
        codes = self._sense_codes(sense, m)
        if not np.isfinite(coefs).all():
            raise ProblemError("non-finite coefficient")
        if not np.isfinite(b).all():
            raise ProblemError(f"constraint {_render(names, m, 'c', self._m)[np.argmax(~np.isfinite(b))]}: "
                               "non-finite rhs")
        present = coefs != 0.0
        used = cols[present]
        if used.size and (used.min() < 0 or used.max() >= self._n):
            i, j = np.argwhere(present & ((cols < 0) | (cols >= self._n)))[0]
            raise ProblemError(f"constraint {_render(names, m, 'c', self._m)[i]}: "
                               f"unknown variable id {int(cols[i, j])}")
        start = self._m
        row_ids = np.repeat(np.arange(start, start + m), cols.shape[1])[present.ravel()]
        self._rows.append((row_ids, used, coefs[present], b, codes))
        self._row_names.append((start, m, names))
        self._m += m
        return start

    def add_objective(self, cols, coefs) -> None:
        """Add ``coefs`` to the objective coefficients of ``cols``, in order."""
        self._check_mutable()
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        coefs = np.broadcast_to(np.asarray(coefs, dtype=float), cols.shape)
        if cols.size and (cols.min() < 0 or cols.max() >= self._n):
            bad = cols[(cols < 0) | (cols >= self._n)][0]
            raise ProblemError(f"objective references unknown variable id {bad}")
        if not np.all(np.isfinite(coefs)):
            raise ProblemError("non-finite coefficient")
        self._obj.append((cols.copy(), coefs.copy()))

    def set_bounds(self, cols, lower, upper) -> None:
        """Replace the bounds of ``cols``; their kinds keep applying."""
        self._check_mutable()
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        lo_all, hi_all, kinds = (a.copy() for a in self._columns())
        lo_all[cols] = lower
        hi_all[cols] = upper
        _check_bounds(lo_all[cols], hi_all[cols], kinds[cols] == _KINDS.index(BINARY),
                      lambda i: self.column_names()[cols[i]])
        self._cols = [(lo_all, hi_all, kinds)]

    def seal(self) -> "MilpProblem":
        """Freeze the problem and join its blocks into one array each, which
        copies share and later allocations do not fragment."""
        self._columns()
        if len(self._rows) > 1:
            self._rows = [tuple(_concat(self._rows, k) for k in range(5))]
        if len(self._obj) > 1:
            self._obj = [tuple(_concat(self._obj, k) for k in range(2))]
        self._sealed = True
        return self

    def _check_mutable(self):
        if self._sealed:
            raise ProblemError("problem is sealed; copy() it to modify")
        self._matrix_cache = None
        self._var_view = None

    @staticmethod
    def _sense_codes(sense, m: int) -> np.ndarray:
        if isinstance(sense, str):
            if sense not in _SENSES:
                raise ProblemError(f"unknown constraint sense '{sense}'")
            return np.full(m, _SENSES.index(sense), dtype=np.int8)
        sense = np.asarray(sense).reshape(m)
        codes = np.full(m, -1, dtype=np.int8)
        for code, s in enumerate(_SENSES):
            codes[sense == s] = code
        if (codes < 0).any():
            raise ProblemError(f"unknown constraint sense '{sense[np.argmax(codes < 0)]}'")
        return codes

    def copy(self, drop_rows: int = 0) -> "MilpProblem":
        """A mutable copy without the first ``drop_rows`` rows, which must be
        whole blocks; the stored blocks are shared (the kept rows as views),
        since no method writes into one."""
        if drop_rows not in {start for start, _, _ in self._row_names} | {self._m}:
            raise ProblemError(f"cannot drop {drop_rows} leading rows: not a block boundary")
        clone = MilpProblem(self.name)
        clone.objective_constant = self.objective_constant
        clone._n, clone._m = self._n, self._m - drop_rows
        clone._cols, clone._col_names, clone._obj = list(self._cols), list(self._col_names), list(self._obj)
        clone._rows = list(self._rows)
        clone._row_names = [(start - drop_rows, count, names)
                            for start, count, names in self._row_names if start >= drop_rows]
        if drop_rows:
            rows, cols, coefs, b, codes = (_concat(self._rows, k) for k in range(5))
            cut = int(np.searchsorted(rows, drop_rows))  # row ids ascend within and across blocks
            clone._rows = [(rows[cut:] - drop_rows, cols[cut:], coefs[cut:],
                            b[drop_rows:], codes[drop_rows:])]
        return clone

    # -- introspection ----------------------------------------------------
    @property
    def num_variables(self) -> int:
        return self._n

    @property
    def num_constraints(self) -> int:
        return self._m

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self._cols:
            empty = np.empty(0)
            return empty, empty, np.empty(0, dtype=np.int8)
        if len(self._cols) > 1:
            self._cols = [tuple(_concat(self._cols, k) for k in range(3))]
        return self._cols[0]

    def column_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lower, upper, _ = self._columns()
        return lower, upper

    def kind_mask(self, kind: str) -> np.ndarray:
        return self._columns()[2] == _KINDS.index(kind)

    @property
    def integer_mask(self) -> np.ndarray:
        return ~self.kind_mask(CONTINUOUS)

    @property
    def integer_ids(self) -> list[int]:
        return np.flatnonzero(self.integer_mask).tolist()

    def objective_vector(self) -> np.ndarray:
        """Objective coefficients, each summed in the order its terms were added."""
        if not self._obj:
            return np.zeros(self._n)
        c = np.bincount(_concat(self._obj, 0), weights=_concat(self._obj, 1), minlength=self._n)
        c[np.abs(c) < 1e-300] = 0.0  # terms that cancel leave an exact zero
        return c

    def matrices(self):
        """(c, A, senses, b, lower, upper) with A in CSR form; cached."""
        if self._matrix_cache is None:
            lower, upper, _ = self._columns()
            if self._rows:
                rows, cols, data, b, codes = (_concat(self._rows, k) for k in range(5))
            else:
                rows = cols = np.empty(0, dtype=np.int64)
                data = b = np.empty(0)
                codes = np.empty(0, dtype=np.int8)
            a_mat = sparse.csr_matrix((data, (rows, cols)), shape=(self._m, self._n))
            a_mat.eliminate_zeros()  # repeated terms that cancel
            senses = tuple(np.array(_SENSES)[codes].tolist())
            self._matrix_cache = (self.objective_vector(), a_mat, senses, b, lower, upper)
        return self._matrix_cache

    # -- names and read-only views ----------------------------------------
    def column_names(self) -> list[str]:
        out: list[str] = []
        for start, count, names in self._col_names:
            out += _render(names, count, "x", start)
        return out

    def row_names(self) -> list[str]:
        out: list[str] = []
        for start, count, names in self._row_names:
            out += _render(names, count, "c", start)
        return out

    @property
    def variables(self) -> list[VarSpec]:
        """Each column as a record; built from the arrays and kept until the problem changes."""
        if self._var_view is None:
            lower, upper, kinds = self._columns()
            self._var_view = [VarSpec(id=j, lower=lo, upper=hi, kind=_KINDS[k], name=name)
                              for j, (lo, hi, k, name) in enumerate(zip(
                                  lower.tolist(), upper.tolist(), kinds.tolist(), self.column_names()))]
        return list(self._var_view)


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

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, GAP_LIMIT)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_lp(problem: MilpProblem) -> str:
    """Render the problem in LP text format for external cross-checking."""
    c, a_mat, senses, b, lower, upper = problem.matrices()
    names = problem.column_names()

    def render(cols, coefs) -> str:
        parts = []
        for vid, coef in zip(cols, coefs):
            sign = "+" if coef >= 0 else "-"
            parts.append(f"{sign} {_fmt(abs(coef))} {names[vid]}")
        if not parts:
            return "0"
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out

    nz = np.flatnonzero(c)
    lines = [f"\\ Problem: {problem.name or 'unnamed'}", "Minimize",
             f" obj: {render(nz.tolist(), c[nz].tolist())}"]
    lines.append("Subject To")
    indptr, indices, data = a_mat.indptr, a_mat.indices.tolist(), a_mat.data.tolist()
    for i, cname in enumerate(problem.row_names()):
        lo, hi = indptr[i], indptr[i + 1]
        lines.append(f" {cname}: {render(indices[lo:hi], data[lo:hi])} {senses[i]} {_fmt(b[i])}")
    lines.append("Bounds")
    for name, lo, hi in zip(names, lower.tolist(), upper.tolist()):
        lo_s = "-inf" if math.isinf(lo) else _fmt(lo)
        hi_s = "+inf" if math.isinf(hi) else _fmt(hi)
        lines.append(f" {lo_s} <= {name} <= {hi_s}")
    for title, kind in (("Generals", INTEGER), ("Binaries", BINARY)):
        ids = np.flatnonzero(problem.kind_mask(kind))
        if len(ids):
            lines.append(title)
            lines.append(" " + " ".join(names[j] for j in ids))
    lines.append("End")
    return "\n".join(lines) + "\n"
