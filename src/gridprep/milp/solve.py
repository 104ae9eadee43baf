"""LP and MILP solving over :class:`MilpProblem`.

Every solve takes one path: an own presolve (singleton rows folded into
bounds, integer bounds rounded, fixed variables substituted out), then HiGHS
through SciPy, ``milp`` while integer variables remain and ``linprog`` once
none do.  HiGHS is deterministic at fixed inputs, so every solve is too.
Each returned point is checked against the original rows and bounds, and
one that breaks them raises :class:`NumericalInstabilityError`, as does a
HiGHS solve that ends in a load, presolve, solve or postsolve error; a
MILP stopped at its node limit returns ``ITERATION_LIMIT`` instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp as scipy_milp

from .problem import (
    DEFAULT_GAP_TOL,
    EQ,
    FEASIBILITY_TOL,
    GAP_LIMIT,
    GE,
    INFEASIBLE,
    INTEGRALITY_TOL,
    ITERATION_LIMIT,
    LE,
    OPTIMAL,
    UNBOUNDED,
    MilpProblem,
    MilpSolution,
    NumericalInstabilityError,
)


# HiGHS model statuses that mean the solve failed: load, presolve, solve and
# postsolve error.  SciPy's ``milp`` reports these as status 4, but also a
# node limit (HiGHS's solution limit) and every status it does not know, so
# the HiGHS status is read from the message.
_HIGHS_ERRORS = frozenset({1, 3, 4, 5})


def _highs_error(message: str) -> bool:
    found = re.search(r"HiGHS Status (\d+):", message)
    return found is not None and int(found.group(1)) in _HIGHS_ERRORS


@dataclass
class _Reduced:
    c: np.ndarray
    a: sparse.csr_matrix
    senses: tuple[str, ...]
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer_mask: np.ndarray
    obj_const: float
    keep_vars: np.ndarray  # original column ids of kept variables
    fixed: dict[int, float]
    infeasible: bool = False


def _presolve(problem: MilpProblem) -> _Reduced:
    """Bound tightening from singleton rows plus removal of fixed variables."""
    c, a_mat, senses, b, lower, upper = problem.matrices()
    lower = lower.copy()
    upper = upper.copy()
    b = b.copy()
    n = len(lower)
    integer_mask = np.array([v.is_integer for v in problem.variables], dtype=bool)

    def round_integer_bounds():
        lower[integer_mask] = np.ceil(lower[integer_mask] - INTEGRALITY_TOL)
        upper[integer_mask] = np.floor(upper[integer_mask] + INTEGRALITY_TOL)

    round_integer_bounds()
    if np.any(lower > upper + 1e-12):
        return _Reduced(c, a_mat, senses, b, lower, upper, integer_mask, 0.0,
                        np.arange(n), {}, infeasible=True)

    a_csr = a_mat.tocsr()
    drop_row = np.zeros(len(senses), dtype=bool)
    # singleton rows fold into variable bounds
    nnz_per_row = np.diff(a_csr.indptr)
    for i in np.nonzero(nnz_per_row == 1)[0]:
        j = a_csr.indices[a_csr.indptr[i]]
        coef = a_csr.data[a_csr.indptr[i]]
        if coef == 0.0:
            continue
        bound = b[i] / coef
        sense = senses[i]
        if sense == EQ:
            lower[j] = max(lower[j], bound)
            upper[j] = min(upper[j], bound)
        elif (sense == LE and coef > 0) or (sense == GE and coef < 0):
            upper[j] = min(upper[j], bound)
        else:
            lower[j] = max(lower[j], bound)
        drop_row[i] = True
    round_integer_bounds()
    if np.any(lower > upper + 1e-9):
        return _Reduced(c, a_mat, senses, b, lower, upper, integer_mask, 0.0,
                        np.arange(n), {}, infeasible=True)
    upper = np.maximum(upper, lower)  # collapse FP slack from rounding

    fixed_mask = (upper - lower) <= 1e-12
    fixed = {int(j): float(lower[j]) for j in np.nonzero(fixed_mask)[0]}
    keep = np.nonzero(~fixed_mask)[0]

    obj_const = problem.objective.constant
    if fixed:
        fixed_vals = np.zeros(n)
        for j, v in fixed.items():
            fixed_vals[j] = v
        b = b - a_csr @ fixed_vals
        obj_const += float(c @ fixed_vals)

    keep_rows = np.nonzero(~drop_row)[0]
    a_red = a_csr[keep_rows][:, keep]
    b_red = b[keep_rows]
    senses_red = tuple(senses[i] for i in keep_rows)

    # empty rows after substitution must be trivially satisfied
    nnz = np.diff(a_red.tocsr().indptr)
    ok_rows = []
    for i, cnt in enumerate(nnz):
        if cnt > 0:
            ok_rows.append(i)
            continue
        lhs = 0.0
        rhs = b_red[i]
        sense = senses_red[i]
        bad = (sense == LE and lhs > rhs + FEASIBILITY_TOL) or (
            sense == GE and lhs < rhs - FEASIBILITY_TOL
        ) or (sense == EQ and abs(lhs - rhs) > FEASIBILITY_TOL)
        if bad:
            return _Reduced(c, a_mat, senses, b, lower, upper, integer_mask, 0.0,
                            np.arange(n), {}, infeasible=True)
    a_red = a_red.tocsr()[ok_rows]
    b_red = b_red[ok_rows]
    senses_red = tuple(senses_red[i] for i in ok_rows)

    return _Reduced(
        c=c[keep],
        a=a_red,
        senses=senses_red,
        b=b_red,
        lower=lower[keep],
        upper=upper[keep],
        integer_mask=integer_mask[keep],
        obj_const=obj_const,
        keep_vars=keep,
        fixed=fixed,
    )


def _check_point(problem: MilpProblem, point: np.ndarray) -> None:
    """Raise :class:`NumericalInstabilityError` unless ``point`` meets every
    row of ``problem`` within ``FEASIBILITY_TOL`` * (1 + |rhs|) and every
    bound within ``FEASIBILITY_TOL`` * (1 + |x|)."""
    _, a_mat, senses, b, lower, upper = problem.matrices()
    if not np.all(np.isfinite(point)):
        raise NumericalInstabilityError(f"{problem.name or 'problem'}: solution is not finite")
    ax = a_mat @ point
    senses = np.asarray(senses)
    row_excess = np.where(senses == LE, ax - b, np.where(senses == GE, b - ax, np.abs(ax - b)))
    bound_excess = np.maximum(lower - point, point - upper)
    worst_row = np.max(row_excess / (1.0 + np.abs(b)), initial=0.0)
    worst_bound = np.max(bound_excess / (1.0 + np.abs(point)), initial=0.0)
    if max(worst_row, worst_bound) > FEASIBILITY_TOL:
        raise NumericalInstabilityError(
            f"{problem.name or 'problem'}: solution breaks a row by {worst_row:.3g} "
            f"and a bound by {worst_bound:.3g} (scaled as the tolerance is)")


def _expand_values(red: _Reduced, x: np.ndarray, problem: MilpProblem) -> dict[int, float]:
    """Every original variable's value, once the point passes :func:`_check_point`."""
    point = np.empty(problem.num_variables)
    point[red.keep_vars] = x
    if red.fixed:
        point[list(red.fixed)] = list(red.fixed.values())
    _check_point(problem, point)
    return dict(enumerate(point.tolist()))


def _lp_highs(problem: MilpProblem, red: _Reduced) -> MilpSolution:
    """Solve a reduced problem that has no integer variable left."""
    if red.a.shape[1] == 0:
        values = _expand_values(red, np.empty(0), problem)
        obj = red.obj_const
        return MilpSolution(status=OPTIMAL, values=values, objective=obj, best_bound=obj)
    le_rows = [i for i, s in enumerate(red.senses) if s == LE]
    ge_rows = [i for i, s in enumerate(red.senses) if s == GE]
    eq_rows = [i for i, s in enumerate(red.senses) if s == EQ]
    a_csr = red.a
    a_ub = b_ub = a_eq = b_eq = None
    if le_rows or ge_rows:
        parts = []
        rhs = []
        if le_rows:
            parts.append(a_csr[le_rows])
            rhs.append(red.b[le_rows])
        if ge_rows:
            parts.append(-a_csr[ge_rows])
            rhs.append(-red.b[ge_rows])
        a_ub = sparse.vstack(parts).tocsr()
        b_ub = np.concatenate(rhs)
    if eq_rows:
        a_eq = a_csr[eq_rows]
        b_eq = red.b[eq_rows]
    res = linprog(
        red.c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([red.lower, red.upper]),
        method="highs",
    )
    if res.status == 2:
        return MilpSolution(status=INFEASIBLE)
    if res.status == 3:
        return MilpSolution(status=UNBOUNDED)
    if res.status != 0:
        raise NumericalInstabilityError(f"HiGHS LP failed: {res.message}")
    values = _expand_values(red, np.asarray(res.x), problem)
    objective = float(res.fun) + red.obj_const
    return MilpSolution(status=OPTIMAL, values=values, objective=objective, best_bound=objective)


def _relative_gap(incumbent: float, bound: float) -> float:
    if not math.isfinite(incumbent):
        return math.inf
    return (incumbent - bound) / max(1.0, abs(incumbent))


def _milp_highs(problem: MilpProblem, red: _Reduced, gap_tol: float, node_limit: int) -> MilpSolution:
    lb = np.empty(len(red.senses))
    ub = np.empty(len(red.senses))
    for i, sense in enumerate(red.senses):
        if sense == LE:
            lb[i], ub[i] = -np.inf, red.b[i]
        elif sense == GE:
            lb[i], ub[i] = red.b[i], np.inf
        else:
            lb[i], ub[i] = red.b[i], red.b[i]
    constraints = LinearConstraint(red.a, lb, ub) if len(red.senses) else ()
    res = scipy_milp(
        c=red.c,
        constraints=constraints,
        integrality=red.integer_mask.astype(int),
        bounds=Bounds(red.lower, red.upper),
        options={"mip_rel_gap": gap_tol, "node_limit": node_limit, "presolve": True},
    )
    node_count = int(getattr(res, "mip_node_count", 0) or 0)
    if res.status == 2:
        return MilpSolution(status=INFEASIBLE, node_count=node_count)
    if res.status == 3:
        return MilpSolution(status=UNBOUNDED, node_count=node_count)
    if res.status == 4 and _highs_error(res.message):
        raise NumericalInstabilityError(f"HiGHS MILP failed: {res.message}")
    if res.x is None:
        return MilpSolution(status=ITERATION_LIMIT, node_count=node_count)
    x = np.asarray(res.x)
    x[red.integer_mask] = np.round(x[red.integer_mask])
    values = _expand_values(red, x, problem)
    objective = float(red.c @ x) + red.obj_const
    dual = getattr(res, "mip_dual_bound", None)
    best_bound = (float(dual) + red.obj_const) if dual is not None else objective
    if res.status == 0:
        status = OPTIMAL if _relative_gap(objective, best_bound) <= max(gap_tol, 1e-9) else GAP_LIMIT
    else:
        status = ITERATION_LIMIT
    return MilpSolution(
        status=status,
        values=values,
        objective=objective,
        best_bound=min(best_bound, objective),
        node_count=node_count,
    )


def solve_milp(
    problem: MilpProblem,
    gap_tol: float = DEFAULT_GAP_TOL,
    node_limit: int = 200_000,
) -> MilpSolution:
    """Solve to a proven relative gap; ``node_count`` is HiGHS's node count.

    Integer bounds stay as presolve rounded them when it leaves no integer
    variable, so the LP it then solves is the MILP itself.
    """
    red = _presolve(problem)
    if red.infeasible:
        return MilpSolution(status=INFEASIBLE, diagnostics=("infeasible during presolve",))
    if not np.any(red.integer_mask):
        return _lp_highs(problem, red)
    return _milp_highs(problem, red, gap_tol, node_limit)
