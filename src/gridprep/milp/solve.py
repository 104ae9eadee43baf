"""LP and MILP solving over :class:`MilpProblem`.

Every solve takes one path: an own presolve (singleton rows folded into
bounds, integer bounds rounded, fixed variables substituted out), then HiGHS
through SciPy's ``milp``, which runs HiGHS's LP solver once no integer
variable remains.  HiGHS is deterministic at fixed inputs, so every solve is
too.  Each returned point is checked against the original rows and bounds,
and one that breaks them raises :class:`NumericalInstabilityError`; the
checked point, one float64 per column, is the solution's ``values``, and its
cost, added in column order by :func:`~gridprep.parallel.ordered_sum`, is
the solution's ``objective``.  A HiGHS solve that ends in a load, presolve,
solve or postsolve error is tried once more with HiGHS's own presolve off,
and raises the same error only if that fails too; a MILP stopped at its node
limit returns ``ITERATION_LIMIT`` instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy import sparse
# linprog is called nowhere: perfbench/spans.py wraps this module's binding of it
from scipy.optimize import Bounds, LinearConstraint, linprog, milp as scipy_milp

from ..parallel import ordered_sum
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

#: branch-and-bound nodes HiGHS may explore in one MILP solve
NODE_LIMIT = 200_000


def _highs_error(message: str) -> bool:
    found = re.search(r"HiGHS Status (\d+):", message)
    return found is not None and int(found.group(1)) in _HIGHS_ERRORS


@dataclass
class _Reduced:
    c: np.ndarray
    a: sparse.csr_matrix
    senses: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer_mask: np.ndarray
    obj_const: float  # the objective constant plus the fixed columns' cost
    keep_vars: np.ndarray  # original column ids of kept variables
    fixed: np.ndarray  # original column ids of variables presolve fixed
    fixed_values: np.ndarray
    infeasible: bool = False


def _tighten(bound: np.ndarray, cols: np.ndarray, values: np.ndarray, better) -> None:
    """Move ``bound[j]`` to each of ``values`` (for ``cols``) that is ``better``, in order.

    The result equals applying them one by one: the first value that
    reaches the best one wins, so a tie between 0.0 and -0.0 keeps the
    earlier sign.
    """
    best = bound.copy()
    (np.minimum if better is np.less else np.maximum).at(best, cols, values)
    moves = better(best[cols], bound[cols]) & (values == best[cols])
    moved, first = np.unique(cols[moves], return_index=True)
    bound[moved] = values[moves][first]


def _presolve(problem: MilpProblem) -> _Reduced:
    """Bound tightening from singleton rows plus removal of fixed variables."""
    c, a_mat, senses, b, lower, upper = problem.matrices()
    lower = lower.copy()
    upper = upper.copy()
    b = b.copy()
    senses = np.array(senses, dtype=str)
    n = len(lower)
    integer_mask = problem.integer_mask

    def round_integer_bounds():
        lower[integer_mask] = np.ceil(lower[integer_mask] - INTEGRALITY_TOL)
        upper[integer_mask] = np.floor(upper[integer_mask] + INTEGRALITY_TOL)

    def infeasible():
        return _Reduced(c, a_mat, senses, b, lower, upper, integer_mask, 0.0,
                        np.arange(n), np.empty(0, dtype=np.int64), np.empty(0), infeasible=True)

    round_integer_bounds()
    if np.any(lower > upper + 1e-12):
        return infeasible()

    a_csr = a_mat.tocsr()
    # singleton rows fold into variable bounds
    singles = np.flatnonzero(np.diff(a_csr.indptr) == 1)
    singles = singles[a_csr.data[a_csr.indptr[singles]] != 0.0]
    drop_row = np.zeros(len(senses), dtype=bool)
    drop_row[singles] = True
    cols = a_csr.indices[a_csr.indptr[singles]]
    coef = a_csr.data[a_csr.indptr[singles]]
    bound = b[singles] / coef
    sense = senses[singles]
    caps_upper = (sense == EQ) | ((sense == LE) & (coef > 0)) | ((sense == GE) & (coef < 0))
    caps_lower = (sense == EQ) | ~caps_upper
    _tighten(lower, cols[caps_lower], bound[caps_lower], np.greater)
    _tighten(upper, cols[caps_upper], bound[caps_upper], np.less)
    round_integer_bounds()
    if np.any(lower > upper + 1e-9):
        return infeasible()
    upper = np.maximum(upper, lower)  # collapse FP slack from rounding

    fixed_mask = (upper - lower) <= 1e-12
    keep = np.flatnonzero(~fixed_mask)

    if fixed_mask.any():
        b = b - a_csr @ np.where(fixed_mask, lower, 0.0)

    keep_rows = np.nonzero(~drop_row)[0]
    a_red = a_csr[keep_rows][:, keep].tocsr()
    b_red = b[keep_rows]
    senses_red = senses[keep_rows]

    # empty rows after substitution must be trivially satisfied (0 against the rhs)
    empty = np.diff(a_red.indptr) == 0
    bad = empty & (((senses_red == LE) & (0.0 > b_red + FEASIBILITY_TOL))
                   | ((senses_red == GE) & (0.0 < b_red - FEASIBILITY_TOL))
                   | ((senses_red == EQ) & (np.abs(b_red) > FEASIBILITY_TOL)))
    if bad.any():
        return infeasible()
    ok_rows = np.flatnonzero(~empty)

    return _Reduced(
        c=c[keep],
        a=a_red[ok_rows],
        senses=senses_red[ok_rows],
        b=b_red[ok_rows],
        lower=lower[keep],
        upper=upper[keep],
        integer_mask=integer_mask[keep],
        obj_const=ordered_sum(c[fixed_mask] * lower[fixed_mask], start=problem.objective_constant),
        keep_vars=keep,
        fixed=np.flatnonzero(fixed_mask),
        fixed_values=lower[fixed_mask],
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


def _finish(problem: MilpProblem, red: _Reduced, x: np.ndarray, dual_bound: float | None = None,
            node_count: int = 0) -> MilpSolution:
    """The optimal solution at the reduced point ``x``, once the full point
    passes :func:`_check_point`.  Its objective is the point's cost over the
    original columns, added in column order; its bound is HiGHS's dual bound
    on the reduced problem plus presolve's constant, never above the
    objective, or the objective itself when ``dual_bound`` is None."""
    point = np.empty(problem.num_variables)
    point[red.keep_vars] = x
    point[red.fixed] = red.fixed_values
    _check_point(problem, point)
    objective = ordered_sum(problem.matrices()[0] * point, start=problem.objective_constant)
    bound = objective if dual_bound is None else min(float(dual_bound) + red.obj_const, objective)
    return MilpSolution(status=OPTIMAL, values=point, objective=objective, best_bound=bound,
                        node_count=node_count)


def _milp_highs(problem: MilpProblem, red: _Reduced, gap_tol: float) -> MilpSolution:
    lb = np.where(red.senses == LE, -np.inf, red.b)
    ub = np.where(red.senses == GE, np.inf, red.b)
    constraints = LinearConstraint(red.a, lb, ub) if len(red.senses) else ()

    def run(presolve: bool):
        return scipy_milp(
            c=red.c,
            constraints=constraints,
            integrality=red.integer_mask.astype(int),
            bounds=Bounds(red.lower, red.upper),
            options={"mip_rel_gap": gap_tol, "node_limit": NODE_LIMIT, "presolve": presolve},
        )

    res = run(presolve=True)
    if res.status == 4 and _highs_error(res.message):
        # HiGHS's presolve can fail on a problem its solver handles (the
        # 26-column consensus repair of ROADMAP's D2): retry once without it
        res = run(presolve=False)
        if res.status == 4 and _highs_error(res.message):
            raise NumericalInstabilityError(f"HiGHS MILP failed: {res.message}")
    node_count = int(getattr(res, "mip_node_count", 0) or 0)
    if res.status == 2:
        return MilpSolution(status=INFEASIBLE, node_count=node_count)
    if res.status == 3:
        return MilpSolution(status=UNBOUNDED, node_count=node_count)
    if res.x is None:
        return MilpSolution(status=ITERATION_LIMIT, node_count=node_count)
    x = np.asarray(res.x)
    x[red.integer_mask] = np.round(x[red.integer_mask])
    sol = _finish(problem, red, x, getattr(res, "mip_dual_bound", None), node_count)
    gap = (sol.objective - sol.best_bound) / max(1.0, abs(sol.objective))
    if res.status != 0:
        sol.status = ITERATION_LIMIT
    elif not gap <= max(gap_tol, 1e-9):  # a NaN gap proves nothing
        sol.status = GAP_LIMIT
    return sol


def solve_milp(problem: MilpProblem, gap_tol: float = DEFAULT_GAP_TOL) -> MilpSolution:
    """Solve to a proven relative gap; ``node_count`` is HiGHS's node count.

    Every reduced problem with a column goes to HiGHS through SciPy's
    ``milp``.  Integer bounds stay as presolve rounded them when it leaves no
    integer variable, so the LP HiGHS then solves is the MILP itself, and
    its bound is its objective.  A problem presolve fixes whole is checked
    and returned without HiGHS.
    """
    red = _presolve(problem)
    if red.infeasible:
        return MilpSolution(status=INFEASIBLE)
    if len(red.c) == 0:  # SciPy's milp refuses an empty objective
        return _finish(problem, red, np.empty(0))
    return _milp_highs(problem, red, gap_tol)
