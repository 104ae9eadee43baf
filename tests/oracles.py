"""Independent reference implementations used only as test oracles.

None of these share code paths with the package: the LP oracle is a plain
Big-M tableau simplex under Bland's rule, the MILP oracle enumerates every
integer assignment, cycle counts come from union-find, energization from
breadth-first search, and big-M values from interval arithmetic.  The
membership and violation checks at the end test points against the package's
own polygon faces and against a problem's arrays (``matrices()``, the
kind masks), which is also all the MILP oracle reads of a problem.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog


# -- naive textbook simplex (Big-M, full tableau, Bland's rule) -------------


def naive_simplex(c, a_mat, senses, b, lower, upper, max_iter=20000):
    """Minimize c'x s.t. a_mat x (senses) b, lower <= x <= upper.

    Returns (status, objective) with status in {"optimal", "infeasible",
    "unbounded"}.  Shifts to nonnegative variables, adds explicit upper-bound
    rows, slacks, and Big-M artificials, then pivots with Bland's rule.
    """
    c = np.asarray(c, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = len(c)
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("naive oracle needs finite bounds")

    # substitute x = y + lower with y >= 0; bound rows enforce y <= span
    span = upper - lower
    b_shift = b - a_mat @ lower
    obj_shift = float(c @ lower)

    rows = [list(a_mat[i]) for i in range(len(b))]
    rhs = list(b_shift)
    row_senses = list(senses)
    for j in range(n):
        bound_row = [0.0] * n
        bound_row[j] = 1.0
        rows.append(bound_row)
        rhs.append(span[j])
        row_senses.append("<=")

    # flip rows to nonnegative rhs
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            row_senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[row_senses[i]]

    m = len(rows)
    slack_cols = []
    art_cols = []
    for i, sense in enumerate(row_senses):
        if sense == "<=":
            slack_cols.append((i, 1.0))
        elif sense == ">=":
            slack_cols.append((i, -1.0))
            art_cols.append(i)
        else:
            art_cols.append(i)

    total = n + len(slack_cols) + len(art_cols)
    tab = np.zeros((m, total + 1))
    for i in range(m):
        tab[i, :n] = rows[i]
        tab[i, -1] = rhs[i]
    basis = [-1] * m
    for k, (i, sign) in enumerate(slack_cols):
        tab[i, n + k] = sign
        if sign > 0:
            basis[i] = n + k
    big_m = 1e7 * max(1.0, float(np.max(np.abs(c))) if n else 1.0)
    cost = np.zeros(total)
    cost[:n] = c
    for k, i in enumerate(art_cols):
        col = n + len(slack_cols) + k
        tab[i, col] = 1.0
        basis[i] = col
        cost[col] = big_m

    for _ in range(max_iter):
        cb = cost[basis]
        z = cb @ tab[:, :total]
        reduced = cost - z
        entering = -1
        for j in range(total):  # Bland: first improving index
            if reduced[j] < -1e-9:
                entering = j
                break
        if entering < 0:
            break
        ratios = []
        for i in range(m):
            if tab[i, entering] > 1e-9:
                ratios.append((tab[i, -1] / tab[i, entering], basis[i], i))
        if not ratios:
            return "unbounded", math.nan
        ratios.sort(key=lambda r: (r[0], r[1]))
        _, _, pivot_row = ratios[0]
        piv = tab[pivot_row, entering]
        tab[pivot_row] /= piv
        for i in range(m):
            if i != pivot_row and abs(tab[i, entering]) > 1e-12:
                tab[i] -= tab[i, entering] * tab[pivot_row]
        basis[pivot_row] = entering
    else:
        raise RuntimeError("naive simplex iteration limit")

    x_full = np.zeros(total)
    for i in range(m):
        x_full[basis[i]] = tab[i, -1]
    art_start = n + len(slack_cols)
    if np.any(x_full[art_start:] > 1e-6):
        return "infeasible", math.nan
    return "optimal", float(cost[:n] @ x_full[:n]) + obj_shift


# -- exhaustive MILP oracle --------------------------------------------------


def brute_force_milp(problem):
    """Optimal objective by enumerating every integer assignment.

    Reads the problem's arrays.  Continuous remainders are solved with
    SciPy's LP, one per assignment, a path apart from the package's
    presolve.  Returns math.inf when every assignment is infeasible.
    """
    from gridprep.milp import CONTINUOUS, EQ, GE, LE

    c, a_mat, senses, b, lower, upper = problem.matrices()
    a_mat = a_mat.toarray()
    senses = np.asarray(senses)
    cont = problem.kind_mask(CONTINUOUS)
    int_ids = np.flatnonzero(~cont)
    combos = list(itertools.product(*(
        range(int(math.ceil(lower[j])), int(math.floor(upper[j])) + 1) for j in int_ids)))
    assignments = np.array(combos, dtype=float).reshape(len(combos), len(int_ids))
    # each assignment's right-hand sides once the integers are moved across
    rhs = b - assignments @ a_mat[:, int_ids].T
    a_cont = a_mat[:, cont]
    # a row without a continuous term holds or fails on the assignment alone
    empty = ~a_cont.any(axis=1)
    broken = empty & (((senses == LE) & (0.0 > rhs + 1e-9))
                      | ((senses == GE) & (0.0 < rhs - 1e-9))
                      | ((senses == EQ) & (np.abs(rhs) > 1e-9)))
    ineq = ~empty & (senses != EQ)
    eq = ~empty & (senses == EQ)
    sign = np.where(senses[ineq] == GE, -1.0, 1.0)
    best = math.inf
    for x_int, row_rhs, bad in zip(assignments, rhs, broken):
        if bad.any():
            continue
        value = 0.0
        if cont.any():
            res = linprog(
                c[cont],
                A_ub=a_cont[ineq] * sign[:, None] if ineq.any() else None,
                b_ub=row_rhs[ineq] * sign if ineq.any() else None,
                A_eq=a_cont[eq] if eq.any() else None,
                b_eq=row_rhs[eq] if eq.any() else None,
                bounds=list(zip(lower[cont], upper[cont])),
                method="highs",
            )
            if res.status != 0:
                continue
            value = float(res.fun)
        best = min(best, value + problem.objective_constant + float(c[int_ids] @ x_int))
    return best


# -- graph oracles ------------------------------------------------------------


def cycle_space_dimension(bus_ids, edges):
    """|E| - |V| + C via union-find over (from, to) edge pairs."""
    parent = {b: b for b in bus_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(bus_ids)
    for frm, to in edges:
        ra, rb = find(frm), find(to)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return len(edges) - len(bus_ids) + components


def reachable_buses(model, closed_line_ids, source_buses):
    """Breadth-first closure over closed lines starting from source buses."""
    adj = {}
    for line in model.lines:
        if line.id in closed_line_ids:
            adj.setdefault(line.from_bus, []).append(line.to_bus)
            adj.setdefault(line.to_bus, []).append(line.from_bus)
    seen = set()
    frontier = [b for b in source_buses]
    while frontier:
        nxt = []
        for b in frontier:
            if b in seen:
                continue
            seen.add(b)
            nxt.extend(adj.get(b, []))
        frontier = nxt
    return seen


def solve_preferring_energization(compiled, delta=0.01, gap_tol=1e-6):
    """Solve with a tiny reward on every energization flag.

    Alternate optima can leave an energizable island dark (energization is
    costless), so reachability comparisons tie-break toward the lit variant.
    The caller should confirm the returned point still attains the true
    optimum, which makes the perturbation purely a tie-breaker.
    """
    from gridprep.milp import solve_milp

    biased = compiled.problem.copy()
    biased.add_objective([vid for key, vid in compiled.index.items() if key[0] == "chi"], -delta)
    return solve_milp(biased.seal(), gap_tol=gap_tol)


# -- interval arithmetic for the voltage relaxation ---------------------------


def interval_voltage_big_m(line, model):
    """Range bound of U_i - U_j - 2 sum(R P + X Q)/base over the variable box."""
    lo = 0.0 - model.u_max(line.to_bus)
    hi = model.u_max(line.from_bus) - 0.0
    worst = 0.0
    for pa in line.phases:
        i = "abc".index(pa)
        row = 0.0
        for pb in line.phases:
            j = "abc".index(pb)
            row += abs(line.r_matrix[i][j]) * line.p_max + abs(line.x_matrix[i][j]) * line.q_max
        worst = max(worst, row)
    flow_span = 2.0 * worst / model.base_kva
    return max(hi + flow_span, -(lo - flow_span))


# -- membership and violation checks ------------------------------------------


def polygon_admits(p: float, q: float, s_kva: float, segments: int, p_nonneg: bool = True) -> bool:
    """Membership oracle for the polygonized capacity region."""
    from gridprep.formulation import polygonize_capacity

    if p_nonneg and p < -1e-12:
        return False
    return all(a * p + b * q <= rhs + 1e-9 for a, b, rhs in polygonize_capacity(s_kva, segments))


def _point(problem, values) -> np.ndarray:
    return np.array([values[j] for j in range(problem.num_variables)])


def max_violation(problem, values) -> float:
    """Largest amount by which ``values`` break a bound or a row, unscaled."""
    from gridprep.milp import GE, LE

    _, a_mat, senses, b, lower, upper = problem.matrices()
    x = _point(problem, values)
    ax = a_mat @ x
    senses = np.asarray(senses)
    rows = np.where(senses == LE, ax - b, np.where(senses == GE, b - ax, np.abs(ax - b)))
    return float(max(0.0, np.max(lower - x, initial=0.0), np.max(x - upper, initial=0.0),
                     np.max(rows, initial=0.0)))


def max_integrality_violation(problem, values) -> float:
    from gridprep.milp import CONTINUOUS

    x = _point(problem, values)[~problem.kind_mask(CONTINUOUS)]
    return float(np.max(np.abs(x - np.round(x)), initial=0.0))
