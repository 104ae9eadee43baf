"""Independent reference implementations used only as test oracles.

None of these share code paths with the package: the LP oracle is a plain
Big-M tableau simplex under Bland's rule, the MILP oracle enumerates every
integer assignment, cycle counts come from union-find, energization from
breadth-first search, and big-M values from interval arithmetic.  The
membership and violation checks at the end test points against the package's
own polygon faces and problem rows.
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

    Continuous remainders are solved with SciPy's LP (a code path disjoint
    from the package kernel's tree search).  Returns math.inf when every
    assignment is infeasible.
    """
    from gridprep.milp import EQ, GE, LE

    int_ids = [v.id for v in problem.variables if v.is_integer]
    cont_ids = [v.id for v in problem.variables if not v.is_integer]
    ranges = []
    for vid in int_ids:
        spec = problem.variables[vid]
        ranges.append(range(int(math.ceil(spec.lower)), int(math.floor(spec.upper)) + 1))
    best = math.inf
    for assignment in itertools.product(*ranges):
        fixed = dict(zip(int_ids, assignment))
        if cont_ids:
            c = np.array([problem.objective.terms.get(v, 0.0) for v in cont_ids])
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            feasible = True
            for con in problem.constraints:
                const = con.expr.constant + sum(
                    coef * fixed[v] for v, coef in con.expr.terms.items() if v in fixed
                )
                row = [con.expr.terms.get(v, 0.0) for v in cont_ids]
                rhs = con.rhs - const
                if not any(row):
                    if con.sense == LE and 0.0 > rhs + 1e-9:
                        feasible = False
                    if con.sense == GE and 0.0 < rhs - 1e-9:
                        feasible = False
                    if con.sense == EQ and abs(rhs) > 1e-9:
                        feasible = False
                    continue
                if con.sense == LE:
                    a_ub.append(row)
                    b_ub.append(rhs)
                elif con.sense == GE:
                    a_ub.append([-v for v in row])
                    b_ub.append(-rhs)
                else:
                    a_eq.append(row)
                    b_eq.append(rhs)
            if not feasible:
                continue
            bounds = [(problem.variables[v].lower, problem.variables[v].upper) for v in cont_ids]
            res = linprog(
                c,
                A_ub=np.array(a_ub) if a_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=bounds,
                method="highs",
            )
            if res.status != 0:
                continue
            value = float(res.fun)
        else:
            ok = True
            for con in problem.constraints:
                lhs = con.expr.constant + sum(coef * fixed[v] for v, coef in con.expr.terms.items())
                if con.sense == LE and lhs > con.rhs + 1e-9:
                    ok = False
                elif con.sense == GE and lhs < con.rhs - 1e-9:
                    ok = False
                elif con.sense == EQ and abs(lhs - con.rhs) > 1e-9:
                    ok = False
                if not ok:
                    break
            if not ok:
                continue
            value = 0.0
        total = value + problem.objective.constant + sum(
            problem.objective.terms.get(v, 0.0) * fixed[v] for v in int_ids
        )
        best = min(best, total)
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
    for key, vid in compiled.index.items():
        if key[0] == "chi":
            biased.add_objective_term(vid, -delta)
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


def expr_value(expr, values) -> float:
    return expr.constant + sum(coef * values[vid] for vid, coef in expr.terms.items())


def constraint_violation(con, values) -> float:
    from gridprep.milp import GE, LE

    lhs = expr_value(con.expr, values)
    if con.sense == LE:
        return max(0.0, lhs - con.rhs)
    if con.sense == GE:
        return max(0.0, con.rhs - lhs)
    return abs(lhs - con.rhs)


def max_violation(problem, values) -> float:
    worst = 0.0
    for v in problem.variables:
        x = values[v.id]
        worst = max(worst, v.lower - x, x - v.upper)
    for con in problem.constraints:
        worst = max(worst, constraint_violation(con, values))
    return worst


def max_integrality_violation(problem, values) -> float:
    worst = 0.0
    for v in problem.variables:
        if v.is_integer:
            x = values[v.id]
            worst = max(worst, abs(x - round(x)))
    return worst
