import math
from types import SimpleNamespace

import numpy as np
import pytest

from gridprep.milp import (
    BINARY,
    EQ,
    GE,
    INTEGER,
    ITERATION_LIMIT,
    LE,
    MilpProblem,
    NumericalInstabilityError,
    ProblemError,
    solve_milp,
    write_lp,
)

from gridprep.parallel import ordered_sum

from .oracles import brute_force_milp, max_integrality_violation, max_violation, naive_simplex


def build(c, a, senses, b, bounds, kinds=None):
    """A sealed problem with one column per entry of ``c``, named x0, x1, ..."""
    p = MilpProblem()
    n = len(c)
    kinds = kinds or ["continuous"] * n
    for j in range(n):
        p.add_columns([bounds[j][0]], [bounds[j][1]], kinds[j], [f"x{j}"])
    if len(b):
        p.add_rows(np.tile(np.arange(n), (len(b), 1)), np.asarray(a, dtype=float), list(senses), b)
    p.add_objective(np.arange(n), c)
    return p.seal()


def random_lp(rng, n=None, m=None):
    n = n or int(rng.integers(2, 10))
    m = m or int(rng.integers(1, 8))
    c = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(-1.0, 2.0, size=n)
    senses = [(LE, GE, EQ)[int(rng.integers(0, 3))] for _ in range(m)]
    b = a @ x0
    for i, s in enumerate(senses):
        if s == LE:
            b[i] += rng.uniform(0.0, 1.0)
        elif s == GE:
            b[i] -= rng.uniform(0.0, 1.0)
    bounds = [(-3.0, 4.0)] * n
    return c, a, senses, b, bounds


def random_milp(rng):
    """A MILP over 2-6 binaries and up to 2 continuous columns with 1-5
    rows, feasible at the seed point it also returns."""
    nb = int(rng.integers(2, 7))
    nc = int(rng.integers(0, 3))
    n = nb + nc
    m = int(rng.integers(1, 6))
    c = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    seed_x = np.concatenate([rng.integers(0, 2, nb).astype(float), rng.uniform(-1, 2, nc)])
    senses = [(LE, GE)[int(rng.integers(0, 2))] for _ in range(m)]
    b = a @ seed_x
    for i, s in enumerate(senses):
        b[i] += rng.uniform(0, 0.5) * (1 if s == LE else -1)
    bounds = [(0, 1)] * nb + [(-2.0, 3.0)] * nc
    kinds = [BINARY] * nb + ["continuous"] * nc
    return c, a, senses, b, bounds, kinds, seed_x


def assert_ordered_objective(problem, sol):
    """The reported objective is the checked point's cost, added column by
    column from the objective constant."""
    expected = ordered_sum(problem.matrices()[0] * sol.values, start=problem.objective_constant)
    assert sol.objective == expected


PRESOLVE_PATHS = ["gridprep-presolve", "as-built"]
# "gridprep-presolve": the instance also carries a fixed column and a
# singleton row, which gridprep's own presolve substitutes out and folds into
# bounds before HiGHS runs; "as-built": gridprep's presolve finds nothing to
# remove and HiGHS solves the instance as built.


def with_presolve_work(rng, c, a, senses, b, bounds, kinds, cap):
    """Append a column fixed at a point and the singleton row 2 x0 <= 2 cap.

    The right-hand sides shift by the fixed column, so every point feasible
    before with x0 <= cap stays feasible.
    """
    v = float(rng.uniform(-1.0, 2.0))
    col = rng.normal(size=len(b))
    c = np.append(c, rng.normal())
    a = np.column_stack([a, col])
    b = np.asarray(b, dtype=float) + col * v
    row = np.zeros(a.shape[1])
    row[0] = 2.0
    a = np.vstack([a, row])
    b = np.append(b, 2.0 * cap)
    return c, a, list(senses) + [LE], b, list(bounds) + [(v, v)], list(kinds) + ["continuous"]


class TestProblemRepresentation:
    def test_zero_coefficients_are_normalized_away(self):
        p = MilpProblem()
        p.add_columns([0.0, 0.0], [1.0, 1.0])
        # a zero coefficient leaves its term out; repeated terms that cancel drop out
        p.add_rows([[0, 1], [1, 1]], [[0.0, 2.0], [1.0, -1.0]], LE, 1.0)
        p.add_objective([0, 0], [1.0, -1.0])
        c, a_mat, *_ = p.seal().matrices()
        assert a_mat.nnz == 1 and a_mat[0, 1] == 2.0
        assert not c.any()

    def test_binary_bounds_enforced(self):
        p = MilpProblem()
        with pytest.raises(ProblemError, match="binary"):
            p.add_columns([0.0], [2.0], BINARY)
        p.add_columns([0.0], [1.0], BINARY)
        with pytest.raises(ProblemError, match="binary"):
            p.set_bounds([0], -1.0, 1.0)

    def test_crossed_bounds_rejected(self):
        p = MilpProblem()
        with pytest.raises(ProblemError, match="lower > upper"):
            p.add_columns([0.0, 1.0], [1.0, 0.0])
        p.add_columns([0.0], [1.0])
        with pytest.raises(ProblemError, match="lower > upper"):
            p.set_bounds([0], 2.0, 1.0)

    def test_unknown_variable_in_constraint(self):
        p = MilpProblem()
        p.add_columns([0.0], [1.0])
        with pytest.raises(ProblemError, match="unknown variable id 5"):
            p.add_rows([[5]], 1.0, LE, 1.0)
        with pytest.raises(ProblemError, match="unknown variable id 5"):
            p.add_objective([5], 1.0)

    def test_sealed_problems_reject_mutation(self):
        p = MilpProblem()
        p.add_columns([0.0], [1.0])
        p.seal()
        with pytest.raises(ProblemError, match="sealed"):
            p.add_columns([0.0], [1.0])
        with pytest.raises(ProblemError, match="sealed"):
            p.add_rows([[0]], 1.0, LE, 1.0)
        with pytest.raises(ProblemError, match="sealed"):
            p.add_objective([0], 1.0)
        with pytest.raises(ProblemError, match="sealed"):
            p.set_bounds([0], 0.0, 0.0)
        # a copy is mutable and leaves the original as it was
        q = p.copy()
        q.set_bounds([0], 1.0, 1.0)
        assert p.column_bounds()[0][0] == 0.0 and q.column_bounds()[0][0] == 1.0

    def test_copy_can_leave_out_leading_row_blocks(self):
        p = MilpProblem()
        p.add_columns([0.0, 0.0], [1.0, 1.0], names=["x", "y"])
        p.add_rows([[0, 1]], 1.0, LE, 1.0, ["head"])
        p.add_rows([[0], [1]], [[2.0], [3.0]], [GE, EQ], [0.5, 0.25], ["a", "b"])
        p.seal()
        q = p.copy(drop_rows=1)
        assert q.row_names() == ["a", "b"] and p.row_names() == ["head", "a", "b"]
        _, a_mat, senses, b, lower, _ = q.matrices()
        assert a_mat.toarray().tolist() == [[2.0, 0.0], [0.0, 3.0]]
        assert senses == (GE, EQ) and b.tolist() == [0.5, 0.25]
        assert lower is p.column_bounds()[0]  # column blocks are shared
        assert p.matrices()[1].shape == (3, 2)
        with pytest.raises(ProblemError, match="block boundary"):
            p.copy(drop_rows=2)

    def test_non_finite_coefficients_rejected(self):
        p = MilpProblem()
        p.add_columns([0.0], [1.0])
        with pytest.raises(ProblemError, match="non-finite coefficient"):
            p.add_rows([[0]], math.inf, LE, 1.0)
        with pytest.raises(ProblemError, match="non-finite rhs"):
            p.add_rows([[0]], 1.0, LE, math.nan)
        with pytest.raises(ProblemError, match="non-finite coefficient"):
            p.add_objective([0], math.nan)

    def test_lp_format_output(self):
        p = build([1.0, -2.5], [[1.0, 1.0]], [LE], [3.0], [(0, 5), (0, 1)],
                  kinds=["continuous", "binary"])
        text = write_lp(p)
        assert "Minimize" in text and "Subject To" in text and "Binaries" in text
        assert "2.5 x1" in text
        # 17 significant digits survive the rendering
        p2 = build([1.0 / 3.0], [], [], [], [(0, 1)])
        assert f"{1.0/3.0:.17g}" in write_lp(p2)


class TestSolveLp:
    """Problems with no integer variable, solved by HiGHS through ``milp`` with no integrality."""

    def test_lower_bounded_singleton(self):
        p = build([1.0], [[1.0]], [GE], [3.0], [(0.0, 10.0)])
        sol = solve_milp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_symmetric_face(self):
        p = build([-1.0, -1.0], [[1.0, 1.0]], [LE], [1.0], [(0, 1), (0, 1)])
        assert solve_milp(p).objective == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("path", PRESOLVE_PATHS)
    def test_twenty_random_lps_match_naive_oracle(self, path):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 20:
            c, a, senses, b, bounds = random_lp(rng)
            kinds = ["continuous"] * len(c)
            if path == "gridprep-presolve":
                # random_lp's feasible point has x0 <= 2
                c, a, senses, b, bounds, kinds = with_presolve_work(
                    rng, c, a, senses, b, bounds, kinds, cap=rng.uniform(2.0, 4.0))
            lo = np.array([x[0] for x in bounds])
            hi = np.array([x[1] for x in bounds])
            status, ref_obj = naive_simplex(c, a, senses, b, lo, hi)
            p = build(c, a, senses, b, bounds, kinds)
            sol = solve_milp(p)
            if status == "optimal":
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(ref_obj, abs=1e-6)
                assert sol.best_bound == sol.objective and sol.node_count == 0
                checked += 1
            else:
                assert sol.status == status

    def test_infeasible(self):
        p = build([1.0], [[1.0], [1.0]], [GE, LE], [2.0, 1.0], [(0.0, 10.0)])
        assert solve_milp(p).status == "infeasible"

    def test_unbounded(self):
        p = build([1.0], [], [], [], [(-math.inf, math.inf)])
        assert solve_milp(p).status == "unbounded"

    def test_feasibility_residual_within_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c, a, senses, b, bounds = random_lp(rng)
            p = build(c, a, senses, b, bounds)
            sol = solve_milp(p)
            if sol.status == "optimal":
                assert max_violation(p, sol.values) <= 1e-6

    def test_equality_heavy_system(self):
        # x + y = 1, x - y = 0 -> x = y = 1/2
        p = build([1.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [EQ, EQ], [1.0, 0.0],
                  [(0, 1), (0, 1)])
        sol = solve_milp(p)
        assert sol.values[0] == pytest.approx(0.5, abs=1e-9)


class TestSolveMilp:
    def test_covering_pair(self):
        p = build([1.0, 1.0], [[1.0, 1.0]], [GE], [1.5], [(0, 1), (0, 1)],
                  kinds=[BINARY, BINARY])
        sol = solve_milp(p, gap_tol=0.0)
        assert sol.objective == pytest.approx(2.0)
        assert sol.status == "optimal"

    def test_all_continuous_equals_lp(self):
        rng = np.random.default_rng(9)
        c, a, senses, b, bounds = random_lp(rng)
        p = build(c, a, senses, b, bounds)
        milp_sol = solve_milp(p, gap_tol=0.0)
        status, ref_obj = naive_simplex(c, a, senses, b, *np.transpose(bounds))
        assert status == "optimal"
        assert milp_sol.objective == pytest.approx(ref_obj, abs=1e-9)

    @pytest.mark.parametrize("path", PRESOLVE_PATHS)
    def test_random_instances_match_brute_force(self, path):
        rng = np.random.default_rng(31)
        for _ in range(25):
            c, a, senses, b, bounds, kinds, seed_x = random_milp(rng)
            if path == "gridprep-presolve":
                # x0 <= seed + 1/4 rounds to x0 = 0 when the seed's x0 is 0
                c, a, senses, b, bounds, kinds = with_presolve_work(
                    rng, c, a, senses, b, bounds, kinds, cap=seed_x[0] + 0.25)
            p = build(c, a, senses, b, bounds, kinds)
            sol = solve_milp(p, gap_tol=0.0)
            ref = brute_force_milp(p)
            assert sol.ok and math.isfinite(ref)
            assert sol.objective == pytest.approx(ref, abs=1e-6)

    def test_general_integers(self):
        # min -x - 2y s.t. x + y <= 3.5, x,y integer in [0,3]
        p = build([-1.0, -2.0], [[1.0, 1.0]], [LE], [3.5], [(0, 3), (0, 3)],
                  kinds=[INTEGER, INTEGER])
        sol = solve_milp(p, gap_tol=0.0)
        assert sol.objective == pytest.approx(brute_force_milp(p), abs=1e-9)

    def test_integer_infeasible_detected(self):
        # 2x = 1 has no integer solution
        p = build([1.0], [[2.0]], [EQ], [1.0], [(0, 4)], kinds=[INTEGER])
        assert solve_milp(p, gap_tol=0.0).status == "infeasible"

    def test_incumbent_feasibility_and_integrality(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            nb = int(rng.integers(2, 6))
            c = rng.normal(size=nb)
            a = rng.normal(size=(2, nb))
            b = a @ rng.integers(0, 2, nb).astype(float) + 0.25
            p = build(c, a, [LE, LE], b, [(0, 1)] * nb, kinds=[BINARY] * nb)
            sol = solve_milp(p, gap_tol=0.0)
            if sol.ok:
                assert max_violation(p, sol.values) <= 1e-6
                assert max_integrality_violation(p, sol.values) <= 1e-6

    @pytest.mark.parametrize("kind", [BINARY, "continuous"])
    def test_point_breaking_a_row_is_refused(self, monkeypatch, kind):
        """Every returned point is checked against the original rows and bounds."""
        import gridprep.milp.solve as solve_mod

        real = solve_mod.scipy_milp

        def corrupted(*args, **kw):
            res = real(*args, **kw)
            res.x = np.zeros_like(res.x)  # 0 + 0 >= 1.5 fails by 1.5 / (1 + 1.5)
            return res

        p = build([1.0, 1.0], [[1.0, 1.0]], [GE], [1.5], [(0, 1), (0, 1)], kinds=[kind, kind])
        assert solve_milp(p, gap_tol=0.0).objective == pytest.approx(2.0 if kind == BINARY else 1.5)
        monkeypatch.setattr(solve_mod, "scipy_milp", corrupted)
        with pytest.raises(NumericalInstabilityError, match="breaks a row by 0.6"):
            solve_milp(p, gap_tol=0.0)

    def test_node_limit_is_a_limit_not_an_error(self, monkeypatch):
        """SciPy reports HiGHS's node limit as status 4, as it does a solve
        error; a solve stopped at its node limit still ends as
        ``ITERATION_LIMIT``, with its incumbent when it has one."""
        import gridprep.milp.solve as solve_mod

        w = [40.0, 44.0, 58.0, 49.0, 45.0, 41.0, 42.0, 57.0, 31.0, 52.0]
        v = [47.0, 45.0, 62.0, 57.0, 50.0, 42.0, 49.0, 64.0, 39.0, 54.0]
        knapsack = build([-x for x in v], [w], [LE], [230.0], [(0, 1)] * 10, kinds=[BINARY] * 10)
        full = solve_milp(knapsack, gap_tol=0.0)
        assert full.status == "optimal" and full.objective == pytest.approx(-261.0)
        assert full.node_count > 1
        monkeypatch.setattr(solve_mod, "NODE_LIMIT", 1)
        limited = solve_milp(knapsack, gap_tol=0.0)
        assert limited.status == ITERATION_LIMIT
        assert max_violation(knapsack, limited.values) <= 1e-6
        assert limited.objective >= full.objective - 1e-9
        # a market split: one node finds no point at all
        rng = np.random.default_rng(3)
        a = rng.integers(0, 100, (2, 12)).astype(float)
        b = np.floor(a.sum(axis=1) / 2)
        split = build(rng.normal(size=12), a, [EQ, EQ], b, [(0, 1)] * 12, kinds=[BINARY] * 12)
        stopped = solve_milp(split, gap_tol=0.0)
        assert stopped.status == ITERATION_LIMIT and stopped.values.size == 0

    def test_solver_error_retries_without_presolve(self, monkeypatch):
        import gridprep.milp.solve as milp_solve

        real = milp_solve.scipy_milp
        presolve_flags = []

        def error_with_presolve(**kwargs):
            presolve_flags.append(kwargs["options"]["presolve"])
            if kwargs["options"]["presolve"]:
                return SimpleNamespace(status=4, message="HiGHS Status 4: Solve error", x=None)
            return real(**kwargs)

        monkeypatch.setattr(milp_solve, "scipy_milp", error_with_presolve)
        p = build([-1.0, -1.0], [[2.0, 2.0]], [LE], [7.0], [(0, 5), (0, 5)], kinds=[INTEGER, INTEGER])
        sol = solve_milp(p, gap_tol=0.0)
        assert presolve_flags == [True, False]
        assert sol.status == "optimal" and sol.objective == pytest.approx(-3.0)

    def test_solver_error_on_both_attempts_raises(self, monkeypatch):
        import gridprep.milp.solve as milp_solve

        presolve_flags = []

        def always_error(**kwargs):
            presolve_flags.append(kwargs["options"]["presolve"])
            return SimpleNamespace(status=4, message="HiGHS Status 4: Solve error", x=None)

        monkeypatch.setattr(milp_solve, "scipy_milp", always_error)
        p = build([-1.0, -1.0], [[2.0, 2.0]], [LE], [7.0], [(0, 5), (0, 5)], kinds=[INTEGER, INTEGER])
        with pytest.raises(NumericalInstabilityError, match="HiGHS MILP failed"):
            solve_milp(p, gap_tol=0.0)
        assert presolve_flags == [True, False]

    def test_determinism_across_runs(self):
        rng = np.random.default_rng(55)
        c, a, senses, b, bounds = random_lp(rng, n=7, m=4)
        kinds = [BINARY] * 4 + ["continuous"] * 3
        bounds = [(0, 1)] * 4 + bounds[4:]
        p = build(c, a, senses, b, bounds, kinds)
        sols = [solve_milp(p, gap_tol=0.0) for _ in range(2)]
        assert sols[0].objective == sols[1].objective
        assert sols[0].values.tolist() == sols[1].values.tolist()
        assert sols[0].node_count == sols[1].node_count


class TestPresolve:
    def test_fixed_variables_are_substituted(self):
        # x fixed at 2, y in [0, 5]: min y s.t. x + y >= 4
        p = build([0.0, 1.0], [[1.0, 1.0]], [GE], [4.0], [(2.0, 2.0), (0.0, 5.0)])
        sol = solve_milp(p)
        assert sol.values[0] == 2.0
        assert sol.objective == pytest.approx(2.0)

    def test_singleton_rows_tighten_bounds(self):
        p = build([-1.0], [[2.0]], [LE], [6.0], [(0.0, 10.0)])  # x <= 3
        sol = solve_milp(p)
        assert sol.objective == pytest.approx(-3.0)

    def test_integer_bound_rounding_detects_infeasibility(self):
        p = build([1.0], [], [], [], [(0.4, 0.6)], kinds=[INTEGER])
        assert solve_milp(p).status == "infeasible"

    def test_integer_fixed_by_rounding_stays_integer(self):
        # 2x <= 3 with x integer in [0.5, 10] leaves x = 1 and no integer to branch on
        p = build([1.0, 1.0], [[2.0, 0.0]], [LE], [3.0], [(0.5, 10.0), (0.0, 1.0)],
                  kinds=[INTEGER, "continuous"])
        sol = solve_milp(p)
        assert sol.values[0] == 1.0
        assert sol.objective == pytest.approx(1.0)

    def test_every_column_fixed_is_solved_without_highs(self, monkeypatch):
        """Bounds fix x0, rounding fixes the integer x1 and a singleton row
        fixes x2, so the one row left is empty and no solver runs."""
        import gridprep.milp.solve as solve_mod

        def no_highs(*args, **kwargs):
            raise AssertionError("HiGHS was called")

        monkeypatch.setattr(solve_mod, "scipy_milp", no_highs)
        c = [0.1, 0.2, 0.7]
        p = build(c, [[0.0, 0.0, 3.0], [1.0, 1.0, 1.0]], [GE, LE], [6.0, 5.0],
                  [(1.5, 1.5), (0.6, 1.3), (0.0, 2.0)], kinds=["continuous", INTEGER, "continuous"])
        p.objective_constant = 0.3
        sol = solve_milp(p)
        assert sol.status == "optimal" and sol.values.tolist() == [1.5, 1.0, 2.0]
        expected = ordered_sum([0.1 * 1.5, 0.2 * 1.0, 0.7 * 2.0], start=0.3)
        assert sol.objective == expected and sol.best_bound == expected
        assert sol.node_count == 0
        assert_ordered_objective(p, sol)


class TestReportedObjective:
    """Every reported objective is the checked point's cost in column order,
    with integer columns or without; the all-fixed case is
    ``TestPresolve.test_every_column_fixed_is_solved_without_highs``."""

    @pytest.mark.parametrize("kind", ["lp", "milp"])
    def test_random_problems(self, kind):
        rng = np.random.default_rng(808)
        solved = 0
        for _ in range(15):
            if kind == "lp":
                c, a, senses, b, bounds = random_lp(rng)
                kinds, cap = ["continuous"] * len(c), rng.uniform(2.0, 4.0)
            else:
                c, a, senses, b, bounds, kinds, seed_x = random_milp(rng)
                cap = seed_x[0] + 0.25
            # a fixed column puts its cost into presolve's constant
            p = build(*with_presolve_work(rng, c, a, senses, b, bounds, kinds, cap))
            p.objective_constant = float(rng.uniform(-1e3, 1e3))
            sol = solve_milp(p, gap_tol=0.0)
            if sol.ok:
                assert_ordered_objective(p, sol)
                assert sol.best_bound <= sol.objective
                solved += 1
        assert solved >= 10

    def test_fixture_extensive_form(self, feeder13, wind13, fragility13, config13, loops13):
        from gridprep.formulation import build_extensive_form
        from gridprep.scenarios import generate_scenario_set

        storms = generate_scenario_set(feeder13, wind13, fragility13, count=2, seed=11)
        problem = build_extensive_form(feeder13, storms, config13, loops=loops13).problem
        sol = solve_milp(problem, gap_tol=1e-4)
        assert sol.status == "optimal" and problem.objective_constant != 0.0
        assert_ordered_objective(problem, sol)
