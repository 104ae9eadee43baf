"""Each benchmark check can fail: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from gridprep.data import config13_path, feeder13_path, fragility13_path, wind13_path  # noqa: E402
from gridprep.formulation import build_extensive_form, config_from_document  # noqa: E402
from gridprep.milp import solve_milp  # noqa: E402
from gridprep.network import load_network  # noqa: E402
from gridprep.scenarios import fragility_from_document, generate_scenario_set, load_wind_csv  # noqa: E402

FEEDER = json.loads(feeder13_path().read_text())
CONFIG = json.loads(config13_path().read_text())
# the optimal plan of the 8-storm training sample (seed 11)
PLAN = {"meg": ["f4", "l8"], "mes": ["f2"], "crews": {"r1": 4, "r2": 1, "r3": 1},
        "fuel": {"f1": 200.0, "f3": 100.0, "f4": 100.0, "l8": 100.0}}


def _ef_point():
    """The extensive form of the first training storm, solved, as arrays."""
    model = load_network(feeder13_path().read_text())
    storms = generate_scenario_set(model, load_wind_csv(wind13_path().read_text()),
                                   fragility_from_document(json.loads(fragility13_path().read_text())),
                                   count=1, seed=11)
    problem = build_extensive_form(model, storms, config_from_document(CONFIG)).problem
    sol = solve_milp(problem, gap_tol=1e-4)
    assert sol.status == "optimal"
    _, a, senses, b, lower, upper = problem.matrices()
    point = np.array([sol.values[v.id] for v in problem.variables])
    mask = np.array([v.is_integer for v in problem.variables])
    return a, senses, b, lower, upper, mask, point


def test_perturbed_ef_solution_fails_feasibility_recheck():
    a, senses, b, lower, upper, mask, point = _ef_point()

    def failures(x):
        return checks.solution_failures(a, senses, b, lower, upper, mask, x)

    assert failures(point) == []
    pushed = point.copy()
    pushed[a.indices[a.indptr[senses.index("=")]]] += 0.5  # a column of the first equality row
    assert any("rows violated" in m for m in failures(pushed))
    fractional = point.copy()
    fractional[np.nonzero(mask)[0][0]] += 0.5
    assert any("fractional" in m for m in failures(fractional))
    below = point.copy()
    below[0] = lower[0] - 1.0
    assert any("bounds" in m for m in failures(below))


def test_budget_plan_passes_plan_check():
    assert checks.plan_failures(PLAN, FEEDER, CONFIG) == []


def test_plan_one_meg_over_budget_fails_plan_check():
    over = dict(PLAN, meg=PLAN["meg"] + ["f0"])
    assert any("MEGs placed" in m for m in checks.plan_failures(over, FEEDER, CONFIG))


def test_plan_crews_outside_region_bounds_fail_plan_check():
    lopsided = dict(PLAN, crews={"r1": 5, "r2": 1, "r3": 0})
    assert any("region r1" in m for m in checks.plan_failures(lopsided, FEEDER, CONFIG))


MRP = {"n_g": 3, "tainted": 0, "gaps": [68.4, 68.4, 70.1], "mean_gap": 68.97,
       "ci_upper": 70.66, "candidate_mean_cost": 1900.0}


def test_positive_gaps_pass_mrp_check():
    assert checks.mrp_failures(MRP) == []


def test_negative_gap_fails_mrp_check():
    assert any("negative" in m for m in checks.mrp_failures(dict(MRP, gaps=[68.4, -0.5, 70.1])))


def test_tainted_replication_fails_mrp_check():
    assert any("tainted" in m for m in checks.mrp_failures(dict(MRP, tainted=1, gaps=[68.4, 70.1])))


def test_evaluation_ranges():
    demand = checks.total_demand_kwh(FEEDER)
    ok = {"scenario": 1, "served_fraction": [1.0] * 6, "restored_energy_kwh": demand,
          "avg_outage_hours": 0.0}
    assert checks.evaluation_failures(ok, FEEDER) == []
    assert checks.evaluation_failures(dict(ok, served_fraction=[1.0, 1.1, 1.0, 1.0, 1.0, 1.0]), FEEDER)
    assert checks.evaluation_failures(dict(ok, restored_energy_kwh=demand * 1.01), FEEDER)
    assert checks.evaluation_failures(dict(ok, avg_outage_hours=7.0), FEEDER)


def test_reference_optimum_bounds():
    assert checks.optimum_failures("cost", 850.0, 847.84, 0.01) == []
    assert checks.optimum_failures("cost", 847.0, 847.84, 0.01)
    assert checks.optimum_failures("cost", 860.0, 847.84, 0.01)


def test_reference_plans_meet_the_budgets():
    reference = json.loads((HERE / "reference.json").read_text())
    assert set(reference["plan"]) == set(reference["optimum"])
    for plan in reference["plan"].values():
        assert checks.plan_failures(plan, FEEDER, CONFIG) == []
    assert reference["plan"]["11"] == PLAN


def test_speed_factor_is_relative_to_the_reference_time():
    ref = calibrate.REFERENCE_S
    assert calibrate.speed_factor(ref, ref) == 1.0
    assert calibrate.speed_factor(ref, 3 * ref) == 2.0


def test_clock_without_readings_keeps_wall_time():
    clock = calibrate.ScaledClock(read=False)
    clock.mark()
    raw, scaled = clock.take()
    assert raw == scaled > 0.0
    assert clock.raw_s == clock.scaled_s == 0.0


def test_nested_solve_counts_as_hint_resolve():
    tracer = spans.Tracer()

    def inner():
        return 1

    def solve(depth):
        return inner() + (traced_solve(depth - 1) if depth else 0)

    traced_solve = tracer.wrap(spans.SOLVE, solve)
    inner = tracer.wrap("highs.milp", inner, lambda a, k, r: {"cols": 1, "rows": 1, "nodes": 2})
    traced_solve(1)
    traced_solve(0)
    recorded, overhead = tracer.take()
    layers = spans.layer_metrics(recorded, ph_iterations=0)
    assert layers["milp.solves"] == 2
    assert layers["milp.hint_resolves"] == 1
    assert layers["highs.calls"] == 3
    assert layers["highs.nodes"] == 6
    assert overhead > 0.0
    own = spans.self_times(recorded)
    assert all(own[s.id] <= s.duration for s in recorded)


def test_benchmark_json_names_the_traced_metrics_and_workloads():
    layers = spans.layer_metrics([], ph_iterations=0)
    traced = set(layers) | {"trace.overhead_s", "trace.plan_s"}
    assert {m["name"] for m in run.METRICS["per_layer"]} == traced
    assert [w["name"] for w in run.METRICS["workloads"]] == list(run.workload.WORKLOADS)
