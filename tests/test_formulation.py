import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprep.data import config13_path, feeder13_path
from gridprep.formulation import (
    FirstStagePlan,
    FormulationConfig,
    FormulationError,
    SecondStageSchedule,
    build_extensive_form,
    build_first_stage,
    build_ph_subproblem,
    build_subproblem,
    big_m_virtual,
    big_m_voltage,
    config_from_document,
    extract_schedule,
    fuel_site_bounds,
    gen_units,
    pin_plan,
    plan_from_document,
    plan_to_document,
    polygonize_capacity,
    scenario_cost,
    storage_units,
    VariableIndex,
)
from gridprep.milp import MilpProblem, ProblemError, solve_milp
from gridprep.network import NetworkValidationError, enumerate_loops, network_from_document
from gridprep.scenarios import DamageScenario, ScenarioSet

from .conftest import small_network_doc
from .oracles import interval_voltage_big_m, polygon_admits, reachable_buses


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: one fault per first-stage rule, as edits to the seed-11 reference plan and
#: to the bundled config; a plan edit replaces a list and updates a map
SINGLE_FAULTS = {
    "reference": ({}, {}),
    "meg-total": ({"meg": ["f4"]}, {}),
    "mes-total": ({"mes": []}, {}),
    "non-candidate-bus": ({"meg": ["f4", "l5"]}, {}),
    "bus-cap": ({}, {"n_mu_by_bus": {"f2": 0}}),
    "fuel-budget": ({"fuel": {"f1": 300.0, "f3": 800.0}}, {}),
    "site-lot-range": ({"fuel": {"f1": 900.0}}, {}),
    "fuel-at-non-site": ({"fuel": {"l5": 100.0}}, {}),
    "crew-total": ({"crews": {"r2": 2}}, {}),
    "region-range": ({"crews": {"r1": 5, "r2": 0}}, {}),
    "unknown-region": ({"crews": {"zz": 0}}, {}),
}


def plan_failures(*docs):
    """``perfbench/checks.plan_failures``, which states the first-stage rules
    apart from gridprep."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.plan_failures(*docs)


def no_damage(horizon, sid=0, prob=1.0, irradiance=500.0):
    return DamageScenario(id=sid, probability=prob, damaged_lines=frozenset(),
                          repair_periods={}, irradiance=(irradiance,) * horizon)


def damage(lines_periods, horizon, sid=0, prob=1.0, irradiance=500.0):
    return DamageScenario(id=sid, probability=prob,
                          damaged_lines=frozenset(lines_periods),
                          repair_periods=dict(lines_periods),
                          irradiance=(irradiance,) * horizon)


class TestPolygonization:
    def test_corner_point_rejected(self):
        assert not polygon_admits(10.0, 10.0, 10.0, 8)

    def test_center_admitted(self):
        assert polygon_admits(0.0, 0.0, 10.0, 8)

    def test_vertex_direction_admitted_and_midpoint_shrink(self):
        s = 10.0
        v = s / math.sqrt(2.0)
        assert polygon_admits(v, v, s, 8)
        # face midpoints sit at cos(pi/8) of the radius: frozen 0.9238795325112867
        shrink = 0.9238795325112867
        mid = math.pi / 8.0  # normal direction of the first face above the P axis
        px, qx = math.cos(mid), math.sin(mid)
        assert polygon_admits((s * shrink - 1e-9) * px, (s * shrink - 1e-9) * qx, s, 8)
        assert not polygon_admits((s * shrink + 1e-6) * px, (s * shrink + 1e-6) * qx, s, 8)

    def test_face_count_grows_with_segments(self):
        assert len(polygonize_capacity(5.0, 4)) == 2
        assert len(polygonize_capacity(5.0, 8)) == 4
        assert len(polygonize_capacity(5.0, 16)) == 8

    def test_zero_capacity_pins_to_origin(self):
        assert polygon_admits(0.0, 0.0, 0.0, 8)
        assert not polygon_admits(0.1, 0.0, 0.0, 8)
        assert not polygon_admits(0.0, 0.1, 0.0, 8)

    @settings(deadline=None, max_examples=200)
    @given(
        s=st.floats(0.1, 100.0),
        segments=st.sampled_from([4, 8, 12, 16]),
        p=st.floats(0.0, 120.0),
        q=st.floats(-120.0, 120.0),
    )
    def test_inner_approximation_never_over_admits(self, s, segments, p, q):
        if polygon_admits(p, q, s, segments):
            assert p * p + q * q <= s * s + 1e-9

    def test_rejects_degenerate_segments(self):
        with pytest.raises(ValueError):
            polygonize_capacity(5.0, 3)


class TestBigM:
    def test_virtual_family_is_bus_count(self, feeder13):
        assert big_m_virtual(feeder13) == 13.0

    def test_voltage_family_zero_impedance(self):
        doc = small_network_doc()
        for raw in doc["lines"]:
            raw["r_matrix"] = [[0.0] * 3] * 3
            raw["x_matrix"] = [[0.0] * 3] * 3
        model = network_from_document(doc)
        line = model.lines[0]
        # one endpoint may sit at its ceiling while the other is dark, so the
        # zero-impedance bound is the larger squared-voltage ceiling
        assert big_m_voltage(model)[0] == pytest.approx(
            max(model.u_max(line.from_bus), model.u_max(line.to_bus))
        )

    def test_voltage_family_matches_interval_oracle(self, feeder13):
        for line, m_val in zip(feeder13.lines, big_m_voltage(feeder13), strict=True):
            assert m_val == pytest.approx(
                interval_voltage_big_m(line, feeder13), abs=1e-12
            )

    def test_big_m_actually_relaxes_the_constraint(self, feeder13):
        # with the line open, any feasible endpoint voltages must satisfy the
        # relaxed rows: check the extreme corners of the variable box
        for line, m_val in zip(feeder13.lines, big_m_voltage(feeder13), strict=True):
            u_hi_i = feeder13.u_max(line.from_bus)
            u_hi_j = feeder13.u_max(line.to_bus)
            for ui, uj in ((0.0, u_hi_j), (u_hi_i, 0.0), (u_hi_i, u_hi_j)):
                assert ui - uj >= -m_val - 1e-12
                assert ui - uj <= m_val + 1e-12


class TestFirstStage:
    def test_zero_mobile_budget_forces_empty_placement(self, chain3):
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=500.0, n_crew=2)
        problem = MilpProblem()
        index = VariableIndex()
        first = build_first_stage(chain3, config, problem, index)
        sol = solve_milp(problem.seal(), gap_tol=0.0)
        assert sol.ok
        assert all(sol.values[v] == 0.0 for v in first.meg.values())
        assert all(sol.values[v] == 0.0 for v in first.mes.values())

    def test_hedging_vector_orders_by_kind_then_entity(self, feeder13, config13):
        first = build_first_stage(feeder13, config13, MilpProblem(), VariableIndex())
        built = [entity for kind, entity, _ in first.columns() if kind == "lots"]
        assert built == list(feeder13.fuel_site_buses) and built != sorted(built)
        kinds = ["meg", "mes", "lots", "crew"]
        assert first.keys == sorted(first.keys, key=lambda k: (kinds.index(k[0]), k[1]))
        column = {(kind, entity): vid for kind, entity, vid in first.columns()}
        assert first.ids.tolist() == [column[key] for key in first.keys]
        plan = FirstStagePlan(meg_at={"f4": 1, "l8": 1}, mes_at={}, fuel_lots={"f1": 3, "f0": 2},
                              crews={"r1": 4, "r2": 1, "r3": 1})
        votes = first.votes(first.vector(plan))
        assert votes["lots"] == {entity: float(plan.fuel_lots.get(entity, 0)) for entity in sorted(built)}
        assert votes["meg"] == {b: float(plan.meg_at.get(b, 0)) for b in sorted(first.meg)}
        assert votes["mes"] == {b: 0.0 for b in sorted(first.mes)}
        assert votes["crew"] == {r: float(c) for r, c in plan.crews.items()}

    def test_single_candidate_cannot_host_two_units(self):
        doc = small_network_doc()
        doc["candidate_buses"] = ["b2"]
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=1, n_mes=1, n_fuel=500.0, n_crew=1)
        with pytest.raises(FormulationError, match="mobile-unit caps"):
            build_first_stage(model, config, MilpProblem(), VariableIndex())

    def test_on_site_fuel_exceeding_budget_rejected(self):
        doc = small_network_doc()
        doc["generators"][0]["fuel_present"] = 450.0
        doc["generators"][0]["fuel_cap"] = 500.0
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=300.0, n_crew=1)
        with pytest.raises(FormulationError, match="exceeds the budget"):
            build_first_stage(model, config, MilpProblem(), VariableIndex())

    def test_crew_range_must_admit_total(self):
        doc = small_network_doc()
        doc["regions"][0]["crew_min"] = 3
        doc["regions"][0]["crew_max"] = 4
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=500.0, n_crew=1)
        with pytest.raises(FormulationError, match="crew total"):
            build_first_stage(model, config, MilpProblem(), VariableIndex())

    def test_27_crews_across_9_regions_with_bounds(self):
        doc = small_network_doc(horizon=1)
        doc["buses"] = [
            {"id": f"b{i}", "phases": "a", "demand_p": {"a": [1.0]}, "shed_cost": 1.0}
            for i in range(10)
        ]
        doc["lines"] = [
            {"id": f"l{i}", "from_bus": f"b{i}", "to_bus": f"b{i+1}", "phases": "a",
             "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
             "x_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
             "p_max": 10.0, "q_max": 10.0}
            for i in range(9)
        ]
        doc["regions"] = [
            {"id": f"r{i}", "depot_bus": f"b{i}", "lines": [f"l{i}"],
             "crew_min": 1, "crew_max": 5}
            for i in range(9)
        ]
        doc["candidate_buses"] = []
        del doc["meg"]
        del doc["mes"]
        doc["generators"] = []
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=0.0, n_crew=27)
        problem = MilpProblem()
        index = VariableIndex()
        first = build_first_stage(model, config, problem, index)
        sol = solve_milp(problem.seal(), gap_tol=0.0)
        assert sol.ok
        crews = {r: sol.values[v] for r, v in first.crew.items()}
        assert sum(crews.values()) == 27
        assert all(1 <= c <= 5 for c in crews.values())


class TestSecondStage:
    def test_no_damage_serves_everything(self, chain3, chain3_config):
        compiled = build_subproblem(chain3, no_damage(3), chain3_config)
        sol = solve_milp(compiled.problem, gap_tol=0.0)
        sched = extract_schedule(chain3, no_damage(3), compiled.index, sol, 0)
        assert all(v > 0.5 for v in sched.pickup.values())

    def test_three_island_energization_pattern(self):
        """Damaged mid-line: the generator island stays up, the island with
        only grid-following PV goes dark and its output is forced to zero."""
        doc = {
            "base": {"kva": 100.0, "kv": 4.16}, "horizon": 2, "dt_hours": 1.0,
            "buses": [
                {"id": x, "phases": "a", "demand_p": {"a": [10.0, 10.0]},
                 "demand_q": {"a": [4.0, 4.0]}, "shed_cost": 14.0}
                for x in ("a1", "a2", "b1", "c1", "c2")
            ],
            "lines": [
                {"id": "ka", "from_bus": "a1", "to_bus": "a2", "phases": "a",
                 "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                 "x_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                 "p_max": 100.0, "q_max": 100.0},
                {"id": "ksw", "from_bus": "a2", "to_bus": "b1", "phases": "a",
                 "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                 "x_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                 "p_max": 100.0, "q_max": 100.0},
                {"id": "kdmg", "from_bus": "b1", "to_bus": "c1", "phases": "a",
                 "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                 "x_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                 "p_max": 100.0, "q_max": 100.0},
                {"id": "kc", "from_bus": "c1", "to_bus": "c2", "phases": "a",
                 "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                 "x_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                 "p_max": 100.0, "q_max": 100.0},
            ],
            "switches": [{"line": "ksw", "normally_open": False}],
            "regions": [{"id": "r", "depot_bus": "a1",
                         "lines": ["ka", "ksw", "kdmg", "kc"],
                         "crew_min": 0, "crew_max": 2}],
            "generators": [{"bus": "a1", "p_max": 80.0, "q_max": 60.0,
                            "fuel_present": 0.0, "fuel_cap": 400.0}],
            "pv": [
                {"bus": "a2", "pv_type": "grid_following", "p_rate": 20.0, "s_inverter": 25.0},
                {"bus": "c1", "pv_type": "grid_following", "p_rate": 20.0, "s_inverter": 25.0},
            ],
            "ess": [],
            "candidate_buses": [],
        }
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=400.0, n_crew=0)
        scen = damage({"kdmg": 5}, horizon=2, irradiance=800.0)
        compiled = build_subproblem(model, scen, config)
        sol = solve_milp(compiled.problem, gap_tol=0.0)
        assert sol.ok
        sched = extract_schedule(model, scen, compiled.index, sol, 0)
        for t in range(2):
            for bus in ("a1", "a2", "b1"):
                assert sched.energized[(bus, t)] > 0.5, f"{bus} should be energized"
            for bus in ("c1", "c2"):
                assert sched.energized[(bus, t)] < 0.5, f"{bus} should be dark"
                assert sched.pickup[(bus, t)] < 0.5
        # grid-following PV participates inside the live island only
        live_pv = sum(v for (uid, ph, t), v in sched.pv_p.items() if "a2" in uid)
        dark_pv = sum(v for (uid, ph, t), v in sched.pv_p.items() if "c1" in uid)
        assert live_pv > 1.0
        assert dark_pv == pytest.approx(0.0, abs=1e-9)

    def test_worked_repair_sequence_forces_line_status(self):
        """Pinning the crew schedule z = (0,0,1,1,1,0,0) with a 3-period
        repair must yield u = (0,0,0,0,0,1,1)."""
        doc = small_network_doc(horizon=7)
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=500.0, n_crew=2)
        scen = damage({"l23": 3}, horizon=7)
        compiled = build_subproblem(model, scen, config)
        problem = compiled.problem.copy()
        ids = dict(compiled.index.items())
        z_pattern = [0, 0, 1, 1, 1, 0, 0]
        for t, zv in enumerate(z_pattern):
            vid = ids[("z", "l23", None, t, 0)]
            problem.set_bounds(vid, float(zv), float(zv))
        sol = solve_milp(problem.seal(), gap_tol=0.0)
        assert sol.ok
        u_seq = [round(sol.values[ids[("u", "l23", None, t, 0)]]) for t in range(7)]
        assert u_seq == [0, 0, 0, 0, 0, 1, 1]

    def test_energization_matches_reachability(self, chain3, chain3_config):
        from .oracles import solve_preferring_energization

        scen = damage({"l12": 9}, horizon=3)
        plan = FirstStagePlan(meg_at={"b2": 0, "b3": 1}, mes_at={"b2": 1, "b3": 0},
                              fuel_lots={"b1": 3, "b2": 0, "b3": 2}, crews={"r1": 2})
        plain_compile = build_subproblem(chain3, scen, chain3_config)
        compiled = replace(plain_compile, problem=pin_plan(plain_compile, plan))
        plain = solve_milp(compiled.problem, gap_tol=0.0)
        sol = solve_preferring_energization(compiled, gap_tol=0.0)
        sched = extract_schedule(chain3, scen, compiled.index, sol, 0)
        # the tie-broken point must still attain the true optimum
        true_cost = scen.probability * sum(
            scenario_cost(chain3, scen, sched, chain3_config).values())
        assert true_cost == pytest.approx(plain.objective, abs=1e-5)
        for t in range(3):
            closed = {k.id for k in chain3.lines if sched.line_closed[(k.id, t)] > 0.5}
            sources = {"b1", "b2", "b3"}  # DG at b1, MES at b2, MEG at b3
            reach = reachable_buses(chain3, closed, sources)
            energized = {b.id for b in chain3.buses if sched.energized[(b.id, t)] > 0.5}
            assert energized == reach

    def test_monotone_restoration_and_repair_budget(self, feeder13, config13,
                                                    training_scenarios, loops13):
        scen = training_scenarios.scenarios[0]
        compiled = build_subproblem(feeder13, scen, config13, loops=loops13)
        sol = solve_milp(compiled.problem, gap_tol=1e-6)
        sched = extract_schedule(feeder13, scen, compiled.index, sol, scen.id)
        T = feeder13.horizon
        for lid in scen.damaged_lines:
            u_seq = [sched.line_closed[(lid, t)] for t in range(T)]
            assert all(b >= a - 1e-9 for a, b in zip(u_seq, u_seq[1:]))
            z_total = sum(sched.repairing[(lid, t)] for t in range(T))
            assert z_total <= scen.repair_periods[lid] + 1e-9

    def test_storage_soc_telescopes_and_no_simultaneous_ch_dis(
        self, feeder13, config13, training_scenarios, loops13
    ):
        scen = training_scenarios.scenarios[1]
        compiled = build_subproblem(feeder13, scen, config13, loops=loops13)
        sol = solve_milp(compiled.problem, gap_tol=1e-6)
        sched = extract_schedule(feeder13, scen, compiled.index, sol, scen.id)
        units = storage_units(feeder13)
        dt = feeder13.dt_hours
        for unit in units:
            spec = unit.spec
            prev = spec.soc_init
            for t in range(feeder13.horizon):
                ch = sum(v for (u, ph, tt), v in sched.charge_p.items()
                         if u == unit.uid and tt == t)
                dis = sum(v for (u, ph, tt), v in sched.discharge_p.items()
                          if u == unit.uid and tt == t)
                expected = prev + dt * (ch * spec.eta_ch - dis / spec.eta_dis) / spec.e_cap
                assert sched.soc[(unit.uid, t)] == pytest.approx(expected, abs=1e-7)
                prev = sched.soc[(unit.uid, t)]
                for ph in feeder13.bus(unit.bus).phases:
                    pc = sched.charge_p[(unit.uid, ph, t)]
                    pd = sched.discharge_p[(unit.uid, ph, t)]
                    assert min(pc, pd) <= 1e-6

    def test_radiality_keeps_every_loop_open(self):
        """A tie switch closing a loop: every optimum leaves at least one
        loop member open in every period."""
        doc = small_network_doc()
        doc["lines"].append(
            {"id": "tie", "from_bus": "b1", "to_bus": "b3", "phases": "a",
             "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
             "x_matrix": [[0.02, 0, 0], [0, 0, 0], [0, 0, 0]],
             "p_max": 200.0, "q_max": 150.0, "poles": 3, "spans": 3}
        )
        doc["switches"] = [{"line": "tie", "normally_open": True},
                           {"line": "l23", "normally_open": False}]
        doc["regions"][0]["lines"] = ["l12", "l23", "tie"]
        model = network_from_document(doc)
        loops = enumerate_loops(model)
        assert len(loops) == 1
        config = FormulationConfig(n_meg=1, n_mes=1, n_fuel=500.0, n_crew=2)
        # damaging l12 makes the tie attractive: b2/b3 reconnect through it
        scen = damage({"l12": 9}, 3)
        compiled = build_subproblem(model, scen, config, loops=loops)
        sol = solve_milp(compiled.problem, gap_tol=0.0)
        assert sol.ok
        sched = extract_schedule(model, scen, compiled.index, sol, 0)
        for loop in loops:
            for t in range(3):
                closed = sum(sched.line_closed[(lid, t)] for lid in loop.members)
                assert closed <= len(loop.members) - 1

    def test_hybrid_pv_serves_its_own_bus_off_grid(self):
        """An islanded hybrid unit may carry its own load while the bus stays
        de-energized; ordinary islanded buses shed."""
        doc = small_network_doc()
        doc["pv"] = [{"bus": "b3", "pv_type": "hybrid", "p_rate": 48.0, "s_inverter": 55.0}]
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=500.0, n_crew=0)
        scen = DamageScenario(id=0, probability=1.0, damaged_lines=frozenset({"l23"}),
                              repair_periods={"l23": 9}, irradiance=(900.0,) * 3)
        compiled = build_subproblem(model, scen, config)
        sol = solve_milp(compiled.problem, gap_tol=0.0)
        assert sol.ok
        sched = extract_schedule(model, scen, compiled.index, sol, 0)
        for t in range(3):
            assert sched.pickup[("b3", t)] > 0.5  # on-site PV carries the load
            assert sched.energized[("b3", t)] < 0.5  # without energizing the bus

    def test_damaged_line_outside_regions_rejected(self):
        # refused where the feeder is read, whichever lines a storm damages
        doc = small_network_doc()
        doc["regions"][0]["lines"] = ["l12"]  # l23 uncovered
        with pytest.raises(NetworkValidationError, match="^line 'l23' is listed in no region$"):
            network_from_document(doc)


class TestExtensiveForm:
    def test_single_scenario_ef_equals_subproblem(self, chain3, chain3_config):
        scen = damage({"l23": 2}, 3)
        sub = build_subproblem(chain3, scen, chain3_config)
        ef = build_extensive_form(chain3, ScenarioSet(scenarios=(scen,), seed=0), chain3_config)
        sub_obj = solve_milp(sub.problem, gap_tol=0.0).objective
        ef_obj = solve_milp(ef.problem, gap_tol=0.0).objective
        assert ef_obj == pytest.approx(sub_obj, abs=1e-6)

    def test_two_identical_scenarios_equal_one(self, chain3, chain3_config):
        s0 = damage({"l23": 2}, 3, sid=0, prob=0.5)
        s1 = damage({"l23": 2}, 3, sid=1, prob=0.5)
        single = solve_milp(build_subproblem(chain3, s0, chain3_config).problem, gap_tol=0.0)
        ef = solve_milp(
            build_extensive_form(chain3, ScenarioSet(scenarios=(s0, s1), seed=0),
                                 chain3_config).problem,
            gap_tol=0.0,
        )
        assert ef.objective == pytest.approx(single.objective, abs=1e-6)

    def test_census_matches_closed_form(self, feeder13, config13, training_scenarios, loops13):
        """Variable/constraint counts against independently derived formulas."""
        ef = build_extensive_form(feeder13, training_scenarios, config13, loops=loops13)
        model = feeder13
        T = model.horizon
        B = len(model.buses)
        L = len(model.lines)
        line_phases = sum(len(k.phases) for k in model.lines)
        bus_phases = sum(len(b.phases) for b in model.buses)
        sw = set(model.switch_ids)
        gens = gen_units(model)
        stores = storage_units(model)
        gen_phases = sum(len(model.bus(g.bus).phases) for g in gens)
        meg_phases = sum(len(model.bus(g.bus).phases) for g in gens if g.mobile)
        stor_phases = sum(len(model.bus(s.bus).phases) for s in stores)
        mes_phases = sum(len(model.bus(s.bus).phases) for s in stores if s.mobile)
        pv_phases = sum(len(model.bus(p.bus).phases) for p in model.pv_units)
        following_phases = sum(len(model.bus(p.bus).phases) for p in model.pv_units
                               if p.pv_type == "grid_following")
        n_candidates = len(model.candidate_buses)
        gf = {g.bus for g in model.generators if g.grid_forming}
        gf |= {p.bus for p in model.pv_units if p.pv_type == "grid_forming"}
        vsrc_buses = len(gf | model.candidate_buses)
        fuel_sites = len(model.fuel_site_buses)
        faces = config13.polygon_segments // 2
        local = {p.bus for p in model.pv_units if p.pv_type in ("grid_forming", "hybrid")}
        local |= {g.bus for g in model.generators}
        non_exempt = B - len(local | model.candidate_buses)
        mobile_rows_buses = len(model.candidate_buses - local)

        expected_vars = 4 + 4 + fuel_sites + len(model.regions)  # first stage
        expected_cons = 1 + 1 + n_candidates + 1 + 1  # totals, caps, budgets
        for scen in training_scenarios.scenarios:
            D = len(scen.damaged_lines)
            damaged_sw = len(scen.damaged_lines & sw)
            free_sw = len(sw) - damaged_sw
            u_vars = D * T + free_sw * (T - 1)
            expected_vars += (
                B * T * 2                      # pickup + energized
                + u_vars
                + D * T                        # repair activity
                + len(sw) * (T - 1)            # switch operations
                + len(stores) * T              # charge indicator
                + line_phases * T * 2          # line flows P/Q
                + gen_phases * T * 2           # generator P/Q
                + pv_phases * T * 2            # PV P/Q
                + stor_phases * T * 3          # charge/discharge/reactive
                + len(stores) * T              # state of charge
                + bus_phases * T               # squared voltage
                + vsrc_buses * T + L * T       # virtual source/flow
                + fuel_sites                   # fuel use
            )
            regions_hit = len({r.id for r in model.regions
                               for lid in r.lines if lid in scen.damaged_lines})
            expected_cons += (
                following_phases * T           # irradiance gate on following PV
                + pv_phases * T * faces        # capacity polygon
                + B * T                        # virtual balance
                + u_vars * 2                   # virtual flow bounds
                + mobile_rows_buses * T        # virtual source gates
                + non_exempt * T               # pickup needs energization
                + mobile_rows_buses * T        # pickup via mobile units
                + bus_phases * T * 2           # nodal balance P/Q
                + (D * T + free_sw * (T - 1)) * len(model.lines[0].phases) * 0  # placeholder
                + sum(len(model.line(lid).phases) for lid in scen.damaged_lines) * T * 4
                + sum(len(model.line(lid).phases) for lid in sw - scen.damaged_lines) * (T - 1) * 4
                + meg_phases * T * 2           # MEG capacity gates
                + sum(len(model.line(lid).phases) for lid in scen.damaged_lines) * T * 2
                + sum(len(model.line(lid).phases) for lid in sw - scen.damaged_lines) * ((T - 1) * 2 + 1)
                + sum(len(k.phases) for k in model.lines
                      if k.id not in scen.damaged_lines and not k.switchable) * T
                + bus_phases * T * 2           # voltage window
                + len(loops13) * T             # radiality
                + regions_hit * T              # regional crew caps
                + D                            # per-line repair budgets
                + D * T * 2                    # repair progress bounds
                + len(sw) * (T - 1) * 2        # switching transitions
                + len(stores) * T              # SOC recursion
                + stor_phases * T * 2          # charge/discharge exclusivity
                + mes_phases * T * 4           # MES gates
                + fuel_sites * 2               # fuel definition and cap
            )
        assert ef.problem.num_variables == expected_vars
        assert ef.problem.num_constraints == expected_cons


class TestPhSubproblem:
    def test_zero_rho_zero_multipliers_is_plain(self, chain3, chain3_config):
        scen = damage({"l23": 2}, 3)
        plain = build_subproblem(chain3, scen, chain3_config)
        dim = len(plain.first.ids)
        aug = build_ph_subproblem(plain, multipliers=[0.0] * dim, anchor=[0.0] * dim, rho=0.0)
        plain_sol = solve_milp(plain.problem, gap_tol=0.0)
        aug_sol = solve_milp(aug.problem, gap_tol=0.0)
        assert aug_sol.objective == pytest.approx(plain_sol.objective, abs=1e-9)
        assert aug.problem.num_variables == plain.problem.num_variables

    def test_binary_proximal_expansion(self, chain3, chain3_config):
        scen = no_damage(3)
        plain = build_subproblem(chain3, scen, chain3_config)
        ids = plain.first.ids
        dim = len(ids)
        anchor = [0.0] * dim
        anchor[0] = 1.0  # a binary placement coordinate
        rho = 2.0
        aug = build_ph_subproblem(plain, multipliers=[0.0] * dim, anchor=anchor, rho=rho)
        vid = aug.first.ids[0]
        plain_coef = plain.problem.objective_vector()[vid]
        aug_coef = aug.problem.objective_vector()[vid]
        # (rho/2)(1 - 2*xbar) = -rho/2 on the variable, +rho/2 constant
        assert aug_coef - plain_coef == pytest.approx(-rho / 2)
        assert aug.problem.objective_constant - plain.problem.objective_constant == pytest.approx(rho / 2)

    def test_integer_secants_exact_at_integers(self, chain3, chain3_config):
        scen = no_damage(3)
        plain = build_subproblem(chain3, scen, chain3_config)
        ids = plain.first.ids
        pos = plain.first.keys.index(("lots", "b2"))
        anchor = [0.0] * len(ids)
        anchor[pos] = 1.5
        aug = build_ph_subproblem(plain, multipliers=[0.0] * len(ids), anchor=anchor, rho=2.0)
        lots_vid = aug.first.ids[pos]
        _, a_mat, senses, b, lower, upper = aug.problem.matrices()
        secants = [i for i, name in enumerate(aug.problem.row_names())
                   if name.startswith(f"prox_secant[{lots_vid},")]
        lo, hi = int(lower[lots_vid]), int(upper[lots_vid])
        assert hi - lo >= 2
        rows = a_mat[secants].toarray()
        wid, = set(np.flatnonzero(rows.any(axis=0))) - {lots_vid}
        assert all(senses[i] == ">=" for i in secants) and (rows[:, wid] > 0).all()
        for v in range(lo, hi + 1):
            w_min = max((b[secants] - rows[:, lots_vid] * v) / rows[:, wid])
            assert w_min == pytest.approx((v - 1.5) ** 2, abs=1e-9)

    def test_dimension_mismatch_rejected(self, chain3, chain3_config):
        plain = build_subproblem(chain3, no_damage(3), chain3_config)
        with pytest.raises(FormulationError, match="entries"):
            build_ph_subproblem(plain, multipliers=[0.0], anchor=[0.0], rho=1.0)

    @settings(deadline=None, max_examples=25)
    @given(data=st.data(),
           rho=st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
           tie=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
    def test_objective_is_plain_plus_price_prox_and_tie(self, data, rho, tie):
        model = network_from_document(small_network_doc())
        config = FormulationConfig(n_meg=1, n_mes=1, n_fuel=500.0, n_crew=2)
        scen = damage({"l23": 2}, 3)
        plain = build_subproblem(model, scen, config)
        ids = plain.first.ids
        lower, upper = plain.problem.column_bounds()
        bounds = [(lower[v], upper[v]) for v in ids]
        eta = np.array(data.draw(st.lists(st.floats(-50.0, 50.0),
                                          min_size=len(ids), max_size=len(ids))))
        anchor = np.array([data.draw(st.floats(lo, hi)) for lo, hi in bounds])
        aug = build_ph_subproblem(plain, multipliers=list(eta), anchor=list(anchor), rho=rho,
                                  tie_break=tie)
        assert np.array_equal(aug.first.ids, ids)
        ties = tie * (1.0 + np.arange(len(ids)) / len(ids))
        c_plain, a_plain, *_ = plain.problem.matrices()
        c_aug, a_aug, *_ = aug.problem.matrices()
        # the second stage keeps its costs; only first-stage and prox columns move
        n = len(c_plain)
        assert np.array_equal(np.delete(c_aug[:n], ids), np.delete(c_plain, ids))

        # every integer first-stage point, each prox variable at its least feasible value
        x = np.array(list(itertools.product(
            *(range(int(lo), int(hi) + 1) for lo, hi in bounds))), dtype=float)
        # the prox columns are the ones past the plain compile's last column
        prox = list(range(plain.problem.num_variables, aug.problem.num_variables))
        _, _, senses, b, aug_lower, _ = aug.problem.matrices()
        by_column = a_aug.tocsc()
        w = np.zeros((len(x), len(prox)))
        for k, wid in enumerate(prox):
            w[:, k] = aug_lower[wid]
            for i in by_column[:, wid].nonzero()[0]:
                row = a_aug[i].toarray().ravel()
                assert senses[i] == ">=" and row[wid] > 0
                assert set(np.flatnonzero(row)) - {wid} <= set(ids)
                w[:, k] = np.maximum(w[:, k], (b[i] - x @ row[ids]) / row[wid])
        plain_obj = plain.problem.objective_constant + x @ c_plain[ids]
        aug_obj = aug.problem.objective_constant + x @ c_aug[ids] + w @ c_aug[prox]
        expected = (plain_obj + x @ eta + 0.5 * rho * ((x - anchor) ** 2).sum(axis=1)
                    + x @ ties)
        np.testing.assert_allclose(aug_obj, expected, rtol=1e-9, atol=1e-9)

        if rho == 0.0:
            flat = build_ph_subproblem(plain, multipliers=[0.0] * len(ids),
                                       anchor=list(anchor), rho=0.0, tie_break=tie)
            c_flat, a_flat, *_ = flat.problem.matrices()
            shifted = c_plain.copy()
            shifted[ids] += ties
            assert np.array_equal(c_flat, shifted)
            assert flat.problem.objective_constant == plain.problem.objective_constant
            assert a_flat.shape == a_plain.shape and (a_flat != a_plain).nnz == 0


class TestObjectiveEvaluation:
    def make_stub(self, gen_kw, shed_kw, periods, dt=1.0, shed_cost=14.0):
        doc = small_network_doc(horizon=periods)
        doc["dt_hours"] = dt
        doc["buses"][2]["demand_p"] = {"a": [shed_kw] * periods}
        doc["buses"][2]["shed_cost"] = shed_cost
        doc["buses"][0]["demand_p"] = {"a": [0.0] * periods}
        doc["buses"][1]["demand_p"] = {"a": [0.0] * periods}
        model = network_from_document(doc)
        scen = no_damage(periods)
        sched = SecondStageSchedule(
            scenario=0,
            pickup={(b.id, t): (0.0 if (b.id == "b3" and shed_kw) else 1.0)
                    for b in model.buses for t in range(periods)},
            energized={}, line_closed={}, repairing={}, switch_ops={}, charging={},
            flow_p={}, flow_q={},
            gen_p={("dg.b1.0", "a", 0): gen_kw} if gen_kw else {},
            gen_q={}, pv_p={}, pv_q={}, charge_p={}, discharge_p={}, storage_q={},
            soc={}, voltage_sq={}, virtual_source={}, virtual_flow={}, fuel_used={},
        )
        return model, scen, sched

    def test_fuel_only_case_is_thirty_dollars(self):
        model, scen, sched = self.make_stub(gen_kw=100.0, shed_kw=0.0, periods=1)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=500.0, n_crew=1,
                                   fuel_cost=1.0, fuel_rate=0.3)
        total = scen.probability * sum(scenario_cost(model, scen, sched, config).values())
        assert total == pytest.approx(30.0)

    def test_everything_served_costs_nothing(self):
        model, scen, sched = self.make_stub(gen_kw=0.0, shed_kw=0.0, periods=2)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=0.0, n_crew=1)
        assert scen.probability * sum(scenario_cost(model, scen, sched, config).values()) == 0.0

    def test_shed_ten_kw_two_hours_at_fourteen(self):
        model, scen, sched = self.make_stub(gen_kw=0.0, shed_kw=10.0, periods=2)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=0.0, n_crew=1)
        total = scen.probability * sum(scenario_cost(model, scen, sched, config).values())
        assert total == pytest.approx(280.0)

    def test_solver_objective_matches_recomputation(self, chain3, chain3_config):
        scen = damage({"l23": 2}, 3)
        compiled = build_subproblem(chain3, scen, chain3_config)
        sol = solve_milp(compiled.problem, gap_tol=0.0)
        sched = extract_schedule(chain3, scen, compiled.index, sol, 0)
        recomputed = scen.probability * sum(
            scenario_cost(chain3, scen, sched, chain3_config).values())
        assert recomputed == pytest.approx(sol.objective, abs=1e-6)


class TestPlanHandling:
    def test_pin_plan_copies_without_first_stage_rows(self, chain3, chain3_config):
        compiled = build_subproblem(chain3, damage({"l12": 2}, horizon=3), chain3_config)
        first = compiled.first
        rows, bounds = compiled.problem.row_names(), compiled.problem.column_bounds()
        assert rows[:first.rows] == ["meg_total", "mes_total", "mobile_cap[b2]", "mobile_cap[b3]",
                                     "fuel_budget", "crew_total"]
        # one MEG and one crew held back: the totals rows, equalities, would refuse it
        thrifty = FirstStagePlan(meg_at={}, mes_at={"b3": 1}, fuel_lots={"b1": 2}, crews={"r1": 1})
        assert thrifty.violations(chain3, chain3_config, strict_totals=False) == []
        assert thrifty.violations(chain3, chain3_config) != []
        pinned = pin_plan(compiled, thrifty)
        assert compiled.problem.row_names() == rows
        assert all((new == old).all() for new, old in zip(compiled.problem.column_bounds(), bounds))
        assert pinned.row_names() == rows[first.rows:]
        lower, upper = pinned.column_bounds()
        assert lower[first.ids].tolist() == upper[first.ids].tolist() == first.vector(thrifty).tolist()
        assert solve_milp(pinned, gap_tol=0.0).ok
        with pytest.raises(ProblemError, match="binary"):
            pin_plan(compiled, FirstStagePlan(meg_at={"b2": 2}, mes_at={}, fuel_lots={}, crews={}))

    def test_plan_document_round_trip(self, feeder13, config13):
        plan = FirstStagePlan(
            meg_at={"f4": 1, "l8": 1, "f0": 0, "f2": 0},
            mes_at={"f2": 1, "f0": 0, "f4": 0, "l8": 0},
            fuel_lots={"f1": 3, "f3": 1, "f4": 1, "l8": 1},
            crews={"r1": 4, "r2": 1, "r3": 1},
        )
        doc = plan_to_document(plan, config13.fuel_quantum)
        again = plan_from_document(json.loads(json.dumps(doc)), config13.fuel_quantum)
        assert sorted(b for b, v in again.meg_at.items() if v) == ["f4", "l8"]
        assert again.fuel_lots == {"f1": 3, "f3": 1, "f4": 1, "l8": 1}
        assert again.crews == plan.crews
        assert plan.violations(feeder13, config13) == []

    @pytest.mark.parametrize("quantum", [100.0, 0.1, 1 / 3, 37.7])
    def test_plan_document_reads_back_every_lot_count(self, quantum):
        lots = {f"b{n}": n for n in range(1, 200)}
        plan = FirstStagePlan(meg_at={}, mes_at={}, fuel_lots=lots, crews={})
        doc = json.loads(json.dumps(plan_to_document(plan, quantum)))
        assert plan_from_document(doc, quantum).fuel_lots == lots

    def test_violations_catch_everything(self, feeder13, config13):
        plan = FirstStagePlan(
            meg_at={"f4": 1},  # one MEG missing
            mes_at={"l5": 1},  # not a candidate bus
            fuel_lots={"f1": 99},  # above the site cap
            crews={"r1": 9, "r2": 0, "r3": 0, "zz": 0},  # above regional max, unknown region
        )
        bad = plan.violations(feeder13, config13)
        assert "meg_total: 1 is not = 2" in bad
        assert "mes_l5 = 1: no first-stage column" in bad
        assert "lots_f1 = 99 outside [1, 8]" in bad
        assert "crew_r1 = 9 outside [0, 4]" in bad
        assert "crew_zz = 0: no first-stage column" in bad

    @pytest.mark.parametrize("fault", list(SINGLE_FAULTS))
    def test_violations_agree_with_the_benchmark_checker(self, feeder13, fault):
        plan_edit, config_edit = SINGLE_FAULTS[fault]
        plan_doc = json.loads((PERFBENCH / "reference.json").read_text())["plan"]["11"]
        for key, value in plan_edit.items():
            plan_doc[key] = {**plan_doc[key], **value} if isinstance(value, dict) else value
        config_doc = {**json.loads(config13_path().read_text()), **config_edit}
        config = config_from_document(config_doc)
        expected = plan_failures(plan_doc, json.loads(feeder13_path().read_text()), config_doc)
        assert bool(expected) == (fault != "reference")
        plan = plan_from_document(plan_doc, config.fuel_quantum)
        assert bool(plan.violations(feeder13, config)) == bool(expected)

    def test_two_units_of_one_kind_at_one_bus_are_refused(self, feeder13, config13):
        # the cap admits two units at f4, but a placement column is binary
        config = replace(config13, n_mu_by_bus={"f4": 2})
        plan = FirstStagePlan(meg_at={"f4": 2}, mes_at={}, fuel_lots={"f1": 1},
                              crews={"r1": 2, "r2": 2, "r3": 2})
        assert plan.violations(feeder13, config, strict_totals=False) == [
            "meg_f4 = 2 outside [0, 1]"]

    def test_violations_do_not_depend_on_string_hashing(self):
        # the first violation is the one hedging and validation report
        probe = (
            "import json\n"
            "from gridprep.data import config13_path, feeder13_path\n"
            "from gridprep.formulation import FirstStagePlan, config_from_document\n"
            "from gridprep.network import load_network\n"
            "model = load_network(feeder13_path().read_text())\n"
            "config = config_from_document(json.loads(config13_path().read_text()))\n"
            "plan = FirstStagePlan({'nowhere': 1, 'b1': 1}, {}, {}, {'r1': 2, 'r2': 2, 'r3': 2})\n"
            "print(plan.violations(model, config, strict_totals=False))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        outs = {
            subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           check=True, cwd=src, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "3")
        }
        assert len(outs) == 1

    def test_fuel_site_bounds_cover_generators_and_candidates(self, feeder13, config13):
        sites = fuel_site_bounds(feeder13, config13)
        assert set(sites) == {"f1", "f3", "f0", "f2", "f4", "l8"}
        assert sites["f1"] == (1, 8)  # 100 L on site, 800 L tank, 100 L lots
