import json
import math
from pathlib import Path

import pytest

from gridprep.cli import main as cli_main
from gridprep.data import config13_path, feeder13_path, fragility13_path, wind13_path
from gridprep.formulation import FirstStagePlan, FormulationConfig, SecondStageSchedule
from gridprep.network import network_from_document
from gridprep.report import (
    EvaluationError,
    InsufficientResourcesError,
    build_base_plan,
    evaluate_plan,
    pv_fleet_for_level,
    schedule_metrics,
    served_fraction_csv,
    sweep_pv,
)
from gridprep.scenarios import DamageScenario, ScenarioSet

from .conftest import small_network_doc


def no_damage(horizon, sid=0, prob=1.0):
    return DamageScenario(id=sid, probability=prob, damaged_lines=frozenset(),
                          repair_periods={}, irradiance=(500.0,) * horizon)


class TestMetrics:
    def test_average_outage_arithmetic(self):
        """Two loads out for 4 h and 2 h average to 3 h."""
        doc = small_network_doc(horizon=6)
        doc["buses"] = doc["buses"][:2]
        doc["buses"][0]["demand_p"] = {"a": [5.0] * 6}
        doc["buses"][1]["demand_p"] = {"a": [7.0] * 6}
        doc["lines"] = doc["lines"][:1]
        doc["regions"][0]["lines"] = ["l12"]
        doc["candidate_buses"] = []
        del doc["meg"]
        del doc["mes"]
        model = network_from_document(doc)
        pickup = {}
        for t in range(6):
            pickup[("b1", t)] = 0.0 if t < 4 else 1.0
            pickup[("b2", t)] = 0.0 if t < 2 else 1.0
        sched = SecondStageSchedule(
            scenario=0, pickup=pickup, energized={}, line_closed={}, repairing={},
            switch_ops={}, charging={}, flow_p={}, flow_q={}, gen_p={}, gen_q={},
            pv_p={}, pv_q={}, charge_p={}, discharge_p={}, storage_q={}, soc={},
            voltage_sq={}, virtual_source={}, virtual_flow={}, fuel_used={},
        )
        restored, avg_outage, served = schedule_metrics(model, sched)
        assert avg_outage == pytest.approx(3.0)
        assert restored == pytest.approx(5.0 * 2 + 7.0 * 4)
        assert served[0] == 0.0 and served[5] == 1.0

    def test_zero_demand_periods_do_not_count_as_outage(self):
        doc = small_network_doc(horizon=2)
        doc["buses"] = doc["buses"][:1]
        doc["buses"][0]["demand_p"] = {"a": [0.0, 5.0]}
        doc["lines"] = []
        doc["regions"] = []
        doc["candidate_buses"] = []
        del doc["meg"]
        del doc["mes"]
        doc["generators"] = []
        model = network_from_document(doc)
        sched = SecondStageSchedule(
            scenario=0, pickup={("b1", 0): 0.0, ("b1", 1): 1.0}, energized={},
            line_closed={}, repairing={}, switch_ops={}, charging={}, flow_p={},
            flow_q={}, gen_p={}, gen_q={}, pv_p={}, pv_q={}, charge_p={},
            discharge_p={}, storage_q={}, soc={}, voltage_sq={}, virtual_source={},
            virtual_flow={}, fuel_used={},
        )
        _, avg_outage, served = schedule_metrics(model, sched)
        assert avg_outage == 0.0
        assert served[0] == 1.0  # nothing to serve counts as fully served


class TestBasePlan:
    def test_fixture_recipe(self, feeder13, config13):
        plan = build_base_plan(feeder13, config13)
        assert sorted(b for b, v in plan.meg_at.items() if v) == ["f0", "l8"]
        assert sum(plan.mes_at.values()) == 0
        assert plan.crews == {"r1": 2, "r2": 2, "r3": 2}
        # generator sites keep their on-site fuel; MEG sites get a day of fuel
        assert plan.fuel_lots["f1"] == 1
        assert plan.fuel_lots["f0"] == 6  # tank-capped at 600 L
        assert plan.violations(feeder13, config13, strict_totals=False) == []

    def test_substations_first_then_priority_loads(self):
        doc = small_network_doc()
        doc["buses"][0]["substation"] = True
        doc["buses"][2]["shed_cost"] = 99.0
        doc["candidate_buses"] = ["b1", "b2", "b3"]
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=2, n_mes=0, n_fuel=1000.0, n_crew=2)
        plan = build_base_plan(model, config)
        placed = sorted(b for b, v in plan.meg_at.items() if v)
        assert placed == ["b1", "b3"]  # substation, then the costliest load

    def test_even_crew_split_27_over_9(self):
        doc = small_network_doc(horizon=1)
        doc["buses"] = [{"id": f"b{i}", "phases": "a", "demand_p": {"a": [1.0]},
                         "shed_cost": 1.0} for i in range(10)]
        doc["lines"] = [
            {"id": f"l{i}", "from_bus": f"b{i}", "to_bus": f"b{i+1}", "phases": "a",
             "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
             "x_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
             "p_max": 10.0, "q_max": 10.0} for i in range(9)
        ]
        doc["regions"] = [{"id": f"r{i}", "depot_bus": f"b{i}", "lines": [f"l{i}"],
                           "crew_min": 0, "crew_max": 9} for i in range(9)]
        doc["candidate_buses"] = []
        del doc["meg"]
        del doc["mes"]
        doc["generators"] = []
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=0, n_mes=0, n_fuel=0.0, n_crew=27)
        plan = build_base_plan(model, config)
        assert all(c == 3 for c in plan.crews.values())

    def test_day_of_fuel_sizing(self):
        """300 kW of generator capacity at 0.3 L/kWh needs 2160 L for a day."""
        doc = small_network_doc()
        doc["buses"][1]["substation"] = True
        doc["candidate_buses"] = ["b2"]
        doc["meg"] = {"p_max": 300.0, "q_max": 200.0, "fuel_present": 0.0,
                      "fuel_cap": 5000.0}
        del doc["mes"]
        doc["generators"] = []
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=1, n_mes=0, n_fuel=5000.0, n_crew=1,
                                   fuel_rate=0.3, fuel_quantum=1.0)
        plan = build_base_plan(model, config)
        assert plan.fuel_lots.get("b2", 0) * config.fuel_quantum == pytest.approx(2160.0)

    def test_insufficient_megs_for_substations(self):
        doc = small_network_doc()
        doc["buses"][0]["substation"] = True
        doc["buses"][1]["substation"] = True
        doc["candidate_buses"] = ["b1", "b2", "b3"]
        model = network_from_document(doc)
        config = FormulationConfig(n_meg=1, n_mes=0, n_fuel=500.0, n_crew=1)
        with pytest.raises(InsufficientResourcesError):
            build_base_plan(model, config)


class TestEvaluatePlan:
    def test_no_damage_full_service(self, feeder13, config13, ph_cold, loops13):
        scen = no_damage(feeder13.horizon)
        report = evaluate_plan(ph_cold.plan, feeder13, scen, config13, loops=loops13)
        assert report.avg_outage_hours == 0.0
        assert all(f == pytest.approx(1.0) for f in report.served_fraction)
        assert report.shed_cost == pytest.approx(0.0, abs=1e-6)

    def test_restored_energy_identity(self, feeder13, config13, ph_cold,
                                      training_scenarios, loops13):
        scen = training_scenarios.scenarios[0]
        report = evaluate_plan(ph_cold.plan, feeder13, scen, config13, loops=loops13)
        dt = feeder13.dt_hours
        by_hand = sum(
            f * sum(b.total_demand(t) for b in feeder13.buses) * dt
            for t, f in enumerate(report.served_fraction)
        )
        assert report.restored_energy_kwh == pytest.approx(by_hand, abs=1e-6)

    def test_invalid_plan_is_reported(self, feeder13, config13):
        bad = FirstStagePlan(meg_at={"nowhere": 1}, mes_at={}, fuel_lots={}, crews={})
        with pytest.raises(EvaluationError, match="non-candidate"):
            evaluate_plan(bad, feeder13, no_damage(feeder13.horizon), config13)


class TestPvSweep:
    def test_fleet_levels_nest(self, feeder13):
        def by_type(fleet):
            out = {}
            for spec in fleet:
                out.setdefault(spec.pv_type, []).append(spec)
            return out

        previous = {}
        for percent in (0, 9, 27, 45, 63, 81, 99):
            grouped = by_type(pv_fleet_for_level(feeder13, percent))
            for pv_type, units in previous.items():
                # each level extends the last: per-type unit lists are prefixes
                assert grouped.get(pv_type, [])[: len(units)] == units
            previous = grouped

    def test_unknown_level_rejected(self, feeder13):
        with pytest.raises(ValueError, match="unknown penetration"):
            pv_fleet_for_level(feeder13, 50)

    def test_two_level_sweep_direction(self, chain3, chain3_config):
        scen = DamageScenario(id=0, probability=1.0, damaged_lines=frozenset({"l23"}),
                              repair_periods={"l23": 9}, irradiance=(800.0,) * 3)
        scen_set = ScenarioSet(scenarios=(scen,), seed=0)
        results = sweep_pv(chain3, [0, 9], scen_set, chain3_config)
        assert results[1].objective <= results[0].objective + 1e-6
        assert results[1].expected_served_kwh >= results[0].expected_served_kwh - 1e-6


class TestCli:
    @pytest.fixture()
    def paths(self):
        return {
            "network": str(feeder13_path()),
            "wind": str(wind13_path()),
            "fragility": str(fragility13_path()),
            "config": str(config13_path()),
        }

    def run(self, *argv):
        return cli_main(list(argv))

    def test_generate_is_deterministic(self, paths, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = self.run("generate-scenarios", "--network", paths["network"],
                            "--wind", paths["wind"], "--fragility", paths["fragility"],
                            "--count", "3", "--seed", "7", "--out", str(out))
            assert code == 0
        assert (out1 / "scenarios.json").read_bytes() == (out2 / "scenarios.json").read_bytes()

    def test_missing_file_is_input_error(self, tmp_path):
        code = self.run("solve-ef", "--network", "/nope/missing.json",
                        "--out", str(tmp_path))
        assert code == 2

    def test_unreadable_file_is_input_error(self, tmp_path, capsys):
        assert self.run("check-network", "--network", str(tmp_path)) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == 2 and error["error"].startswith("network document: ")

    def test_malformed_network_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = self.run("check-network", "--network", str(bad))
        assert code == 2

    def test_non_finite_network_number_is_input_error(self, paths, tmp_path):
        doc = json.loads(Path(paths["network"]).read_text())
        doc["lines"][0]["p_max"] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))  # written as NaN, which json reads back
        assert self.run("check-network", "--network", str(bad)) == 2

    def test_non_numeric_network_value_is_input_error(self, paths, tmp_path):
        doc = json.loads(Path(paths["network"]).read_text())
        doc["lines"][0]["p_max"] = "abc"
        bad = tmp_path / "abc.json"
        bad.write_text(json.dumps(doc))
        assert self.run("check-network", "--network", str(bad)) == 2

    @pytest.mark.parametrize("where, value", [(("buses", 0, "demand_p"), [1, 2]),
                                              (("lines", 0, "phases"), 5),
                                              (("buses", 0, "demand_p", "a"), "111111")],
                             ids=["demand-list", "phases-int", "demand-str"])
    def test_wrongly_typed_network_structure_is_input_error(self, paths, tmp_path, where, value):
        doc = json.loads(Path(paths["network"]).read_text())
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(doc))
        assert self.run("check-network", "--network", str(bad)) == 2

    @pytest.mark.parametrize("speed", ["nan", "-3", "abc"])
    def test_bad_wind_speed_is_input_error(self, paths, tmp_path, speed):
        rows = Path(paths["wind"]).read_text().splitlines()
        t, _ = rows[2].split(",")
        rows[2] = f"{t},{speed}"
        bad = tmp_path / "wind.csv"
        bad.write_text("\n".join(rows) + "\n")
        code = self.run("generate-scenarios", "--network", paths["network"], "--wind", str(bad),
                        "--fragility", paths["fragility"], "--count", "8", "--seed", "11",
                        "--out", str(tmp_path / "s"))
        assert code == 2
        assert not (tmp_path / "s" / "scenarios.json").exists()

    @pytest.mark.parametrize("command", ["solve-ef", "evaluate", "validate-mrp", "sweep-pv"])
    def test_infeasible_config_exit_code(self, paths, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        doc = json.loads(Path(paths["config"]).read_text())
        doc["n_crew"] = 99  # above the regional maxima
        cfg.write_text(json.dumps(doc))
        scen = tmp_path / "s"
        assert self.run("generate-scenarios", "--network", paths["network"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        "--count", "1", "--seed", "1", "--out", str(scen)) == 0
        assert self.run("base-plan", "--network", paths["network"], "--config", paths["config"],
                        "--out", str(tmp_path / "base")) == 0
        plan = str(tmp_path / "base" / "base_plan.json")
        scenarios = ["--scenarios", str(scen / "scenarios.json")]
        flags = {"solve-ef": scenarios,
                 "evaluate": [*scenarios, "--plan", plan],
                 "validate-mrp": ["--candidate", plan, "--wind", paths["wind"]],
                 "sweep-pv": [*scenarios, "--levels", "0,9"]}[command]
        code = self.run(command, "--network", paths["network"], "--config", str(cfg),
                        *flags, "--out", str(tmp_path / "out"))
        assert code == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == 3 and "crew total 99" in error["error"]
        assert not (tmp_path / "out").exists()

    def test_sweep_without_load_buses_exit_code(self, paths, tmp_path, capsys):
        doc = json.loads(Path(paths["network"]).read_text())
        for bus in doc["buses"]:
            bus["demand_p"], bus["demand_q"] = {}, {}
        net = tmp_path / "no_loads.json"
        net.write_text(json.dumps(doc))
        assert self.run("check-network", "--network", str(net)) == 0
        code = self.run("sweep-pv", "--network", str(net), "--config", paths["config"],
                        "--wind", paths["wind"], "--count", "1", "--levels", "0",
                        "--out", str(tmp_path / "out"))
        assert code == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {"error": "model has no load buses to host PV", "exit_code": 3}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("what, edit, command", [
        ("config", {"n_mu_by_bus": [1]}, "base-plan"),
        ("config", {"n_meg": 1.5}, "base-plan"),
        ("config", {"n_crews": 99}, "base-plan"),
        ("fragility", {"pole_medain": 1.0}, "generate-scenarios"),
        ("scenarios", {"damaged": [{"line": "nope", "repair_periods": 2}]}, "solve-ef"),
        ("scenarios", {"damaged": [{"line": "nope", "repair_periods": 2}]}, "evaluate"),
        ("scenarios", {"irradiance": [500.0, 500.0]}, "solve-ef"),
        ("scenarios", {"damaged": [{"line": "t1", "repair_periods": 2.7}]}, "solve-ef"),
        ("scenarios", {"id": 3.7}, "evaluate"),
        ("scenarios", {"seed": 1.9}, "solve-ef"),
        ("scenarios", {"damaged": [{"line": "t1", "repair_periods": 2},
                                   {"line": "t1", "repair_periods": 3}]}, "solve-ef"),
        ("plan", {"fuel": []}, "evaluate"),
        ("plan", {"meg": "f0"}, "evaluate"),
    ], ids=["config-mu-list", "config-meg-float", "config-unknown-key", "fragility-unknown-key",
            "scenario-unknown-line-ef", "scenario-unknown-line-evaluate",
            "scenario-short-irradiance", "scenario-repair-float", "scenario-id-float",
            "scenario-seed-float", "scenario-line-twice", "plan-fuel-list", "plan-meg-string"])
    def test_malformed_input_file_is_input_error(self, paths, tmp_path, capsys, what, edit,
                                                 command):
        assert self.run("generate-scenarios", "--network", paths["network"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        "--count", "1", "--seed", "1", "--out", str(tmp_path / "s")) == 0
        assert self.run("base-plan", "--network", paths["network"], "--config", paths["config"],
                        "--out", str(tmp_path / "base")) == 0
        files = dict(paths, scenarios=str(tmp_path / "s" / "scenarios.json"),
                     plan=str(tmp_path / "base" / "base_plan.json"))
        doc = json.loads(Path(files[what]).read_text())
        # a scenario-file edit changes the first storm, except the set's own seed
        (doc["scenarios"][0] if what == "scenarios" and "seed" not in edit else doc).update(edit)
        files[what] = str(tmp_path / f"bad_{what}.json")
        Path(files[what]).write_text(json.dumps(doc))
        flags = {"base-plan": ["--config", files["config"]],
                 "generate-scenarios": ["--wind", files["wind"], "--fragility", files["fragility"],
                                        "--count", "1"],
                 "solve-ef": ["--config", files["config"], "--scenarios", files["scenarios"]],
                 "evaluate": ["--config", files["config"], "--scenarios", files["scenarios"],
                              "--plan", files["plan"]]}[command]
        code = self.run(command, "--network", paths["network"], *flags,
                        "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        prefix = {"config": "config file: ", "fragility": "fragility file: ",
                  "scenarios": "scenario file: ", "plan": "plan file: "}[what]
        assert error["exit_code"] == 2 and error["error"].startswith(prefix)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("fuel_cost", math.nan), ("switch_cost", math.inf),
                                            ("n_fuel", math.nan), ("fuel_quantum", math.nan)],
                             ids=["fuel_cost-nan", "switch_cost-inf", "n_fuel-nan", "fuel_quantum-nan"])
    def test_non_finite_config_number_is_input_error(self, paths, tmp_path, key, value):
        doc = json.loads(Path(paths["config"]).read_text())
        doc[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))  # written as NaN or Infinity, which json reads back
        scen = tmp_path / "s"
        assert self.run("generate-scenarios", "--network", paths["network"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        "--count", "2", "--seed", "11", "--out", str(scen)) == 0
        code = self.run("solve-ef", "--network", paths["network"], "--config", str(cfg),
                        "--scenarios", str(scen / "scenarios.json"), "--out", str(tmp_path / "ef"))
        assert code == 2

    def test_not_converged_exit_code(self, paths, tmp_path):
        scen = tmp_path / "s"
        assert self.run("generate-scenarios", "--network", paths["network"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        "--count", "4", "--seed", "11", "--out", str(scen)) == 0
        code = self.run("solve-ph", "--network", paths["network"],
                        "--config", paths["config"],
                        "--scenarios", str(scen / "scenarios.json"),
                        "--epsilon", "1e-12", "--max-iters", "1",
                        "--out", str(tmp_path / "ph"))
        assert code == 4

    def test_solver_failure_exit_code(self, paths, tmp_path, monkeypatch, capsys):
        import gridprep.cli as cli_mod
        from gridprep.milp import NumericalInstabilityError

        def failing(problem, **kw):
            raise NumericalInstabilityError("HiGHS LP failed")

        monkeypatch.setattr(cli_mod, "solve_milp", failing)
        code = self.run("solve-ef", "--network", paths["network"],
                        "--config", paths["config"], "--wind", paths["wind"],
                        "--fragility", paths["fragility"], "--count", "1", "--seed", "11",
                        "--out", str(tmp_path / "ef"))
        assert code == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == 4 and "HiGHS LP failed" in error["error"]

    @pytest.mark.parametrize("command, flags", [
        ("solve-ph", ["--rho", "0"]),
        ("solve-ph", ["--rho", "nan"]),
        ("solve-ph", ["--epsilon", "inf"]),
        ("solve-ph", ["--workers", "0"]),
        ("validate-mrp", ["--n", "1"]),
        ("validate-mrp", ["--workers", "0"]),
        ("solve-ef", ["--gap", "-1"]),
        ("solve-ef", ["--gap", "nan"]),
    ], ids=["ph-rho-0", "ph-rho-nan", "ph-epsilon-inf", "ph-workers-0", "mrp-n-1", "mrp-workers-0", "ef-gap-negative",
            "ef-gap-nan"])
    def test_bad_settings_are_input_errors(self, paths, tmp_path, capsys, command, flags):
        if command in ("solve-ph", "solve-ef"):
            argv = ["--count", "2", "--seed", "11"]
        else:
            plan = tmp_path / "base"
            assert self.run("base-plan", "--network", paths["network"],
                            "--config", paths["config"], "--out", str(plan)) == 0
            argv = ["--candidate", str(plan / "base_plan.json")]
        code = self.run(command, "--network", paths["network"], "--config", paths["config"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        *argv, *flags, "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == 2 and "must be" in error["error"]
        assert not (tmp_path / "out").exists()

    def test_soft_start_plan_breaking_first_stage_rules(self, paths, tmp_path, capsys):
        plan = tmp_path / "bad_plan.json"
        plan.write_text(json.dumps({"meg": ["f4", "nowhere"], "fuel": {"zz": 100.0},
                                    "crews": {"r1": 7}}))
        code = self.run("solve-ph", "--network", paths["network"], "--config", paths["config"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        "--count", "2", "--seed", "11", "--soft-start", str(plan),
                        "--out", str(tmp_path / "out"))
        assert code == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == 3 and "prior plan" in error["error"]
        assert not (tmp_path / "out").exists()

    def test_base_plan_and_evaluate_round_trip(self, paths, tmp_path):
        scen = tmp_path / "s"
        assert self.run("generate-scenarios", "--network", paths["network"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        "--count", "2", "--seed", "3", "--out", str(scen)) == 0
        assert self.run("base-plan", "--network", paths["network"],
                        "--config", paths["config"], "--out", str(tmp_path)) == 0
        code = self.run("evaluate", "--network", paths["network"],
                        "--config", paths["config"],
                        "--scenarios", str(scen / "scenarios.json"),
                        "--plan", str(tmp_path / "base_plan.json"),
                        "--label", "base", "--out", str(tmp_path / "eval"))
        assert code == 0
        reports = json.loads((tmp_path / "eval" / "evaluation.json").read_text())
        assert len(reports) == 2
        csv_text = (tmp_path / "eval" / "served_fraction.csv").read_text()
        assert csv_text.startswith("plan,scenario,t,served_fraction")

    def test_lp_dump_flag(self, paths, tmp_path):
        scen = tmp_path / "s"
        assert self.run("generate-scenarios", "--network", paths["network"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        "--count", "1", "--seed", "5", "--out", str(scen)) == 0
        code = self.run("solve-ef", "--network", paths["network"],
                        "--config", paths["config"],
                        "--scenarios", str(scen / "scenarios.json"),
                        "--dump-lp", "--out", str(tmp_path / "ef"))
        assert code == 0
        lp_text = (tmp_path / "ef" / "extensive_form.lp").read_text()
        assert lp_text.startswith("\\ Problem:")
        assert "Minimize" in lp_text and "Binaries" in lp_text


def test_served_fraction_csv_shape():
    from gridprep.report import EvaluationReport

    rep = EvaluationReport(plan_label="p", scenario_id=4, restored_energy_kwh=1.0,
                           avg_outage_hours=0.0, served_fraction=[1.0, 0.5],
                           fuel_cost=1.0, switching_cost=0.0, shed_cost=2.0)
    text = served_fraction_csv([rep])
    lines = text.strip().split("\n")
    assert lines[1] == "p,4,0,1.0"
    assert lines[2] == "p,4,1,0.5"
    assert rep.total_cost == pytest.approx(3.0)
