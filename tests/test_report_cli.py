import argparse
import json
import math
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gridprep.cli import build_parser
from gridprep.cli import main as cli_main
from gridprep.data import config13_path, feeder13_path, fragility13_path, wind13_path
from gridprep.formulation import (
    FirstStagePlan,
    FormulationConfig,
    SecondStageSchedule,
    config_from_document,
    plan_from_document,
)
from gridprep.network import load_network, network_from_document
from gridprep.report import (
    EvaluationError,
    InsufficientResourcesError,
    build_base_plan,
    evaluate_plan,
    pv_fleet_for_level,
    schedule_metrics,
    sweep_pv,
)
from gridprep.scenarios import DamageScenario, ScenarioSet

from .conftest import small_network_doc, usable_cores

SRC = Path(__file__).resolve().parent.parent / "src"


def no_damage(horizon, sid=0, prob=1.0):
    return DamageScenario(id=sid, probability=prob, damaged_lines=frozenset(),
                          repair_periods={}, irradiance=(500.0,) * horizon)


def reading(what: str, files: dict, out: str) -> list[str]:
    """A command line that reads the ``what`` document of ``files`` first."""
    return {"network": ["check-network", "--network", files["network"]],
            "config": ["base-plan", "--network", files["network"], "--config", files["config"],
                       "--out", out],
            "fragility": ["generate-scenarios", "--network", files["network"],
                          "--wind", files["wind"], "--fragility", files["fragility"],
                          "--count", "1", "--out", out],
            "scenarios": ["solve-ef", "--network", files["network"], "--config", files["config"],
                          "--scenarios", files["scenarios"], "--out", out],
            "plan": ["evaluate", "--network", files["network"], "--config", files["config"],
                     "--scenarios", files["scenarios"], "--plan", files["plan"], "--out", out]}[what]


def one_error(capsys) -> dict:
    """The JSON error line of a refused command, which must be all it wrote
    to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def metrics_by_loop(model, pickup):
    """schedule_metrics as a loop over periods and buses, for reference."""
    dt = model.dt_hours
    restored, served_fraction = 0.0, []
    for t in range(model.horizon):
        total_d = served_d = 0.0
        for b in model.buses:
            d = b.total_demand(t)
            total_d += d
            served_d += d * pickup[(b.id, t)]
        restored += served_d * dt
        served_fraction.append(served_d / total_d if total_d > 0 else 1.0)
    load_buses = [b for b in model.buses if any(b.total_demand(t) > 0 for t in range(model.horizon))]
    outage = 0.0
    for b in load_buses:
        for t in range(model.horizon):
            if b.total_demand(t) > 0 and pickup[(b.id, t)] < 0.5:
                outage += dt
    return restored, outage / len(load_buses) if load_buses else 0.0, served_fraction


class TestMetrics:
    def test_metrics_add_as_the_loop_does(self, feeder13):
        rng = np.random.default_rng(3)
        blank = {f.name: {} for f in fields(SecondStageSchedule) if f.name not in ("scenario", "pickup")}
        for _ in range(20):
            pickup = {(b.id, t): float(rng.choice([0.0, 1.0, rng.random()]))
                      for b in feeder13.buses for t in range(feeder13.horizon)}
            sched = SecondStageSchedule(scenario=0, pickup=pickup, **blank)
            assert schedule_metrics(feeder13, sched) == metrics_by_loop(feeder13, pickup)

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
        with pytest.raises(EvaluationError, match="meg_nowhere = 1: no first-stage column"):
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

    def storms(self, paths, out, count, seed):
        """The file of ``count`` storms at ``seed`` that ``generate-scenarios``
        writes to ``out``: the one way every other command is given storms."""
        assert self.run("generate-scenarios", "--network", paths["network"],
                        "--wind", paths["wind"], "--fragility", paths["fragility"],
                        "--count", str(count), "--seed", str(seed), "--out", str(out)) == 0
        return str(out / "scenarios.json")

    def documents(self, paths, tmp_path) -> dict:
        """The files of all five input documents: the bundled network, config
        and fragility, one storm at seed 1 and the base plan."""
        assert self.run("base-plan", "--network", paths["network"], "--config", paths["config"],
                        "--out", str(tmp_path / "base")) == 0
        return dict(paths, scenarios=self.storms(paths, tmp_path / "s", 1, 1),
                    plan=str(tmp_path / "base" / "base_plan.json"))

    def test_generate_is_deterministic(self, paths, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = self.run("generate-scenarios", "--network", paths["network"],
                            "--wind", paths["wind"], "--fragility", paths["fragility"],
                            "--count", "3", "--seed", "7", "--out", str(out))
            assert code == 0
        assert (out1 / "scenarios.json").read_bytes() == (out2 / "scenarios.json").read_bytes()

    @pytest.mark.parametrize("command, needs", [
        ("solve-ef", []), ("solve-ph", []), ("evaluate", ["--plan", "p.json"]),
        ("sweep-pv", ["--levels", "0"])])
    def test_storms_come_only_from_a_scenario_file(self, capsys, command, needs):
        # generate-scenarios alone samples storms; these commands read them
        argv = [command, "--network", "n.json", *needs]
        for flag, value in [("--count", "2"), ("--seed", "11"), ("--wind", "w.csv"),
                            ("--fragility", "f.json")]:
            assert cli_main([*argv, "--scenarios", "s.json", flag, value]) == 2
            assert f"unrecognized arguments: {flag} {value}" in one_error(capsys)["error"]
        assert cli_main(argv) == 2
        assert "required: --scenarios" in one_error(capsys)["error"]

    @pytest.mark.parametrize("argv, message", [
        (["solve-ef", "--network", "n.json", "--scenarios", "s.json", "--bogus"],
         "gridprep: unrecognized arguments: --bogus"),
        (["generate-scenarios", "--network", "n.json", "--wind", "w.csv"],
         "gridprep generate-scenarios: the following arguments are required: --count"),
        (["generate-scenarios", "--network", "n.json", "--wind", "w.csv", "--count", "abc"],
         "gridprep generate-scenarios: argument --count: invalid int value: 'abc'"),
        (["plan-everything"], "gridprep: argument command: invalid choice: 'plan-everything'"),
        ([], "gridprep: the following arguments are required: command"),
        (["check-network", "--network", "n.json", "--crew-total", "3"],
         "gridprep: unrecognized arguments: --crew-total 3"),
    ], ids=["unknown-flag", "missing-flag", "count-not-int", "unknown-command", "no-command",
            "crew-total"])
    def test_refused_command_line_is_input_error(self, capsys, argv, message):
        assert cli_main(argv) == 2
        error = one_error(capsys)
        assert error["exit_code"] == 2 and error["error"].startswith(message)

    def test_refused_flag_from_the_shell_prints_one_json_line(self):
        run = subprocess.run([sys.executable, "-m", "gridprep.cli", "solve-ef", "--bogus"],
                             capture_output=True, text=True, cwd=SRC)
        assert run.returncode == 2 and run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["exit_code"] == 2
        assert "usage:" not in run.stderr and "Traceback" not in run.stderr

    def test_help_still_prints_help(self):
        run = subprocess.run([sys.executable, "-m", "gridprep.cli", "solve-ef", "--help"],
                             capture_output=True, text=True, cwd=SRC)
        assert run.returncode == 0 and run.stderr == ""
        assert run.stdout.startswith("usage: gridprep solve-ef")

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["a-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_is_input_error(self, paths, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("not a directory")
        out = str(tmp_path / out)
        assert self.run("base-plan", "--network", paths["network"], "--config", paths["config"],
                        "--out", out) == 2
        error = one_error(capsys)
        assert error["exit_code"] == 2 and error["error"].startswith(f"--out {out}: cannot write")
        assert (tmp_path / "taken").read_text() == "not a directory"

    @pytest.mark.parametrize("what, where, key", [
        ("network", (), "horizon"),
        ("network", ("buses", 5, "demand_p"), "a"),
        ("config", (), "fuel_cost"),
        ("fragility", (), "pole_median"),
        ("scenarios", (), "seed"),
        ("scenarios", ("scenarios", 0), "prob"),
        ("plan", ("fuel",), "f1"),
        ("plan", ("crews",), "r1"),
    ], ids=["network-horizon", "network-demand-phase", "config-fuel_cost", "fragility-median",
            "scenario-set-seed", "scenario-prob", "plan-fuel", "plan-crews"])
    def test_repeated_key_is_input_error_naming_it(self, paths, tmp_path, capsys, what, where,
                                                   key):
        # json keeps the last of two equal keys; each document refuses the pair
        files = self.documents(paths, tmp_path)
        doc = json.loads(Path(files[what]).read_text())
        target = doc
        for step in where:
            target = target[step]
        target["twin"] = target[key]  # written out as a second copy of the key
        text = json.dumps(doc).replace('"twin":', f'"{key}":')
        files[what] = str(tmp_path / f"twin_{what}.json")
        Path(files[what]).write_text(text)
        capsys.readouterr()
        out = str(tmp_path / "out")
        assert self.run(*reading(what, files, out)) == 2
        prefix = {"network": "network document: ", "config": "config file: ",
                  "fragility": "fragility file: ", "scenarios": "scenario file: ",
                  "plan": "plan file: "}[what]
        assert one_error(capsys) == {"error": f"{prefix}key '{key}' appears twice in one object",
                                     "exit_code": 2}
        assert not Path(out).exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = self.run("solve-ef", "--network", "/nope/missing.json",
                        "--scenarios", "/nope/scenarios.json", "--out", str(tmp_path))
        assert code == 2
        assert one_error(capsys)["error"] == ("network document: cannot read /nope/missing.json "
                                              "(No such file or directory)")

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
                                              (("buses", 0, "demand_p", "a"), "111111"),
                                              (("regions", 0, "crew_max"), 4.7),
                                              (("lines", 0, "poles"), 10**400)],
                             ids=["demand-list", "phases-int", "demand-str", "crew_max-fraction",
                                  "poles-too-large-for-a-float"])
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

    def test_generate_refuses_a_count_below_one(self, paths, tmp_path, capsys):
        code = self.run("generate-scenarios", "--network", paths["network"], "--wind", paths["wind"],
                        "--count", "0", "--out", str(tmp_path / "s"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {"error": "--count must be >= 1", "exit_code": 2}
        assert not (tmp_path / "s").exists()

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

    def refused_config(self, paths, tmp_path, capsys, command, edit) -> dict:
        """Run ``command`` on the fixture with ``edit`` applied to its
        config, assert it exits 3 and writes nothing, and return its error."""
        cfg = tmp_path / "cfg.json"
        doc = json.loads(Path(paths["config"]).read_text())
        doc.update(edit)
        cfg.write_text(json.dumps(doc))
        scenarios = ["--scenarios", self.storms(paths, tmp_path / "s", 1, 1)]
        assert self.run("base-plan", "--network", paths["network"], "--config", paths["config"],
                        "--out", str(tmp_path / "base")) == 0
        plan = str(tmp_path / "base" / "base_plan.json")
        flags = {"base-plan": [],
                 "solve-ef": scenarios,
                 "solve-ph": scenarios,
                 "evaluate": [*scenarios, "--plan", plan],
                 "validate-mrp": ["--candidate", plan, "--wind", paths["wind"]],
                 "sweep-pv": [*scenarios, "--levels", "0,9"]}[command]
        capsys.readouterr()
        code = self.run(command, "--network", paths["network"], "--config", str(cfg),
                        *flags, "--out", str(tmp_path / "out"))
        assert code == 3
        error = one_error(capsys)
        assert error["exit_code"] == 3
        assert not (tmp_path / "out").exists()
        return error

    @pytest.mark.parametrize("command", ["base-plan", "solve-ef", "solve-ph", "evaluate",
                                         "validate-mrp", "sweep-pv"])
    def test_infeasible_config_exit_code(self, paths, tmp_path, capsys, command):
        # above the regional maxima: every command that reads a config says so alike
        error = self.refused_config(paths, tmp_path, capsys, command, {"n_crew": 99})
        assert error["error"] == "crew total 99 outside the feasible range [0, 12]"

    @pytest.mark.parametrize("command", ["base-plan", "solve-ef", "solve-ph", "evaluate",
                                         "validate-mrp", "sweep-pv"])
    def test_fuel_budget_below_on_site_fuel_exit_code(self, paths, tmp_path, capsys, command):
        error = self.refused_config(paths, tmp_path, capsys, command, {"n_fuel": 50.0})
        assert error["error"] == "on-site fuel 100.0 L already exceeds the budget 50.0 L"

    def test_base_plan_meets_a_fuel_budget_just_below_on_site_fuel(self, paths, tmp_path):
        """5e-10 L short of the 100 L already on site is within the fuel
        budget row's tolerance, so the config check admits it and so does
        ``base-plan``."""
        doc = json.loads(Path(paths["config"]).read_text())
        doc.update(fuel_quantum=0.001, n_fuel=99.9999999995)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert self.run("base-plan", "--network", paths["network"], "--config", str(cfg),
                        "--out", str(tmp_path / "out")) == 0
        config = config_from_document(doc)
        plan = plan_from_document(json.loads((tmp_path / "out" / "base_plan.json").read_text()),
                                  config.fuel_quantum)
        model = load_network(Path(paths["network"]).read_text())
        assert plan.violations(model, config, strict_totals=False) == []

    def test_sweep_without_load_buses_exit_code(self, paths, tmp_path, capsys):
        doc = json.loads(Path(paths["network"]).read_text())
        for bus in doc["buses"]:
            bus["demand_p"], bus["demand_q"] = {}, {}
        net = tmp_path / "no_loads.json"
        net.write_text(json.dumps(doc))
        assert self.run("check-network", "--network", str(net)) == 0
        code = self.run("sweep-pv", "--network", str(net), "--config", paths["config"],
                        "--scenarios", self.storms(paths, tmp_path / "s", 1, 0), "--levels", "0",
                        "--out", str(tmp_path / "out"))
        assert code == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {"error": "model has no load buses to host PV", "exit_code": 3}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("levels, message", [
        (",", "--levels names no penetration level"),
        ("abc", "--levels must be comma-separated integers"),
        ("5", "--levels: unknown penetration levels [5]"),
        ("0,9,0", "--levels: repeated penetration levels [0]"),
    ], ids=["none", "not-integer", "unknown", "repeated"])
    def test_bad_levels_are_input_errors(self, paths, tmp_path, capsys, levels, message):
        code = self.run("sweep-pv", "--network", paths["network"], "--config", paths["config"],
                        "--scenarios", self.storms(paths, tmp_path / "s", 1, 0), "--levels", levels,
                        "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == 2 and error["error"].startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("what, edit, command", [
        ("config", {"n_mu_by_bus": [1]}, "base-plan"),
        ("config", {"n_meg": 1.5}, "base-plan"),
        ("config", {"n_crews": 99}, "base-plan"),
        ("config", {"n_fuel": 10**400}, "base-plan"),
        ("fragility", {"pole_medain": 1.0}, "generate-scenarios"),
        ("scenarios", {"damaged": [{"line": "nope", "repair_periods": 2}]}, "solve-ef"),
        ("scenarios", {"damaged": [{"line": "nope", "repair_periods": 2}]}, "evaluate"),
        ("scenarios", {"irradiance": [500.0, 500.0]}, "solve-ef"),
        ("scenarios", {"irradiance": "123456"}, "solve-ef"),
        ("scenarios", {"irradiance": [500.0] * 5 + ["500"]}, "solve-ef"),
        ("scenarios", {"irradiance": [500.0] * 5 + [True]}, "evaluate"),
        ("scenarios", {"prob": "1"}, "solve-ef"),
        ("scenarios", {"prob": True}, "evaluate"),
        ("scenarios", {"damaged": [{"line": "t1", "repair_periods": 2.7}]}, "solve-ef"),
        ("scenarios", {"id": 3.7}, "evaluate"),
        ("scenarios", {"seed": 1.9}, "solve-ef"),
        ("scenarios", {"damaged": [{"line": "t1", "repair_periods": 2},
                                   {"line": "t1", "repair_periods": 3}]}, "solve-ef"),
        ("scenarios", {"id": 1}, "evaluate"),
        ("plan", {"fuel": []}, "evaluate"),
        ("plan", {"meg": "f0"}, "evaluate"),
    ], ids=["config-mu-list", "config-meg-float", "config-unknown-key", "config-fuel-too-large",
            "fragility-unknown-key",
            "scenario-unknown-line-ef", "scenario-unknown-line-evaluate",
            "scenario-short-irradiance", "scenario-irradiance-string",
            "scenario-irradiance-entry-string", "scenario-irradiance-entry-bool",
            "scenario-prob-string", "scenario-prob-bool", "scenario-repair-float", "scenario-id-float",
            "scenario-seed-float", "scenario-line-twice", "scenario-id-twice", "plan-fuel-list",
            "plan-meg-string"])
    def test_malformed_input_file_is_input_error(self, paths, tmp_path, capsys, what, edit,
                                                 command):
        scenarios = self.storms(paths, tmp_path / "s", 2, 1)
        assert self.run("base-plan", "--network", paths["network"], "--config", paths["config"],
                        "--out", str(tmp_path / "base")) == 0
        files = dict(paths, scenarios=scenarios,
                     plan=str(tmp_path / "base" / "base_plan.json"))
        doc = json.loads(Path(files[what]).read_text())
        # a scenario-file edit changes the first of two storms (ids 0 and 1),
        # except the set's own seed
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
        code = self.run("solve-ef", "--network", paths["network"], "--config", str(cfg),
                        "--scenarios", self.storms(paths, tmp_path / "s", 2, 11),
                        "--out", str(tmp_path / "ef"))
        assert code == 2

    @pytest.mark.parametrize("what, where, value, key", [
        ("network", ("switches", 0, "normally_open"), "false", "normally_open"),
        ("network", ("generators", 0, "grid_forming"), "false", "grid_forming"),
        ("network", ("buses", 0, "substation"), "no", "substation"),
        ("network", ("lines", 0, "p_max"), True, "p_max"),
        ("network", ("lines", 0, "p_max"), "100", "p_max"),
        ("network", ("buses", 5, "demand_p", "a", 0), "1", "demand_p"),
        ("config", ("fuel_cost",), True, "fuel_cost"),
        ("config", ("n_mu_default",), -1, "n_mu_default"),
        ("config", ("n_mu_by_bus",), {"f4": -1}, "n_mu_by_bus['f4']"),
        ("fragility", ("pole_median",), math.nan, "pole_median"),
        ("fragility", ("pole_log_std",), math.inf, "pole_log_std"),
        ("fragility", ("tree_factor",), True, "tree_factor"),
        ("fragility", ("repair_max_periods",), 6.5, "repair_max_periods"),
        ("scenarios", ("seed",), 10**400, "seed"),
        ("plan", ("meg", 0), 5, "meg"),
        ("plan", ("fuel",), {"f1": 150.0}, "fuel['f1'] is 150.0 L"),
        ("plan", ("fuel",), {"f1": 100.0 + 1e-6}, "fuel['f1']"),
        ("plan", ("meg",), ["f4", "f4"], "meg names buses ['f4']"),
        ("plan", ("mes",), ["l8", "f2", "l8"], "mes names buses ['l8']"),
        ("network", ("switches",), [{"line": "t2", "normally_open": False},
                                    {"line": "t2", "normally_open": True}], "switches[1]"),
        ("network", ("switches",), ["t2", "t4", "t2"], "switches[2]"),
        ("network", ("regions", 1, "lines"), ["t3", "d7", "d8", "d9", "d5"],
         "region r2: line 'd5' is already listed in region 'r1'"),
        ("network", ("regions", 1, "id"), "r1", "region r1: the id is listed twice"),
        ("network", ("regions", 0, "lines"), ["t2", "d5", "d6"], "line 't1' is listed in no region"),
    ], ids=["switch-open-string", "grid-forming-string", "substation-string", "p_max-bool",
            "p_max-string", "demand-entry-string", "config-fuel_cost-bool", "config-mu-default-negative",
            "config-mu-by-bus-negative", "fragility-median-nan",
            "fragility-log-std-inf", "fragility-tree-bool", "fragility-repair-fraction",
            "scenario-seed-too-large", "plan-meg-number", "plan-fuel-half-lot",
            "plan-fuel-off-by-1e-6", "plan-meg-twice", "plan-mes-twice", "switch-twice",
            "switch-name-twice", "region-line-twice", "region-id-twice",
            "region-line-uncovered"])
    def test_malformed_scalar_is_input_error_naming_its_key(self, paths, tmp_path, capsys, what,
                                                            where, value, key):
        # each of these read as some other value, and ran, before one reader checked them all
        files = self.documents(paths, tmp_path)
        doc = json.loads(Path(files[what]).read_text())
        *parents, last = where
        target = doc
        for step in parents:
            target = target[step]
        target[last] = value
        files[what] = str(tmp_path / f"bad_{what}.json")
        Path(files[what]).write_text(json.dumps(doc))  # NaN and Infinity as json writes them
        capsys.readouterr()
        out = str(tmp_path / "out")
        assert self.run(*reading(what, files, out)) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["exit_code"] == 2 and key in error["error"]
        assert not Path(out).exists()

    def test_not_converged_exit_code(self, paths, tmp_path):
        code = self.run("solve-ph", "--network", paths["network"],
                        "--config", paths["config"],
                        "--scenarios", self.storms(paths, tmp_path / "s", 4, 11),
                        "--epsilon", "1e-12", "--max-iters", "1",
                        "--out", str(tmp_path / "ph"))
        assert code == 4

    @pytest.mark.parametrize("command, status, code", [
        ("solve-ph", "iteration_limit", 4), ("evaluate", "iteration_limit", 4),
        ("solve-ph", "infeasible", 3), ("evaluate", "infeasible", 3)])
    def test_solve_without_a_verdict_is_not_infeasible(self, paths, tmp_path, monkeypatch, capsys,
                                                       command, status, code):
        # a solve that stopped at a limit proves nothing about feasibility
        import gridprep.hedging
        import gridprep.report
        from gridprep.milp import MilpSolution

        files = self.documents(paths, tmp_path)
        module = gridprep.hedging if command == "solve-ph" else gridprep.report
        monkeypatch.setattr(module, "solve_milp", lambda problem, **kw: MilpSolution(status))
        capsys.readouterr()
        out = str(tmp_path / "out")
        flags = ["--plan", files["plan"]] if command == "evaluate" else []
        assert self.run(command, "--network", paths["network"], "--config", paths["config"],
                        "--scenarios", files["scenarios"], *flags, "--out", out) == code
        error = one_error(capsys)["error"]
        if code == 4:
            assert error.startswith("solver did not converge: scenario 0 ")
            assert error.endswith("stopped with status iteration_limit")
        else:
            assert "scenario 0" in error and "infeasible" in error
        assert not Path(out).exists()

    def test_mobile_unit_cap_for_a_bus_that_is_no_candidate(self, paths, tmp_path, capsys):
        doc = json.loads(Path(paths["config"]).read_text())
        doc["n_mu_by_bus"] = {"nope": 2, "f4": 1}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        code = self.run("solve-ef", "--network", paths["network"], "--config", str(cfg),
                        "--scenarios", self.storms(paths, tmp_path / "s", 1, 1), "--out", out)
        assert code == 3
        assert one_error(capsys) == {
            "error": "n_mu_by_bus names buses ['nope'] that are not candidate buses",
            "exit_code": 3}
        assert not Path(out).exists()

    def test_base_plan_refuses_a_config_the_feeder_cannot_meet(self, paths, tmp_path, capsys):
        # the base plan is checked against the first stage every command compiles
        doc = json.loads(Path(paths["config"]).read_text())
        doc["n_mu_by_bus"] = {"nope": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "base"
        assert self.run("base-plan", "--network", paths["network"], "--config", str(cfg),
                        "--out", str(out)) == 3
        assert "'nope'" in one_error(capsys)["error"]
        assert not (out / "base_plan.json").exists()

    def test_solver_failure_exit_code(self, paths, tmp_path, monkeypatch, capsys):
        import gridprep.cli as cli_mod
        from gridprep.milp import NumericalInstabilityError

        def failing(problem, **kw):
            raise NumericalInstabilityError("HiGHS LP failed")

        monkeypatch.setattr(cli_mod, "solve_milp", failing)
        code = self.run("solve-ef", "--network", paths["network"],
                        "--config", paths["config"],
                        "--scenarios", self.storms(paths, tmp_path / "s", 1, 11),
                        "--out", str(tmp_path / "ef"))
        assert code == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == 4 and "HiGHS LP failed" in error["error"]

    @pytest.mark.parametrize("command, flags", [
        ("solve-ph", ["--rho", "0"]),
        ("solve-ph", ["--rho", "nan"]),
        ("solve-ph", ["--epsilon", "inf"]),
        ("validate-mrp", ["--n", "1"]),
        ("solve-ef", ["--gap", "-1"]),
        ("solve-ef", ["--gap", "nan"]),
    ], ids=["ph-rho-0", "ph-rho-nan", "ph-epsilon-inf", "mrp-n-1", "ef-gap-negative", "ef-gap-nan"])
    def test_bad_settings_are_input_errors(self, paths, tmp_path, capsys, command, flags):
        if command in ("solve-ph", "solve-ef"):
            argv = ["--scenarios", self.storms(paths, tmp_path / "s", 2, 11)]
        else:
            plan = tmp_path / "base"
            assert self.run("base-plan", "--network", paths["network"],
                            "--config", paths["config"], "--out", str(plan)) == 0
            argv = ["--candidate", str(plan / "base_plan.json"),
                    "--wind", paths["wind"], "--fragility", paths["fragility"]]
        code = self.run(command, "--network", paths["network"], "--config", paths["config"],
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
                        "--scenarios", self.storms(paths, tmp_path / "s", 2, 11),
                        "--soft-start", str(plan),
                        "--out", str(tmp_path / "out"))
        assert code == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == 3 and "prior plan" in error["error"]
        assert not (tmp_path / "out").exists()

    def test_base_plan_and_evaluate_round_trip(self, paths, tmp_path):
        scenarios = self.storms(paths, tmp_path / "s", 2, 3)
        assert self.run("base-plan", "--network", paths["network"],
                        "--config", paths["config"], "--out", str(tmp_path)) == 0
        code = self.run("evaluate", "--network", paths["network"],
                        "--config", paths["config"], "--scenarios", scenarios,
                        "--plan", str(tmp_path / "base_plan.json"),
                        "--label", "base", "--out", str(tmp_path / "eval"))
        assert code == 0
        reports = json.loads((tmp_path / "eval" / "evaluation.json").read_text())
        assert len(reports) == 2
        csv_text = (tmp_path / "eval" / "served_fraction.csv").read_text()
        assert csv_text.startswith("plan,scenario,t,served_fraction")

    def test_evaluate_writes_the_same_reports_on_any_core_count(self, paths, tmp_path):
        scenarios = self.storms(paths, tmp_path / "s", 3, 3)
        assert self.run("base-plan", "--network", paths["network"],
                        "--config", paths["config"], "--out", str(tmp_path)) == 0
        written = {}
        for cores in (None, 1, 3):
            out = tmp_path / f"eval_{cores}"
            with usable_cores(cores):
                assert self.run("evaluate", "--network", paths["network"],
                                "--config", paths["config"], "--scenarios", scenarios,
                                "--plan", str(tmp_path / "base_plan.json"),
                                "--out", str(out)) == 0
            written[cores] = [(out / name).read_bytes()
                              for name in ("evaluation.json", "served_fraction.csv")]
        assert written[1] == written[None] == written[3]

    def test_sweep_writes_the_same_reports_on_any_core_count(self, paths, tmp_path):
        scenarios = self.storms(paths, tmp_path / "s", 2, 3)
        written = {}
        for cores in (None, 1, 3):
            out = tmp_path / f"sweep_{cores}"
            with usable_cores(cores):
                assert self.run("sweep-pv", "--network", paths["network"],
                                "--config", paths["config"], "--scenarios", scenarios,
                                "--levels", "0,9", "--out", str(out)) == 0
            written[cores] = [(out / name).read_bytes()
                              for name in ("pv_sweep.json", "pv_sweep.csv")]
        assert written[1] == written[None] == written[3]

    def test_lp_dump_flag(self, paths, tmp_path):
        code = self.run("solve-ef", "--network", paths["network"],
                        "--config", paths["config"],
                        "--scenarios", self.storms(paths, tmp_path / "s", 1, 5),
                        "--dump-lp", "--out", str(tmp_path / "ef"))
        assert code == 0
        lp_text = (tmp_path / "ef" / "extensive_form.lp").read_text()
        assert lp_text.startswith("\\ Problem:")
        assert "Minimize" in lp_text and "Binaries" in lp_text


def test_served_fraction_csv_shape(tmp_path, monkeypatch):
    import gridprep.cli as cli_mod
    from gridprep.report import EvaluationReport

    rep = EvaluationReport(plan_label="p", scenario_id=4, restored_energy_kwh=1.0,
                           avg_outage_hours=0.0, served_fraction=[1.0, np.float64(0.5)],
                           fuel_cost=1.0, switching_cost=0.0, shed_cost=2.0)
    monkeypatch.setattr(cli_mod, "evaluate_plan", lambda *args, **kw: rep)
    common = ["--network", str(feeder13_path()), "--out", str(tmp_path)]
    config = ["--config", str(config13_path())]
    assert cli_main(["generate-scenarios", *common, "--wind", str(wind13_path()),
                     "--count", "1"]) == 0
    assert cli_main(["base-plan", *common, *config]) == 0
    assert cli_main(["evaluate", *common, *config, "--scenarios", str(tmp_path / "scenarios.json"),
                     "--plan", str(tmp_path / "base_plan.json")]) == 0
    lines = (tmp_path / "served_fraction.csv").read_text().strip().split("\n")
    assert lines[1] == "p,4,0,1.0"
    assert lines[2] == "p,4,1,0.5"  # a NumPy float is written as a float
    assert rep.total_cost == pytest.approx(3.0)


def readme_synopsis():
    """(subcommand, synopsis line) for each ``gridprep`` line of the README's
    command-line synopsis, continuation lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    synopsis = section.split("```", 2)[1].replace("\\\n", " ")
    return [(line.split()[1], line) for line in synopsis.splitlines() if line.startswith("gridprep ")]


def subcommand_parsers():
    return {action.dest: action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)}["command"].choices


def test_readme_synopsis_names_only_real_flags():
    """Each ``--flag`` in the README's command-line synopsis exists on its
    subcommand's parser, so a removed option cannot linger in the docs."""
    commands = subcommand_parsers()
    named = [(command, flag) for command, line in readme_synopsis()
             for flag in re.findall(r"--[a-z][a-z-]*", line)]
    assert {command for command, _ in named} == set(commands)
    unknown = [f"{command} {flag}" for command, flag in named
               if flag not in commands[command]._option_string_actions]
    assert not unknown, "README synopsis names flags the parser lacks: " + ", ".join(unknown)


def test_readme_synopsis_shows_the_parser_defaults():
    """An optional ``[--flag VALUE]`` in the README synopsis shows the value
    the flag takes when left out; a placeholder such as ``[--flag FILE]``
    stands only for a flag without a default."""
    commands = subcommand_parsers()
    wrong = []
    for command, line in readme_synopsis():
        for flag, shown in re.findall(r"\[(--[a-z][a-z-]*) ([^\]\s]+)\]", line):
            action = commands[command]._option_string_actions[flag]
            placeholder = shown[0].isupper()
            value = None if placeholder else (action.type or str)(shown)
            if value != action.default:
                wrong.append(f"{command} [{flag} {shown}] (default {action.default!r})")
    assert not wrong, "README synopsis shows values the parser does not default to: " + \
        ", ".join(wrong)
