from dataclasses import replace

import numpy as np
import pytest

from gridprep.data import feeder13_path, wind13_path
from gridprep.formulation import FirstStagePlan, build_subproblem
from gridprep.hedging import (
    PhConfig,
    PhResult,
    PhState,
    aggregate,
    convergence_metric,
    evaluate_plan_cost,
    ph_solve,
    repair_consensus,
)
from gridprep.milp import OPTIMAL, MilpSolution, solve_milp
from gridprep.scenarios import DamageScenario, ScenarioSet

from .conftest import usable_cores


def damage(lines_periods, horizon, sid=0, prob=1.0):
    return DamageScenario(id=sid, probability=prob,
                          damaged_lines=frozenset(lines_periods),
                          repair_periods=dict(lines_periods),
                          irradiance=(500.0,) * horizon)


class TestAggregation:
    def test_identical_vectors_pass_through(self):
        x = [[1.0, 0.0, 2.0]] * 3
        assert aggregate(x, [0.2, 0.3, 0.5]).tolist() == [1.0, 0.0, 2.0]

    def test_two_equiprobable_scenarios(self):
        assert aggregate([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]).tolist() == [0.5, 0.5]

    def test_unequal_probabilities(self):
        assert aggregate([[1.0], [0.0]], [0.9, 0.1]).tolist() == [pytest.approx(0.9)]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([[1.0], [0.0, 1.0]], [0.5, 0.5])

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            aggregate([[1.0], [0.0]], [0.5, 0.4])


class TestConvergenceMetric:
    def test_consensus_reads_zero(self):
        x = [[1.0, 2.0]] * 4
        xbar = [1.0, 2.0]
        assert convergence_metric(x, xbar, [0.25] * 4) == 0.0

    def test_two_scenario_example(self):
        x = [[1.0, 0.0], [0.0, 1.0]]
        xbar = aggregate(x, [0.5, 0.5])
        assert convergence_metric(x, xbar, [0.5, 0.5]) == pytest.approx(1.0)

    def test_single_scenario_always_zero(self):
        x = [[3.0, 1.0, 4.0]]
        xbar = aggregate(x, [1.0])
        assert convergence_metric(x, xbar, [1.0]) == 0.0


class TestPhSolve:
    def test_single_scenario_is_deterministic_optimum(self, chain3, chain3_config):
        scen = damage({"l23": 2}, 3)
        scen_set = ScenarioSet(scenarios=(scen,), seed=0)
        result = ph_solve(chain3, scen_set, chain3_config, PhConfig())
        assert result.converged
        assert result.iterations == 0
        assert result.metric_history == [0.0]
        direct = solve_milp(build_subproblem(chain3, scen, chain3_config).problem, gap_tol=1e-6)
        assert result.ef_cost == pytest.approx(direct.objective, abs=1e-6)

    def test_identical_scenarios_converge_immediately(self, chain3, chain3_config):
        scens = tuple(damage({"l23": 2}, 3, sid=i, prob=0.25) for i in range(4))
        scen_set = ScenarioSet(scenarios=scens, seed=0)
        result = ph_solve(chain3, scen_set, chain3_config, PhConfig())
        assert result.converged
        assert result.iterations == 0

    def test_fixture_converges_and_matches_ef(self, feeder13, config13, ph_cold, ef_optimum):
        result = ph_cold
        assert result.converged
        assert result.iterations == 8
        assert result.ef_cost == pytest.approx(1059.2660412564237, rel=1e-9)
        assert result.metric_history[-1] <= 0.01
        _, ef, _ = ef_optimum
        assert result.ef_cost >= ef.objective - 1e-6  # the plan is EF-feasible
        assert result.ef_cost <= ef.objective * 1.01
        assert result.plan.violations(feeder13, config13) == []

    def test_state_invariants_hold(self, training_scenarios, ph_cold):
        result = ph_cold
        state = result.state
        probs = [s.probability for s in training_scenarios.scenarios]
        xbar = aggregate(state.x_s, probs)
        assert all(a == pytest.approx(b, abs=1e-9) for a, b in zip(xbar, state.x_bar))
        for j in range(len(state.x_bar)):
            drift = sum(p * state.eta_s[si][j] for si, p in enumerate(probs))
            assert abs(drift) <= 1e-9
        g = convergence_metric(state.x_s, state.x_bar, probs)
        assert g == pytest.approx(state.metric_history[-1], abs=1e-12)

    def test_determinism(self, feeder13, config13, training_scenarios, loops13, ph_cold):
        again = ph_solve(feeder13, training_scenarios, config13,
                         PhConfig(epsilon=0.01, max_iterations=100), loops=loops13)
        assert again.plan == ph_cold.plan
        assert again.metric_history == ph_cold.metric_history
        assert again.ef_cost == ph_cold.ef_cost

    @pytest.fixture(scope="class")
    def ph_serial(self, feeder13, config13, training_scenarios, loops13):
        with usable_cores(1):
            return ph_solve(feeder13, training_scenarios, config13,
                            PhConfig(epsilon=0.01, max_iterations=100), loops=loops13)

    @pytest.mark.parametrize("cores", [None, 3])
    def test_worker_count_does_not_change_results(self, feeder13, config13, training_scenarios,
                                                  loops13, ph_cold, ph_serial, cores):
        # ph_cold runs on this host's usable cores
        if cores is None:
            threaded = ph_cold
        else:
            with usable_cores(cores):
                threaded = ph_solve(feeder13, training_scenarios, config13,
                                    PhConfig(epsilon=0.01, max_iterations=100), loops=loops13)
        assert threaded.plan == ph_serial.plan
        assert threaded.metric_history == ph_serial.metric_history
        assert threaded.ef_cost == ph_serial.ef_cost
        assert threaded.scenario_objectives == ph_serial.scenario_objectives
        assert threaded.state.to_document() == ph_serial.state.to_document()

    def test_each_scenario_compiles_once(self, chain3, chain3_config, monkeypatch):
        import gridprep.hedging as hedging

        builds = []

        def counting(model, scen, config, **kwargs):
            builds.append(scen.id)
            return build_subproblem(model, scen, config, **kwargs)

        # the hedging loop and the pricing of the consensus share one compile per scenario
        monkeypatch.setattr(hedging, "build_subproblem", counting)
        scens = (damage({"l23": 2}, 3, sid=0, prob=0.5), damage({"l12": 3}, 3, sid=1, prob=0.5))
        with usable_cores(1):
            result = ph_solve(chain3, ScenarioSet(scenarios=scens, seed=0), chain3_config,
                              PhConfig())
        assert result.iterations >= 1
        assert builds == [0, 1]

    def test_stagnant_g_bumps_rho_up_to_its_cap(self, chain3, chain3_config, monkeypatch):
        """Every iteration solve returns its scenario's fixed point, so g never
        moves: rho grows by 1.5 after each 5 stagnant iterations and stops at
        10 times its start.  Each multiplier update adds rho * (x_s - x_bar),
        so the steps of a scenario's multipliers read rho off."""
        import gridprep.hedging as hedging

        scens = (damage({"l23": 2}, 3, sid=0, prob=0.5), damage({"l12": 3}, 3, sid=1, prob=0.5))
        ids = build_subproblem(chain3, scens[0], chain3_config).first.ids
        real_price, real_solve = hedging.build_ph_subproblem, hedging.solve_milp
        priced, seen = {}, []

        def price(plain, multipliers, anchor, rho, tie_break=0.0):
            comp = real_price(plain, multipliers, anchor, rho, tie_break)
            sid = comp.scenario_ids[0]
            priced[id(comp.problem)] = (sid, comp.problem)  # held, so no id is reused
            if sid == 0:
                seen.append(np.array(multipliers, dtype=float))
            return comp

        def solve(problem, **kwargs):
            if id(problem) not in priced:  # the consensus repair and the plan's pricing
                return real_solve(problem, **kwargs)
            sid, _ = priced[id(problem)]
            point = np.zeros(problem.num_variables)
            point[ids] = 1.0 - sid
            return MilpSolution(status=OPTIMAL, values=point, objective=0.0)

        monkeypatch.setattr(hedging, "build_ph_subproblem", price)
        monkeypatch.setattr(hedging, "solve_milp", solve)
        start = 2.0
        with usable_cores(1):
            result = ph_solve(chain3, ScenarioSet(scenarios=scens, seed=0), chain3_config,
                              PhConfig(rho=start, max_iterations=40))
        assert not result.converged
        assert len(set(result.metric_history)) == 1
        state = result.state
        etas = np.array([*seen, np.asarray(state.eta_s[0], dtype=float)])
        deviation = np.asarray(state.x_s[0], dtype=float) - np.asarray(state.x_bar, dtype=float)
        assert np.all(deviation == 0.5)
        steps = np.diff(etas, axis=0) / deviation
        assert np.all(steps == steps[:, :1])
        grown = [start * 1.5 ** k for k in range(6)]
        expected = [start] * 6 + [r for r in grown[1:] for _ in range(5)] + [10 * start] * 10
        assert steps[:, 0].tolist() == pytest.approx(expected, rel=1e-12)

    def test_thrifty_plan_is_priced(self, chain3, chain3_config):
        """A plan that holds back units and crews costs what it does under a
        budget it meets exactly."""
        scens = (damage({"l23": 2}, 3, sid=0, prob=0.5), damage({"l12": 1}, 3, sid=1, prob=0.5))
        thrifty = FirstStagePlan(meg_at={}, mes_at={"b3": 1}, fuel_lots={"b1": 2}, crews={"r1": 1})
        plain = [build_subproblem(chain3, scen, chain3_config) for scen in scens]
        cost, objs = evaluate_plan_cost(ScenarioSet(scenarios=scens, seed=0), plain, thrifty)
        exact = replace(chain3_config, n_meg=0, n_crew=1)
        assert thrifty.violations(chain3, exact) == []
        for scen, obj in zip(scens, objs):
            ref = build_subproblem(chain3, scen, exact)
            pinned = ref.problem.copy()
            values = ref.first.vector(thrifty)
            pinned.set_bounds(ref.first.ids, values, values)
            assert obj == pytest.approx(solve_milp(pinned.seal(), gap_tol=1e-6).objective, abs=1e-6)
        assert cost == pytest.approx(0.5 * sum(objs))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PhConfig(rho=0.0)

    def test_empty_scenario_set_rejected(self):
        # an empty set cannot even be constructed: probabilities must sum to 1
        with pytest.raises(ValueError):
            ScenarioSet(scenarios=(), seed=0)


class TestSoftStart:
    def test_consensus_plan_is_sticky(self, feeder13, config13, training_scenarios,
                                      loops13, ph_cold):
        warm = ph_solve(feeder13, training_scenarios, config13,
                        PhConfig(epsilon=0.01, max_iterations=100, prior_plan=ph_cold.plan),
                        loops=loops13)
        assert warm.converged
        assert warm.iterations == 0
        assert warm.plan == ph_cold.plan
        assert warm.ef_cost == ph_cold.ef_cost


class TestConsensusRepair:
    def test_votes_already_feasible_pass_through(self, feeder13, config13):
        votes = {
            "meg": {"f4": 1.0, "l8": 1.0, "f0": 0.0, "f2": 0.0},
            "mes": {"f2": 1.0, "f0": 0.0, "f4": 0.0, "l8": 0.0},
            "lots": {"f1": 3.0, "f3": 1.0, "f0": 0.0, "f2": 0.0, "f4": 1.0, "l8": 1.0},
            "crew": {"r1": 4.0, "r2": 1.0, "r3": 1.0},
        }
        plan = repair_consensus(feeder13, config13, votes)
        assert plan.violations(feeder13, config13) == []
        assert sorted(b for b, v in plan.meg_at.items() if v) == ["f4", "l8"]
        assert plan.crews == {"r1": 4, "r2": 1, "r3": 1}

    def test_overfull_votes_are_projected(self, feeder13, config13):
        votes = {
            "meg": {"f0": 0.9, "f2": 0.8, "f4": 0.7, "l8": 0.6},  # wants 4, budget 2
            "mes": {"f0": 0.6, "f2": 0.55, "f4": 0.0, "l8": 0.0},
            "lots": {"f1": 9.0, "f3": 9.0, "f0": 6.0, "f2": 6.0, "f4": 6.0, "l8": 6.0},
            "crew": {"r1": 4.0, "r2": 4.0, "r3": 4.0},  # wants 12, budget 6
        }
        plan = repair_consensus(feeder13, config13, votes)
        assert plan.violations(feeder13, config13) == []
        assert sum(plan.meg_at.values()) == config13.n_meg
        assert sum(plan.crews.values()) == config13.n_crew

    def test_fractional_votes_round_to_integers(self, feeder13, config13):
        votes = {
            "meg": {"f0": 0.5, "f2": 0.5, "f4": 0.5, "l8": 0.5},
            "mes": {"f0": 0.25, "f2": 0.25, "f4": 0.25, "l8": 0.25},
            "lots": {"f1": 2.5, "f3": 0.4, "f0": 0.0, "f2": 0.0, "f4": 0.6, "l8": 0.5},
            "crew": {"r1": 2.0, "r2": 2.0, "r3": 2.0},
        }
        plan = repair_consensus(feeder13, config13, votes)
        assert plan.violations(feeder13, config13) == []

    def test_solver_error_is_not_reported_as_infeasible(self, feeder13, config13):
        # what ph_solve hands the repair with max_iterations=1 on the 8-storm
        # seed-11 sample; HiGHS's presolve stops on this 26-column MILP with
        # status 4, "Solve error", and the retry without it finds the plan
        votes = {
            "meg": {"f0": 1.0, "f2": 0.375, "f4": 0.5, "l8": 0.125},
            "mes": {"f2": 0.625, "f4": 0.375},
            "lots": {"f0": 3.125, "f1": 1.5, "f2": 0.625, "f3": 0.25, "f4": 0.5, "l8": 0.125},
            "crew": {"r1": 4.0, "r2": 1.0, "r3": 1.0},
        }
        plan = repair_consensus(feeder13, config13, votes)
        assert plan.violations(feeder13, config13) == []
        assert plan.crews == {"r1": 4, "r2": 1, "r3": 1}


class TestArtifacts:
    def test_iteration_log_format(self, tmp_path, monkeypatch):
        import gridprep.cli as cli_mod

        state = PhState(iteration=1, x_s=np.zeros((1, 0)), x_bar=np.zeros(0),
                        eta_s=np.zeros((1, 0)), metric_history=[2.5, 0.0])
        result = PhResult(plan=FirstStagePlan({}, {}, {}, {}), converged=True, iterations=1,
                          scenario_objectives=[99.5], ef_cost=99.5, metric_history=[2.5, 0.0],
                          log_rows=[(0, 2.5, 0.1, 100.0), (1, np.float64(0.0), 0.2, 99.5)],
                          state=state)
        monkeypatch.setattr(cli_mod, "ph_solve", lambda *args: result)
        network = ["--network", str(feeder13_path()), "--out", str(tmp_path)]
        assert cli_mod.main(["generate-scenarios", *network, "--wind", str(wind13_path()),
                             "--count", "1"]) == 0
        assert cli_mod.main(["solve-ph", *network, "--scenarios",
                             str(tmp_path / "scenarios.json")]) == 0
        lines = (tmp_path / "ph_log.csv").read_text().strip().split("\n")
        assert lines[0] == "iter,g,elapsed_s,mean_subproblem_obj"
        assert lines[1].startswith("0,2.5,")
        assert lines[2] == "1,0.0,0.2,99.5"  # a NumPy float is written as a float
        assert len(lines) == 3
