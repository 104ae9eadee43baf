import itertools
import json
import math
import threading

import pytest
from scipy.stats import t as tdist

from gridprep.data import config13_path, feeder13_path, wind13_path
from gridprep.formulation import FirstStagePlan, FormulationConfig, build_extensive_form, plan_from_solution
from gridprep.milp import solve_milp
from gridprep.mrp import MrpConfig, MrpError, MrpResult, mrp_validate, replicate_gap
from gridprep.network import network_from_document
from gridprep.scenarios import DamageScenario, ScenarioSet

from .conftest import usable_cores


def fixed_sampler(scenario):
    """Degenerate sampler: every draw returns n copies of one scenario."""

    def sampler(n, seed):
        scens = tuple(
            DamageScenario(id=i, probability=1.0 / n,
                           damaged_lines=scenario.damaged_lines,
                           repair_periods=dict(scenario.repair_periods),
                           irradiance=scenario.irradiance)
            for i in range(n)
        )
        return ScenarioSet(scenarios=scens, seed=seed)

    return sampler


def chain_scenario():
    return DamageScenario(id=0, probability=1.0, damaged_lines=frozenset({"l23"}),
                          repair_periods={"l23": 2}, irradiance=(500.0,) * 3)


class TestReplicateGap:
    def test_candidate_equal_to_sample_optimum_gives_zero(self, chain3, chain3_config):
        scen = chain_scenario()
        sampler = fixed_sampler(scen)
        ef = build_extensive_form(chain3, sampler(2, 0), chain3_config)
        sol = solve_milp(ef.problem, gap_tol=0.0)
        candidate = plan_from_solution(ef.index, sol)
        gap, cost, tainted = replicate_gap(candidate, chain3, chain3_config, sampler,
                                           n=2, seed=0)
        assert not tainted
        assert gap == pytest.approx(0.0, abs=1e-6)
        assert cost == pytest.approx(sol.objective, abs=1e-6)

    def test_two_bus_instance_gap_is_ten(self):
        """Candidate costs $40, the sample optimum $30; both priced by the
        same kernel, so the replication gap comes out exactly 10."""
        doc = {
            "base": {"kva": 100.0, "kv": 4.16}, "horizon": 1, "dt_hours": 1.0,
            "buses": [
                {"id": "a", "phases": "a", "demand_p": {"a": [0.0]}, "shed_cost": 0.0},
                {"id": "b", "phases": "a", "demand_p": {"a": [10.0]},
                 "demand_q": {"a": [0.0]}, "shed_cost": 4.0},
            ],
            "lines": [{"id": "ab", "from_bus": "a", "to_bus": "b", "phases": "a",
                       "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                       "x_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
                       "p_max": 50.0, "q_max": 50.0}],
            "switches": [],
            "regions": [{"id": "r", "depot_bus": "a", "lines": ["ab"],
                         "crew_min": 0, "crew_max": 1}],
            "generators": [],
            "pv": [], "ess": [],
            "candidate_buses": ["a", "b"],
            "meg": {"p_max": 20.0, "q_max": 20.0, "fuel_present": 0.0, "fuel_cap": 100.0},
            "mes": None,
        }
        model = network_from_document({k: v for k, v in doc.items() if v is not None})
        config = FormulationConfig(n_meg=1, n_mes=0, n_fuel=100.0, n_crew=0,
                                   fuel_cost=10.0, fuel_rate=0.3, fuel_quantum=100.0)
        # the line stays down for the whole horizon: a MEG at 'a' is stranded
        scen = DamageScenario(id=0, probability=1.0, damaged_lines=frozenset({"ab"}),
                              repair_periods={"ab": 5}, irradiance=(0.0,))
        sampler = fixed_sampler(scen)
        candidate = FirstStagePlan(meg_at={"a": 1, "b": 0}, mes_at={},
                                   fuel_lots={"a": 1, "b": 0}, crews={"r": 0})
        gap, cost, tainted = replicate_gap(candidate, model, config, sampler, n=1, seed=0)
        assert not tainted
        assert cost == pytest.approx(40.0)  # 10 kW shed at 4 $/kWh
        assert gap == pytest.approx(10.0)  # optimum serves it: 3 L at 10 $/L

    def test_infeasible_candidate_rejected(self, chain3, chain3_config):
        bad = FirstStagePlan(meg_at={"b2": 1, "b3": 1}, mes_at={},
                             fuel_lots={}, crews={"r1": 0})
        with pytest.raises(MrpError, match="infeasible"):
            replicate_gap(bad, chain3, chain3_config, fixed_sampler(chain_scenario()),
                          n=2, seed=0)

    def test_node_limited_solve_taints(self, chain3, chain3_config, monkeypatch):
        import gridprep.mrp as mrp_mod

        real = mrp_mod.solve_milp

        def flaky(problem, gap_tol=0.0, **kw):
            sol = real(problem, gap_tol=gap_tol, **kw)
            sol.status = "iteration_limit"
            return sol

        monkeypatch.setattr(mrp_mod, "solve_milp", flaky)
        gap, cost, tainted = replicate_gap(
            FirstStagePlan(meg_at={"b2": 1}, mes_at={"b3": 1},
                           fuel_lots={"b1": 2}, crews={"r1": 2}),
            chain3, chain3_config, fixed_sampler(chain_scenario()), n=2, seed=0)
        assert tainted


    def test_node_limited_fixture_solve_taints(self, feeder13, config13, wind13, fragility13,
                                               loops13, monkeypatch):
        """A real solve stopped at its node limit taints the replication.

        HiGHS is held to one node and the wrapper only records each
        status, HiGHS's own.  Pricing the base plan on the second storm of
        sample 41 then ends at the limit.
        """
        import gridprep.milp.solve as solve_mod
        import gridprep.mrp as mrp_mod
        from gridprep.report import build_base_plan
        from gridprep.scenarios import generate_scenario_set

        real = mrp_mod.solve_milp
        statuses = []

        def recorded(problem, gap_tol=0.0):
            sol = real(problem, gap_tol=gap_tol)
            statuses.append(sol.status)
            return sol

        def sampler(n, seed):
            return generate_scenario_set(feeder13, wind13, fragility13, count=n, seed=seed)

        monkeypatch.setattr(solve_mod, "NODE_LIMIT", 1)
        monkeypatch.setattr(mrp_mod, "solve_milp", recorded)
        with usable_cores(1):
            gap, cost, tainted = replicate_gap(build_base_plan(feeder13, config13), feeder13,
                                               config13, sampler, n=2, seed=41, loops=loops13)
        assert tainted and math.isnan(gap) and math.isnan(cost)
        assert statuses == ["optimal", "optimal", "iteration_limit"]

class TestMrpValidate:
    def test_degenerate_sampler_gives_zero_interval(self, chain3, chain3_config):
        scen = chain_scenario()
        sampler = fixed_sampler(scen)
        ef = build_extensive_form(chain3, sampler(2, 0), chain3_config)
        candidate = plan_from_solution(ef.index, solve_milp(ef.problem, gap_tol=0.0))
        result = mrp_validate(candidate, chain3, chain3_config, sampler,
                              MrpConfig(alpha=0.05, n=2, n_g=3, base_seed=0))
        assert result.mean_gap == pytest.approx(0.0, abs=1e-6)
        assert result.sample_variance == pytest.approx(0.0, abs=1e-9)
        assert result.half_width == 0.0
        assert result.ci_upper == pytest.approx(0.0, abs=1e-6)

    def test_gap_statistics_arithmetic(self):
        # two replications with gaps {0, 2}: mean 1, sample variance 2
        gaps = [0.0, 2.0]
        mean = sum(gaps) / 2
        var = sum((g - mean) ** 2 for g in gaps) / (2 - 1)
        assert mean == 1.0
        assert var == 2.0
        half = float(tdist.ppf(0.95, 1)) * math.sqrt(var) / math.sqrt(2)
        result = MrpResult(alpha=0.05, n=2, n_g=2, gaps=gaps, tainted=0,
                           mean_gap=mean, sample_variance=var, half_width=half,
                           ci_upper=mean + half, candidate_mean_cost=50.0)
        assert result.ci_upper == pytest.approx(1.0 + half)
        assert result.ci_upper_pct == pytest.approx(100.0 * (1.0 + half) / 50.0)

    def test_mean_gap_adds_in_replication_order(self, chain3, chain3_config, monkeypatch):
        # left to right, 1e16 absorbs the 1.0; a compensated sum (builtin sum
        # from CPython 3.12 on) would keep it and report a mean of 1/3
        import gridprep.mrp as mrp_mod

        gaps = iter([1e16, 1.0, -1e16])
        monkeypatch.setattr(mrp_mod, "replicate_gap", lambda *a, **kw: (next(gaps), 50.0, False))
        candidate = FirstStagePlan(meg_at={"b2": 1}, mes_at={"b3": 1},
                                   fuel_lots={"b1": 2}, crews={"r1": 2})
        result = mrp_validate(candidate, chain3, chain3_config,
                              fixed_sampler(chain_scenario()), MrpConfig(n=2, n_g=3))
        assert result.gaps == [1e16, 1.0, -1e16]
        assert result.mean_gap == 0.0
        assert result.candidate_mean_cost == 50.0

    def test_t_quantile_shrinks_with_more_replications(self):
        q = [float(tdist.ppf(0.95, df)) for df in range(1, 12)]
        assert all(b < a for a, b in zip(q, q[1:]))

    def test_all_tainted_is_an_error(self, chain3, chain3_config, monkeypatch):
        import gridprep.mrp as mrp_mod

        real = mrp_mod.solve_milp

        def always_limit(problem, gap_tol=0.0, **kw):
            sol = real(problem, gap_tol=gap_tol, **kw)
            sol.status = "iteration_limit"
            return sol

        monkeypatch.setattr(mrp_mod, "solve_milp", always_limit)
        candidate = FirstStagePlan(meg_at={"b2": 1}, mes_at={"b3": 1},
                                   fuel_lots={"b1": 2}, crews={"r1": 2})
        with pytest.raises(MrpError, match="tainted"):
            mrp_validate(candidate, chain3, chain3_config,
                         fixed_sampler(chain_scenario()), MrpConfig(n=2, n_g=2))

    def test_single_untainted_replication_is_an_error(self, chain3, chain3_config,
                                                      monkeypatch):
        import gridprep.mrp as mrp_mod

        real = mrp_mod.replicate_gap
        calls = []

        def first_tainted(*args, **kw):
            calls.append(kw["seed"])
            if len(calls) == 1:
                return math.nan, math.nan, True
            return real(*args, **kw)

        monkeypatch.setattr(mrp_mod, "replicate_gap", first_tainted)
        candidate = FirstStagePlan(meg_at={"b2": 1}, mes_at={"b3": 1},
                                   fuel_lots={"b1": 2}, crews={"r1": 2})
        with pytest.raises(MrpError, match="two untainted"):
            mrp_validate(candidate, chain3, chain3_config,
                         fixed_sampler(chain_scenario()), MrpConfig(n=2, n_g=2))
        assert len(calls) == 2

    def test_result_document_schema(self, tmp_path, monkeypatch):
        import gridprep.cli as cli_mod

        result = MrpResult(alpha=0.05, n=3, n_g=4, gaps=[0.0, 1.0], tainted=2,
                           mean_gap=0.5, sample_variance=0.5, half_width=0.3,
                           ci_upper=0.8, candidate_mean_cost=10.0)
        monkeypatch.setattr(cli_mod, "mrp_validate", lambda *args: result)
        network = ["--network", str(feeder13_path()), "--config", str(config13_path()),
                   "--out", str(tmp_path)]
        assert cli_mod.main(["base-plan", *network]) == 0
        assert cli_mod.main(["validate-mrp", *network, "--wind", str(wind13_path()),
                             "--candidate", str(tmp_path / "base_plan.json")]) == 0
        doc = json.loads((tmp_path / "mrp.json").read_text())
        for key in ("alpha", "n", "n_g", "gaps", "mean_gap", "var", "half_width",
                    "ci_upper", "ci_upper_pct"):
            assert key in doc
        assert doc["ci_upper_pct"] == pytest.approx(8.0)

    @pytest.fixture(scope="class")
    def fixture_runs(self, feeder13, config13, ph_cold, wind13, fragility13, loops13):
        """mrp_validate of the cold hedging plan on the fixture, one run per usable
        core count (None: this host's)."""
        from gridprep.scenarios import generate_scenario_set

        def sampler(n, seed):
            return generate_scenario_set(feeder13, wind13, fragility13, count=n, seed=seed)

        runs = {}

        def run(cores):
            if cores not in runs:
                with usable_cores(cores):
                    runs[cores] = mrp_validate(
                        ph_cold.plan, feeder13, config13, sampler,
                        MrpConfig(alpha=0.05, n=2, n_g=3, base_seed=41), loops=loops13)
            return runs[cores]

        return run

    def test_replication_gaps_nonnegative_on_fixture(self, fixture_runs):
        result = fixture_runs(None)
        assert all(g >= -1e-6 for g in result.gaps)
        assert result.ci_upper >= result.mean_gap

    @pytest.mark.parametrize("cores", [1, None, 3])
    def test_worker_count_does_not_change_results(self, fixture_runs, cores):
        serial, result = fixture_runs(1), fixture_runs(cores)
        assert result.gaps == serial.gaps
        assert result.tainted == serial.tainted == 0
        assert result.candidate_mean_cost == serial.candidate_mean_cost
        assert result.to_document() == serial.to_document()

    def test_solves_stay_inside_their_replication(self, chain3, chain3_config, monkeypatch):
        """The sample problem is solved on the calling thread, the pricing on
        the pool, and every solve of a replication ends before the sampler is
        called for the next."""
        import gridprep.mrp as mrp_mod

        real = mrp_mod.solve_milp
        clock = itertools.count()
        samples, solves = [], []
        caller = threading.get_ident()

        def sampler(n, seed):
            samples.append((seed, next(clock)))
            base = chain_scenario()
            # scenario ids name the replication in the pricing problems' names
            return ScenarioSet(scenarios=tuple(
                DamageScenario(id=100 * seed + i, probability=1.0 / n,
                               damaged_lines=base.damaged_lines,
                               repair_periods=dict(base.repair_periods),
                               irradiance=base.irradiance)
                for i in range(n)), seed=seed)

        def recorded(problem, **kw):
            start = next(clock)
            sol = real(problem, **kw)
            solves.append((problem.name, threading.get_ident(), start, next(clock)))
            return sol

        monkeypatch.setattr(mrp_mod, "solve_milp", recorded)
        candidate = FirstStagePlan(meg_at={"b2": 1}, mes_at={"b3": 1},
                                   fuel_lots={"b1": 2}, crews={"r1": 2})
        with usable_cores(3):
            mrp_validate(candidate, chain3, chain3_config, sampler,
                         MrpConfig(n=3, n_g=3, base_seed=5))

        assert [seed for seed, _ in samples] == [5, 6, 7]
        sampled_at = dict(samples)
        assert len(solves) == 3 * (1 + 3)
        ef = [s for s in solves if s[0] == "extensive_form"]
        assert len(ef) == 3 and all(thread == caller for _, thread, _, _ in ef)
        pricing = [s for s in solves if s[0] != "extensive_form"]
        assert any(thread != caller for _, thread, _, _ in pricing)
        for name, _, start, end in pricing:
            seed = int(name.removeprefix("scenario_")) // 100
            assert sampled_at[seed] < start
            if seed + 1 in sampled_at:
                assert end < sampled_at[seed + 1]
        for k, (_, _, start, end) in enumerate(ef):
            assert samples[k][1] < start
            if k + 1 < len(samples):
                assert end < samples[k + 1][1]

    def test_cli_default_workers_write_the_serial_document(self, tmp_path):
        from gridprep.cli import main as cli_main
        from gridprep.data import config13_path, feeder13_path, fragility13_path, wind13_path

        common = ["--network", str(feeder13_path()), "--config", str(config13_path())]
        assert cli_main(["base-plan", *common, "--out", str(tmp_path / "base")]) == 0
        docs = []
        for tag, cores in (("default", None), ("serial", 1)):
            with usable_cores(cores):
                assert cli_main(["validate-mrp", *common,
                                 "--candidate", str(tmp_path / "base" / "base_plan.json"),
                                 "--wind", str(wind13_path()),
                                 "--fragility", str(fragility13_path()),
                                 "--n", "2", "--ng", "2", "--seed", "5",
                                 "--out", str(tmp_path / tag)]) == 0
            docs.append((tmp_path / tag / "mrp.json").read_bytes())
        assert docs[0] == docs[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MrpConfig(alpha=0.0)
        with pytest.raises(ValueError):
            MrpConfig(n=1)
        with pytest.raises(ValueError):
            MrpConfig(n_g=1)
