import contextlib
import json

import pytest

from gridprep import parallel
from gridprep.data import config13_path, feeder13_path, fragility13_path, wind13_path
from gridprep.formulation import FormulationConfig, config_from_document
from gridprep.network import enumerate_loops, load_network, network_from_document
from gridprep.scenarios import (
    fragility_from_document,
    generate_scenario_set,
    load_wind_csv,
)


@contextlib.contextmanager
def usable_cores(count):
    """Run gridprep's parallel maps as on a host with ``count`` usable cores
    (None: this host's own count)."""
    with pytest.MonkeyPatch.context() as patch:
        if count is not None:
            patch.setattr(parallel, "_usable_cores", lambda: count)
        yield


@pytest.fixture(scope="session")
def feeder13():
    return load_network(feeder13_path().read_text())


@pytest.fixture(scope="session")
def wind13():
    return load_wind_csv(wind13_path().read_text())


@pytest.fixture(scope="session")
def fragility13():
    return fragility_from_document(json.loads(fragility13_path().read_text()))


@pytest.fixture(scope="session")
def config13():
    return config_from_document(json.loads(config13_path().read_text()))


@pytest.fixture(scope="session")
def loops13(feeder13):
    return enumerate_loops(feeder13)


@pytest.fixture(scope="session")
def training_scenarios(feeder13, wind13, fragility13):
    """The 4-scenario training set used throughout (seed 11)."""
    return generate_scenario_set(feeder13, wind13, fragility13, count=4, seed=11)


@pytest.fixture(scope="session")
def heldout_scenarios(feeder13, wind13, fragility13):
    """8 held-out evaluation scenarios (seed 99)."""
    return generate_scenario_set(feeder13, wind13, fragility13, count=8, seed=99)


def small_network_doc(horizon=3, damageable=True):
    """A 3-bus single-phase chain used by unit tests."""
    shape = [1.0] * horizon
    return {
        "base": {"kva": 100.0, "kv": 4.16},
        "horizon": horizon,
        "dt_hours": 1.0,
        "voltage_limits": {"u_min": 0.81, "u_max": 1.21},
        "buses": [
            {"id": "b1", "phases": "a", "demand_p": {"a": [20.0 * s for s in shape]},
             "demand_q": {"a": [8.0 * s for s in shape]}, "shed_cost": 14.0},
            {"id": "b2", "phases": "a", "demand_p": {"a": [30.0 * s for s in shape]},
             "demand_q": {"a": [12.0 * s for s in shape]}, "shed_cost": 14.0},
            {"id": "b3", "phases": "a", "demand_p": {"a": [10.0 * s for s in shape]},
             "demand_q": {"a": [4.0 * s for s in shape]}, "shed_cost": 20.0},
        ],
        "lines": [
            {"id": "l12", "from_bus": "b1", "to_bus": "b2", "phases": "a",
             "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
             "x_matrix": [[0.02, 0, 0], [0, 0, 0], [0, 0, 0]],
             "p_max": 200.0, "q_max": 150.0,
             "poles": 3 if damageable else 0, "spans": 3 if damageable else 0},
            {"id": "l23", "from_bus": "b2", "to_bus": "b3", "phases": "a",
             "r_matrix": [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]],
             "x_matrix": [[0.02, 0, 0], [0, 0, 0], [0, 0, 0]],
             "p_max": 200.0, "q_max": 150.0,
             "poles": 3 if damageable else 0, "spans": 3 if damageable else 0},
        ],
        "switches": [],
        "regions": [{"id": "r1", "depot_bus": "b1", "lines": ["l12", "l23"],
                     "crew_min": 0, "crew_max": 4}],
        "generators": [{"bus": "b1", "p_max": 100.0, "q_max": 80.0,
                        "fuel_present": 0.0, "fuel_cap": 500.0}],
        "pv": [],
        "ess": [],
        "candidate_buses": ["b2", "b3"],
        "meg": {"p_max": 50.0, "q_max": 40.0, "fuel_present": 0.0, "fuel_cap": 300.0},
        "mes": {"e_cap": 100.0, "soc_min": 0.1, "soc_max": 0.95, "soc_init": 0.9,
                "p_ch_max": 30.0, "p_dis_max": 30.0, "q_max": 20.0},
    }


@pytest.fixture(scope="session")
def ph_cold(feeder13, config13, training_scenarios, loops13):
    """One shared cold hedging run on the bundled fixture."""
    from gridprep.hedging import PhConfig, ph_solve

    return ph_solve(feeder13, training_scenarios, config13,
                    PhConfig(epsilon=0.01, max_iterations=100), loops=loops13)


@pytest.fixture(scope="session")
def ef_optimum(feeder13, config13, training_scenarios, loops13):
    """One shared extensive-form solve on the bundled fixture."""
    from gridprep.formulation import build_extensive_form, plan_from_solution
    from gridprep.milp import solve_milp

    compiled = build_extensive_form(feeder13, training_scenarios, config13, loops=loops13)
    solution = solve_milp(compiled.problem, gap_tol=1e-4)
    assert solution.ok
    return compiled, solution, plan_from_solution(compiled.index, solution)


@pytest.fixture()
def chain3():
    return network_from_document(small_network_doc())


@pytest.fixture()
def chain3_config():
    return FormulationConfig(n_meg=1, n_mes=1, n_fuel=500.0, n_crew=2)
