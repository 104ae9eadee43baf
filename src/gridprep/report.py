"""Plan evaluation metrics, the heuristic base plan, and the PV sweep.

The base plan mimics common utility practice: generators at substations
first and then at the costliest loads, no mobile storage, tanks sized for a
day of full output, crews split evenly.  It is the comparison point for the
optimized plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .formulation import (
    FirstStagePlan,
    FormulationConfig,
    SecondStageSchedule,
    build_extensive_form,
    build_subproblem,
    check_first_stage_config,
    extract_schedule,
    fuel_site_bounds,
    pin_plan,
    scenario_cost,
)
from .milp import solve_milp
from .network import PHASES, LoopSet, NetworkModel, PvSpec
from .parallel import map_in_order, ordered_sum
from .scenarios import DamageScenario, ScenarioSet

PV_SWEEP_RATINGS = {
    # (p_rate kW, s_inverter kVA): residential, mid-size, utility-scale
    "residential": (6.0, 7.0),
    "midsize": (48.0, 55.0),
    "utility": (200.0, 220.0),
}

#: penetration percent -> (residential, midsize, utility) unit counts,
#: nested level over level so higher penetration strictly adds units
PV_SWEEP_COUNTS = {
    0: (0, 0, 0),
    9: (1, 1, 1),
    27: (3, 1, 1),
    45: (5, 1, 1),
    63: (8, 2, 1),
    81: (9, 2, 2),
    99: (11, 2, 2),
}


class EvaluationError(RuntimeError):
    pass


class InsufficientResourcesError(ValueError):
    pass


@dataclass
class EvaluationReport:
    plan_label: str
    scenario_id: int
    restored_energy_kwh: float
    avg_outage_hours: float
    served_fraction: list[float]  # per period
    fuel_cost: float
    switching_cost: float
    shed_cost: float

    @property
    def total_cost(self) -> float:
        return self.fuel_cost + self.switching_cost + self.shed_cost

    def to_document(self) -> dict:
        return {
            "plan": self.plan_label,
            "scenario": self.scenario_id,
            "restored_energy_kwh": self.restored_energy_kwh,
            "avg_outage_hours": self.avg_outage_hours,
            "served_fraction": self.served_fraction,
            "cost": {
                "fuel": self.fuel_cost,
                "switching": self.switching_cost,
                "shed": self.shed_cost,
                "total": self.total_cost,
            },
        }


def schedule_metrics(model: NetworkModel, schedule: SecondStageSchedule) -> tuple[float, float, list[float]]:
    """(restored energy kWh, average outage hours, per-period served fraction).

    A load counts as in outage during a period only when it has demand
    there; the average divides by the number of demand-bearing buses.
    """
    dt = model.dt_hours
    periods = range(model.horizon)
    # (bus, period) grids, so each period's totals add bus by bus; a bus's
    # demand adds its phases in order over a (bus, phase, period) grid that
    # holds 0.0 where it has no profile, as Bus.total_demand does
    grid = (len(model.buses), model.horizon)
    absent = (0.0,) * model.horizon
    by_phase = [[b.demand_p.get(ph, absent) for ph in PHASES] for b in model.buses]
    demand = ordered_sum(np.array(by_phase).reshape(grid[0], len(PHASES), grid[1]), axis=1)
    pickup = np.array([[schedule.pickup[(b.id, t)] for t in periods] for b in model.buses]).reshape(grid)
    total_d = ordered_sum(demand)
    served_d = ordered_sum(demand * pickup)
    restored = ordered_sum(served_d * dt)
    served_fraction = [s / d if d > 0 else 1.0 for s, d in zip(served_d.tolist(), total_d.tolist())]
    load_buses = int(np.count_nonzero((demand > 0).any(axis=1)))
    outage_sum = ordered_sum(np.full(np.count_nonzero((demand > 0) & (pickup < 0.5)), dt))
    avg_outage = outage_sum / load_buses if load_buses else 0.0
    return restored, avg_outage, served_fraction


def evaluate_plan(
    plan: FirstStagePlan,
    model: NetworkModel,
    scenario: DamageScenario,
    config: FormulationConfig,
    loops: LoopSet | None = None,
    plan_label: str = "plan",
) -> EvaluationReport:
    """Pin the plan, solve the scenario's operations, and score the outcome."""
    bad = plan.violations(model, config, strict_totals=False)
    if bad:
        raise EvaluationError(f"plan violates first-stage rules: {bad[0]}")
    compiled = build_subproblem(model, scenario, config, loops=loops)
    sol = solve_milp(pin_plan(compiled, plan), gap_tol=1e-6)
    if not sol.verdict(f"scenario {scenario.id} operations"):
        raise EvaluationError(f"scenario {scenario.id} operations infeasible under the pinned plan")
    schedule = extract_schedule(model, scenario, compiled.index, sol, scenario.id)
    restored, avg_outage, served = schedule_metrics(model, schedule)
    parts = scenario_cost(model, scenario, schedule, config)
    return EvaluationReport(
        plan_label=plan_label,
        scenario_id=scenario.id,
        restored_energy_kwh=restored,
        avg_outage_hours=avg_outage,
        served_fraction=served,
        fuel_cost=parts["fuel"],
        switching_cost=parts["switching"],
        shed_cost=parts["shed"],
    )


def build_base_plan(model: NetworkModel, config: FormulationConfig) -> FirstStagePlan:
    """Heuristic pre-event plan: substation generators, priority-load extras,
    a day of fuel per generator site, even crew split, no mobile storage;
    :func:`check_first_stage_config` first refuses a config the feeder cannot meet."""
    check_first_stage_config(model, config)
    candidates = sorted(model.candidate_buses)
    substations = [b.id for b in model.buses if b.substation and b.id in model.candidate_buses]
    missing = [b.id for b in model.buses if b.substation and b.id not in model.candidate_buses]
    if missing:
        raise InsufficientResourcesError(
            f"substation buses {missing} are not mobile-unit candidates"
        )
    if config.n_meg < len(substations):
        raise InsufficientResourcesError(
            f"{config.n_meg} MEGs cannot cover {len(substations)} substations"
        )
    ranked = sorted(
        (b for b in candidates if b not in substations and config.n_mu(b) >= 1),
        key=lambda b: (-model.bus(b).shed_cost, b),
    )
    meg_at = dict.fromkeys(substations + ranked[:config.n_meg - len(substations)], 1)
    if len(meg_at) < config.n_meg:
        raise InsufficientResourcesError("not enough candidate buses to place every MEG")

    sites = fuel_site_bounds(model, config)
    q = config.fuel_quantum
    lots = {b: lo for b, (lo, _) in sites.items()}
    budget_lots = int(math.floor(config.n_fuel / q + 1e-9)) - sum(lots.values())
    day_hours = 24.0
    for b in sorted(meg_at):
        phases = len(model.bus(b).phases)
        cap_kw = (model.meg_template.p_max if model.meg_template else 0.0) * phases
        need_lots = math.ceil(config.fuel_rate * cap_kw * day_hours / q - 1e-9)
        top_up = min(need_lots - lots[b], sites[b][1] - lots[b], budget_lots)
        if top_up > 0:
            lots[b] += top_up
            budget_lots -= top_up

    crews = {}
    if model.regions:
        n_r = len(model.regions)
        even = config.n_crew // n_r
        rem = config.n_crew - even * n_r
        ordered = sorted(model.regions, key=lambda r: r.id)
        for i, r in enumerate(ordered):
            # even split, remainder to the lowest region ids, clamped into bounds
            crews[r.id] = min(max(even + (1 if i < rem else 0), r.crew_min), r.crew_max)
        # the config check put n_crew inside the crew bounds, so this ends
        drift = config.n_crew - sum(crews.values())
        while drift != 0:
            for r in ordered:
                if drift > 0 and crews[r.id] < r.crew_max:
                    crews[r.id] += 1
                    drift -= 1
                elif drift < 0 and crews[r.id] > r.crew_min:
                    crews[r.id] -= 1
                    drift += 1
                if drift == 0:
                    break

    plan = FirstStagePlan(meg_at=meg_at, mes_at={}, fuel_lots=lots, crews=crews)
    bad = plan.violations(model, config, strict_totals=False)
    if bad:
        raise InsufficientResourcesError(f"base recipe produced an invalid plan: {bad[0]}")
    return plan


def pv_fleet_for_level(model: NetworkModel, percent: int) -> list[PvSpec]:
    """Added PV units for one penetration level; levels nest by construction."""
    if percent not in PV_SWEEP_COUNTS:
        raise ValueError(f"unknown penetration level {percent}; known: {sorted(PV_SWEEP_COUNTS)}")
    n_res, n_mid, n_util = PV_SWEEP_COUNTS[percent]
    loads = [b for b in model.buses
             if any(b.total_demand(t) > 0 for t in range(model.horizon))]
    if not loads:
        raise InsufficientResourcesError("model has no load buses to host PV")
    by_id = sorted(b.id for b in loads)
    # grid-forming units go where shedding hurts most: they can restore an
    # island on their own, so costly isolated loads benefit first
    by_shed = [b.id for b in sorted(loads, key=lambda b: (-b.shed_cost, b.id))]

    def take(count: int, pv_type: str, rating_key: str, order: list[str], offset: int) -> list[PvSpec]:
        p_rate, s_inv = PV_SWEEP_RATINGS[rating_key]
        return [
            PvSpec(bus=order[(offset + i) % len(order)], pv_type=pv_type,
                   p_rate=p_rate, s_inverter=s_inv)
            for i in range(count)
        ]

    fleet = take(n_res, "grid_following", "residential", by_id, 0)
    fleet += take(n_mid, "hybrid", "midsize", by_shed, 2)
    fleet += take(n_util, "grid_forming", "utility", by_shed, 1)
    return fleet


@dataclass
class SweepLevelResult:
    percent: int
    objective: float
    expected_served_kwh: float
    expected_outage_hours: float
    pv_units: int

    def to_document(self) -> dict:
        return {
            "percent": self.percent,
            "objective": self.objective,
            "expected_served_kwh": self.expected_served_kwh,
            "expected_outage_hours": self.expected_outage_hours,
            "pv_units": self.pv_units,
        }


def sweep_pv(
    model: NetworkModel,
    levels: Sequence[int],
    scen_set: ScenarioSet,
    config: FormulationConfig,
) -> list[SweepLevelResult]:
    """Re-solve the stochastic program per penetration level and score it.

    Levels are independent extensive forms, so they solve through
    :func:`~gridprep.parallel.map_in_order` and come back in level order.
    """

    def solve_level(percent: int) -> SweepLevelResult:
        fleet = tuple(pv_fleet_for_level(model, percent))
        level_model = replace(model, pv_units=model.pv_units + fleet)
        compiled = build_extensive_form(level_model, scen_set, config)
        sol = solve_milp(compiled.problem, gap_tol=1e-4)
        if not sol.verdict(f"sweep level {percent}%"):
            raise EvaluationError(f"sweep level {percent}%: stochastic program infeasible")
        metrics = [
            schedule_metrics(level_model, extract_schedule(level_model, scen, compiled.index, sol, si))
            for si, scen in enumerate(scen_set.scenarios)
        ]
        return SweepLevelResult(
            percent=percent,
            objective=sol.objective,
            expected_served_kwh=ordered_sum([s.probability * restored
                                             for s, (restored, _, _) in zip(scen_set, metrics)]),
            expected_outage_hours=ordered_sum([s.probability * outage
                                               for s, (_, outage, _) in zip(scen_set, metrics)]),
            pv_units=len(level_model.pv_units),
        )

    return map_in_order(solve_level, levels)
