"""Plan evaluation metrics, the heuristic base plan, and the PV sweep.

The base plan mimics common utility practice: generators at substations
first and then at the costliest loads, no mobile storage, tanks sized for a
day of full output, crews split evenly.  It is the comparison point for the
optimized plan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .formulation import (
    FirstStagePlan,
    FormulationConfig,
    SecondStageSchedule,
    build_subproblem,
    extract_schedule,
    fuel_site_bounds,
    pin_plan,
    scenario_cost,
)
from .milp import solve_milp
from .network import LoopSet, NetworkModel, PvSpec
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
    restored = 0.0
    served_fraction = []
    for t in range(model.horizon):
        total_d = 0.0
        served_d = 0.0
        for b in model.buses:
            d = b.total_demand(t)
            total_d += d
            served_d += d * schedule.pickup[(b.id, t)]
        restored += served_d * dt
        served_fraction.append(served_d / total_d if total_d > 0 else 1.0)
    load_buses = [b for b in model.buses if any(b.total_demand(t) > 0 for t in range(model.horizon))]
    outage_sum = 0.0
    for b in load_buses:
        for t in range(model.horizon):
            if b.total_demand(t) > 0 and schedule.pickup[(b.id, t)] < 0.5:
                outage_sum += dt
    avg_outage = outage_sum / len(load_buses) if load_buses else 0.0
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
    if not sol.ok:
        raise EvaluationError(
            f"scenario {scenario.id} operations infeasible under the pinned plan ({sol.status})"
        )
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
    a day of fuel per generator site, even crew split, no mobile storage."""
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
    meg_at = {b: 0 for b in candidates}
    for b in substations:
        meg_at[b] = 1
    remaining = config.n_meg - len(substations)
    ranked = sorted(
        (b for b in candidates if meg_at[b] == 0 and config.n_mu(b) >= 1),
        key=lambda b: (-model.bus(b).shed_cost, b),
    )
    for b in ranked[:remaining]:
        meg_at[b] = 1
    if sum(meg_at.values()) < config.n_meg:
        raise InsufficientResourcesError("not enough candidate buses to place every MEG")
    mes_at = {b: 0 for b in candidates}

    sites = fuel_site_bounds(model, config)
    q = config.fuel_quantum
    lots = {b: lo for b, (lo, _) in sites.items()}
    budget_lots = int(math.floor(config.n_fuel / q + 1e-9)) - sum(lots.values())
    if budget_lots < 0:
        raise InsufficientResourcesError("on-site fuel exceeds the fuel budget")
    day_hours = 24.0
    for b in sorted(b for b, v in meg_at.items() if v):
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
        drift = config.n_crew - sum(crews.values())
        while drift != 0:
            moved = False
            for r in ordered:
                if drift > 0 and crews[r.id] < r.crew_max:
                    crews[r.id] += 1
                    drift -= 1
                    moved = True
                elif drift < 0 and crews[r.id] > r.crew_min:
                    crews[r.id] -= 1
                    drift += 1
                    moved = True
                if drift == 0:
                    break
            if not moved:
                raise InsufficientResourcesError("crew bounds do not admit the crew total")

    plan = FirstStagePlan(meg_at=meg_at, mes_at=mes_at, fuel_lots=lots, crews=crews)
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
    """Re-solve the stochastic program per penetration level and score it."""
    from .formulation import build_extensive_form

    out = []
    for percent in levels:
        fleet = tuple(pv_fleet_for_level(model, percent))
        level_model = replace(model, pv_units=model.pv_units + fleet)
        compiled = build_extensive_form(level_model, scen_set, config)
        sol = solve_milp(compiled.problem, gap_tol=1e-4)
        if not sol.ok:
            raise EvaluationError(f"sweep level {percent}%: stochastic solve failed ({sol.status})")
        served = 0.0
        outage = 0.0
        for si, scen in enumerate(scen_set.scenarios):
            sched = extract_schedule(level_model, scen, compiled.index, sol, si)
            restored, avg_outage, _ = schedule_metrics(level_model, sched)
            served += scen.probability * restored
            outage += scen.probability * avg_outage
        out.append(SweepLevelResult(
            percent=percent,
            objective=sol.objective,
            expected_served_kwh=served,
            expected_outage_hours=outage,
            pv_units=len(level_model.pv_units),
        ))
    return out


def reports_to_json(reports: Sequence[EvaluationReport]) -> str:
    return json.dumps([r.to_document() for r in reports], indent=2, sort_keys=True)


def served_fraction_csv(reports: Sequence[EvaluationReport]) -> str:
    """Plot-ready time series: one row per (scenario, period)."""
    lines = ["plan,scenario,t,served_fraction"]
    for r in reports:
        for t, frac in enumerate(r.served_fraction):
            lines.append(f"{r.plan_label},{r.scenario_id},{t},{frac!r}")
    return "\n".join(lines) + "\n"
