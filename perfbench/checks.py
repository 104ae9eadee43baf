"""Checks on gridprep's outputs, computed apart from gridprep.

Every function reads plain documents (the JSON the CLI writes or reads) or
numpy arrays, and returns a list of failure messages; an empty list means
the check passed.  Nothing here imports gridprep, so a fault in the program
cannot hide itself by also breaking the check.
"""

from __future__ import annotations

import math

import numpy as np

#: absolute slack on a row or bound, scaled by (1 + |rhs|)
FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-6
#: relative slack on a cost recomputed from schedules or read from the reference
COST_REL_TOL = 1e-6


def _cost_tol(value: float) -> float:
    return COST_REL_TOL * max(1.0, abs(value))


def fuel_site_lot_bounds(feeder_doc: dict, quantum: float) -> dict[str, tuple[int, int]]:
    """Per-site lot range: on-site fuel rounded up, tank capacity rounded down."""
    present: dict[str, float] = {}
    cap: dict[str, float] = {}
    for g in feeder_doc.get("generators", []):
        present[g["bus"]] = present.get(g["bus"], 0.0) + float(g.get("fuel_present", 0.0))
        cap[g["bus"]] = cap.get(g["bus"], 0.0) + float(g.get("fuel_cap", 0.0))
    meg = feeder_doc.get("meg")
    if meg:
        for b in feeder_doc.get("candidate_buses", []):
            present[b] = present.get(b, 0.0) + float(meg.get("fuel_present", 0.0))
            cap[b] = cap.get(b, 0.0) + float(meg.get("fuel_cap", 0.0))
    return {b: (math.ceil(present[b] / quantum - 1e-9), math.floor(cap[b] / quantum + 1e-9))
            for b in present}


def plan_failures(plan_doc: dict, feeder_doc: dict, config_doc: dict) -> list[str]:
    """The plan uses every budgeted MEG, MES and crew, stays within the fuel
    budget, and meets every per-bus, per-site and region bound."""
    out = []
    candidates = set(feeder_doc.get("candidate_buses", []))
    megs, mess = list(plan_doc.get("meg", [])), list(plan_doc.get("mes", []))
    for kind, placed, total in (("MEG", megs, config_doc["n_meg"]), ("MES", mess, config_doc["n_mes"])):
        if len(set(placed)) != len(placed):
            out.append(f"{kind} placed twice at one bus: {placed}")
        if len(placed) != total:
            out.append(f"{len(placed)} {kind}s placed, budget is {total}")
        for b in placed:
            if b not in candidates:
                out.append(f"{kind} at non-candidate bus {b}")
    caps = config_doc.get("n_mu_by_bus", {})
    for b in set(megs) | set(mess):
        used = megs.count(b) + mess.count(b)
        if used > int(caps.get(b, config_doc.get("n_mu_default", 1))):
            out.append(f"bus {b} hosts {used} mobile units, above its cap")

    quantum = float(config_doc["fuel_quantum"])
    sites = fuel_site_lot_bounds(feeder_doc, quantum)
    fuel = {b: float(v) for b, v in plan_doc.get("fuel", {}).items()}
    if sum(fuel.values()) > float(config_doc["n_fuel"]) + 1e-9:
        out.append(f"fuel {sum(fuel.values())} L exceeds the budget {config_doc['n_fuel']} L")
    for b in fuel:
        if b not in sites:
            out.append(f"fuel at non-site bus {b}")
    for b, (lo, hi) in sites.items():
        lots = fuel.get(b, 0.0) / quantum
        if abs(lots - round(lots)) > 1e-9 or not lo <= round(lots) <= hi:
            out.append(f"fuel at {b} is {fuel.get(b, 0.0)} L, outside lots [{lo}, {hi}]")

    crews = {r: int(c) for r, c in plan_doc.get("crews", {}).items()}
    regions = {r["id"]: r for r in feeder_doc.get("regions", [])}
    total = sum(crews.values())
    if total != config_doc["n_crew"]:
        out.append(f"{total} crews assigned, budget is {config_doc['n_crew']}")
    for r in crews:
        if r not in regions:
            out.append(f"crews assigned to unknown region {r}")
    for rid, r in regions.items():
        c = crews.get(rid, 0)
        if not int(r["crew_min"]) <= c <= int(r["crew_max"]):
            out.append(f"region {rid} has {c} crews, outside [{r['crew_min']}, {r['crew_max']}]")
    return out


def solution_failures(a, senses, b, lower, upper, integer_mask, x) -> list[str]:
    """The point satisfies every row, bound and integrality requirement.

    ``a`` is the constraint matrix (sparse or dense), ``senses`` holds
    ``"<="``, ``">="`` or ``"="`` per row.
    """
    out = []
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    ax = a @ x
    slack = FEASIBILITY_TOL * (1.0 + np.abs(b))
    senses = np.asarray(senses)
    viol = np.zeros(len(b))
    viol = np.where(senses == "<=", ax - b, viol)
    viol = np.where(senses == ">=", b - ax, viol)
    viol = np.where(senses == "=", np.abs(ax - b), viol)
    bad_rows = np.nonzero(viol > slack)[0]
    if bad_rows.size:
        i = int(bad_rows[np.argmax(viol[bad_rows])])
        out.append(f"{bad_rows.size} rows violated; worst row {i} by {viol[i]:.3g}")
    lo_viol = np.asarray(lower) - x
    hi_viol = x - np.asarray(upper)
    bound_slack = FEASIBILITY_TOL * (1.0 + np.abs(x))
    bad_cols = np.nonzero((lo_viol > bound_slack) | (hi_viol > bound_slack))[0]
    if bad_cols.size:
        out.append(f"{bad_cols.size} bounds violated; first column {int(bad_cols[0])}")
    frac = np.abs(x - np.round(x))[np.asarray(integer_mask, dtype=bool)]
    if frac.size and frac.max() > INTEGRALITY_TOL:
        out.append(f"{int(np.sum(frac > INTEGRALITY_TOL))} integer columns are fractional "
                   f"(worst {frac.max():.3g})")
    return out


def total_demand_kwh(feeder_doc: dict) -> float:
    dt = float(feeder_doc["dt_hours"])
    return sum(float(d) * dt for bus in feeder_doc["buses"]
               for prof in bus.get("demand_p", {}).values() for d in prof)


def schedule_cost(feeder_doc: dict, config_doc: dict, gen_p, switch_ops, pickup) -> float:
    """Fuel, switching and shed cost of one scenario's operations, in $.

    ``gen_p`` holds every generator output in kW, ``switch_ops`` every
    switching indicator, and ``pickup`` maps (bus, t) to 0/1.
    """
    dt = float(feeder_doc["dt_hours"])
    fuel = float(config_doc["fuel_cost"]) * float(config_doc["fuel_rate"]) * dt * sum(gen_p)
    switching = float(config_doc["switch_cost"]) * sum(switch_ops)
    shed = 0.0
    for bus in feeder_doc["buses"]:
        for prof in bus.get("demand_p", {}).values():
            for t, d in enumerate(prof):
                shed += float(bus["shed_cost"]) * float(d) * dt * (1.0 - pickup[(bus["id"], t)])
    return fuel + switching + shed


def cost_match_failures(what: str, recomputed: float, reported: float) -> list[str]:
    if abs(recomputed - reported) > _cost_tol(reported):
        return [f"{what}: recomputed {recomputed!r}, reported {reported!r}"]
    return []


def optimum_failures(what: str, value: float, optimum: float, above: float) -> list[str]:
    """``value`` lies in [optimum - tol, optimum + above * max(1, |optimum|) + tol]."""
    tol = _cost_tol(optimum)
    if value < optimum - tol:
        return [f"{what} {value!r} is below the reference optimum {optimum!r}"]
    if value > optimum + above * max(1.0, abs(optimum)) + tol:
        return [f"{what} {value!r} is more than {above:g} above the reference optimum {optimum!r}"]
    return []


def mrp_failures(mrp_doc: dict) -> list[str]:
    """Gaps are nonnegative up to tolerance, none tainted, the bound tops the mean."""
    out = []
    if mrp_doc["tainted"]:
        out.append(f"{mrp_doc['tainted']} tainted replications")
    if len(mrp_doc["gaps"]) + mrp_doc["tainted"] != mrp_doc["n_g"]:
        out.append(f"{len(mrp_doc['gaps'])} gaps for {mrp_doc['n_g']} replications")
    # a sample's own optimum never costs more than the candidate on that sample
    tol = _cost_tol(mrp_doc["candidate_mean_cost"])
    for g in mrp_doc["gaps"]:
        if not g >= -tol:
            out.append(f"negative optimality gap {g!r}")
    if not mrp_doc["ci_upper"] >= mrp_doc["mean_gap"]:
        out.append(f"ci_upper {mrp_doc['ci_upper']!r} is below the mean gap {mrp_doc['mean_gap']!r}")
    return out


def evaluation_failures(report_doc: dict, feeder_doc: dict) -> list[str]:
    """Served fractions, restored energy and outage lie in their physical ranges."""
    out = []
    sid = report_doc["scenario"]
    fractions = report_doc["served_fraction"]
    if any(not -1e-9 <= f <= 1.0 + 1e-9 for f in fractions):
        out.append(f"storm {sid}: served fraction outside [0, 1]: {fractions}")
    demand = total_demand_kwh(feeder_doc)
    restored = report_doc["restored_energy_kwh"]
    if not 0.0 <= restored <= demand + _cost_tol(demand):
        out.append(f"storm {sid}: restored {restored!r} kWh of {demand!r} kWh demand")
    span_h = int(feeder_doc["horizon"]) * float(feeder_doc["dt_hours"])
    if not 0.0 <= report_doc["avg_outage_hours"] <= span_h:
        out.append(f"storm {sid}: average outage {report_doc['avg_outage_hours']!r} h "
                   f"outside [0, {span_h}]")
    return out
