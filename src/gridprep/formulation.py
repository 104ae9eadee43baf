"""Compilation of feeder models and damage scenarios into MILP instances.

Produces the stochastic extensive form (shared first stage, one
probability-weighted operations block per scenario), single-scenario
subproblems, and hedging-augmented subproblems with an exactly linearized
proximal term.  Owns big-M derivation, inverter-capacity polygonization,
and first-stage plan handling.

Sign convention for nodal balance: line flow is positive in the declared
from->to direction; storage discharging injects and charging draws (the
state-of-charge recursion fixes the charge direction, so the balance uses
discharge minus charge on the injection side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .milp import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INTEGER,
    LE,
    LinearExpr,
    MilpProblem,
    MilpSolution,
)
from .network import (
    EssSpec,
    GeneratorSpec,
    Line,
    LoopSet,
    NetworkModel,
    PvSpec,
    PV_GRID_FOLLOWING,
    PV_GRID_FORMING,
    PV_HYBRID,
    enumerate_loops,
)
from .scenarios import DamageScenario, ScenarioSet


class FormulationError(ValueError):
    """Configuration that cannot produce a feasible first stage."""


@dataclass(frozen=True)
class FormulationConfig:
    """Cost, resource, and modeling knobs for the two-stage program."""

    n_meg: int = 0
    n_mes: int = 0
    n_fuel: float = 0.0  # L available to distribute
    n_crew: int = 0
    fuel_cost: float = 1.0  # $/L
    switch_cost: float = 8.0  # $/operation
    fuel_rate: float = 0.3  # L/kWh
    crew_epsilon: float = 0.001
    polygon_segments: int = 8
    fuel_quantum: float = 100.0  # L per allocation lot
    n_mu_default: int = 1
    n_mu_by_bus: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if min(self.fuel_cost, self.switch_cost, self.fuel_rate, self.n_fuel) < 0:
            raise FormulationError("costs, fuel rate, and fuel budget must be nonnegative")
        if not 0.0 < self.crew_epsilon < 1.0:
            raise FormulationError("crew_epsilon must lie in (0, 1)")
        if self.polygon_segments < 4:
            raise FormulationError("polygon_segments must be >= 4")
        if self.fuel_quantum <= 0:
            raise FormulationError("fuel_quantum must be positive")
        if min(self.n_meg, self.n_mes, self.n_crew) < 0:
            raise FormulationError("resource totals must be nonnegative")

    def n_mu(self, bus: str) -> int:
        return int(self.n_mu_by_bus.get(bus, self.n_mu_default))


def config_from_document(doc: Mapping) -> FormulationConfig:
    known = {f for f in FormulationConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in doc.items() if k in known}
    return FormulationConfig(**kwargs)


@dataclass(frozen=True)
class FirstStagePlan:
    """Pre-event decisions: unit placements, fuel lots, crews per region."""

    meg_at: Mapping[str, int]
    mes_at: Mapping[str, int]
    fuel_lots: Mapping[str, int]  # bus -> lots; liters = lots * quantum
    crews: Mapping[str, int]  # region id -> crews

    def violations(
        self, model: NetworkModel, config: FormulationConfig, strict_totals: bool = True
    ) -> list[str]:
        """Check the plan against the first-stage rules.

        ``strict_totals=False`` accepts plans that hold back budgeted
        resources (totals become upper bounds); placement caps, fuel site
        bounds, and crew ranges always apply.
        """
        out = []
        n_meg_placed = sum(self.meg_at.values())
        n_mes_placed = sum(self.mes_at.values())
        if strict_totals:
            if n_meg_placed != config.n_meg:
                out.append(f"sum of MEG placements is {n_meg_placed}, expected {config.n_meg}")
            if n_mes_placed != config.n_mes:
                out.append(f"sum of MES placements is {n_mes_placed}, expected {config.n_mes}")
        else:
            if n_meg_placed > config.n_meg:
                out.append(f"{n_meg_placed} MEGs placed but only {config.n_meg} available")
            if n_mes_placed > config.n_mes:
                out.append(f"{n_mes_placed} MESs placed but only {config.n_mes} available")
        for b in sorted(set(self.meg_at) | set(self.mes_at)):
            if b not in model.candidate_buses:
                out.append(f"mobile unit placed at non-candidate bus '{b}'")
            if self.meg_at.get(b, 0) + self.mes_at.get(b, 0) > config.n_mu(b):
                out.append(f"bus '{b}' exceeds its mobile-unit cap {config.n_mu(b)}")
        q = config.fuel_quantum
        total_fuel = sum(lots * q for lots in self.fuel_lots.values())
        if total_fuel > config.n_fuel + 1e-9:
            out.append(f"total fuel {total_fuel} L exceeds budget {config.n_fuel} L")
        sites = fuel_site_bounds(model, config)
        for b, (lo, hi) in sites.items():
            lots = self.fuel_lots.get(b, 0)
            if not lo <= lots <= hi:
                out.append(f"fuel lots at '{b}' = {lots} outside [{lo}, {hi}]")
        for b in self.fuel_lots:
            if b not in sites:
                out.append(f"fuel allocated to non-generator bus '{b}'")
        n_crews = sum(self.crews.values())
        if strict_totals and n_crews != config.n_crew:
            out.append(f"sum of crews is {n_crews}, expected {config.n_crew}")
        if not strict_totals and n_crews > config.n_crew:
            out.append(f"{n_crews} crews assigned but only {config.n_crew} available")
        for r in model.regions:
            c = self.crews.get(r.id, 0)
            if not r.crew_min <= c <= r.crew_max:
                out.append(f"region '{r.id}' crews {c} outside [{r.crew_min}, {r.crew_max}]")
        for r in sorted(set(self.crews) - {reg.id for reg in model.regions}):
            out.append(f"crews assigned to unknown region '{r}'")
        return out


def plan_to_document(plan: FirstStagePlan, quantum: float) -> dict:
    return {
        "meg": sorted(b for b, v in plan.meg_at.items() if v),
        "mes": sorted(b for b, v in plan.mes_at.items() if v),
        "fuel": {b: lots * quantum for b, lots in sorted(plan.fuel_lots.items()) if lots},
        "crews": {r: c for r, c in sorted(plan.crews.items())},
    }


def plan_from_document(doc: Mapping, quantum: float) -> FirstStagePlan:
    return FirstStagePlan(
        meg_at={str(b): 1 for b in doc.get("meg", [])},
        mes_at={str(b): 1 for b in doc.get("mes", [])},
        fuel_lots={str(b): int(round(float(v) / quantum)) for b, v in doc.get("fuel", {}).items()},
        crews={str(r): int(c) for r, c in doc.get("crews", {}).items()},
    )


# -- variable indexing ------------------------------------------------------

#: variable kind -> (owning dataclass, field name) used by the symbol audit
KIND_FIELD_MAP = {
    "meg": ("FirstStagePlan", "meg_at"),
    "mes": ("FirstStagePlan", "mes_at"),
    "lots": ("FirstStagePlan", "fuel_lots"),
    "crew": ("FirstStagePlan", "crews"),
    "y": ("SecondStageSchedule", "pickup"),
    "chi": ("SecondStageSchedule", "energized"),
    "u": ("SecondStageSchedule", "line_closed"),
    "z": ("SecondStageSchedule", "repairing"),
    "gamma": ("SecondStageSchedule", "switch_ops"),
    "h": ("SecondStageSchedule", "charging"),
    "pk": ("SecondStageSchedule", "flow_p"),
    "qk": ("SecondStageSchedule", "flow_q"),
    "pg": ("SecondStageSchedule", "gen_p"),
    "qg": ("SecondStageSchedule", "gen_q"),
    "ppv": ("SecondStageSchedule", "pv_p"),
    "qpv": ("SecondStageSchedule", "pv_q"),
    "pch": ("SecondStageSchedule", "charge_p"),
    "pdis": ("SecondStageSchedule", "discharge_p"),
    "qess": ("SecondStageSchedule", "storage_q"),
    "soc": ("SecondStageSchedule", "soc"),
    "volt": ("SecondStageSchedule", "voltage_sq"),
    "vsrc": ("SecondStageSchedule", "virtual_source"),
    "vflow": ("SecondStageSchedule", "virtual_flow"),
    "fuel": ("SecondStageSchedule", "fuel_used"),
    "prox": ("PhAugmentation", "prox_terms"),
}


class VariableIndex:
    """Bijection between (kind, entity, phase, period, scenario) and var ids."""

    def __init__(self):
        self._by_key: dict[tuple, int] = {}
        self._by_id: dict[int, tuple] = {}

    @staticmethod
    def key(kind: str, entity=None, phase: str | None = None, t: int | None = None, s: int | None = None):
        return (kind, entity, phase, t, s)

    def register(self, key: tuple, var_id: int) -> None:
        if key in self._by_key:
            raise KeyError(f"duplicate variable key {key}")
        if var_id in self._by_id:
            raise KeyError(f"variable id {var_id} already indexed")
        self._by_key[key] = var_id
        self._by_id[var_id] = key

    def id_of(self, kind: str, entity=None, phase: str | None = None, t: int | None = None, s: int | None = None) -> int:
        return self._by_key[self.key(kind, entity, phase, t, s)]

    def key_of(self, var_id: int) -> tuple:
        return self._by_id[var_id]

    def __len__(self) -> int:
        return len(self._by_key)

    def keys(self):
        return self._by_key.keys()

    def items(self):
        return self._by_key.items()


def _vname(key: tuple) -> str:
    parts = [str(p) for p in key if p is not None]
    return "_".join(parts).replace(":", ".").replace(" ", "")


# -- derived entity views ----------------------------------------------------


@dataclass(frozen=True)
class GenUnit:
    uid: str
    bus: str
    spec: GeneratorSpec
    mobile: bool  # capacity gated by the MEG placement binary


@dataclass(frozen=True)
class StorageUnit:
    uid: str
    bus: str
    spec: EssSpec
    mobile: bool  # gated by the MES placement binary


@dataclass(frozen=True)
class PvUnit:
    uid: str
    bus: str
    spec: PvSpec


def gen_units(model: NetworkModel) -> list[GenUnit]:
    units = [GenUnit(uid=f"dg.{g.bus}.{i}", bus=g.bus, spec=g, mobile=False)
             for i, g in enumerate(model.generators)]
    if model.meg_template is not None:
        for b in sorted(model.candidate_buses):
            units.append(GenUnit(uid=f"meg.{b}", bus=b, spec=model.meg_template, mobile=True))
    return units


def storage_units(model: NetworkModel) -> list[StorageUnit]:
    units = [StorageUnit(uid=f"ess.{e.bus}.{i}", bus=e.bus, spec=e, mobile=False)
             for i, e in enumerate(model.ess_units)]
    if model.mes_template is not None:
        for b in sorted(model.candidate_buses):
            units.append(StorageUnit(uid=f"mes.{b}", bus=b, spec=model.mes_template, mobile=True))
    return units


def pv_units(model: NetworkModel) -> list[PvUnit]:
    return [PvUnit(uid=f"pv.{p.bus}.{i}", bus=p.bus, spec=p) for i, p in enumerate(model.pv_units)]


def fuel_site_bounds(model: NetworkModel, config: FormulationConfig) -> dict[str, tuple[int, int]]:
    """Per-site integer lot bounds from on-site fuel and tank capacity."""
    q = config.fuel_quantum
    present: dict[str, float] = {}
    cap: dict[str, float] = {}
    for g in model.generators:
        present[g.bus] = present.get(g.bus, 0.0) + g.fuel_present
        cap[g.bus] = cap.get(g.bus, 0.0) + g.fuel_cap
    if model.meg_template is not None:
        for b in model.candidate_buses:
            present[b] = present.get(b, 0.0) + model.meg_template.fuel_present
            cap[b] = cap.get(b, 0.0) + model.meg_template.fuel_cap
    out = {}
    for b in model.fuel_site_buses:
        lo = math.ceil(present.get(b, 0.0) / q - 1e-9)
        hi = math.floor(cap.get(b, 0.0) / q + 1e-9)
        out[b] = (lo, hi)
    return out


def grid_forming_buses(model: NetworkModel) -> set[str]:
    """Buses with an always-available grid-forming source (no placement gate)."""
    out = {g.bus for g in model.generators if g.grid_forming}
    out |= {p.bus for p in model.pv_units if p.pv_type == PV_GRID_FORMING}
    return out


def locally_served_buses(model: NetworkModel) -> set[str]:
    """Buses with a fixed on-site source able to carry their load off-grid."""
    out = {p.bus for p in model.pv_units if p.pv_type in (PV_GRID_FORMING, PV_HYBRID)}
    out |= {g.bus for g in model.generators}
    return out


# -- big-M and polygonization -----------------------------------------------


def big_m_virtual(model: NetworkModel) -> float:
    """Virtual flows move unit loads, so the bus count bounds any flow."""
    return float(len(model.buses))


def big_m_voltage(line: Line, model: NetworkModel) -> float:
    """Interval bound on the voltage-drop expression when the line is open.

    One endpoint may sit at its squared-voltage ceiling while the other is
    de-energized at zero, so the endpoint term alone spans max(U^max); the
    flow term adds twice the worst per-phase impedance-weighted capacity.
    """
    u_span = max(model.u_max(line.from_bus), model.u_max(line.to_bus))
    worst_row = 0.0
    for pa in line.phases:
        i = "abc".index(pa)
        row = 0.0
        for pb in line.phases:
            j = "abc".index(pb)
            row += abs(line.r_matrix[i][j]) * line.p_max + abs(line.x_matrix[i][j]) * line.q_max
        worst_row = max(worst_row, row)
    return u_span + 2.0 * worst_row / model.base_kva


def polygonize_capacity(s_kva: float, segments: int) -> list[tuple[float, float, float]]:
    """Half-planes a*P + b*Q <= rhs of the inscribed capacity polygon.

    Vertices sit on the capacity circle at angles 2*pi*k/segments, keeping
    those in the P >= 0 half-plane; faces shrink midpoints by
    cos(pi/segments), so no admitted point exceeds the true capacity.
    """
    if s_kva < 0:
        raise ValueError("capacity must be nonnegative")
    if segments < 4:
        raise ValueError("need at least 4 segments")
    angles = sorted(
        2.0 * math.pi * k / segments - (2.0 * math.pi if 2.0 * math.pi * k / segments > math.pi else 0.0)
        for k in range(segments)
    )
    kept = [a for a in angles if math.cos(a) > -1e-12]
    kept.sort()
    shrink = math.cos(math.pi / segments)
    faces = []
    for a1, a2 in zip(kept, kept[1:]):
        mid = 0.5 * (a1 + a2)
        faces.append((math.cos(mid), math.sin(mid), s_kva * shrink))
    return faces


# -- builders -----------------------------------------------------------------


@dataclass
class FirstStageVars:
    meg: dict[str, int]
    mes: dict[str, int]
    lots: dict[str, int]
    crew: dict[str, int]


def check_first_stage_config(model: NetworkModel, config: FormulationConfig) -> None:
    ncand = len(model.candidate_buses)
    if ncand < max(config.n_meg, config.n_mes):
        raise FormulationError(
            f"{ncand} candidate buses cannot host {max(config.n_meg, config.n_mes)} mobile units"
        )
    if config.n_meg > 0 and model.meg_template is None:
        raise FormulationError("n_meg > 0 but the network declares no MEG template")
    if config.n_mes > 0 and model.mes_template is None:
        raise FormulationError("n_mes > 0 but the network declares no MES template")
    mu_total = sum(config.n_mu(b) for b in model.candidate_buses)
    if mu_total < config.n_meg + config.n_mes:
        raise FormulationError(
            f"mobile-unit caps admit {mu_total} units, need {config.n_meg + config.n_mes}"
        )
    sites = fuel_site_bounds(model, config)
    q = config.fuel_quantum
    floor_fuel = sum(lo for lo, _ in sites.values()) * q
    if floor_fuel > config.n_fuel + 1e-9:
        raise FormulationError(
            f"on-site fuel {floor_fuel} L already exceeds the budget {config.n_fuel} L"
        )
    for b, (lo, hi) in sites.items():
        if lo > hi:
            raise FormulationError(f"fuel site '{b}': minimum lots {lo} exceed capacity {hi}")
    lo = sum(r.crew_min for r in model.regions)
    hi = sum(r.crew_max for r in model.regions)
    if model.regions and not lo <= config.n_crew <= hi:
        raise FormulationError(
            f"crew total {config.n_crew} outside the feasible range [{lo}, {hi}]"
        )


def build_first_stage(
    model: NetworkModel,
    config: FormulationConfig,
    problem: MilpProblem,
    index: VariableIndex,
    totals_equality: bool = True,
) -> FirstStageVars:
    """Mobile-unit, fuel-lot, and crew variables with their coupling rows.

    ``totals_equality=False`` turns the placement/crew totals into upper
    bounds; plan evaluation uses this so a deliberately thrifty plan
    (fewer mobile units than budgeted) still pins cleanly.
    """
    check_first_stage_config(model, config)
    totals_sense = EQ if totals_equality else LE
    meg: dict[str, int] = {}
    mes: dict[str, int] = {}
    for b in sorted(model.candidate_buses):
        if model.meg_template is not None:
            key = VariableIndex.key("meg", b)
            meg[b] = problem.add_variable(0, 1, BINARY, _vname(key))
            index.register(key, meg[b])
        if model.mes_template is not None:
            key = VariableIndex.key("mes", b)
            mes[b] = problem.add_variable(0, 1, BINARY, _vname(key))
            index.register(key, mes[b])

    if meg:
        problem.add_constraint(LinearExpr({v: 1.0 for v in meg.values()}), totals_sense,
                               float(config.n_meg), "meg_total")
    if mes:
        problem.add_constraint(LinearExpr({v: 1.0 for v in mes.values()}), totals_sense,
                               float(config.n_mes), "mes_total")
    for b in sorted(model.candidate_buses):
        expr = LinearExpr()
        if b in meg:
            expr.add(meg[b], 1.0)
        if b in mes:
            expr.add(mes[b], 1.0)
        if expr.terms:
            problem.add_constraint(expr, LE, float(config.n_mu(b)), f"mobile_cap[{b}]")

    lots: dict[str, int] = {}
    sites = fuel_site_bounds(model, config)
    for b in model.fuel_site_buses:
        lo, hi = sites[b]
        key = VariableIndex.key("lots", b)
        lots[b] = problem.add_variable(float(lo), float(hi), INTEGER, _vname(key))
        index.register(key, lots[b])
    if lots:
        problem.add_constraint(
            LinearExpr({v: config.fuel_quantum for v in lots.values()}),
            LE,
            float(config.n_fuel),
            "fuel_budget",
        )

    crew: dict[str, int] = {}
    for r in model.regions:
        key = VariableIndex.key("crew", r.id)
        crew[r.id] = problem.add_variable(float(r.crew_min), float(r.crew_max), INTEGER, _vname(key))
        index.register(key, crew[r.id])
    if crew:
        problem.add_constraint(LinearExpr({v: 1.0 for v in crew.values()}), totals_sense,
                               float(config.n_crew), "crew_total")
    return FirstStageVars(meg=meg, mes=mes, lots=lots, crew=crew)


def build_second_stage(
    model: NetworkModel,
    scenario: DamageScenario,
    config: FormulationConfig,
    problem: MilpProblem,
    index: VariableIndex,
    first: FirstStageVars,
    loops: LoopSet,
    s: int,
    weight: float,
) -> None:
    """One scenario's operations block, objective-weighted by ``weight``."""
    T = model.horizon
    dt = model.dt_hours
    damaged = scenario.damaged_lines
    for lid in damaged:
        model.line(lid)  # raises KeyError for unknown ids
    mv = big_m_virtual(model)
    gens = gen_units(model)
    stores = storage_units(model)
    pvs = pv_units(model)
    gf_buses = grid_forming_buses(model)

    def var(kind, entity=None, phase=None, t=None, lo=0.0, hi=1.0, kindof=CONTINUOUS):
        key = VariableIndex.key(kind, entity, phase, t, s)
        vid = problem.add_variable(lo, hi, kindof, _vname(key))
        index.register(key, vid)
        return vid

    y = {(b.id, t): var("y", b.id, t=t, kindof=BINARY) for b in model.buses for t in range(T)}
    chi = {(b.id, t): var("chi", b.id, t=t, kindof=BINARY) for b in model.buses for t in range(T)}

    # line status: damaged and switchable lines get variables, the rest are
    # closed constants; undamaged switches are pinned to their declared
    # initial state in the first period
    u_var: dict[tuple[str, int], int] = {}
    u_const: dict[tuple[str, int], float] = {}
    for line in model.lines:
        for t in range(T):
            if line.id in damaged:
                u_var[(line.id, t)] = var("u", line.id, t=t, kindof=BINARY)
            elif line.switchable:
                if t == 0:
                    u_const[(line.id, t)] = 0.0 if line.normally_open else 1.0
                else:
                    u_var[(line.id, t)] = var("u", line.id, t=t, kindof=BINARY)
            else:
                u_const[(line.id, t)] = 1.0

    def u_term(expr: LinearExpr, lid: str, t: int, coef: float) -> LinearExpr:
        if (lid, t) in u_var:
            expr.add(u_var[(lid, t)], coef)
        else:
            expr.constant += coef * u_const[(lid, t)]
        return expr

    z = {(lid, t): var("z", lid, t=t, kindof=BINARY) for lid in sorted(damaged) for t in range(T)}
    gamma = {
        (lid, t): var("gamma", lid, t=t, kindof=BINARY)
        for lid in model.switch_ids
        for t in range(1, T)
    }
    h = {(st.uid, t): var("h", st.uid, t=t, kindof=BINARY) for st in stores for t in range(T)}

    pk, qk = {}, {}
    for line in model.lines:
        for ph in line.phases:
            for t in range(T):
                pk[(line.id, ph, t)] = var("pk", line.id, ph, t, lo=-line.p_max, hi=line.p_max)
                qk[(line.id, ph, t)] = var("qk", line.id, ph, t, lo=-line.q_max, hi=line.q_max)

    pg, qg = {}, {}
    for gu in gens:
        for ph in model.bus(gu.bus).phases:
            for t in range(T):
                pg[(gu.uid, ph, t)] = var("pg", gu.uid, ph, t, lo=0.0, hi=gu.spec.p_max)
                qg[(gu.uid, ph, t)] = var("qg", gu.uid, ph, t, lo=0.0, hi=gu.spec.q_max)

    ppv, qpv = {}, {}
    for pu in pvs:
        for ph in model.bus(pu.bus).phases:
            for t in range(T):
                irr = scenario.irradiance[t] / 1000.0 * pu.spec.p_rate
                ppv[(pu.uid, ph, t)] = var("ppv", pu.uid, ph, t, lo=0.0, hi=irr)
                qpv[(pu.uid, ph, t)] = var(
                    "qpv", pu.uid, ph, t, lo=-pu.spec.s_inverter, hi=pu.spec.s_inverter
                )

    pch, pdis, qess, soc = {}, {}, {}, {}
    for st in stores:
        for t in range(T):
            soc[(st.uid, t)] = var("soc", st.uid, t=t, lo=st.spec.soc_min, hi=st.spec.soc_max)
        for ph in model.bus(st.bus).phases:
            for t in range(T):
                pch[(st.uid, ph, t)] = var("pch", st.uid, ph, t, lo=0.0, hi=st.spec.p_ch_max)
                pdis[(st.uid, ph, t)] = var("pdis", st.uid, ph, t, lo=0.0, hi=st.spec.p_dis_max)
                qess[(st.uid, ph, t)] = var("qess", st.uid, ph, t, lo=-st.spec.q_max, hi=st.spec.q_max)

    volt = {
        (b.id, ph, t): var("volt", b.id, ph, t, lo=0.0, hi=model.u_max(b.id))
        for b in model.buses
        for ph in b.phases
        for t in range(T)
    }

    vsrc_buses = sorted(gf_buses | set(model.candidate_buses))
    vsrc = {(b, t): var("vsrc", b, t=t, lo=0.0, hi=mv) for b in vsrc_buses for t in range(T)}
    vflow = {(k.id, t): var("vflow", k.id, t=t, lo=-mv, hi=mv) for k in model.lines for t in range(T)}

    fuel = {
        b: var("fuel", b, lo=0.0, hi=float(config.n_fuel))
        for b in model.fuel_site_buses
    }

    con = problem.add_constraint

    # PV output and capacity (grid-following output collapses when de-energized)
    for pu in pvs:
        faces = polygonize_capacity(pu.spec.s_inverter, config.polygon_segments)
        following = pu.spec.pv_type == PV_GRID_FOLLOWING
        for ph in model.bus(pu.bus).phases:
            for t in range(T):
                if following:
                    irr = scenario.irradiance[t] / 1000.0 * pu.spec.p_rate
                    expr = LinearExpr({ppv[(pu.uid, ph, t)]: 1.0, chi[(pu.bus, t)]: -irr})
                    con(expr, LE, 0.0, f"pv_energized[{pu.uid},{ph},{t}]")
                for fi, (a, bcoef, rhs) in enumerate(faces):
                    expr = LinearExpr({ppv[(pu.uid, ph, t)]: a, qpv[(pu.uid, ph, t)]: bcoef})
                    if following:
                        expr.add(chi[(pu.bus, t)], -rhs)
                        con(expr, LE, 0.0, f"pv_cap[{pu.uid},{ph},{t},{fi}]")
                    else:
                        con(expr, LE, rhs, f"pv_cap[{pu.uid},{ph},{t},{fi}]")

    # virtual network: unit loads reachable from grid-forming sources
    for b in model.buses:
        for t in range(T):
            expr = LinearExpr()
            if (b.id, t) in vsrc:
                expr.add(vsrc[(b.id, t)], 1.0)
            for k in model.lines:
                if k.to_bus == b.id:
                    expr.add(vflow[(k.id, t)], 1.0)
                elif k.from_bus == b.id:
                    expr.add(vflow[(k.id, t)], -1.0)
            expr.add(chi[(b.id, t)], -1.0)
            con(expr, EQ, 0.0, f"virtual_balance[{b.id},{t}]")
    for k in model.lines:
        for t in range(T):
            if (k.id, t) in u_var:
                con(LinearExpr({vflow[(k.id, t)]: 1.0, u_var[(k.id, t)]: -mv}), LE, 0.0,
                    f"virtual_flow_ub[{k.id},{t}]")
                con(LinearExpr({vflow[(k.id, t)]: 1.0, u_var[(k.id, t)]: mv}), GE, 0.0,
                    f"virtual_flow_lb[{k.id},{t}]")
            elif u_const[(k.id, t)] == 0.0:
                con(LinearExpr({vflow[(k.id, t)]: 1.0}), EQ, 0.0, f"virtual_flow_open[{k.id},{t}]")
    for b in vsrc_buses:
        if b in gf_buses:
            continue  # always-on source, plain bound applies
        for t in range(T):
            expr = LinearExpr({vsrc[(b, t)]: 1.0})
            if b in first.meg:
                expr.add(first.meg[b], -mv)
            if b in first.mes:
                expr.add(first.mes[b], -mv)
            con(expr, LE, 0.0, f"virtual_source_gate[{b},{t}]")

    # load pickup needs an energized bus unless a local source exempts it;
    # candidate buses without a fixed source relax by their mobile placements
    local = locally_served_buses(model)
    for b in model.buses:
        for t in range(T):
            if b.id in local:
                continue
            if b.id in model.candidate_buses:
                expr = LinearExpr({y[(b.id, t)]: 1.0, chi[(b.id, t)]: -1.0})
                if b.id in first.meg:
                    expr.add(first.meg[b.id], -1.0)
                if b.id in first.mes:
                    expr.add(first.mes[b.id], -1.0)
                con(expr, LE, 0.0, f"pickup_mobile[{b.id},{t}]")
            else:
                con(LinearExpr({y[(b.id, t)]: 1.0, chi[(b.id, t)]: -1.0}), LE, 0.0,
                    f"pickup_energized[{b.id},{t}]")

    # nodal balance per bus and phase
    gens_at: dict[str, list[GenUnit]] = {}
    for gu in gens:
        gens_at.setdefault(gu.bus, []).append(gu)
    stores_at: dict[str, list[StorageUnit]] = {}
    for st in stores:
        stores_at.setdefault(st.bus, []).append(st)
    pv_at: dict[str, list[PvUnit]] = {}
    for pu in pvs:
        pv_at.setdefault(pu.bus, []).append(pu)

    for b in model.buses:
        for ph in b.phases:
            for t in range(T):
                pexpr = LinearExpr()
                qexpr = LinearExpr()
                for k in model.lines:
                    if ph not in k.phases:
                        continue
                    sgn = 1.0 if k.from_bus == b.id else (-1.0 if k.to_bus == b.id else 0.0)
                    if sgn:
                        pexpr.add(pk[(k.id, ph, t)], sgn)
                        qexpr.add(qk[(k.id, ph, t)], sgn)
                for gu in gens_at.get(b.id, []):
                    pexpr.add(pg[(gu.uid, ph, t)], -1.0)
                    qexpr.add(qg[(gu.uid, ph, t)], -1.0)
                for pu in pv_at.get(b.id, []):
                    pexpr.add(ppv[(pu.uid, ph, t)], -1.0)
                    qexpr.add(qpv[(pu.uid, ph, t)], -1.0)
                for st in stores_at.get(b.id, []):
                    pexpr.add(pdis[(st.uid, ph, t)], -1.0)
                    pexpr.add(pch[(st.uid, ph, t)], 1.0)
                    qexpr.add(qess[(st.uid, ph, t)], -1.0)
                pexpr.add(y[(b.id, t)], b.demand_at(ph, t))
                qexpr.add(y[(b.id, t)], b.reactive_at(ph, t))
                con(pexpr, EQ, 0.0, f"balance_p[{b.id},{ph},{t}]")
                con(qexpr, EQ, 0.0, f"balance_q[{b.id},{ph},{t}]")

    # flow limits gate on line status where the status is a variable
    for k in model.lines:
        for ph in k.phases:
            for t in range(T):
                if (k.id, t) in u_var:
                    uv = u_var[(k.id, t)]
                    con(LinearExpr({pk[(k.id, ph, t)]: 1.0, uv: -k.p_max}), LE, 0.0,
                        f"flow_p_ub[{k.id},{ph},{t}]")
                    con(LinearExpr({pk[(k.id, ph, t)]: 1.0, uv: k.p_max}), GE, 0.0,
                        f"flow_p_lb[{k.id},{ph},{t}]")
                    con(LinearExpr({qk[(k.id, ph, t)]: 1.0, uv: -k.q_max}), LE, 0.0,
                        f"flow_q_ub[{k.id},{ph},{t}]")
                    con(LinearExpr({qk[(k.id, ph, t)]: 1.0, uv: k.q_max}), GE, 0.0,
                        f"flow_q_lb[{k.id},{ph},{t}]")
                elif u_const[(k.id, t)] == 0.0:
                    con(LinearExpr({pk[(k.id, ph, t)]: 1.0}), EQ, 0.0, f"flow_p_open[{k.id},{ph},{t}]")
                    con(LinearExpr({qk[(k.id, ph, t)]: 1.0}), EQ, 0.0, f"flow_q_open[{k.id},{ph},{t}]")

    # mobile generator capacity follows its placement binary
    for gu in gens:
        if not gu.mobile:
            continue
        for ph in model.bus(gu.bus).phases:
            for t in range(T):
                con(LinearExpr({pg[(gu.uid, ph, t)]: 1.0, first.meg[gu.bus]: -gu.spec.p_max}),
                    LE, 0.0, f"meg_gate_p[{gu.uid},{ph},{t}]")
                con(LinearExpr({qg[(gu.uid, ph, t)]: 1.0, first.meg[gu.bus]: -gu.spec.q_max}),
                    LE, 0.0, f"meg_gate_q[{gu.uid},{ph},{t}]")

    # voltage drop along closed lines, relaxed by big-M while open
    for k in model.lines:
        m_k = big_m_voltage(k, model)
        for ph in k.phases:
            i = "abc".index(ph)
            for t in range(T):
                expr = LinearExpr()
                expr.add(volt[(k.from_bus, ph, t)], 1.0)
                expr.add(volt[(k.to_bus, ph, t)], -1.0)
                for ph2 in k.phases:
                    j = "abc".index(ph2)
                    rc = 2.0 * k.r_matrix[i][j] / model.base_kva
                    xc = 2.0 * k.x_matrix[i][j] / model.base_kva
                    if rc:
                        expr.add(pk[(k.id, ph2, t)], -rc)
                    if xc:
                        expr.add(qk[(k.id, ph2, t)], -xc)
                if (k.id, t) in u_var:
                    uv = u_var[(k.id, t)]
                    lo_expr = expr.copy()
                    lo_expr.add(uv, -m_k)
                    con(lo_expr, GE, -m_k, f"volt_drop_lo[{k.id},{ph},{t}]")
                    hi_expr = expr.copy()
                    hi_expr.add(uv, m_k)
                    con(hi_expr, LE, m_k, f"volt_drop_hi[{k.id},{ph},{t}]")
                elif u_const[(k.id, t)] == 1.0:
                    con(expr, EQ, 0.0, f"volt_drop_eq[{k.id},{ph},{t}]")

    # voltage window scales with the energization flag
    for b in model.buses:
        for ph in b.phases:
            for t in range(T):
                con(LinearExpr({volt[(b.id, ph, t)]: 1.0, chi[(b.id, t)]: -model.u_max(b.id)}),
                    LE, 0.0, f"volt_range_hi[{b.id},{ph},{t}]")
                con(LinearExpr({volt[(b.id, ph, t)]: 1.0, chi[(b.id, t)]: -model.u_min(b.id)}),
                    GE, 0.0, f"volt_range_lo[{b.id},{ph},{t}]")

    # radiality: every enumerated cycle keeps at least one member open
    for li, loop in enumerate(loops):
        for t in range(T):
            expr = LinearExpr()
            for lid in sorted(loop.members):
                u_term(expr, lid, t, 1.0)
            con(expr, LE, float(len(loop.members) - 1), f"radiality[{li},{t}]")

    # repair crews: regional capacity, per-line effort budget, status release
    region_of: dict[str, str] = {}
    for r in model.regions:
        for lid in r.lines:
            region_of[lid] = r.id
    for lid in sorted(damaged):
        if lid not in region_of:
            raise FormulationError(f"damaged line '{lid}' belongs to no region")
    for r in model.regions:
        members = [lid for lid in sorted(damaged) if region_of[lid] == r.id]
        if not members:
            continue
        for t in range(T):
            expr = LinearExpr({z[(lid, t)]: 1.0 for lid in members})
            expr.add(first.crew[r.id], -1.0)
            con(expr, LE, 0.0, f"crew_region[{r.id},{t}]")
    for lid in sorted(damaged):
        tr = scenario.repair_periods[lid]
        con(LinearExpr({z[(lid, t)]: 1.0 for t in range(T)}), LE, float(tr),
            f"repair_budget[{lid}]")
        for t in range(T):
            ub = LinearExpr({u_var[(lid, t)]: 1.0})
            for tau in range(t):
                ub.add(z[(lid, tau)], -1.0 / tr)
            con(ub, LE, 0.0, f"repair_progress_ub[{lid},{t}]")
            lb = LinearExpr({u_var[(lid, t)]: 1.0})
            for tau in range(t):
                lb.add(z[(lid, tau)], -1.0 / tr)
            con(lb, GE, config.crew_epsilon - 1.0, f"repair_progress_lb[{lid},{t}]")

    # switching operations count closed/open transitions
    for lid in model.switch_ids:
        for t in range(1, T):
            pos = LinearExpr({gamma[(lid, t)]: 1.0})
            u_term(pos, lid, t, -1.0)
            u_term(pos, lid, t - 1, 1.0)
            con(pos, GE, 0.0, f"switch_change_pos[{lid},{t}]")
            neg = LinearExpr({gamma[(lid, t)]: 1.0})
            u_term(neg, lid, t, 1.0)
            u_term(neg, lid, t - 1, -1.0)
            con(neg, GE, 0.0, f"switch_change_neg[{lid},{t}]")

    # storage dynamics and mutual exclusion of charge/discharge
    for st in stores:
        cap = st.spec.e_cap
        phases = model.bus(st.bus).phases
        for t in range(T):
            expr = LinearExpr({soc[(st.uid, t)]: 1.0})
            rhs = 0.0
            if t == 0:
                rhs = st.spec.soc_init
            else:
                expr.add(soc[(st.uid, t - 1)], -1.0)
            for ph in phases:
                expr.add(pch[(st.uid, ph, t)], -dt * st.spec.eta_ch / cap)
                expr.add(pdis[(st.uid, ph, t)], dt / (st.spec.eta_dis * cap))
            con(expr, EQ, rhs, f"soc_step[{st.uid},{t}]")
        for ph in phases:
            for t in range(T):
                con(LinearExpr({pch[(st.uid, ph, t)]: 1.0, h[(st.uid, t)]: -st.spec.p_ch_max}),
                    LE, 0.0, f"charge_excl[{st.uid},{ph},{t}]")
                con(LinearExpr({pdis[(st.uid, ph, t)]: 1.0, h[(st.uid, t)]: st.spec.p_dis_max}),
                    LE, st.spec.p_dis_max, f"discharge_excl[{st.uid},{ph},{t}]")
                if st.mobile:
                    mes_var = first.mes[st.bus]
                    con(LinearExpr({pch[(st.uid, ph, t)]: 1.0, mes_var: -st.spec.p_ch_max}),
                        LE, 0.0, f"mes_gate_ch[{st.uid},{ph},{t}]")
                    con(LinearExpr({pdis[(st.uid, ph, t)]: 1.0, mes_var: -st.spec.p_dis_max}),
                        LE, 0.0, f"mes_gate_dis[{st.uid},{ph},{t}]")
                    con(LinearExpr({qess[(st.uid, ph, t)]: 1.0, mes_var: -st.spec.q_max}),
                        LE, 0.0, f"mes_gate_q_ub[{st.uid},{ph},{t}]")
                    con(LinearExpr({qess[(st.uid, ph, t)]: 1.0, mes_var: st.spec.q_max}),
                        GE, 0.0, f"mes_gate_q_lb[{st.uid},{ph},{t}]")

    # scenario fuel use per site, capped by the allocated lots
    for b in model.fuel_site_buses:
        expr = LinearExpr({fuel[b]: 1.0})
        for gu in gens_at.get(b, []):
            for ph in model.bus(b).phases:
                for t in range(T):
                    expr.add(pg[(gu.uid, ph, t)], -config.fuel_rate * dt)
        con(expr, EQ, 0.0, f"fuel_def[{b}]")
        con(LinearExpr({fuel[b]: 1.0, first.lots[b]: -config.fuel_quantum}), LE, 0.0,
            f"fuel_cap[{b}]")

    # objective: fuel burn, switching operations, unserved demand
    for b in model.fuel_site_buses:
        problem.add_objective_term(fuel[b], weight * config.fuel_cost)
    for (lid, t), gv in gamma.items():
        problem.add_objective_term(gv, weight * config.switch_cost)
    shed_const = 0.0
    for b in model.buses:
        for ph in b.phases:
            for t in range(T):
                d = b.demand_at(ph, t)
                if d:
                    problem.add_objective_term(y[(b.id, t)], -weight * b.shed_cost * d * dt)
                    shed_const += weight * b.shed_cost * d * dt
    problem.objective.constant += shed_const


@dataclass
class CompiledProblem:
    problem: MilpProblem
    index: VariableIndex
    first: FirstStageVars
    scenario_ids: tuple[int, ...]
    probabilities: tuple[float, ...]


def build_extensive_form(
    model: NetworkModel,
    scen_set: ScenarioSet,
    config: FormulationConfig,
    loops: LoopSet | None = None,
    fixed_plan: FirstStagePlan | None = None,
) -> CompiledProblem:
    """Single MILP with one shared first stage and all weighted scenarios."""
    if loops is None:
        loops = enumerate_loops(model)
    problem = MilpProblem("extensive_form")
    index = VariableIndex()
    first = build_first_stage(model, config, problem, index, totals_equality=fixed_plan is None)
    if fixed_plan is not None:
        _pin_plan(problem, first, fixed_plan)
    for si, scen in enumerate(scen_set.scenarios):
        build_second_stage(model, scen, config, problem, index, first, loops, si, scen.probability)
    problem.seal()
    return CompiledProblem(
        problem=problem,
        index=index,
        first=first,
        scenario_ids=tuple(sc.id for sc in scen_set.scenarios),
        probabilities=tuple(sc.probability for sc in scen_set.scenarios),
    )


def build_subproblem(
    model: NetworkModel,
    scenario: DamageScenario,
    config: FormulationConfig,
    loops: LoopSet | None = None,
    fixed_plan: FirstStagePlan | None = None,
) -> CompiledProblem:
    """Deterministic single-scenario problem (full weight on the scenario)."""
    if loops is None:
        loops = enumerate_loops(model)
    problem = MilpProblem(f"scenario_{scenario.id}")
    index = VariableIndex()
    first = build_first_stage(model, config, problem, index, totals_equality=fixed_plan is None)
    if fixed_plan is not None:
        _pin_plan(problem, first, fixed_plan)
    build_second_stage(model, scenario, config, problem, index, first, loops, scenario.id, 1.0)
    problem.seal()
    return CompiledProblem(
        problem=problem,
        index=index,
        first=first,
        scenario_ids=(scenario.id,),
        probabilities=(1.0,),
    )


def _pin_plan(problem: MilpProblem, first: FirstStageVars, plan: FirstStagePlan) -> None:
    def pin(vid: int, value: float):
        spec = problem.variables[vid]
        problem.variables[vid] = replace(spec, lower=float(value), upper=float(value))

    for b, vid in first.meg.items():
        pin(vid, plan.meg_at.get(b, 0))
    for b, vid in first.mes.items():
        pin(vid, plan.mes_at.get(b, 0))
    for b, vid in first.lots.items():
        pin(vid, plan.fuel_lots.get(b, 0))
    for r, vid in first.crew.items():
        pin(vid, plan.crews.get(r, 0))


def build_ph_subproblem(
    model: NetworkModel,
    scenario: DamageScenario,
    config: FormulationConfig,
    multipliers: Sequence[float],
    anchor: Sequence[float],
    rho: float,
    tie_break: float = 0.0,
    loops: LoopSet | None = None,
) -> CompiledProblem:
    """Scenario subproblem augmented with the hedging price, proximal term and tie-break.

    ``multipliers`` and ``anchor`` are keyed by position in the first-stage
    vector (see :func:`first_stage_vector_ids`).  Binary deviations expand
    exactly; integer lots/crews get a secant chain that is exact at integers.
    After those terms, position ``j`` of ``n`` costs ``tie_break * (1 + j / n)``
    more, so exact ties resolve the same way in every scenario.
    """
    compiled = build_subproblem(model, scenario, config, loops=loops)
    problem = compiled.problem
    # augmenting the sealed copy: rebuild mutable view
    augmented = problem.copy()
    ids = first_stage_vector_ids(compiled.index)
    eta_vec = _as_vector(multipliers, len(ids), "multipliers")
    anchor_vec = _as_vector(anchor, len(ids), "anchor")
    for pos, vid in enumerate(ids):
        eta = eta_vec[pos]
        xbar = anchor_vec[pos]
        if eta:
            augmented.add_objective_term(vid, eta)
        if rho == 0.0:
            continue
        spec = augmented.variables[vid]
        if spec.kind == BINARY:
            # (x - xbar)^2 == (1 - 2 xbar) x + xbar^2 for binary x
            augmented.add_objective_term(vid, 0.5 * rho * (1.0 - 2.0 * xbar))
            augmented.objective.constant += 0.5 * rho * xbar * xbar
        else:
            lo, hi = int(spec.lower), int(spec.upper)
            src_kind, src_entity = compiled.index.key_of(vid)[0], compiled.index.key_of(vid)[1]
            key = VariableIndex.key("prox", (src_kind, src_entity), None, None, scenario.id)
            wid = augmented.add_variable(0.0, math.inf, CONTINUOUS, _vname(key))
            compiled.index.register(key, wid)
            for v in range(lo, hi):
                f0 = (v - xbar) ** 2
                f1 = (v + 1 - xbar) ** 2
                slope = f1 - f0
                expr = LinearExpr({wid: 1.0, vid: -slope})
                augmented.add_constraint(expr, GE, f0 - slope * v, f"prox_secant[{vid},{v}]")
            if lo == hi:
                augmented.add_constraint(
                    LinearExpr({wid: 1.0}), GE, (lo - xbar) ** 2, f"prox_secant[{vid},fixed]"
                )
            augmented.add_objective_term(wid, 0.5 * rho)
    if tie_break:
        for j, vid in enumerate(ids):
            augmented.add_objective_term(vid, tie_break * (1.0 + j / len(ids)))
    augmented.seal()
    return CompiledProblem(
        problem=augmented,
        index=compiled.index,
        first=compiled.first,
        scenario_ids=compiled.scenario_ids,
        probabilities=compiled.probabilities,
    )


def _as_vector(raw: Sequence[float], n: int, what: str) -> list[float]:
    vec = [float(v) for v in raw]
    if len(vec) != n:
        raise FormulationError(f"expected {n} {what} entries, got {len(vec)}")
    return vec


def first_stage_vector_ids(index: VariableIndex) -> list[int]:
    """First-stage variable ids in a stable order (the hedging vector)."""
    order = {"meg": 0, "mes": 1, "lots": 2, "crew": 3}
    keyed = [
        (order[key[0]], str(key[1]), vid)
        for key, vid in index.items()
        if key[0] in order
    ]
    keyed.sort()
    return [vid for _, _, vid in keyed]


def plan_from_solution(index: VariableIndex, solution: MilpSolution) -> FirstStagePlan:
    meg, mes, lots, crew = {}, {}, {}, {}
    for key, vid in index.items():
        kind, entity = key[0], key[1]
        if kind == "meg":
            meg[entity] = int(round(solution.values[vid]))
        elif kind == "mes":
            mes[entity] = int(round(solution.values[vid]))
        elif kind == "lots":
            lots[entity] = int(round(solution.values[vid]))
        elif kind == "crew":
            crew[entity] = int(round(solution.values[vid]))
    return FirstStagePlan(meg_at=meg, mes_at=mes, fuel_lots=lots, crews=crew)


# -- schedule extraction and objective recomputation -------------------------


@dataclass
class SecondStageSchedule:
    """Per-scenario operation values pulled out of a solved problem."""

    scenario: int
    pickup: dict  # (bus, t) -> 0/1
    energized: dict  # (bus, t) -> 0/1
    line_closed: dict  # (line, t) -> 0/1
    repairing: dict  # (line, t) -> 0/1
    switch_ops: dict  # (line, t) -> 0/1
    charging: dict  # (unit, t) -> 0/1
    flow_p: dict  # (line, phase, t) -> kW
    flow_q: dict
    gen_p: dict  # (unit, phase, t) -> kW
    gen_q: dict
    pv_p: dict
    pv_q: dict
    charge_p: dict
    discharge_p: dict
    storage_q: dict
    soc: dict  # (unit, t) -> fraction
    voltage_sq: dict  # (bus, phase, t) -> pu^2
    virtual_source: dict
    virtual_flow: dict
    fuel_used: dict  # bus -> L


def extract_schedule(
    model: NetworkModel,
    scenario: DamageScenario,
    index: VariableIndex,
    solution: MilpSolution,
    s: int,
) -> SecondStageSchedule:
    vals = solution.values
    T = model.horizon

    def grab(kind):
        out = {}
        for key, vid in index.items():
            if key[0] == kind and key[4] == s:
                if key[2] is None:
                    out[(key[1], key[3]) if key[3] is not None else key[1]] = vals[vid]
                else:
                    out[(key[1], key[2], key[3])] = vals[vid]
        return out

    line_closed = grab("u")
    for line in model.lines:
        for t in range(T):
            if (line.id, t) not in line_closed:
                if line.id in scenario.damaged_lines:
                    line_closed[(line.id, t)] = 0.0
                elif line.switchable and t == 0:
                    line_closed[(line.id, t)] = 0.0 if line.normally_open else 1.0
                else:
                    line_closed[(line.id, t)] = 1.0
    return SecondStageSchedule(
        scenario=s,
        pickup=grab("y"),
        energized=grab("chi"),
        line_closed=line_closed,
        repairing=grab("z"),
        switch_ops=grab("gamma"),
        charging=grab("h"),
        flow_p=grab("pk"),
        flow_q=grab("qk"),
        gen_p=grab("pg"),
        gen_q=grab("qg"),
        pv_p=grab("ppv"),
        pv_q=grab("qpv"),
        charge_p=grab("pch"),
        discharge_p=grab("pdis"),
        storage_q=grab("qess"),
        soc=grab("soc"),
        voltage_sq=grab("volt"),
        virtual_source=grab("vsrc"),
        virtual_flow=grab("vflow"),
        fuel_used=grab("fuel"),
    )


def scenario_cost(
    model: NetworkModel,
    scenario: DamageScenario,
    schedule: SecondStageSchedule,
    config: FormulationConfig,
) -> dict[str, float]:
    """Fuel, switching, and shed cost of one scenario's schedule, in $."""
    dt = model.dt_hours
    fuel_l = sum(v for v in schedule.gen_p.values()) * config.fuel_rate * dt
    switch_ops = sum(schedule.switch_ops.values())
    shed = 0.0
    for b in model.buses:
        for ph in b.phases:
            for t in range(model.horizon):
                d = b.demand_at(ph, t)
                if d:
                    shed += b.shed_cost * (1.0 - schedule.pickup[(b.id, t)]) * d * dt
    return {
        "fuel": config.fuel_cost * fuel_l,
        "switching": config.switch_cost * switch_ops,
        "shed": shed,
    }
