"""Compilation of feeder models and damage scenarios into MILP instances.

Produces the stochastic extensive form (shared first stage, one
probability-weighted operations block per scenario) and single-scenario
subproblems, the one compiled form of a scenario: its copies are priced for
hedging with an exactly linearized proximal term, or pinned to a plan.
Owns big-M derivation, inverter-capacity polygonization, and first-stage
plan handling.  :func:`build_first_stage` is the one statement of the
first-stage rules: HiGHS receives its rows and bounds, and
:meth:`FirstStagePlan.violations` checks a plan against a scratch compile of
them.

:class:`FirstStageVars` is the one map between first-stage columns and plan
entries: it holds the hedging vector's column ids and turns a plan into a
vector (anchors and pins) and a vector into votes.  :data:`KIND_FIELD_MAP`
is the one table from a column's kind to the plan or schedule field that
:func:`plan_from_solution` and :func:`extract_schedule` fill.

Compilation is array-native: each variable family is one block of columns
over an (entity, period) grid, and each constraint family one block of rows
over a grid of the same kind, with its terms given as index arrays.  Rows
and columns come out in the order of the nested entity, phase and period
loops that define them, so the compiled problem is the same bit for bit as
when it was built one row at a time.

Sign convention for nodal balance: line flow is positive in the declared
from->to direction; storage discharging injects and charging draws (the
state-of-charge recursion fixes the charge direction, so the balance uses
discharge minus charge on the injection side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .document import Reader
from .milp import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INTEGER,
    LE,
    MilpProblem,
    MilpSolution,
)
from .network import (
    EssSpec,
    GeneratorSpec,
    LoopSet,
    NetworkModel,
    PvSpec,
    PV_GRID_FOLLOWING,
    PV_GRID_FORMING,
    PV_HYBRID,
    PHASES,
    enumerate_loops,
)
from .parallel import ordered_sum
from .scenarios import DamageScenario, ScenarioSet


class FormulationError(ValueError):
    """Configuration that cannot produce a feasible first stage."""


@dataclass(frozen=True)
class FormulationConfig:
    """Cost, resource, and modeling knobs for the two-stage program.

    :func:`config_from_document` checks each field's type; the ranges are
    checked here."""

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
        caps = {"n_mu_default": self.n_mu_default,
                **{f"n_mu_by_bus[{b!r}]": n for b, n in self.n_mu_by_bus.items()}}
        for key, cap in caps.items():
            if cap < 0:
                raise FormulationError(f"{key} must be nonnegative, got {cap}")

    def n_mu(self, bus: str) -> int:
        return int(self.n_mu_by_bus.get(bus, self.n_mu_default))


def config_from_document(doc: Mapping) -> FormulationConfig:
    return Reader(FormulationError).record(FormulationConfig, doc, "config", strict=True)


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
        """The plan's breaches of the first stage that :func:`build_first_stage`
        compiles, each naming its row or column as :func:`~gridprep.milp.write_lp`
        does: an entry with no column, whatever its value, a value outside its
        column's bounds, and a row broken by more than 1e-9 * (1 + |rhs|).

        ``strict_totals=False`` reads the ``=`` rows, the MEG, MES and crew
        totals, as ``<=``, so a plan may hold back budgeted units and crews.
        A config the feeder cannot meet raises :class:`FormulationError`.
        """
        problem = MilpProblem("first_stage")
        first = build_first_stage(model, config, problem, VariableIndex())
        out = [f"{_vname((kind, entity))} = {value}: no first-stage column"
               for kind in FIRST_STAGE_KINDS
               for entity, value in sorted(getattr(self, KIND_FIELD_MAP[kind][1]).items())
               if entity not in getattr(first, kind)]
        x = np.zeros(problem.num_variables)
        x[first.ids] = first.vector(self)
        _, a_mat, senses, rhs, lower, upper = problem.matrices()
        names = problem.column_names()
        out += [f"{names[j]} = {x[j]:.17g} outside [{lower[j]:.17g}, {upper[j]:.17g}]"
                for j in np.flatnonzero((x < lower) | (x > upper)).tolist()]
        activity = ordered_sum(a_mat.toarray() * x, axis=1)
        for name, ax, sense, b in zip(problem.row_names(), activity.tolist(), senses, rhs.tolist()):
            sense = LE if sense == EQ and not strict_totals else sense
            excess = {LE: ax - b, GE: b - ax, EQ: abs(ax - b)}[sense]
            if excess > 1e-9 * (1.0 + abs(b)):
                out.append(f"{name}: {ax:.17g} is not {sense} {b:.17g}")
        return out


def plan_to_document(plan: FirstStagePlan, quantum: float) -> dict:
    return {
        "meg": sorted(b for b, v in plan.meg_at.items() if v),
        "mes": sorted(b for b, v in plan.mes_at.items() if v),
        "fuel": {b: lots * quantum for b, lots in sorted(plan.fuel_lots.items()) if lots},
        "crews": {r: c for r, c in sorted(plan.crews.items())},
    }


def plan_from_document(doc: Mapping, quantum: float) -> FirstStagePlan:
    """The plan that :func:`plan_to_document` wrote.  A field of the wrong
    type raises ``TypeError``; a bus named twice in ``meg`` or ``mes``, or
    fuel that is not whole lots of ``quantum`` (within 1e-9 relative),
    ``ValueError``."""
    read = Reader(TypeError)
    placed = {}
    for key in ("meg", "mes"):
        buses = read.items(read.get(doc, key, "plan", default=[]), str, f"plan: {key}")
        repeated = sorted({b for b in buses if buses.count(b) > 1})
        if repeated:
            raise ValueError(f"plan: {key} names buses {repeated} more than once")
        placed[key] = dict.fromkeys(buses, 1)
    fuel = read.table(read.get(doc, "fuel", "plan", default={}), float, "plan: fuel")
    lots = {b: round(liters / quantum) for b, liters in fuel.items()}
    for b, liters in fuel.items():
        if not math.isclose(liters, lots[b] * quantum, rel_tol=1e-9):
            raise ValueError(f"plan: fuel[{b!r}] is {liters} L, not a whole number of "
                             f"{quantum} L lots")
    return FirstStagePlan(meg_at=placed["meg"], mes_at=placed["mes"], fuel_lots=lots,
                          crews=read.table(read.get(doc, "crews", "plan", default={}), int,
                                           "plan: crews"))


# -- variable indexing ------------------------------------------------------

#: variable kind -> (owning dataclass, field name): the field of the plan or
#: schedule that holds each kind's column values (see :func:`_by_field`)
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
}

#: the first-stage kinds, in the order the hedging vector takes them
FIRST_STAGE_KINDS = tuple(kind for kind, (owner, _) in KIND_FIELD_MAP.items()
                          if owner == "FirstStagePlan")


class VariableIndex:
    """Map from (kind, entity, phase, period, scenario) to column id."""

    def __init__(self):
        self._by_key: dict[tuple, int] = {}

    def register_block(self, keys: Sequence[tuple], var_ids: Sequence[int]) -> None:
        """Index fresh columns (ids no key holds yet) under ``keys``."""
        before = len(self._by_key)
        self._by_key.update(zip(keys, var_ids))
        if len(self._by_key) != before + len(keys):
            raise KeyError("duplicate variable key in block")

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


def big_m_voltage(model: NetworkModel) -> np.ndarray:
    """Interval bound on each line's voltage-drop expression when the line is
    open, in line order.

    One endpoint may sit at its squared-voltage ceiling while the other is
    de-energized at zero, so the endpoint term alone spans max(U^max); the
    flow term adds twice the worst per-phase impedance-weighted capacity.
    The (line, phase, phase) grid holds 0.0 where a line lacks a phase, which
    leaves every row total of its present phases unchanged.
    """
    lines = model.lines
    u_span = np.array([max(model.u_max(k.from_bus), model.u_max(k.to_bus)) for k in lines])
    on = np.array([[ph in k.phases for ph in PHASES] for k in lines], dtype=bool).reshape(-1, 3)
    weighted = (np.abs(np.array([k.r_matrix for k in lines]).reshape(-1, 3, 3))
                * np.array([k.p_max for k in lines])[:, None, None]
                + np.abs(np.array([k.x_matrix for k in lines]).reshape(-1, 3, 3))
                * np.array([k.q_max for k in lines])[:, None, None])
    rows = ordered_sum(np.where(on[:, :, None] & on[:, None, :], weighted, 0.0), axis=2)
    return u_span + 2.0 * rows.max(axis=1, initial=0.0) / model.base_kva


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
    """The first-stage columns of a compiled problem, and the hedging vector.

    ``meg``, ``mes``, ``lots`` and ``crew`` map each entity to its column,
    in build order.  The hedging vector, which progressive hedging averages,
    prices and pins, takes the same columns by kind, then by ``str(entity)``:
    ``keys[j]`` is the (kind, entity) at position ``j`` and ``ids[j]`` its
    column.  That is not the build order: fuel lots are built in the
    network's fuel-site order but hedged in sorted order, and the tie-break
    cost of :func:`build_ph_subproblem` depends on the position.  ``rows``
    counts the problem's leading rows, up to the first stage's last one,
    which :func:`pin_plan` leaves out.
    """

    meg: dict[str, int]
    mes: dict[str, int]
    lots: dict[str, int]
    crew: dict[str, int]
    rows: int
    keys: list[tuple[str, str]] = field(init=False)
    ids: np.ndarray = field(init=False)

    def __post_init__(self):
        order = sorted(self.columns(), key=lambda c: (FIRST_STAGE_KINDS.index(c[0]), str(c[1])))
        self.keys = [(kind, entity) for kind, entity, _ in order]
        self.ids = np.array([vid for *_, vid in order], dtype=np.int64)

    def columns(self) -> list[tuple[str, str, int]]:
        """(kind, entity, column) of every first-stage column, kind by kind
        and each kind in build order."""
        return [(kind, entity, vid) for kind in FIRST_STAGE_KINDS
                for entity, vid in getattr(self, kind).items()]

    def vector(self, plan: FirstStagePlan) -> np.ndarray:
        """The plan as a hedging vector; an entity the plan leaves out is 0."""
        chosen = {kind: getattr(plan, KIND_FIELD_MAP[kind][1]) for kind in FIRST_STAGE_KINDS}
        return np.array([float(chosen[kind].get(entity, 0)) for kind, entity in self.keys])

    def votes(self, vector: np.ndarray) -> dict[str, dict[str, float]]:
        """A hedging vector's values by kind, then entity."""
        out: dict[str, dict[str, float]] = {kind: {} for kind in FIRST_STAGE_KINDS}
        for (kind, entity), value in zip(self.keys, vector.tolist()):
            out[kind][entity] = value
        return out


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
    unknown = sorted(set(config.n_mu_by_bus) - set(model.candidate_buses))
    if unknown:
        raise FormulationError(f"n_mu_by_bus names buses {unknown} that are not candidate buses")
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


def _columns(
    problem: MilpProblem,
    index: VariableIndex,
    kinds: Sequence[str],
    cells: Sequence[tuple],
    lower: Sequence,
    upper: Sequence,
    vkind: str,
    s: int | None = None,
) -> list[np.ndarray]:
    """One column per kind for each ``(entity, phase, t)`` cell, kinds
    interleaved within a cell; returns each kind's ids in cell order.

    ``lower`` and ``upper`` hold one entry per kind: a number or one value
    per cell.
    """
    n, w = len(cells), len(kinds)
    lo = np.empty((n, w))
    hi = np.empty((n, w))
    for j in range(w):
        lo[:, j] = lower[j]
        hi[:, j] = upper[j]
    keys = [(kind, entity, phase, t, s) for entity, phase, t in cells for kind in kinds]
    start = problem.add_columns(lo.ravel(), hi.ravel(), vkind, lambda: [_vname(k) for k in keys])
    ids = np.arange(start, start + n * w)
    index.register_block(keys, ids.tolist())
    return [ids[j::w] for j in range(w)]


def _rows(problem: MilpProblem, terms, sense, rhs, names, keep=None) -> None:
    """Append one constraint family laid out on a grid of rows.

    Each term is (column ids, coefficients), both broadcast to the grid; a
    zero coefficient leaves the term out of its row.  ``sense`` and ``rhs``
    broadcast to the grid too, ``names()`` lists every grid row's name in C
    order, and ``keep`` marks the rows that exist.
    """
    shapes = [np.shape(x) for term in terms for x in term] + [np.shape(rhs), np.shape(sense)]
    if keep is not None:
        shapes.append(np.shape(keep))
    shape = np.broadcast_shapes(*shapes)
    if not terms or math.prod(shape) == 0:
        return
    cols = np.empty(shape + (len(terms),), dtype=np.int64)
    coefs = np.empty(shape + (len(terms),))
    for j, (ids, coef) in enumerate(terms):
        cols[..., j] = ids
        coefs[..., j] = coef
    cols = cols.reshape(-1, len(terms))
    coefs = coefs.reshape(-1, len(terms))
    if np.ndim(rhs):
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), shape).ravel()
    if not isinstance(sense, str):
        sense = np.broadcast_to(np.asarray(sense), shape).ravel()
    row_names = names
    if keep is not None:
        keep = np.broadcast_to(keep, shape).ravel()
        cols, coefs = cols[keep], coefs[keep]
        rhs = rhs[keep] if np.ndim(rhs) else rhs
        sense = sense if isinstance(sense, str) else sense[keep]
        row_names = lambda: [name for name, kept in zip(names(), keep) if kept]  # noqa: E731
    if len(cols):
        problem.add_rows(cols, coefs, sense, rhs, row_names)


def _col(values, dtype=None) -> np.ndarray:
    """One value per entity, as a column that broadcasts across periods."""
    return np.array(values, dtype=dtype).reshape(-1, 1)


def _padded(groups: Sequence[Sequence[tuple[int, float]]]) -> tuple[np.ndarray, np.ndarray]:
    """(positions, coefficients) of shape (groups, widest group): each
    group's (position, coefficient) pairs, padded with zero coefficients."""
    width = max((len(g) for g in groups), default=0)
    pos = np.zeros((len(groups), width), dtype=np.int64)
    coef = np.zeros((len(groups), width))
    for i, group in enumerate(groups):
        for j, (p, c) in enumerate(group):
            pos[i, j] = p
            coef[i, j] = c
    return pos, coef


def build_first_stage(
    model: NetworkModel,
    config: FormulationConfig,
    problem: MilpProblem,
    index: VariableIndex,
) -> FirstStageVars:
    """Mobile-unit, fuel-lot, and crew variables with their coupling rows."""
    check_first_stage_config(model, config)
    cands = sorted(model.candidate_buses)
    kinds = [kind for kind, template in (("meg", model.meg_template), ("mes", model.mes_template))
             if template is not None]
    placed = _columns(problem, index, kinds, [(b, None, None) for b in cands],
                      [0.0] * len(kinds), [1.0] * len(kinds), BINARY)
    units = {kind: dict(zip(cands, ids.tolist())) for kind, ids in zip(kinds, placed)}
    meg, mes = units.get("meg", {}), units.get("mes", {})
    for group, total, name in ((meg, config.n_meg, "meg_total"), (mes, config.n_mes, "mes_total")):
        if group:
            problem.add_rows([list(group.values())], 1.0, EQ, float(total), [name])
    if placed:
        problem.add_rows(np.stack(placed, axis=1), 1.0, LE, [float(config.n_mu(b)) for b in cands],
                         [f"mobile_cap[{b}]" for b in cands])

    sites = fuel_site_bounds(model, config)
    site_buses = list(model.fuel_site_buses)
    lot_ids, = _columns(problem, index, ["lots"], [(b, None, None) for b in site_buses],
                        [[float(sites[b][0]) for b in site_buses]],
                        [[float(sites[b][1]) for b in site_buses]], INTEGER)
    lots = dict(zip(site_buses, lot_ids.tolist()))
    if lots:
        problem.add_rows([lot_ids], config.fuel_quantum, LE, float(config.n_fuel), ["fuel_budget"])

    crew_ids, = _columns(problem, index, ["crew"], [(r.id, None, None) for r in model.regions],
                         [[float(r.crew_min) for r in model.regions]],
                         [[float(r.crew_max) for r in model.regions]], INTEGER)
    crew = dict(zip((r.id for r in model.regions), crew_ids.tolist()))
    if crew:
        problem.add_rows([crew_ids], 1.0, EQ, float(config.n_crew), ["crew_total"])
    return FirstStageVars(meg=meg, mes=mes, lots=lots, crew=crew, rows=problem.num_constraints)


def _line_status(model: NetworkModel, damaged) -> tuple[np.ndarray, np.ndarray]:
    """(is_var, const), each (lines, periods): whether a line's status is a
    column, and its constant value where it is not (0 where it is).  Damaged
    lines are columns throughout, switches after the first period, where an
    undamaged switch keeps its declared state; every other line is closed."""
    lines, periods = model.lines, range(model.horizon)
    is_var = np.array([[k.id in damaged or (k.switchable and t > 0) for t in periods]
                       for k in lines], dtype=bool).reshape(len(lines), model.horizon)
    const = np.array([[0.0 if (k.switchable and k.normally_open and t == 0) else 1.0
                       for t in periods] for k in lines]).reshape(len(lines), model.horizon)
    const[is_var] = 0.0
    return is_var, const


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
    """One scenario's operations block, objective-weighted by ``weight``.

    Each variable family is one block of columns and each constraint family
    one block of rows, laid out on a grid of entities by period.
    """
    T = model.horizon
    periods = range(T)
    dt = model.dt_hours
    damaged = scenario.damaged_lines
    for lid in damaged:
        model.line(lid)  # raises KeyError for unknown ids
    region_of = {lid: r.id for r in model.regions for lid in r.lines}
    for lid in sorted(damaged):
        if lid not in region_of:
            raise FormulationError(f"damaged line '{lid}' belongs to no region")
    mv = big_m_virtual(model)
    gens = gen_units(model)
    stores = storage_units(model)
    pvs = pv_units(model)
    gf_buses = grid_forming_buses(model)
    buses = model.buses
    lines = model.lines
    line_pos = {k.id: i for i, k in enumerate(lines)}
    bus_pos = {b.id: i for i, b in enumerate(buses)}

    def columns(kinds, cells, lower, upper, vkind=CONTINUOUS):
        """Columns over (entity, phase, t) cells; each kind's ids as an (entities, T) grid."""
        return [ids.reshape(-1, T) for ids in _columns(problem, index, kinds, cells, lower, upper, vkind, s)]

    # entity-phase pairs: one row of the (pair, period) grids below each
    bus_ph = [(b, ph) for b in buses for ph in b.phases]
    line_ph = [(k, ph) for k in lines for ph in k.phases]
    gen_ph = [(gu, ph) for gu in gens for ph in model.bus(gu.bus).phases]
    pv_ph = [(pu, ph) for pu in pvs for ph in model.bus(pu.bus).phases]
    bp_pos = {(b.id, ph): i for i, (b, ph) in enumerate(bus_ph)}
    lp_pos = {(k.id, ph): i for i, (k, ph) in enumerate(line_ph)}

    y, = columns(["y"], [(b.id, None, t) for b in buses for t in periods], [0.0], [1.0], BINARY)
    chi, = columns(["chi"], [(b.id, None, t) for b in buses for t in periods], [0.0], [1.0], BINARY)

    u_is_var, u_const = _line_status(model, damaged)
    u_ids, = _columns(problem, index, ["u"], [(k.id, None, t) for k in lines for t in periods
                                             if u_is_var[line_pos[k.id], t]], [0.0], [1.0], BINARY, s)
    u = np.zeros((len(lines), T), dtype=np.int64)
    u[u_is_var] = u_ids
    u_open = ~u_is_var & (u_const == 0.0)

    repaired = sorted(damaged)
    z, = columns(["z"], [(lid, None, t) for lid in repaired for t in periods], [0.0], [1.0], BINARY)
    gamma, = _columns(problem, index, ["gamma"], [(lid, None, t) for lid in model.switch_ids
                                                  for t in range(1, T)], [0.0], [1.0], BINARY, s)
    gamma = gamma.reshape(len(model.switch_ids), T - 1)
    h, = columns(["h"], [(st.uid, None, t) for st in stores for t in periods], [0.0], [1.0], BINARY)

    def per_period(values):
        return np.repeat(np.asarray(values, dtype=float), T)

    p_max = np.array([k.p_max for k, _ in line_ph])
    q_max = np.array([k.q_max for k, _ in line_ph])
    pk, qk = columns(["pk", "qk"], [(k.id, ph, t) for k, ph in line_ph for t in periods],
                     [per_period(-p_max), per_period(-q_max)], [per_period(p_max), per_period(q_max)])
    pg, qg = columns(["pg", "qg"], [(gu.uid, ph, t) for gu, ph in gen_ph for t in periods],
                     [0.0, 0.0], [per_period([gu.spec.p_max for gu, _ in gen_ph]),
                                  per_period([gu.spec.q_max for gu, _ in gen_ph])])
    irradiance = np.array([scenario.irradiance[t] for t in periods], dtype=float) / 1000.0
    pv_irr = np.array([pu.spec.p_rate for pu, _ in pv_ph])[:, None] * irradiance[None, :]
    s_inv = per_period([pu.spec.s_inverter for pu, _ in pv_ph])
    ppv, qpv = columns(["ppv", "qpv"], [(pu.uid, ph, t) for pu, ph in pv_ph for t in periods],
                       [0.0, -s_inv], [pv_irr.reshape(-1, T).ravel(), s_inv])

    soc, pch, pdis, qess = [], [], [], []
    for st in stores:
        soc.append(columns(["soc"], [(st.uid, None, t) for t in periods],
                           [st.spec.soc_min], [st.spec.soc_max])[0][0])
        cells = [(st.uid, ph, t) for ph in model.bus(st.bus).phases for t in periods]
        ch, dis, q = columns(["pch", "pdis", "qess"], cells, [0.0, 0.0, -st.spec.q_max],
                             [st.spec.p_ch_max, st.spec.p_dis_max, st.spec.q_max])
        pch.append(ch)
        pdis.append(dis)
        qess.append(q)

    volt, = columns(["volt"], [(b.id, ph, t) for b, ph in bus_ph for t in periods],
                    [0.0], [per_period([model.u_max(b.id) for b, _ in bus_ph])])
    vsrc_buses = sorted(gf_buses | set(model.candidate_buses))
    vsrc, = columns(["vsrc"], [(b, None, t) for b in vsrc_buses for t in periods], [0.0], [mv])
    vflow, = columns(["vflow"], [(k.id, None, t) for k in lines for t in periods], [-mv], [mv])
    fuel, = _columns(problem, index, ["fuel"], [(b, None, None) for b in model.fuel_site_buses],
                     [0.0], [float(config.n_fuel)], CONTINUOUS, s)

    # PV output and capacity (grid-following output collapses when de-energized):
    # per unit, phase and period an energization row, then one row per face
    if pvs:
        faces = np.array([polygonize_capacity(pu.spec.s_inverter, config.polygon_segments)
                          for pu, _ in pv_ph])  # (pairs, faces, (a, b, rhs))
        nf = faces.shape[1]
        following = np.array([pu.spec.pv_type == PV_GRID_FOLLOWING for pu, _ in pv_ph])[:, None, None]
        chi_pv = chi[[bus_pos[pu.bus] for pu, _ in pv_ph]]
        grid = (len(pv_ph), T, 1 + nf)

        def slots(first_slot, face_values):
            out = np.empty(grid)
            out[..., 0] = first_slot
            out[..., 1:] = face_values
            return out

        face_rhs = faces[:, None, :, 2]
        _rows(problem,
              [(ppv[..., None], slots(1.0, faces[:, None, :, 0])),
               (qpv[..., None], slots(0.0, faces[:, None, :, 1])),
               (chi_pv[..., None], slots(-pv_irr, np.where(following, -face_rhs, 0.0)))],
              LE, slots(0.0, np.where(following, 0.0, face_rhs)),
              lambda: [name for pu, ph in pv_ph for t in periods
                       for name in [f"pv_energized[{pu.uid},{ph},{t}]"]
                       + [f"pv_cap[{pu.uid},{ph},{t},{fi}]" for fi in range(nf)]],
              keep=slots(following[..., 0], True).astype(bool))

    # virtual network: unit loads reachable from grid-forming sources
    vsrc_pos = {b: i for i, b in enumerate(vsrc_buses)}
    has_vsrc = np.array([[b.id in vsrc_pos] for b in buses], dtype=float)
    incident, sign = _padded([[(i, 1.0 if k.to_bus == b.id else -1.0) for i, k in enumerate(lines)
                               if b.id in (k.to_bus, k.from_bus)] for b in buses])
    _rows(problem,
          ([(vsrc[[vsrc_pos.get(b.id, 0) for b in buses]], has_vsrc)] if vsrc_buses else [])
          + [(chi, -1.0)] + [(vflow[incident[:, j]], sign[:, j, None]) for j in range(incident.shape[1])],
          EQ, 0.0, lambda: [f"virtual_balance[{b.id},{t}]" for b in buses for t in periods])
    _rows(problem, [(vflow[..., None], 1.0), (u[..., None], [-mv, mv, 0.0])],
          [LE, GE, EQ], 0.0,
          lambda: [f"virtual_flow_{x}[{k.id},{t}]" for k in lines for t in periods
                   for x in ("ub", "lb", "open")],
          keep=np.stack([u_is_var, u_is_var, u_open], axis=-1))
    gated = [b for b in vsrc_buses if b not in gf_buses]  # always-on sources keep a plain bound
    _rows(problem,
          [(vsrc[[vsrc_pos[b] for b in gated]], 1.0)]
          + [(_col([group.get(b, 0) for b in gated]), _col([-mv if b in group else 0.0 for b in gated]))
             for group in (first.meg, first.mes)],
          LE, 0.0, lambda: [f"virtual_source_gate[{b},{t}]" for b in gated for t in periods])

    # load pickup needs an energized bus unless a local source exempts it;
    # candidate buses without a fixed source relax by their mobile placements
    local = locally_served_buses(model)
    _rows(problem,
          [(y, 1.0), (chi, -1.0)]
          + [(_col([group.get(b.id, 0) for b in buses]),
              _col([-1.0 if b.id in group else 0.0 for b in buses])) for group in (first.meg, first.mes)],
          LE, 0.0,
          lambda: [f"pickup_{'mobile' if b.id in model.candidate_buses else 'energized'}[{b.id},{t}]"
                   for b in buses for t in periods],
          keep=_col([b.id not in local for b in buses]))

    # nodal balance per bus, phase and period: the P row, then the Q row
    def at_bus(pairs, sign):
        pos = {}
        for i, (unit, ph) in enumerate(pairs):
            pos.setdefault((unit.bus, ph), []).append((i, sign))
        return _padded([pos.get((b.id, ph), []) for b, ph in bus_ph])

    line_at, line_sign = _padded([[(lp_pos[(k.id, ph)], 1.0 if k.from_bus == b.id else -1.0)
                                   for k in lines if ph in k.phases and b.id in (k.from_bus, k.to_bus)]
                                  for b, ph in bus_ph])
    gen_at, gen_sign = at_bus(gen_ph, -1.0)
    pv_at, pv_sign = at_bus(pv_ph, -1.0)
    store_ph = [(st, ph) for st in stores for ph in model.bus(st.bus).phases]
    store_at, store_sign = at_bus(store_ph, -1.0)
    pch_all, pdis_all, qess_all = (np.concatenate(x) if x else np.zeros((0, T), dtype=np.int64)
                                   for x in (pch, pdis, qess))

    def pq(p_ids, q_ids, pos, coef, j):
        return np.stack([p_ids[pos[:, j]], q_ids[pos[:, j]]], axis=-1), coef[:, j, None, None]

    y_bp = y[[bus_pos[b.id] for b, _ in bus_ph]]
    demand = np.array([[b.demand_at(ph, t) for t in periods] for b, ph in bus_ph]).reshape(-1, T)
    reactive = np.array([[b.reactive_at(ph, t) for t in periods] for b, ph in bus_ph]).reshape(-1, T)
    _rows(problem,
          [pq(pk, qk, line_at, line_sign, j) for j in range(line_at.shape[1])]
          + [pq(pg, qg, gen_at, gen_sign, j) for j in range(gen_at.shape[1])]
          + [pq(ppv, qpv, pv_at, pv_sign, j) for j in range(pv_at.shape[1])]
          + [pq(pdis_all, qess_all, store_at, store_sign, j) for j in range(store_at.shape[1])]
          + [(pch_all[store_at[:, j]][..., None], -store_sign[:, j, None, None] * np.array([1.0, 0.0]))
             for j in range(store_at.shape[1])]
          + [(y_bp[..., None], np.stack([demand, reactive], axis=-1))],
          EQ, 0.0,
          lambda: [f"balance_{x}[{b.id},{ph},{t}]" for b, ph in bus_ph for t in periods for x in "pq"])

    # flow limits gate on line status where the status is a variable
    lp_line = [line_pos[k.id] for k, _ in line_ph]
    lp_var, lp_open = u_is_var[lp_line], u_open[lp_line]
    _rows(problem,
          [(np.stack([pk, pk, qk, qk, pk, qk], axis=-1), 1.0),
           (u[lp_line][..., None],
            np.stack([-p_max, p_max, -q_max, q_max, 0.0 * p_max, 0.0 * q_max], axis=-1)[:, None, :])],
          [LE, GE, LE, GE, EQ, EQ], 0.0,
          lambda: [f"flow_{x}[{k.id},{ph},{t}]" for k, ph in line_ph for t in periods
                   for x in ("p_ub", "p_lb", "q_ub", "q_lb", "p_open", "q_open")],
          keep=np.stack([lp_var] * 4 + [lp_open] * 2, axis=-1))

    # mobile generator capacity follows its placement binary
    mobile = [i for i, (gu, _) in enumerate(gen_ph) if gu.mobile]
    _rows(problem,
          [(np.stack([pg[mobile], qg[mobile]], axis=-1), 1.0),
           (_col([first.meg[gen_ph[i][0].bus] for i in mobile])[:, None],
            np.array([[-gen_ph[i][0].spec.p_max, -gen_ph[i][0].spec.q_max] for i in mobile])
            .reshape(-1, 1, 2))],
          LE, 0.0,
          lambda: [f"meg_gate_{x}[{gen_ph[i][0].uid},{gen_ph[i][1]},{t}]"
                   for i in mobile for t in periods for x in "pq"])

    # voltage drop along closed lines, relaxed by big-M while open
    m_line = big_m_voltage(model)[lp_line]
    impedance = []
    for k, ph in line_ph:
        i = "abc".index(ph)
        row = []
        for ph2 in k.phases:
            j = "abc".index(ph2)
            row.append((lp_pos[(k.id, ph2)], -(2.0 * k.r_matrix[i][j] / model.base_kva),
                        -(2.0 * k.x_matrix[i][j] / model.base_kva)))
        impedance.append(row)
    imp_at, r_coef = _padded([[(p, r) for p, r, _ in row] for row in impedance])
    _, x_coef = _padded([[(p, x) for p, _, x in row] for row in impedance])
    big_m = np.stack([-m_line, m_line, 0.0 * m_line], axis=-1)[:, None, :]
    _rows(problem,
          [(volt[[bp_pos[(k.from_bus, ph)] for k, ph in line_ph]][..., None], 1.0),
           (volt[[bp_pos[(k.to_bus, ph)] for k, ph in line_ph]][..., None], -1.0)]
          + [(pk[imp_at[:, j]][..., None], r_coef[:, j, None, None]) for j in range(imp_at.shape[1])]
          + [(qk[imp_at[:, j]][..., None], x_coef[:, j, None, None]) for j in range(imp_at.shape[1])]
          + [(u[lp_line][..., None], big_m)],
          [GE, LE, EQ], big_m,
          lambda: [f"volt_drop_{x}[{k.id},{ph},{t}]" for k, ph in line_ph for t in periods
                   for x in ("lo", "hi", "eq")],
          keep=np.stack([lp_var, lp_var, ~lp_var & (u_const[lp_line] == 1.0)], axis=-1))

    # voltage window scales with the energization flag
    chi_bp = chi[[bus_pos[b.id] for b, _ in bus_ph]]
    _rows(problem,
          [(volt[..., None], 1.0),
           (chi_bp[..., None], -np.array([[model.u_max(b.id), model.u_min(b.id)] for b, _ in bus_ph])
            .reshape(-1, 1, 2))],
          [LE, GE], 0.0,
          lambda: [f"volt_range_{x}[{b.id},{ph},{t}]" for b, ph in bus_ph for t in periods
                   for x in ("hi", "lo")])

    # radiality: every enumerated cycle keeps at least one member open
    members = [sorted(loop.members) for loop in loops]
    loop_at, in_loop = _padded([[(line_pos[lid], 1.0) for lid in m] for m in members])
    var = u_is_var[loop_at] & (in_loop[..., None] > 0)  # (loops, members, T)
    closed = ordered_sum(np.where(var, 0.0, u_const[loop_at] * in_loop[..., None]), axis=1)
    _rows(problem, [(u[loop_at[:, j]], var[:, j]) for j in range(loop_at.shape[1])],
          LE, _col([len(m) - 1.0 for m in members]) - closed,
          lambda: [f"radiality[{li},{t}]" for li in range(len(members)) for t in periods])

    # repair crews: regional capacity, then per damaged line its effort
    # budget and, per period, the status release (both bounds)
    crews = [(r, [i for i, lid in enumerate(repaired) if region_of[lid] == r.id]) for r in model.regions]
    crews = [(r, m) for r, m in crews if m]
    crew_z, crew_coef = _padded([[(i, 1.0) for i in m] for _, m in crews])
    _rows(problem,
          [(z[crew_z[:, j]], crew_coef[:, j, None]) for j in range(crew_z.shape[1])]
          + [(_col([first.crew[r.id] for r, _ in crews]), -1.0)],
          LE, 0.0, lambda: [f"crew_region[{r.id},{t}]" for r, _ in crews for t in periods])
    needed = _col([float(scenario.repair_periods[lid]) for lid in repaired])
    ts = np.arange(T)
    u_dmg = u[[line_pos[lid] for lid in repaired]].reshape(-1, T)
    _rows(problem,
          [(np.concatenate([u_dmg[:, :1], np.repeat(u_dmg, 2, axis=1)], axis=1),
            np.concatenate([[0.0], np.ones(2 * T)]))]
          + [(z[:, tau, None], np.concatenate(
              [np.ones_like(needed), np.repeat(np.where(tau < ts, -1.0 / needed, 0.0), 2, axis=1)], axis=1))
             for tau in periods],
          np.concatenate([[LE], np.tile([LE, GE], T)]),
          np.concatenate([needed, np.tile([0.0, config.crew_epsilon - 1.0], (len(repaired), T))], axis=1),
          lambda: [name for lid in repaired
                   for name in [f"repair_budget[{lid}]"]
                   + [f"repair_progress_{x}[{lid},{t}]" for t in periods for x in ("ub", "lb")]])

    # switching operations count closed/open transitions
    sw = [line_pos[lid] for lid in model.switch_ids]
    now_var, prev_var = u_is_var[sw, 1:][..., None], u_is_var[sw, :-1][..., None]
    now_const, prev_const = u_const[sw, 1:][..., None], u_const[sw, :-1][..., None]
    turn = np.array([-1.0, 1.0])  # coefficient on u(t) in the pos and neg rows
    constant = (0.0 + np.where(now_var, 0.0, turn * now_const)) + np.where(prev_var, 0.0, -turn * prev_const)
    _rows(problem,
          [(gamma[..., None], 1.0),
           (u[sw, 1:][..., None], np.where(now_var, turn, 0.0)),
           (u[sw, :-1][..., None], np.where(prev_var, -turn, 0.0))],
          GE, 0.0 - constant,
          lambda: [f"switch_change_{x}[{lid},{t}]" for lid in model.switch_ids for t in range(1, T)
                   for x in ("pos", "neg")])

    # storage dynamics and mutual exclusion of charge/discharge
    for st, soc_ids, ch, dis, q, h_ids in zip(stores, soc, pch, pdis, qess, h):
        cap = st.spec.e_cap
        phases = model.bus(st.bus).phases
        _rows(problem,
              [(soc_ids, 1.0), (np.roll(soc_ids, 1), np.where(ts > 0, -1.0, 0.0))]
              + [(ch[i], -dt * st.spec.eta_ch / cap) for i in range(len(phases))]
              + [(dis[i], dt / (st.spec.eta_dis * cap)) for i in range(len(phases))],
              EQ, np.where(ts == 0, st.spec.soc_init, 0.0),
              lambda st=st: [f"soc_step[{st.uid},{t}]" for t in periods])
        gates = ["charge_excl", "discharge_excl"]
        unit_ids = [ch, dis]
        gate_ids = [np.broadcast_to(h_ids, ch.shape)] * 2
        gate_coef = [-st.spec.p_ch_max, st.spec.p_dis_max]
        senses, rhs = [LE, LE], [0.0, st.spec.p_dis_max]
        if st.mobile:
            mes_ids = np.full(ch.shape, first.mes[st.bus], dtype=np.int64)
            gates += ["mes_gate_ch", "mes_gate_dis", "mes_gate_q_ub", "mes_gate_q_lb"]
            unit_ids += [ch, dis, q, q]
            gate_ids += [mes_ids] * 4
            gate_coef += [-st.spec.p_ch_max, -st.spec.p_dis_max, -st.spec.q_max, st.spec.q_max]
            senses += [LE, LE, LE, GE]
            rhs += [0.0] * 4
        _rows(problem,
              [(np.stack(unit_ids, axis=-1), 1.0), (np.stack(gate_ids, axis=-1), np.array(gate_coef))],
              senses, rhs,
              lambda st=st, phases=phases, gates=gates: [f"{g}[{st.uid},{ph},{t}]" for ph in phases
                                                        for t in periods for g in gates])

    # scenario fuel use per site, capped by the allocated lots
    sites = list(model.fuel_site_buses)
    burn_at, burn = _padded([[(pg[i, t], -config.fuel_rate * dt) for i, (gu, _) in enumerate(gen_ph)
                              if gu.bus == b for t in periods] for b in sites])
    _rows(problem,
          [(fuel[:, None], 1.0),
           (np.array([[first.lots[b]] for b in sites], dtype=np.int64), [0.0, -config.fuel_quantum])]
          + [(burn_at[:, j, None], burn[:, j, None] * np.array([1.0, 0.0])) for j in range(burn_at.shape[1])],
          [EQ, LE], 0.0, lambda: [f"fuel_{x}[{b}]" for b in sites for x in ("def", "cap")])

    # objective: fuel burn, switching operations, unserved demand
    problem.add_objective(fuel, weight * config.fuel_cost)
    problem.add_objective(gamma.ravel(), weight * config.switch_cost)
    shed_cost = np.array([b.shed_cost for b, _ in bus_ph])[:, None]
    served = demand != 0.0
    problem.add_objective(y_bp[served], (-weight * shed_cost * demand * dt)[served])
    shed = (weight * shed_cost * demand * dt)[served]
    problem.objective_constant += ordered_sum(shed)


@dataclass
class CompiledProblem:
    problem: MilpProblem
    index: VariableIndex
    first: FirstStageVars
    scenario_ids: tuple[int, ...]


def build_extensive_form(
    model: NetworkModel,
    scen_set: ScenarioSet,
    config: FormulationConfig,
    loops: LoopSet | None = None,
) -> CompiledProblem:
    """Single MILP with one shared first stage and all weighted scenarios."""
    if loops is None:
        loops = enumerate_loops(model)
    problem = MilpProblem("extensive_form")
    index = VariableIndex()
    first = build_first_stage(model, config, problem, index)
    for si, scen in enumerate(scen_set.scenarios):
        build_second_stage(model, scen, config, problem, index, first, loops, si, scen.probability)
    return CompiledProblem(problem.seal(), index, first, tuple(sc.id for sc in scen_set.scenarios))


def build_subproblem(
    model: NetworkModel,
    scenario: DamageScenario,
    config: FormulationConfig,
    loops: LoopSet | None = None,
) -> CompiledProblem:
    """Deterministic single-scenario problem (full weight on the scenario)."""
    if loops is None:
        loops = enumerate_loops(model)
    problem = MilpProblem(f"scenario_{scenario.id}")
    index = VariableIndex()
    first = build_first_stage(model, config, problem, index)
    build_second_stage(model, scenario, config, problem, index, first, loops, scenario.id, 1.0)
    return CompiledProblem(problem.seal(), index, first, (scenario.id,))


def pin_plan(compiled: CompiledProblem, plan: FirstStagePlan) -> MilpProblem:
    """A sealed copy of a compiled scenario with every first-stage column
    fixed at the plan's value and the first-stage rows, which
    :meth:`FirstStagePlan.violations` checks, left out; so a thrifty plan
    (fewer units or crews than budgeted) meets no totals equality.  The
    columns keep their ids, so ``compiled.index`` reads the copy.  A plan
    entry with no column is not pinned; ``violations`` reports it.
    """
    first = compiled.first
    values = first.vector(plan)
    pinned = compiled.problem.copy(drop_rows=first.rows)
    pinned.set_bounds(first.ids, values, values)
    return pinned.seal()


def build_ph_subproblem(
    plain: CompiledProblem,
    multipliers: Sequence[float],
    anchor: Sequence[float],
    rho: float,
    tie_break: float = 0.0,
) -> CompiledProblem:
    """A copy of a compiled scenario subproblem with the hedging price,
    proximal term and tie-break added; ``plain`` stays as it was.

    ``multipliers`` and ``anchor`` are keyed by position in the hedging
    vector (see :class:`FirstStageVars`).  Binary deviations expand exactly;
    integer lots/crews get a secant chain that is exact at integers, whose
    columns come after every column of ``plain`` and stay out of its index.
    After those terms, position ``j`` of ``n`` costs ``tie_break * (1 + j / n)``
    more, so exact ties resolve the same way in every scenario.
    """
    first = plain.first
    ids = first.ids
    eta = _as_vector(multipliers, len(ids), "multipliers")
    xbar = _as_vector(anchor, len(ids), "anchor")
    augmented = plain.problem.copy()
    priced = eta != 0.0
    augmented.add_objective(ids[priced], eta[priced])
    if rho != 0.0:
        lower, upper = (bound[ids] for bound in augmented.column_bounds())
        binary = augmented.kind_mask(BINARY)[ids]
        # (x - xbar)^2 == (1 - 2 xbar) x + xbar^2 for binary x
        augmented.add_objective(ids[binary], 0.5 * rho * (1.0 - 2.0 * xbar[binary]))
        augmented.objective_constant = ordered_sum(0.5 * rho * xbar[binary] * xbar[binary],
                                                   start=augmented.objective_constant)
        general = np.flatnonzero(~binary)
        s = plain.scenario_ids[0]
        start = augmented.add_columns(
            np.zeros(len(general)), np.full(len(general), math.inf), CONTINUOUS,
            lambda: [_vname(("prox", first.keys[p], None, None, s)) for p in general])
        cols, coefs, rhs, names = [], [], [], []
        for wid, p in enumerate(general, start):
            vid, xb = int(ids[p]), float(xbar[p])
            lo, hi = int(lower[p]), int(upper[p])
            for v in range(lo, hi):
                f0 = (v - xb) ** 2
                slope = (v + 1 - xb) ** 2 - f0
                cols.append((wid, vid))
                coefs.append((1.0, -slope))
                rhs.append(f0 - slope * v)
                names.append(f"prox_secant[{vid},{v}]")
            if lo == hi:
                cols.append((wid, vid))
                coefs.append((1.0, 0.0))
                rhs.append((lo - xb) ** 2)
                names.append(f"prox_secant[{vid},fixed]")
        if cols:
            augmented.add_rows(cols, coefs, GE, rhs, names)
        augmented.add_objective(np.arange(start, start + len(general)), 0.5 * rho)
    if tie_break:
        augmented.add_objective(ids, tie_break * (1.0 + np.arange(len(ids)) / len(ids)))
    return replace(plain, problem=augmented.seal())


def _as_vector(raw: Sequence[float], n: int, what: str) -> np.ndarray:
    vec = np.asarray(raw, dtype=float)
    if vec.shape != (n,):
        raise FormulationError(f"expected {n} {what} entries, got shape {vec.shape}")
    return vec


def _by_field(index: VariableIndex, values: np.ndarray, owner: str, s: int | None) -> dict[str, dict]:
    """Column values of scenario ``s`` (``None``: the first stage) for each
    field of ``owner`` in :data:`KIND_FIELD_MAP`, keyed by entity,
    (entity, t) or (entity, phase, t) as the column's key has them, as
    Python floats."""
    values = values.tolist()
    out: dict[str, dict] = {name: {} for cls, name in KIND_FIELD_MAP.values() if cls == owner}
    for (kind, entity, phase, t, scen), vid in index.items():
        cls, name = KIND_FIELD_MAP[kind]
        if cls == owner and scen == s:
            entry = (entity, phase, t) if phase is not None else entity if t is None else (entity, t)
            out[name][entry] = values[vid]
    return out


def plan_from_solution(index: VariableIndex, solution: MilpSolution) -> FirstStagePlan:
    found = _by_field(index, solution.values, "FirstStagePlan", None)
    return FirstStagePlan(**{name: {entity: int(round(v)) for entity, v in got.items()}
                             for name, got in found.items()})


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
    found = _by_field(index, solution.values, "SecondStageSchedule", s)
    # a line status that is no column is the constant the formulation used
    is_var, const = _line_status(model, scenario.damaged_lines)
    closed = const.tolist()
    for i, t in np.argwhere(~is_var).tolist():
        found["line_closed"][(model.lines[i].id, t)] = closed[i][t]
    return SecondStageSchedule(scenario=s, **found)


def scenario_cost(
    model: NetworkModel,
    scenario: DamageScenario,
    schedule: SecondStageSchedule,
    config: FormulationConfig,
) -> dict[str, float]:
    """Fuel, switching, and shed cost of one scenario's schedule, in $."""
    dt = model.dt_hours
    fuel_l = ordered_sum(list(schedule.gen_p.values())) * config.fuel_rate * dt
    switch_ops = ordered_sum(list(schedule.switch_ops.values()))
    shed = ordered_sum([b.shed_cost * (1.0 - schedule.pickup[(b.id, t)]) * d * dt
                        for b in model.buses for ph in b.phases for t in range(model.horizon)
                        if (d := b.demand_at(ph, t))])
    return {
        "fuel": config.fuel_cost * fuel_l,
        "switching": config.switch_cost * switch_ops,
        "shed": shed,
    }
