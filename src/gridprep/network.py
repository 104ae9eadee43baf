"""Three-phase feeder data model, document loading, and cycle enumeration.

The network document is a single JSON file (UTF-8) with top-level keys
``base``, ``horizon``, ``dt_hours``, ``buses``, ``lines``, ``switches``,
``regions``, ``generators``, ``pv``, ``ess``, ``candidate_buses`` and the
mobile-unit templates ``meg`` / ``mes``.  All powers are kW/kVAr, impedances
per-unit on ``base.kva`` (single-phase power base), voltages squared per-unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .document import Reader, loads
from .parallel import ordered_sum

PHASES = ("a", "b", "c")

PV_GRID_FOLLOWING = "grid_following"
PV_HYBRID = "hybrid"
PV_GRID_FORMING = "grid_forming"
PV_TYPES = (PV_GRID_FOLLOWING, PV_HYBRID, PV_GRID_FORMING)


class NetworkParseError(ValueError):
    """Malformed network document (bad JSON or missing/ill-typed keys)."""


class NetworkValidationError(ValueError):
    """Structurally parseable document that violates a model invariant."""


@dataclass(frozen=True)
class Bus:
    id: str
    phases: tuple[str, ...]
    demand_p: Mapping[str, tuple[float, ...]]  # kW per phase, length T
    demand_q: Mapping[str, tuple[float, ...]]  # kVAr per phase, length T
    shed_cost: float  # $/kWh
    priority: bool = False
    substation: bool = False

    def demand_at(self, phase: str, t: int) -> float:
        prof = self.demand_p.get(phase)
        return prof[t] if prof is not None else 0.0

    def reactive_at(self, phase: str, t: int) -> float:
        prof = self.demand_q.get(phase)
        return prof[t] if prof is not None else 0.0

    def total_demand(self, t: int) -> float:
        return ordered_sum([self.demand_at(ph, t) for ph in self.phases])


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    phases: tuple[str, ...]
    r_matrix: tuple[tuple[float, ...], ...]  # 3x3, per-unit
    x_matrix: tuple[tuple[float, ...], ...]  # 3x3, per-unit
    p_max: float  # kW per phase
    q_max: float  # kVAr per phase
    switchable: bool = False
    normally_open: bool = False
    poles: int = 0
    spans: int = 0
    underground_prob: float = 0.0


@dataclass(frozen=True)
class GeneratorSpec:
    bus: str
    p_max: float  # kW per phase
    q_max: float  # kVAr per phase
    fuel_present: float = 0.0  # L already on site
    fuel_cap: float = 0.0  # L tank capacity
    grid_forming: bool = True

    def __post_init__(self):
        if self.p_max < 0 or self.q_max < 0:
            raise NetworkValidationError(f"generator at {self.bus}: caps must be nonnegative")
        if not 0 <= self.fuel_present <= self.fuel_cap:
            raise NetworkValidationError(
                f"generator at {self.bus}: require 0 <= fuel_present <= fuel_cap")


@dataclass(frozen=True)
class PvSpec:
    bus: str
    pv_type: str
    p_rate: float  # kW panel rating (per phase cap)
    s_inverter: float  # kVA inverter capacity

    def __post_init__(self):
        if self.pv_type not in PV_TYPES:
            raise NetworkValidationError(f"pv at {self.bus}: pv_type must be one of {PV_TYPES}")
        if self.p_rate < 0 or self.s_inverter < 0:
            raise NetworkValidationError(f"pv at {self.bus}: ratings must be nonnegative")


@dataclass(frozen=True)
class EssSpec:
    bus: str
    e_cap: float  # kWh
    soc_init: float
    p_ch_max: float  # kW per phase
    p_dis_max: float
    soc_min: float = 0.0
    soc_max: float = 1.0
    q_max: float = 0.0  # kVAr per phase
    eta_ch: float = 0.95
    eta_dis: float = 0.95

    def __post_init__(self):
        ctx = f"storage at {self.bus}"
        if not (0.0 <= self.soc_min <= self.soc_init <= self.soc_max <= 1.0):
            raise NetworkValidationError(f"{ctx}: require 0 <= soc_min <= soc_init <= soc_max <= 1")
        if min(self.e_cap, self.p_ch_max, self.p_dis_max, self.q_max) < 0:
            raise NetworkValidationError(f"{ctx}: storage limits must be nonnegative")
        if not (0 < self.eta_ch <= 1.0 and 0 < self.eta_dis <= 1.0):
            raise NetworkValidationError(f"{ctx}: efficiencies must lie in (0, 1]")


@dataclass(frozen=True)
class Region:
    id: str
    depot_bus: str
    lines: tuple[str, ...]
    crew_min: int = 0
    crew_max: int = 10**6


@dataclass(frozen=True)
class Loop:
    """One independent cycle; ``members`` are the line ids forming it."""

    members: frozenset[str]


@dataclass(frozen=True)
class LoopSet:
    loops: tuple[Loop, ...]

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)


@dataclass(frozen=True)
class NetworkModel:
    """Immutable feeder description; safe to share across threads."""

    base_kva: float
    base_kv: float
    horizon: int
    dt_hours: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    regions: tuple[Region, ...]
    generators: tuple[GeneratorSpec, ...]
    pv_units: tuple[PvSpec, ...]
    ess_units: tuple[EssSpec, ...]
    candidate_buses: frozenset[str]
    meg_template: GeneratorSpec | None = None
    mes_template: EssSpec | None = None
    u_min_default: float = 0.81
    u_max_default: float = 1.21
    u_min_by_bus: Mapping[str, float] = field(default_factory=dict)
    u_max_by_bus: Mapping[str, float] = field(default_factory=dict)

    def bus(self, bus_id: str) -> Bus:
        return self._bus_map[bus_id]

    def line(self, line_id: str) -> Line:
        return self._line_map[line_id]

    @cached_property
    def _bus_map(self) -> dict[str, Bus]:
        return {b.id: b for b in self.buses}

    @cached_property
    def _line_map(self) -> dict[str, Line]:
        return {k.id: k for k in self.lines}

    @property
    def switch_ids(self) -> tuple[str, ...]:
        return tuple(k.id for k in self.lines if k.switchable)

    @property
    def fuel_site_buses(self) -> tuple[str, ...]:
        """Buses eligible for a fuel allotment: generator sites plus candidates."""
        seen = list(dict.fromkeys([g.bus for g in self.generators]))
        for b in sorted(self.candidate_buses):
            if b not in seen:
                seen.append(b)
        return tuple(seen)

    def u_min(self, bus_id: str) -> float:
        return self.u_min_by_bus.get(bus_id, self.u_min_default)

    def u_max(self, bus_id: str) -> float:
        return self.u_max_by_bus.get(bus_id, self.u_max_default)


_read = Reader(NetworkParseError, NetworkValidationError)


def _matrix3(doc: Mapping, key: str, ctx: str) -> tuple[tuple[float, ...], ...]:
    rows = _read.items(_read.get(doc, key, ctx), list, f"{ctx}: {key}")
    m = tuple(tuple(_read.items(row, float, f"{ctx}: {key}[{i}]")) for i, row in enumerate(rows))
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise NetworkParseError(f"{ctx}: {key} must be 3x3")
    for i in range(3):
        for j in range(3):
            if abs(m[i][j] - m[j][i]) > 1e-12:
                raise NetworkValidationError(f"{ctx}: {key} not symmetric")
    return m


def _phases(raw, ctx: str) -> tuple[str, ...]:
    phs = tuple(raw) if isinstance(raw, (str, list)) else ()
    if not phs or any(p not in PHASES for p in phs) or len(set(phs)) != len(phs):
        raise NetworkParseError(f"{ctx}: phases must be a nonempty subset of 'abc'")
    return tuple(p for p in PHASES if p in phs)


def _profile(doc: Mapping, key: str, phases: Sequence[str], horizon: int, ctx: str) -> dict[str, tuple[float, ...]]:
    raw = _read.get(doc, key, ctx, default={})
    if not isinstance(raw, Mapping):
        raise NetworkParseError(f"{ctx}: {key} must map phases to lists of numbers")
    out: dict[str, tuple[float, ...]] = {}
    for ph, prof in raw.items():
        if ph not in phases:
            raise NetworkValidationError(f"{ctx}: {key} declared on absent phase '{ph}'")
        vals = tuple(_read.items(prof, float, f"{ctx}: {key} on phase '{ph}'"))
        if len(vals) != horizon:
            raise NetworkValidationError(
                f"{ctx}: {key} on phase '{ph}' has length {len(vals)}, horizon is {horizon}"
            )
        if any(v < 0 for v in vals):
            raise NetworkValidationError(f"{ctx}: negative {key} on phase '{ph}'")
        out[ph] = vals
    return out


def load_network(text: str) -> NetworkModel:
    """Parse and validate a network document's JSON text; raises on the first violation."""
    return network_from_document(loads(text, NetworkParseError))


def network_from_document(doc: Mapping) -> NetworkModel:
    base = _read.get(doc, "base", "document")
    base_kva = _read.get(base, "kva", "base", float)
    base_kv = _read.get(base, "kv", "base", float)
    horizon = _read.get(doc, "horizon", "document", int)
    dt_hours = _read.get(doc, "dt_hours", "document", float)
    if horizon < 1:
        raise NetworkValidationError("horizon must be >= 1")
    if dt_hours <= 0:
        raise NetworkValidationError("dt_hours must be > 0")
    if base_kva <= 0 or base_kv <= 0:
        raise NetworkValidationError("base kva/kv must be > 0")

    vl = _read.get(doc, "voltage_limits", "document", default={})
    u_min_default = _read.get(vl, "u_min", "voltage_limits", float, 0.81)
    u_max_default = _read.get(vl, "u_max", "voltage_limits", float, 1.21)

    buses = []
    u_min_by_bus: dict[str, float] = {}
    u_max_by_bus: dict[str, float] = {}
    for raw_bus in _read.get(doc, "buses", "document", list):
        bid = _read.get(raw_bus, "id", "bus", str)
        ctx = f"bus {bid}"
        phases = _phases(_read.get(raw_bus, "phases", ctx), ctx)
        bus = Bus(
            id=bid,
            phases=phases,
            demand_p=_profile(raw_bus, "demand_p", phases, horizon, ctx),
            demand_q=_profile(raw_bus, "demand_q", phases, horizon, ctx),
            shed_cost=_read.get(raw_bus, "shed_cost", ctx, float, 0.0),
            priority=_read.get(raw_bus, "priority", ctx, bool, False),
            substation=_read.get(raw_bus, "substation", ctx, bool, False),
        )
        if bus.shed_cost < 0:
            raise NetworkValidationError(f"{ctx}: shed_cost must be nonnegative")
        if "u_min" in raw_bus:
            u_min_by_bus[bid] = _read.get(raw_bus, "u_min", ctx, float)
        if "u_max" in raw_bus:
            u_max_by_bus[bid] = _read.get(raw_bus, "u_max", ctx, float)
        buses.append(bus)
    bus_ids = [b.id for b in buses]
    if len(set(bus_ids)) != len(bus_ids):
        raise NetworkValidationError("duplicate bus ids in document")
    bus_map = {b.id: b for b in buses}

    for bid in bus_ids:
        lo = u_min_by_bus.get(bid, u_min_default)
        hi = u_max_by_bus.get(bid, u_max_default)
        if not lo < hi:
            raise NetworkValidationError(f"bus {bid}: require u_min < u_max")

    switch_flags: dict[str, bool] = {}
    for i, entry in enumerate(_read.get(doc, "switches", "document", list, [])):
        ctx, record = f"switches[{i}]", isinstance(entry, Mapping)
        lid = _read.get(entry, "line", ctx, str) if record else _read.value(entry, str, ctx)
        if lid in switch_flags:
            raise NetworkValidationError(f"{ctx}: line '{lid}' is listed twice in switches")
        switch_flags[lid] = record and _read.get(entry, "normally_open", ctx, bool, False)

    lines = []
    for raw_line in _read.get(doc, "lines", "document", list):
        lid = _read.get(raw_line, "id", "line", str)
        ctx = f"line {lid}"
        frm = _read.get(raw_line, "from_bus", ctx, str)
        to = _read.get(raw_line, "to_bus", ctx, str)
        if frm not in bus_map:
            raise NetworkValidationError(f"{ctx}: references unknown bus '{frm}'")
        if to not in bus_map:
            raise NetworkValidationError(f"{ctx}: references unknown bus '{to}'")
        if frm == to:
            raise NetworkValidationError(f"{ctx}: degenerate self-loop (from == to)")
        phases = _phases(_read.get(raw_line, "phases", ctx), ctx)
        for ph in phases:
            if ph not in bus_map[frm].phases or ph not in bus_map[to].phases:
                raise NetworkValidationError(
                    f"{ctx}: phase '{ph}' not present at both endpoints"
                )
        line = Line(
            id=lid,
            from_bus=frm,
            to_bus=to,
            phases=phases,
            r_matrix=_matrix3(raw_line, "r_matrix", ctx),
            x_matrix=_matrix3(raw_line, "x_matrix", ctx),
            p_max=_read.get(raw_line, "p_max", ctx, float),
            q_max=_read.get(raw_line, "q_max", ctx, float),
            switchable=lid in switch_flags,
            normally_open=switch_flags.get(lid, False),
            poles=_read.get(raw_line, "poles", ctx, int, 0),
            spans=_read.get(raw_line, "spans", ctx, int, 0),
            underground_prob=_read.get(raw_line, "underground_prob", ctx, float, 0.0),
        )
        if line.p_max < 0 or line.q_max < 0:
            raise NetworkValidationError(f"{ctx}: flow limits must be nonnegative")
        if line.poles < 0 or line.spans < 0:
            raise NetworkValidationError(f"{ctx}: poles/spans must be nonnegative")
        if not 0.0 <= line.underground_prob <= 1.0:
            raise NetworkValidationError(f"{ctx}: underground_prob must lie in [0, 1]")
        lines.append(line)
    line_ids = [k.id for k in lines]
    if len(set(line_ids)) != len(line_ids):
        raise NetworkValidationError("duplicate line ids in document")
    line_id_set = set(line_ids)
    for sid in switch_flags:
        if sid not in line_id_set:
            raise NetworkValidationError(f"switch entry references unknown line '{sid}'")

    regions = []
    region_of: dict[str, str] = {}
    for raw_region in _read.get(doc, "regions", "document", list, []):
        rid = _read.get(raw_region, "id", "region", str)
        ctx = f"region {rid}"
        if any(r.id == rid for r in regions):
            raise NetworkValidationError(f"{ctx}: the id is listed twice in regions")
        depot = _read.get(raw_region, "depot_bus", ctx, str)
        if depot not in bus_map:
            raise NetworkValidationError(f"{ctx}: unknown depot bus '{depot}'")
        members = tuple(_read.items(_read.get(raw_region, "lines", ctx), str, f"{ctx}: lines"))
        for lid in members:
            if lid not in line_id_set:
                raise NetworkValidationError(f"{ctx}: unknown line '{lid}'")
            if lid in region_of:
                raise NetworkValidationError(
                    f"{ctx}: line '{lid}' is already listed in region '{region_of[lid]}'")
            region_of[lid] = rid
        crew_min = _read.get(raw_region, "crew_min", ctx, int, 0)
        crew_max = _read.get(raw_region, "crew_max", ctx, int, 10**6)
        if not 0 <= crew_min <= crew_max:
            raise NetworkValidationError(f"{ctx}: require 0 <= crew_min <= crew_max")
        regions.append(Region(id=rid, depot_bus=depot, lines=members, crew_min=crew_min, crew_max=crew_max))
    for lid in line_ids:
        if lid not in region_of:
            raise NetworkValidationError(f"line '{lid}' is listed in no region")

    def units(key: str, cls) -> tuple:
        return tuple(_read.record(cls, raw, f"{key}[{i}]")
                     for i, raw in enumerate(_read.get(doc, key, "document", list, [])))

    generators = units("generators", GeneratorSpec)
    pv_units = units("pv", PvSpec)
    ess_units = units("ess", EssSpec)
    for key, specs in (("generators", generators), ("pv", pv_units), ("ess", ess_units)):
        for i, spec in enumerate(specs):
            if spec.bus not in bus_map:
                raise NetworkValidationError(f"{key}[{i}]: unknown bus '{spec.bus}'")

    candidates = frozenset(_read.items(_read.get(doc, "candidate_buses", "document", default=[]),
                                       str, "candidate_buses"))
    for cid in candidates:
        if cid not in bus_map:
            raise NetworkValidationError(f"candidate bus '{cid}' not declared")

    meg_template = None
    if doc.get("meg") is not None:
        meg_template = _read.record(GeneratorSpec, doc["meg"], "meg", bus="<mobile>")
    mes_template = None
    if doc.get("mes") is not None:
        mes_template = _read.record(EssSpec, doc["mes"], "mes", bus="<mobile>")
    if candidates and meg_template is None and mes_template is None:
        raise NetworkValidationError(
            "candidate_buses declared but no meg/mes template to instantiate"
        )

    model = NetworkModel(
        base_kva=base_kva,
        base_kv=base_kv,
        horizon=horizon,
        dt_hours=dt_hours,
        buses=tuple(buses),
        lines=tuple(lines),
        regions=tuple(regions),
        generators=generators,
        pv_units=pv_units,
        ess_units=ess_units,
        candidate_buses=candidates,
        meg_template=meg_template,
        mes_template=mes_template,
        u_min_default=u_min_default,
        u_max_default=u_max_default,
        u_min_by_bus=u_min_by_bus,
        u_max_by_bus=u_max_by_bus,
    )
    return model


def enumerate_loops(model: NetworkModel) -> LoopSet:
    """Fundamental cycle basis of the line graph via depth-first search.

    One loop per co-tree line: DFS builds a spanning forest, and each line
    joining two already-connected buses closes exactly one cycle through the
    tree path between its endpoints.  Radial networks yield an empty set.
    """
    adjacency: dict[str, list[tuple[str, str]]] = {b.id: [] for b in model.buses}
    for k in model.lines:
        adjacency[k.from_bus].append((k.to_bus, k.id))
        adjacency[k.to_bus].append((k.from_bus, k.id))

    parent_edge: dict[str, tuple[str, str] | None] = {}
    depth: dict[str, int] = {}
    loops: list[Loop] = []

    for root in (b.id for b in model.buses):
        if root in parent_edge:
            continue
        parent_edge[root] = None
        depth[root] = 0
        stack = [root]
        tree_edges: set[str] = set()
        visited_here = {root}
        while stack:
            node = stack.pop()
            for nbr, lid in adjacency[node]:
                if lid in tree_edges:
                    continue
                if nbr not in visited_here:
                    visited_here.add(nbr)
                    parent_edge[nbr] = (node, lid)
                    depth[nbr] = depth[node] + 1
                    tree_edges.add(lid)
                    stack.append(nbr)
        # co-tree lines inside this component close one cycle each
        for k in model.lines:
            if k.from_bus not in visited_here or k.id in tree_edges:
                continue
            members = {k.id}
            a, b = k.from_bus, k.to_bus
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                up = parent_edge[a]
                assert up is not None
                members.add(up[1])
                a = up[0]
            loops.append(Loop(members=frozenset(members)))
    return LoopSet(loops=tuple(loops))
