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
from typing import Mapping

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
    shed_cost: float = 0.0  # $/kWh
    priority: bool = False
    substation: bool = False

    def __post_init__(self):
        for key, profiles in (("demand_p", self.demand_p), ("demand_q", self.demand_q)):
            for ph, prof in profiles.items():
                if ph not in self.phases:
                    raise NetworkValidationError(f"bus {self.id}: {key} declared on absent phase '{ph}'")
                if any(v < 0 for v in prof):
                    raise NetworkValidationError(f"bus {self.id}: negative {key} on phase '{ph}'")
        if self.shed_cost < 0:
            raise NetworkValidationError(f"bus {self.id}: shed_cost must be nonnegative")

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

    def __post_init__(self):
        ctx = f"line {self.id}"
        if self.from_bus == self.to_bus:
            raise NetworkValidationError(f"{ctx}: degenerate self-loop (from == to)")
        for key, m in (("r_matrix", self.r_matrix), ("x_matrix", self.x_matrix)):
            if any(abs(m[i][j] - m[j][i]) > 1e-12 for i in range(3) for j in range(3)):
                raise NetworkValidationError(f"{ctx}: {key} not symmetric")
        if self.p_max < 0 or self.q_max < 0:
            raise NetworkValidationError(f"{ctx}: flow limits must be nonnegative")
        if self.poles < 0 or self.spans < 0:
            raise NetworkValidationError(f"{ctx}: poles/spans must be nonnegative")
        if not 0.0 <= self.underground_prob <= 1.0:
            raise NetworkValidationError(f"{ctx}: underground_prob must lie in [0, 1]")


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

    def __post_init__(self):
        if not 0 <= self.crew_min <= self.crew_max:
            raise NetworkValidationError(f"region {self.id}: require 0 <= crew_min <= crew_max")


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
    """Immutable feeder description; safe to share across threads.

    A model checks the rules between its parts when it is built, whether
    from a document or in code: ids are unique, every bus, line and region
    a part names exists, each line lies in exactly one region, and each
    demand profile spans the horizon.  Each part checks its own ranges.
    """

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

    def __post_init__(self):
        if self.horizon < 1:
            raise NetworkValidationError("horizon must be >= 1")
        if self.dt_hours <= 0:
            raise NetworkValidationError("dt_hours must be > 0")
        if self.base_kva <= 0 or self.base_kv <= 0:
            raise NetworkValidationError("base kva/kv must be > 0")
        if len(self._bus_map) != len(self.buses):
            raise NetworkValidationError("duplicate bus ids in document")
        for b in self.buses:
            for key, profiles in (("demand_p", b.demand_p), ("demand_q", b.demand_q)):
                for ph, prof in profiles.items():
                    if len(prof) != self.horizon:
                        raise NetworkValidationError(f"bus {b.id}: {key} on phase '{ph}' has length "
                                                     f"{len(prof)}, horizon is {self.horizon}")
            if not self.u_min(b.id) < self.u_max(b.id):
                raise NetworkValidationError(f"bus {b.id}: require u_min < u_max")
        if len(self._line_map) != len(self.lines):
            raise NetworkValidationError("duplicate line ids in document")
        for k in self.lines:
            for end in (k.from_bus, k.to_bus):
                if end not in self._bus_map:
                    raise NetworkValidationError(f"line {k.id}: references unknown bus '{end}'")
            for ph in k.phases:
                if ph not in self.bus(k.from_bus).phases or ph not in self.bus(k.to_bus).phases:
                    raise NetworkValidationError(f"line {k.id}: phase '{ph}' not present at both endpoints")
        region_of: dict[str, str] = {}
        for i, r in enumerate(self.regions):
            ctx = f"region {r.id}"
            if any(q.id == r.id for q in self.regions[:i]):
                raise NetworkValidationError(f"{ctx}: the id is listed twice in regions")
            if r.depot_bus not in self._bus_map:
                raise NetworkValidationError(f"{ctx}: unknown depot bus '{r.depot_bus}'")
            for lid in r.lines:
                if lid not in self._line_map:
                    raise NetworkValidationError(f"{ctx}: unknown line '{lid}'")
                if lid in region_of:
                    raise NetworkValidationError(
                        f"{ctx}: line '{lid}' is already listed in region '{region_of[lid]}'")
                region_of[lid] = r.id
        for k in self.lines:
            if k.id not in region_of:
                raise NetworkValidationError(f"line '{k.id}' is listed in no region")
        for key, specs in (("generators", self.generators), ("pv", self.pv_units), ("ess", self.ess_units)):
            for i, spec in enumerate(specs):
                if spec.bus not in self._bus_map:
                    raise NetworkValidationError(f"{key}[{i}]: unknown bus '{spec.bus}'")
        for cid in sorted(self.candidate_buses):
            if cid not in self._bus_map:
                raise NetworkValidationError(f"candidate bus '{cid}' not declared")
        if self.candidate_buses and self.meg_template is None and self.mes_template is None:
            raise NetworkValidationError("candidate_buses declared but no meg/mes template to instantiate")

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
    return m


def _phases(raw, ctx: str) -> tuple[str, ...]:
    phs = tuple(raw) if isinstance(raw, (str, list)) else ()
    if not phs or any(p not in PHASES for p in phs) or len(set(phs)) != len(phs):
        raise NetworkParseError(f"{ctx}: phases must be a nonempty subset of 'abc'")
    return tuple(p for p in PHASES if p in phs)


def _profile(doc: Mapping, key: str, ctx: str) -> dict[str, tuple[float, ...]]:
    raw = _read.get(doc, key, ctx, default={})
    if not isinstance(raw, Mapping):
        raise NetworkParseError(f"{ctx}: {key} must map phases to lists of numbers")
    return {ph: tuple(_read.items(prof, float, f"{ctx}: {key} on phase '{ph}'"))
            for ph, prof in raw.items()}


def load_network(text: str) -> NetworkModel:
    """Parse and validate a network document's JSON text; raises on the first violation."""
    return network_from_document(loads(text, NetworkParseError))


def network_from_document(doc: Mapping) -> NetworkModel:
    """Read a network document.  The model and its parts check the feeder's
    rules as they are built; only the ``switches`` list is checked here,
    since the model keeps no trace of it."""
    base = _read.get(doc, "base", "document")
    vl = _read.get(doc, "voltage_limits", "document", default={})

    buses = []
    u_min_by_bus: dict[str, float] = {}
    u_max_by_bus: dict[str, float] = {}
    for raw_bus in _read.get(doc, "buses", "document", list):
        bid = _read.get(raw_bus, "id", "bus", str)
        ctx = f"bus {bid}"
        buses.append(_read.record(Bus, raw_bus, ctx, id=bid,
                                  phases=_phases(_read.get(raw_bus, "phases", ctx), ctx),
                                  demand_p=_profile(raw_bus, "demand_p", ctx),
                                  demand_q=_profile(raw_bus, "demand_q", ctx)))
        if "u_min" in raw_bus:
            u_min_by_bus[bid] = _read.get(raw_bus, "u_min", ctx, float)
        if "u_max" in raw_bus:
            u_max_by_bus[bid] = _read.get(raw_bus, "u_max", ctx, float)

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
        lines.append(_read.record(Line, raw_line, ctx, id=lid,
                                  phases=_phases(_read.get(raw_line, "phases", ctx), ctx),
                                  r_matrix=_matrix3(raw_line, "r_matrix", ctx),
                                  x_matrix=_matrix3(raw_line, "x_matrix", ctx),
                                  switchable=lid in switch_flags,
                                  normally_open=switch_flags.get(lid, False)))
    line_ids = {k.id for k in lines}
    for sid in switch_flags:
        if sid not in line_ids:
            raise NetworkValidationError(f"switch entry references unknown line '{sid}'")

    regions = []
    for raw_region in _read.get(doc, "regions", "document", list, []):
        rid = _read.get(raw_region, "id", "region", str)
        ctx = f"region {rid}"
        members = tuple(_read.items(_read.get(raw_region, "lines", ctx), str, f"{ctx}: lines"))
        regions.append(_read.record(Region, raw_region, ctx, id=rid, lines=members))

    def units(key: str, cls) -> tuple:
        return tuple(_read.record(cls, raw, f"{key}[{i}]")
                     for i, raw in enumerate(_read.get(doc, key, "document", list, [])))

    def template(key: str, cls):
        raw = doc.get(key)
        return None if raw is None else _read.record(cls, raw, key, bus="<mobile>")

    return _read.record(
        NetworkModel, doc, "document",
        base_kva=_read.get(base, "kva", "base", float),
        base_kv=_read.get(base, "kv", "base", float),
        buses=tuple(buses),
        lines=tuple(lines),
        regions=tuple(regions),
        generators=units("generators", GeneratorSpec),
        pv_units=units("pv", PvSpec),
        ess_units=units("ess", EssSpec),
        candidate_buses=frozenset(_read.items(_read.get(doc, "candidate_buses", "document", default=[]),
                                              str, "candidate_buses")),
        meg_template=template("meg", GeneratorSpec),
        mes_template=template("mes", EssSpec),
        u_min_default=_read.get(vl, "u_min", "voltage_limits", float, 0.81),
        u_max_default=_read.get(vl, "u_max", "voltage_limits", float, 1.21),
        u_min_by_bus=u_min_by_bus,
        u_max_by_bus=u_max_by_bus,
    )


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
