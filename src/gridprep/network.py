"""Three-phase feeder data model, document loading, and cycle enumeration.

The network document is a single JSON file (UTF-8) with top-level keys
``base``, ``horizon``, ``dt_hours``, ``buses``, ``lines``, ``switches``,
``regions``, ``generators``, ``pv``, ``ess``, ``candidate_buses`` and the
mobile-unit templates ``meg`` / ``mes``.  All powers are kW/kVAr, impedances
per-unit on ``base.kva`` (single-phase power base), voltages squared per-unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence, Union

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
        return sum(self.demand_at(ph, t) for ph in self.phases)


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


@dataclass(frozen=True)
class PvSpec:
    bus: str
    pv_type: str
    p_rate: float  # kW panel rating (per phase cap)
    s_inverter: float  # kVA inverter capacity


@dataclass(frozen=True)
class EssSpec:
    bus: str
    e_cap: float  # kWh
    soc_min: float
    soc_max: float
    soc_init: float
    p_ch_max: float  # kW per phase
    p_dis_max: float
    q_max: float  # kVAr per phase
    eta_ch: float = 0.95
    eta_dis: float = 0.95


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
    """Immutable feeder description; safe to share across workers."""

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

    @property
    def _bus_map(self) -> dict[str, Bus]:
        m = self.__dict__.get("_bus_map_cache")
        if m is None:
            m = {b.id: b for b in self.buses}
            self.__dict__["_bus_map_cache"] = m
        return m

    @property
    def _line_map(self) -> dict[str, Line]:
        m = self.__dict__.get("_line_map_cache")
        if m is None:
            m = {k.id: k for k in self.lines}
            self.__dict__["_line_map_cache"] = m
        return m

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

def _require(doc: Mapping, key: str, ctx: str):
    if key not in doc:
        raise NetworkParseError(f"{ctx}: missing required key '{key}'")
    return doc[key]


def _number(doc: Mapping, key: str, ctx: str, default: float | None = None) -> float:
    """``doc[key]``, or ``default`` when given and the key is absent, as a finite float."""
    raw = _require(doc, key, ctx) if default is None else doc.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise NetworkParseError(f"{ctx}: {key} must be a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise NetworkValidationError(f"{ctx}: {key} must be finite, got {value}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(doc: Mapping, key: str, ctx: str, default: int | None = None) -> int:
    """As :func:`_number`, truncated to an int."""
    return int(_number(doc, key, ctx, default))


def _matrix3(raw, ctx: str) -> tuple[tuple[float, ...], ...]:
    try:
        m = tuple(tuple(float(v) for v in row) for row in raw)
    except (TypeError, ValueError) as exc:
        raise NetworkParseError(f"{ctx}: impedance matrix must be numeric 3x3") from exc
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise NetworkParseError(f"{ctx}: impedance matrix must be 3x3")
    if not all(math.isfinite(v) for row in m for v in row):
        raise NetworkValidationError(f"{ctx}: impedance matrix entries must be finite")
    return m


def _phases(raw, ctx: str) -> tuple[str, ...]:
    phs = tuple(raw) if isinstance(raw, (str, list)) else ()
    if not phs or any(p not in PHASES for p in phs) or len(set(phs)) != len(phs):
        raise NetworkParseError(f"{ctx}: phases must be a nonempty subset of 'abc'")
    return tuple(p for p in PHASES if p in phs)


def _profile(raw, phases: Sequence[str], horizon: int, ctx: str) -> dict[str, tuple[float, ...]]:
    out: dict[str, tuple[float, ...]] = {}
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise NetworkParseError(f"{ctx}: demand must map phases to lists of numbers")
    for ph, prof in raw.items():
        if ph not in phases:
            raise NetworkValidationError(f"{ctx}: demand declared on absent phase '{ph}'")
        not_a_list = NetworkParseError(f"{ctx}: demand on phase '{ph}' must be a list of numbers")
        if isinstance(prof, str):  # iterating it would read each character as a number
            raise not_a_list
        try:
            vals = tuple(float(v) for v in prof)
        except (TypeError, ValueError) as exc:
            raise not_a_list from exc
        if len(vals) != horizon:
            raise NetworkValidationError(
                f"{ctx}: demand profile on phase '{ph}' has length {len(vals)}, horizon is {horizon}"
            )
        if not all(math.isfinite(v) for v in vals):
            raise NetworkValidationError(f"{ctx}: non-finite demand on phase '{ph}'")
        if any(v < 0 for v in vals):
            raise NetworkValidationError(f"{ctx}: negative demand on phase '{ph}'")
        out[ph] = vals
    return out


def _parse_generator(raw: Mapping, ctx: str, bus: str | None = None) -> GeneratorSpec:
    spec = GeneratorSpec(
        bus=bus if bus is not None else str(_require(raw, "bus", ctx)),
        p_max=_number(raw, "p_max", ctx),
        q_max=_number(raw, "q_max", ctx),
        fuel_present=_number(raw, "fuel_present", ctx, 0.0),
        fuel_cap=_number(raw, "fuel_cap", ctx, 0.0),
        grid_forming=bool(raw.get("grid_forming", True)),
    )
    if spec.p_max < 0 or spec.q_max < 0:
        raise NetworkValidationError(f"{ctx}: generator caps must be nonnegative")
    if not 0 <= spec.fuel_present <= spec.fuel_cap:
        raise NetworkValidationError(f"{ctx}: require 0 <= fuel_present <= fuel_cap")
    return spec


def _parse_ess(raw: Mapping, ctx: str, bus: str | None = None) -> EssSpec:
    spec = EssSpec(
        bus=bus if bus is not None else str(_require(raw, "bus", ctx)),
        e_cap=_number(raw, "e_cap", ctx),
        soc_min=_number(raw, "soc_min", ctx, 0.0),
        soc_max=_number(raw, "soc_max", ctx, 1.0),
        soc_init=_number(raw, "soc_init", ctx),
        p_ch_max=_number(raw, "p_ch_max", ctx),
        p_dis_max=_number(raw, "p_dis_max", ctx),
        q_max=_number(raw, "q_max", ctx, 0.0),
        eta_ch=_number(raw, "eta_ch", ctx, 0.95),
        eta_dis=_number(raw, "eta_dis", ctx, 0.95),
    )
    if not (0.0 <= spec.soc_min <= spec.soc_init <= spec.soc_max <= 1.0):
        raise NetworkValidationError(f"{ctx}: require 0 <= soc_min <= soc_init <= soc_max <= 1")
    if min(spec.e_cap, spec.p_ch_max, spec.p_dis_max, spec.q_max) < 0:
        raise NetworkValidationError(f"{ctx}: storage limits must be nonnegative")
    if not (0 < spec.eta_ch <= 1.0 and 0 < spec.eta_dis <= 1.0):
        raise NetworkValidationError(f"{ctx}: efficiencies must lie in (0, 1]")
    return spec


def load_network(source: Union[str, bytes, IO]) -> NetworkModel:
    """Parse and validate a network document; raises on the first violation."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = source
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise NetworkParseError(f"network document is not valid JSON: {exc}") from exc
    return network_from_document(doc)


def network_from_document(doc: Mapping) -> NetworkModel:
    base = _require(doc, "base", "document")
    base_kva = _number(base, "kva", "base")
    base_kv = _number(base, "kv", "base")
    horizon = _integer(doc, "horizon", "document")
    dt_hours = _number(doc, "dt_hours", "document")
    if horizon < 1:
        raise NetworkValidationError("horizon must be >= 1")
    if dt_hours <= 0:
        raise NetworkValidationError("dt_hours must be > 0")
    if base_kva <= 0 or base_kv <= 0:
        raise NetworkValidationError("base kva/kv must be > 0")

    vl = doc.get("voltage_limits", {})
    u_min_default = _number(vl, "u_min", "voltage_limits", 0.81)
    u_max_default = _number(vl, "u_max", "voltage_limits", 1.21)

    buses = []
    u_min_by_bus: dict[str, float] = {}
    u_max_by_bus: dict[str, float] = {}
    for raw_bus in _require(doc, "buses", "document"):
        bid = str(_require(raw_bus, "id", "bus"))
        phases = _phases(_require(raw_bus, "phases", f"bus {bid}"), f"bus {bid}")
        bus = Bus(
            id=bid,
            phases=phases,
            demand_p=_profile(raw_bus.get("demand_p"), phases, horizon, f"bus {bid}"),
            demand_q=_profile(raw_bus.get("demand_q"), phases, horizon, f"bus {bid}"),
            shed_cost=_number(raw_bus, "shed_cost", f"bus {bid}", 0.0),
            priority=bool(raw_bus.get("priority", False)),
            substation=bool(raw_bus.get("substation", False)),
        )
        if bus.shed_cost < 0:
            raise NetworkValidationError(f"bus {bid}: shed_cost must be nonnegative")
        if "u_min" in raw_bus:
            u_min_by_bus[bid] = _number(raw_bus, "u_min", f"bus {bid}")
        if "u_max" in raw_bus:
            u_max_by_bus[bid] = _number(raw_bus, "u_max", f"bus {bid}")
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

    switch_entries = doc.get("switches", [])
    switch_flags: dict[str, bool] = {}
    for entry in switch_entries:
        if isinstance(entry, Mapping):
            switch_flags[str(_require(entry, "line", "switch entry"))] = bool(
                entry.get("normally_open", False)
            )
        else:
            switch_flags[str(entry)] = False

    lines = []
    for raw_line in _require(doc, "lines", "document"):
        lid = str(_require(raw_line, "id", "line"))
        ctx = f"line {lid}"
        frm = str(_require(raw_line, "from_bus", ctx))
        to = str(_require(raw_line, "to_bus", ctx))
        if frm not in bus_map:
            raise NetworkValidationError(f"{ctx}: references unknown bus '{frm}'")
        if to not in bus_map:
            raise NetworkValidationError(f"{ctx}: references unknown bus '{to}'")
        if frm == to:
            raise NetworkValidationError(f"{ctx}: degenerate self-loop (from == to)")
        phases = _phases(_require(raw_line, "phases", ctx), ctx)
        for ph in phases:
            if ph not in bus_map[frm].phases or ph not in bus_map[to].phases:
                raise NetworkValidationError(
                    f"{ctx}: phase '{ph}' not present at both endpoints"
                )
        r_m = _matrix3(_require(raw_line, "r_matrix", ctx), ctx)
        x_m = _matrix3(_require(raw_line, "x_matrix", ctx), ctx)
        for m in (r_m, x_m):
            for i in range(3):
                for j in range(3):
                    if abs(m[i][j] - m[j][i]) > 1e-12:
                        raise NetworkValidationError(f"{ctx}: impedance matrix not symmetric")
        line = Line(
            id=lid,
            from_bus=frm,
            to_bus=to,
            phases=phases,
            r_matrix=r_m,
            x_matrix=x_m,
            p_max=_number(raw_line, "p_max", ctx),
            q_max=_number(raw_line, "q_max", ctx),
            switchable=lid in switch_flags,
            normally_open=switch_flags.get(lid, False),
            poles=_integer(raw_line, "poles", ctx, 0),
            spans=_integer(raw_line, "spans", ctx, 0),
            underground_prob=_number(raw_line, "underground_prob", ctx, 0.0),
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
    for raw_region in doc.get("regions", []):
        rid = str(_require(raw_region, "id", "region"))
        depot = str(_require(raw_region, "depot_bus", f"region {rid}"))
        if depot not in bus_map:
            raise NetworkValidationError(f"region {rid}: unknown depot bus '{depot}'")
        members = tuple(str(x) for x in _require(raw_region, "lines", f"region {rid}"))
        for lid in members:
            if lid not in line_id_set:
                raise NetworkValidationError(f"region {rid}: unknown line '{lid}'")
        crew_min = _integer(raw_region, "crew_min", f"region {rid}", 0)
        crew_max = _integer(raw_region, "crew_max", f"region {rid}", 10**6)
        if not 0 <= crew_min <= crew_max:
            raise NetworkValidationError(f"region {rid}: require 0 <= crew_min <= crew_max")
        regions.append(Region(id=rid, depot_bus=depot, lines=members, crew_min=crew_min, crew_max=crew_max))

    generators = tuple(
        _parse_generator(raw, f"generator[{i}]") for i, raw in enumerate(doc.get("generators", []))
    )
    for g in generators:
        if g.bus not in bus_map:
            raise NetworkValidationError(f"generator references unknown bus '{g.bus}'")

    pv_units = []
    for i, raw_pv in enumerate(doc.get("pv", [])):
        ctx = f"pv[{i}]"
        spec = PvSpec(
            bus=str(_require(raw_pv, "bus", ctx)),
            pv_type=str(_require(raw_pv, "pv_type", ctx)),
            p_rate=_number(raw_pv, "p_rate", ctx),
            s_inverter=_number(raw_pv, "s_inverter", ctx),
        )
        if spec.bus not in bus_map:
            raise NetworkValidationError(f"{ctx}: unknown bus '{spec.bus}'")
        if spec.pv_type not in PV_TYPES:
            raise NetworkValidationError(f"{ctx}: pv_type must be one of {PV_TYPES}")
        if spec.p_rate < 0 or spec.s_inverter < 0:
            raise NetworkValidationError(f"{ctx}: ratings must be nonnegative")
        pv_units.append(spec)

    ess_units = tuple(_parse_ess(raw, f"ess[{i}]") for i, raw in enumerate(doc.get("ess", [])))
    for e in ess_units:
        if e.bus not in bus_map:
            raise NetworkValidationError(f"ess references unknown bus '{e.bus}'")

    candidates = frozenset(str(x) for x in doc.get("candidate_buses", []))
    for cid in candidates:
        if cid not in bus_map:
            raise NetworkValidationError(f"candidate bus '{cid}' not declared")

    meg_template = None
    if doc.get("meg") is not None:
        meg_template = _parse_generator(doc["meg"], "meg template", bus="<mobile>")
    mes_template = None
    if doc.get("mes") is not None:
        mes_template = _parse_ess(doc["mes"], "mes template", bus="<mobile>")
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
        pv_units=tuple(pv_units),
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


@dataclass(frozen=True)
class RegionReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_regions(model: NetworkModel, crew_total: int | None = None) -> RegionReport:
    """Check the regions partition the line set and crew bounds admit a split."""
    violations: list[str] = []
    seen: dict[str, str] = {}
    for r in model.regions:
        for lid in r.lines:
            if lid in seen:
                violations.append(f"line '{lid}' assigned to regions '{seen[lid]}' and '{r.id}'")
            else:
                seen[lid] = r.id
    for k in model.lines:
        if k.id not in seen:
            violations.append(f"line '{k.id}' not covered by any region")
    if crew_total is not None:
        lo = sum(r.crew_min for r in model.regions)
        hi = sum(r.crew_max for r in model.regions)
        if crew_total < lo:
            violations.append(
                f"crew total {crew_total} below the sum of regional minima {lo} (infeasible)"
            )
        if crew_total > hi:
            violations.append(
                f"crew total {crew_total} above the sum of regional maxima {hi} (infeasible)"
            )
    return RegionReport(violations=tuple(violations))
