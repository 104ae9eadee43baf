"""Wind fragility curves and Monte Carlo damage-scenario sampling.

Overhead line failure combines per-pole and per-span failure probabilities,
each a lognormal CDF of wind speed.  A line survives a storm only if every
pole and every conductor span survives every period of the wind profile.
Sampling uses counter-based RNG substreams keyed by (seed, scenario index),
so a scenario set is identical regardless of worker count or ordering.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import IO, Mapping, Union

import numpy as np

from .network import Line, NetworkModel, _is_int

MAX_IRRADIANCE = 1367.0  # W/m^2, solar constant


@dataclass(frozen=True)
class FragilityParams:
    """Lognormal fragility curves for poles and conductor spans.

    ``pole_median``/``pole_log_std`` parameterize the pole curve; the
    direct-wind and fallen-tree span curves get their own medians and log
    standard deviations.  ``tree_factor`` scales the tree-failure curve.
    """

    pole_median: float = 40.0  # m/s
    pole_log_std: float = 0.25
    tree_factor: float = 0.6  # in [0, 1]
    wind_span_median: float = 55.0
    wind_span_log_std: float = 0.3
    tree_span_median: float = 45.0
    tree_span_log_std: float = 0.3
    repair_min_periods: int = 2
    repair_max_periods: int = 8
    cloud_min: float = 0.2
    cloud_max: float = 1.0
    peak_irradiance: float = 1000.0  # W/m^2

    def __post_init__(self):
        if self.pole_median <= 0 or self.pole_log_std <= 0:
            raise ValueError("pole fragility median and log-std must be positive")
        if not 0.0 <= self.tree_factor <= 1.0:
            raise ValueError("tree_factor must lie in [0, 1]")
        if self.wind_span_median <= 0 or self.tree_span_median <= 0:
            raise ValueError("span curve medians must be positive")
        if self.wind_span_log_std <= 0 or self.tree_span_log_std <= 0:
            raise ValueError("span curve log-stds must be positive")
        if not 1 <= self.repair_min_periods <= self.repair_max_periods:
            raise ValueError("repair period range must satisfy 1 <= min <= max")
        if not 0.0 <= self.cloud_min <= self.cloud_max <= 1.0:
            raise ValueError("cloud factor range must satisfy 0 <= min <= max <= 1")
        if not 0.0 <= self.peak_irradiance <= MAX_IRRADIANCE:
            raise ValueError("peak_irradiance must lie in [0, 1367] W/m^2")


@dataclass(frozen=True)
class WindProfile:
    speeds: tuple[float, ...]  # m/s

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0 for w in self.speeds):
            raise ValueError("wind speeds must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.speeds)


@dataclass(frozen=True)
class DamageScenario:
    id: int
    probability: float
    damaged_lines: frozenset[str]
    repair_periods: Mapping[str, int]  # line id -> periods >= 1
    irradiance: tuple[float, ...]  # W/m^2, global profile of length T

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("scenario probability must lie in (0, 1]")
        if set(self.repair_periods) != set(self.damaged_lines):
            raise ValueError("repair periods must cover exactly the damaged lines")
        if any(v < 1 for v in self.repair_periods.values()):
            raise ValueError("repair times must be >= 1 period")
        if any(not 0.0 <= x <= MAX_IRRADIANCE for x in self.irradiance):
            raise ValueError("irradiance must lie in [0, 1367] W/m^2")


@dataclass(frozen=True)
class ScenarioSet:
    scenarios: tuple[DamageScenario, ...]
    seed: int

    def __post_init__(self):
        total = sum(s.probability for s in self.scenarios)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"scenario probabilities sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)


def fragility_from_document(doc: Mapping) -> FragilityParams:
    unknown = sorted(set(doc) - set(FragilityParams.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown fragility keys {unknown}")
    return FragilityParams(**doc)


def _lognormal_cdf(w: float, median: float, log_std: float) -> float:
    if w <= 0.0:
        return 0.0
    z = math.log(w / median) / log_std
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def pole_failure_prob(w: float, params: FragilityParams) -> float:
    """Conditional pole failure probability at wind speed ``w`` (m/s)."""
    if w < 0:
        raise ValueError("wind speed must be nonnegative")
    return _lognormal_cdf(w, params.pole_median, params.pole_log_std)


def conductor_failure_prob(w: float, line: Line, params: FragilityParams) -> float:
    """Span failure probability: worse of direct wind and scaled tree fall,
    zeroed for underground construction."""
    if w < 0:
        raise ValueError("wind speed must be nonnegative")
    p_fw = _lognormal_cdf(w, params.wind_span_median, params.wind_span_log_std)
    p_ftr = _lognormal_cdf(w, params.tree_span_median, params.tree_span_log_std)
    return (1.0 - line.underground_prob) * max(p_fw, params.tree_factor * p_ftr)


def line_failure_prob(w: float, line: Line, params: FragilityParams) -> float:
    """Failure probability of a whole line: any pole or any span failing."""
    p_pole = pole_failure_prob(w, params)
    p_span = conductor_failure_prob(w, line, params)
    survive = (1.0 - p_pole) ** line.poles * (1.0 - p_span) ** line.spans
    return 1.0 - survive


def storm_damage_prob(line: Line, wind: WindProfile, params: FragilityParams) -> float:
    """Probability the line fails at least once over the storm window."""
    survive = 1.0
    for w in wind.speeds:
        if w <= 0.0:
            continue
        survive *= 1.0 - line_failure_prob(w, line, params)
    return 1.0 - survive


def _scenario_rng(seed: int, index: int) -> np.random.Generator:
    # Philox keyed by (seed, index): independent streams, order-insensitive.
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), index]))


def clear_sky_profile(horizon: int, peak: float) -> tuple[float, ...]:
    """Half-sine daytime irradiance across the restoration horizon."""
    return tuple(peak * math.sin(math.pi * (t + 0.5) / horizon) for t in range(horizon))


def sample_damage_scenario(
    model: NetworkModel,
    wind: WindProfile,
    params: FragilityParams,
    seed: int,
    index: int = 0,
    probability: float = 1.0,
) -> DamageScenario:
    """Draw one damage realization for the given substream (seed, index)."""
    rng = _scenario_rng(seed, index)
    damaged: list[str] = []
    repair: dict[str, int] = {}
    # one draw per line in declaration order keeps the stream layout stable
    for line in model.lines:
        p = storm_damage_prob(line, wind, params)
        if rng.random() < p:
            damaged.append(line.id)
            repair[line.id] = int(
                rng.integers(params.repair_min_periods, params.repair_max_periods + 1)
            )
    cloud = params.cloud_min + (params.cloud_max - params.cloud_min) * rng.random()
    irradiance = tuple(cloud * v for v in clear_sky_profile(model.horizon, params.peak_irradiance))
    return DamageScenario(
        id=index,
        probability=probability,
        damaged_lines=frozenset(damaged),
        repair_periods=repair,
        irradiance=irradiance,
    )


def generate_scenario_set(
    model: NetworkModel,
    wind: WindProfile,
    params: FragilityParams,
    count: int,
    seed: int,
) -> ScenarioSet:
    """``count`` independent equiprobable scenarios, deterministic in ``seed``."""
    if count < 1:
        raise ValueError("scenario count must be >= 1")
    prob = 1.0 / count
    scenarios = tuple(
        sample_damage_scenario(model, wind, params, seed, index=i, probability=prob)
        for i in range(count)
    )
    return ScenarioSet(scenarios=scenarios, seed=seed)


def scenario_set_to_document(scen_set: ScenarioSet) -> dict:
    return {
        "seed": scen_set.seed,
        "scenarios": [
            {
                "id": s.id,
                "prob": s.probability,
                "damaged": [
                    {"line": lid, "repair_periods": s.repair_periods[lid]}
                    for lid in sorted(s.damaged_lines)
                ],
                "irradiance": list(s.irradiance),
            }
            for s in scen_set.scenarios
        ],
    }


def _integer(value, what: str) -> int:
    if not _is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def scenario_set_from_document(doc: Mapping) -> ScenarioSet:
    """A scenario set; non-integer ids, seeds and repair times and repeated lines are refused."""
    scenarios = []
    for raw in doc["scenarios"]:
        sid = _integer(raw["id"], "scenario id")
        damaged = {str(d["line"]): _integer(d["repair_periods"], f"scenario {sid} repair_periods")
                   for d in raw["damaged"]}
        if len(damaged) != len(raw["damaged"]):
            raise ValueError(f"scenario {sid} damages a line twice")
        scenarios.append(
            DamageScenario(
                id=sid,
                probability=float(raw["prob"]),
                damaged_lines=frozenset(damaged),
                repair_periods=damaged,
                irradiance=tuple(float(v) for v in raw["irradiance"]),
            )
        )
    return ScenarioSet(scenarios=tuple(scenarios), seed=_integer(doc["seed"], "seed"))


def dump_scenarios(scen_set: ScenarioSet) -> str:
    """Canonical JSON serialization (stable across runs for fixed inputs)."""
    return json.dumps(scenario_set_to_document(scen_set), indent=2, sort_keys=True)


def load_scenarios(text: str, model: NetworkModel) -> ScenarioSet:
    """Read a scenario file written for ``model``: every damaged line must be
    one of its lines and every irradiance profile must span its horizon."""
    scen_set = scenario_set_from_document(json.loads(text))
    lines = {line.id for line in model.lines}
    for s in scen_set.scenarios:
        unknown = sorted(s.damaged_lines - lines)
        if unknown:
            raise ValueError(f"scenario {s.id} damages lines {unknown} that the feeder lacks")
        if len(s.irradiance) != model.horizon:
            raise ValueError(f"scenario {s.id} has {len(s.irradiance)} irradiance values "
                             f"for a {model.horizon}-period horizon")
    return scen_set


def load_wind_csv(source: Union[str, IO]) -> WindProfile:
    """Wind profile CSV with header ``t,wind_mps``."""
    raw = source.read() if hasattr(source, "read") else source
    rows = list(csv.DictReader(io.StringIO(raw)))
    if not rows or "wind_mps" not in rows[0]:
        raise ValueError("wind CSV must have columns t,wind_mps")
    try:
        speeds = tuple(float(r["wind_mps"]) for r in rows)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"wind CSV: every wind_mps must be a number ({exc})") from exc
    return WindProfile(speeds=speeds)
