"""Pre-event preparation toolkit for storm-resilient distribution feeders.

Pipeline: sample hurricane damage scenarios from wind fragility curves,
compile a two-stage stochastic MILP allocating mobile generators, mobile
storage, fuel, and repair crews, solve it directly or by progressive
hedging with HiGHS, validate the plan with the multiple replication
procedure, and evaluate it against held-out scenarios.
"""

from .network import (
    Bus,
    EssSpec,
    GeneratorSpec,
    Line,
    Loop,
    LoopSet,
    NetworkModel,
    NetworkParseError,
    NetworkValidationError,
    PvSpec,
    Region,
    enumerate_loops,
    load_network,
    network_from_document,
    validate_regions,
)
from .scenarios import (
    DamageScenario,
    FragilityParams,
    ScenarioSet,
    WindProfile,
    conductor_failure_prob,
    generate_scenario_set,
    line_failure_prob,
    pole_failure_prob,
    sample_damage_scenario,
)

__version__ = "0.1.0"
