"""Multiple-replication confidence interval on a plan's optimality gap.

Each replication draws a fresh scenario sample, solves the sample problem
to optimality, and scores the candidate plan on the same sample; the gap
estimates feed a one-sided Student-t interval.  Replications that fail to
prove optimality are tainted and excluded rather than silently included;
with fewer than two untainted replications no interval is reported.

Given its sample, a replication's n + 1 solves are independent and go
through one ``map_in_order``, on one worker per usable core, the calling
thread included, and no more than n + 1.  Replications run one at a time
in seed order, each finishing before the sampler is called for the next,
so a sampler need not be thread-safe.  Results are read in scenario order
and HiGHS is deterministic, so the worker count never changes the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.special import stdtrit

from .formulation import FirstStagePlan, FormulationConfig, build_extensive_form, build_subproblem, pin_plan
from .milp import solve_milp
from .network import LoopSet, NetworkModel, enumerate_loops
from .parallel import map_in_order, ordered_sum
from .scenarios import ScenarioSet

#: draws a fresh equiprobable scenario set: (sample_size, seed) -> ScenarioSet
ScenarioSampler = Callable[[int, int], ScenarioSet]

#: replication solves prove optimality
GAP_TOL = 0.0


class MrpError(RuntimeError):
    pass


@dataclass(frozen=True)
class MrpConfig:
    alpha: float = 0.05
    n: int = 2  # scenarios per replication
    n_g: int = 2  # replication count
    base_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.n < 2:
            raise ValueError("sample size n must be >= 2")
        if self.n_g < 2:
            raise ValueError("replication count n_g must be >= 2")


@dataclass
class MrpResult:
    alpha: float
    n: int
    n_g: int
    gaps: list[float]
    tainted: int
    mean_gap: float
    sample_variance: float
    half_width: float
    ci_upper: float
    candidate_mean_cost: float

    @property
    def ci_upper_pct(self) -> float:
        """Upper gap bound as a percentage of the candidate's mean sample cost."""
        if self.candidate_mean_cost == 0.0:
            return 0.0
        return 100.0 * self.ci_upper / abs(self.candidate_mean_cost)

    def to_document(self) -> dict:
        return {
            "alpha": self.alpha,
            "n": self.n,
            "n_g": self.n_g,
            "gaps": self.gaps,
            "tainted": self.tainted,
            "mean_gap": self.mean_gap,
            "var": self.sample_variance,
            "half_width": self.half_width,
            "ci_upper": self.ci_upper,
            "ci_upper_pct": self.ci_upper_pct,
            "candidate_mean_cost": self.candidate_mean_cost,
            "denominator": "candidate mean sample cost",
        }


def replicate_gap(
    candidate: FirstStagePlan,
    model: NetworkModel,
    config: FormulationConfig,
    sampler: ScenarioSampler,
    n: int,
    seed: int,
    loops: LoopSet | None = None,
) -> tuple[float, float, bool]:
    """One replication: (gap, candidate mean cost, tainted flag).

    Solves the sampled problem for its own optimum and prices the candidate
    on the identical sample; the gap is the mean cost difference.  The
    sample problem, the largest solve, is item 0 of one ``map_in_order``,
    so it runs on the calling thread, which keeps peak memory down.  All
    n + 1 solves run even when the sample problem is not optimal (the
    replication is tainted all the same), and all have ended on return.
    """
    bad = candidate.violations(model, config, strict_totals=False)
    if bad:
        raise MrpError(f"candidate plan is infeasible: {bad[0]}")
    if loops is None:
        loops = enumerate_loops(model)
    scen_set = sampler(n, seed)

    def solve(scen):  # None stands for the sample problem
        problem = (build_extensive_form(model, scen_set, config, loops=loops).problem if scen is None
                   else pin_plan(build_subproblem(model, scen, config, loops=loops), candidate))
        return solve_milp(problem, gap_tol=GAP_TOL)

    opt, *priced = map_in_order(solve, [None, *scen_set.scenarios])
    if any(sol.status != "optimal" for sol in (opt, *priced)):
        return math.nan, math.nan, True
    cand_total = ordered_sum([scen.probability * sol.objective
                              for scen, sol in zip(scen_set.scenarios, priced)])
    return cand_total - opt.objective, cand_total, False


def mrp_validate(
    candidate: FirstStagePlan,
    model: NetworkModel,
    config: FormulationConfig,
    sampler: ScenarioSampler,
    mrp_config: MrpConfig,
    loops: LoopSet | None = None,
) -> MrpResult:
    """Run ``n_g`` independent replications and build the one-sided CI."""
    if loops is None:
        loops = enumerate_loops(model)
    raw = [
        replicate_gap(
            candidate, model, config, sampler,
            n=mrp_config.n, seed=mrp_config.base_seed + k, loops=loops,
        )
        for k in range(mrp_config.n_g)
    ]

    gaps = [g for g, _, tainted in raw if not tainted]
    costs = [c for _, c, tainted in raw if not tainted]
    used = len(gaps)
    tainted = len(raw) - used
    if used < 2:
        # one gap has no sample variance, so it bounds nothing
        raise MrpError(f"{tainted} of {mrp_config.n_g} replications tainted (no provably "
                       "optimal solve); the interval needs two untainted replications")
    mean_gap = ordered_sum(gaps) / used
    var = ordered_sum([(g - mean_gap) ** 2 for g in gaps]) / (used - 1)
    half_width = 0.0
    if var > 0.0:
        # Student-t quantile; scipy.stats.t.ppf computes the same, at ~20 MB of import
        t_quant = float(stdtrit(used - 1, 1.0 - mrp_config.alpha))
        half_width = t_quant * math.sqrt(var) / math.sqrt(used)
    return MrpResult(
        alpha=mrp_config.alpha,
        n=mrp_config.n,
        n_g=mrp_config.n_g,
        gaps=gaps,
        tainted=tainted,
        mean_gap=mean_gap,
        sample_variance=var,
        half_width=half_width,
        ci_upper=mean_gap + half_width,
        candidate_mean_cost=ordered_sum(costs) / used,
    )
