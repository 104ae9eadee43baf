"""Progressive hedging over scenario subproblems.

Every iteration τ = 0, 1, 2, ... solves each scenario's subproblem augmented
with its running price vector and a proximal pull toward an anchor, then
moves the anchor to the probability-weighted mean of the first-stage
decisions and each price by ρ times its scenario's deviation from that mean;
ρ is ``PhConfig.rho`` in every iteration.  Iteration 0 starts from zero
prices and no pull, so each scenario is solved alone.  A prior plan that
passes the first-stage rules warm-starts the loop (Watson & Woodruff 2011):
iteration 0 then pulls every scenario toward that plan with the full ρ.
With two or more scenarios, every subproblem also carries a tiny
first-stage cost shared by all of them, so exact ties resolve the same way
everywhere.  The loop stops once the weighted deviation from the mean falls
below the threshold, then extracts a consensus plan (majority vote projected
onto the first-stage constraints) and prices it by re-solving every scenario
with the plan pinned.

Each scenario's subproblem is compiled once; every iteration solves a
copy of it with that iteration's prices, and the consensus is priced on
copies of it with the plan's columns pinned.  The compiles'
:class:`~gridprep.formulation.FirstStageVars` name the hedging vector's
columns and turn a prior plan into the first anchor and the final mean
into the consensus votes.  Subproblems of one iteration are independent
and solve through :func:`~gridprep.parallel.map_in_order` (HiGHS releases
the GIL) on one worker per usable core, the calling thread included, and
no more than one per scenario.  Results merge in scenario order and HiGHS
is deterministic, so the worker count never changes the outcome.

The hedging vector stays an array from each solve's checked point to the
artifacts: decisions and prices are (scenarios, n) arrays and the mean an
(n,) array.  The mean, g, the drift check and the priced cost add in
scenario order through :func:`~gridprep.parallel.ordered_sum`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .formulation import (
    CompiledProblem,
    FirstStagePlan,
    FormulationConfig,
    build_first_stage,
    build_ph_subproblem,
    build_subproblem,
    pin_plan,
    plan_from_solution,
    VariableIndex,
)
from .milp import BINARY, GE, MilpProblem, solve_milp
from .network import LoopSet, NetworkModel, enumerate_loops
from .parallel import map_in_order, ordered_sum
from .scenarios import ScenarioSet


class PhError(RuntimeError):
    pass


GAP_TOL = 1e-6
# tiny common first-stage cost so exact ties resolve the same way in
# every scenario; without it, equal-cost placements swap forever
TIE_BREAK_WEIGHT = 0.02


@dataclass(frozen=True)
class PhConfig:
    rho: float = 1.0
    epsilon: float = 0.01
    max_iterations: int = 100
    prior_plan: FirstStagePlan | None = None

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class PhState:
    """The last iteration's vectors: ``x_s`` and ``eta_s`` are (scenarios,
    n) arrays, one row per scenario, and ``x_bar`` is an (n,) array."""

    iteration: int
    x_s: np.ndarray
    x_bar: np.ndarray
    eta_s: np.ndarray
    metric_history: list[float]

    def to_document(self) -> dict:
        return {
            "iteration": self.iteration,
            "x_s": self.x_s.tolist(),
            "x_bar": self.x_bar.tolist(),
            "eta_s": self.eta_s.tolist(),
            "metric_history": self.metric_history,
        }


@dataclass
class PhResult:
    plan: FirstStagePlan
    converged: bool
    iterations: int
    scenario_objectives: list[float]
    ef_cost: float
    metric_history: list[float]
    log_rows: list[tuple[int, float, float, float]]  # iter, g, elapsed_s, mean obj
    state: PhState


def _by_scenario(x_s) -> np.ndarray:
    """The scenario vectors as one (scenarios, n) array; a ragged list
    (which NumPy refuses) or an empty one raises ValueError."""
    rows = np.asarray(x_s, dtype=float)
    if rows.ndim != 2 or not len(rows):
        raise ValueError("expected a non-empty list of equal-length scenario vectors")
    return rows


def aggregate(x_s, probabilities: Sequence[float]) -> np.ndarray:
    """Probability-weighted mean of the per-scenario first-stage vectors,
    added scenario by scenario."""
    rows = _by_scenario(x_s)
    probs = np.asarray(probabilities, dtype=float)
    if abs(ordered_sum(probs) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    return ordered_sum(probs[:, None] * rows)


def convergence_metric(x_s, x_bar, probabilities: Sequence[float]) -> float:
    """Probability-weighted L1 deviation of the scenario decisions from the
    mean, each scenario's deviations added in vector order."""
    rows = _by_scenario(x_s)
    if rows.shape[1:] != np.shape(x_bar):
        raise ValueError("scenario vector does not match the aggregate dimension")
    deviation = ordered_sum(np.abs(rows - x_bar), axis=1)
    return ordered_sum(np.asarray(probabilities, dtype=float) * deviation)


def repair_consensus(
    model: NetworkModel,
    config: FormulationConfig,
    votes: Mapping[str, Mapping],
) -> FirstStagePlan:
    """Project the vote vector onto the first-stage constraints (min L1 move).

    Small MILP over the first-stage block only; binaries use the
    exact expansion of |x - v| and integers an auxiliary deviation variable.
    """
    problem = MilpProblem("consensus_repair")
    index = VariableIndex()
    cells = build_first_stage(model, config, problem, index).columns()
    vids = np.array([vid for _, _, vid in cells], dtype=np.int64)
    vote = np.array([float(votes.get(kind, {}).get(entity, 0.0)) for kind, entity, _ in cells])
    binary = problem.kind_mask(BINARY)[vids]
    # a general column's move |x - v| is a deviation column w with the rows
    # w - x >= -v and w + x >= v
    general = np.flatnonzero(~binary)
    start = problem.add_columns(np.zeros(len(general)), math.inf,
                                names=[f"dev_{cells[j][0]}_{cells[j][1]}" for j in general])
    wids = np.arange(start, start + len(general))
    problem.add_rows(np.repeat(np.column_stack([wids, vids[general]]), 2, axis=0),
                     np.tile([[1.0, -1.0], [1.0, 1.0]], (len(general), 1)),
                     GE, np.column_stack([-vote[general], vote[general]]).ravel())
    problem.add_objective(vids[binary], 1.0 - 2.0 * vote[binary])
    problem.add_objective(wids, 1.0)
    # a binary's move |x - v| is (1 - 2v) x + v; the constants add in cell order
    problem.objective_constant = ordered_sum(vote[binary], start=problem.objective_constant)
    sol = solve_milp(problem.seal(), gap_tol=0.0)
    if not sol.verdict("consensus repair"):
        raise PhError("consensus repair found no feasible first-stage plan")
    return plan_from_solution(index, sol)


def evaluate_plan_cost(
    scen_set: ScenarioSet,
    plain: Sequence[CompiledProblem],
    plan: FirstStagePlan,
) -> tuple[float, list[float]]:
    """True expected cost of a plan: each compiled scenario re-solved with it pinned.

    ``plain`` holds the scenarios' compiles in ``scen_set`` order; each is
    solved as :func:`~gridprep.formulation.pin_plan` copies it, without the
    first-stage rows, so any plan that meets the first stage's rows and
    bounds with the totals read as ``<=`` (``violations(strict_totals=False)``
    is empty) can be priced.
    """

    def solve_one(comp: CompiledProblem) -> float:
        sol = solve_milp(pin_plan(comp, plan), gap_tol=GAP_TOL)
        if not sol.verdict(f"scenario {comp.scenario_ids[0]} subproblem"):
            raise PhError(f"scenario {comp.scenario_ids[0]} subproblem is infeasible")
        return sol.objective

    objs = map_in_order(solve_one, plain)
    ef_cost = ordered_sum(np.array([s.probability for s in scen_set.scenarios]) * objs)
    return ef_cost, objs


def ph_solve(
    model: NetworkModel,
    scen_set: ScenarioSet,
    config: FormulationConfig,
    ph_config: PhConfig,
    loops: LoopSet | None = None,
) -> PhResult:
    """Run the two-stage hedging loop and return the consensus plan."""
    if len(scen_set) == 0:
        raise PhError("scenario set is empty")
    prior = ph_config.prior_plan
    if prior is not None:
        bad = prior.violations(model, config, strict_totals=False)
        if bad:
            raise PhError(f"prior plan is infeasible: {bad[0]}")
    if loops is None:
        loops = enumerate_loops(model)
    t_start = time.perf_counter()
    plain = [build_subproblem(model, scen, config, loops=loops) for scen in scen_set.scenarios]
    # every compile lays its first stage out alike
    first = plain[0].first
    probs = np.array([s.probability for s in scen_set.scenarios])
    # a single scenario has no ties to break; keep its optimum untouched
    tie_break = TIE_BREAK_WEIGHT if len(scen_set) > 1 else 0.0
    rho = ph_config.rho
    # iteration 0 prices nothing (-0.0 adds as an exact zero, so the first
    # update leaves rho * (x - x_bar) bit for bit) and pulls only toward a
    # prior plan
    eta_s = np.full((len(probs), len(first.ids)), -0.0)
    if prior is None:
        anchor, prox_rho = np.zeros(len(first.ids)), 0.0
    else:
        anchor, prox_rho = first.vector(prior), rho
    history: list[float] = []
    log_rows: list[tuple[int, float, float, float]] = []

    for tau in itertools.count():
        def solve_scenario(si_scen):
            si, scen = si_scen
            comp = build_ph_subproblem(plain[si], multipliers=eta_s[si], anchor=anchor,
                                       rho=prox_rho, tie_break=tie_break)
            sol = solve_milp(comp.problem, gap_tol=GAP_TOL)
            if not sol.verdict(f"scenario {scen.id} subproblem"):
                raise PhError(f"scenario {scen.id} subproblem is infeasible")
            return sol

        sols = map_in_order(solve_scenario, list(enumerate(scen_set.scenarios)))
        x_s = np.stack([sol.values[first.ids] for sol in sols])
        objs = [sol.objective for sol in sols]
        # each point sits in the malloc arena of the thread that solved it,
        # above the memory HiGHS freed there, which glibc keeps resident;
        # held into the next iteration, they raised ph-s8 peak RSS by ~3 MB
        del sols
        x_bar = aggregate(x_s, probs)
        eta_s = eta_s + rho * (x_s - x_bar)
        g = convergence_metric(x_s, x_bar, probs)
        history.append(g)
        log_rows.append((tau, g, time.perf_counter() - t_start, ordered_sum(objs) / len(objs)))

        # multiplier drift guard: the weighted multipliers must stay centered
        drift = np.max(np.abs(ordered_sum(probs[:, None] * eta_s)), initial=0.0)
        if drift > 1e-6:
            raise PhError(f"multiplier aggregate drifted to {drift}")
        if g <= ph_config.epsilon or tau >= ph_config.max_iterations:
            break
        anchor, prox_rho = x_bar, rho

    state = PhState(iteration=tau, x_s=x_s, x_bar=x_bar, eta_s=eta_s, metric_history=history)
    plan = repair_consensus(model, config, first.votes(x_bar))
    bad = plan.violations(model, config)
    if bad:
        raise PhError(f"consensus plan violates first-stage constraints: {bad}")
    ef_cost, scen_objs = evaluate_plan_cost(scen_set, plain, plan)
    return PhResult(
        plan=plan,
        converged=g <= ph_config.epsilon,
        iterations=tau,
        scenario_objectives=scen_objs,
        ef_cost=ef_cost,
        metric_history=history,
        log_rows=log_rows,
        state=state,
    )
