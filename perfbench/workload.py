"""One benchmark process: set up the inputs, run whole rounds of a workload, check them.

``run.py`` starts this file once per setup probe and once for the measured
run; it reads the time of the ``READY`` line as the setup time and the JSON
of the last line as the result.  Every call goes through the public
functions that the ``gridprep`` CLI commands call, with their defaults.

Each round of either workload runs the CLI's planning and scoring commands:

1. plan: ``ph-s8`` runs ``ph_solve`` (``solve-ph``); ``ef-s8`` compiles the
   extensive form, solves it at gap 1e-4 and extracts the plan
   (``solve-ef``); both price the plan on the 8-storm training sample.
2. evaluation: ``evaluate_plan`` on 16 held-out storms (``evaluate``), twice.
3. validation: ``mrp_validate`` with n=2, n_g=3 (``validate-mrp``).

Steps 2 and 3 score the sample's reference plan (``reference.json``), read
as a plan document during set-up, so that their work does not depend on
which of several near-optimal plans step 1 returns.  Each of them is timed
in segments of about a second, each divided by the machine's speed read
at its ends (``calibrate.py``).

Usage: python3 perfbench/workload.py --workload NAME [--setup-only] [--trace 0|1]
       [--seed N] [--seconds S] [--sample-seed 11] [--holdout-seed 99] [--mrp-seed 7]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
READY = "perfbench: inputs ready"
WORKLOADS = ("ph-s8", "ef-s8")
TRAIN_SIZE = 8
HELDOUT_SIZE = 16
EF_GAP = 1e-4  # the solve-ef default
MRP_N, MRP_NG = 2, 3
EVAL_PASSES = 2  # passes over the held-out storms
EVAL_SEGMENT = 4  # evaluations between two readings of the machine's speed
PH_EF_AGREEMENT = 0.01  # the paper's PH-EF agreement, relative to the EF optimum
REFERENCE = HERE / "reference.json"


@dataclass
class Inputs:
    docs: dict  # feeder, config: the documents as read
    model: object
    config: object
    wind: object
    fragility: object
    loops: object
    train: object
    held: object
    optimum: float | None  # the reference optimum of the training sample
    plan: object  # the reference plan that steps 2 and 3 score


def setup(sample_seed: int, holdout_seed: int) -> Inputs:
    """Import gridprep, read and validate the four inputs and the reference
    plan, find loops, sample storms."""
    # every module the CLI imports, so that no import lands in a timed stage
    from gridprep import data, formulation, hedging, mrp, network, report, scenarios  # noqa: F401

    texts = {name: path.read_text() for name, path in (
        ("feeder", data.feeder13_path()), ("config", data.config13_path()),
        ("fragility", data.fragility13_path()), ("wind", data.wind13_path()))}
    model = network.load_network(texts["feeder"])
    config_doc = json.loads(texts["config"])
    config = formulation.config_from_document(config_doc)
    fragility = scenarios.fragility_from_document(json.loads(texts["fragility"]))
    wind = scenarios.load_wind_csv(texts["wind"])
    loops = network.enumerate_loops(model)
    train = scenarios.generate_scenario_set(model, wind, fragility, count=TRAIN_SIZE, seed=sample_seed)
    held = scenarios.generate_scenario_set(model, wind, fragility, count=HELDOUT_SIZE, seed=holdout_seed)
    docs = {"feeder": json.loads(texts["feeder"]), "config": config_doc}
    reference = json.loads(REFERENCE.read_text())
    optimum = reference["optimum"].get(str(sample_seed))
    plan_doc = reference.get("plan", {}).get(str(sample_seed))
    plan = formulation.plan_from_document(plan_doc, config.fuel_quantum) if plan_doc else None
    return Inputs(docs, model, config, wind, fragility, loops, train, held, optimum, plan)


@dataclass
class Scoring:
    """Wall times of steps 2 and 3, and the same scaled to the reference machine's speed."""

    evaluated: int  # successful evaluations
    eval_s: float
    eval_scaled_s: float
    validate_s: float  # the mrp_validate call, readings left out
    validate_scaled_s: float


@dataclass
class Round:
    plan_s: float = 0.0
    scoring: Scoring | None = None
    attempted: int = 0
    failed: int = 0
    plan: object = None
    ph: object = None  # PhResult on ph-s8
    ef: tuple | None = None  # (compiled, solution) on ef-s8
    reports: list = field(default_factory=list)  # (storm, EvaluationReport)
    mrps: list = field(default_factory=list)  # MrpResult


def run_round(inp: Inputs, workload: str, order: list[int], mrp_seed: int, traced: bool) -> Round:
    from gridprep import formulation, hedging, mrp, report, scenarios
    from gridprep.milp import solve as milp_solve

    rnd = Round(attempted=1)
    t0 = time.perf_counter()
    try:
        if workload == "ph-s8":
            rnd.ph = hedging.ph_solve(inp.model, inp.train, inp.config, hedging.PhConfig(),
                                      loops=inp.loops)
            rnd.plan = rnd.ph.plan
            rnd.failed += 0 if rnd.ph.converged else 1
        else:
            compiled = formulation.build_extensive_form(inp.model, inp.train, inp.config,
                                                        loops=inp.loops)
            sol = milp_solve.solve_milp(compiled.problem, gap_tol=EF_GAP)
            rnd.ef = (compiled, sol)
            rnd.failed += 0 if sol.status == "optimal" else 1
            if sol.ok:
                rnd.plan = formulation.plan_from_solution(compiled.index, sol)
    except (hedging.PhError, formulation.FormulationError) as exc:
        rnd.failed += 1
        print(f"perfbench: plan stage failed: {exc}", file=sys.stderr)
    rnd.plan_s = time.perf_counter() - t0

    clock = calibrate.ScaledClock(read=not traced)
    evaluated = 0
    storms = [inp.held.scenarios[i] for _ in range(EVAL_PASSES) for i in order]
    for k, storm in enumerate(storms, 1):
        rnd.attempted += 1
        try:
            rnd.reports.append((storm, report.evaluate_plan(inp.plan, inp.model, storm,
                                                            inp.config, loops=inp.loops)))
            evaluated += 1
        except report.EvaluationError as exc:
            rnd.failed += 1
            print(f"perfbench: evaluation failed: {exc}", file=sys.stderr)
        if k % EVAL_SEGMENT == 0 and k < len(storms):
            clock.mark()
    eval_s, eval_scaled_s = clock.take()

    def sampler(n, seed):
        clock.mark()  # a reading at the start of each replication
        return scenarios.generate_scenario_set(inp.model, inp.wind, inp.fragility, count=n, seed=seed)

    rnd.attempted += MRP_NG
    try:
        result = mrp.mrp_validate(inp.plan, inp.model, inp.config, sampler,
                                  mrp.MrpConfig(n=MRP_N, n_g=MRP_NG, base_seed=mrp_seed),
                                  loops=inp.loops)
        rnd.mrps.append(result)
        rnd.failed += result.tainted
    except mrp.MrpError as exc:
        rnd.failed += MRP_NG
        print(f"perfbench: validation failed: {exc}", file=sys.stderr)
    rnd.scoring = Scoring(evaluated, eval_s, eval_scaled_s, *clock.take())
    return rnd


def check_round(inp: Inputs, workload: str, rnd: Round) -> list[str]:
    """Failure messages for one round's outputs; empty when every check holds."""
    from gridprep import formulation

    feeder, config = inp.docs["feeder"], inp.docs["config"]
    if rnd.plan is None:
        out = ["no plan"]
    else:
        plan_doc = formulation.plan_to_document(rnd.plan, inp.config.fuel_quantum)
        out = checks.plan_failures(plan_doc, feeder, config)
        if workload == "ph-s8":
            if not rnd.ph.converged:
                out.append(f"hedging did not converge in {rnd.ph.iterations} iterations")
            out += checks.optimum_failures("ef_cost", rnd.ph.ef_cost, inp.optimum, PH_EF_AGREEMENT)
        else:
            out += _ef_failures(inp, *rnd.ef)
    for _, rep in rnd.reports:
        out += checks.evaluation_failures(rep.to_document(), feeder)
    for result in rnd.mrps:
        out += checks.mrp_failures(result.to_document())
    return out


def _ef_failures(inp: Inputs, compiled, sol) -> list[str]:
    from gridprep import formulation

    out = []
    if sol.status != "optimal":
        return [f"extensive form status {sol.status}"]
    if not sol.best_bound <= sol.objective:
        out.append(f"best bound {sol.best_bound!r} exceeds the objective {sol.objective!r}")
    gap = (sol.objective - sol.best_bound) / max(1.0, abs(sol.objective))
    if gap > EF_GAP:
        out.append(f"relative gap {gap!r} exceeds {EF_GAP}")
    problem = compiled.problem
    _, a, senses, b, lower, upper = problem.matrices()
    x = np.array([sol.values[v.id] for v in problem.variables])
    integer_mask = np.array([v.is_integer for v in problem.variables])
    out += checks.solution_failures(a, senses, b, lower, upper, integer_mask, x)

    recomputed = 0.0
    for si, storm in enumerate(inp.train.scenarios):
        sched = formulation.extract_schedule(inp.model, storm, compiled.index, sol, si)
        recomputed += storm.probability * checks.schedule_cost(
            inp.docs["feeder"], inp.docs["config"], sched.gen_p.values(),
            sched.switch_ops.values(), sched.pickup)
    out += checks.cost_match_failures("EF cost from schedules", recomputed, sol.objective)
    return out + checks.optimum_failures("EF objective", sol.objective, inp.optimum, EF_GAP)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--sample-seed", type=int, default=11)
    parser.add_argument("--holdout-seed", type=int, default=99)
    parser.add_argument("--mrp-seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    tracer = None
    if args.trace:
        import spans as span_trace

        tracer = span_trace.Tracer()
        tracer.install()
    inp = setup(args.sample_seed, args.holdout_seed)
    print(READY, flush=True)
    if args.setup_only:
        return 0
    if inp.optimum is None or inp.plan is None:
        print(f"perfbench: reference.json has no optimum and plan for sample seed "
              f"{args.sample_seed}; run perfbench/reference.py --sample-seeds {args.sample_seed}",
              file=sys.stderr)
        return 1
    setup_spans, setup_overhead = tracer.take() if tracer else ([], 0.0)

    # the run seed orders the held-out evaluations; the storm samples are
    # part of the workload, because one MILP's solve time changes several
    # fold from one sample to the next
    order = random.Random(args.seed).sample(range(HELDOUT_SIZE), HELDOUT_SIZE)
    rounds, layers, spans = [], [], list(setup_spans)
    t_measure = time.perf_counter()
    while not rounds or time.perf_counter() - t_measure < args.seconds:
        rnd = run_round(inp, args.workload, order, args.mrp_seed, traced=tracer is not None)
        rounds.append(rnd)
        if tracer:
            round_spans, overhead = tracer.take()
            spans += round_spans
            metrics = span_trace.layer_metrics(setup_spans + round_spans,
                                               rnd.ph.iterations if rnd.ph else 0)
            metrics["trace.overhead_s"] = setup_overhead + overhead
            metrics["trace.plan_s"] = rnd.plan_s
            layers.append(metrics)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        span_trace.dump_spans(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json", spans)

    failures = [msg for rnd in rounds for msg in check_round(inp, args.workload, rnd)]
    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    result = {
        "rounds": len(rounds),
        "plan_s": [r.plan_s for r in rounds],
        "validate_s": [r.scoring.validate_scaled_s for r in rounds],
        "evals_per_s": [r.scoring.evaluated / r.scoring.eval_scaled_s for r in rounds],
        "scoring": [asdict(r.scoring) for r in rounds],
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "failures": failures,
        "layers": {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
