"""Command-line pipeline: generate -> solve -> validate -> evaluate.

Every stage is deterministic at fixed seeds, on any number of cores.
Exit codes: 0 success, 2 input error, 3 infeasible model or plan, 4 solver
did not converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .document import loads
from .formulation import (
    FormulationConfig,
    FormulationError,
    build_extensive_form,
    config_from_document,
    plan_from_document,
    plan_from_solution,
    plan_to_document,
)
from .hedging import PhConfig, PhError, ph_solve
from .milp import NumericalInstabilityError, SolverStoppedError, solve_milp, write_lp
from .mrp import MrpConfig, MrpError, mrp_validate
from .network import enumerate_loops, load_network, validate_regions
from .parallel import map_in_order, ordered_sum
from .report import (
    PV_SWEEP_COUNTS,
    EvaluationError,
    InsufficientResourcesError,
    build_base_plan,
    evaluate_plan,
    sweep_pv,
)
from .scenarios import (
    FragilityParams,
    fragility_from_document,
    generate_scenario_set,
    load_scenarios,
    load_wind_csv,
    scenario_set_to_document,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_CONVERGED = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line through the exit-code table; subcommand
    parsers are of this class too."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _parse(path: str, what: str, parse):
    """``parse`` of the file's text.  A missing, unreadable or malformed file
    is an input error, reported as ``what``: the reason."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"{what}: cannot read {path} ({exc.strerror})") from exc
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise CliError(f"{what}: {exc}") from exc


def _model(args):
    return _parse(args.network, "network document", load_network)


def _config(args) -> FormulationConfig:
    if not args.config:
        return FormulationConfig()
    return _parse(args.config, "config file",
                  lambda text: config_from_document(loads(text, FormulationError)))


def _plan(path: str, config: FormulationConfig):
    return _parse(path, "plan file",
                  lambda text: plan_from_document(loads(text, ValueError), config.fuel_quantum))


def _sampler(args, model):
    """Draws (count, seed) -> storms under ``--wind`` and ``--fragility``."""
    wind = _parse(args.wind, "wind file", load_wind_csv)
    params = (_parse(args.fragility, "fragility file",
                     lambda text: fragility_from_document(loads(text, ValueError)))
              if args.fragility else FragilityParams())
    return lambda count, seed: generate_scenario_set(model, wind, params, count=count, seed=seed)


def _scenario_set(args, model):
    return _parse(args.scenarios, "scenario file", lambda text: load_scenarios(text, model))


def _write(args, name: str, content):
    """Writes ``content`` to ``name`` in ``--out``, made with the first artifact; the one
    encoder of artifacts.  A ``.csv`` table, (header, rows), is one line per row, floats as
    ``float.__repr__`` and other cells as ``str``; text is written as it is and anything else
    as JSON with sorted keys and 2-space indent.  An unwritable ``--out`` is an input error."""
    if isinstance(content, str):
        text = content
    elif name.endswith(".csv"):
        header, rows = content
        text = "".join(",".join(float.__repr__(cell) if isinstance(cell, float) else str(cell)
                                for cell in row) + "\n" for row in (header, *rows))
    else:
        text = json.dumps(content, indent=2, sort_keys=True)
    path = Path(args.out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"--out {args.out}: cannot write {name} ({exc.strerror})") from exc
    print(f"wrote {path}")


def cmd_generate(args) -> int:
    if args.count < 1:
        raise CliError("--count must be >= 1")
    scen_set = _sampler(args, _model(args))(args.count, args.seed)
    _write(args, "scenarios.json", scenario_set_to_document(scen_set))
    return EXIT_OK


def cmd_solve_ef(args) -> int:
    if not 0.0 <= args.gap < 1.0:
        raise CliError(f"--gap must be in [0, 1), got {args.gap}")
    model = _model(args)
    config = _config(args)
    scen_set = _scenario_set(args, model)
    compiled = build_extensive_form(model, scen_set, config)
    if args.dump_lp:
        _write(args, "extensive_form.lp", write_lp(compiled.problem))
    sol = solve_milp(compiled.problem, gap_tol=args.gap)
    if not sol.verdict("extensive form"):
        raise CliError("extensive form is infeasible", EXIT_INFEASIBLE)
    plan = plan_from_solution(compiled.index, sol)
    _write(args, "ef_plan.json", plan_to_document(plan, config.fuel_quantum))
    _write(args, "ef_solution.json", {"objective": sol.objective, "best_bound": sol.best_bound,
                                      "status": sol.status, "scenarios": len(scen_set)})
    return EXIT_OK


def cmd_solve_ph(args) -> int:
    model = _model(args)
    config = _config(args)
    scen_set = _scenario_set(args, model)
    prior = _plan(args.soft_start, config) if args.soft_start else None
    try:
        ph_config = PhConfig(
            rho=args.rho,
            epsilon=args.epsilon,
            max_iterations=args.max_iters,
            prior_plan=prior,
        )
    except ValueError as exc:
        raise CliError(f"hedging settings: {exc}") from exc
    result = ph_solve(model, scen_set, config, ph_config)
    _write(args, "ph_plan.json", plan_to_document(result.plan, config.fuel_quantum))
    _write(args, "ph_log.csv", (("iter", "g", "elapsed_s", "mean_subproblem_obj"), result.log_rows))
    _write(args, "ph_state.json", result.state.to_document())
    _write(args, "ph_result.json", {
        "converged": result.converged,
        "iterations": result.iterations,
        "ef_cost": result.ef_cost,
        "scenario_objectives": result.scenario_objectives,
        "metric_history": result.metric_history,
    })
    if not result.converged:
        print(f"hedging stopped at g={result.metric_history[-1]:.6g} "
              f"after {result.iterations} iterations", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_validate_mrp(args) -> int:
    model = _model(args)
    config = _config(args)
    candidate = _plan(args.candidate, config)
    sampler = _sampler(args, model)
    try:
        mrp_config = MrpConfig(alpha=args.alpha, n=args.n, n_g=args.ng, base_seed=args.seed)
    except ValueError as exc:
        raise CliError(f"validation settings: {exc}") from exc
    result = mrp_validate(candidate, model, config, sampler, mrp_config)
    _write(args, "mrp.json", result.to_document())
    print(f"one-sided CI on the optimality gap: [0, {result.ci_upper:.6g}] "
          f"([0, {result.ci_upper_pct:.2f}%] of candidate cost)")
    return EXIT_OK


def cmd_base_plan(args) -> int:
    model = _model(args)
    config = _config(args)
    plan = build_base_plan(model, config)
    _write(args, "base_plan.json", plan_to_document(plan, config.fuel_quantum))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = _model(args)
    config = _config(args)
    scen_set = _scenario_set(args, model)
    plan = _plan(args.plan, config)
    label = args.label or Path(args.plan).stem
    loops = enumerate_loops(model)

    def evaluate(scen):
        return evaluate_plan(plan, model, scen, config, loops=loops, plan_label=label)

    reports = map_in_order(evaluate, scen_set.scenarios)
    _write(args, "evaluation.json", [r.to_document() for r in reports])
    _write(args, "served_fraction.csv", (("plan", "scenario", "t", "served_fraction"), [
        (r.plan_label, r.scenario_id, t, frac) for r in reports
        for t, frac in enumerate(r.served_fraction)]))
    mean_energy = ordered_sum([r.restored_energy_kwh * s.probability
                               for r, s in zip(reports, scen_set.scenarios)])
    mean_outage = ordered_sum([r.avg_outage_hours * s.probability
                               for r, s in zip(reports, scen_set.scenarios)])
    print(f"expected restored energy: {mean_energy:.2f} kWh; "
          f"expected average outage: {mean_outage:.2f} h")
    return EXIT_OK


def cmd_sweep_pv(args) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",") if x != ""]
    except ValueError as exc:
        raise CliError(f"--levels must be comma-separated integers: {exc}") from exc
    if not levels:
        raise CliError("--levels names no penetration level")
    unknown = [x for x in levels if x not in PV_SWEEP_COUNTS]
    if unknown:
        raise CliError(f"--levels: unknown penetration levels {unknown}; "
                       f"known: {sorted(PV_SWEEP_COUNTS)}")
    repeated = sorted({x for x in levels if levels.count(x) > 1})
    if repeated:
        raise CliError(f"--levels: repeated penetration levels {repeated}")
    model = _model(args)
    config = _config(args)
    scen_set = _scenario_set(args, model)
    results = sweep_pv(model, levels, scen_set, config)
    docs = [r.to_document() for r in results]
    _write(args, "pv_sweep.json", docs)
    _write(args, "pv_sweep.csv", (tuple(docs[0]), [tuple(doc.values()) for doc in docs]))
    return EXIT_OK


def cmd_check_network(args) -> int:
    model = _model(args)
    violations = validate_regions(model)
    for v in violations:
        print(f"violation: {v}")
    print(f"{len(model.buses)} buses, {len(model.lines)} lines, "
          f"{len(model.regions)} regions; {len(violations)} violation(s)")
    return EXIT_INFEASIBLE if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridprep",
        description="Pre-event resource allocation for storm-resilient feeders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenarios=True):
        p.add_argument("--network", required=True, help="network document (JSON)")
        p.add_argument("--config", help="formulation config (JSON)")
        p.add_argument("--out", default="out", help="output directory")
        if scenarios:
            p.add_argument("--scenarios", required=True,
                           help="scenario file (JSON), as generate-scenarios writes it")

    p = sub.add_parser("generate-scenarios", help="sample damage scenarios")
    p.add_argument("--network", required=True)
    p.add_argument("--wind", required=True)
    p.add_argument("--fragility")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("solve-ef", help="solve the extensive form directly")
    common(p)
    p.add_argument("--gap", type=float, default=1e-4, help="relative MIP gap")
    p.add_argument("--dump-lp", action="store_true", help="write the LP-format problem")
    p.set_defaults(fn=cmd_solve_ef)

    p = sub.add_parser("solve-ph", help="solve by progressive hedging")
    common(p)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--soft-start",
                   help="prior plan file; hedging iteration 0 is pulled toward it")
    p.set_defaults(fn=cmd_solve_ph)

    p = sub.add_parser("validate-mrp", help="confidence interval on a plan's optimality gap")
    common(p, scenarios=False)
    p.add_argument("--candidate", required=True, help="candidate plan file")
    p.add_argument("--wind", required=True)
    p.add_argument("--fragility")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--n", type=int, default=2, help="scenarios per replication")
    p.add_argument("--ng", type=int, default=2, help="replication count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_validate_mrp)

    p = sub.add_parser("base-plan", help="heuristic comparison plan")
    common(p, scenarios=False)
    p.set_defaults(fn=cmd_base_plan)

    p = sub.add_parser("evaluate", help="score a plan against scenarios")
    common(p)
    p.add_argument("--plan", required=True)
    p.add_argument("--label", help="plan label in reports")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep-pv", help="re-solve across PV penetration levels")
    common(p)
    p.add_argument("--levels", required=True, help="comma-separated percents, e.g. 0,9,27")
    p.set_defaults(fn=cmd_sweep_pv)

    p = sub.add_parser("check-network", help="validate a network document")
    p.add_argument("--network", required=True)
    p.set_defaults(fn=cmd_check_network)

    return parser


def main(argv=None) -> int:
    """Run one command.  Input errors are raised as :class:`CliError` where
    the command line is parsed, files are read and written and flags checked;
    this is the one table from every other failure to its exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        return _fail(str(exc), exc.code)
    except (FormulationError, PhError, MrpError, EvaluationError,
            InsufficientResourcesError) as exc:
        return _fail(str(exc), EXIT_INFEASIBLE)
    except NumericalInstabilityError as exc:
        return _fail(f"solver failed: {exc}", EXIT_NOT_CONVERGED)
    except SolverStoppedError as exc:
        return _fail(f"solver did not converge: {exc}", EXIT_NOT_CONVERGED)


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
