"""Recompute the reference optimum and plan that the ph-s8 and ef-s8 workloads read.

Solves the extensive form of each 8-storm training sample at gap 0 and
merges the objective and the optimal plan's document into ``reference.json``,
keyed by sample seed.  The checks compare the planners against the
objective; the evaluation and validation stages score the plan.

Usage: python3 perfbench/reference.py [--sample-seeds 11 12 13]
"""

from __future__ import annotations

import argparse
import json
import sys

import workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample-seeds", type=int, nargs="+", default=[11])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(workload.ROOT / "src"))
    from gridprep import formulation
    from gridprep.milp import solve_milp

    doc = json.loads(workload.REFERENCE.read_text()) if workload.REFERENCE.exists() else {
        "command": "python3 perfbench/reference.py --sample-seeds SEED ...",
        "gap_tol": 0.0,
        "sample_size": workload.TRAIN_SIZE,
        "optimum": {},
    }
    doc.setdefault("plan", {})
    for seed in args.sample_seeds:
        inp = workload.setup(seed, holdout_seed=0)
        compiled = formulation.build_extensive_form(inp.model, inp.train, inp.config, loops=inp.loops)
        sol = solve_milp(compiled.problem, gap_tol=0.0)
        if sol.status != "optimal":
            print(f"sample seed {seed}: extensive form status {sol.status}", file=sys.stderr)
            return 1
        doc["optimum"][str(seed)] = sol.objective
        plan = formulation.plan_from_solution(compiled.index, sol)
        doc["plan"][str(seed)] = formulation.plan_to_document(plan, inp.config.fuel_quantum)
        print(f"sample seed {seed}: optimum {sol.objective!r} (bound {sol.best_bound!r})")
    workload.REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
