"""End-to-end run on the bundled 13-bus feeder.

Generates training and held-out scenario sets, solves the stochastic
program directly and by progressive hedging, re-runs hedging warm-started
from its own plan (which takes no iteration), validates the hedged plan
with the multiple replication procedure, and compares it against the
heuristic base plan on the held-out scenarios.  All stages go through the
CLI so the script doubles as a smoke test of the command surface.

Usage: python scripts/run_fixture_pipeline.py [OUT_DIR]
"""

import json
import sys
from pathlib import Path

from gridprep.cli import main as cli
from gridprep.data import config13_path, feeder13_path, fragility13_path, wind13_path


def run(*argv):
    code = cli(list(argv))
    if code != 0:
        raise SystemExit(f"stage failed with exit code {code}: {argv[0]}")


def main(out_root: Path):
    net, wind = str(feeder13_path()), str(wind13_path())
    frag, cfg = str(fragility13_path()), str(config13_path())
    out_root.mkdir(parents=True, exist_ok=True)

    run("generate-scenarios", "--network", net, "--wind", wind, "--fragility", frag,
        "--count", "4", "--seed", "11", "--out", str(out_root / "train"))
    run("generate-scenarios", "--network", net, "--wind", wind, "--fragility", frag,
        "--count", "8", "--seed", "99", "--out", str(out_root / "held"))
    train = str(out_root / "train" / "scenarios.json")
    held = str(out_root / "held" / "scenarios.json")

    run("solve-ef", "--network", net, "--config", cfg, "--scenarios", train,
        "--out", str(out_root / "ef"))
    run("solve-ph", "--network", net, "--config", cfg, "--scenarios", train,
        "--epsilon", "0.01", "--max-iters", "100", "--out", str(out_root / "ph"))
    run("solve-ph", "--network", net, "--config", cfg, "--scenarios", train,
        "--epsilon", "0.01", "--max-iters", "100",
        "--soft-start", str(out_root / "ph" / "ph_plan.json"), "--out", str(out_root / "ph_warm"))
    run("base-plan", "--network", net, "--config", cfg, "--out", str(out_root / "base"))

    run("validate-mrp", "--network", net, "--config", cfg,
        "--candidate", str(out_root / "ph" / "ph_plan.json"),
        "--wind", wind, "--fragility", frag,
        "--n", "2", "--ng", "3", "--seed", "7", "--out", str(out_root / "mrp"))

    run("evaluate", "--network", net, "--config", cfg, "--scenarios", held,
        "--plan", str(out_root / "ph" / "ph_plan.json"), "--label", "optimized",
        "--out", str(out_root / "eval_optimized"))
    run("evaluate", "--network", net, "--config", cfg, "--scenarios", held,
        "--plan", str(out_root / "base" / "base_plan.json"), "--label", "base",
        "--out", str(out_root / "eval_base"))

    ef = json.loads((out_root / "ef" / "ef_solution.json").read_text())
    ph = json.loads((out_root / "ph" / "ph_result.json").read_text())
    warm = json.loads((out_root / "ph_warm" / "ph_result.json").read_text())
    opt = json.loads((out_root / "eval_optimized" / "evaluation.json").read_text())
    base = json.loads((out_root / "eval_base" / "evaluation.json").read_text())
    print()
    print(f"direct stochastic optimum : {ef['objective']:.2f} $")
    print(f"hedged plan cost          : {ph['ef_cost']:.2f} $ "
          f"({ph['iterations']} iterations, converged={ph['converged']})")
    print(f"warm-started from it      : {warm['ef_cost']:.2f} $ "
          f"({warm['iterations']} iterations)")
    opt_kwh = sum(r["restored_energy_kwh"] for r in opt) / len(opt)
    base_kwh = sum(r["restored_energy_kwh"] for r in base) / len(base)
    opt_out = sum(r["avg_outage_hours"] for r in opt) / len(opt)
    base_out = sum(r["avg_outage_hours"] for r in base) / len(base)
    print(f"held-out served energy    : optimized {opt_kwh:.1f} kWh vs base {base_kwh:.1f} kWh")
    print(f"held-out average outage   : optimized {opt_out:.2f} h vs base {base_out:.2f} h")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/pipeline"))
