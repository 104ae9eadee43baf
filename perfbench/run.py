"""Benchmark of gridprep's time to plan, validate and evaluate on the 13-bus fixture.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ph-s8,ef-s8} --seed N \\
        --seconds S --trace {0,1} [--sample-seed 11] [--holdout-seed 99] [--mrp-seed 7]

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each workload runs
in a child process (``workload.py``); ``setup_s`` is the median over that
process and ``SETUP_PROBES`` more that only set up.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workload  # noqa: E402  (needs HERE on the path)

SETUP_PROBES = 2
DEADLINE_S = 170.0  # a run must end within 180 s

#: metric names and units, in the order the benchmark defines them
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())


class RunError(RuntimeError):
    pass


def launch(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run workload.py; return (seconds from start to its READY line, its last line)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        watchdog.start()
        try:
            ready_s, last = None, ""
            for line in proc.stdout:
                if ready_s is None and line.rstrip("\n") == workload.READY:
                    ready_s = time.perf_counter() - t0
                if line.strip():
                    last = line
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
    if code != 0 or ready_s is None:
        raise RunError(f"workload process {argv} exited with code {code}")
    return ready_s, last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--sample-seed", type=int, default=11, help="8-storm training sample")
    parser.add_argument("--holdout-seed", type=int, default=99, help="16 held-out storms")
    parser.add_argument("--mrp-seed", type=int, default=7, help="base seed of the MRP replications")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridprep" / "__init__.py").is_file():
        print(f"perfbench: no gridprep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through launch() so that it kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--sample-seed", str(args.sample_seed),
              "--holdout-seed", str(args.holdout_seed), "--mrp-seed", str(args.mrp_seed)]
    try:
        setup = [] if args.trace else [
            launch(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
        ready_s, last = launch(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                         "--trace", str(args.trace)], deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = json.loads(last)
    if args.trace:
        values = result["layers"]
    else:
        values = {
            "setup_s": statistics.median(setup + [ready_s]),
            "plan_s": statistics.median(result["plan_s"]),
            "validate_s": statistics.median(result["validate_s"]),
            "evals_per_s": statistics.median(result["evals_per_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    # the wall times behind the scaled validate_s and evals_per_s
    print(f"perfbench: scoring {json.dumps(result['scoring'])}")
    correct = not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in METRICS["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
