"""Spans around gridprep's public functions, and the per-layer metrics read from them.

The tracer replaces each traced function with a wrapper at the place its
caller looks it up: gridprep imports ``solve_milp`` and the ``build_*``
functions by name into ``hedging``, ``mrp`` and ``report``, so each of those
bindings is wrapped on its own.  ``solve_milp`` calls itself through its
module's global for the hint repair, so wrapping that global turns the
nested call into a child span.  Spans stay in memory and are written out
when the run ends.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _problem_size(args, kwargs, result) -> dict:
    problem = result.problem
    return {"cols": problem.num_variables, "rows": problem.num_constraints,
            "integers": len(problem.integer_ids)}


def _highs_milp_size(args, kwargs, result) -> dict:
    cons = kwargs.get("constraints")
    return {"cols": len(kwargs["c"]), "rows": cons.A.shape[0] if hasattr(cons, "A") else 0,
            "nodes": int(getattr(result, "mip_node_count", 0) or 0)}


def _highs_lp_size(args, kwargs, result) -> dict:
    rows = sum(m.shape[0] for m in (kwargs.get("A_ub"), kwargs.get("A_eq")) if m is not None)
    return {"cols": len(args[0]), "rows": rows, "nodes": 0}


COMPILE = "formulation.compile"
SOLVE = "milp.solve"
HIGHS = ("highs.milp", "highs.lp")

#: (module, attribute, span name, attribute reader): every place a caller looks a traced function up
SITES = (
    ("gridprep.network", "load_network", "network.load", None),
    ("gridprep.network", "enumerate_loops", "network.loops", None),
    ("gridprep.scenarios", "generate_scenario_set", "scenarios.sample", None),
    ("gridprep.formulation", "build_extensive_form", COMPILE, _problem_size),
    ("gridprep.hedging", "build_subproblem", COMPILE, _problem_size),
    ("gridprep.hedging", "build_ph_subproblem", COMPILE, _problem_size),
    ("gridprep.mrp", "build_extensive_form", COMPILE, _problem_size),
    ("gridprep.mrp", "build_subproblem", COMPILE, _problem_size),
    ("gridprep.report", "build_subproblem", COMPILE, _problem_size),
    ("gridprep.milp.solve", "solve_milp", SOLVE, None),
    ("gridprep.hedging", "solve_milp", SOLVE, None),
    ("gridprep.mrp", "solve_milp", SOLVE, None),
    ("gridprep.report", "solve_milp", SOLVE, None),
    ("gridprep.milp.solve", "scipy_milp", "highs.milp", _highs_milp_size),
    ("gridprep.milp.solve", "linprog", "highs.lp", _highs_lp_size),
    ("gridprep.hedging", "ph_solve", "hedging.ph_solve", None),
    ("gridprep.hedging", "repair_consensus", "hedging.consensus", None),
    ("gridprep.hedging", "evaluate_plan_cost", "hedging.pricing", None),
    ("gridprep.mrp", "mrp_validate", "mrp.validate", None),
    ("gridprep.mrp", "replicate_gap", "mrp.replicate", None),
    ("gridprep.report", "evaluate_plan", "report.evaluate", None),
    ("gridprep.report", "extract_schedule", "report.extract", None),
)


class Tracer:
    """Records one span per call of each wrapped function.

    Parents come from a per-thread stack, so a span opened on a worker
    thread has no parent, and ``overhead_s`` is summed without a lock; the
    benchmark keeps gridprep's default of one worker.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0  # time spent in the wrappers themselves
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = time.perf_counter()
            stack = tracer._stack()
            span = Span(id=next(tracer._ids), name=name, parent=stack[-1].id if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            tracer.overhead_s += (span.start - t_enter) + (time.perf_counter() - span.end)
            return result

        return traced

    def install(self) -> None:
        """Wrap every site; a missing site is an error, since its layer would read 0."""
        # import every module first: one imported after a wrap would bind the wrapper by name
        modules = {name: importlib.import_module(name) for name, *_ in SITES}
        for module_name, attr, span_name, attrs in SITES:
            module = modules[module_name]
            setattr(module, attr, self.wrap(span_name, getattr(module, attr), attrs))

    def take(self) -> tuple[list[Span], float]:
        """Spans and wrapper time recorded since the last call, then reset."""
        spans, overhead = self.spans, self.overhead_s
        self.spans, self.overhead_s = [], 0.0
        return spans, overhead


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    A parent and its children share one thread, so the children never overlap.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}


def layer_metrics(spans: list[Span], ph_iterations: int) -> dict[str, float]:
    """Per-layer metrics of one round; layers the workload does not reach read 0."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def parent_name(s: Span):
        return by_id[s.parent].name if s.parent in by_id else None

    def total(group):
        return sum(s.duration for s in group)

    def median(group):
        return statistics.median(s.duration for s in group) if group else 0.0

    def largest(group):
        return max(group, key=lambda s: s.attrs["cols"]).attrs if group else {}

    compiles = named(COMPILE)
    solves = named(SOLVE)
    top_solves = [s for s in solves if parent_name(s) != SOLVE]
    highs = named(*HIGHS)
    ph = named("hedging.ph_solve")
    ph_ids = {s.id for s in ph}
    big_compile, big_highs = largest(compiles), largest(highs)
    return {
        "network.load_s": total(named("network.load")),
        "network.loops_s": total(named("network.loops")),
        "scenarios.sample_s": total(named("scenarios.sample")),
        "formulation.compile_s": sum(own[s.id] for s in compiles),
        "formulation.compiles": len(compiles),
        "formulation.cols": big_compile.get("cols", 0),
        "formulation.rows": big_compile.get("rows", 0),
        "formulation.integers": big_compile.get("integers", 0),
        "milp.solves": len(top_solves),
        "milp.hint_resolves": len(solves) - len(top_solves),
        "milp.overhead_s": total(top_solves) - total(highs),
        "highs.calls": len(highs),
        "highs.solve_s": total(highs),
        "highs.nodes": sum(s.attrs["nodes"] for s in highs),
        "highs.cols": big_highs.get("cols", 0),
        "highs.rows": big_highs.get("rows", 0),
        "highs.useful_ratio": len(top_solves) / len(highs) if highs else 0.0,
        "hedging.iterations": ph_iterations,
        "hedging.subproblem_solves": sum(1 for s in solves if s.parent in ph_ids),
        "hedging.self_s": sum(own[s.id] for s in ph),
        "hedging.consensus_s": total(named("hedging.consensus")),
        "hedging.pricing_s": total(named("hedging.pricing")),
        "mrp.replications": len(named("mrp.replicate")),
        "mrp.replication_s": median(named("mrp.replicate")),
        "report.evaluate_s": median(named("report.evaluate")),
        "report.extract_s": total(named("report.extract")),
    }


def dump_spans(path, spans: list[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([asdict(s) for s in spans]) + "\n")
