"""Compiled problems stay bit for bit what they were.

Each digest below was recorded before the problem store moved from
per-row objects to arrays.  A change to the formulation or to the store
that alters any coefficient, bound, kind, row order or name changes a
digest; such a change must say so and record new digests.

``PINNED_SHA256`` was recorded again when plans came to be pinned in a
copy of the plain compile that leaves out the first-stage rows.  What
HiGHS receives did not change: ``REDUCED_SHA256`` holds the digests of
gridprep's presolve output recorded when the plan was pinned inside the
compile, with the placement and crew totals as upper bounds.

``PH_RUN_SHA256`` pins what a hedging run leaves behind: its final state
(as ``ph_state.json`` holds it), its history of g and its priced cost.  It
was recorded again when solve objectives came to be added in column order
(the checked point's cost through ``ordered_sum``) in place of BLAS's
order: the state and the history kept their bits, and only the priced
cost's last bits moved (1059.2660412564237 to 1059.2660412564126).
``REDUCED_SHA256`` kept its value: presolve's constant, now added the same
way, has the same bits on both pinned plans.
"""

import hashlib
import json

import numpy as np
import pytest
from scipy import sparse

from gridprep.formulation import (
    FirstStagePlan,
    build_extensive_form,
    build_ph_subproblem,
    build_subproblem,
    pin_plan,
)
from gridprep.milp import write_lp
from gridprep.milp.solve import _presolve
from gridprep.report import build_base_plan

EF_LP_SHA256 = "d273ce1f7550a169c80a1870681a7ca418c64d780bb0e4ab198766c39eb7997c"
PINNED_SHA256 = "04bae6b1722d02a77d70061f740f90e42a9e11b78691b851a0e26459ee04919a"
REDUCED_SHA256 = {
    "base": "2e3f66300bad1f694021cc8c3ecefdda529f80cd972c554b9d7d79c397835cd0",
    "strict": "05f372e70ed80b38395fb8a0e5df6af5a763eef305480499afaeb67b396f1df3",
}
PH_SHA256 = "81ad1afd5dd1e76b4e456e7781923cbc5f083ce71b7eb8a9d5ec5924cc85ee4b"
PH_RUN_SHA256 = "d2d3720ff410edef9e9ef01b2e7efdf172601b1072a1f98eaf03b6766a9ccb27"


def arrays_digest(problem) -> str:
    """SHA-256 of (c, A in sorted CSC with explicit zeros kept, b, senses,
    bounds, kinds, objective constant)."""
    c, a, senses, b, lower, upper = problem.matrices()
    csc = sparse.csc_matrix(a, copy=True)
    csc.sort_indices()
    h = hashlib.sha256()
    for arr in (c, csc.indptr.astype(np.int64), csc.indices.astype(np.int64),
                csc.data.astype(float), b, lower, upper):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(csc.shape).encode())
    h.update(",".join(senses).encode())
    h.update(",".join(v.kind for v in problem.variables).encode())
    h.update(repr(problem.objective_constant).encode())
    return h.hexdigest()


def reduced_digest(problem) -> str:
    """SHA-256 of what gridprep's presolve hands HiGHS: (c, A in CSR, senses,
    b, bounds, integer mask, kept column ids, objective constant)."""
    red = _presolve(problem)
    h = hashlib.sha256()
    for arr in (red.c, red.a.indptr.astype(np.int64), red.a.indices.astype(np.int64),
                red.a.data.astype(float), red.b, red.lower, red.upper,
                red.integer_mask, red.keep_vars.astype(np.int64)):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(red.a.shape).encode())
    h.update(",".join(red.senses.tolist()).encode())
    h.update(repr(red.obj_const).encode())
    return h.hexdigest()


def test_extensive_form_lp_dump(feeder13, config13, training_scenarios, loops13):
    compiled = build_extensive_form(feeder13, training_scenarios, config13, loops=loops13)
    text = write_lp(compiled.problem)
    assert hashlib.sha256(text.encode()).hexdigest() == EF_LP_SHA256


def test_pinned_evaluation_subproblem(feeder13, config13, heldout_scenarios, loops13):
    storm = heldout_scenarios.scenarios[3]
    assert storm.damaged_lines
    compiled = build_subproblem(feeder13, storm, config13, loops=loops13)
    pinned = pin_plan(compiled, build_base_plan(feeder13, config13))
    assert arrays_digest(pinned) == PINNED_SHA256
    assert compiled.problem.num_constraints == pinned.num_constraints + compiled.first.rows


@pytest.mark.parametrize("label", sorted(REDUCED_SHA256))
def test_pinned_plan_reaches_highs_unchanged(label, feeder13, config13, heldout_scenarios, loops13):
    """The base plan holds back a mobile storage unit, so it is thrifty; the
    strict plan meets every total."""
    plans = {
        "base": build_base_plan(feeder13, config13),
        "strict": FirstStagePlan(meg_at={"f4": 1, "l8": 1}, mes_at={"f2": 1},
                                 fuel_lots={"f1": 2, "f3": 1, "f4": 1, "l8": 1},
                                 crews={"r1": 4, "r2": 1, "r3": 1}),
    }
    plan = plans[label]
    assert plan.violations(feeder13, config13, strict_totals=label == "strict") == []
    storm = heldout_scenarios.scenarios[3]
    compiled = build_subproblem(feeder13, storm, config13, loops=loops13)
    assert reduced_digest(pin_plan(compiled, plan)) == REDUCED_SHA256[label]


def test_priced_hedging_subproblem(feeder13, config13, training_scenarios, loops13):
    storm = training_scenarios.scenarios[0]
    plain = build_subproblem(feeder13, storm, config13, loops=loops13)
    ids = plain.first.ids
    spec = plain.problem.variables
    multipliers = [0.75 * ((-1) ** j) * (1 + j % 4) for j in range(len(ids))]
    anchor = [spec[v].lower + (spec[v].upper - spec[v].lower) * ((j % 5) / 4.0)
              for j, v in enumerate(ids)]
    compiled = build_ph_subproblem(plain, multipliers=multipliers, anchor=anchor, rho=1.5,
                                   tie_break=0.02)
    assert arrays_digest(compiled.problem) == PH_SHA256


def test_hedging_run_bits(ph_cold):
    h = hashlib.sha256()
    h.update(json.dumps(ph_cold.state.to_document()).encode())
    h.update(repr(ph_cold.metric_history).encode())
    h.update(repr(ph_cold.ef_cost).encode())
    assert h.hexdigest() == PH_RUN_SHA256
