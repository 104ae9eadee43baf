"""Compiled problems stay bit for bit what they were.

Each digest below was recorded before the problem store moved from
per-row objects to arrays.  A change to the formulation or to the store
that alters any coefficient, bound, kind, row order or name changes a
digest; such a change must say so and record new digests.
"""

import hashlib

import numpy as np
from scipy import sparse

from gridprep.formulation import (
    build_extensive_form,
    build_ph_subproblem,
    build_subproblem,
)
from gridprep.milp import write_lp
from gridprep.report import build_base_plan

EF_LP_SHA256 = "d273ce1f7550a169c80a1870681a7ca418c64d780bb0e4ab198766c39eb7997c"
PINNED_SHA256 = "5ae9e658ea9abef71b81c7d7ecdb805942a32994f40bf4a2ac5f50b995b862ca"
PH_SHA256 = "81ad1afd5dd1e76b4e456e7781923cbc5f083ce71b7eb8a9d5ec5924cc85ee4b"


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


def test_extensive_form_lp_dump(feeder13, config13, training_scenarios, loops13):
    compiled = build_extensive_form(feeder13, training_scenarios, config13, loops=loops13)
    text = write_lp(compiled.problem)
    assert hashlib.sha256(text.encode()).hexdigest() == EF_LP_SHA256


def test_pinned_evaluation_subproblem(feeder13, config13, heldout_scenarios, loops13):
    storm = heldout_scenarios.scenarios[3]
    assert storm.damaged_lines
    compiled = build_subproblem(feeder13, storm, config13, loops=loops13,
                                fixed_plan=build_base_plan(feeder13, config13))
    assert arrays_digest(compiled.problem) == PINNED_SHA256


def test_priced_hedging_subproblem(feeder13, config13, training_scenarios, loops13):
    storm = training_scenarios.scenarios[0]
    plain = build_subproblem(feeder13, storm, config13, loops=loops13)
    ids = plain.first.ids
    spec = plain.problem.variables
    multipliers = [0.75 * ((-1) ** j) * (1 + j % 4) for j in range(len(ids))]
    anchor = [spec[v].lower + (spec[v].upper - spec[v].lower) * ((j % 5) / 4.0)
              for j, v in enumerate(ids)]
    compiled = build_ph_subproblem(feeder13, storm, config13, multipliers=multipliers,
                                   anchor=anchor, rho=1.5, tie_break=0.02, loops=loops13)
    assert arrays_digest(compiled.problem) == PH_SHA256
