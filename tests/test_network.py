import itertools
import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprep.data import feeder13_path
from gridprep.network import (
    PV_HYBRID,
    Bus,
    NetworkParseError,
    NetworkValidationError,
    PvSpec,
    Region,
    enumerate_loops,
    load_network,
    network_from_document,
)

from .oracles import cycle_space_dimension

UNIT = [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]]


def minimal_doc():
    return {
        "base": {"kva": 100.0, "kv": 4.16},
        "horizon": 2,
        "dt_hours": 1.0,
        "buses": [
            {"id": "a", "phases": "a", "demand_p": {"a": [1.0, 1.0]}, "shed_cost": 1.0},
            {"id": "b", "phases": "a", "demand_p": {"a": [2.0, 2.0]}, "shed_cost": 1.0},
        ],
        "lines": [
            {"id": "ab", "from_bus": "a", "to_bus": "b", "phases": "a",
             "r_matrix": UNIT, "x_matrix": UNIT, "p_max": 10.0, "q_max": 10.0},
        ],
        "regions": [{"id": "r", "depot_bus": "a", "lines": ["ab"]}],
    }


def one_region(doc):
    """``doc`` with its lines in one region, as every line must lie in one."""
    doc["regions"] = [{"id": "r", "depot_bus": doc["buses"][0]["id"],
                       "lines": [k["id"] for k in doc["lines"]]}]
    return doc


def line_doc(lid, frm, to, phases="a"):
    return {"id": lid, "from_bus": frm, "to_bus": to, "phases": phases,
            "r_matrix": UNIT, "x_matrix": UNIT, "p_max": 10.0, "q_max": 10.0}


class TestLoadNetwork:
    def test_minimal_two_bus_document(self):
        model = network_from_document(minimal_doc())
        assert len(model.buses) == 2
        assert len(model.lines) == 1

    def test_unknown_bus_reference_names_the_line(self):
        doc = minimal_doc()
        doc["lines"][0]["to_bus"] = "X"
        with pytest.raises(NetworkValidationError, match="line ab.*unknown bus 'X'"):
            network_from_document(doc)

    def test_malformed_json_is_a_parse_error(self):
        with pytest.raises(NetworkParseError):
            load_network("{not json")

    def test_bundled_fixture_counts_and_region_cover(self, feeder13):
        assert len(feeder13.buses) == 13
        assert len(feeder13.lines) == 12
        covered = sorted(lid for r in feeder13.regions for lid in r.lines)
        assert covered == sorted(k.id for k in feeder13.lines)
        assert len(covered) == 12

    def test_demand_profile_length_must_match_horizon(self):
        doc = minimal_doc()
        doc["buses"][0]["demand_p"] = {"a": [1.0]}
        with pytest.raises(NetworkValidationError, match="length 1"):
            network_from_document(doc)

    def test_negative_demand_rejected(self):
        doc = minimal_doc()
        doc["buses"][0]["demand_p"] = {"a": [-1.0, 0.0]}
        with pytest.raises(NetworkValidationError, match="negative demand"):
            network_from_document(doc)

    @pytest.mark.parametrize("where, value", [
        (("lines", 0, "p_max"), math.nan),
        (("lines", 0, "p_max"), math.inf),
        (("lines", 0, "r_matrix", 0, 0), math.nan),
        (("buses", 1, "demand_p", "a", 1), math.inf),
        (("horizon",), math.nan),
        (("lines", 0, "poles"), math.inf),
    ], ids=["p_max-nan", "p_max-inf", "r_matrix-nan", "demand-inf", "horizon-nan", "poles-inf"])
    def test_non_finite_number_rejected(self, where, value):
        # Python's json reads NaN and Infinity, and NaN passes every range check
        doc = json.loads(json.dumps(minimal_doc()))
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(NetworkValidationError, match="finite"):
            load_network(json.dumps(doc))

    @pytest.mark.parametrize("where, value, message", [
        (("lines", 0, "p_max"), "abc", "number"),
        (("buses", 1, "demand_p", "a", 1), "abc", "number"),
        (("buses", 1, "demand_p"), [1, 2], "map phases"),
        (("lines", 0, "phases"), 5, "phases must be"),
        (("buses", 1, "demand_p", "a"), "11", "list of numbers"),
        (("horizon",), 6.0, "integer"),
        (("lines", 0, "poles"), 2.9, "integer"),
        (("lines", 0, "spans"), "3", "integer"),
        (("regions",), [{"id": "r1", "depot_bus": "a", "lines": ["ab"],
                         "crew_min": 0, "crew_max": 4.7}], "integer"),
    ], ids=["p_max", "demand", "demand-list", "phases-int", "demand-str",
            "horizon-float", "poles-fraction", "spans-str", "crew_max-fraction"])
    def test_non_numeric_value_rejected(self, where, value, message):
        # a value of the wrong type is a parse error, never a bare TypeError
        doc = json.loads(json.dumps(minimal_doc()))
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(NetworkParseError, match=message):
            load_network(json.dumps(doc))

    def test_phase_must_exist_at_both_endpoints(self):
        doc = minimal_doc()
        doc["lines"][0]["phases"] = "ab"
        with pytest.raises(NetworkValidationError, match="phase 'b'"):
            network_from_document(doc)

    def test_asymmetric_impedance_rejected(self):
        doc = minimal_doc()
        doc["lines"][0]["r_matrix"] = [[0.01, 0.5, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(NetworkValidationError, match="symmetric"):
            network_from_document(doc)

    def test_self_loop_rejected(self):
        doc = minimal_doc()
        doc["lines"][0]["to_bus"] = "a"
        with pytest.raises(NetworkValidationError, match="self-loop"):
            network_from_document(doc)

    def test_underground_prob_range(self):
        doc = minimal_doc()
        doc["lines"][0]["underground_prob"] = 1.5
        with pytest.raises(NetworkValidationError, match="underground_prob"):
            network_from_document(doc)

    def test_voltage_window_must_open(self):
        doc = minimal_doc()
        doc["buses"][0]["u_min"] = 1.3
        with pytest.raises(NetworkValidationError, match="u_min < u_max"):
            network_from_document(doc)

    def test_switch_reference_must_resolve(self):
        doc = minimal_doc()
        doc["switches"] = ["nope"]
        with pytest.raises(NetworkValidationError, match="unknown line 'nope'"):
            network_from_document(doc)


@pytest.mark.parametrize("fault, message", [
    (lambda m: replace(m, pv_units=m.pv_units + (PvSpec("nope", PV_HYBRID, 10.0, 12.0),)),
     "pv[3]: unknown bus 'nope'"),
    (lambda m: replace(m, lines=(replace(m.lines[0], to_bus="nope"),) + m.lines[1:]),
     "line t1: references unknown bus 'nope'"),
    (lambda m: replace(m.buses[1], shed_cost=-1.0), "bus f1: shed_cost must be nonnegative"),
    (lambda m: Region(id="r4", depot_bus="f1", lines=(), crew_min=5, crew_max=1),
     "region r4: require 0 <= crew_min <= crew_max"),
    (lambda m: replace(m, regions=m.regions[1:]), "line 't1' is listed in no region"),
], ids=["pv-unknown-bus", "line-unknown-bus", "negative-shed-cost", "crew-range", "region-left-out"])
def test_model_built_in_code_keeps_the_document_rules(feeder13, fault, message):
    # a feeder built in code, as sweep_pv builds each level, is refused as its document would be
    with pytest.raises(NetworkValidationError, match=f"^{re.escape(message)}$"):
        fault(feeder13)


def test_bus_total_demand_adds_phases_in_order():
    # left to right, 1.0 absorbs each 1e-16; a compensated sum (builtin sum
    # from CPython 3.12 on) would return 1.0000000000000002
    bus = Bus(id="x", phases=("a", "b", "c"), demand_p={"a": (1.0,), "b": (1e-16,), "c": (1e-16,)},
              demand_q={}, shed_cost=1.0)
    assert bus.total_demand(0) == 1.0


class TestEnumerateLoops:
    def test_radial_tree_has_no_loops(self, feeder13):
        assert len(enumerate_loops(feeder13)) == 0

    def test_four_line_ring(self):
        doc = minimal_doc()
        doc["buses"] = [
            {"id": x, "phases": "a", "demand_p": {"a": [0.0, 0.0]}} for x in "abcd"
        ]
        doc["lines"] = [
            line_doc("ab", "a", "b"), line_doc("bc", "b", "c"),
            line_doc("cd", "c", "d"), line_doc("da", "d", "a"),
        ]
        loops = enumerate_loops(network_from_document(one_region(doc)))
        assert len(loops) == 1
        assert loops.loops[0].members == frozenset({"ab", "bc", "cd", "da"})

    def test_parallel_lines_form_two_member_loop(self):
        doc = minimal_doc()
        doc["lines"].append(line_doc("ab2", "a", "b"))
        loops = enumerate_loops(network_from_document(one_region(doc)))
        assert len(loops) == 1
        assert loops.loops[0].members == frozenset({"ab", "ab2"})

    def test_random_20_bus_24_line_graph_has_5_loops(self):
        import random

        rng = random.Random(7)
        buses = [f"n{i}" for i in range(20)]
        edges = [(buses[i], buses[rng.randrange(i)]) for i in range(1, 20)]
        while len(edges) < 24:
            a, b = rng.sample(buses, 2)
            edges.append((a, b))
        doc = {
            "base": {"kva": 100.0, "kv": 4.16}, "horizon": 1, "dt_hours": 1.0,
            "buses": [{"id": b, "phases": "a", "demand_p": {"a": [0.0]}} for b in buses],
            "lines": [line_doc(f"e{i}", a, b) for i, (a, b) in enumerate(edges)],
        }
        loops = enumerate_loops(network_from_document(one_region(doc)))
        assert len(loops) == 24 - 20 + 1 == 5

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_loop_count_matches_cycle_space_dimension(self, data):
        n_bus = data.draw(st.integers(min_value=2, max_value=12))
        buses = [f"n{i}" for i in range(n_bus)]
        n_extra = data.draw(st.integers(min_value=0, max_value=8))
        edges = []
        for i in range(1, n_bus):
            j = data.draw(st.integers(min_value=0, max_value=i - 1))
            edges.append((buses[i], buses[j]))
        for _ in range(n_extra):
            i = data.draw(st.integers(min_value=0, max_value=n_bus - 1))
            j = data.draw(st.integers(min_value=0, max_value=n_bus - 1))
            if i != j:
                edges.append((buses[i], buses[j]))
        doc = {
            "base": {"kva": 100.0, "kv": 4.16}, "horizon": 1, "dt_hours": 1.0,
            "buses": [{"id": b, "phases": "a", "demand_p": {"a": [0.0]}} for b in buses],
            "lines": [line_doc(f"e{k}", a, b) for k, (a, b) in enumerate(edges)],
        }
        model = network_from_document(one_region(doc))
        loops = enumerate_loops(model)
        assert len(loops) == cycle_space_dimension(buses, edges)
        for loop in loops:
            assert len(loop.members) >= 2

    def test_every_loop_member_is_a_declared_line(self):
        doc = json.loads(feeder13_path().read_text())
        doc["lines"].append(line_doc("tie", "l5", "l8", "a"))
        doc["regions"][0]["lines"].append("tie")
        model = network_from_document(doc)
        loops = enumerate_loops(model)
        assert len(loops) == 1
        declared = {k.id for k in model.lines}
        assert all(loop.members <= declared for loop in loops)

    @pytest.mark.xfail(strict=True, reason="D1: one open member per basis cycle admits a closed "
                                           "cycle outside the basis (ROADMAP open defects)")
    def test_radiality_rows_exclude_every_cycle_on_the_theta_graph(self):
        """The radiality rows keep one member of each enumerated loop open,
        sum(u) <= |loop| - 1.  Every open/closed state of the theta graph's
        five lines that meets them must leave the closed lines a forest.
        Opening only e1 meets both basis rows, yet e2-e3-e5-e4 stays closed."""
        doc = minimal_doc()
        doc["buses"] = [{"id": x, "phases": "a", "demand_p": {"a": [0.0, 0.0]}} for x in "ABCD"]
        doc["lines"] = [line_doc("e1", "A", "B"), line_doc("e2", "A", "C"), line_doc("e3", "C", "B"),
                        line_doc("e4", "A", "D"), line_doc("e5", "D", "B")]
        model = network_from_document(one_region(doc))
        loops = enumerate_loops(model)
        ends = {k.id: (k.from_bus, k.to_bus) for k in model.lines}
        admitted = []
        for state in itertools.product((False, True), repeat=len(ends)):
            closed = {lid for lid, on in zip(ends, state) if on}
            meets_rows = all(len(loop.members & closed) <= len(loop.members) - 1 for loop in loops)
            if meets_rows and cycle_space_dimension(list("ABCD"), [ends[lid] for lid in closed]):
                admitted.append(sorted(set(ends) - closed))
        assert not admitted, f"radiality rows admit a closed cycle with only these open: {admitted}"


class TestValidateRegions:
    """Every line lies in exactly one region, or the document is refused."""

    def test_single_region_covering_everything(self):
        doc = minimal_doc()
        doc["regions"] = [{"id": "r", "depot_bus": "a", "lines": ["ab"],
                           "crew_min": 0, "crew_max": 5}]
        assert [r.lines for r in network_from_document(doc).regions] == [("ab",)]

    def test_line_in_two_regions_is_flagged(self):
        # one line's repair can draw on one region's crews only
        doc = minimal_doc()
        doc["regions"] = [
            {"id": "r1", "depot_bus": "a", "lines": ["ab"], "crew_min": 0, "crew_max": 5},
            {"id": "r2", "depot_bus": "b", "lines": ["ab"], "crew_min": 0, "crew_max": 5},
        ]
        with pytest.raises(NetworkValidationError,
                           match="region r2: line 'ab' is already listed in region 'r1'"):
            network_from_document(doc)

    def test_uncovered_line_is_flagged(self):
        doc = minimal_doc()
        doc["regions"] = []
        with pytest.raises(NetworkValidationError, match="^line 'ab' is listed in no region$"):
            network_from_document(doc)


def test_symbol_audit_every_index_kind_maps_to_a_field(chain3, chain3_config):
    """Every variable kind used by the compiler resolves to a declared field,
    and the kind table names every field of the plan and the schedule."""
    import gridprep.formulation as formulation
    from gridprep.scenarios import DamageScenario

    scen = DamageScenario(id=0, probability=1.0, damaged_lines=frozenset({"l23"}),
                          repair_periods={"l23": 2}, irradiance=(500.0, 500.0, 500.0))
    plain = formulation.build_subproblem(chain3, scen, chain3_config)
    dim = len(plain.first.ids)
    compiled = formulation.build_ph_subproblem(
        plain, multipliers=[0.0] * dim, anchor=[0.5] * dim, rho=1.0,
    )
    kinds = {key[0] for key in compiled.index.keys()}
    for kind in kinds:
        assert kind in formulation.KIND_FIELD_MAP, f"kind '{kind}' not in the audit map"
        cls_name, field = formulation.KIND_FIELD_MAP[kind]
        assert field in getattr(formulation, cls_name).__dataclass_fields__
    fields = {(cls, field) for cls, field in formulation.KIND_FIELD_MAP.values()}
    assert {("FirstStagePlan", f) for f in formulation.FirstStagePlan.__dataclass_fields__} <= fields
    assert {("SecondStageSchedule", f) for f in formulation.SecondStageSchedule.__dataclass_fields__
            if f != "scenario"} <= fields
    assert set(formulation.FIRST_STAGE_KINDS) == {"meg", "mes", "lots", "crew"}
    # the index is a bijection over the variables it covers: every column of
    # the plain compile, and none of the prox columns the pricing appends
    assert len({vid for _, vid in compiled.index.items()}) == len(compiled.index)
    assert {vid for _, vid in compiled.index.items()} == set(range(plain.problem.num_variables))
    assert compiled.problem.num_variables > plain.problem.num_variables
