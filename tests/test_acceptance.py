"""Acceptance suite: one test per criterion, each printing a PASS line.

Paper-scale magnitudes are not reproducible on a desk fixture; the checks
here are oracle-based properties plus directional reproductions of the
reference experiments, at the tolerances stated in each test.
"""

import math
import time

import numpy as np
import pytest

from gridprep.cli import main as cli_main
from gridprep.data import config13_path, feeder13_path, fragility13_path, wind13_path
from gridprep.formulation import (
    build_extensive_form,
    build_subproblem,
    extract_schedule,
    gen_units,
    plan_from_solution,
    pv_units,
    scenario_cost,
    storage_units,
)
from gridprep.hedging import PhConfig, ph_solve
from gridprep.milp import BINARY, LE, GE, MilpProblem, solve_milp
from gridprep.mrp import MrpConfig, mrp_validate
from gridprep.parallel import map_in_order
from gridprep.report import build_base_plan, evaluate_plan, sweep_pv
from gridprep.scenarios import (
    DamageScenario,
    FragilityParams,
    ScenarioSet,
    WindProfile,
    conductor_failure_prob,
    generate_scenario_set,
    line_failure_prob,
    pole_failure_prob,
    sample_damage_scenario,
    storm_damage_prob,
)

from .conftest import small_network_doc
from .oracles import brute_force_milp, reachable_buses, solve_preferring_energization


def ok(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_milp_oracle_equivalence():
    """>= 200 random instances with <= 12 binaries match exhaustive
    enumeration exactly, within a 60 s budget."""
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for trial in range(200):
        mixed = trial % 4 == 0
        nb = int(rng.integers(6, 13)) if not mixed else int(rng.integers(2, 7))
        nc = int(rng.integers(1, 4)) if mixed else 0
        n = nb + nc
        m = int(rng.integers(1, 6))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        seed_x = np.concatenate([rng.integers(0, 2, nb).astype(float),
                                 rng.uniform(-1.0, 2.0, nc)])
        senses = [(LE, GE)[int(rng.integers(0, 2))] for _ in range(m)]
        b = a @ seed_x
        for i, s in enumerate(senses):
            b[i] += rng.uniform(0.0, 0.5) * (1.0 if s == LE else -1.0)
        p = MilpProblem()
        p.add_columns(np.zeros(nb), np.ones(nb), BINARY, [f"b{j}" for j in range(nb)])
        p.add_columns(np.full(nc, -2.0), np.full(nc, 3.0), names=[f"c{j}" for j in range(nc)])
        p.add_rows(np.tile(np.arange(n), (m, 1)), a, senses, b)
        p.add_objective(np.arange(n), c)
        p.seal()
        sol = solve_milp(p, gap_tol=0.0)
        ref = brute_force_milp(p)
        assert sol.ok and math.isfinite(ref), f"instance {trial} lost feasibility"
        err = abs(sol.objective - ref)
        worst = max(worst, err)
        assert err <= 1e-6, f"instance {trial}: kernel {sol.objective} vs oracle {ref}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 200
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    ok("criterion 1 (MILP oracle equivalence)",
       f"{checked} instances, max |error| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_ef_ph_agreement(feeder13, config13, training_scenarios, loops13):
    """Hedging reaches g <= 0.01 within 100 iterations and prices within 1%
    of the directly solved stochastic program, all inside 5 minutes."""
    t0 = time.perf_counter()
    result = ph_solve(feeder13, training_scenarios, config13,
                      PhConfig(epsilon=0.01, max_iterations=100), loops=loops13)
    ef = solve_milp(build_extensive_form(feeder13, training_scenarios, config13,
                                         loops=loops13).problem, gap_tol=1e-4)
    elapsed = time.perf_counter() - t0
    assert result.converged and result.metric_history[-1] <= 0.01
    assert result.iterations <= 100
    assert ef.ok
    rel = (result.ef_cost - ef.objective) / abs(ef.objective)
    assert rel <= 0.01, f"hedging plan is {rel * 100:.2f}% above the EF optimum"
    assert result.ef_cost >= ef.objective - 1e-6
    assert elapsed < 300.0
    ok("criterion 2 (EF/PH agreement)",
       f"g={result.metric_history[-1]:.4g} after {result.iterations} iterations, "
       f"gap {rel * 100:.4f}%, {elapsed:.1f}s")


def test_criterion_03_single_scenario_identity(feeder13, config13, wind13,
                                               fragility13, loops13):
    """With one scenario the hedge is the deterministic optimum, g = 0 at
    iteration 0."""
    scen_set = generate_scenario_set(feeder13, wind13, fragility13, count=1, seed=11)
    result = ph_solve(feeder13, scen_set, config13,
                      PhConfig(epsilon=0.01, max_iterations=100), loops=loops13)
    direct = solve_milp(
        build_subproblem(feeder13, scen_set.scenarios[0], config13, loops=loops13).problem,
        gap_tol=1e-6,
    )
    assert result.iterations == 0
    assert result.metric_history == [0.0]
    assert result.converged
    assert result.ef_cost == pytest.approx(direct.objective, abs=1e-6)
    ok("criterion 3 (single-scenario identity)",
       f"g=0 at iteration 0, cost {result.ef_cost:.4f} == deterministic optimum")


def test_criterion_04_virtual_network_reachability(feeder13, config13, loops13):
    """Across 100 random damage patterns the energized set equals graph
    reachability from grid-forming sources over closed lines, at every
    period.  Ties between equally cheap lit/dark optima are broken toward
    energization and the tie-broken point is verified to stay optimal."""
    rng = np.random.default_rng(404)
    line_ids = [k.id for k in feeder13.lines]
    gf = {g.bus for g in feeder13.generators if g.grid_forming}
    gf |= {p.bus for p in feeder13.pv_units if p.pv_type == "grid_forming"}
    cases = []
    for case in range(100):
        n_dmg = int(rng.integers(1, 6))
        damaged = sorted(rng.choice(line_ids, size=n_dmg, replace=False))
        cases.append(DamageScenario(
            id=case, probability=1.0,
            damaged_lines=frozenset(damaged),
            repair_periods={lid: int(rng.integers(1, 4)) for lid in damaged},
            irradiance=tuple(float(500 + 100 * math.sin(t)) for t in range(feeder13.horizon)),
        ))

    def check(scen):
        case, damaged = scen.id, sorted(scen.damaged_lines)
        compiled = build_subproblem(feeder13, scen, config13, loops=loops13)
        plain = solve_milp(compiled.problem, gap_tol=1e-6)
        sol = solve_preferring_energization(compiled, gap_tol=1e-6)
        assert plain.ok and sol.ok
        sched = extract_schedule(feeder13, scen, compiled.index, sol, case)
        plan = plan_from_solution(compiled.index, sol)
        # the tie-broken solution must still attain the plain optimum
        true_cost = scen.probability * sum(scenario_cost(feeder13, scen, sched, config13).values())
        assert true_cost <= plain.objective * (1 + 1e-6) + 1e-4
        sources = set(gf)
        sources |= {b for b in feeder13.candidate_buses
                    if plan.meg_at.get(b, 0) + plan.mes_at.get(b, 0) >= 1}
        for t in range(feeder13.horizon):
            closed = {k.id for k in feeder13.lines if sched.line_closed[(k.id, t)] > 0.5}
            reach = reachable_buses(feeder13, closed, sources)
            energized = {b.id for b in feeder13.buses if sched.energized[(b.id, t)] > 0.5}
            assert energized == reach, (
                f"case {case} t={t}: energized {sorted(energized)} vs "
                f"reachable {sorted(reach)} (damaged {damaged})"
            )

    # the cases are independent: solve them on the pool, failures surface in case order
    checked = len(map_in_order(check, cases))
    ok("criterion 4 (virtual-network correctness)",
       f"{checked} random damage patterns, exact match at every period")


def test_criterion_05_crew_repair_dynamics(feeder13, config13, training_scenarios,
                                           loops13, ef_optimum):
    """Repair effort, status release, and regional capacity behave exactly as
    constrained, including the worked three-period repair sequence."""
    compiled, sol, plan = ef_optimum
    T = feeder13.horizon
    region_of = {lid: r.id for r in feeder13.regions for lid in r.lines}
    for si, scen in enumerate(training_scenarios.scenarios):
        sched = extract_schedule(feeder13, scen, compiled.index, sol, si)
        for lid in scen.damaged_lines:
            tr = scen.repair_periods[lid]
            z_seq = [round(sched.repairing[(lid, t)]) for t in range(T)]
            u_seq = [round(sched.line_closed[(lid, t)]) for t in range(T)]
            assert sum(z_seq) <= tr
            assert all(b >= a for a, b in zip(u_seq, u_seq[1:])), "repairs are permanent"
            for t in range(T):
                done = sum(z_seq[:t])
                if u_seq[t] == 1:
                    assert done >= tr, f"{lid} closed after only {done}/{tr} repair periods"
                else:
                    assert done < tr
        for r in feeder13.regions:
            crews = plan.crews[r.id]
            for t in range(T):
                active = sum(round(sched.repairing[(lid, t)])
                             for lid in scen.damaged_lines if region_of[lid] == r.id)
                assert active <= crews
    # the worked sequence: T^r = 3, z = (0,0,1,1,1,0,0) forces u = (0,0,0,0,0,1,1)
    from gridprep.network import network_from_document

    model7 = network_from_document(small_network_doc(horizon=7))
    from gridprep.formulation import FormulationConfig

    cfg = FormulationConfig(n_meg=0, n_mes=0, n_fuel=500.0, n_crew=2)
    scen7 = DamageScenario(id=0, probability=1.0, damaged_lines=frozenset({"l23"}),
                           repair_periods={"l23": 3}, irradiance=(500.0,) * 7)
    comp7 = build_subproblem(model7, scen7, cfg)
    pinned = comp7.problem.copy()
    ids7 = dict(comp7.index.items())
    for t, zv in enumerate([0, 0, 1, 1, 1, 0, 0]):
        vid = ids7[("z", "l23", None, t, 0)]
        pinned.set_bounds(vid, float(zv), float(zv))
    sol7 = solve_milp(pinned.seal(), gap_tol=0.0)
    u7 = [round(sol7.values[ids7[("u", "l23", None, t, 0)]]) for t in range(7)]
    assert u7 == [0, 0, 0, 0, 0, 1, 1]
    ok("criterion 5 (crew/repair dynamics)",
       "effort budgets, monotone status, release timing, regional caps, worked sequence")


def test_criterion_06_conservation_and_storage(feeder13, config13, training_scenarios,
                                               ef_optimum):
    """Nodal balance residuals stay within 1e-6 per-unit and storage follows
    its exact charge recursion without simultaneous charge/discharge."""
    compiled, sol, _ = ef_optimum
    base = feeder13.base_kva
    dt = feeder13.dt_hours
    worst = 0.0
    stores = storage_units(feeder13)
    gens = gen_units(feeder13)
    pvs = pv_units(feeder13)
    for si, scen in enumerate(training_scenarios.scenarios):
        sched = extract_schedule(feeder13, scen, compiled.index, sol, si)
        for b in feeder13.buses:
            for ph in b.phases:
                for t in range(feeder13.horizon):
                    flow = 0.0
                    for k in feeder13.lines:
                        if ph not in k.phases:
                            continue
                        if k.from_bus == b.id:
                            flow += sched.flow_p[(k.id, ph, t)]
                        elif k.to_bus == b.id:
                            flow -= sched.flow_p[(k.id, ph, t)]
                    inj = sum(sched.gen_p[(g.uid, ph, t)] for g in gens if g.bus == b.id)
                    inj += sum(sched.pv_p[(p.uid, ph, t)] for p in pvs if p.bus == b.id)
                    inj += sum(sched.discharge_p[(s.uid, ph, t)] - sched.charge_p[(s.uid, ph, t)]
                               for s in stores if s.bus == b.id)
                    residual = abs(flow - inj + sched.pickup[(b.id, t)] * b.demand_at(ph, t))
                    worst = max(worst, residual / base)
                    qflow = 0.0
                    for k in feeder13.lines:
                        if ph not in k.phases:
                            continue
                        if k.from_bus == b.id:
                            qflow += sched.flow_q[(k.id, ph, t)]
                        elif k.to_bus == b.id:
                            qflow -= sched.flow_q[(k.id, ph, t)]
                    qinj = sum(sched.gen_q[(g.uid, ph, t)] for g in gens if g.bus == b.id)
                    qinj += sum(sched.pv_q[(p.uid, ph, t)] for p in pvs if p.bus == b.id)
                    qinj += sum(sched.storage_q[(s.uid, ph, t)] for s in stores if s.bus == b.id)
                    q_res = abs(qflow - qinj + sched.pickup[(b.id, t)] * b.reactive_at(ph, t))
                    worst = max(worst, q_res / base)
        for unit in stores:
            spec = unit.spec
            prev = spec.soc_init
            for t in range(feeder13.horizon):
                ch = sum(sched.charge_p[(unit.uid, ph, t)]
                         for ph in feeder13.bus(unit.bus).phases)
                dis = sum(sched.discharge_p[(unit.uid, ph, t)]
                          for ph in feeder13.bus(unit.bus).phases)
                expected = prev + dt * (ch * spec.eta_ch - dis / spec.eta_dis) / spec.e_cap
                assert sched.soc[(unit.uid, t)] == pytest.approx(expected, abs=1e-7)
                prev = sched.soc[(unit.uid, t)]
                for ph in feeder13.bus(unit.bus).phases:
                    assert min(sched.charge_p[(unit.uid, ph, t)],
                               sched.discharge_p[(unit.uid, ph, t)]) <= 1e-6
    assert worst <= 1e-6, f"worst balance residual {worst:.2e} pu"
    ok("criterion 6 (conservation and storage)",
       f"worst balance residual {worst:.2e} pu; SOC recursion exact; no dual-mode storage")


def test_criterion_07_fragility_properties(feeder13):
    """Curve anchors, monotonicity on a dense grid, underground immunity,
    and Monte Carlo agreement at S = 10,000."""
    rng = np.random.default_rng(99)
    # median anchor
    for _ in range(20):
        m_r = float(rng.uniform(20.0, 90.0))
        params = FragilityParams(pole_median=m_r, pole_log_std=float(rng.uniform(0.05, 0.8)))
        assert abs(pole_failure_prob(m_r, params) - 0.5) <= 1e-7
    # monotone on a 1000-point grid for 100 random draws
    from gridprep.network import network_from_document

    doc = small_network_doc()
    grid = np.linspace(0.0, 120.0, 1000)
    for _ in range(100):
        params = FragilityParams(
            pole_median=float(rng.uniform(20.0, 90.0)),
            pole_log_std=float(rng.uniform(0.05, 0.8)),
            tree_factor=float(rng.uniform(0.0, 1.0)),
            wind_span_median=float(rng.uniform(30.0, 110.0)),
            wind_span_log_std=float(rng.uniform(0.05, 0.8)),
            tree_span_median=float(rng.uniform(30.0, 110.0)),
            tree_span_log_std=float(rng.uniform(0.05, 0.8)),
        )
        doc["lines"][0]["poles"] = int(rng.integers(0, 8))
        doc["lines"][0]["spans"] = int(rng.integers(0, 8))
        doc["lines"][0]["underground_prob"] = float(rng.uniform(0.0, 1.0))
        line = network_from_document(doc).lines[0]
        values = [line_failure_prob(float(w), line, params) for w in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    # underground conductors contribute nothing
    doc["lines"][0]["underground_prob"] = 1.0
    line = network_from_document(doc).lines[0]
    assert all(conductor_failure_prob(w, line, FragilityParams()) == 0.0
               for w in (0.0, 30.0, 60.0, 120.0))
    # Monte Carlo frequency within binomial 3 sigma at 10,000 draws
    doc2 = small_network_doc()
    doc2["buses"] = doc2["buses"][:2]
    doc2["lines"] = doc2["lines"][:1]
    doc2["regions"][0]["lines"] = ["l12"]
    doc2["candidate_buses"] = ["b2"]
    model = network_from_document(doc2)
    params = FragilityParams()
    wind = WindProfile(speeds=(42.0,))
    p = storm_damage_prob(model.lines[0], wind, params)
    trials = 10_000
    hits = sum(1 for i in range(trials)
               if sample_damage_scenario(model, wind, params, seed=2718, index=i).damaged_lines)
    dev = abs(hits / trials - p)
    sigma3 = 3.0 * math.sqrt(p * (1.0 - p) / trials)
    assert dev <= sigma3, f"empirical {hits / trials:.4f} vs analytic {p:.4f}"
    ok("criterion 7 (fragility properties)",
       f"anchors exact; 100x1000 monotone grid; MC deviation {dev:.4f} <= {sigma3:.4f}")


def test_criterion_08_directional_base_comparison(feeder13, config13, ph_cold,
                                                  heldout_scenarios, loops13):
    """The optimized plan serves at least as much as the base recipe on every
    held-out scenario, strictly more on at least one, and never suffers a
    longer average outage."""
    base = build_base_plan(feeder13, config13)
    strict = 0
    for scen in heldout_scenarios.scenarios:
        opt_rep = evaluate_plan(ph_cold.plan, feeder13, scen, config13,
                                loops=loops13, plan_label="optimized")
        base_rep = evaluate_plan(base, feeder13, scen, config13,
                                 loops=loops13, plan_label="base")
        assert opt_rep.restored_energy_kwh >= base_rep.restored_energy_kwh - 1e-6, (
            f"scenario {scen.id}: optimized served less"
        )
        assert opt_rep.avg_outage_hours <= base_rep.avg_outage_hours + 1e-9
        if opt_rep.restored_energy_kwh > base_rep.restored_energy_kwh + 1e-6:
            strict += 1
    assert strict >= 1, "optimized plan never strictly better"
    ok("criterion 8 (directional base comparison)",
       f"dominates on all {len(heldout_scenarios)} held-out scenarios, "
       f"strictly better on {strict}")


def test_criterion_09_directional_pv_sweep(feeder13, config13, training_scenarios):
    """Across four penetration levels the stochastic objective never rises
    and served energy never falls."""
    results = sweep_pv(feeder13, [0, 9, 45, 81], training_scenarios, config13)
    for prev, cur in zip(results, results[1:]):
        assert cur.objective <= prev.objective + 1e-4, (
            f"objective rose {prev.percent}% -> {cur.percent}%"
        )
        assert cur.expected_served_kwh >= prev.expected_served_kwh - 1e-6
    ok("criterion 9 (directional PV sweep)",
       " -> ".join(f"{r.percent}%: obj {r.objective:.1f}, served {r.expected_served_kwh:.1f}"
                   for r in results))


def test_criterion_10_mrp_sanity(feeder13, config13, ef_optimum, wind13,
                                 fragility13, loops13):
    """A degenerate sampler with the EF optimum yields CI exactly [0, 0];
    real replications never go meaningfully negative; the paper-style
    percentage formatting is emitted."""
    _, _, ef_plan = ef_optimum
    fixed = generate_scenario_set(feeder13, wind13, fragility13, count=2, seed=11)

    def degenerate(n, seed):
        scens = tuple(
            DamageScenario(id=i, probability=1.0 / n,
                           damaged_lines=fixed.scenarios[0].damaged_lines,
                           repair_periods=dict(fixed.scenarios[0].repair_periods),
                           irradiance=fixed.scenarios[0].irradiance)
            for i in range(n)
        )
        return ScenarioSet(scenarios=scens, seed=seed)

    ef_deg = build_extensive_form(feeder13, degenerate(2, 0), config13, loops=loops13)
    cand = plan_from_solution(ef_deg.index, solve_milp(ef_deg.problem, gap_tol=0.0))
    result = mrp_validate(cand, feeder13, config13, degenerate,
                          MrpConfig(alpha=0.05, n=2, n_g=2, base_seed=0), loops=loops13)
    assert result.mean_gap == pytest.approx(0.0, abs=1e-6)
    assert result.half_width == 0.0
    assert result.ci_upper == pytest.approx(0.0, abs=1e-6)
    assert all(g >= -1e-6 for g in result.gaps)

    def sampler(n, seed):
        return generate_scenario_set(feeder13, wind13, fragility13, count=n, seed=seed)

    real = mrp_validate(ef_plan, feeder13, config13, sampler,
                        MrpConfig(alpha=0.05, n=2, n_g=3, base_seed=500), loops=loops13)
    assert all(g >= -1e-6 for g in real.gaps)
    rendered = f"[0, {real.ci_upper_pct:.2f}%]"
    assert "%]" in rendered and "ci_upper_pct" in real.to_document()
    ok("criterion 10 (MRP sanity)",
       f"degenerate CI [0, 0]; real gaps {['%.3g' % g for g in real.gaps]}, CI {rendered}")


def test_criterion_11_soft_start_direction(feeder13, config13, training_scenarios,
                                           loops13, ph_cold):
    """Warm-started hedging never needs more iterations than the cold run."""
    warm = ph_solve(feeder13, training_scenarios, config13,
                    PhConfig(epsilon=0.01, max_iterations=100, prior_plan=ph_cold.plan),
                    loops=loops13)
    assert warm.converged
    assert warm.iterations <= ph_cold.iterations
    ok("criterion 11 (soft-start direction)",
       f"warm {warm.iterations} <= cold {ph_cold.iterations} iterations")


def _mask_elapsed(csv_text: str) -> str:
    # the iteration log's wall-clock column is inherently run-dependent
    lines = csv_text.strip().split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[2] = "-"
        out.append(",".join(parts))
    return "\n".join(out)


def test_criterion_12_determinism(tmp_path):
    """Every pipeline stage writes byte-identical artifacts across repeated
    runs at fixed seeds (wall-clock log column excluded)."""
    net, wind, frag, cfg = (str(feeder13_path()), str(wind13_path()),
                            str(fragility13_path()), str(config13_path()))
    outs = []
    for tag in ("run1", "run2"):
        root = tmp_path / tag
        assert cli_main(["generate-scenarios", "--network", net, "--wind", wind,
                         "--fragility", frag, "--count", "4", "--seed", "11",
                         "--out", str(root / "scen")]) == 0
        scen = str(root / "scen" / "scenarios.json")
        assert cli_main(["solve-ef", "--network", net, "--config", cfg,
                         "--scenarios", scen, "--out", str(root / "ef")]) == 0
        assert cli_main(["solve-ph", "--network", net, "--config", cfg,
                         "--scenarios", scen, "--out", str(root / "ph")]) == 0
        assert cli_main(["base-plan", "--network", net, "--config", cfg,
                         "--out", str(root / "base")]) == 0
        assert cli_main(["evaluate", "--network", net, "--config", cfg,
                         "--scenarios", scen,
                         "--plan", str(root / "ph" / "ph_plan.json"),
                         "--label", "ph", "--out", str(root / "eval")]) == 0
        assert cli_main(["validate-mrp", "--network", net, "--config", cfg,
                         "--candidate", str(root / "ph" / "ph_plan.json"),
                         "--wind", wind, "--fragility", frag,
                         "--n", "2", "--ng", "2", "--seed", "5",
                         "--out", str(root / "mrp")]) == 0
        outs.append(root)

    identical = []
    for rel in ("scen/scenarios.json", "ef/ef_plan.json", "ef/ef_solution.json",
                "ph/ph_plan.json", "ph/ph_result.json", "ph/ph_state.json",
                "base/base_plan.json", "eval/evaluation.json",
                "eval/served_fraction.csv", "mrp/mrp.json"):
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs across runs"
        identical.append(rel)
    log_a = _mask_elapsed((outs[0] / "ph" / "ph_log.csv").read_text())
    log_b = _mask_elapsed((outs[1] / "ph" / "ph_log.csv").read_text())
    assert log_a == log_b
    identical.append("ph/ph_log.csv (elapsed column masked)")
    ok("criterion 12 (determinism)", f"{len(identical)} artifacts byte-identical")
