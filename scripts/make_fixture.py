"""Regenerate the bundled 13-bus feeder fixture and its wind profile.

The feeder has a three-phase trunk (f0..f4) and eight single-phase laterals,
three crew regions, two dispatchable generators, three PV units (one of each
type), two stationary storage units, and four mobile-unit candidate buses.
The head line t1 is deliberately fragile so plans that lean on the
substation underperform.  Beside the feeder it writes the fragility
parameters, the resource budget ``config13.json`` and
``config13_scarce.json``, the same budget with one crew.
"""

import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "src" / "gridprep" / "data"

T = 6

TRUNK_R = [[0.006, 0.002, 0.002], [0.002, 0.006, 0.002], [0.002, 0.002, 0.006]]
TRUNK_X = [[0.012, 0.004, 0.004], [0.004, 0.012, 0.004], [0.004, 0.004, 0.012]]


def lateral_z(phase: str, r: float, x: float):
    i = "abc".index(phase)
    rm = [[0.0] * 3 for _ in range(3)]
    xm = [[0.0] * 3 for _ in range(3)]
    rm[i][i] = r
    xm[i][i] = x
    return rm, xm


def profile(base: float):
    shape = [1.0, 1.1, 1.2, 1.2, 1.1, 1.0]
    return [round(base * s, 3) for s in shape]


def bus(bid, phases, p_base, shed, **kw):
    d_p = {ph: profile(p_base) for ph in phases} if p_base else {}
    d_q = {ph: profile(0.4 * p_base) for ph in phases} if p_base else {}
    out = {"id": bid, "phases": phases, "demand_p": d_p, "demand_q": d_q, "shed_cost": shed}
    out.update(kw)
    return out


def trunk_line(lid, frm, to, poles, spans, p_u=0.0):
    return {
        "id": lid, "from_bus": frm, "to_bus": to, "phases": "abc",
        "r_matrix": TRUNK_R, "x_matrix": TRUNK_X,
        "p_max": 250.0, "q_max": 180.0,
        "poles": poles, "spans": spans, "underground_prob": p_u,
    }


def lat_line(lid, frm, to, phase, poles, spans, p_u=0.0):
    rm, xm = lateral_z(phase, 0.008, 0.006)
    return {
        "id": lid, "from_bus": frm, "to_bus": to, "phases": phase,
        "r_matrix": rm, "x_matrix": xm,
        "p_max": 120.0, "q_max": 90.0,
        "poles": poles, "spans": spans, "underground_prob": p_u,
    }


def main():
    doc = {
        "base": {"kva": 100.0, "kv": 4.16},
        "horizon": T,
        "dt_hours": 1.0,
        "voltage_limits": {"u_min": 0.81, "u_max": 1.21},
        "buses": [
            bus("f0", "abc", 0.0, 0.0, substation=True),
            bus("f1", "abc", 14.0, 12.0),
            bus("f2", "abc", 15.0, 16.0),
            bus("f3", "abc", 13.0, 12.0),
            bus("f4", "abc", 12.0, 14.0),
            bus("l5", "a", 26.0, 22.0),
            bus("l6", "b", 24.0, 14.0),
            bus("l7", "c", 22.0, 12.0),
            bus("l8", "a", 30.0, 35.0, priority=True),
            bus("l9", "b", 25.0, 14.0),
            bus("l10", "c", 20.0, 10.0),
            bus("l11", "a", 28.0, 18.0),
            bus("l12", "b", 24.0, 12.0),
        ],
        "lines": [
            trunk_line("t1", "f0", "f1", poles=9, spans=9),
            trunk_line("t2", "f1", "f2", poles=4, spans=4),
            trunk_line("t3", "f2", "f3", poles=5, spans=5),
            trunk_line("t4", "f3", "f4", poles=4, spans=4),
            lat_line("d5", "f1", "l5", "a", poles=3, spans=3),
            lat_line("d6", "f1", "l6", "b", poles=2, spans=2),
            lat_line("d7", "f2", "l7", "c", poles=3, spans=3),
            lat_line("d8", "f2", "l8", "a", poles=2, spans=2, p_u=0.7),
            lat_line("d9", "f3", "l9", "b", poles=3, spans=3),
            lat_line("d10", "f3", "l10", "c", poles=2, spans=2),
            lat_line("d11", "f4", "l11", "a", poles=3, spans=3),
            lat_line("d12", "f4", "l12", "b", poles=0, spans=2, p_u=1.0),
        ],
        "switches": [
            {"line": "t2", "normally_open": False},
            {"line": "t4", "normally_open": False},
        ],
        "regions": [
            {"id": "r1", "depot_bus": "f1", "lines": ["t1", "t2", "d5", "d6"],
             "crew_min": 0, "crew_max": 4},
            {"id": "r2", "depot_bus": "f2", "lines": ["t3", "d7", "d8", "d9"],
             "crew_min": 0, "crew_max": 4},
            {"id": "r3", "depot_bus": "f4", "lines": ["t4", "d10", "d11", "d12"],
             "crew_min": 0, "crew_max": 4},
        ],
        "generators": [
            {"bus": "f1", "p_max": 60.0, "q_max": 45.0, "fuel_present": 100.0, "fuel_cap": 800.0},
            {"bus": "f3", "p_max": 50.0, "q_max": 40.0, "fuel_present": 0.0, "fuel_cap": 800.0},
        ],
        "pv": [
            {"bus": "l7", "pv_type": "grid_following", "p_rate": 30.0, "s_inverter": 35.0},
            {"bus": "l9", "pv_type": "hybrid", "p_rate": 40.0, "s_inverter": 45.0},
            {"bus": "l11", "pv_type": "grid_forming", "p_rate": 50.0, "s_inverter": 55.0},
        ],
        "ess": [
            {"bus": "f2", "e_cap": 200.0, "soc_min": 0.1, "soc_max": 0.95, "soc_init": 0.8,
             "p_ch_max": 40.0, "p_dis_max": 40.0, "q_max": 30.0, "eta_ch": 0.95, "eta_dis": 0.95},
            {"bus": "l12", "e_cap": 150.0, "soc_min": 0.1, "soc_max": 0.95, "soc_init": 0.85,
             "p_ch_max": 50.0, "p_dis_max": 50.0, "q_max": 35.0, "eta_ch": 0.95, "eta_dis": 0.95},
            {"bus": "l11", "e_cap": 100.0, "soc_min": 0.1, "soc_max": 0.95, "soc_init": 0.9,
             "p_ch_max": 35.0, "p_dis_max": 35.0, "q_max": 25.0, "eta_ch": 0.95, "eta_dis": 0.95},
        ],
        "candidate_buses": ["f0", "f2", "f4", "l8"],
        "meg": {"p_max": 80.0, "q_max": 60.0, "fuel_present": 0.0, "fuel_cap": 600.0},
        "mes": {"e_cap": 300.0, "soc_min": 0.1, "soc_max": 0.95, "soc_init": 0.9,
                "p_ch_max": 60.0, "p_dis_max": 60.0, "q_max": 45.0,
                "eta_ch": 0.95, "eta_dis": 0.95},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "feeder13.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    wind = [20.0, 34.0, 46.0, 41.0, 27.0, 12.0]
    lines = ["t,wind_mps"] + [f"{t},{w}" for t, w in enumerate(wind)]
    (OUT / "wind13.csv").write_text("\n".join(lines) + "\n")
    fragility = {
        "pole_median": 70.0, "pole_log_std": 0.2, "tree_factor": 0.4,
        "wind_span_median": 90.0, "wind_span_log_std": 0.25,
        "tree_span_median": 70.0, "tree_span_log_std": 0.25,
        "repair_min_periods": 1, "repair_max_periods": 3,
        "cloud_min": 0.2, "cloud_max": 1.0, "peak_irradiance": 1000.0,
    }
    (OUT / "fragility13.json").write_text(json.dumps(fragility, indent=2, sort_keys=True) + "\n")
    config = {
        "n_meg": 2, "n_mes": 1, "n_fuel": 1200.0, "n_crew": 6,
        "fuel_cost": 1.0, "switch_cost": 8.0, "fuel_rate": 0.3,
        "crew_epsilon": 0.001, "polygon_segments": 8, "fuel_quantum": 100.0,
        "n_mu_default": 1,
    }
    (OUT / "config13.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    # one crew for the whole feeder: repairs compete, so the best plan differs by storm
    scarce = dict(config, n_crew=1)
    (OUT / "config13_scarce.json").write_text(json.dumps(scarce, indent=2, sort_keys=True) + "\n")
    for name in ("feeder13.json", "wind13.csv", "fragility13.json", "config13.json", "config13_scarce.json"):
        print("wrote", OUT / name)


if __name__ == "__main__":
    main()
