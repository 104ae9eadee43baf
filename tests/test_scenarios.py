import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from gridprep.cli import main as cli_main
from gridprep.data import feeder13_path, fragility13_path, wind13_path
from gridprep.network import network_from_document
from gridprep.scenarios import (
    DamageScenario,
    FragilityParams,
    ScenarioSet,
    WindProfile,
    conductor_failure_prob,
    generate_scenario_set,
    line_failure_prob,
    load_scenarios,
    load_wind_csv,
    pole_failure_prob,
    sample_damage_scenario,
    storm_damage_prob,
)

from .conftest import small_network_doc


def generated(out, count, seed) -> str:
    """The scenario file ``generate-scenarios`` writes to ``out`` for
    ``count`` storms at ``seed`` on the bundled feeder, wind and fragility."""
    assert cli_main(["generate-scenarios", "--network", str(feeder13_path()),
                     "--wind", str(wind13_path()), "--fragility", str(fragility13_path()),
                     "--count", str(count), "--seed", str(seed), "--out", str(out)]) == 0
    return (out / "scenarios.json").read_text()


def make_line(poles=1, spans=0, p_u=0.0):
    doc = small_network_doc()
    doc["lines"][0]["poles"] = poles
    doc["lines"][0]["spans"] = spans
    doc["lines"][0]["underground_prob"] = p_u
    return network_from_document(doc).lines[0]


def wind_speed_for(median, log_std, target):
    """Invert the lognormal CDF: the speed at which the curve hits target."""
    return median * math.exp(log_std * norm.ppf(target))


class TestPoleCurve:
    def test_median_speed_gives_one_half(self):
        params = FragilityParams(pole_median=40.0, pole_log_std=0.25)
        assert pole_failure_prob(40.0, params) == pytest.approx(0.5, abs=1e-7)

    def test_zero_wind_gives_zero(self):
        assert pole_failure_prob(0.0, FragilityParams()) == 0.0

    def test_against_independent_normal_cdf(self):
        # frozen from scipy.stats.norm.cdf(log(40/50)/0.2) before the build
        params = FragilityParams(pole_median=50.0, pole_log_std=0.2)
        assert pole_failure_prob(40.0, params) == pytest.approx(0.13227148372004277, abs=1e-9)

    def test_negative_wind_rejected(self):
        with pytest.raises(ValueError):
            pole_failure_prob(-1.0, FragilityParams())


class TestWindProfile:
    @pytest.mark.parametrize("speed", [math.nan, math.inf, -3.0])
    def test_bad_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            WindProfile(speeds=(10.0, speed, 10.0))

    @pytest.mark.parametrize("text", ["nan", "-3", "abc"])
    def test_bad_csv_speed_rejected(self, text):
        with pytest.raises(ValueError, match="wind"):
            load_wind_csv(f"t,wind_mps\n0,10\n1,{text}\n")


class TestConductorCurve:
    def test_underground_is_immune(self):
        line = make_line(p_u=1.0)
        for w in (0.0, 20.0, 80.0, 200.0):
            assert conductor_failure_prob(w, line, FragilityParams()) == 0.0

    def test_zero_tree_factor_leaves_direct_wind(self):
        # pick the speed where the direct-wind curve reads exactly 0.3
        params = FragilityParams(tree_factor=0.0)
        w = wind_speed_for(params.wind_span_median, params.wind_span_log_std, 0.3)
        for p_u in (0.0, 0.25, 0.5):
            line = make_line(p_u=p_u)
            expected = 0.3 * (1.0 - p_u)
            assert conductor_failure_prob(w, line, params) == pytest.approx(expected, abs=1e-9)

    def test_max_of_wind_and_scaled_tree(self):
        # construct speeds so p_fw = 0.2 and p_ftr = 0.5 simultaneously:
        # the tree curve reads 0.5 at its median, and the wind-span median is
        # placed so its curve reads 0.2 there; oracle: max(0.2, 0.6*0.5) = 0.3
        w = 45.0
        sigma = 0.3
        wind_median = w / math.exp(sigma * norm.ppf(0.2))
        params = FragilityParams(
            tree_factor=0.6,
            wind_span_median=wind_median, wind_span_log_std=sigma,
            tree_span_median=w, tree_span_log_std=sigma,
        )
        line = make_line(p_u=0.0)
        assert conductor_failure_prob(w, line, params) == pytest.approx(0.3, abs=1e-9)


class TestLineCurve:
    def test_single_pole_matches_pole_curve(self):
        params = FragilityParams()
        line = make_line(poles=1, spans=0)
        for w in (10.0, 40.0, 70.0):
            assert line_failure_prob(w, line, params) == pytest.approx(
                pole_failure_prob(w, params), abs=1e-12
            )

    def test_two_poles_at_one_tenth(self):
        # speed where a single pole fails with probability 0.1; two poles
        # then fail with 1 - 0.81 = 0.19 (hand product oracle)
        params = FragilityParams()
        w = wind_speed_for(params.pole_median, params.pole_log_std, 0.1)
        line = make_line(poles=2, spans=0)
        assert line_failure_prob(w, line, params) == pytest.approx(0.19, abs=1e-9)

    def test_indestructible_line(self):
        line = make_line(poles=0, spans=0)
        assert line_failure_prob(120.0, line, FragilityParams()) == 0.0

    @settings(deadline=None, max_examples=60)
    @given(
        median=st.floats(20.0, 90.0),
        log_std=st.floats(0.05, 0.8),
        tree=st.floats(0.0, 1.0),
        poles=st.integers(0, 12),
        spans=st.integers(0, 12),
        p_u=st.floats(0.0, 1.0),
    )
    def test_monotone_in_wind_and_bounded(self, median, log_std, tree, poles, spans, p_u):
        params = FragilityParams(pole_median=median, pole_log_std=log_std, tree_factor=tree)
        line = make_line(poles=poles, spans=spans, p_u=p_u)
        grid = [w * 1.5 for w in range(0, 80)]
        values = [line_failure_prob(w, line, params) for w in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_poles_and_spans(self):
        params = FragilityParams()
        w = 45.0
        probs = [line_failure_prob(w, make_line(poles=m, spans=2), params) for m in range(6)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        probs = [line_failure_prob(w, make_line(poles=2, spans=n), params) for n in range(6)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))


class TestSampling:
    def test_underground_network_never_damaged(self):
        doc = small_network_doc()
        for raw in doc["lines"]:
            raw["poles"] = 0
            raw["underground_prob"] = 1.0
        model = network_from_document(doc)
        wind = WindProfile(speeds=(80.0, 90.0, 80.0))
        for seed in range(20):
            scen = sample_damage_scenario(model, wind, FragilityParams(), seed=seed)
            assert scen.damaged_lines == frozenset()

    def test_calm_weather_never_damages(self, feeder13, fragility13):
        wind = WindProfile(speeds=(0.0,) * 6)
        for seed in range(10):
            scen = sample_damage_scenario(feeder13, wind, fragility13, seed=seed)
            assert scen.damaged_lines == frozenset()

    def test_golden_scenario_seed42(self, tmp_path):
        """First-generation output pinned as the golden file."""
        from pathlib import Path

        golden = Path(__file__).parent / "data" / "golden_scenario_seed42.json"
        assert generated(tmp_path, 3, 42) == golden.read_text()

    def test_seeds_outside_int64_draw_their_own_storms(self, feeder13, wind13, fragility13,
                                                       tmp_path):
        # a seed is taken mod 2**64; seeds below 0 or from 2**63 once shared one stream
        from pathlib import Path

        golden = Path(__file__).parent / "data" / "golden_scenario_seed42.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [sample_damage_scenario(feeder13, wind13, fragility13, seed=seed).irradiance
                     for seed in (-1, -2, 2**63, 2**63 + 1, 2**64 - 1)]
            text = generated(tmp_path, 3, 42)
        assert len(set(draws[:4])) == 4 and draws[0] == draws[4]
        assert text == golden.read_text()

    def test_single_scenario_has_probability_one(self, feeder13, wind13, fragility13):
        ss = generate_scenario_set(feeder13, wind13, fragility13, count=1, seed=5)
        assert len(ss) == 1
        assert ss.scenarios[0].probability == 1.0

    def test_equal_weights_sum_to_one(self, feeder13, wind13, fragility13):
        ss = generate_scenario_set(feeder13, wind13, fragility13, count=10, seed=5)
        assert all(s.probability == pytest.approx(0.1) for s in ss)
        assert sum(s.probability for s in ss) == pytest.approx(1.0, abs=1e-12)

    def test_sampling_is_order_independent(self, feeder13, wind13, fragility13):
        direct = sample_damage_scenario(feeder13, wind13, fragility13, seed=11, index=3,
                                        probability=0.25)
        from_set = generate_scenario_set(feeder13, wind13, fragility13, count=4, seed=11)
        assert direct.damaged_lines == from_set.scenarios[3].damaged_lines
        assert direct.repair_periods == from_set.scenarios[3].repair_periods
        assert direct.irradiance == from_set.scenarios[3].irradiance

    def test_empirical_frequency_matches_analytic(self):
        """Monte Carlo rate within 3 sigma of the closed-form probability."""
        doc = small_network_doc()
        doc["buses"] = doc["buses"][:2]
        doc["lines"] = doc["lines"][:1]
        doc["regions"][0]["lines"] = ["l12"]
        doc["candidate_buses"] = ["b2"]
        model = network_from_document(doc)
        params = FragilityParams()
        wind = WindProfile(speeds=(wind_speed_for(params.pole_median, params.pole_log_std, 0.1),))
        line = model.lines[0]
        p = storm_damage_prob(line, wind, params)
        trials = 10_000
        hits = sum(
            1
            for i in range(trials)
            if sample_damage_scenario(model, wind, params, seed=123, index=i).damaged_lines
        )
        sigma3 = 3.0 * math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= sigma3

    def test_repair_periods_within_configured_range(self, feeder13, wind13):
        params = FragilityParams(repair_min_periods=2, repair_max_periods=5)
        ss = generate_scenario_set(feeder13, wind13, params, count=20, seed=3)
        for scen in ss:
            for periods in scen.repair_periods.values():
                assert 2 <= periods <= 5

    def test_irradiance_within_physical_bounds(self, feeder13, wind13, fragility13):
        ss = generate_scenario_set(feeder13, wind13, fragility13, count=20, seed=4)
        for scen in ss:
            assert len(scen.irradiance) == feeder13.horizon
            assert all(0.0 <= v <= 1367.0 for v in scen.irradiance)


class TestSerialization:
    def test_scenario_set_round_trip(self, feeder13, wind13, fragility13, tmp_path):
        ss = generate_scenario_set(feeder13, wind13, fragility13, count=4, seed=11)
        again = load_scenarios(generated(tmp_path, 4, 11), feeder13)
        assert again == ss

    def test_dump_is_deterministic(self, tmp_path):
        a = generated(tmp_path / "a", 4, 11)
        b = generated(tmp_path / "b", 4, 11)
        assert a == b

    def test_probabilities_must_sum_to_one(self):
        scen = DamageScenario(id=0, probability=0.5, damaged_lines=frozenset(),
                              repair_periods={}, irradiance=(100.0,))
        with pytest.raises(ValueError, match="sum"):
            ScenarioSet(scenarios=(scen,), seed=0)

    def test_repair_times_cover_damage_exactly(self):
        with pytest.raises(ValueError, match="repair periods"):
            DamageScenario(id=0, probability=1.0, damaged_lines=frozenset({"x"}),
                           repair_periods={}, irradiance=(100.0,))


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        FragilityParams(pole_median=-1.0)
    with pytest.raises(ValueError):
        FragilityParams(tree_factor=1.5)
    with pytest.raises(ValueError):
        FragilityParams(repair_min_periods=0)
    with pytest.raises(ValueError):
        FragilityParams(cloud_min=0.9, cloud_max=0.5)
    with pytest.raises(ValueError):
        WindProfile(speeds=(-5.0,))
