import io

import pytest

from forkfleet.config import (ConfigError, ScenarioConfig, apply_setting,
                              dump_battery_params, load_config)
from forkfleet.battery import BatteryParams


class TestApplySetting:
    def test_top_level(self):
        cfg = apply_setting(ScenarioConfig(), "vehicles", "7")
        assert cfg.vehicles == 7

    def test_grouped(self):
        cfg = apply_setting(ScenarioConfig(), "kin.v_max", "2.5")
        assert cfg.kin.v_max == 2.5

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_setting(ScenarioConfig(), "warp_speed", "9")

    def test_unknown_group(self):
        with pytest.raises(ConfigError, match="unknown group"):
            apply_setting(ScenarioConfig(), "engine.v_max", "2")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            apply_setting(ScenarioConfig(), "dt", "fast")

    def test_original_unchanged(self):
        base = ScenarioConfig()
        apply_setting(base, "seed", "99")
        assert base.seed == 0


class TestLoadConfig:
    def test_file(self):
        text = """
        # demo scenario
        map = floor.roadnet
        vehicles = 4
        seed = 12          # trailing comment
        battery.c_rr = 0.015
        density.distance_threshold = 12
        """
        cfg = load_config(io.StringIO(text))
        assert cfg.map == "floor.roadnet"
        assert cfg.vehicles == 4
        assert cfg.seed == 12
        assert cfg.battery.c_rr == 0.015
        assert cfg.density.distance_threshold == 12.0

    def test_bad_line_number_reported(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(io.StringIO("seed = 1\nnot a setting\n"))


class TestPolicy:
    def test_random(self):
        assert ScenarioConfig().policy_tuple() == ("random", None)

    def test_fixed(self):
        cfg = apply_setting(ScenarioConfig(), "policy", "fixed:3")
        assert cfg.policy_tuple() == ("fixed", 3)

    def test_bad(self):
        cfg = apply_setting(ScenarioConfig(), "policy", "fixed:northwest")
        with pytest.raises(ConfigError):
            cfg.policy_tuple()
        cfg = apply_setting(ScenarioConfig(), "policy", "roundrobin")
        with pytest.raises(ConfigError):
            cfg.policy_tuple()


class TestDump:
    def test_round_trips_through_loader(self):
        p = BatteryParams(c_rr=0.0123, eta_drive=0.9)
        buf = io.StringIO()
        dump_battery_params(p, buf)
        buf.seek(0)
        cfg = load_config(buf)
        assert cfg.battery == p
