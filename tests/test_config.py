import io
import math
import re
from dataclasses import fields, is_dataclass, replace

import pytest

from forkfleet import check_ranges
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
        assert ScenarioConfig().fixed_spot() is None

    def test_fixed(self):
        cfg = apply_setting(ScenarioConfig(), "policy", "fixed:3")
        assert cfg.fixed_spot() == 3

    def test_bad(self):
        cfg = apply_setting(ScenarioConfig(), "policy", "fixed:northwest")
        with pytest.raises(ConfigError, match="bad policy 'fixed:northwest'"):
            cfg.fixed_spot()
        cfg = apply_setting(ScenarioConfig(), "policy", "roundrobin")
        with pytest.raises(ConfigError, match="unknown policy 'roundrobin'"):
            cfg.fixed_spot()


class TestDump:
    def test_round_trips_through_loader(self):
        p = BatteryParams(c_rr=0.0123, eta_drive=0.9)
        buf = io.StringIO()
        dump_battery_params(p, buf)
        buf.seek(0)
        cfg = load_config(buf)
        assert cfg.battery == p


def numeric_fields(obj, prefix=""):
    """(key, field) of every int or float field of obj and of the
    dataclasses in its fields."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from numeric_fields(value, f"{prefix}{f.name}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + f.name, f


def with_value(cfg, key, value):
    if "." not in key:
        return replace(cfg, **{key: value})
    group, name = key.split(".")
    return replace(cfg, **{group: replace(getattr(cfg, group), **{name: value})})


class TestRanges:
    # seed has no range: every int seeds the generator, which takes it mod 2^64
    UNRANGED = {"seed"}

    def test_every_number_is_a_setting(self):
        ranged = [(key, f) for key, f in numeric_fields(ScenarioConfig())
                  if key not in self.UNRANGED]
        assert len(ranged) == 27  # 6 top-level, 8 kin, 6 battery, 3 density, 4 placement
        assert [key for key, f in ranged if "range" not in f.metadata] == []
        check_ranges(ScenarioConfig())

    SETTINGS = [(key, f) for key, f in numeric_fields(ScenarioConfig()) if "range" in f.metadata]

    @pytest.mark.parametrize("key,f", SETTINGS, ids=[key for key, _ in SETTINGS])
    def test_every_setting_is_checked(self, key, f):
        low = f.metadata["range"][0]
        bad = [low - 1] if isinstance(f.default, int) else [math.nan, math.inf, low - 1.0]
        for value in bad:
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite and "):
                check_ranges(with_value(ScenarioConfig(), key, value))

    @pytest.mark.parametrize("key,value,message", [
        ("battery.eta_drive", 1.5, "battery.eta_drive must be finite and in (0, 1], got 1.5"),
        ("battery.eta_drive", 0.0, "battery.eta_drive must be finite and in (0, 1], got 0.0"),
        ("battery.eta_regen", 1.0, "battery.eta_regen must be finite and in [0, 1), got 1.0"),
        ("placement.k", 0, "placement.k must be finite and >= 1, got 0"),
        ("kin.t_deadlock", -1.0, "kin.t_deadlock must be finite and >= 0, got -1.0"),
        ("dt", 0.0, "dt must be finite and > 0, got 0.0"),
    ])
    def test_message_names_the_range(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            check_ranges(with_value(ScenarioConfig(), key, value))
        assert str(exc.value) == message

    def test_ends_are_in_range(self):
        for key, value in (("battery.eta_drive", 1.0), ("battery.eta_regen", 0.0),
                           ("kin.t_deadlock", 0.0), ("placement.k", 1), ("vehicles", 10**400)):
            check_ranges(with_value(ScenarioConfig(), key, value))
