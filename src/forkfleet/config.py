"""Scenario configuration: line-oriented `key = value` files.

Precedence is flag > file > default; the CLI applies flag overrides after
loading the file. Dotted keys address parameter groups (kin.*, battery.*,
density.*, placement.*). '#' starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

from . import ConfigError, records, setting  # ConfigError: re-exported
from .battery import FORK_MASS, BatteryParams
from .density import DensityConfig
from .fleet_sim import DT, LIFT_HEIGHT, PICKUP_MASS, KinematicsParams
from .placement import PlacementConfig


@dataclass
class ScenarioConfig:
    map: str = ""
    vehicles: int = setting(3, 0)
    seed: int = 0                   # any int: the generator takes it mod 2^64
    dt: float = setting(DT, 0, ends="(]")
    duration: float = setting(60.0, 0)
    policy: str = "random"          # "random" | "fixed:<spot_id>"
    pickup_mass: float = setting(PICKUP_MASS, 0)
    lift_height: float = setting(LIFT_HEIGHT, 0)
    fork_mass: float = setting(FORK_MASS, 0)
    kin: KinematicsParams = field(default_factory=KinematicsParams)
    battery: BatteryParams = field(default_factory=BatteryParams)
    density: DensityConfig = field(default_factory=DensityConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)

    def fixed_spot(self):
        """The spot every task goes to, or None for a random free one."""
        if self.policy == "random":
            return None
        if self.policy.startswith("fixed:"):
            try:
                return int(self.policy.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad policy '{self.policy}'")
        raise ConfigError(f"unknown policy '{self.policy}'")


def _cast_like(current, raw, key):
    try:
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse value {raw!r}") from exc


def _field_names(obj):
    return {f.name for f in fields(obj)}


def apply_setting(cfg: ScenarioConfig, key: str, raw: str, where: str = "") -> ScenarioConfig:
    """cfg with the setting that key names cast from raw like its value: a
    field of cfg, or for 'group.name' a field of group, a field of cfg whose
    value is a dataclass."""
    loc = f"{where}: " if where else ""
    obj, name = cfg, key
    group, dot, sub = key.partition(".")
    if dot:
        obj, name = getattr(cfg, group) if group in _field_names(cfg) else None, sub
        if not is_dataclass(obj):
            raise ConfigError(f"{loc}unknown group '{group}'")
    if name not in _field_names(obj) or is_dataclass(getattr(obj, name)):
        raise ConfigError(f"{loc}unknown key '{key}'")
    value = replace(obj, **{name: _cast_like(getattr(obj, name), raw, key)})
    return replace(cfg, **{group: value}) if dot else value


def load_config(fileobj) -> ScenarioConfig:
    cfg = ScenarioConfig()
    for lineno, line in records(fileobj):
        line = line.split("#", 1)[0].rstrip()  # a '#' after the value starts a comment
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        cfg = apply_setting(cfg, key.strip(), value.strip(), where=f"line {lineno}")
    return cfg


def dump_battery_params(p: BatteryParams, fileobj) -> None:
    for f in fields(p):
        fileobj.write(f"battery.{f.name} = {getattr(p, f.name):.12g}\n")
