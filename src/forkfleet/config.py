"""Scenario configuration: line-oriented `key = value` files.

Precedence is flag > file > default; the CLI applies flag overrides after
loading the file. Dotted keys address parameter groups (kin.*, battery.*,
density.*, placement.*). '#' starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from . import ConfigError  # re-exported: callers catch it from here
from .battery import BatteryParams
from .density import DensityConfig
from .fleet_sim import KinematicsParams


@dataclass
class PlacementConfig:
    k: int = 5
    min_separation: float = 25.0
    d_scale: float = 20.0
    cell_size: float = 2.0


@dataclass
class ScenarioConfig:
    map: str = ""
    vehicles: int = 3
    seed: int = 0
    dt: float = 0.1
    duration: float = 60.0
    policy: str = "random"          # "random" | "fixed:<spot_id>"
    pickup_mass: float = 500.0
    lift_height: float = 1.0
    fork_mass: float = 100.0
    kin: KinematicsParams = field(default_factory=KinematicsParams)
    battery: BatteryParams = field(default_factory=BatteryParams)
    density: DensityConfig = field(default_factory=DensityConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)

    def policy_tuple(self):
        if self.policy == "random":
            return ("random", None)
        if self.policy.startswith("fixed:"):
            try:
                return ("fixed", int(self.policy.split(":", 1)[1]))
            except ValueError:
                raise ConfigError(f"bad policy '{self.policy}'")
        raise ConfigError(f"unknown policy '{self.policy}'")

    def validate(self):
        """Raise ConfigError for a value no run can use: every number must be
        finite and in range, kin.* and battery.* by their own validate()."""
        d, p = self.density, self.placement
        for key, value, low, strict in (
                ("dt", self.dt, 0, True),
                ("duration", self.duration, 0, False),
                ("vehicles", self.vehicles, 0, False),
                ("pickup_mass", self.pickup_mass, 0, False),
                ("lift_height", self.lift_height, 0, False),
                ("fork_mass", self.fork_mass, 0, False),
                ("density.distance_threshold", d.distance_threshold, 0, False),
                ("density.velocity_threshold", d.velocity_threshold, 0, False),
                ("density.snapshot_interval", d.snapshot_interval, 0, True),
                ("placement.k", p.k, 1, False),
                ("placement.min_separation", p.min_separation, 0, False),
                ("placement.d_scale", p.d_scale, 0, True),
                ("placement.cell_size", p.cell_size, 0, True)):
            if not (math.isfinite(value) and (value > low if strict else value >= low)):
                raise ConfigError(f"{key} must be finite and {'>' if strict else '>='} {low}, "
                                  f"got {value}")
        self.kin.validate()
        self.battery.validate()


_GROUPS = {"kin": KinematicsParams, "battery": BatteryParams,
           "density": DensityConfig, "placement": PlacementConfig}


def _cast_like(current, raw, key):
    try:
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse value {raw!r}") from exc


def apply_setting(cfg: ScenarioConfig, key: str, raw: str, where: str = "") -> ScenarioConfig:
    loc = f"{where}: " if where else ""
    if "." in key:
        group, sub = key.split(".", 1)
        if group not in _GROUPS:
            raise ConfigError(f"{loc}unknown group '{group}'")
        obj = getattr(cfg, group)
        names = {f.name for f in fields(obj)}
        if sub not in names:
            raise ConfigError(f"{loc}unknown key '{key}'")
        value = _cast_like(getattr(obj, sub), raw, key)
        return replace(cfg, **{group: replace(obj, **{sub: value})})
    names = {f.name for f in fields(cfg)}
    if key not in names or key in _GROUPS:
        raise ConfigError(f"{loc}unknown key '{key}'")
    value = _cast_like(getattr(cfg, key), raw, key)
    return replace(cfg, **{key: value})


def load_config(fileobj, cfg: ScenarioConfig = None) -> ScenarioConfig:
    cfg = cfg or ScenarioConfig()
    for lineno, raw in enumerate(fileobj, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        cfg = apply_setting(cfg, key.strip(), value.strip(), where=f"line {lineno}")
    return cfg


def dump_battery_params(p: BatteryParams, fileobj) -> None:
    for name in ("capacity", "c_rr", "c_steer", "eta_drive", "eta_regen", "aux_power"):
        fileobj.write(f"battery.{name} = {getattr(p, name):.12g}\n")
