"""Headless electric forklift fleet simulator and trajectory analyses."""

__version__ = "0.1.0"


class ForkfleetError(ValueError):
    """Base of the package's error classes. Each derives from one of the three
    below, whose code is the CLI's exit code and whose label starts its line."""


class ConfigError(ForkfleetError):
    """A flag, config value or call argument that no run can use."""
    code, label = 2, "config error"


class InputError(ForkfleetError):
    """Malformed input data: a map, OpenDRIVE file, trajectory or manifest."""
    code, label = 3, "input error"


class Infeasible(ForkfleetError):
    """Valid input on which the run or analysis has no answer."""
    code, label = 4, "infeasible"
