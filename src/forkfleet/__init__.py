"""Headless electric forklift fleet simulator and trajectory analyses."""

import math
import operator
from dataclasses import field, fields, is_dataclass
from functools import reduce

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


def records(f):
    """Yield (line number in the file, stripped line) for each line of f that
    is neither blank nor a '#' comment: the one reading rule of every line
    format, so each error can name the file's own line."""
    for lineno, raw in enumerate(f, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def total(xs):
    """The float sum of xs from 0.0, left to right: the same bits on every
    Python, where the builtin sum() of floats is compensated since 3.12."""
    return reduce(operator.add, xs, 0.0)


def setting(default, low, high=math.inf, ends="[]"):
    """A numeric config field whose valid values are the finite ones from low
    to high; ends[0] and ends[1] are '(' / ')' for an open end, '[' / ']'
    for a closed one."""
    return field(default=default, metadata={"range": (low, high, ends)})


def check_ranges(obj, prefix=""):
    """Raise ConfigError naming the first setting() field of dataclass obj, or
    of a dataclass in one of its fields, whose value is out of its range."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            check_ranges(value, f"{prefix}{f.name}.")
        if "range" not in f.metadata:
            continue
        low, high, ends = f.metadata["range"]
        # comparisons, not math.isfinite, so an int of any size is compared exactly
        if not (-math.inf < value < math.inf
                and (low < value if ends[0] == "(" else low <= value)
                and (value < high if ends[1] == ")" else value <= high)):
            bound = (f"{'>' if ends[0] == '(' else '>='} {low}" if high == math.inf
                     else f"in {ends[0]}{low}, {high}{ends[1]}")
            raise ConfigError(f"{prefix}{f.name} must be finite and {bound}, got {value}")
