"""Error-class guard: the package defines the four bases below and only the
leaf classes some code tells apart from their base. Every class derives from
forkfleet.ForkfleetError through one of its three bases, so cli.main's one
handler maps it to an exit code and a stderr label, never a traceback. A new
leaf class needs a site that catches it, or another label, and an entry in
KEPT_LEAVES."""

import importlib
import inspect
import pathlib
import pkgutil

import forkfleet
from forkfleet import ConfigError, ForkfleetError, Infeasible, InputError

# (exit code, stderr label) of each class; cli.CliError is the one "error"
EXIT_LABELS = {(2, "config error"), (2, "error"), (3, "input error"), (4, "infeasible")}

BASES = {"forkfleet.ForkfleetError", "forkfleet.ConfigError", "forkfleet.InputError",
         "forkfleet.Infeasible"}

SRC = pathlib.Path(forkfleet.__file__).parent
TESTS = pathlib.Path(__file__).parent

# leaf class -> (file, the text there that tells it apart, why it exists)
KEPT_LEAVES = {
    "forkfleet.cli.CliError": (
        SRC / "cli.py", 'label = "error"',
        "a missing, unreadable or non-regular file is labelled 'error', not 'config error'"),
    "forkfleet.fleet_sim.NoFreeSpot": (
        SRC / "fleet_sim.py", "except (NoFreeSpot, SpotOccupied):",
        "World.step leaves a truck idle while every spot is claimed"),
    "forkfleet.fleet_sim.SpotOccupied": (
        SRC / "fleet_sim.py", "except (NoFreeSpot, SpotOccupied):",
        "World.step leaves a truck idle while its fixed destination is claimed"),
    "forkfleet.odr_import.UnsupportedGeometry": (
        TESTS / "test_acceptance.py", "except UnsupportedGeometry:",
        "acceptance test c8 tells a spiral or poly3 road apart from a malformed file"),
}


def package_exception_classes():
    """{qualified name: class} for every exception class defined in forkfleet."""
    found = {}
    modules = [forkfleet] + [importlib.import_module(f"forkfleet.{m.name}")
                             for m in pkgutil.iter_modules(forkfleet.__path__)]
    for module in modules:
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[f"{module.__name__}.{name}"] = obj
    return found


def test_the_guard_sees_every_module():
    found = package_exception_classes()
    for name in ("forkfleet.ConfigError", "forkfleet.cli.CliError",
                 "forkfleet.fleet_sim.NoFreeSpot", "forkfleet.odr_import.UnsupportedGeometry"):
        assert name in found


def test_the_package_defines_only_the_allowed_classes():
    assert sorted(package_exception_classes()) == sorted(BASES | set(KEPT_LEAVES))


def test_every_kept_leaf_is_still_told_apart():
    stale = sorted(name for name, (path, site, _) in KEPT_LEAVES.items()
                   if site not in path.read_text())
    assert stale == []


def test_every_error_class_carries_an_exit_code_and_label():
    bad = sorted(name for name, cls in package_exception_classes().items()
                 if cls is not ForkfleetError
                 and not (issubclass(cls, (ConfigError, InputError, Infeasible))
                          and (getattr(cls, "code", None), getattr(cls, "label", None))
                          in EXIT_LABELS))
    assert bad == []
