"""Error-class guard: every exception class the package defines derives from
forkfleet.ForkfleetError through one of its three bases, so cli.main's one
handler maps it to an exit code and a stderr label, never a traceback."""

import importlib
import inspect
import pkgutil

import forkfleet
from forkfleet import ConfigError, ForkfleetError, Infeasible, InputError

# (exit code, stderr label) of each class; cli.CliError is the one "error"
EXIT_LABELS = {(2, "config error"), (2, "error"), (3, "input error"), (4, "infeasible")}


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
                 "forkfleet.roadnet.RoadNetError", "forkfleet.odr_import.TooManyPoints",
                 "forkfleet.trajectory.SchemaError", "forkfleet.density.EmptyFleet"):
        assert name in found


def test_every_error_class_carries_an_exit_code_and_label():
    bad = sorted(name for name, cls in package_exception_classes().items()
                 if cls is not ForkfleetError
                 and not (issubclass(cls, (ConfigError, InputError, Infeasible))
                          and (getattr(cls, "code", None), getattr(cls, "label", None))
                          in EXIT_LABELS))
    assert bad == []
