"""Error-class guard: the package defines the four bases below and only the
leaf classes some code tells apart from their base. Every class derives from
forkfleet.ForkfleetError through one of its three bases, so cli.main's one
handler maps it to an exit code and a stderr label, never a traceback. That
handler is the only except clause in the package that names one of its
classes: a state the package itself recovers from is a return value, not an
error. A new leaf class needs another label, or a test that tells it apart,
and an entry in KEPT_LEAVES."""

import ast
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
        "a missing, unreadable or non-regular input and an unwritable output are labelled "
        "'error', not 'config error'"),
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


class _Handlers(ast.NodeVisitor):
    """The except clauses of one module that name any of `names`, as (the
    innermost enclosing function, or '<module>', line) pairs."""

    def __init__(self, names):
        self.names, self.scope, self.found = names, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ExceptHandler(self, node):
        named = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in (ast.walk(node.type) if node.type else ())
                 if isinstance(n, (ast.Name, ast.Attribute))}
        if named & self.names:
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def handlers_naming(source, names):
    visitor = _Handlers(names)
    visitor.visit(ast.parse(source))
    return visitor.found


def package_error_handlers():
    """{(module file name, function): [line, ...]} of each except clause in the
    package that names one of its error classes."""
    names = {name.rsplit(".", 1)[1] for name in package_exception_classes()}
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for function, line in handlers_naming(path.read_text(), names):
            out.setdefault((path.name, function), []).append(line)
    return out


def test_the_guard_sees_every_module():
    found = package_exception_classes()
    for name in ("forkfleet.ConfigError", "forkfleet.cli.CliError",
                 "forkfleet.odr_import.UnsupportedGeometry"):
        assert name in found


def test_only_cli_main_catches_a_package_error():
    handlers = package_error_handlers()
    assert ("cli.py", "main") in handlers
    assert {site: lines for site, lines in handlers.items() if site != ("cli.py", "main")} == {}


def test_the_handler_check_sees_names_tuples_and_attributes():
    source = ("def step(self):\n"
              "    try:\n        pass\n"
              "    except (NoFreeSpot, SpotOccupied):\n        pass\n"
              "    def inner():\n"
              "        try:\n            pass\n"
              "        except forkfleet.ConfigError:\n            pass\n"
              "try:\n    pass\nexcept (OSError, ValueError):\n    pass\n"
              "except:\n    pass\n")
    names = {"NoFreeSpot", "SpotOccupied", "ConfigError"}
    assert handlers_naming(source, names) == [("step", 4), ("inner", 9)]


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
