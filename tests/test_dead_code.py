"""Dead-code guard: every top-level def and class in the package, public or
private, every module-level constant, every public method of a public class
and every annotated class field has a reader in the package itself, or a
reason below why only others read it. A top-level name is read by any
reference to it; a method only by an attribute read off something that is
not an imported module, so neither a local variable of its name nor
math.dist reads a method dist; a field only by such an attribute loaded, so
neither an assignment to it nor an augmented one reads it."""

import ast
import pathlib

import forkfleet

SRC = pathlib.Path(forkfleet.__file__).parent

# name -> why it stays although nothing in the package refers to it
CALLED_FROM_OUTSIDE = {
    "warehouse_map": "the README's quick start and the benchmark build maps with it",
}

# Class.field -> why it stays although nothing in the package loads it
FIELDS_READ_OUTSIDE = {
    "HeatmapGrid.overflow": "the conservation tally, which the tests check and no output "
                            "writes yet",
}


def public_defs(body):
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_top_level(body, where):
    """{name: where} of the public top-level defs and classes."""
    return {node.name: where for node in public_defs(body)}


def public_methods(body, where):
    """{name: where} of the public methods of the public classes."""
    return {method.name: f"{where} {node.name}" for node in public_defs(body)
            if isinstance(node, ast.ClassDef) for method in public_defs(node.body)}


def private_defs_and_constants(body, where):
    """{name: where} of the private top-level defs and classes, and of the
    module-level constants: upper-case names assigned at the top level."""
    defined = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                defined[node.name] = where
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, where) for t in targets
                           if isinstance(t, ast.Name) and not t.id.startswith("__")
                           and t.id.lstrip("_").isupper())
    return defined


def module_names(tree):
    """The names a module binds to modules: each `import x` or `import x.y as
    z`, and each `from . import x` where x is one of the package's modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            names.update(a.asname or a.name for a in node.names
                         if (SRC / f"{a.name}.py").is_file())
    return names


def reads(tree):
    """({every name tree reads}, {every attribute it reads off something that
    is not an imported module})."""
    referenced, attributes = set(), set()
    modules = module_names(tree)
    for node in ast.walk(tree):
        # a name read, not the assignment that defines it
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    return referenced, attributes


def defined_and_referenced(kinds=public_top_level):
    """({defined name: where}, {every name the package reads}, {every
    attribute it reads off something that is not an imported module}); kinds
    picks which definitions are collected."""
    defined, referenced, attributes = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(kinds(tree.body, path.name))
        names, attrs = reads(tree)
        referenced |= names
        attributes |= attrs
    return defined, referenced, attributes


def public_unread():
    """{name: where} of the public definitions with no reader in the package:
    top-level ones by name, methods by attribute."""
    defined, referenced, _ = defined_and_referenced()
    methods, _, attributes = defined_and_referenced(public_methods)
    unread = {name: file for name, file in defined.items() if name not in referenced}
    unread.update((name, file) for name, file in methods.items() if name not in attributes)
    return unread, {**defined, **methods}


def test_every_public_definition_has_a_user_in_the_package():
    unread, _ = public_unread()
    unused = sorted(f"{file}: {name}" for name, file in unread.items()
                    if name not in CALLED_FROM_OUTSIDE)
    assert unused == []


def test_a_method_is_read_only_as_an_attribute_of_a_non_module():
    # a local variable, math.dist or a package module's function does not read
    # a method of its name; an attribute of anything else does
    tree = ast.parse("import math\nfrom . import density as dens, ConfigError\n"
                     "n = total + math.dist(a, b) + dens.clusters(s) + grid.cell_of(x, y)\n"
                     "ConfigError.label\n")
    referenced, attributes = reads(tree)
    assert {"total", "dist", "clusters", "cell_of", "label"} <= referenced
    assert attributes == {"cell_of", "label"}


def test_every_private_definition_and_constant_has_a_reader_in_the_package():
    defined, referenced, _ = defined_and_referenced(private_defs_and_constants)
    assert "_ROW" in defined and "MAX_ENTRIES" in defined  # the case sees both kinds
    unused = sorted(f"{file}: {name}" for name, file in defined.items()
                    if name not in referenced and name not in CALLED_FROM_OUTSIDE)
    assert unused == []


def test_every_listed_name_still_needs_its_entry():
    unread, defined = public_unread()
    stale = sorted(name for name in CALLED_FROM_OUTSIDE
                   if name not in defined or name not in unread)
    assert stale == []


def annotated_fields(body, where):
    """{Class.field: where} of the annotated fields of every class,
    dataclass and NamedTuple fields alike."""
    return {f"{node.name}.{stmt.target.id}": where for node in body
            if isinstance(node, ast.ClassDef) for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}


def attribute_loads(tree):
    """Every attribute tree loads off something that is not an imported
    module: the target of an assignment, augmented or not, is no load."""
    modules = module_names(tree)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)}


def unread_fields():
    """({Class.field: where} of the fields no attribute load reads,
    {Class.field: where} of them all)."""
    defined, loaded = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(annotated_fields(tree.body, path.name))
        loaded |= attribute_loads(tree)
    unread = {name: file for name, file in defined.items()
              if name.split(".")[1] not in loaded}
    return unread, defined


def test_a_field_is_read_only_by_an_attribute_load():
    tree = ast.parse("import math\ngrid.overflow += 1\npath.total_length = 2.0\n"
                     "x = math.pi + sample.soc\n"
                     "class Sample:\n    soc: float\n    pi: float = 0.0\n    n = 1\n")
    assert attribute_loads(tree) == {"soc"}
    assert annotated_fields(tree.body, "m.py") == {"Sample.soc": "m.py", "Sample.pi": "m.py"}


def test_every_annotated_field_is_read_in_the_package():
    unread, defined = unread_fields()
    assert "VehicleState.speed" in defined and "TrajectorySample.soc" in defined
    unused = sorted(f"{file}: {name}" for name, file in unread.items()
                    if name not in FIELDS_READ_OUTSIDE)
    assert unused == []


def test_every_listed_field_still_needs_its_entry():
    unread, _ = unread_fields()
    assert sorted(name for name in FIELDS_READ_OUTSIDE if name not in unread) == []
