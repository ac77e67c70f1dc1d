"""Dead-code guard: every top-level def and class in the package, public or
private, every module-level constant, and every public method of a public
class has a reader in the package itself (a reference to its name), or a
reason below why only others read it."""

import ast
import pathlib

import forkfleet

SRC = pathlib.Path(forkfleet.__file__).parent

# name -> why it stays although nothing in the package refers to it
CALLED_FROM_OUTSIDE = {
    "warehouse_map": "the README's quick start and the benchmark build maps with it",
    "vertical_work": "acceptance test c3 checks the lift energy with it",
    "score_placement": "acceptance test c7 scores placements with it",
    "top_decile_cells": "acceptance test c7 and test_placement.py read heatmap hot spots with it",
    "run": "the tests take a run's samples as one list from it, beside the CLI's stream",
}


def public_defs(body):
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_defs_and_methods(body, where):
    """{name: where} of the public top-level defs and classes, and of the
    public methods of the public classes."""
    defined = {}
    for node in public_defs(body):
        defined[node.name] = where
        if isinstance(node, ast.ClassDef):
            for method in public_defs(node.body):
                defined[method.name] = f"{where} {node.name}"
    return defined


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


def defined_and_referenced(kinds=public_defs_and_methods):
    """({defined name: where}, {every name the package reads}); kinds picks
    which definitions are collected."""
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(kinds(tree.body, path.name))
        for node in ast.walk(tree):
            # a name read, not the assignment that defines it
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def test_every_public_definition_has_a_user_in_the_package():
    defined, referenced = defined_and_referenced()
    unused = sorted(f"{file}: {name}" for name, file in defined.items()
                    if name not in referenced and name not in CALLED_FROM_OUTSIDE)
    assert unused == []


def test_every_private_definition_and_constant_has_a_reader_in_the_package():
    defined, referenced = defined_and_referenced(private_defs_and_constants)
    assert "_ROW" in defined and "MAX_ENTRIES" in defined  # the case sees both kinds
    unused = sorted(f"{file}: {name}" for name, file in defined.items()
                    if name not in referenced and name not in CALLED_FROM_OUTSIDE)
    assert unused == []


def test_every_listed_name_still_needs_its_entry():
    defined, referenced = defined_and_referenced()
    stale = sorted(name for name in CALLED_FROM_OUTSIDE
                   if name not in defined or name in referenced)
    assert stale == []
