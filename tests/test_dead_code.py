"""Dead-code guard: every top-level public def and class in the package, and
every public method of a public class, has a user in the package itself (a
reference to its name), or a reason below why only others call it."""

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


def defined_and_referenced():
    """({public top-level name or public method name: where}, {every name the
    package refers to})."""
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in public_defs(tree.body):
            defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for method in public_defs(node.body):
                    defined[method.name] = f"{path.name} {node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
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


def test_every_listed_name_still_needs_its_entry():
    defined, referenced = defined_and_referenced()
    stale = sorted(name for name in CALLED_FROM_OUTSIDE
                   if name not in defined or name in referenced)
    assert stale == []
