"""Float-sum guard: the package sums floats with forkfleet.total, left to right
from 0.0, never with the builtin sum(), whose float sums are compensated
since Python 3.12 and so give other bits there than on 3.10 and 3.11. A
builtin sum() call stays only where it adds integers, which are exact on
every version, and each such call is listed below with its reason."""

import ast
import pathlib

import forkfleet
from forkfleet import total

SRC = pathlib.Path(forkfleet.__file__).parent

# (file, enclosing function) -> why its sum() adds integers only
INTEGER_SUMS = {
    ("roadnet.py", "exact_sums"): "shifted numerators of the edge lengths' integer ratios",
    ("odr_import.py", "_lane_count"): "a count of driving lanes: a sum of bools",
}


class SumCalls(ast.NodeVisitor):
    """Collects the innermost enclosing function's name (None at module
    level) of every call of a bare name sum."""

    def __init__(self):
        self.where, self.calls = None, []

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self.calls.append(self.where)
        self.generic_visit(node)


def sum_calls(tree):
    visitor = SumCalls()
    visitor.visit(tree)
    return visitor.calls


def test_no_builtin_sum_outside_the_integer_sums():
    calls = sorted((path.name, fn) for path in sorted(SRC.glob("*.py"))
                   for fn in sum_calls(ast.parse(path.read_text(), str(path))))
    # every call is listed, once, and no entry outlives its call
    assert calls == sorted(INTEGER_SUMS)


def test_the_guard_sees_each_sum_where_it_is_called():
    tree = ast.parse("n = sum(xs)\nclass A:\n    def f(self):\n"
                     "        def g():\n            return sum(z)\n        return sum(y)\n")
    assert sum_calls(tree) == [None, "g", "f"]


def test_total_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum would give 1.0
    assert total([1e16, 1.0, -1e16]) == 0.0
    assert total([]) == 0.0 and str(total([-0.0])) == "0.0"
    assert total(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3
