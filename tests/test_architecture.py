"""Each theory is described in one place: only `theory` branches on a theory
kind; every other module asks the config's theory object.  Each fuzz
property is written once, in `props`: the CLI drives the suites and the
tests call their checks.  Importing the package and its command line loads
neither the fuzz machinery nor the heavy standard modules."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from starexpr.props import SUITES
from starexpr.theory import KINDS

SRC = Path(__file__).resolve().parents[1] / "src" / "starexpr"
TESTS = Path(__file__).resolve().parent


def _is_kind_literal(node) -> bool:
    """A theory kind written as a string, or a collection holding one."""
    if isinstance(node, ast.Constant):
        return node.value in KINDS
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_kind_literal, node.elts))
    return False


def _reads_kind(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "kind" for n in ast.walk(node))


def kind_branches(source: str) -> list[int]:
    """The lines of a module that compare with a kind literal, or whose
    condition reads a ``.kind`` attribute."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        conditions = []
        if isinstance(node, ast.Compare):
            if any(map(_is_kind_literal, [node.left, *node.comparators])):
                lines.add(node.lineno)
            conditions.append(node)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            conditions.append(node.test)
        elif isinstance(node, ast.comprehension):
            conditions += node.ifs
        elif isinstance(node, ast.Match):
            conditions.append(node.subject)
        lines.update(c.lineno for c in conditions if _reads_kind(c))
    return sorted(lines)


def test_only_theory_branches_on_a_theory_kind():
    found = {path.name: kind_branches(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "theory.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _called(node) -> set[str]:
    return {_callee(n) for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_cli_defines_no_property():
    tree = _tree(SRC / "cli.py")
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert {name for name in defined if name.startswith(("_prop_", "check_"))} == set()
    # drawing cases is the properties' part too
    assert {name for name in _called(tree) if name and name.startswith("rand_")} == set()


def test_every_suite_is_checked_by_the_tests():
    tree = _tree(SRC / "props.py")
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    in_tests = set().union(*(_called(_tree(path)) for path in TESTS.glob("test_*.py")))
    suites = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _callee(n) == "Suite"]
    assert len(suites) == len(SUITES)
    for suite in suites:
        name, check = suite.args[0].value, suite.args[3]
        # the suite's check, and the property functions that it calls
        named = {n.id for n in ast.walk(check) if isinstance(n, ast.Name)} & functions.keys()
        checks = named.union(*map(_called, map(functions.get, named))) & functions.keys()
        assert checks & in_tests, f"no test calls a check of the {name} suite"


def test_import_loads_no_heavy_or_fuzz_modules():
    # dataclasses brings inspect, ast, dis and tokenize with it; the fuzz
    # suites, their generators and random load only for the fuzz command
    script = (f"import json, sys; sys.path.insert(0, {str(SRC.parent)!r}); "
              "import starexpr, starexpr.cli; print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(json.loads(done.stdout))
    assert "starexpr.cli" in loaded
    unwanted = {"dataclasses", "inspect", "typing", "ast", "dis",
                "starexpr.props", "starexpr.gen", "random"}
    assert loaded & unwanted == set()
