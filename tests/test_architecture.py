"""Each theory is described in one place: only `theory` branches on a theory
kind; every other module asks the config's theory object."""

import ast
from pathlib import Path

from starexpr.theory import KINDS

SRC = Path(__file__).resolve().parents[1] / "src" / "starexpr"


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
