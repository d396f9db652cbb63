"""No `assert` statement in the package: `python -O` strips them, and a
correctness check must raise in every interpreter mode."""

import ast
from pathlib import Path

import rotorsense

PACKAGE = Path(rotorsense.__file__).parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O; raise an error instead: {found}"
