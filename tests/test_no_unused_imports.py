"""No package module imports a name it never uses, so a deletion cannot
leave its imports behind. Only `__init__.py` imports to re-export; no
comment exempts an import elsewhere."""

import ast
from pathlib import Path

import rotorsense

PACKAGE = Path(rotorsense.__file__).parent


def annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations such as `-> "PipelineConfig"`."""
    annotations = [
        note
        for node in ast.walk(tree)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if note is not None
    ]
    return {
        name.id
        for note in annotations
        for text in ast.walk(note)
        if isinstance(text, ast.Constant) and isinstance(text.value, str)
        for name in ast.walk(ast.parse(text.value, mode="eval"))
        if isinstance(name, ast.Name)
    }


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name.split(".")[0]: alias.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | annotation_names(tree)
    return [f"{path.name}:{lineno} {name}" for name, lineno in imported.items() if name not in used]


def test_package_modules_use_every_name_they_import():
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert sources
    found = [entry for path in sources for entry in unused_imports(path)]
    assert not found, f"imported and never used; delete the import: {found}"
