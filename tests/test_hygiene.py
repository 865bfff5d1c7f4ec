"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ imports names only to re-export them
SOURCES = ([p for p in sorted((ROOT / "src" / "aalg").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(path):
    """'file:line: name' for each imported name that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    unused = [hit for path in SOURCES for hit in unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
