"""The package surface: what ``__all__`` promises and what the source imports."""

import ast
import sys
from pathlib import Path

import ribbon_embed

PACKAGE = Path(ribbon_embed.__file__).resolve().parent


def test_all_names_resolve_once():
    names = ribbon_embed.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ribbon_embed, name)] == []


def test_source_imports_only_the_standard_library():
    # pyproject.toml declares ``dependencies = []``
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "ribbon_embed" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {module}")
    assert foreign == []
