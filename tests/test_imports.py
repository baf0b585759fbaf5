"""The package's imports, read with ``ast``: no module imports a name it
does not use, and ``qwalk.__all__`` is the package's imports."""

import ast
from pathlib import Path

import qwalk

PACKAGE = Path(__file__).parents[1] / "src" / "qwalk"


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's top-level imports bind, with their lines;
    ``from __future__`` binds none."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_imports_are_used_and_all_is_the_packages_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert unused == []
    init = _imported(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert len(qwalk.__all__) == len(set(qwalk.__all__))
    assert set(qwalk.__all__) == set(init) | {"__version__"}
    for name in qwalk.__all__:
        getattr(qwalk, name)
