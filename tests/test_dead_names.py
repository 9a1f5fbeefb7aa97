"""No dead names in the package: every import of a `src/hspsim` module is read
in that module, and every private name defined at module level or in a
class body is read somewhere in `src/hspsim`.  Stdlib `ast` only, so the
check needs nothing installed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hspsim"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), path.name)
            for path in sorted(PACKAGE.glob("*.py"))}


def _names_read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imported(tree: ast.Module) -> list[str]:
    """The name each import binds, `from __future__` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assignments, and the methods and
    properties in a module-level class body, named `_x` (not `__x__`)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f.name for f in node.body
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads: as a name, an attribute or an imported name."""
    refs = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
    return refs


def test_package_modules_exist():
    assert {"groups.py", "oracle.py", "recovery.py", "__init__.py"} <= set(_modules())


def test_no_unused_import():
    """`__init__` is left out: its `__all__` is every public name it binds, so
    each of its imports is an export."""
    unused = [f"{name}: {bound}" for name, tree in _modules().items() if name != "__init__.py"
              for bound in _imported(tree) if bound not in _names_read(tree)]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_unreferenced_private_name():
    modules = _modules()
    referenced = set().union(*map(_references, modules.values()))
    dead = [f"{name}: {private}" for name, tree in modules.items()
            for private in _private_definitions(tree) if private not in referenced]
    assert not dead, "private names nothing in src/ reads: " + ", ".join(dead)
