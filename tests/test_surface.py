"""The model package's re-export list holds only names that some file of
the project imports through ``efpc.model``, so it cannot grow back into a
second API surface nobody reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODEL_INIT = SRC / "efpc" / "model" / "__init__.py"


def _module_of(path: Path, node: ast.ImportFrom) -> str | None:
    """Absolute module an ``import from`` statement names, relative
    imports resolved against the file's package under ``src``."""
    if node.level == 0:
        return node.module
    if SRC not in path.parents:
        return None
    package = path.relative_to(SRC).parent.parts
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ((node.module,) if node.module else ()))


def _names_imported_through_model() -> set[str]:
    names = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path == MODEL_INIT:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and _module_of(path, node) == "efpc.model":
                    names.update(alias.name for alias in node.names)
    return names


def _reexports() -> set[str]:
    tree = ast.parse(MODEL_INIT.read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_model_package_reexports_only_names_imported_through_it():
    unused = _reexports() - _names_imported_through_model()
    assert not unused, f"efpc/model/__init__.py re-exports names nothing imports: {sorted(unused)}"

