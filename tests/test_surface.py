"""Guards on the package's surface: the model package's re-export list
holds only names that some file of the project imports through
``efpc.model``, so it cannot grow back into a second API surface nobody
reads; the third-party imports in ``src`` are exactly the declared
dependencies; no module builds a second parameter or gradient table beside
the model's one flat table; one call site sends the helper process its
requests, so scoring and training split their calls one way; two functions
build arrays over the mapping the helper process shares, so it has one
layout; and importing the CLI loads no HTTP or TLS machinery."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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



def _dict_comprehensions_over_tensors() -> list[str]:
    """``file:line`` of every dict comprehension in ``src`` that iterates
    over some ``.tensors``."""
    found = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.DictComp) and any(
                isinstance(n, ast.Attribute) and n.attr == "tensors"
                for gen in node.generators for n in ast.walk(gen.iter)
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_no_module_builds_a_table_of_separate_arrays_from_a_models_tensors():
    # every parameter and gradient table is a FlatTable (zeros_like makes one
    # laid out as another); a dict built from .tensors would be a second kind
    assert not _dict_comprehensions_over_tensors()


def _requests_sent() -> list[str]:
    """``file:line`` of every ``send(...)`` call in ``src`` but ``send(None)``,
    which asks the helper to exit."""
    found = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "send"
                    and not (len(node.args) == 1 and isinstance(node.args[0], ast.Constant)
                             and node.args[0].value is None)):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_one_call_site_sends_the_helper_its_requests():
    # scoring and training share one split routine; a second site that sends
    # a request would be a second copy of it
    assert len(_requests_sent()) == 1, _requests_sent()


def _name(node: ast.AST) -> str | None:
    """The name a ``Name`` or ``Attribute`` node ends in."""
    return getattr(node, "attr", getattr(node, "id", None))


class _MappingViews(ast.NodeVisitor):
    """Collects the functions that call ``frombuffer``: in ``twocore``, on
    anything, since every buffer there is the mapping the helper shares;
    elsewhere, on a name or attribute ``shared``, as the mapping is called."""

    def __init__(self, module: str):
        self.module, self.function, self.found = module, None, set()

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        if _name(node.func) == "frombuffer" and node.args and (
                self.module == "twocore" or any(_name(n) == "shared"
                                                for n in ast.walk(node.args[0]))):
            self.found.add(f"{self.module}.{self.function}")
        self.generic_visit(node)


def _mapping_views() -> set[str]:
    found = set()
    for path in SRC.rglob("*.py"):
        views = _MappingViews(path.stem)
        views.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= views.found
    return found


def test_two_functions_lay_out_the_mapping_the_helper_shares():
    # the model's table at the start, then the reply after it: a third
    # function that views the mapping would be a second layout
    assert _mapping_views() == {"twocore._table", "twocore._reply"}


def _third_party_imports() -> set[str]:
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"efpc"}


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert _third_party_imports() == declared


def test_importing_the_cli_loads_no_http_client():
    # the live provider imports these when it sends its first request
    probe = "import sys, efpc.cli; print(*{'urllib.request', 'ssl', 'requests'} & {*sys.modules})"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
