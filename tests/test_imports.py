"""Static import rules for the package sources, checked with the standard library's ``ast``.

- Every import is relative, ``__future__``, or of a standard-library module:
  the package has no runtime dependencies.
- Every imported name is used, except the re-exports of ``__init__.py`` and
  names a module lists in ``__all__``.
- Each name is listed in at most one module's ``__all__``, and ``__init__.py``
  imports it from that module: every public name has one import path.
- Every third-party module the tests import is declared in the ``test``
  extra of ``pyproject.toml``.
- The modules that derive graphs from graphs read masks, never a graph's
  token views: how a graph is stored stays inside ``digraph``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qbmg").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imports(tree: ast.Module):
    """(node, bound name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def _declared_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        foreign += [f"line {node.lineno}: {root}" for root in roots
                    if root != "__future__" and root not in sys.stdlib_module_names]
    assert not foreign, f"{path.name} imports outside the standard library: {foreign}"


def test_each_public_name_has_one_home():
    homes: dict[str, list[str]] = {}
    for path in SOURCES:
        for name in _declared_all(ast.parse(path.read_text(), filename=str(path))):
            homes.setdefault(name, []).append(path.stem)
    shared = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert not shared, f"names listed in more than one __all__: {shared}"
    init = ROOT / "src" / "qbmg" / "__init__.py"
    astray = [f"line {node.lineno}: {name} from .{node.module}"
              for node, name in _imports(ast.parse(init.read_text(), filename=str(init)))
              if name in homes and homes[name] != [node.module]]
    assert not astray, f"__init__.py imports names from outside their __all__: {astray}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imported_names_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _declared_all(tree)
    unused = [f"line {node.lineno}: {name}" for node, name in _imports(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _roots(tree: ast.Module):
    """(line, top-level module) for every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_test_imports_are_declared_in_the_test_extra():
    import tomllib

    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in extra}
    local = {"qbmg", "tests", "__future__"} | {p.stem for p in TESTS}
    missing = [f"{path.name} line {line}: {root}"
               for path in TESTS for line, root in _roots(ast.parse(path.read_text()))
               if root not in local and root not in sys.stdlib_module_names
               and root.lower() not in declared]
    assert not missing, f"tests import modules missing from the test extra: {missing}"


TOKEN_VIEWS = {"edges", "color_u", "color_w"}


@pytest.mark.parametrize("name", ["orientations.py", "quotients.py"])
def test_graph_builders_do_not_read_token_views(name):
    path = ROOT / "src" / "qbmg" / name
    reads = [f"line {node.lineno}: .{node.attr}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in TOKEN_VIEWS]
    assert not reads, f"{name} reads token views of a graph: {reads}"
