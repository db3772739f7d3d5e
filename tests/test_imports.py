"""Static import rules for the package sources, checked with the standard library's ``ast``.

- Every import is relative, ``__future__``, or of a standard-library module:
  the package has no runtime dependencies.
- Every imported name is used, except the re-exports of ``__init__.py`` and
  names a module lists in ``__all__``.
- Each name is listed in at most one module's ``__all__``, and ``__init__.py``
  maps it to that module: every public name has one import path. The
  package's ``__all__`` is a literal equal to the map's keys.
- ``import qbmg`` loads no submodule, and each command loads only the
  modules it runs.
- Every module but ``cli.py`` and ``__init__.py`` imports at its top level
  only, with no ``if TYPE_CHECKING:`` block: ``cli.py`` defers each
  command's imports to the command, and ``__init__.py`` resolves its public
  names on first access.
- Every third-party module the tests import is declared in the ``test``
  extra of ``pyproject.toml``.
- The modules that derive graphs from graphs read masks, never a graph's
  token views: how a graph is stored stays inside ``digraph``.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qbmg").glob("*.py"))
INIT = ROOT / "src" / "qbmg" / "__init__.py"
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


def _literal(tree: ast.Module, name: str):
    """The literal a top-level ``name = ...`` assigns, else None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _declared_all(tree: ast.Module) -> set[str]:
    return set(_literal(tree, "__all__") or ())


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
        if path != INIT:
            for name in _declared_all(ast.parse(path.read_text(), filename=str(path))):
                homes.setdefault(name, []).append(path.stem)
    shared = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert not shared, f"names listed in more than one __all__: {shared}"
    tree = ast.parse(INIT.read_text(), filename=str(INIT))
    mapped = _literal(tree, "_HOMES")
    assert mapped, "__init__.py has no literal _HOMES map"
    astray = [f"{name} -> .{home}, listed in {homes.get(name, [])}"
              for name, home in mapped.items() if homes.get(name) != [home]]
    assert not astray, f"__init__.py maps names outside their home's __all__: {astray}"
    assert _literal(tree, "__all__") == list(mapped)


def _fresh_python(code: str, *argv: str) -> str:
    """Stdout of ``python -c code argv...`` in a new process that imports this checkout's qbmg."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_public_names_load_from_their_home_on_first_access():
    import qbmg

    # Before any name is read, ``dir`` already lists them all.
    assert _fresh_python("import qbmg; print(sorted(set(qbmg.__all__) - set(dir(qbmg))))") \
        == "[]\n"
    for name in qbmg.__all__:
        home = importlib.import_module(f"qbmg.{qbmg._HOMES[name]}")
        assert getattr(qbmg, name) is getattr(home, name), name
    star: dict = {}
    exec("from qbmg import *", star)
    assert set(qbmg.__all__) <= star.keys()
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qbmg.no_such_name  # noqa: B018


# Prints the qbmg modules that ``import qbmg.cli`` loads, then those that
# ``main(argv)`` adds, as two JSON lists.
FOOTPRINT = """\
import contextlib, io, json, sys
def loaded():
    return {m for m in sys.modules if m == "qbmg" or m.startswith("qbmg.")}
import qbmg.cli
before = loaded()
print(json.dumps(sorted(before)))
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        qbmg.cli.main(sys.argv[1:])
print(json.dumps(sorted(loaded() - before)))
"""

FIXTURE = "fixtures/corpus/blowup_base.qbmg"


@pytest.mark.parametrize("argv, added", [
    ([], []),
    (["check", FIXTURE], ["qbmg.axioms"]),
    (["aut", FIXTURE, "--json"], ["qbmg.autgroup", "qbmg.perms"]),
    (["generate", "two-layer", "--m", "3"], ["qbmg.constructions", "qbmg.perms"]),
    (["verify", FIXTURE, "--theorems", "membership"],
     ["qbmg.autgroup", "qbmg.axioms", "qbmg.orientations", "qbmg.perms", "qbmg.quotients",
      "qbmg.verify"]),
], ids=["import", "check", "aut", "generate", "verify-membership"])
def test_each_command_loads_only_its_modules(argv, added):
    at_import, by_main = map(json.loads, _fresh_python(FOOTPRINT, *argv).splitlines())
    assert at_import == ["qbmg", "qbmg.cli", "qbmg.digraph", "qbmg.errors"]
    assert by_main == added


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("cli.py", "__init__.py")],
                         ids=lambda p: p.name)
def test_imports_sit_at_the_top_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    nested = [f"line {node.lineno}" for node, _ in _imports(tree) if id(node) not in top]
    guarded = [f"line {node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)]
    assert not nested + guarded, (f"{path.name} imports inside a function or block: {nested}; "
                                  f"under TYPE_CHECKING: {guarded}")


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
