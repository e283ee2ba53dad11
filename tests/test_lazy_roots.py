"""Lazy package roots resolve every exported name to the right object.

A root maps its ``__all__`` names to defining modules and imports nothing
until a name is read (:mod:`repro._lazy`).  A typo in that table, or a
submodule that shares an exported name (importing the submodule rebinds
the name to the module), only shows in some import orders.  So every root
is checked twice in fresh interpreters: cold, reading names before any
submodule is imported, and after ``pkgutil.walk_packages`` has imported
every submodule.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
ROOTS = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in (REPO_SRC / "repro").glob("*/__init__.py")
)
#: modules that cannot be imported for inspection: the CLI entry point
#: runs the parser
UNIMPORTABLE = {"repro.__main__"}


def lazy_table(package: str):
    """``(name -> defining module, exported submodules)`` as written in the
    root's ``lazy_exports`` call (empty for an eager root)."""
    path = REPO_SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            exports = ast.literal_eval(node.args[1])
            submodules = ()
            for keyword in node.keywords:
                if keyword.arg == "submodules":
                    submodules = ast.literal_eval(keyword.value)
            where = {name: module for module, names in exports.items() for name in names}
            return where, list(submodules)
    return {}, []


CHECK = r"""
import importlib, json, pkgutil, sys, types

roots, tables, walk, skip = json.loads(sys.argv[1])
MISSING = object()
if walk:
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name not in skip:
            importlib.import_module(info.name)
problems = {}
for root in roots:
    package = importlib.import_module(root)
    where, submodules = tables[root]
    found = problems.setdefault(root, [])
    exported = set(package.__all__)
    for name in sorted(set(where) - exported):
        found.append(f"{name}: in the lazy table but not in __all__")
    for name in package.__all__:
        try:
            value = getattr(package, name)
        except AttributeError as exc:
            found.append(f"{name}: does not resolve ({exc})")
            continue
        if name in submodules:
            expected = importlib.import_module(f"{root}.{name}")
        elif name in where:
            expected = getattr(importlib.import_module(where[name]), name)
        else:
            expected = vars(package).get(name, MISSING)
        if value is not expected:
            found.append(f"{name}: resolves to {value!r}, not its defining module's object")
        if isinstance(value, types.ModuleType) and value.__name__ != f"{root}.{name}":
            found.append(f"{name}: resolves to module {value.__name__}")
    missing = exported - set(dir(package))
    if missing:
        found.append(f"dir() lacks {sorted(missing)}")
print(json.dumps(problems))
"""


def check_roots(walk: bool) -> dict:
    tables = {root: lazy_table(root) for root in ROOTS}
    arg = json.dumps([ROOTS, tables, walk, sorted(UNIMPORTABLE)])
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, arg], capture_output=True, text=True,
        timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=["cold", "walked"])
def problems(request):
    return check_roots(walk=request.param == "walked")


@pytest.mark.parametrize("root", ROOTS)
def test_exports_resolve_to_their_defining_objects(problems, root):
    assert problems[root] == []


def test_every_root_but_the_api_module_is_lazy():
    eager = [root for root in ROOTS if not lazy_table(root)[0]]
    assert eager == ["repro.api"]
