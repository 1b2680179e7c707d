"""Every module-level import in the package is used, every export list
names exactly what its module defines in public, every package attribute
named after a submodule is that submodule, importing the package leaves
sympy unloaded, and the package's defaulted parameters stay within a fixed
budget.

An import that no code reads still costs load time and misleads readers
about a module's dependencies.  A name counts as used when the module
reads it anywhere (as a name or as the root of an attribute chain) or
re-exports it through ``__all__``.  The package ``__init__`` only
re-exports, so it is exempt; the test modules are held to the same
rule.  sympy is needed only to factor
(``inspect``'s and ``energy-selftest``'s critical set) and for a gcd that
the modular coprimality certificate cannot decide, and importing it takes
about half a second, so it is loaded on first use: ``stability``,
``green``, ``measure`` and ``lyapunov`` compute without it on the corpus.
Each defaulted parameter is an option that callers may set or
forget; the budget makes every new one a reviewed, one-line change.  An
export list that names a deleted function, or omits a new one, misstates
the public API, so both directions are checked.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biratdyn

MODULES = sorted(p for p in Path(biratdyn.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def declared_exports(tree: ast.Module) -> list[str] | None:
    """The literal ``__all__`` a module assigns, or None."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return None


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= set(declared_exports(tree) or ())
    return [name for name in imported if name not in read]


def export_faults(source: str, namespace) -> tuple[list[str], list[str]]:
    """Names ``__all__`` lists that the module lacks, and public top-level
    functions and classes it does not list."""
    tree = ast.parse(source)
    listed = declared_exports(tree)
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    return ([name for name in listed if name not in namespace],
            [name for name in public if name not in listed])


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}" if p in TEST_MODULES else p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_attribute_is_the_submodule(path):
    # a re-exported name equal to a submodule's would shadow the module:
    # `import biratdyn.x as m` and `from biratdyn import x` would then give it
    name = path.stem
    importlib.import_module(f"biratdyn.{name}")
    assert getattr(biratdyn, name) is sys.modules[f"biratdyn.{name}"]


def test_guard_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]


EXPORTING = [p for p in MODULES if declared_exports(ast.parse(p.read_text())) is not None]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_export_list_matches_public_definitions(path):
    module = importlib.import_module(f"biratdyn.{path.stem}")
    assert export_faults(path.read_text(), vars(module)) == ([], [])


def test_package_exports_resolve():
    assert [name for name in biratdyn.__all__ if not hasattr(biratdyn, name)] == []


def test_guard_flags_stale_and_unlisted_exports():
    source = "__all__ = ['gone', 'kept']\ndef kept(): pass\ndef extra(): pass\nclass _Hidden: pass\n"
    namespace: dict = {}
    exec(source, namespace)
    assert export_faults(source, namespace) == (["gone"], ["extra"])


def test_import_leaves_sympy_unloaded():
    # a fresh interpreter: this test process may already have imported sympy
    src = str(Path(biratdyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, biratdyn; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


# the commands that need only the map, its inverse and the exceptional
# sets compute without sympy: the constructor's gcd is certified modulo a
# prime and I(f) comes from resultants.  The CLI itself loads sympy after
# `load_map` for perfbench's version probe, so that one load is switched
# off here; `inspect` is the control, whose critical set sympy factors.
SYMPY_FREE_RUN = """
import json, sys
from biratdyn import cli
from biratdyn.mapfile import corpus_path
cli._sympy = lambda: None
out = sys.argv[1]
codes = []
for name in ("henon", "lsigma"):
    for command in (["stability"], ["green", "--grid", "8"],
                    ["measure", "--max-period", "1"], ["lyapunov", "--max-period", "1"]):
        codes.append(cli.main([*command, "--map", str(corpus_path(name)), "--out", out]))
loaded = "sympy" in sys.modules
codes.append(cli.main(["inspect", "--map", str(corpus_path("henon")), "--out", out]))
print(json.dumps([codes, loaded, "sympy" in sys.modules]))
"""


def test_map_only_commands_compute_without_sympy(tmp_path):
    src = str(Path(biratdyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SYMPY_FREE_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    codes, loaded, loaded_by_inspect = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 9
    assert not loaded
    assert loaded_by_inspect


# defaulted parameters of every function and method in the package; raise
# only for an option that two callers need with different values
DEFAULTED_PARAMETER_BUDGET = 46


def defaulted_parameters(source: str) -> int:
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_defaulted_parameters_within_budget():
    paths = Path(biratdyn.__file__).parent.glob("*.py")
    assert sum(defaulted_parameters(p.read_text()) for p in paths) <= DEFAULTED_PARAMETER_BUDGET


def test_budget_counts_positional_and_keyword_defaults():
    assert defaulted_parameters("def f(a, b=1, *, c, d=2):\n    def g(e=3): pass\n") == 3
