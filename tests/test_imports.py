"""Every module-level import in the package is used, every export list
names exactly what its module defines in public, the package root binds
nothing but its submodules and ``__version__``, importing the package
loads every submodule but ``cli`` and leaves sympy and every scipy
subpackage unloaded, and the package's defaulted parameters stay within
a fixed budget.

An import that no code reads still costs load time and misleads readers
about a module's dependencies.  A name counts as used when the module
reads it anywhere (as a name or as the root of an attribute chain) or
re-exports it through ``__all__``.  The package ``__init__`` only
imports its submodules (and loads the bare scipy package for the
benchmark's version probe), so it is exempt; the test modules are held
to the same rule.  Each public name has one import path, its module: a
name re-exported at the root is a second path that every deletion must
edit, and one named like a submodule shadows that module.  The root
still imports its submodules eagerly, so that ``import biratdyn`` is the
package's whole start-up cost.  sympy is needed only to factor
(``inspect``'s and ``energy-selftest``'s critical set) and for a gcd that
the modular coprimality certificate cannot decide, and importing it takes
about half a second, so it is loaded on first use: ``stability``,
``green``, ``measure`` and ``lyapunov`` compute without it on the corpus.
No module computes with scipy (the saddle search draws its Sobol starts
with numpy), and ``scipy.stats`` alone took most of a second to import,
so neither the package nor ``biratdyn.cli`` loads more of scipy than a
bare ``import scipy`` does, and no command loads ``scipy.stats``.
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
import types
from pathlib import Path

import pytest
from test_cli import MATRIX_PRECONDITION

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


def test_package_root_binds_only_submodules_and_dunders():
    stray = [name for name, value in vars(biratdyn).items()
             if not (name.startswith("__") and name.endswith("__"))
             and not (isinstance(value, types.ModuleType)
                      and value.__name__ == f"biratdyn.{name}")]
    assert stray == []


def test_guard_flags_stale_and_unlisted_exports():
    source = "__all__ = ['gone', 'kept']\ndef kept(): pass\ndef extra(): pass\nclass _Hidden: pass\n"
    namespace: dict = {}
    exec(source, namespace)
    assert export_faults(source, namespace) == (["gone"], ["extra"])


def fresh_python(*argv: str) -> str:
    """Standard output of ``python *argv`` in a fresh interpreter with this
    package's sources on its path; this test process may already have
    imported sympy or ``biratdyn.cli``."""
    src = str(Path(biratdyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, check=True).stdout


def test_import_leaves_sympy_unloaded():
    assert fresh_python("-c", "import sys, biratdyn; print('sympy' in sys.modules)").strip() == "False"


SCIPY_MODULES = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"


@pytest.mark.parametrize("package", ["biratdyn", "biratdyn.cli"])
def test_import_loads_no_scipy_subpackage(package):
    bare = set(json.loads(fresh_python("-c", f"import scipy; {SCIPY_MODULES}")))
    loaded = set(json.loads(fresh_python("-c", f"import {package}; {SCIPY_MODULES}")))
    assert loaded <= bare
    assert not loaded & {"scipy.stats", "scipy.special", "scipy.spatial"}


def test_import_loads_every_submodule_but_cli():
    out = fresh_python("-c", "import json, sys, biratdyn; print(json.dumps(sorted("
                       "m for m in sys.modules if m.startswith('biratdyn.'))))")
    assert json.loads(out) == [f"biratdyn.{p.stem}" for p in MODULES if p.stem != "cli"]


# the commands that need only the map, its inverse and the exceptional
# sets compute without sympy on every corpus map: the constructor's gcd is
# certified modulo a prime, I(f) comes from resultants, and the rate
# certificate reads a degree drop off the exceptional orbits without
# composing.  The CLI itself loads sympy after `load_map` for perfbench's
# version probe, so that one load is switched off here; `inspect` is the
# control, whose critical set sympy factors.  No run loads scipy.stats:
# `measure` and `lyapunov` draw their Sobol starts with numpy.
SYMPY_FREE_RUN = """
import json, sys
from biratdyn import cli
from biratdyn.mapfile import corpus_path
cli._sympy = lambda: None
out = sys.argv[1]
runs = []
for name in ("cremona", "henon", "linear", "lsigma"):
    for command in (["stability"], ["green", "--grid", "8"],
                    ["measure", "--max-period", "1"], ["lyapunov", "--max-period", "1"]):
        code = cli.main([*command, "--map", str(corpus_path(name)), "--out", out])
        runs.append([command[0], name, code])
loaded = "sympy" in sys.modules
stats = "scipy.stats" in sys.modules
inspect = cli.main(["inspect", "--map", str(corpus_path("henon")), "--out", out])
print(json.dumps([runs, inspect, loaded, "sympy" in sys.modules, stats]))
"""


def test_map_only_commands_compute_without_sympy(tmp_path):
    out = fresh_python("-c", SYMPY_FREE_RUN, str(tmp_path))
    runs, inspect, loaded, loaded_by_inspect, stats = json.loads(out.splitlines()[-1])
    assert len(runs) == 16
    for command, name, code in runs:
        assert code == (3 if (command, name) in MATRIX_PRECONDITION else 0), (command, name)
    assert inspect == 0
    assert not loaded
    assert loaded_by_inspect
    assert not stats


# defaulted parameters of every function and method in the package; raise
# only for an option that two callers need with different values
DEFAULTED_PARAMETER_BUDGET = 43


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
