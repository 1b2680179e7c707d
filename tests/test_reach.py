"""The reach ledger: every package function that no command calls, with
the claim that keeps it.

The 21-command matrix (`inspect`, `stability`, `green`, `measure` and
`lyapunov` on the four corpus maps, plus `energy-selftest`) runs in this
process under a `sys.setprofile` hook.  Its flags are cheap; on the corpus
they reach the same functions as the default flags.  The module bodies run
once more under the hook, in throwaway namespaces, so a function that runs
at import counts as reached.  A function is named by its module and
qualified name, and one nested in an unreached function counts with it.

The unreached set must equal `LEDGER`, whose values name what keeps each
function: an open ROADMAP item that builds on it, an acceptance test, a
second route that a test checks a kernel against, an error path that the
corpus never takes, or the tests' own fixtures.  A function that no
command reaches and nothing claims is deleted instead.  A stale entry and
a new unclaimed function fail alike, and `UNREACHED_LINE_BUDGET` caps the
lines the ledger keeps.
"""

import ast
import sys
from pathlib import Path

import biratdyn
from biratdyn import cli
from biratdyn.mapfile import corpus_path
from test_cli import MATRIX_PRECONDITION

PACKAGE = Path(biratdyn.__file__).parent
CORPUS = ["cremona", "henon", "linear", "lsigma"]
FLAGS = {
    "inspect": [],
    "stability": ["--iters", "8"],
    "green": ["--grid", "8", "--iters", "4"],
    "measure": ["--max-period", "1", "--iters", "2"],
    "lyapunov": ["--max-period", "1", "--iters", "8"],
}

ITEM4 = "item 4: Diller-Favre stabilization (lattice, contracted curves)"
ITEM4_TEST2 = ITEM4 + "; acceptance test 2"
ITEM14 = "item 14: shadow balls, run once an exact orbit passes the bit cap"
LELONG = "item 12: Lelong slope, awaits a report in green; acceptance tests 4 and 7"
GREEN_KERNEL = "kernel of the Lelong shells and green_at_inverse_indeterminacy; acceptance test 4"
OBSERVABLE = "acceptance test 6: observable averages, invariance and mixing"
LIBRARY = "library entry point that only tests call; item 12 decides it"
EDGE = "error or edge path that the corpus never takes"
IMMUTABLE = EDGE + ": the immutability guard"
PROTOCOL = "operator protocol of an exact type"
FIXTURE = "test fixture: builds maps, map files and test functions"

LEDGER = {
    "cohomology.CohomologyLattice.__init__": ITEM4_TEST2,
    "cohomology.CohomologyLattice.pairing": ITEM4_TEST2,
    "cohomology._as_int_matrix": ITEM4_TEST2,
    "cohomology._dominant_eigenpair": ITEM4_TEST2,
    "cohomology.check_adjoint": ITEM4,
    "cohomology.class_decomposition": ITEM4,
    "cohomology.cone_K_test": ITEM4_TEST2,
    "cohomology.remainder_growth_constant": ITEM4,
    "cohomology.spectral_data": ITEM4_TEST2,
    "energy.ChartFunction.__mul__": FIXTURE,
    "energy.DiscreteForm11.min_eigenvalue": LIBRARY,
    "energy.GridChart.contains": EDGE + ": I(f) inside the pushforward window",
    "energy._hessian_of.<locals>.dbar": "second route: the numeric Hessian that tests "
                                        "check analytic Hessians against",
    "energy.complex_hessian": "second route: the numeric Hessian that tests check "
                              "analytic Hessians against",
    "energy.coordinate_part": FIXTURE,
    "energy.energy": "the analytic pins of the pairing density (tests/test_energy.py)",
    "energy.smoothed_log_distance": FIXTURE,
    "geometry.ComplexRational.__bool__": PROTOCOL,
    "geometry.ComplexRational.__hash__": PROTOCOL,
    "geometry.ComplexRational.__rsub__": PROTOCOL,
    "geometry.ComplexRational.__rtruediv__": PROTOCOL,
    "geometry.ComplexRational.__setattr__": IMMUTABLE,
    "geometry.HomogeneousPolynomial.__eq__": PROTOCOL,
    "geometry.HomogeneousPolynomial.__hash__": PROTOCOL,
    "geometry.HomogeneousPolynomial.__pow__": PROTOCOL,
    "geometry.HomogeneousPolynomial.__setattr__": IMMUTABLE,
    "geometry.HomogeneousPolynomial.zero": EDGE + ": a component that vanishes",
    "geometry.ProjectivePoint.__setattr__": IMMUTABLE,
    "geometry.ProjectivePoint.reduced": LIBRARY,
    "geometry._GaussianInteger.__neg__": PROTOCOL,
    "mapfile.ParseError.__init__": EDGE + ": malformed JSON",
    "mapfile.corpus_path": FIXTURE,
    "mapfile.load_config": "reached with --config",
    "mapfile.save_map": FIXTURE,
    "mapfile.write_corpus": FIXTURE,
    "maps.CoefficientOverflow.__init__": EDGE + ": the coefficient bit cap",
    "maps.RationalSurfaceMap.__repr__": "debugging repr",
    "maps.RationalSurfaceMap.contractions": ITEM4,
    "maps._blowup_image": ITEM4,
    "maps._contraction_target": ITEM4,
    "maps._curve_line_intersections": ITEM4,
    "maps._line_restriction": EDGE + ": irrational points of I(f); " + ITEM4,
    "maps.derivative_norm": "second route of the cocycle step's norm "
                            "(tests/test_lyapunov.py)",
    "measure.Observable.__call__": OBSERVABLE,
    "measure._taper": OBSERVABLE,
    "measure.bump_observable": OBSERVABLE,
    "measure.cloud_agreement": "item 15: replaced by the mu_n against mu_n+1 check; "
                               "acceptance test 6",
    "measure.random_observable": OBSERVABLE,
    "measure.tube_observable": OBSERVABLE,
    "potential.OrbitHitIndeterminacy.__init__": EDGE + ": an orbit below the floor",
    "potential._partial_sums": GREEN_KERNEL,
    "potential._point_logs": GREEN_KERNEL,
    "potential.green_at_inverse_indeterminacy": "item 12: awaits a report beside "
                                                "stability's summability; acceptance test 3",
    "potential.green_functional_check": "second route of green's batched functional "
                                        "residuals; acceptance test 4",
    "potential.green_lelong_estimate": LELONG,
    "potential.green_partial": LIBRARY,
    "potential.lelong_estimate": LELONG,
    "potential.shell_means": LELONG,
    "potential.shell_points": LELONG,
    "stability._Ball.__init__": ITEM14,
    "stability._Ball._normalized": ITEM14,
    "stability._Ball.from_point": ITEM14,
    "stability._Ball.numeric_point": ITEM14,
    "stability._Ball.radius": ITEM14,
    "stability._ball_rows": ITEM14,
    "stability._eval_ball_poly": ITEM14,
    "stability._mpc": ITEM14,
    "stability._step_ball": ITEM14,
    "standard_maps._cr": FIXTURE,
    "standard_maps.cremona_involution": FIXTURE,
    "standard_maps.diagonal_scaling_map": FIXTURE,
    "standard_maps.linear_map": FIXTURE,
    "standard_maps.lsigma_map": FIXTURE,
    "standard_maps.rational_rotation_map": FIXTURE,
}

#: lines of the functions in LEDGER; raise only with a new claim
UNREACHED_LINE_BUDGET = 751


def package_functions() -> dict[str, int]:
    """Every function and method defined in the package, by
    ``module.qualname``, with its line count from ``def`` to its end."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out[f"{module}.{name}"] = child.end_lineno - child.lineno + 1
                walk(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def matrix(out: Path) -> list[tuple[str, str, list[str]]]:
    runs = [(command, name, [command, "--map", str(corpus_path(name)), "--seed", "93",
                             "--out", str(out), *flags])
            for name in CORPUS for command, flags in FLAGS.items()]
    runs.append(("energy-selftest", "", ["energy-selftest", "--seed", "93", "--out", str(out),
                                         "--iters", "1"]))
    return runs


def called_functions(out: Path) -> tuple[set[str], dict]:
    """``module.qualname`` of every package function called by the matrix
    or by a module body, and the exit code of each run."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    runs = matrix(out)
    cli._sympy()  # keep sympy's own import out of the profile
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for path in sorted(PACKAGE.glob("*.py")):
            exec(compile(path.read_text(), str(path), "exec"),
                 {"__name__": f"biratdyn.{path.stem}", "__package__": "biratdyn"})
        codes = {(command, name): cli.main(argv) for command, name, argv in runs}
    finally:
        sys.setprofile(previous)
    names = {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in seen
             if Path(code.co_filename).parent == PACKAGE}
    return names, codes


def unreached(functions: dict[str, int], called: set[str]) -> dict[str, int]:
    out = {}
    for name, lines in functions.items():
        parent = name.rpartition(".<locals>.")[0]
        if name not in called and (not parent or parent in called):
            out[name] = lines
    return out


def test_unreached_functions_match_the_ledger(tmp_path):
    functions = package_functions()
    called, codes = called_functions(tmp_path)
    assert {run for run, code in codes.items() if code} == MATRIX_PRECONDITION
    assert set(codes.values()) == {0, 3}
    missed = unreached(functions, called)
    assert not sorted(set(missed) - set(LEDGER)), "unreached and unclaimed"
    assert not sorted(set(LEDGER) - set(missed)), "claimed but reached, or gone"
    assert sum(missed.values()) <= UNREACHED_LINE_BUDGET

