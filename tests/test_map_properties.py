"""Property tests on generated maps f = L o sigma: sigma the Cremona
involution, L an invertible integer matrix with entries in {-1, 0, 1, 2}.

Every such map is birational with the exact inverse sigma o L^-1, and its
exceptional points are exact: I(f^-1) is the three columns of L and I(f)
the three coordinate points.  So the degree drops of f are decided by
exceptional orbits alone (algebraic stability: Fornaess-Sibony 1995,
Diller-Favre 2001 Thm 1.14): deg f^n = 2^n for every n <= N exactly when no
p in I(f^-1) has f^k(p) in I(f) for some k <= N - 2, and the first drop is
at n = k + 2 for the least such k.  `degree_sequence` decides by that
orbit walk and composes only when an orbit meets I(f), so the composition
loop (`_composed_degree_sequence`) is the oracle: both are checked against
it on random L o sigma and Henon maps, with and without an attached
inverse, and the oracle's first drop against the hits of
`exceptional_orbits`.  The inverse and associativity identities ride
alongside.

The same maps, and the bundled corpus, check the two shortcuts the
command-line path takes: `image_point` against the image summed in Q(i)
and on the point's numeric copy, and `plane_expansion_rate` against the
composed degree sequence.
`orbit_walk`, the walker of both the degree check and the stability
diagnostics, stops at exactly the exact hits that `exceptional_orbits`
records.
Generated maps, drawn and fixed, also run every map subcommand end to end.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from biratdyn import cli, maps, stability
from biratdyn.cli import main
from biratdyn.cohomology import NoExpansion, SpectralError, plane_expansion_rate
from biratdyn.geometry import ProjectivePoint, proj_distance
from biratdyn.mapfile import corpus_path, load_map, save_map
from biratdyn.maps import (
    DEFAULT_COEFF_BIT_CAP,
    DEGREE_CHECK_ITERATES,
    RationalSurfaceMap,
    _composed_degree_sequence,
    compose,
    degree_sequence,
    image_point,
    orbit_walk,
    verify_inverse,
)
from biratdyn.stability import StabilityError, exceptional_orbits, summability
from biratdyn.standard_maps import cremona_involution, henon_map, linear_map
from test_exact_kernel import oracle_image

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

matrices = st.lists(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=3, max_size=3),
                    min_size=3, max_size=3)
triples = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
CORPUS = ["cremona", "henon", "linear", "lsigma"]


def det3(m) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def same_map(f, g) -> bool:
    """Projective equality of two maps: proportional component triples."""
    a, b = f.components, g.components
    return f.degree == g.degree and all(
        a[i] * b[j] == a[j] * b[i] for i in range(3) for j in range(i + 1, 3))


def twisted(m):
    """L o sigma with its inverse sigma o L^-1 linked both ways."""
    sig = cremona_involution()
    L = linear_map(m, name="L")
    f = compose(L, sig, name="L-sigma")
    g = compose(sig, L.inverse, name="sigma-Linv")
    f.inverse = g
    g.inverse = f
    return L, sig, f


def counted_degree_sequence(f, N):
    """`degree_sequence(f, N)` and the number of compositions it made."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "compose", counting)
        seq = degree_sequence(f, N)
    return seq, len(calls)


@SETTINGS
@given(matrices)
# first drop at 2, 3 and 4, and multiplicative through 4
@example([[2, 2, 2], [0, 0, 2], [0, -1, 2]])
@example([[1, 0, -1], [-1, 2, 2], [0, -1, -1]])
@example([[0, -1, -1], [2, -1, 1], [-1, 0, 1]])
@example([[0, 1, 2], [-1, -1, 2], [1, 2, -1]])
def test_generated_map_identities_and_degree_drops(m):
    assume(det3(m) != 0)
    L, sig, f = twisted(m)
    assert verify_inverse(f)
    assert same_map(compose(compose(L, sig), L), compose(L, compose(sig, L)))

    N = 4
    oracle = _composed_degree_sequence(f, N)
    seq, composed = counted_degree_sequence(f, N)
    assert seq == oracle
    # a multiplicative sequence is decided by the orbit walk alone
    assert (composed == 0) == oracle.is_multiplicative

    table = exceptional_orbits(f, N - 1)
    assert all(orb.source.exact for orb in table.orbits)
    hits = [orb.hit_index for orb in table.orbits
            if orb.hit_index is not None and orb.hit_index <= N - 2]
    expected = 2 + min(hits) if hits else None
    assert oracle.first_drop == expected


# each example composes f three times, twice over, so fewer of them
@settings(SETTINGS, max_examples=6)
@given(matrices)
def test_generated_map_degree_sequence_without_inverse(m):
    assume(det3(m) != 0)
    f = twisted(m)[2]
    bare = RationalSurfaceMap(f.components, name="bare")
    seq, composed = counted_degree_sequence(bare, 4)
    assert seq == _composed_degree_sequence(f, 4)
    assert composed == 3


@settings(SETTINGS, max_examples=6)
@given(rationals, rationals.filter(bool))
def test_generated_henon_degree_sequence(c, delta):
    f = henon_map(c, delta)
    seq, composed = counted_degree_sequence(f, 4)
    assert seq == _composed_degree_sequence(f, 4)
    assert seq.is_multiplicative and composed == 0
    check_expansion_rate(f)


@SETTINGS
@given(matrices, st.integers(1, 4))
# hits at step 0; at steps 1 and 2, and at step 3 on the horizon
@example([[2, 2, 2], [0, 0, 2], [0, -1, 2]], 3)
@example([[1, 0, -1], [-1, 2, 2], [0, -1, -1]], 3)
def test_generated_map_orbit_walk_stops_at_exact_hits(m, horizon):
    """From an exact source, `orbit_walk` ends "indeterminate" exactly when
    the orbit's hit is its last step and that step is before the horizon."""
    assume(det3(m) != 0)
    f = twisted(m)[2]
    table = exceptional_orbits(f, horizon)
    for source, orb in zip(table.sources, table.orbits):
        points, end = orbit_walk(f, source, horizon, DEFAULT_COEFF_BIT_CAP)
        last = len(points) - 1
        assert source.exact and len(orb.points) == len(points)
        assert (end == "indeterminate") == (orb.hit_index == last < horizon)


def check_image_point(f, triple):
    """`image_point` at a generic point and at every exceptional point: on
    the exact point it is the image summed in Q(i) (`oracle_image`), None
    exactly where that is; on the point's numeric copy it is None exactly
    where the exact image is, and otherwise within 1e-12 of it."""
    exact = [ProjectivePoint.exact_point(*triple),
             *f.indeterminacy_set(), *f.inverse.indeterminacy_set()]
    for p in exact:
        assert p.exact
        got, want = image_point(f, p), oracle_image(f, p)
        if want is None:
            assert got is None
        else:
            assert got.exact and got.coords == want
        numeric = image_point(f, p.numeric())
        if got is None:
            assert numeric is None
        else:
            assert not numeric.exact and proj_distance(numeric, got.numeric()) <= 1e-12


def check_expansion_rate(f):
    """`plane_expansion_rate` returns the degree exactly when the composed
    degree sequence, which walks no orbit, is multiplicative; otherwise it
    raises `SpectralError` naming the oracle's first drop, or where the
    oracle's composition stopped, and never `None`."""
    oracle = _composed_degree_sequence(f, DEGREE_CHECK_ITERATES)
    if oracle.is_multiplicative and f.degree == 1:
        with pytest.raises(NoExpansion):
            plane_expansion_rate(f)
    elif oracle.is_multiplicative:
        assert plane_expansion_rate(f) == f.degree
    else:
        with pytest.raises(SpectralError) as err:
            plane_expansion_rate(f)
        assert type(err.value) is SpectralError and "None" not in str(err.value)
        where = (f"drop at iterate {oracle.first_drop}" if oracle.first_drop
                 else f"stopped at iterate {oracle.truncated_at}")
        assert where in str(err.value)


@SETTINGS
@given(matrices, triples)
def test_generated_map_image_point(m, triple):
    assume(det3(m) != 0)
    check_image_point(twisted(m)[2], triple)


# the oracle composes f four times, so fewer examples
@settings(SETTINGS, max_examples=6)
@given(matrices)
def test_generated_map_expansion_rate(m):
    assume(det3(m) != 0)
    check_expansion_rate(twisted(m)[2])


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_image_point_and_expansion_rate(name):
    f = load_map(corpus_path(name))
    check_image_point(f, (1, -2, 3))
    check_expansion_rate(f)


#: nine L with entries in {-1, 0, 1, 2}: four whose degrees drop (at 2, 3,
#: 2 and 2) and five multiplicative; in three of them an exact exceptional
#: orbit outgrows the double range (1024 bits) within 20 steps.  In the last
#: two a fixed point of f lies on I(f^-1)
SMOKE_MATRICES = [
    [[2, 2, 2], [0, 0, 2], [0, -1, 2]],
    [[1, 0, -1], [-1, 2, 2], [0, -1, -1]],
    [[-1, -1, 0], [0, -1, 2], [1, 2, 0]],
    [[1, 1, 0], [1, -1, -1], [-1, 2, -1]],
    [[1, 2, -1], [-1, -1, 0], [0, -1, 2]],
    [[2, 2, 2], [-1, 0, 1], [1, -1, 1]],
    [[1, -1, 2], [-1, 0, 0], [-1, -1, -1]],
    [[1, 1, -1], [2, 0, -1], [0, -1, 1]],
    [[-1, 0, 1], [2, 0, -1], [-1, 2, -1]],
]
SMOKE_HENON = [(Fraction(1, 2), Fraction(-1)), (Fraction(-1), Fraction(1, 3)),
               (Fraction(2), Fraction(3, 4))]


def check_cli_smoke(f, out, capsys):
    """`inspect`, `stability --iters 20`, and `green`, `measure` and
    `lyapunov` at small flags end with a documented exit code on f and
    print no traceback."""
    path = save_map(f, out / "f.map")
    for command in (["inspect"], ["stability", "--iters", "20"], ["green", "--grid", "8"],
                    ["measure", "--max-period", "1"], ["lyapunov", "--max-period", "1"]):
        assert main([*command, "--map", str(path), "--out", str(out)]) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("family,data", [
    *(pytest.param("lsigma", m, id=f"lsigma{k}") for k, m in enumerate(SMOKE_MATRICES)),
    *(pytest.param("henon", cd, id=f"henon{k}") for k, cd in enumerate(SMOKE_HENON)),
])
def test_generated_map_cli_smoke(family, data, tmp_path, capsys):
    check_cli_smoke(twisted(data)[2] if family == "lsigma" else henon_map(*data), tmp_path, capsys)


# the fixed maps above are this family's pinned examples; the draws share
# one output directory, which every command overwrites
DRAWN_SMOKE = settings(SETTINGS, max_examples=20,
                       suppress_health_check=[HealthCheck.too_slow,
                                              HealthCheck.function_scoped_fixture])


@DRAWN_SMOKE
@given(matrices)
def test_drawn_lsigma_cli_smoke(tmp_path, capsys, m):
    assume(det3(m) != 0)
    check_cli_smoke(twisted(m)[2], tmp_path, capsys)


@DRAWN_SMOKE
@given(rationals, rationals.filter(bool))
def test_drawn_henon_cli_smoke(tmp_path, capsys, c, delta):
    check_cli_smoke(henon_map(c, delta), tmp_path, capsys)


# one draw a run: on g = f o f the commands take about 6 s when f's degrees
# are multiplicative, and about 20 s when they drop (two in five draws),
# most of it inspect composing g's degree sequence up to degree 55 to report
# it; the other commands read the drop off g's exceptional orbits
@settings(DRAWN_SMOKE, max_examples=1)
@given(matrices)
def test_drawn_square_cli_smoke(tmp_path, capsys, m):
    """g = f o f for a drawn f = L o sigma, saved with f^-1 o f^-1 as its
    inverse, drawn as `test_degree_four_square_loci_equal_oracle` draws
    its maps."""
    assume(det3(m) != 0)
    f = twisted(m)[2]
    g = compose(f, f, name="g")
    g.inverse = compose(f.inverse, f.inverse, name="g-inverse")
    check_cli_smoke(g, tmp_path, capsys)


@pytest.mark.parametrize("m", SMOKE_MATRICES[-2:], ids=["lsigma7", "lsigma8"])
def test_measure_skips_periodic_point_on_inverse_indeterminacy(m, tmp_path, capsys):
    """f fixes a point of I(f^-1), [1 : 0 : -1] = L e1 and [1 : -2 : 1] =
    -L e0.  It once passed the classifier as a saddle and `check_clear_of`
    then aborted the run with exit 3; the search now drops a root whose
    orbit meets I(f) or I(f^-1) before classifying it."""
    path = save_map(twisted(m)[2], tmp_path / "f.map")
    assert main(["measure", "--map", str(path), "--out", str(tmp_path), "--max-period", "2"]) == 0
    assert "saddle points" in capsys.readouterr().out


def test_capped_orbit_straddles_where_exact_orbit_hits(monkeypatch):
    """The third exceptional orbit of this map hits I(f) exactly at step 1.
    With a bit cap of 0 it continues at once as a 113-bit shadow ball,
    whose image encloses zero at that step: `_step_ball` raises once, the
    orbit records a straddle instead of a hit, and the capped table can
    never read as Converged."""
    f = twisted([[-1, 1, 1], [2, 0, 0], [-1, 0, -1]])[2]
    assert exceptional_orbits(f, 5).orbits[2].hit_index == 1
    raised = []
    step_ball = stability._step_ball

    def counting(g, ball):
        try:
            return step_ball(g, ball)
        except StabilityError:
            raised.append(ball)
            raise

    monkeypatch.setattr(stability, "_step_ball", counting)
    capped = exceptional_orbits(f, 5, bit_cap=0)
    orbit = capped.orbits[2]
    assert (orbit.hit_index, orbit.straddle_index) == (None, 1)
    assert len(raised) == 1
    assert summability(capped, 2.0).verdict != "Converged"


def test_stability_orbit_beyond_double_range(tmp_path, capsys):
    """An exact orbit of this multiplicative map reaches 39 886 bits by step
    15; converting it to doubles once ended `stability --iters 20` in an
    OverflowError traceback."""
    path = save_map(twisted([[0, 1, 2], [-1, -1, 2], [1, 2, -1]])[2], tmp_path / "f.map")
    assert main(["stability", "--map", str(path), "--out", str(tmp_path), "--iters", "20"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", [["inspect"], ["green", "--grid", "8"]],
                         ids=["inspect", "green"])
def test_degree_four_square_exits_0(command, tmp_path, capsys):
    """g = f o f for f = L o sigma, saved with f^-1 o f^-1 as its inverse.
    Its inverse's eliminants have coefficients above 2**53, which once lost
    digits before root isolation and ended every command on g in exit 2."""
    _, _, f = twisted([[1, 1, 0], [1, -1, -1], [-1, 2, -1]])
    g = compose(f, f, name="g")
    g.inverse = compose(f.inverse, f.inverse, name="g-inverse")
    path = save_map(g, tmp_path / "g.map")
    assert main([*command, "--map", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command,code", [(["stability"], 0), (["green", "--grid", "8"], 0),
                                          (["lyapunov", "--max-period", "1"], 3)],
                         ids=["stability", "green", "lyapunov"])
def test_dropping_square_rate_composes_nothing(command, code, tmp_path, capsys, monkeypatch):
    """g = f o f for f = L o sigma, saved with f^-1 o f^-1 as its inverse.
    An exceptional orbit of g meets I(g) at once, so its degrees drop at
    iterate 2 (they read 3, 8, 21, 55).  The rate certificate takes that
    drop from the orbit walk: no command but `inspect` composes g after
    loading it, where each once composed up to degree 55 for about 18 s.
    `stability` and `green` fall back to the degree; `lyapunov` needs the
    certified rate and exits 3."""
    _, _, f = twisted([[-1, -1, -1], [1, 0, 1], [1, 0, -1]])
    g = compose(f, f, name="g")
    g.inverse = compose(f.inverse, f.inverse, name="g-inverse")
    path = save_map(g, tmp_path / "g.map")
    loaded, composed = [], []
    load_map_, compose_ = cli.load_map, maps.compose

    def loading(p):
        loaded.append(load_map_(p))
        return loaded[-1]

    def composing(*args, **kwargs):
        composed.append(bool(loaded))
        return compose_(*args, **kwargs)

    monkeypatch.setattr(cli, "load_map", loading)
    monkeypatch.setattr(maps, "compose", composing)
    assert main([*command, "--map", str(path), "--out", str(tmp_path)]) == code
    assert loaded and not any(composed)
    assert ("drop at iterate 2" in capsys.readouterr().err) == (code == 3)
