"""End-to-end tests for the command-line experiment runner.

Each subcommand is exercised against the bundled map corpus through
``main(argv)``.  The tests freeze the externally visible contract:

* exit codes — 0 success, 2 input validation, 3 precondition failure
  (no expansion, no saddles, uncertifiable growth rate, missing
  inverse), 4 numeric inconclusive;
* report layout — every JSON report embeds the tool name and version,
  the seed, the active tolerances, and the exact map coefficients;
* artifact formats — 16-bit big-endian binary PGM with an affine-scale
  sidecar, CSV grids and clouds;
* determinism — identical map + config + seed produce byte-identical
  artifacts.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import biratdyn
from biratdyn import cli, maps
from biratdyn.cli import main
from biratdyn.geometry import HomogeneousPolynomial
from biratdyn.mapfile import MapFileError, corpus_path, load_config, save_map
from biratdyn.maps import RationalSurfaceMap
from biratdyn.measure import IndeterminateEncounter
from biratdyn.potential import PotentialError


def run_cli(*argv: str) -> int:
    return main(list(argv))


def run_cli_process(*argv: str, timeout=None) -> subprocess.CompletedProcess:
    """``python -m biratdyn.cli`` in a child that imports the same biratdyn
    as this test."""
    src = str(Path(biratdyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "biratdyn.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def read_json(path: Path):
    return json.loads(path.read_text())


def parse_pgm(path: Path):
    """Return (width, height, maxval, payload bytes) of a binary PGM."""
    blob = path.read_bytes()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    w, h = (int(tok) for tok in dims.split())
    return magic, w, h, int(maxval), rest


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


class TestInspect:
    def test_henon_report(self, tmp_path):
        code = run_cli("inspect", "--map", str(corpus_path("henon")),
                       "--out", str(tmp_path))
        assert code == 0
        doc = read_json(tmp_path / "inspect_henon.json")
        assert doc["tool"] == {"name": "biratdyn", "version": biratdyn.__version__}
        assert doc["command"] == "inspect"
        assert doc["seed"] == 2026
        assert doc["tolerances"]["indeterminacy"] == 1e-6
        assert doc["degree"] == 2
        assert doc["degree_sequence"]["degrees"] == [2, 4, 8, 16, 32]
        assert doc["degree_sequence"]["is_multiplicative"] is True
        assert doc["degree_sequence"]["first_drop"] is None
        assert doc["indeterminacy_forward"] == [[["1", "0"], ["0", "0"], ["0", "0"]]]
        assert doc["indeterminacy_inverse"] == [[["0", "0"], ["1", "0"], ["0", "0"]]]
        assert doc["inverse_verified"] is True
        # exact coefficients are embedded: the y^2 + c t^2 - delta x t row
        terms = {tuple(t[:3]): tuple(t[3:]) for t in doc["map"]["forward"][1]}
        assert terms[(0, 0, 2)] == (-3, 2, 0, 1)
        assert terms[(1, 0, 1)] == (-1, 4, 0, 1)

    def test_cremona_report(self, tmp_path):
        code = run_cli("inspect", "--map", str(corpus_path("cremona")),
                       "--out", str(tmp_path))
        assert code == 0
        doc = read_json(tmp_path / "inspect_cremona.json")
        assert doc["degree_sequence"]["degrees"] == [2, 1, 2, 1, 2]
        assert doc["degree_sequence"]["is_multiplicative"] is False
        assert doc["degree_sequence"]["first_drop"] == 2
        fw = {tuple(tuple(c) for c in p) for p in map(tuple, doc["indeterminacy_forward"])}
        assert len(fw) == 3  # the three coordinate points
        assert doc["inverse_verified"] is True

    def test_numeric_indeterminacy_points_reported(self, tmp_path):
        # I(f) is [0:0:1] and [1 : +-sqrt(2) : 0]; the irrational points
        # once ended inspect in an AttributeError with exit 1
        x, y, t = (HomogeneousPolynomial.monomial(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        f = RationalSurfaceMap([y * y - x * x * 2, x * t, y * t], name="irrational")
        path = save_map(f, tmp_path / "irrational.map")
        assert run_cli("inspect", "--map", str(path), "--out", str(tmp_path)) == 0
        doc = read_json(tmp_path / "inspect_irrational.json")
        exact, *numeric = doc["indeterminacy_forward"]
        assert exact == [["0", "0"], ["0", "0"], ["1", "0"]]
        assert len(numeric) == 2
        for point in numeric:
            (x_re, x_im), (y_re, y_im), (t_re, t_im) = point["numeric"]
            assert abs(x_re * x_re + y_re * y_re - 1) < 1e-12 and x_im == y_im == 0
            assert abs(y_re / x_re) == pytest.approx(math.sqrt(2), rel=1e-12)
            assert t_re == t_im == 0
        assert doc["indeterminacy_inverse"] is None

    def test_map_without_inverse_ends_in_bounded_time(self, tmp_path):
        # a dominant cubic with no inverse: its degrees are composed, and
        # the degree-81 fourth iterate once kept inspect busy for minutes
        x, y, t = (HomogeneousPolynomial.monomial(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        f = RationalSurfaceMap([x * x * t + y * y * y, y * t * t + x * x * y,
                                t * t * t + x * y * t * 3], name="cubic")
        path = save_map(f, tmp_path / "cubic.map")
        proc = run_cli_process("inspect", "--map", str(path), "--out", str(tmp_path), timeout=30)
        assert proc.returncode == 0
        doc = read_json(tmp_path / "inspect_cubic.json")
        assert doc["degree_sequence"]["degrees"] == [3, 9, 27]

    def test_malformed_map_exits_2(self, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("{not json")
        assert run_cli("inspect", "--map", str(bad), "--out", str(tmp_path)) == 2

    def test_missing_map_exits_2(self, tmp_path):
        assert run_cli("inspect", "--map", str(tmp_path / "nope.map"),
                       "--out", str(tmp_path)) == 2

    def test_invalid_payload_exits_2(self, tmp_path):
        bad = tmp_path / "bad.map"
        doc = read_json(corpus_path("henon"))
        doc["forward"][0] = [[0, 0, 2, 1, 0, 0, 1]]  # zero denominator
        bad.write_text(json.dumps(doc))
        assert run_cli("inspect", "--map", str(bad), "--out", str(tmp_path)) == 2

    def test_wrong_inverse_exits_2(self, tmp_path):
        # the inverse is verified once, when the map file is loaded
        bad = tmp_path / "bad.map"
        doc = read_json(corpus_path("henon"))
        doc["inverse"] = read_json(corpus_path("cremona"))["forward"]
        bad.write_text(json.dumps(doc))
        assert run_cli("inspect", "--map", str(bad), "--out", str(tmp_path)) == 2
        assert not (tmp_path / "inspect_henon.json").exists()


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


class TestStability:
    def test_henon_stable(self, tmp_path):
        code = run_cli("stability", "--map", str(corpus_path("henon")),
                       "--out", str(tmp_path))
        assert code == 0
        doc = read_json(tmp_path / "stability_henon.json")
        assert doc["rho"] == 2.0
        assert doc["rho_source"] == "spectral"
        assert doc["separation"]["holds"] is True
        assert doc["separation"]["through"] == 50
        assert doc["separation"]["fails_at"] is None
        assert doc["forward"]["verdict"] == "Converged"
        assert doc["backward"]["verdict"] == "Converged"
        assert doc["separation_diagnostic"] == 1.0

    def test_cremona_unstable_but_exit_0(self, tmp_path):
        code = run_cli("stability", "--map", str(corpus_path("cremona")),
                       "--out", str(tmp_path))
        assert code == 0
        doc = read_json(tmp_path / "stability_cremona.json")
        assert doc["rho_source"] == "algebraic-degree"
        assert doc["separation"]["holds"] is False
        assert doc["separation"]["fails_at"] == 0
        assert doc["separation"]["witness"] is not None
        assert doc["forward"]["verdict"] == "Diverging"
        assert doc["forward"]["hit_index"] == 0
        assert doc["separation_diagnostic"] == 0.0

    def test_linear_no_expansion_exits_3(self, tmp_path):
        code = run_cli("stability", "--map", str(corpus_path("linear")),
                       "--out", str(tmp_path))
        assert code == 3
        assert not (tmp_path / "stability_linear.json").exists()

    def test_each_orbit_table_built_once(self, tmp_path, monkeypatch):
        import biratdyn.stability as stability

        calls = []
        build = stability.exceptional_orbits

        def counting(f, N, **kwargs):
            calls.append(f.name)
            return build(f, N, **kwargs)

        monkeypatch.setattr(stability, "exceptional_orbits", counting)
        code = run_cli("stability", "--map", str(corpus_path("henon")),
                       "--out", str(tmp_path), "--iters", "5")
        assert code == 0
        assert len(calls) == 2

    def test_lattice_section_is_not_trusted(self, tmp_path):
        payload = read_json(corpus_path("henon"))
        payload["lattice"] = {"rank": 1, "Q": [[1]], "Mf": [[3]], "Mfinv": [[3]],
                              "curve_classes": [[1]], "beta_class": [1]}
        tampered = tmp_path / "henon.map"
        tampered.write_text(json.dumps(payload))
        code = run_cli("stability", "--map", str(tampered),
                       "--out", str(tmp_path), "--iters", "5")
        assert code == 0
        assert read_json(tmp_path / "stability_henon.json")["rho"] == 2.0

    @pytest.mark.parametrize("command", ["stability", "lyapunov"])
    def test_missing_inverse_exits_3(self, command, tmp_path, capsys):
        payload = read_json(corpus_path("henon"))
        del payload["inverse"]
        bare = tmp_path / "henon.map"
        bare.write_text(json.dumps(payload))
        assert run_cli(command, "--map", str(bare), "--out", str(tmp_path),
                       "--iters", "5") == 3
        assert "inverse" in capsys.readouterr().err

    def test_iters_controls_orbit_length(self, tmp_path):
        code = run_cli("stability", "--map", str(corpus_path("henon")),
                       "--out", str(tmp_path), "--iters", "12")
        assert code == 0
        doc = read_json(tmp_path / "stability_henon.json")
        assert doc["separation"]["through"] == 12
        assert doc["n_orbit"] == 12


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------


class TestGreen:
    def run_green(self, out, *extra):
        return run_cli("green", "--map", str(corpus_path("henon")),
                       "--out", str(out), "--iters", "25", "--grid", "16",
                       *extra)

    def test_artifacts_and_formats(self, tmp_path):
        assert self.run_green(tmp_path) == 0
        magic, w, h, maxval, payload = parse_pgm(tmp_path / "green_henon.pgm")
        assert magic == b"P5"
        assert (w, h) == (16, 16)
        assert maxval == 65535
        assert len(payload) == 16 * 16 * 2
        scale = read_json(tmp_path / "green_henon_scale.json")
        assert scale["resolution"] == 16
        assert scale["max"] >= scale["min"]
        assert scale["slope"] == pytest.approx((scale["max"] - scale["min"]) / 65535)
        # value = offset + slope * pixel reconstructs the grid range
        assert scale["offset"] == scale["min"]
        csv_lines = (tmp_path / "green_henon.csv").read_text().splitlines()
        assert csv_lines[0] == "u,v,value"
        assert len(csv_lines) == 1 + 16 * 16
        # the inverse map is bundled, so the backward potential is rendered too
        assert (tmp_path / "green_henon_inverse.pgm").exists()
        assert (tmp_path / "green_henon_inverse_scale.json").exists()

    def test_functional_residuals_small(self, tmp_path):
        assert self.run_green(tmp_path) == 0
        doc = read_json(tmp_path / "green_henon.json")
        assert doc["rho"] == 2.0
        assert doc["n_series"] == 25
        assert doc["residuals"]["max"] < 1e-7
        assert len(doc["residuals"]["samples"]) == 16

    def test_overflowing_window_exits_2_without_artifacts(self, tmp_path, capsys):
        # the window's corners overflow the double range: the run stops
        # before it writes a grid of non-finite pixels
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"halfwidth": 1e160}))
        out = tmp_path / "out"
        code = run_cli("green", "--map", str(corpus_path("henon")), "--config", str(cfg),
                       "--out", str(out))
        assert code == 2
        assert ("zero or non-finite vector does not define a projective point"
                in capsys.readouterr().err)
        assert list(out.glob("green_*")) == []

    def test_overflowing_window_reports_one_stderr_line(self, tmp_path):
        # in a child process, so a numpy RuntimeWarning about the overflowing
        # lift norms would reach stderr ahead of the error line
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"halfwidth": 1e160}))
        out = tmp_path / "out"
        proc = run_cli_process("green", "--map", str(corpus_path("henon")), "--grid", "8",
                               "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: zero or non-finite vector does not define a projective point"]
        assert not out.exists() or list(out.iterdir()) == []

    def test_zero_iterations_give_zero_field(self, tmp_path, capsys):
        code = run_cli("green", "--map", str(corpus_path("henon")),
                       "--out", str(tmp_path), "--iters", "0", "--grid", "8")
        assert code == 0
        # depth 0 takes no functional-check samples
        assert "max functional residual over 0 samples" in capsys.readouterr().out
        scale = read_json(tmp_path / "green_henon_scale.json")
        assert scale["min"] == 0.0 and scale["max"] == 0.0
        _, _, _, _, payload = parse_pgm(tmp_path / "green_henon.pgm")
        assert payload == bytes(8 * 8 * 2)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_green(a) == 0
        assert self.run_green(b) == 0
        for name in ("green_henon.pgm", "green_henon_scale.json",
                      "green_henon.csv", "green_henon.json",
                      "green_henon_inverse.pgm"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


class TestMeasure:
    def run_measure(self, out, *extra):
        return run_cli("measure", "--map", str(corpus_path("henon")),
                       "--out", str(out), "--max-period", "3", "--iters", "8",
                       *extra)

    def test_cloud_and_report(self, tmp_path):
        assert self.run_measure(tmp_path) == 0
        cloud_lines = (tmp_path / "measure_henon_cloud.csv").read_text().splitlines()
        assert cloud_lines[0] == "# provenance=SaddleOrbits(<=3); seed=2026; size=8"
        doc = read_json(tmp_path / "measure_henon.json")
        assert doc["cloud"]["size"] == 8
        assert doc["cloud"]["total_weight"] == "1"
        assert sorted(doc["cloud"]["periods"]) == [1, 1, 3, 3, 3, 3, 3, 3]
        names = [row["name"] for row in doc["observables"]]
        assert names == ["abs2_0", "abs2_1", "abs2_2", "re_01", "im_01",
                         "re_02", "im_02", "re_12", "im_12"]
        for row in doc["observables"]:
            assert abs(row["invariance_residual"]) < 1e-8
        mix = doc["mixing"]
        assert mix["lags"] == list(range(9))
        assert mix["values"][0] > 0
        assert max(abs(v) for v in mix["values"][1:]) <= mix["values"][0] + 1e-12

    def test_weights_are_exact_unit_mass(self, tmp_path):
        assert self.run_measure(tmp_path) == 0
        rows = (tmp_path / "measure_henon_cloud.csv").read_text().splitlines()[2:]
        total = sum(Fraction(r.split(",")[6]) for r in rows)
        assert total == 1

    def test_seed_is_echoed(self, tmp_path):
        assert self.run_measure(tmp_path, "--seed", "4242") == 0
        head = (tmp_path / "measure_henon_cloud.csv").read_text().splitlines()[0]
        assert "seed=4242" in head
        assert read_json(tmp_path / "measure_henon.json")["seed"] == 4242

    def test_involution_exits_3_in_bounded_time(self, tmp_path):
        # every point of the Cremona involution has period 2; these roots are
        # not isolated and must not flood the search at the default cut-off
        proc = run_cli_process("measure", "--map", str(corpus_path("cremona")),
                               "--out", str(tmp_path), timeout=60)
        assert proc.returncode == 3
        assert "no saddle orbits" in proc.stderr

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_measure(a) == 0
        assert self.run_measure(b) == 0
        for name in ("measure_henon_cloud.csv", "measure_henon.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_tolerance_sets_cloud_clearance(self, tmp_path, capsys):
        # henon's two fixed saddles lie 0.745 and 0.857 from
        # I(f) u I(f^-1); the recorded tolerance is the clearance applied
        def run(tol):
            out = tmp_path / tol
            code = run_cli("measure", "--map", str(corpus_path("henon")), "--out", str(out),
                           "--max-period", "2", "--tolerance-indeterminacy", tol)
            return code, out

        for tol, size in (("1e-6", 2), ("0.8", 1)):
            code, out = run(tol)
            assert code == 0
            doc = read_json(out / "measure_henon.json")
            assert doc["tolerances"]["indeterminacy"] == float(tol)
            assert doc["cloud"]["size"] == size
        code, out = run("0.9")
        assert code == 3
        assert "no saddle orbits of period <= 2" in capsys.readouterr().err
        assert not any(out.iterdir())


# ---------------------------------------------------------------------------
# lyapunov
# ---------------------------------------------------------------------------


class TestLyapunov:
    def test_henon_estimate_and_verdict(self, tmp_path):
        code = run_cli("lyapunov", "--map", str(corpus_path("henon")),
                       "--out", str(tmp_path), "--max-period", "3",
                       "--iters", "240")
        assert code == 0
        doc = read_json(tmp_path / "lyapunov_henon.json")
        est = doc["estimate"]
        assert est["n_steps"] == 240
        assert est["included"] == 8
        assert est["excluded_mass"] == 0.0
        assert est["chi_plus"] > 0.5
        assert est["chi_minus"] < -1.5
        # complex-Jacobian volume identity: chi+ + chi- = log|det| = log 1/4
        assert est["chi_plus"] + est["chi_minus"] == pytest.approx(
            math.log(0.25), abs=1e-10)
        assert est["det_residual"] < 1e-8
        assert est["se_plus"] == pytest.approx(est["se_minus"], rel=1e-12)
        verdict = doc["verdict"]
        assert verdict["rho"] == 2.0
        assert verdict["threshold"] == pytest.approx(math.log(2.0) / 8)
        assert verdict["expanding_ok"] is True
        assert verdict["contracting_ok"] is True
        integ = doc["integrability"]
        assert integ["consistent"] is True
        assert integ["cauchy_gap"] <= 1e-3

    def test_linear_no_expansion_exits_3(self, tmp_path):
        code = run_cli("lyapunov", "--map", str(corpus_path("linear")),
                       "--out", str(tmp_path))
        assert code == 3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("lyapunov", "--map", str(corpus_path("henon")),
                           "--out", str(out), "--max-period", "2",
                           "--iters", "60") == 0
        assert ((a / "lyapunov_henon.json").read_bytes()
                == (b / "lyapunov_henon.json").read_bytes())

    def test_wide_exclusion_radius_exits_4(self, tmp_path, capsys):
        # the tolerance is the cocycle's exclusion radius only: the cloud
        # keeps both fixed saddles, and both orbits start inside the radius
        code = run_cli("lyapunov", "--map", str(corpus_path("henon")), "--out", str(tmp_path),
                       "--max-period", "2", "--tolerance-indeterminacy", "0.9")
        assert code == 4
        assert capsys.readouterr().err.startswith("inconclusive: all 2 orbits entered ")
        assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# energy-selftest
# ---------------------------------------------------------------------------


class TestEnergySelftest:
    def test_all_checks_pass(self, tmp_path):
        code = run_cli("energy-selftest", "--out", str(tmp_path), "--iters", "4")
        assert code == 0
        doc = read_json(tmp_path / "energy_selftest.json")
        assert doc["all_pass"] is True
        by_name = {c["name"]: c for c in doc["checks"]}
        mono = by_name["monotonicity"]
        assert mono["passed"] is True
        assert mono["instances"] == 4
        assert mono["min_residual"] >= -1e-8
        cauchy = by_name["cauchy"]
        assert cauchy["passed"] is True
        assert cauchy["smooth_decays"] is True
        assert cauchy["singular_control_decays"] is False
        push = by_name["pushforward"]
        assert push["passed"] is True
        assert push["relative_discrepancy"] < 0.02


# ---------------------------------------------------------------------------
# configuration plumbing and global behavior
# ---------------------------------------------------------------------------


class TestConfigAndDispatch:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 12, "n_series": 5, "seed": 7}))
        code = run_cli("green", "--map", str(corpus_path("henon")),
                       "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert read_json(tmp_path / "green_henon_scale.json")["resolution"] == 12
        doc = read_json(tmp_path / "green_henon.json")
        assert doc["seed"] == 7
        assert doc["n_series"] == 5

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 12, "n_series": 5}))
        code = run_cli("green", "--map", str(corpus_path("henon")),
                       "--config", str(cfg), "--out", str(tmp_path),
                       "--grid", "10", "--iters", "3")
        assert code == 0
        assert read_json(tmp_path / "green_henon_scale.json")["resolution"] == 10
        assert read_json(tmp_path / "green_henon.json")["n_series"] == 3

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sed": 1}))
        assert run_cli("inspect", "--map", str(corpus_path("henon")),
                       "--config", str(cfg), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("field,value", [
        ("n_orbit", 2.5), ("n_series", 2.5), ("n_cocycle", 2.5),
        ("grid", 16.5), ("max_period", 2.0), ("chart", 2.0),
    ])
    def test_non_integer_config_value_exits_2(self, tmp_path, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        with pytest.raises(MapFileError, match=field):
            load_config(cfg)
        assert run_cli("stability", "--map", str(corpus_path("henon")),
                       "--config", str(cfg), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("field,value", [
        ("tolerance_indeterminacy", True), ("tolerance_indeterminacy", math.inf),
        ("halfwidth", True), ("halfwidth", math.inf), ("halfwidth", math.nan),
        ("center", [True, 0.0]), ("center", [0.0, -math.inf]),
        ("tolerance_indeterminacy", 1.0), ("tolerance_indeterminacy", 1.5),
        ("center", 5), ("center", None),
    ])
    def test_boolean_or_non_finite_config_real_exits_2(self, tmp_path, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        with pytest.raises(MapFileError, match=field):
            load_config(cfg)
        assert run_cli("stability", "--map", str(corpus_path("henon")),
                       "--config", str(cfg), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("value", [5, True, ["out"]])
    def test_non_string_out_dir_exits_2(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": value}))
        with pytest.raises(MapFileError, match="out_dir"):
            load_config(cfg)
        assert run_cli("inspect", "--map", str(corpus_path("linear")),
                       "--config", str(cfg)) == 2

    def test_infinite_tolerance_flag_exits_2(self, tmp_path):
        assert run_cli("stability", "--map", str(corpus_path("henon")),
                       "--out", str(tmp_path), "--tolerance-indeterminacy", "inf") == 2
        assert not (tmp_path / "stability_henon.json").exists()

    @pytest.mark.parametrize("command", ["inspect", "stability", "green", "measure", "lyapunov"])
    def test_tolerance_of_one_or_more_exits_2(self, command, tmp_path):
        # a chordal distance never exceeds 1: such a radius excludes every point
        assert run_cli(command, "--map", str(corpus_path("henon")), "--out", str(tmp_path),
                       "--tolerance-indeterminacy", "1.5") == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,target,exc", [
        ("measure", "saddle_cloud", IndeterminateEncounter),
        ("green", "green_grid", PotentialError),
    ])
    def test_inconclusive_numerics_exit_4(self, command, target, exc, tmp_path, capsys,
                                          monkeypatch):
        def fail(*args, **kwargs):
            raise exc("probe")

        monkeypatch.setattr(cli, target, fail)
        code = run_cli(command, "--map", str(corpus_path("henon")), "--out", str(tmp_path))
        assert code == 4
        assert capsys.readouterr().err == "inconclusive: probe\n"

    def test_invalid_seed_exits_2(self, tmp_path):
        assert run_cli("inspect", "--map", str(corpus_path("henon")),
                       "--out", str(tmp_path), "--seed", "-1") == 2

    def test_unknown_subcommand_exits_2(self, tmp_path, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_no_arguments_exits_2(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_boolean_seed_in_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": True}))
        with pytest.raises(MapFileError, match="seed"):
            load_config(cfg)
        assert run_cli("inspect", "--map", str(corpus_path("henon")),
                       "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_module_entry_point(self, tmp_path):
        proc = run_cli_process("inspect", "--map", str(corpus_path("henon")),
                               "--out", str(tmp_path))
        assert proc.returncode == 0
        assert (tmp_path / "inspect_henon.json").exists()


# ---------------------------------------------------------------------------
# every subcommand on every corpus map
# ---------------------------------------------------------------------------

#: exit 3 where the spectral radius is 1 (linear), the degrees drop
#: (lyapunov cremona), or the one-chart saddle search finds no saddle
#: (measure linear, measure cremona)
MATRIX_PRECONDITION = {
    ("stability", "linear"), ("green", "linear"), ("measure", "linear"),
    ("lyapunov", "linear"), ("measure", "cremona"), ("lyapunov", "cremona"),
}
#: small values of the flags each command reads; a flag it does not read
#: exits 2
SMALL_BUDGET = {
    "inspect": ("--seed", "7"),
    "stability": ("--iters", "5", "--seed", "7"),
    "green": ("--iters", "5", "--grid", "8", "--seed", "7"),
    "measure": ("--iters", "5", "--max-period", "1", "--seed", "7"),
    "lyapunov": ("--iters", "5", "--max-period", "1", "--seed", "7"),
}
#: the flags that cannot change a command's artifacts, which it refuses
UNREAD_FLAGS = [
    ("inspect", "--iters"), ("inspect", "--grid"), ("inspect", "--max-period"),
    ("stability", "--grid"), ("stability", "--max-period"),
    ("green", "--max-period"), ("measure", "--grid"), ("lyapunov", "--grid"),
    ("energy-selftest", "--grid"), ("energy-selftest", "--max-period"),
]


class TestCommandMatrix:
    @pytest.mark.parametrize("name", ["cremona", "henon", "linear", "lsigma"])
    @pytest.mark.parametrize("command", ["inspect", "stability", "green", "measure",
                                         "lyapunov"])
    def test_exit_code(self, command, name, tmp_path, capsys, monkeypatch):
        factored = []
        critical_set = RationalSurfaceMap.critical_set

        def counting(f):
            factored.append(f.name)
            return critical_set(f)

        loaded, composed = [], []
        load_map, compose = cli.load_map, maps.compose

        def loading(path):
            f = load_map(path)
            loaded.append(f)
            return f

        def composing(*args, **kwargs):
            composed.append(bool(loaded))
            return compose(*args, **kwargs)

        monkeypatch.setattr(RationalSurfaceMap, "critical_set", counting)
        monkeypatch.setattr(cli, "load_map", loading)
        monkeypatch.setattr(maps, "compose", composing)
        code = run_cli(command, "--map", str(corpus_path(name)),
                       "--out", str(tmp_path), *SMALL_BUDGET[command])
        capsys.readouterr()
        assert code == (3 if (command, name) in MATRIX_PRECONDITION else 0)
        # only inspect reports the critical set, so only inspect factors it
        assert bool(factored) == (command == "inspect")
        # loading certifies the inverse without composing; degrees are
        # decided by exceptional orbits after the load, and a drop found
        # there needs no composing, so only inspect, which reports cremona's
        # dropping degrees, composes
        assert loaded and all(composed)
        assert bool(composed) == (name == "cremona" and command == "inspect")

    def test_energy_selftest_exit_code(self, tmp_path):
        assert run_cli("energy-selftest", "--out", str(tmp_path), "--iters", "1") == 0

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_exits_2(self, command, flag, tmp_path, capsys):
        map_args = () if command == "energy-selftest" else ("--map", str(corpus_path("henon")))
        assert run_cli(command, *map_args, "--out", str(tmp_path), flag, "16") == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,count", [("measure", "-1"), ("energy-selftest", "0")])
    def test_count_below_least_exits_2(self, command, count, tmp_path, capsys):
        # --iters here is a count passed to the command, not a config field
        map_args = () if command == "energy-selftest" else ("--map", str(corpus_path("henon")))
        assert run_cli(command, *map_args, "--out", str(tmp_path), "--iters", count) == 2
        assert "needs --iters" in capsys.readouterr().err
