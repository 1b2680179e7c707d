"""Command-line experiment runner for plane birational dynamics.

Subcommands
-----------

``inspect``
    Exact structure of a map: degree growth, indeterminacy and critical
    loci, inverse verification.
``stability``
    Orbit-separation check plus forward/backward summability of
    indeterminacy-distance series at the certified expansion rate.
``green``
    Truncated invariant potential sampled on an affine grid, written as
    a 16-bit binary PGM with an affine-scale sidecar, a CSV grid, and a
    functional-equation residual table.
``measure``
    Saddle-orbit point cloud with exact weights, observable averages,
    invariance residuals, and mixing correlations.
``lyapunov``
    Cocycle exponents over the saddle cloud with standard errors, the
    volume-identity cross-check, an integrability diagnostic, and the
    hyperbolicity verdict.
``energy-selftest``
    Map-free validation suite for the quadratic energy kernel:
    monotonicity residuals, Cauchy decay with a singular negative
    control, and a pushforward invariance check.

Exit codes: 0 success; 2 input validation failure (unreadable or
malformed map/config, bad flag values); 3 precondition failure (no
expansion, uncertifiable growth rate, no saddles, missing inverse);
4 numerically inconclusive (all orbits excluded, indeterminacy hits).

Every JSON report embeds the tool name and version, the seed, the
active tolerances, and the exact rational coefficients of the map, so
a report is reproducible from its own header.  All artifacts are
byte-deterministic for identical inputs, configuration, and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .cohomology import NoExpansion, SpectralError, plane_expansion_rate
from .energy import (
    DiscreteForm11,
    EnergyError,
    GridChart,
    cauchy_diagnostic,
    constant_function,
    energy_monotonicity_check,
    log_distance,
    pushforward_energy_check,
    random_trig,
    smoothed_log_form,
)
from .geometry import GeometryError, ProjectivePoint, _sympy
from .lyapunov import (
    AllOrbitsExcluded,
    LyapunovError,
    cocycle_exponents,
    hyperbolicity_verdict,
)
from .mapfile import ExperimentConfig, MapFileError, load_config, load_map, map_payload
from .maps import DEGREE_CHECK_ITERATES, RationalSurfaceMap, degree_sequence
from .measure import (
    IndeterminateEncounter,
    MeasureError,
    coordinate_observables,
    invariance_residual,
    measure_average,
    mixing_correlations,
    saddle_cloud,
)
from .potential import PotentialError, _chart_residuals, _grid_axes, green_grid
from .stability import StabilityError, check_orbit_separation, summability

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4

# Map-free growth-rate reference when no rate can be certified (degree
# sequence drops): the algebraic degree, an a-priori upper bound.
# Summability at this most favorable rate is still a meaningful
# diagnostic; certification-grade commands refuse instead.
_RHO_SPECTRAL = "spectral"
_RHO_DEGREE = "algebraic-degree"


# ---------------------------------------------------------------------------
# small serialization helpers
# ---------------------------------------------------------------------------


def _json_safe(obj):
    """Replace non-finite floats by strings so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(_json_safe(doc), indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return path


def _write_text(path: Path, text: str) -> Path:
    path.write_text(text)
    print(f"wrote {path}")
    return path


def _point_json(p: ProjectivePoint):
    """An exact projective point as [[re, im], ...] fraction strings; a
    numeric one as {"numeric": [[re, im], ...]}, the floats of its
    unit-norm representative."""
    if p.exact:
        return [[str(c.re), str(c.im)] for c in p.coords]
    return {"numeric": [[float(c.real), float(c.imag)] for c in p.coords]}


def _safe_name(f: RationalSurfaceMap) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", f.name or "map")


def _report_header(command: str, cfg: ExperimentConfig,
                   f: Optional[RationalSurfaceMap] = None) -> dict:
    doc = {
        "tool": {"name": "biratdyn", "version": __version__},
        "command": command,
        "seed": cfg.seed,
        "tolerances": {"indeterminacy": cfg.tolerance_indeterminacy},
    }
    if f is not None:
        doc["map"] = map_payload(f)
    return doc


def _rho_with_fallback(f: RationalSurfaceMap) -> tuple[float, str]:
    """Certified rate when available, algebraic degree otherwise.

    ``NoExpansion`` (a certified rate that is not above 1) propagates:
    no fallback can rescue a map with no expansion.
    """
    try:
        return plane_expansion_rate(f), _RHO_SPECTRAL
    except NoExpansion:
        raise
    except SpectralError:
        return float(f.degree), _RHO_DEGREE


# ---------------------------------------------------------------------------
# PGM output
# ---------------------------------------------------------------------------


def _write_pgm(path: Path, grid: np.ndarray, cfg: ExperimentConfig) -> dict:
    """Binary 16-bit big-endian PGM plus an affine-scale sidecar.

    Pixel values relate to field values by ``value = offset + slope *
    pixel``; non-finite samples (log pits at indeterminacy orbits) are
    clamped to the darkest pixel and counted in the sidecar.
    """
    grid = np.asarray(grid, dtype=float)
    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    span = hi - lo
    nonfinite = int(grid.size - finite.size)
    filled = np.where(np.isfinite(grid), grid, lo)
    if span > 0:
        pixels = np.rint((np.clip(filled, lo, hi) - lo) / span * 65535)
    else:
        pixels = np.zeros_like(filled)
    data = pixels.astype(">u2").tobytes()
    n_rows, n_cols = grid.shape
    header = f"P5\n{n_cols} {n_rows}\n65535\n".encode("ascii")
    path.write_bytes(header + data)
    print(f"wrote {path}")
    sidecar = {
        "format": "PGM P5, 16-bit big-endian, row-major",
        "offset": lo,
        "slope": span / 65535 if span > 0 else 0.0,
        "min": lo,
        "max": hi,
        "nonfinite_pixels": nonfinite,
        "resolution": n_cols,
        "chart": cfg.chart,
        "center": list(cfg.center),
        "halfwidth": cfg.halfwidth,
    }
    _write_json(path.with_name(path.stem + "_scale.json"), sidecar)
    return sidecar


def _grid_csv(grid: np.ndarray, cfg: ExperimentConfig) -> str:
    n = grid.shape[0]
    us, vs = _grid_axes(cfg.center, cfg.halfwidth, n)
    lines = ["u,v,value"]
    for i in range(n):
        for j in range(n):
            lines.append(f"{float(us[j])!r},{float(vs[i])!r},{float(grid[i, j])!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_inspect(f: RationalSurfaceMap, cfg: ExperimentConfig, out: Path) -> int:
    """Exact structure report of a map from ``load_map``, which has already
    verified any attached inverse (a failing one ends the run with exit 2)."""
    seq = degree_sequence(f, DEGREE_CHECK_ITERATES)
    doc = _report_header("inspect", cfg, f)
    doc["degree"] = f.degree
    doc["degree_sequence"] = {
        "degrees": list(seq.degrees),
        "is_multiplicative": seq.is_multiplicative,
        "first_drop": seq.first_drop,
    }
    doc["indeterminacy_forward"] = [_point_json(p) for p in f.indeterminacy_set()]
    doc["indeterminacy_inverse"] = (
        [_point_json(p) for p in f.inverse.indeterminacy_set()]
        if f.inverse is not None else None)
    doc["critical_set"] = [
        {"polynomial": str(poly), "multiplicity": mult} for poly, mult in f.critical_set()
    ]
    doc["inverse_verified"] = True if f.inverse is not None else None
    _write_json(out / f"inspect_{_safe_name(f)}.json", doc)
    print(f"{f.name}: degree {f.degree}, sequence {list(seq.degrees)}, "
          f"{'inverse verified' if f.inverse is not None else 'no inverse'}")
    return EXIT_OK


def cmd_stability(f: RationalSurfaceMap, cfg: ExperimentConfig, out: Path) -> int:
    rho, rho_source = _rho_with_fallback(f)
    n = cfg.n_orbit
    tol = cfg.tolerance_indeterminacy
    sep = check_orbit_separation(f, n, eps_indeterminacy=tol)
    fwd = summability(sep.forward, rho)
    bwd = summability(sep.backward, rho)
    doc = _report_header("stability", cfg, f)
    doc["rho"] = rho
    doc["rho_source"] = rho_source
    doc["n_orbit"] = n
    doc["separation"] = {
        "holds": sep.holds,
        "through": sep.through,
        "fails_at": sep.fails_at,
        "witness": None if sep.witness is None else str(sep.witness),
    }
    doc["forward"] = fwd.to_dict()
    doc["backward"] = bwd.to_dict()
    doc["separation_diagnostic"] = sep.min_distance
    _write_json(out / f"stability_{_safe_name(f)}.json", doc)
    print(f"separation: {sep}")
    print(f"forward: {fwd.verdict}, backward: {bwd.verdict}")
    return EXIT_OK


def cmd_green(f: RationalSurfaceMap, cfg: ExperimentConfig, out: Path) -> int:
    rho, rho_source = _rho_with_fallback(f)
    name = _safe_name(f)

    def sampled(g: RationalSurfaceMap) -> np.ndarray:
        # depth 0 is the empty partial sum: identically zero
        if cfg.n_series == 0:
            return np.zeros((cfg.grid, cfg.grid))
        return green_grid(g, cfg.n_series, chart=cfg.chart, center=cfg.center,
                          halfwidth=cfg.halfwidth, resolution=cfg.grid)

    grid = sampled(f)
    sidecar = _write_pgm(out / f"green_{name}.pgm", grid, cfg)
    _write_text(out / f"green_{name}.csv", _grid_csv(grid, cfg))

    inverse_sidecar = None
    if f.inverse is not None:
        inverse_sidecar = _write_pgm(out / f"green_{name}_inverse.pgm",
                                     sampled(f.inverse), cfg)

    samples, residuals = [], []
    if cfg.n_series > 0:  # depth 0 takes no samples
        # 16 residual samples, each drawn as (u, v) in turn
        uv = np.random.default_rng(cfg.seed).random((16, 2))
        us = cfg.center[0] + cfg.halfwidth * (2.0 * uv[:, 0] - 1.0)
        vs = cfg.center[1] + cfg.halfwidth * (2.0 * uv[:, 1] - 1.0)
        residuals = _chart_residuals(f, cfg.n_series, cfg.chart, us, vs)
        samples = [{"u": u, "v": v, "residual": res}
                   for u, v, res in zip(us.tolist(), vs.tolist(), residuals)]
    worst = max([0.0] + [res for res in residuals if res is not None])
    indeterminate = residuals.count(None)

    doc = _report_header("green", cfg, f)
    doc["rho"] = rho
    doc["rho_source"] = rho_source
    doc["n_series"] = cfg.n_series
    doc["grid"] = sidecar
    doc["inverse_grid"] = inverse_sidecar
    doc["residuals"] = {"samples": samples, "max": worst,
                        "indeterminate": indeterminate}
    _write_json(out / f"green_{name}.json", doc)
    print(f"max functional residual over {len(samples) - indeterminate} samples: {worst!r}")
    return EXIT_OK


def cmd_measure(f: RationalSurfaceMap, cfg: ExperimentConfig, out: Path,
                lags: int) -> int:
    cloud = saddle_cloud(f, cfg.max_period, seed=cfg.seed,
                         clearance=cfg.tolerance_indeterminacy)
    name = _safe_name(f)
    _write_text(out / f"measure_{name}_cloud.csv", cloud.to_csv())

    observables = []
    for obs in coordinate_observables():
        observables.append({
            "name": obs.name,
            "average": measure_average(cloud, obs.fn),
            "invariance_residual": invariance_residual(f, cloud, obs.fn),
        })
    phi = coordinate_observables()[0]
    mixing = {
        "observable": phi.name,
        "lags": list(range(lags + 1)),
        "values": mixing_correlations(f, cloud, phi.fn, phi.fn, lags),
    }

    doc = _report_header("measure", cfg, f)
    doc["max_period"] = cfg.max_period
    doc["cloud"] = {
        "size": len(cloud.points),
        "provenance": cloud.provenance,
        "total_weight": str(sum(cloud.weights)),
        "periods": list(cloud.periods),
    }
    doc["observables"] = observables
    doc["mixing"] = mixing
    _write_json(out / f"measure_{name}.json", doc)
    print(f"cloud: {len(cloud.points)} saddle points, periods <= {cfg.max_period}")
    return EXIT_OK


def cmd_lyapunov(f: RationalSurfaceMap, cfg: ExperimentConfig, out: Path) -> int:
    rho = plane_expansion_rate(f)  # NoExpansion / SpectralError end the run
    # the tolerance is the cocycle's exclusion radius; the cloud keeps the
    # default clearance, so a wide radius excludes orbits instead of
    # shrinking the cloud they start from
    cloud = saddle_cloud(f, cfg.max_period, seed=cfg.seed)
    est = cocycle_exponents(f, cloud, cfg.n_cocycle,
                            exclusion_radius=cfg.tolerance_indeterminacy)
    verdict = hyperbolicity_verdict(est, rho)

    doc = _report_header("lyapunov", cfg, f)
    doc["max_period"] = cfg.max_period
    doc["n_cocycle"] = cfg.n_cocycle
    doc["exclusion_radius"] = cfg.tolerance_indeterminacy
    doc["estimate"] = asdict(est)
    doc["integrability"] = doc["estimate"].pop("integrability")
    doc["verdict"] = asdict(verdict)
    _write_json(out / f"lyapunov_{_safe_name(f)}.json", doc)
    print(f"chi+ = {est.chi_plus!r} +- {est.se_plus!r}, "
          f"chi- = {est.chi_minus!r} +- {est.se_minus!r}")
    print(f"hyperbolic: expanding {verdict.expanding_ok}, "
          f"contracting {verdict.contracting_ok}")
    return EXIT_OK


def cmd_energy_selftest(cfg: ExperimentConfig, out: Path, instances: int) -> int:
    origin = ProjectivePoint.exact_point(0, 0, 1)
    beta = DiscreteForm11.euclidean()
    checks = []

    # 1. u <= v must force E(u) <= E(v): residuals of the two comparison
    #    inequalities are nonnegative up to float accumulation.
    chart = GridChart(center=origin, chart=2, halfwidth=0.8, resolution=12)
    min_residual = math.inf
    for k in range(instances):
        v = random_trig(cfg.seed + k)
        u = v + constant_function(-1.0)
        report = energy_monotonicity_check(u, v, beta, chart)
        min_residual = min(min_residual, *report.residuals)
    checks.append({
        "name": "monotonicity",
        "instances": instances,
        "min_residual": min_residual,
        "passed": bool(min_residual >= -1e-8),
    })

    # 2. smoothing a log singularity against a smooth form is Cauchy in
    #    energy; concentrating the form at the singular point (infinite
    #    local potential) is the negative control and must not decay.
    sing = (0.1 + 0.05j, -0.2 + 0.0j)
    box = GridChart(center=origin, chart=2, halfwidth=0.8, resolution=24)
    smooth_diag = cauchy_diagnostic(log_distance(sing), beta, box, levels=range(1, 9))
    control_box = GridChart(center=origin, chart=2, halfwidth=0.8, resolution=32)
    levels = [0.5 + 0.25 * k for k in range(9)]
    concentrated = DiscreteForm11(smoothed_log_form(sing, control_box.step / 4))
    control_diag = cauchy_diagnostic(log_distance(sing), concentrated,
                                     control_box, levels=levels)
    checks.append({
        "name": "cauchy",
        "smooth_decays": smooth_diag.decays,
        "singular_control_decays": control_diag.decays,
        "passed": bool(smooth_diag.decays and not control_diag.decays),
    })

    # 3. energy against a smooth form is preserved under pushforward by a
    #    birational map when the window avoids the exceptional sets.
    from .standard_maps import henon_map

    h = henon_map()
    window = GridChart(center=origin, chart=2, halfwidth=0.6, resolution=24)
    push = pushforward_energy_check(random_trig(cfg.seed + 100, terms=3,
                                                amplitude=0.5),
                                    h, beta, window)
    checks.append({
        "name": "pushforward",
        "relative_discrepancy": push.relative_discrepancy,
        "passed": bool(push.relative_discrepancy < 0.02),
    })

    all_pass = all(c["passed"] for c in checks)
    doc = _report_header("energy-selftest", cfg)
    doc["checks"] = checks
    doc["all_pass"] = all_pass
    _write_json(out / "energy_selftest.json", doc)
    for c in checks:
        print(f"{c['name']}: {'pass' if c['passed'] else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Count(NamedTuple):
    """A loop count that ``--iters`` passes to the handler itself, since
    no config field holds it."""

    default: int
    least: int


class _Command(NamedTuple):
    """A subcommand and the flags it reads besides ``--config``, ``--seed``,
    ``--out`` and ``--tolerance-indeterminacy``, which every command reads
    (the seed and the tolerance are in every report header).  A command
    accepts no flag that cannot change its artifacts."""

    help: str
    handler: Callable[..., int]
    reads_map: bool
    #: help text of --iters; None where the command has no loop count
    iters_help: Optional[str]
    #: what --iters sets: a config field, or a count passed to the handler
    iters: str | _Count | None
    #: the config fields among grid and max_period that the command reads,
    #: each set by its flag (--grid, --max-period)
    flags: tuple[str, ...]


_COMMANDS = {
    "inspect": _Command("exact structure of a map", cmd_inspect, True, None, None, ()),
    "stability": _Command("orbit separation and summability", cmd_stability, True,
                          "exceptional-orbit length (config n_orbit)", "n_orbit", ()),
    "green": _Command("truncated invariant potential on a grid", cmd_green, True,
                      "partial-sum depth (config n_series)", "n_series", ("grid",)),
    "measure": _Command("saddle-orbit cloud and observable averages", cmd_measure, True,
                        "mixing-correlation lags (default 10)", _Count(10, 0), ("max_period",)),
    "lyapunov": _Command("cocycle exponents and hyperbolicity verdict", cmd_lyapunov, True,
                         "cocycle steps (config n_cocycle)", "n_cocycle", ("max_period",)),
    "energy-selftest": _Command("energy kernel validation suite", cmd_energy_selftest, False,
                                "monotonicity instances (default 8)", _Count(8, 1), ()),
}

_FLAG_HELP = {
    "grid": "grid resolution (config grid)",
    "max_period": "largest saddle period in the cloud (config max_period)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biratdyn",
        description="experiment runner for plane birational dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.reads_map:
            p.add_argument("--map", required=True, help="map file (JSON)")
        p.add_argument("--config", help="experiment configuration (JSON)")
        p.add_argument("--seed", type=int, help="random seed (0 <= seed < 2^64)")
        p.add_argument("--out", help="output directory")
        if command.iters_help is not None:
            p.add_argument("--iters", type=int, help=command.iters_help)
        for field in command.flags:
            p.add_argument("--" + field.replace("_", "-"), type=int, help=_FLAG_HELP[field])
        p.add_argument("--tolerance-indeterminacy", type=float,
                       help="chordal distance that counts as close to I(f) or "
                            "I(f^-1): measure's cloud clearance, stability's "
                            "separation and straddle tolerance, lyapunov's "
                            "exclusion radius")
    return parser


def _resolve_config(args: argparse.Namespace, command: _Command) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {field: getattr(args, field) for field in command.flags}
    if isinstance(command.iters, str):
        overrides[command.iters] = args.iters
    return cfg.with_overrides(seed=args.seed, out_dir=args.out,
                              tolerance_indeterminacy=args.tolerance_indeterminacy,
                              **overrides)


def _dispatch(args: argparse.Namespace) -> int:
    command = _COMMANDS[args.command]
    cfg = _resolve_config(args, command)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    count = ()
    if isinstance(command.iters, _Count):
        n = command.iters.default if args.iters is None else args.iters
        if n < command.iters.least:
            raise ValueError(f"{args.command} needs --iters >= {command.iters.least}")
        count = (n,)
    if not command.reads_map:
        return command.handler(cfg, out, *count)
    f = load_map(args.map)
    # perfbench's worker reads sympy's version from sys.modules after every
    # command, so each map command loads sympy here, where loading the map
    # used to, although on the corpus only inspect computes with it: the
    # rate certificate reads degree drops off the exceptional orbits
    # (ROADMAP item 1)
    _sympy()
    return command.handler(f, cfg, out, *count)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; fold into our codes
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return _dispatch(args)
    except (AllOrbitsExcluded, IndeterminateEncounter, PotentialError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    # the only StabilityError that leaves a command is a missing inverse;
    # failing shadow orbits are recorded as straddles inside the orbit table
    except (NoExpansion, SpectralError, MeasureError, LyapunovError,
            EnergyError, StabilityError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (MapFileError, GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
