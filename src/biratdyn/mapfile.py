"""On-disk JSON formats: map descriptions and experiment configuration.

A map file stores the three forward components (and optionally the three
inverse components) of a plane map as lists of 7-integer terms

    [i, j, k, re_num, re_den, im_num, im_den]

with ``(i, j, k)`` the exponents of ``(x, y, t)`` and the remaining four
integers the exact rational real and imaginary parts of the coefficient.
Parsing is therefore lossless; saving is deterministic (sorted keys, sorted
terms), so identical maps produce byte-identical files.  A file carries
only the map.  It is outside input, so derived data such as the growth
rate is always re-certified from the map itself; `load_map` ignores any
other key, such as the ``lattice`` section that older files carry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

from .geometry import ComplexRational, HomogeneousPolynomial
from .maps import EPS_EXCEPTIONAL, RationalSurfaceMap, verify_inverse
from .standard_maps import STANDARD_MAPS

__all__ = [
    "MapFileError",
    "ParseError",
    "ExperimentConfig",
    "FORMAT_TAG",
    "map_payload",
    "map_from_payload",
    "save_map",
    "load_map",
    "load_config",
    "write_corpus",
    "corpus_path",
]

FORMAT_TAG = "biratdyn-map/1"


class MapFileError(Exception):
    """Invalid map file or configuration contents."""


class ParseError(MapFileError):
    """Syntactically broken JSON; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# map serialization


def _component_terms(poly: HomogeneousPolynomial) -> list[list[int]]:
    rows = []
    for (i, j, k), coeff in poly.terms.items():
        rows.append(
            [
                int(i),
                int(j),
                int(k),
                int(coeff.re_num),
                int(coeff.re_den),
                int(coeff.im_num),
                int(coeff.im_den),
            ]
        )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def _triple_payload(f: RationalSurfaceMap) -> list[list[list[int]]]:
    return [_component_terms(c) for c in f.components]


def map_payload(f: RationalSurfaceMap) -> dict:
    """JSON-ready dictionary describing a map (losslessly)."""
    payload: dict = {
        "format": FORMAT_TAG,
        "name": f.name,
        "degree": f.degree,
        "forward": _triple_payload(f),
    }
    if f.inverse is not None:
        payload["inverse"] = _triple_payload(f.inverse)
    return payload


def _parse_component(rows, degree: int, where: str) -> HomogeneousPolynomial:
    if not isinstance(rows, list) or not rows:
        raise MapFileError(f"{where}: each component needs a nonempty term list")
    terms: dict[tuple[int, int, int], ComplexRational] = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != 7:
            raise MapFileError(f"{where}: each term must be a list of 7 integers")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in row):
            raise MapFileError(f"{where}: each term must be a list of 7 integers")
        i, j, k, re_num, re_den, im_num, im_den = row
        if min(i, j, k) < 0:
            raise MapFileError(f"{where}: exponents must be nonnegative")
        if i + j + k != degree:
            raise MapFileError(
                f"{where}: exponents ({i},{j},{k}) do not sum to the degree {degree}"
            )
        if re_den == 0 or im_den == 0:
            raise MapFileError(f"{where}: zero denominator in coefficient")
        if (i, j, k) in terms:
            raise MapFileError(f"{where}: duplicate exponent triple ({i},{j},{k})")
        coeff = ComplexRational.from_quadruple(re_num, re_den, im_num, im_den)
        if coeff.is_zero():
            raise MapFileError(f"{where}: zero coefficient on ({i},{j},{k})")
        terms[(i, j, k)] = coeff
    return HomogeneousPolynomial(degree, terms)


def _map_from_triple(data, degree: int, where: str, **kwargs) -> RationalSurfaceMap:
    """Build the map of a component triple; ``kwargs`` go to the map.  The
    map divides out a common factor, which shows as a drop in degree."""
    if not isinstance(data, list) or len(data) != 3:
        raise MapFileError(f"{where}: expected exactly 3 polynomial components")
    comps = tuple(
        _parse_component(rows, degree, f"{where}[{idx}]")
        for idx, rows in enumerate(data)
    )
    f = RationalSurfaceMap(comps, **kwargs)
    if f.degree < degree:
        raise MapFileError(
            f"{where}: components share a common factor of degree {degree - f.degree}"
        )
    return f


def _triple_degree(data, where: str) -> int:
    try:
        first = data[0][0]
        return int(first[0]) + int(first[1]) + int(first[2])
    except (TypeError, IndexError, KeyError, ValueError):
        raise MapFileError(f"{where}: cannot infer the component degree") from None


def map_from_payload(payload: dict) -> RationalSurfaceMap:
    """Validate a parsed JSON document and build the map it describes."""
    if not isinstance(payload, dict):
        raise MapFileError("map file must contain a JSON object")
    for key in ("name", "degree", "forward"):
        if key not in payload:
            raise MapFileError(f"map file is missing the required field {key!r}")
    name = payload["name"]
    if not isinstance(name, str) or not name:
        raise MapFileError("name must be a nonempty string")
    degree = payload["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise MapFileError("degree must be a positive integer")
    f = _map_from_triple(payload["forward"], degree, "forward", name=name)
    if payload.get("inverse") is not None:
        inv_degree = _triple_degree(payload["inverse"], "inverse")
        _map_from_triple(payload["inverse"], inv_degree, "inverse", inverse=f, name=f"{name}^-1")
        if not verify_inverse(f):
            raise MapFileError("inverse triple fails verification against the forward map")
    return f


def save_map(f: RationalSurfaceMap, path: Union[str, Path]) -> Path:
    """Write a map file; byte-identical output for identical maps."""
    path = Path(path)
    payload = map_payload(f)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _read_json(path: Union[str, Path]):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, err.lineno, err.colno) from None


def load_map(path: Union[str, Path]) -> RationalSurfaceMap:
    """Parse and validate a map file."""
    return map_from_payload(_read_json(path))


def write_corpus(directory: Union[str, Path]) -> list[Path]:
    """Write the bundled example maps to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [save_map(factory(), directory / f"{name}.map")
            for name, factory in STANDARD_MAPS.items()]


def corpus_path(name: str) -> Path:
    """Path to a bundled example map: cremona, henon, linear, or lsigma."""
    path = Path(__file__).parent / "corpus" / f"{name}.map"
    if not path.exists():
        raise MapFileError(f"no bundled map named {name!r}")
    return path


# ---------------------------------------------------------------------------
# experiment configuration


def _finite_real(value) -> bool:
    """A finite int or float; JSON ``true``/``false`` are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the command-line experiments.

    ``seed`` is recorded verbatim in every report.  ``n_orbit`` bounds
    orbit/separation horizons, ``n_series`` truncates potential series,
    ``n_cocycle`` is the cocycle step count, ``grid`` the heatmap
    resolution, ``max_period`` the saddle-cloud period cutoff.
    ``tolerance_indeterminacy`` is the chordal distance that counts as
    close to I(f) or I(f^-1): measure's cloud clearance, stability's
    separation and straddle tolerance, and lyapunov's exclusion radius.
    The chart window (``chart``, ``center``, ``halfwidth``) frames grid
    computations.
    """

    seed: int = 2026
    n_orbit: int = 50
    n_series: int = 25
    n_cocycle: int = 240
    grid: int = 64
    max_period: int = 3
    tolerance_indeterminacy: float = EPS_EXCEPTIONAL
    chart: int = 2
    center: tuple[float, float] = (0.0, 0.0)
    halfwidth: float = 1.5
    out_dir: str = "."

    def __post_init__(self):
        if (not isinstance(self.center, (list, tuple)) or len(self.center) != 2
                or not all(_finite_real(c) for c in self.center)):
            raise MapFileError("center must be a pair of finite reals")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if type(self.seed) is not int or not (0 <= self.seed < 2**64):
            raise MapFileError("seed must be an unsigned 64-bit integer")
        for field_name in ("n_orbit", "n_series", "n_cocycle", "grid", "max_period", "chart"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise MapFileError(f"{field_name} must be an integer")
        for field_name in ("n_orbit", "n_cocycle", "max_period"):
            if getattr(self, field_name) < 1:
                raise MapFileError(f"{field_name} must be at least 1")
        if self.n_series < 0:
            raise MapFileError("n_series must be nonnegative")
        if self.grid < 8:
            raise MapFileError("grid resolution must be at least 8")
        for field_name in ("tolerance_indeterminacy", "halfwidth"):
            value = getattr(self, field_name)
            if not _finite_real(value):
                raise MapFileError(f"{field_name} must be a finite real")
            if not value > 0:
                raise MapFileError(f"{field_name} must be positive")
        if not self.tolerance_indeterminacy < 1:
            raise MapFileError("tolerance_indeterminacy is a chordal distance and must be below 1")
        if self.chart not in (0, 1, 2):
            raise MapFileError("chart must be 0, 1, or 2")
        if not isinstance(self.out_dir, str):
            raise MapFileError("out_dir must be a string")

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    """Parse an experiment configuration file, rejecting unknown keys."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise MapFileError("config file must contain a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise MapFileError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return ExperimentConfig(**data)
    except TypeError as err:
        raise MapFileError(str(err)) from None
