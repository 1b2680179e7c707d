"""Correctness check of one CLI operation against its reference outcome.

The reference (``reference.json``, written by ``record.py``) holds, per
operation, the exit code, the artifact file names with their SHA-256 at
the reference seed, and every leaf of every JSON report flattened to a
dotted path.  A run of the operation at any seed must reproduce:

* the exit code (or one of the alternative outcomes named below);
* the artifact file names;
* every non-float leaf exactly (degree sequences, loci, verdicts, cloud
  sizes and periods, ``rho_source``, ...);
* every float leaf, and every string that spells a float, within
  ``|value - ref| <= FLOAT_ATOL + FLOAT_RTOL * |ref|``;
* the ``seed`` field equal to the seed it was given.

Leaves that depend on the seed (the random sample points of the green
residual table, the random test functions of the energy self-test) are
not compared with the reference; the ones that carry a verdict are held
to a bound instead.

Artifact digests are reported, not failed: a refactor that changes bytes
shows up as ``cli.artifacts_changed`` without failing the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import re
from pathlib import Path

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

#: leaves that change with the seed, per subcommand (regular expressions)
SEED_DEPENDENT = {
    "green": [r"residuals\.samples\..*", r"residuals\.max"],
    "energy-selftest": [r"checks\.0\.min_residual", r"checks\.2\.relative_discrepancy"],
}

#: bounds on seed-dependent leaves: (path, operator, limit)
BOUNDS = {
    "green": [("residuals.max", "<=", 1e-9)],
    "energy-selftest": [("checks.0.min_residual", ">=", -1e-8),
                        ("checks.2.relative_discrepancy", "<", 0.02)],
}

_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _accept_linear_saddle_at_infinity(out: Path) -> list[str]:
    """Linear ``measure`` may also succeed with the saddle at [0:1:0].

    diag(4, 2, 1) has a saddle at [0:1:0], outside the chart the search
    uses today, which is why the reference run exits 3.  A search that
    covers every chart exits 0 with that point in its cloud.
    """
    path = out / "measure_linear_cloud.csv"
    if not path.is_file():
        return ["exit 0 without a cloud file"]
    rows = [r for r in csv.reader(path.read_text().splitlines()[2:]) if r]
    for r in rows:
        z = [float(x) for x in r[:6]]
        if z[0] ** 2 + z[1] ** 2 + z[4] ** 2 + z[5] ** 2 < 1e-12:
            return []
    return ["exit 0 but no cloud point at [0:1:0]"]


#: outcomes accepted besides the recorded one: op id -> {exit: check(out)}
ALTERNATIVES = {
    "measure.linear": {0: _accept_linear_saddle_at_infinity},
}


def flatten(doc, prefix: str = "") -> dict:
    """JSON document to {dotted.path: leaf}."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = ((str(i), v) for i, v in enumerate(doc))
    else:
        return {prefix: doc}
    out: dict = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _as_float(value):
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _leaf_matches(value, ref) -> bool:
    a, b = _as_float(value), _as_float(ref)
    if a is None or b is None:
        return value == ref
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * abs(b)


def seed_free_fields(subcommand: str, doc) -> dict:
    """The flattened report without its seed-dependent leaves."""
    patterns = [re.compile(p) for p in SEED_DEPENDENT.get(subcommand, [])]
    flat = flatten(doc)
    flat.pop("seed", None)
    return {k: v for k, v in flat.items() if not any(p.fullmatch(k) for p in patterns)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifacts(out: Path) -> dict:
    """Artifact name -> (size, sha256) for every file the op wrote."""
    return {p.name: (p.stat().st_size, sha256(p)) for p in sorted(out.iterdir()) if p.is_file()}


def check_op(op_id: str, subcommand: str, ref: dict, exit_code, out: Path,
             written: dict, seed: int, reference_seed: int) -> tuple[list[str], int]:
    """Problems found (empty when the op is correct) and digest mismatches.

    ``written`` is ``artifacts(out)``, or empty when the op made no ``out``.
    """
    if exit_code != ref["exit"]:
        alt = ALTERNATIVES.get(op_id, {}).get(exit_code)
        if alt is None:
            return [f"exit {exit_code}, reference {ref['exit']}"], 0
        return alt(out), 0

    problems = []
    if sorted(written) != sorted(ref["artifacts"]):
        problems.append(f"artifacts {sorted(written)}, reference {sorted(ref['artifacts'])}")
    changed = 0
    for name, digest in ref["artifacts"].items():
        if name in written and (seed == reference_seed or digest["seed_free"]):
            changed += written[name][1] != digest["sha256"]
    for name, ref_fields in ref["fields"].items():
        if name not in written:
            continue
        doc = json.loads((out / name).read_text())
        if "seed" in doc and doc["seed"] != seed:
            problems.append(f"{name}: seed {doc['seed']}, expected {seed}")
        fields = seed_free_fields(subcommand, doc)
        if set(fields) != set(ref_fields):
            problems.append(f"{name}: fields {sorted(set(fields) ^ set(ref_fields))[:5]} differ")
        for key, ref_value in ref_fields.items():
            if key in fields and not _leaf_matches(fields[key], ref_value):
                problems.append(f"{name}: {key} = {fields[key]!r}, reference {ref_value!r}")
        flat = flatten(doc)
        bounds = BOUNDS.get(subcommand, []) if "command" in doc else []
        for path, op, limit in bounds:
            value = _as_float(flat.get(path))
            if value is None or not _OPS[op](value, limit):
                problems.append(f"{name}: {path} = {flat.get(path)!r}, needs {op} {limit}")
    return problems, changed
