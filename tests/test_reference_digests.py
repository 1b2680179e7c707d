"""Corpus outputs stay byte-identical to the benchmark's recorded reference.

``perfbench/reference.json`` records, for every benchmark op, the exit code
and the SHA-256 digest of every artifact at the reference seed.  Each op of
``perfbench/run.py``'s ``WORKLOADS`` runs here in-process through
``biratdyn.cli.main``; a change to any output byte fails its case.  A change
that alters outputs on purpose re-records the reference with
``perfbench/record.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from biratdyn.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _workload_ops():
    # run.py imports its sibling checks.py as a top-level module
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return [op for ops in run.WORKLOADS.values() for op in ops]


@pytest.mark.parametrize("op", _workload_ops(), ids=lambda op: op.id)
def test_op_reproduces_reference_digests(op, tmp_path):
    ref = REFERENCE["ops"][op.id]
    out = tmp_path / "out"
    assert main(op.argv(REFERENCE["seed"], out)) == ref["exit"]
    for name, digest in ref["artifacts"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest["sha256"], name
