"""Record ``reference.json``: the reference outcome of every benchmark op.

Usage (from the root of a checkout)::

    python3 perfbench/record.py

Runs every op of every workload once at the reference seed and stores its
exit code, its artifact names with their SHA-256, and the seed-free leaves
of its JSON reports.  It then runs every op again at ``CHECK_SEED``:
artifacts whose bytes agree at both seeds are marked ``seed_free`` (their
digest is compared at any seed), and the checks of ``checks.py`` must
pass at that second seed too, or nothing is written.

Re-record only when a change is meant to alter outcomes, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run

#: the seed the reference outcomes and artifact digests are recorded at
REFERENCE_SEED = 2026
#: a second seed the checks must pass at before the reference is written
CHECK_SEED = 7


def main() -> int:
    ops = {op.id: op for ops in run.WORKLOADS.values() for op in ops}
    reference = {"seed": REFERENCE_SEED, "ops": {}}
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=run.SCRATCH))
    try:
        for op in ops.values():
            r = run.run_op(op, REFERENCE_SEED, scratch, "ref", None, run.OP_DEADLINE_S)
            if r["killed"] or r.get("error"):
                print(f"{op.id}: no outcome ({r.get('error') or 'killed'})", file=sys.stderr)
                return 1
            written = checks.artifacts(r["out"])
            fields = {}
            for name in written:
                if name.endswith(".json"):
                    doc = json.loads((r["out"] / name).read_text())
                    fields[name] = checks.seed_free_fields(op.subcommand, doc)
            reference["ops"][op.id] = {
                "exit": r["exit"],
                "artifacts": {name: {"sha256": digest, "seed_free": False}
                              for name, (_, digest) in written.items()},
                "fields": fields,
            }
            print(f"{op.id}: exit {r['exit']}, {len(written)} artifacts, "
                  f"{r['op_s']:.2f} s", file=sys.stderr)

        failures = 0
        for op in ops.values():
            ref = reference["ops"][op.id]
            r = run.run_op(op, CHECK_SEED, scratch, "check", None, run.OP_DEADLINE_S)
            written = checks.artifacts(r["out"]) if r["out"].is_dir() else {}
            problems, _ = (["no outcome"], 0) if r["killed"] or r.get("error") else \
                checks.check_op(op.id, op.subcommand, ref, r["exit"], r["out"], written,
                                CHECK_SEED, REFERENCE_SEED)
            for name, digest in ref["artifacts"].items():
                digest["seed_free"] = name in written and written[name][1] == digest["sha256"]
            for p in problems:
                print(f"{op.id} at seed {CHECK_SEED}: {p}", file=sys.stderr)
            failures += bool(problems)
        if failures:
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
