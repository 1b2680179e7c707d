"""biratdyn benchmark: real CLI operations on the bundled corpus.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact --seed 2026 --seconds 55 --trace 0

Every operation runs in a fresh worker process, one at a time, the way a
user runs the CLI: sympy's caches start cold in each.  Repeating an
operation inside one process instead gets faster as those caches warm,
which would hide exactly the exact-algebra costs this benchmark exists
to show.  A run makes one pass over the workload's operations, then
repeats them in the same order while each still fits in ``--seconds``
(see ``run_untraced``), so its samples span the whole run.

The seed given to the benchmark is passed to every operation as
``--seed``.  Every operation's outcome is checked against
``reference.json`` (see ``checks.py``); the last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, all untraced:

* ``ref_wall_s``: the workload's op time at the reference speed, summed
  over its ops (each op's median over its samples).  An op is timed
  inside its worker from just before ``biratdyn.cli.main(argv)`` until it
  returns, and that time is scaled to the reference speed by the speed
  probe sampled along it (see ``at_reference_speed`` and
  ``worker.SpeedProbe``).  The host this runs on changes speed by up to
  1.7x within a second, as other tenants come and go on the same
  physical core; the scaling takes that out, and a change to biratdyn,
  which the probe loop does not touch, shows in full.  The raw op time is
  the per-layer ``process.wall_s``.  The line ``samples`` before the
  result gives the number of timings per op.
* ``setup_s``: median over the run's workers of the time ``import
  biratdyn`` takes, at the reference speed as ``ref_wall_s``; the raw
  median is the per-layer ``process.import_s``.
* ``peak_rss_mb``: largest peak resident set over the run's workers.
* ``ok_ratio``: ops that passed their check over ops attempted.

With ``--trace 1`` the run keeps room for one traced pass after its
untraced samples, makes it, and reports the per-layer metrics (see
``layer_metrics``).  The traced pass is checked too (see
``trace_problems``).  The raw spans of the traced pass are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "biratdyn" / "corpus"
SCRATCH = ROOT / ".bench_run"
TRACE_OUT = ROOT / ".bench_out"

#: an op still running after this many seconds is killed and counts as failed
OP_DEADLINE_S = 60.0
#: every op is killed by this many seconds into a run, so a run ends within 180 s
RUN_DEADLINE_S = 170.0
#: seconds the worker's probe loop takes at the reference speed (about its
#: median on the 2-CPU Xeon host the benchmark was first run on)
PROBE_REF_S = 0.0017


class Op:
    """One CLI invocation: subcommand, corpus map and extra flags."""

    def __init__(self, subcommand: str, map_name: str | None = None, *flags: str):
        self.subcommand = subcommand
        self.map_name = map_name
        self.flags = flags
        self.id = subcommand if map_name is None else f"{subcommand}.{map_name}"

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [self.subcommand]
        if self.map_name is not None:
            argv += ["--map", str(CORPUS / f"{self.map_name}.map")]
        return argv + list(self.flags) + ["--seed", str(seed), "--out", str(out)]


# Why each workload: see BENCHMARK.json.  CLI defaults except where noted.
WORKLOADS = {
    # exact algebra over Q(i): Gaussian (lsigma) against real (henon)
    # coefficients, where lsigma's all-pairs orbit separation dominates;
    # plus a dropping degree sequence with its fallback growth rate
    # (cremona) and degree 1 without expansion (linear, exit 3).  The
    # longest op comes first, so that a run has room to repeat it.
    "exact": [Op("stability", "lsigma"), Op("inspect", "lsigma"),
              Op("stability", "henon"), Op("inspect", "henon"),
              Op("inspect", "cremona"), Op("stability", "linear")],
    # the scalar potential kernel on forward and inverse 32x32 grids, the
    # grid-energy kernel, the Newton saddle search with its observables,
    # and the QR cocycle; plus an involution whose period-2 points are not
    # isolated (cremona measure, at --max-period 1: at the default cut-off
    # it does not end in bounded time) and a map without expansion
    # (linear lyapunov, exit 3)
    "analytic": [Op("green", "henon", "--grid", "32"),
                 Op("green", "lsigma", "--grid", "32"),
                 Op("energy-selftest"),
                 Op("measure", "henon", "--max-period", "4"),
                 Op("lyapunov", "lsigma", "--max-period", "3"),
                 Op("measure", "cremona", "--max-period", "1"),
                 Op("lyapunov", "linear")],
}


def worker_env() -> dict:
    """One BLAS thread per worker.  The parent waits while its one worker
    runs, so a run keeps at most one core busy and fits a two-core host.
    ``PYTHONPATH`` is dropped so the worker imports only the checkout's
    sources."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_op(op: Op, seed: int, scratch: Path, tag: str, trace_dir: Path | None,
           deadline: float) -> dict:
    """Run one op in a fresh worker and return the worker's result."""
    out = scratch / tag / op.id
    spec = {
        "src": str(SRC),
        "argv": op.argv(seed, out),
        "trace": trace_dir is not None,
        "result": str(scratch / f"{tag}-{op.id}.json"),
        "spans": None if trace_dir is None else str(trace_dir / f"{op.id}.json"),
    }
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    with open(scratch / f"{tag}-{op.id}.err", "w+") as err:
        proc = subprocess.Popen(cmd, cwd=scratch, env=worker_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=deadline)
        except subprocess.TimeoutExpired:
            return {"op": op, "out": out, "killed": True, "exit": None}
        finally:
            if proc.poll() is None:  # deadline passed, or this process is interrupted
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    try:
        with open(spec["result"]) as fh:
            result = json.load(fh)
    except FileNotFoundError:
        return {"op": op, "out": out, "killed": False, "exit": None,
                "error": f"worker exited {proc.returncode}: {stderr[-500:]}"}
    result.update(op=op, out=out, killed=False)
    if "op_s" in result:
        result["ref_import_s"] = at_reference_speed(result["import_s"], result["import_probe_s"])
        result["ref_s"] = at_reference_speed(result["op_s"], result["op_probe_s"])
    return result


def at_reference_speed(seconds: float, probe_loops: list[float]) -> float:
    """``seconds`` of a span as they would read at the reference speed.

    The probe loops were sampled evenly in wall time along the span (see
    ``worker.SpeedProbe``), so the mean of the reference loop time over
    each sampled loop time is the share of reference-speed work the span
    did per second.
    """
    return seconds * statistics.fmean(PROBE_REF_S / t for t in probe_loops)


def check(result: dict, seed: int, reference: dict) -> None:
    """Add ``problems`` and ``changed`` (digest mismatches) to a result."""
    op = result["op"]
    written = checks.artifacts(result["out"]) if result["out"].is_dir() else {}
    if result["killed"]:
        result["problems"], result["changed"] = ["killed at its deadline"], 0
    elif result.get("error"):
        result["problems"], result["changed"] = [result["error"].strip().splitlines()[-1]], 0
    else:
        result["problems"], result["changed"] = checks.check_op(
            op.id, op.subcommand, reference["ops"][op.id], result["exit"],
            result["out"], written, seed, reference["seed"])
    result["bytes"] = sum(size for size, _ in written.values())
    shutil.rmtree(result["out"], ignore_errors=True)


def run_one(op, seed, scratch, tag, trace_dir, started, reference) -> dict:
    """Run and check one op; ``real_s`` is its time from launch to exit."""
    t0 = time.monotonic()
    left = RUN_DEADLINE_S - (t0 - started)
    if left <= 0:
        result = {"op": op, "out": scratch / tag / op.id, "killed": True, "exit": None}
    else:
        result = run_op(op, seed, scratch, tag, trace_dir, min(OP_DEADLINE_S, left))
    result["real_s"] = time.monotonic() - t0
    check(result, seed, reference)
    return result


def run_pass(ops, seed, scratch, tag, trace_dir, started, reference) -> list[dict]:
    return [run_one(op, seed, scratch, tag, trace_dir, started, reference) for op in ops]


def run_untraced(ops, seed, scratch, started, budget, reference,
                 reserve_pass=False) -> list[dict]:
    """One pass over the ops, then more of them while they fit.

    After the first pass the ops are run again in the same order, each
    only while its last launch-to-exit time still fits in ``budget``
    seconds from ``started``; the first op that does not fit ends the
    run.  Every op so gets one sample more than or as many as the ops
    after it, and the samples are spread over the whole run.  With
    ``reserve_pass`` the budget keeps room for one more pass as long as
    the first, for the traced pass that follows.
    """
    results = run_pass(ops, seed, scratch, "pass0", None, started, reference)
    if reserve_pass:
        budget -= time.monotonic() - started
    last = {r["op"].id: r["real_s"] for r in results}
    for i in itertools.count(len(ops)):
        op = ops[i % len(ops)]
        if time.monotonic() - started + last[op.id] > budget:
            return results
        results.append(run_one(op, seed, scratch, f"pass{i // len(ops)}", None, started,
                               reference))
        last[op.id] = results[-1]["real_s"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _sum_of_op_medians(timed: list[dict], key: str) -> float:
    """Sum over the ops of each op's median ``key`` across its samples."""
    by_op: dict[str, list[float]] = {}
    for r in timed:
        by_op.setdefault(r["op"].id, []).append(r[key])
    return sum(statistics.median(v) for v in by_op.values())


def end_to_end_metrics(ops: list[dict]) -> dict:
    timed = [r for r in ops if "op_s" in r]
    ok = sum(not r["problems"] for r in ops)
    return {
        "ref_wall_s": (_sum_of_op_medians(timed, "ref_s"), "s"),
        "setup_s": (_median(r["ref_import_s"] for r in timed), "s"),
        "peak_rss_mb": (max((r["maxrss_mb"] for r in timed), default=0.0), "MB"),
        "ok_ratio": (ok / len(ops), "ratio"),
    }


#: inclusive times reported as ``<layer>.<fn>.s``
_INCL = ["geometry.poly_gcd", "geometry.to_sympy", "geometry.proj_distance",
         "maps.compose", "maps.degree_sequence", "maps.apply",
         "cohomology.lattice_for_plane_map",
         "stability.exceptional_orbits", "stability.check_orbit_separation",
         "stability.separation_diagnostic",
         "potential.green_grid", "potential.green_functional_check",
         "energy.cauchy_diagnostic", "energy.energy_monotonicity_check",
         "energy.pushforward_energy_check",
         "measure.saddle_periodic_points", "lyapunov.cocycle_exponents",
         "mapfile.load_map"]
#: call counts reported as ``<layer>.<fn>.calls``
_CALLS = ["geometry.poly_gcd", "geometry.proj_distance", "maps.compose",
          "maps.degree_sequence", "maps.apply", "maps.indeterminacy_set",
          "cohomology.lattice_for_plane_map", "stability.exceptional_orbits",
          "potential.green_partial", "measure.saddle_periodic_points",
          "mapfile.load_map"]
#: sibling functions reported together as one inclusive time
_GROUPS = {
    "stability.summability.s": ["stability.forward_summability",
                                "stability.backward_summability"],
    "measure.observables.s": ["measure.coordinate_observables", "measure.measure_average",
                              "measure.invariance_residual", "measure.mixing_correlation"],
}
_SELF_LAYERS = ["geometry", "maps", "stability", "potential", "energy", "measure",
                "lyapunov"]

#: every op of every workload, for the ``op.<subcommand>.<map>.s`` metrics
ALL_OPS = [op.id for ops in WORKLOADS.values() for op in ops]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(ops: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics, summed over the workload's ops.

    Span aggregates, counters and ``cli.*`` come from the traced pass;
    ``process.*`` and the ``op.<subcommand>.<map>.s`` times come from the
    untraced samples, and ``trace.overhead_s`` is the traced pass's op time
    minus theirs.  Op times are at the reference speed, as ``ref_wall_s``,
    except the raw ``process.wall_s`` and ``process.import_s``;
    ``process.probe_s`` is the median probe loop time, which shows how
    fast the host ran.  Traced times include the probe's, about 2%.
    """
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    cli_self = 0.0
    for r in traced:
        tr = r.get("trace")
        if tr is None:
            continue
        for k, v in tr["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in tr["incl_s"].items():
            incl[k] = incl.get(k, 0.0) + v
        for k, v in tr["layer_self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in tr["counters"].items():
            if k == "excluded_mass":  # a per-op share: report the largest
                counters[k] = max(counters.get(k, 0.0), v)
            else:
                counters[k] = counters.get(k, 0) + v
        cli_self += tr["outside_s"]

    m: dict[str, tuple[float, str]] = {}
    for layer in _SELF_LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for name in _CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in _INCL:
        m[f"{name}.s"] = (incl.get(name, 0.0), "s")
    for metric, names in _GROUPS.items():
        m[metric] = (sum(incl.get(n, 0.0) for n in names), "s")
    m["geometry.proj_distance.exact_share"] = (
        _ratio(counters.get("proj_distance_exact", 0), calls.get("geometry.proj_distance", 0)),
        "ratio")
    m["potential.grid_points_per_s"] = (
        _ratio(counters.get("grid_points", 0), incl.get("potential.green_grid", 0.0)), "1/s")
    spp = calls.get("measure.saddle_periodic_points", 0)
    m["measure.empty_period_share"] = (_ratio(counters.get("saddle_empty", 0), spp), "ratio")
    m["measure.saddle_points"] = (counters.get("saddle_points", 0), "count")
    m["measure.saddle_points_per_s"] = (
        _ratio(counters.get("saddle_points", 0), incl.get("measure.saddle_periodic_points", 0.0)),
        "1/s")
    m["lyapunov.point_steps_per_s"] = (
        _ratio(counters.get("point_steps", 0), incl.get("lyapunov.cocycle_exponents", 0.0)),
        "1/s")
    m["lyapunov.excluded_mass"] = (counters.get("excluded_mass", 0.0), "ratio")

    timed = [r for r in ops if "op_s" in r]
    m["cli.self_s"] = (cli_self, "s")
    m["cli.bytes_written"] = (sum(r["bytes"] for r in traced), "bytes")
    m["cli.artifacts_changed"] = (sum(r["changed"] for r in traced), "count")
    m["process.import_s"] = (_median(r["import_s"] for r in timed), "s")
    m["process.cpu_s"] = (_sum_of_op_medians(timed, "cpu_s"), "s")
    m["process.wall_s"] = (_sum_of_op_medians(timed, "op_s"), "s")
    m["process.probe_s"] = (_median(t for r in timed for t in r["op_probe_s"]), "s")
    traced_wall = sum(r["ref_s"] for r in traced if "ref_s" in r)
    m["trace.overhead_s"] = (traced_wall - _sum_of_op_medians(timed, "ref_s"), "s")
    for op_id in ALL_OPS:
        times = [r["ref_s"] for r in timed if r["op"].id == op_id]
        m[f"op.{op_id}.s"] = (_median(times), "s")
    return m


#: the layer function each subcommand reaches on every run that exits 0
ENTRY = {"inspect": "maps.degree_sequence", "stability": "stability.check_orbit_separation",
         "green": "potential.green_grid", "measure": "measure.saddle_periodic_points",
         "lyapunov": "lyapunov.cocycle_exponents",
         "energy-selftest": "energy.energy_monotonicity_check"}


def trace_problems(traced: list[dict]) -> list[str]:
    """What the traced pass shows wrong with the tracing itself.

    ``cli.self_s`` is the remainder of each op's time after its spans, so
    a layer call the tracer missed would hide there.  Besides the
    tracer's own findings (open or badly nested spans, untraced
    references), every op on a map must show its ``load_map`` call, and
    every op that exits 0 the entry function of its subcommand.
    """
    problems = []
    for r in traced:
        tr = r.get("trace")
        if tr is None:
            continue
        op = r["op"]
        found = list(tr["problems"])
        if op.map_name is not None and not tr["calls"].get("mapfile.load_map"):
            found.append("no mapfile.load_map span")
        if r["exit"] == 0 and not tr["calls"].get(ENTRY[op.subcommand]):
            found.append(f"no {ENTRY[op.subcommand]} span")
        problems += [f"{op.id} (traced): {p}" for p in found]
    return problems


def samples_per_op(ops: list[dict]) -> dict:
    """How many untraced timings each op's median is taken over."""
    counts = {r["op"].id: 0 for r in ops}
    for r in (r for r in ops if "op_s" in r):
        counts[r["op"].id] += 1
    return counts


def machine_record(results: list[dict]) -> dict:
    """nproc, CPU model, Python and the numeric stack the workers loaded."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = next((r["versions"] for r in results if "versions" in r), {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "biratdyn" / "cli.py").is_file():
        print(f"error: no biratdyn sources under {SRC}", file=sys.stderr)
        return 2
    # bytecode is compiled once here, before any worker is timed
    if not (compileall.compile_dir(SRC, quiet=1) and compileall.compile_dir(BENCH, quiet=1)):
        print("error: compiling the sources failed", file=sys.stderr)
        return 2
    with open(BENCH / "reference.json") as fh:
        reference = json.load(fh)

    ops = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        started = time.monotonic()
        untraced = run_untraced(ops, args.seed, scratch, started,
                                min(args.seconds, RUN_DEADLINE_S / 2), reference,
                                reserve_pass=bool(args.trace))
        traced: list[dict] = []
        if args.trace:
            trace_dir = TRACE_OUT / f"trace-{args.workload}-{args.seed}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            traced = run_pass(ops, args.seed, scratch, "traced", trace_dir, started,
                              reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = untraced + traced
    problems = [f"{r['op'].id}: {p}" for r in everything for p in r["problems"]]
    problems += trace_problems(traced)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print("machine " + json.dumps(machine_record(everything), sort_keys=True))
    print("samples: untraced timings per op " + json.dumps(samples_per_op(untraced)))

    metrics = layer_metrics(untraced, traced) if args.trace else end_to_end_metrics(untraced)
    failed = sum(bool(r["problems"]) for r in everything)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
