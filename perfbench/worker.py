"""Run one biratdyn CLI operation in this fresh process and report on it.

Usage: ``python3 perfbench/worker.py SPEC_JSON`` where the spec holds the
source directory, the CLI arguments, whether to trace, and the paths to
write the result (and, when tracing, the raw spans) to.

The result records the seconds taken by ``import biratdyn`` in this
process, the seconds from just before ``biratdyn.cli.main(argv)`` until it
returns, the speed probe's loop times during each of the two (see
``SpeedProbe``), the exit code, the process's CPU seconds and peak
resident set, and with tracing the per-layer aggregates of the spans.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import resource
import signal
import sys
import time
import traceback

#: seconds of wall time between two runs of the probe loop
PROBE_INTERVAL_S = 0.1
#: iterations of the probe loop, about 2 ms on the host the benchmark was first run on
PROBE_ITERATIONS = 10_000


class SpeedProbe:
    """How fast this core runs Python while biratdyn works.

    On a shared host the speed of a core changes by up to 1.7x within a
    second, as other tenants come and go on the same physical core, and
    a process may move between cores.  Every ``PROBE_INTERVAL_S`` of wall
    time ``SIGALRM`` runs a fixed pure-Python loop in this process and
    records how long it took.  The loop does the same work every time and
    touches nothing of biratdyn, so its times show the host's speed along
    the timed span, and a change to biratdyn shows in full.  The seconds
    spent in the probe are taken out of the span's time.
    """

    def __init__(self):
        self.loops: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(PROBE_ITERATIONS):
            table[i % 97] = table.get(i % 97, 0) + (i * i) % 7
        t1 = time.perf_counter()
        self.loops.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def timed(self, fn):
        """``fn()``, its seconds without the probe's, and the probe's loop
        times: one taken just before, the rest during."""
        self.loops = []
        self._sample()
        self.spent = 0.0
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0 - self.spent
        return result, seconds, self.loops


def run_cli(cli, argv):
    """Exit code and traceback of one CLI call; an escaped exception is a
    failed op, not a crash of the worker."""
    try:
        return cli.main(argv), None
    except Exception:
        return None, traceback.format_exc()


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    probe = SpeedProbe()
    probe.start()
    _, import_s, import_probe = probe.timed(lambda: importlib.import_module("biratdyn"))
    from biratdyn import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    (rc, error), op_s, op_probe = probe.timed(lambda: run_cli(cli, spec["argv"]))
    t1 = time.perf_counter()
    probe.stop()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    sympy = sys.modules["sympy"]
    result = {
        "import_s": import_s,
        "op_s": op_s,
        "import_probe_s": import_probe,
        "op_probe_s": op_probe,
        "exit": rc,
        "error": error,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "versions": {
            **{m: sys.modules[m].__version__ for m in ("numpy", "scipy", "sympy", "mpmath")},
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "sympy_ground_types": sympy.external.gmpy.GROUND_TYPES,
        },
    }
    if tracer is not None:
        result["trace"] = tracer.aggregate(t0, t1)
        with open(spec["spans"], "w") as fh:
            json.dump(tracer.spans(), fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
