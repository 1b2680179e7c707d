"""Outside-in tracer: spans around calls into each biratdyn layer.

The tracer wraps every public function of each layer module and rebinds
the wrapper in every ``biratdyn`` namespace that imported the function by
name, so calls made through ``cli``'s imports or between layers are
caught too.  Nothing under ``src/`` is edited; the wrapping lives only in
the traced worker process.

Spans stay in memory (name, parent, start, end) and are turned into
per-function and per-layer aggregates once the operation has returned.
A layer's self time is its spans' durations minus the parts covered by
their child spans.  ``cli.self_s`` is the operation's time outside every
span, so by definition it is the remainder: the self times of all spans
plus ``cli.self_s`` add up to the operation's time.  What can go wrong
is checked instead (``problems``): a span left open, a span outside its
parent or outside the operation, and an unwrapped layer function still
held by a ``biratdyn`` module (directly or in a module-level table),
whose calls would land in ``cli.self_s`` unseen.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

#: layer modules, in the order of the package's own layering
LAYERS = ("geometry", "maps", "cohomology", "stability", "potential",
          "energy", "measure", "lyapunov", "mapfile")

#: methods traced besides module-level functions
METHODS = (("maps", "RationalSurfaceMap", "indeterminacy_set"),
           ("maps", "RationalSurfaceMap", "critical_set"))


class Tracer:
    """Span recorder plus the few per-call counters the benchmark reports."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.stack: list[int] = []
        #: id of each wrapped original -> its wrapper
        self.wrapped: dict[int, object] = {}
        self.counters = {
            "proj_distance_exact": 0,
            "saddle_empty": 0,
            "saddle_points": 0,
            "grid_points": 0,
            "point_steps": 0,
            "excluded_mass": 0.0,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function and rebind it everywhere.

        Modules come from ``sys.modules``: the package re-exports a function
        named ``energy`` that shadows the ``biratdyn.energy`` module as a
        package attribute.
        """
        wrapped = self.wrapped
        for layer in LAYERS:
            mod = sys.modules[f"biratdyn.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "biratdyn" and not mod_name.startswith("biratdyn."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not isinstance(obj, types.ModuleType):
                    setattr(mod, name, wrapped[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"biratdyn.{layer}"], cls_name)
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", getattr(cls, meth)))

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        probe = _PROBES.get(qualname)
        span_name, span_parent = self.span_name, self.span_parent
        span_t0, span_t1, stack = self.span_t0, self.span_t1, self.stack
        counters = self.counters

        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_t1.append(0.0)
            stack.append(sid)
            result = exc = None
            span_t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span_t1[sid] = perf_counter()
                stack.pop()
                if probe is not None:
                    probe(counters, args, kwargs, result, exc)

        return functools.wraps(fn)(traced)

    # -- aggregation -------------------------------------------------------

    def aggregate(self, op_t0: float, op_t1: float) -> dict:
        """Per-function calls and inclusive time, per-layer self time, and
        the problems found in the spans of an operation timed from
        ``op_t0`` to ``op_t1``.

        A function's inclusive time counts only its outermost spans, so
        recursion or nesting of one function is not counted twice.
        """
        n = len(self.span_name)
        op_s = op_t1 - op_t0
        dur = [self.span_t1[i] - self.span_t0[i] for i in range(n)]
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            nid = self.span_name[i]
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + dur[i]
        return {
            "spans": n,
            "calls": calls,
            "incl_s": incl,
            "layer_self_s": layer_self,
            "outside_s": op_s - roots,
            "counters": dict(self.counters),
            "problems": self.problems(op_t0, op_t1),
        }

    def problems(self, op_t0: float, op_t1: float) -> list[str]:
        """Spans that are open or not nested, and unwrapped references."""
        found = []
        t0, t1, parent = self.span_t0, self.span_t1, self.span_parent
        for i in range(len(self.span_name)):
            p = parent[i]
            lo, hi = (op_t0, op_t1) if p < 0 else (t0[p], t1[p])
            if not lo <= t0[i] <= t1[i] <= hi:
                what = "the operation" if p < 0 else self.names[self.span_name[p]]
                found.append(f"span {self.names[self.span_name[i]]} is open or "
                             f"not inside {what}")
                if len(found) >= 5:
                    break
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "biratdyn" and not mod_name.startswith("biratdyn."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.ModuleType):
                    continue
                # a module-level table of functions would escape the rebinding
                held = obj.values() if isinstance(obj, dict) else \
                    obj if isinstance(obj, (list, tuple)) else (obj,)
                if any(id(x) in self.wrapped for x in held):
                    found.append(f"{mod_name}.{name} holds an untraced layer function")
        return found

    def spans(self) -> dict:
        """The raw spans, for writing out once the operation has ended."""
        return {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "t0": list(self.span_t0),
            "t1": list(self.span_t1),
        }


# ---------------------------------------------------------------------------
# probes: per-call counters read from arguments and results


def _probe_proj_distance(c, args, kwargs, result, exc):
    if args[0].exact and args[1].exact:  # every caller passes p, q positionally
        c["proj_distance_exact"] += 1


def _probe_saddle_periodic_points(c, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "NoSaddlesFound":
        c["saddle_empty"] += 1
    elif result is not None:
        c["saddle_points"] += len(result.points)


def _probe_green_grid(c, args, kwargs, result, exc):
    if result is not None:
        c["grid_points"] += int(result.size)


def _probe_cocycle_exponents(c, args, kwargs, result, exc):
    if result is None:
        return
    cloud = args[1] if len(args) > 1 else kwargs["cloud"]
    steps = args[2] if len(args) > 2 else kwargs["n"]
    c["point_steps"] += len(cloud.points) * int(steps)
    c["excluded_mass"] = max(c["excluded_mass"], float(result.excluded_mass))


_PROBES = {
    "geometry.proj_distance": _probe_proj_distance,
    "measure.saddle_periodic_points": _probe_saddle_periodic_points,
    "potential.green_grid": _probe_green_grid,
    "lyapunov.cocycle_exponents": _probe_cocycle_exponents,
}
