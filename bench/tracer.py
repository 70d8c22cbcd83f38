"""Span tracer that times nlcurv's public functions from outside the package.

`Tracer` rebinds every module attribute of ``nlcurv`` that refers to a
traced function (several are imported into other modules by name, e.g.
``bending_energy`` and ``build_scheme`` inside ``nlcurv.flow``), records
one span per call, and restores the originals on exit.  `layer_metrics`
turns the spans of one op into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from dataclasses import dataclass, field


def _energy_info(args, kwargs, result):
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    return {"pairs": scheme.n_samples ** 2, "energy": result.energy}


def _patch_info(args, kwargs, result):
    return {"attempted": len(result),
            "nongraphical": sum(1 for r in result if math.isnan(r))}


# span name -> (module, traced functions, extractor of counts from a call)
TARGETS = {
    "surface.build": ("nlcurv.surface", ("build_surface",), None),
    "quadrature.scheme": ("nlcurv.quadrature", ("build_scheme",), None),
    "functionals.energy": ("nlcurv.functionals",
                           ("bending_energy", "willmore_energy",
                            "tangent_point_energy"), _energy_info),
    "flow.minimize": ("nlcurv.flow", ("minimize",), None),
    "flow.gradient": ("nlcurv.flow", ("energy_gradient",), None),
    "flow.record": ("nlcurv.flow", ("hausdorff_to_best_sphere",), None),
    "probes.patch": ("nlcurv.probes", ("patch_radii",), _patch_info),
    "probes.chordarc": ("nlcurv.probes", ("chord_arc_constant",), None),
    "probes.stability": ("nlcurv.probes", ("stability_probe",), None),
    "seminorms.sobolev": ("nlcurv.seminorms", ("sobolev_seminorm",), None),
    "seminorms.holder": ("nlcurv.seminorms", ("holder_seminorm",), None),
    "seminorms.lq": ("nlcurv.seminorms", ("lq_norm",), None),
    "geodesics.distances": ("nlcurv.geodesics", ("intrinsic_distances",),
                            None),
}

# Reported as self time: span duration minus the part its traced callees
# cover, so these and cli.other.s add up to the op time in one thread.  The
# flow spans are drivers and are reported inclusive of their callees.
SELF_TIMED = tuple(n for n in TARGETS if not n.startswith("flow."))

# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "surface.build.calls": ("count", "lower"),
    "surface.build.s": ("s", "lower"),
    "quadrature.scheme.calls": ("count", "lower"),
    "quadrature.scheme.s": ("s", "lower"),
    "functionals.energy.calls": ("count", "lower"),
    "functionals.energy.s": ("s", "lower"),
    "functionals.pairs": ("count", "lower"),
    "functionals.pairs_per_s": ("1/s", "higher"),
    "functionals.scaling_eff": ("ratio", "higher"),
    "flow.gradient.calls": ("count", "lower"),
    "flow.gradient.s": ("s", "lower"),
    "flow.gradient.energy_calls": ("count", "lower"),
    "flow.linesearch.trials": ("count", "lower"),
    "flow.linesearch.rejections": ("count", "lower"),
    "flow.linesearch.s": ("s", "lower"),
    "flow.record.s": ("s", "lower"),
    "probes.patch.s": ("s", "lower"),
    "probes.patch.nongraphical": ("ratio", "lower"),
    "probes.chordarc.s": ("s", "lower"),
    "probes.stability.s": ("s", "lower"),
    "seminorms.sobolev.s": ("s", "lower"),
    "seminorms.holder.s": ("s", "lower"),
    "seminorms.lq.s": ("s", "lower"),
    "geodesics.distances.calls": ("count", "lower"),
    "geodesics.distances.s": ("s", "lower"),
    "cli.other.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Work counts that must repeat exactly from one traced op to the next.
COUNTS = tuple(k for k, (unit, _) in LAYER_METRICS.items()
               if unit == "count") + ("probes.patch.nongraphical",)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Context manager: traces nlcurv calls made inside the with-block.

    A span opened in a pool thread with no open span of its own takes as
    parent the innermost span open in the thread that entered the tracer,
    which is the thread that submitted the work in every nlcurv pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_stack
                parent = owner[-1] if owner else None
            span = Span(name, parent)
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    def __enter__(self):
        self._owner = threading.current_thread()
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nlcurv" or n.startswith("nlcurv.")]
        for name, (modname, funcs, info) in TARGETS.items():
            home = importlib.import_module(modname)
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(name, original, info)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span: its duration minus the part its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        inside = [(max(spans[k].start, s.start), min(spans[k].end, s.end))
                  for k in kids]
        out.append((s.end - s.start) - covered([iv for iv in inside
                                                if iv[1] > iv[0]]))
    return out


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _linesearch(spans):
    """Trials, rejections and time of the line searches in `minimize`.

    The first energy a minimize call evaluates itself is the starting
    energy; every later one is a trial, accepted exactly when it is below
    the current energy (the rule `minimize` applies).
    """
    trials = rejections = 0
    seconds = 0.0
    for i, s in enumerate(spans):
        if s.name != "flow.minimize":
            continue
        kids = [k for k, c in enumerate(spans) if c.parent == i]
        energies = [spans[k].info["energy"] for k in kids
                    if spans[k].name == "functionals.energy"
                    and spans[k].info]
        if not energies:
            continue  # minimize raised before its first energy returned
        current = energies[0]
        for e in energies[1:]:
            trials += 1
            if e < current:
                current = e
            else:
                rejections += 1
        seconds += (s.end - s.start) - sum(
            spans[k].end - spans[k].start for k in kids
            if spans[k].name in ("flow.gradient", "flow.record"))
    return trials, rejections, seconds


def layer_metrics(spans, op_seconds):
    """Per-layer metrics of one op from its spans (scaling_eff and
    trace.overhead need several ops and are filled in by the caller)."""
    st = self_times(spans)
    m = dict.fromkeys(LAYER_METRICS, 0)
    for i, s in enumerate(spans):
        if s.name in SELF_TIMED:
            m[s.name + ".s"] += st[i]
            m[s.name + ".calls"] = m.get(s.name + ".calls", 0) + 1
    energies = [s for s in spans if s.name == "functionals.energy"]
    m["functionals.pairs"] = sum(s.info.get("pairs", 0) for s in energies)
    if m["functionals.energy.s"] > 0:
        m["functionals.pairs_per_s"] = (m["functionals.pairs"]
                                        / m["functionals.energy.s"])
    grads = [s for s in spans if s.name == "flow.gradient"]
    m["flow.gradient.calls"] = len(grads)
    m["flow.gradient.s"] = sum(s.end - s.start for s in grads)
    m["flow.gradient.energy_calls"] = sum(
        1 for i, s in enumerate(spans) if s.name == "functionals.energy"
        and _has_ancestor(spans, i, "flow.gradient"))
    (m["flow.linesearch.trials"], m["flow.linesearch.rejections"],
     m["flow.linesearch.s"]) = _linesearch(spans)
    m["flow.record.s"] = sum(s.end - s.start for s in spans
                             if s.name == "flow.record")
    patches = [s.info for s in spans if s.name == "probes.patch" and s.info]
    attempted = sum(p["attempted"] for p in patches)
    if attempted:
        m["probes.patch.nongraphical"] = (
            sum(p["nongraphical"] for p in patches) / attempted)
    m["cli.other.s"] = op_seconds - covered(
        [(s.start, s.end) for s in spans if s.parent is None])
    return {k: m[k] for k in LAYER_METRICS}


def energy_wall(spans):
    """Wall time during which at least one energy call was running."""
    return covered([(s.start, s.end) for s in spans
                    if s.name == "functionals.energy"])
