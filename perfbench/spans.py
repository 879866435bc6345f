"""Spans and counters around the public functions of ``bnscan``.

Tracing rebinds module attributes: for every function listed in
``TARGETS`` the wrapper replaces each attribute of a ``bnscan`` module
that holds the original function object, so callers that imported the
function by name (``complex.compose``, ``cli.scan``, ``sq1.scan_order``,
...) are caught as well.  ``Tracer.uninstall`` puts the originals back and
``Tracer.restored`` checks that it did.

Spans (name, start, end, parent, knot) are kept in memory and written out
by ``Tracer.write``.  Self time is a span's duration minus the time of its
child spans.  Functions that are called once per scalar or per entry
lookup (``cancellable_coefficient``, ``gauss_eliminate``) are counted but
not timed, and ``bnscan.coeff`` is not wrapped at all: a wrapper there
would cost more than the work it measures.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function, span name or None for count-only)
TARGETS = (
    ("cli", "run", "cli.run"),
    ("diagram", "parse_knot_line", "diagram.parse"),
    ("diagram", "orient_and_sign", "diagram.orient"),
    ("diagram", "scan_order", "diagram.scan_order"),
    ("cob", "compose", "cob.compose"),
    ("cob", "glue_cobs", "cob.glue_cobs"),
    ("cob", "glue_tangles", "cob.glue_tangles"),
    ("cob", "deloop_iso", "cob.deloop_iso"),
    ("complex", "scan", "complex.scan"),
    ("complex", "tensor_with_crossing", "complex.tensor"),
    ("complex", "deloop", "complex.deloop"),
    ("complex", "reduce_pass", "complex.reduce"),
    ("complex", "gauss_eliminate", None),
    ("complex", "cancellable_coefficient", None),
    ("sinv", "from_filtered", "sinv.from_filtered"),
    ("sinv", "s_from_based", "sinv.readoff"),
    ("sq1", "normal_form", "sq1.normal_form"),
    ("sq1", "intersect_with_p", "sq1.quotient"),
    ("sq1", "survives_quotient", "sq1.quotient"),
)

MODULES = ("cli", "cob", "complex", "diagram", "sinv", "sq1")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, knot)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.knot = -1
        self.hook_s = 0.0  # time spent measuring results after a call
        self._stack: list[list] = []  # [span index, start, child time]
        self._patched: list[tuple] = []  # (module, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def install(self):
        import importlib

        mods = [importlib.import_module(f"bnscan.{m}") for m in MODULES]
        mods.append(importlib.import_module("bnscan"))
        for home, func, name in TARGETS:
            original = getattr(sys.modules[f"bnscan.{home}"], func)
            wrapper = self._wrap(original, name, func)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)

    def restored(self):
        """True when every rebound attribute holds its original again."""
        return bool(self._patched) and all(
            getattr(mod, attr) is original
            for mod, attr, original in self._patched
        )

    def _wrap(self, fn, name, func):
        if name is None:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[func] += 1
                return fn(*args, **kwargs)

            return counted

        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        after = self._after.get(name)

        def timed(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                spans[idx] = (name, frame[1], end, parent, self.knot)
                self.self_s[name] += dur - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                # the measurement is tracing overhead, not the caller's work
                after(self, result)
                hook = clock() - end
                self.hook_s += hook
                if stack:
                    stack[-1][2] += hook
            return result

        return timed

    # -- per-function counters read from results ------------------------------

    def _compose_done(self, cob):
        if cob.is_zero():
            self.counts["compose_zero"] += 1

    def _order_done(self, order):
        self.counts["girth_max"] = max(self.counts["girth_max"], order.girth)

    def _phase_done(self, C):
        self.counts["peak_objects"] = max(self.counts["peak_objects"], len(C.obj))
        entries = sum(len(outs) for outs in C.out.values())
        self.counts["peak_entries"] = max(self.counts["peak_entries"], entries)

    def _based_done(self, D):
        self.counts["final_generators"] += len(D.h)

    def _nf_done(self, nf):
        self.counts["slides"] += nf.slides

    _after = {
        "cob.compose": _compose_done,
        "diagram.scan_order": _order_done,
        "complex.tensor": _phase_done,
        "complex.deloop": _phase_done,
        "complex.reduce": _phase_done,
        "sinv.from_filtered": _based_done,
        "sq1.normal_form": _nf_done,
    }

    # -- overhead ----------------------------------------------------------------

    def overhead_s(self, reps=20000):
        """Estimated wall time that tracing added to the traced calls.

        Per-call cost of a timed and of a counting wrapper, measured on a
        function that does nothing, times the calls made, plus the time
        spent measuring results.
        """
        def nop():
            return None

        probe = Tracer()
        clock = time.perf_counter
        costs = []
        for wrapped in (probe._wrap(nop, "probe", "probe"),
                        probe._wrap(nop, None, "probe")):
            t0 = clock()
            for _ in range(reps):
                wrapped()
            t1 = clock()
            for _ in range(reps):
                nop()
            costs.append(max(0.0, (t1 - t0) - (clock() - t1)) / reps)
        counted = sum(self.counts[f] for _m, f, name in TARGETS if name is None)
        return sum(self.calls.values()) * costs[0] + counted * costs[1] + self.hook_s

    # -- output ----------------------------------------------------------------

    def metrics(self, knots):
        """Per-layer metrics: self times, call counts, sizes and ratios."""
        s, n, c = self.self_s, self.calls, self.counts
        compose = n["cob.compose"]
        cancel_tests = c["cancellable_coefficient"]
        return {
            "diagram.parse_s": (s["diagram.parse"], "s"),
            "diagram.orient_s": (s["diagram.orient"], "s"),
            "diagram.scan_order_s": (s["diagram.scan_order"], "s"),
            "diagram.girth_max": (c["girth_max"], "count"),
            "cob.compose_calls": (compose, "count"),
            "cob.compose_s": (s["cob.compose"], "s"),
            "cob.compose_zero_ratio": (
                c["compose_zero"] / compose if compose else 0.0, "ratio"),
            "cob.glue_cobs_calls": (n["cob.glue_cobs"], "count"),
            "cob.glue_cobs_s": (s["cob.glue_cobs"], "s"),
            "cob.glue_tangles_calls": (n["cob.glue_tangles"], "count"),
            "cob.deloop_iso_calls": (n["cob.deloop_iso"], "count"),
            "cob.deloop_iso_s": (s["cob.deloop_iso"], "s"),
            "complex.scans": (n["complex.scan"], "count"),
            "complex.scans_per_knot": (n["complex.scan"] / knots, "count"),
            "complex.tensor_s": (s["complex.tensor"], "s"),
            "complex.deloop_s": (s["complex.deloop"], "s"),
            "complex.reduce_s": (s["complex.reduce"], "s"),
            "complex.eliminations": (c["gauss_eliminate"], "count"),
            "complex.elim_yield": (
                c["gauss_eliminate"] / cancel_tests if cancel_tests else 0.0,
                "ratio"),
            "complex.peak_objects": (c["peak_objects"], "count"),
            "complex.peak_entries": (c["peak_entries"], "count"),
            "sinv.from_filtered_s": (s["sinv.from_filtered"], "s"),
            "sinv.readoff_s": (s["sinv.readoff"], "s"),
            "sinv.final_generators": (c["final_generators"], "count"),
            "sq1.normal_form_s": (s["sq1.normal_form"], "s"),
            "sq1.slides": (c["slides"], "count"),
            "sq1.quotient_s": (s["sq1.quotient"], "s"),
            "cli.self_s": (s["cli.run"], "s"),
        }

    def write(self, path, knot_names):
        with open(path, "w") as f:
            for name, start, end, parent, knot in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent,
                    "knot": knot_names[knot] if knot >= 0 else None,
                }) + "\n")


# Counts that must repeat exactly between two traced passes of one input.
REPEATED = (
    "cob.compose_calls",
    "complex.eliminations",
    "complex.peak_objects",
    "complex.peak_entries",
    "sq1.slides",
    "complex.scans",
)
