"""Spans around the calls into each acso layer, installed from outside.

`Tracer.install` wraps every binding of the traced functions: a function
imported with `from .x import f` is a separate name in each importing
module, so every `acso` module attribute that is the function gets the
wrapper.  Methods are wrapped on their class, which catches every caller.
`uninstall` puts the originals back, so untraced rounds run the program
as shipped.

A span's self time is its duration minus the time covered by its child
spans.  Totals are kept per layer; the individual spans of one round are
kept in memory and written out when the run ends, except those of the
per-element layers in `AGGREGATED`, which are counted only (a search
round makes about 10^5 of them).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer name -> (module, attribute) or (module, class, method)
LAYERS = {
    "cli": [("acso.cli", "main")],
    "spacefile.parse": [("acso.spacefile", "space_file_from_text")],
    "gradedring.ring_build": [("acso.gradedring", "GradedRing", "__init__")],
    "gradedring.maps": [("acso.gradedring", "CoefficientMap", "__init__")],
    "gradedring.system_validate": [("acso.gradedring", "RingSystem",
                                    "validate")],
    "gradedring.mul": [("acso.gradedring", "RingElement", "__mul__")],
    "gradedring.divide": [("acso.gradedring", "divide_by")],
    "gradedring.lift": [("acso.gradedring", "integral_lifts")],
    "intlin.solve": [("acso.intlin", "solve_integer_linear")],
    "intlin.smith": [("acso.intlin", "smith_normal_form")],
    "obstruct.bundle_validate": [("acso.obstruct", "BundleData", "__init__")],
    "obstruct.wu": [("acso.obstruct", "validate_wu_formula")],
    "obstruct.search": [("acso.obstruct", "survey_candidates")],
    "obstruct.verdict": [("acso.obstruct", "acs_verdict")],
    "report.render": [("acso.report", "render_json"),
                      ("acso.report", "render_text")],
}

AGGREGATED = {"gradedring.mul", "gradedring.divide"}


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.bindings = {}
        self.spans = None  # list while recording, else None
        self._open = []    # [children seconds, span index] per open span
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            found = 0
            for target in targets:
                found += self._install_one(layer, target)
            self.bindings[layer] = found

    def _install_one(self, layer, target) -> int:
        module = importlib.import_module(target[0])
        if len(target) == 3:
            cls = getattr(module, target[1])
            original = cls.__dict__[target[2]]
            self._patch(cls, target[2], self._wrap(layer, original))
            return 1
        original = getattr(module, target[1])
        wrapper = self._wrap(layer, original)
        found = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "acso" or name.startswith("acso.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
                    found += 1
        return found

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------

    def _wrap(self, layer, fn):
        tracer = self
        clock = time.perf_counter
        hook = _HOOKS.get(layer)
        keep = layer not in AGGREGATED
        # only element-by-element products count, not scalar multiples
        is_mul = layer == "gradedring.mul"

        def traced(*args, **kwargs):
            if is_mul and isinstance(args[1], int):
                return fn(*args, **kwargs)
            index = None
            if keep and tracer.spans is not None:
                parent = tracer._open[-1][1] if tracer._open else None
                index = len(tracer.spans)
                tracer.spans.append([layer, 0.0, 0.0, parent])
            frame = [0.0, index]
            tracer._open.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._open.pop()
                duration = end - start
                tracer.total[layer] += duration
                tracer.self_time[layer] += duration - frame[0]
                tracer.calls[layer] += 1
                if tracer._open:
                    tracer._open[-1][0] += duration
                if index is not None:
                    tracer.spans[index][1:3] = [start, end]
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        for table in (self.total, self.self_time, self.calls, self.counts):
            table.clear()


def _count_basis(counts, args, result) -> None:
    ring = args[0]
    counts["basis_monomials"] += sum(len(ring.basis(d))
                                     for d in range(ring.cutoff + 1))


def _count_search(counts, args, outcome) -> None:
    counts["candidates_enumerated"] += outcome.enumerated
    counts["candidates_admissible"] += outcome.admissible
    counts["vanishing_found"] += len(outcome.vanishing)


def _count_lifts(counts, args, found) -> None:
    counts["lifts_found"] += len(found.lifts)


_HOOKS = {
    "gradedring.ring_build": _count_basis,
    "obstruct.search": _count_search,
    "gradedring.lift": _count_lifts,
}


def layer_metrics(tracer: Tracer) -> dict:
    """One traced round's per-layer figures, keyed by metric name."""
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    enumerated = c["candidates_enumerated"]
    return {
        "cli.self_s": s["cli"],
        "spacefile.parse_self_s": s["spacefile.parse"],
        "gradedring.ring_build_s": t["gradedring.ring_build"],
        "gradedring.rings_built": n["gradedring.ring_build"],
        "gradedring.basis_monomials": c["basis_monomials"],
        "gradedring.maps_s": t["gradedring.maps"],
        "gradedring.system_validate_s": t["gradedring.system_validate"],
        "gradedring.mul_calls": n["gradedring.mul"],
        "gradedring.mul_s": t["gradedring.mul"],
        "gradedring.divide_calls": n["gradedring.divide"],
        "gradedring.divide_s": t["gradedring.divide"],
        "gradedring.lift_calls": n["gradedring.lift"],
        "gradedring.lifts_found": c["lifts_found"],
        "gradedring.lift_s": t["gradedring.lift"],
        "intlin.solve_calls": n["intlin.solve"],
        "intlin.solve_s": t["intlin.solve"],
        "intlin.smith_s": t["intlin.smith"],
        "obstruct.bundle_validate_s": s["obstruct.bundle_validate"],
        "obstruct.wu_s": t["obstruct.wu"],
        "obstruct.search_s": s["obstruct.search"],
        "obstruct.candidates_enumerated": enumerated,
        "obstruct.candidates_admissible": c["candidates_admissible"],
        "obstruct.admissible_ratio": (c["candidates_admissible"] / enumerated
                                      if enumerated else 0.0),
        "obstruct.vanishing_found": c["vanishing_found"],
        "obstruct.verdict_self_s": s["obstruct.verdict"],
        "report.render_s": t["report.render"],
    }
