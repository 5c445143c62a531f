"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each traced public function of twistor4 with a
wrapper at every place a caller looks it up: the defining module and every
twistor4 module or package namespace that bound it by ``from .x import f``.
Methods are replaced on their class.  ``uninstall`` puts the originals
back, so untraced passes run the program exactly as shipped.

A span is ``[name, start_ns, end_ns, parent, item]``; all spans stay in
memory and ``write`` stores them at the end of the run.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Public functions traced, by layer (module under twistor4).
FUNCTIONS = {
    "cli": ("main",),
    "classify": ("enumerate_configurations", "classify", "model_from_document",
                 "model_from_schedule"),
    "lattice": ("realize_cycle", "elementary_transform",
                "smooth_anticanonical_cycle"),
    "schema": ("loads_document", "parse_document", "document_for",
               "document_digest", "canonical_json"),
    "cohomology": ("chern_numbers", "pairing_matrix", "pairing_kernel"),
    "cycles": ("h0_formula", "h0_oracle"),
    "linalg": ("rank", "bareiss_determinant", "nullspace", "left_nullspace"),
}
METHODS = {
    "lattice": (("AnticanonicalCycle", "validate"),),
    "classify": (("ClassificationReport", "as_dict"),),
}
LAYERS = tuple(FUNCTIONS)
ITEM_SPAN = "bench.item"


def _module(layer):
    # ``import twistor4.classify`` would yield the function the package
    # re-exports under that name, not the submodule.
    return importlib.import_module("twistor4." + layer)


def _layer_of(exc):
    """The twistor4 layer whose code raised ``exc`` (innermost frame)."""
    layer = "unknown"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("twistor4."):
            layer = name.split(".", 1)[1]
        tb = tb.tb_next
    return layer


class Tracer:
    def __init__(self):
        errors = _module("errors")
        self._twistor_error = errors.TwistorError
        self._schedule_error = errors.ScheduleError
        self.spans = []
        self.stack = []
        self.item = -1
        self.divisor_objects = 0
        self.rejected = {}
        self._last_rejection = None
        self._restore = []

    # -- recording -----------------------------------------------------------
    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            except self._twistor_error as exc:
                self._count_rejection(exc)
                raise
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _count_rejection(self, exc):
        # an exception unwinds through several wrappers; count it once
        if exc is self._last_rejection:
            return
        self._last_rejection = exc
        tag = getattr(exc, "tag", None)
        if tag is None:
            tag = ("malformed" if isinstance(exc, self._schedule_error)
                   else type(exc).__name__)
        key = f"{_layer_of(exc)}.rejected.{tag}"
        self.rejected[key] = self.rejected.get(key, 0) + 1

    # -- patching ------------------------------------------------------------
    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "twistor4" or n.startswith("twistor4.")]
        for layer, names in FUNCTIONS.items():
            module = _module(layer)
            for attr in names:
                original = getattr(module, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is original:
                            self._set(namespace, bound, wrapper)
        for layer, methods in METHODS.items():
            module = _module(layer)
            for cls_name, attr in methods:
                cls = getattr(module, cls_name)
                self._set(cls, attr, self.wrap(f"{layer}.{attr}",
                                               vars(cls)[attr]))
        divisor = _module("lattice").DivisorClass
        post_init = vars(divisor)["__post_init__"]

        def counted(obj):
            self.divisor_objects += 1
            post_init(obj)

        self._set(divisor, "__post_init__", counted)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------
    def mark(self):
        """Start a pass: counters reset, spans from here belong to it."""
        self.divisor_objects = 0
        self.rejected = {}
        return len(self.spans)

    def summary(self, first):
        """Calls, self and inclusive nanoseconds per span name since
        ``first``, plus the pass's counters."""
        spans = self.spans[first:]
        children = [0] * len(spans)
        for record in spans:
            if record[3] >= first:
                children[record[3] - first] += record[2] - record[1]
        calls, self_ns, incl_ns = {}, {}, {}
        for record, child in zip(spans, children):
            name, duration = record[0], record[2] - record[1]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + duration - child
            incl_ns[name] = incl_ns.get(name, 0) + duration
        return {"calls": calls, "self_ns": self_ns, "incl_ns": incl_ns,
                "divisor_objects": self.divisor_objects,
                "rejected": dict(self.rejected)}

    def write(self, path):
        names = sorted({record[0] for record in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "item"],
                       "names": names,
                       "spans": [[index[r[0]]] + r[1:] for r in self.spans]},
                      handle, separators=(",", ":"))
