"""Layer spans recorded from outside the program, by wrapping its public names.

Each layer is a dotted name that callers resolve: a module function (every
`stc` module binding the same object is wrapped, because `from .x import f`
copies the binding) or a class method.  A span's self time is its duration
minus the durations of the spans it encloses, so the self times of all
layers add up to the duration of the outermost span.  A name the program no
longer has is reported as missing, never as an error.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (layer, dotted name).  The layer names the metric prefix.
LAYERS = (
    ("cli.overhead", "stc.cli.main"),
    ("formats.parse", "stc.formats.parse_edgelist"),
    ("formats.parse", "stc.formats.parse_extension"),
    ("formats.serialize", "stc.formats.serialize_edgelist"),
    ("digraph.build", "stc.digraph.Digraph.__init__"),
    ("digraph.classify", "stc.digraph.classify"),
    ("digraph.reaches", "stc.digraph.reaches"),
    ("extension.validate", "stc.extension.TreeExtension.require_valid"),
    ("extension.canonicality", "stc.extension.TreeExtension.canonicality_violations"),
    ("extension.width", "stc.extension.TreeExtension.width"),
    ("extension.scan_cut", "stc.extension.TreeExtension.scan_cut"),
    ("extension.default", "stc.extension.default_extension"),
    ("extension.canonicalize", "stc.extension.canonicalize"),
    ("reduction.step", "stc.extension.update_extension"),
    ("reduction.check", "stc.reduction.AugmentedInstance.check"),
    ("reduction.pipeline", "stc.reduction.preprocess"),
    ("solver.dp", "stc.solver.solve"),
    ("solver.replay", "stc.solver.reconstruct_witness"),
    ("solver.certificate", "stc.solver.check_embedding"),
)

# update_extension runs once per rewrite step; its span is filed under the
# step's kind so that each rewrite of the reduction has its own layer.
STEP_LAYERS = {
    "RestrictStep": "reduction.prune",
    "StretchStep": "reduction.stretch",
    "InSplitStep": "reduction.insplit",
    "AttachRootStep": "reduction.attach_root",
}


def resolve(dotted):
    """(owner, attribute, object) for a dotted name, or None when it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = obj
        try:
            for attr in parts[cut:]:
                owner, obj = obj, getattr(obj, attr)
        except AttributeError:
            return None
        return owner, parts[-1], obj
    return None


class Tracer:
    """Accumulates self time and call counts per layer while installed."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.missing = []        # dotted names the program no longer has
        self.installed = set()   # layers with at least one wrapped name
        self._open = []          # child time accumulated by each open span
        self._undo = []

    def install(self, layers=LAYERS):
        self.missing, self.installed = [], set()
        for layer, dotted in layers:
            found = resolve(dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, attr, original = found
            self.installed.add(layer)
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for name, module in sorted(sys.modules.items()):
                if module is None or not (name == "stc" or name.startswith("stc.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer, fn):
        tracer = self
        stepped = layer == "reduction.step"

        def span(*args, **kwargs):
            name = layer
            if stepped:
                step = args[1] if len(args) > 1 else kwargs.get("step")
                name = STEP_LAYERS.get(type(step).__name__, "reduction.other_step")
            tracer._open.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = tracer._open.pop()
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - children
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if tracer._open:
                    tracer._open[-1] += duration

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", layer)
        return span
