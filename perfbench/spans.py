"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of the package boundary: the
tracer replaces ``forward``/``backward`` on each layer and model *instance*
and a few module-level functions. The package code itself is unchanged, and
an untraced run never imports this module.

Spans stay in memory as ``[name, start, end, parent]`` rows and are reduced
to per-name call counts, total time and self time (duration minus the time
covered by child spans) when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# Module functions the traced run wraps. The package calls some of them from
# its own functions (fit calls evaluate, adam_step and batch_cross_entropy;
# load_model calls build_model), so the module attribute is replaced rather
# than the benchmark's call site.
PATCHED_FUNCTIONS = {
    "faultfusion.training": ("fit", "evaluate", "adam_step", "batch_cross_entropy"),
    "faultfusion.data": ("synth_dataset", "read_manifest", "build_dataset"),
    "faultfusion.model": ("build_model", "load_model", "save_model"),
}
BRANCHES = ("vib", "ac", "head")
_MIB = 1024.0 * 1024.0


def cache_bytes(obj, seen: set[int] | None = None) -> int:
    """Bytes of the distinct numpy arrays reachable through dicts/lists/tuples."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(cache_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(cache_bytes(v, seen) for v in obj)
    return 0


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.max_forward_cache_bytes = 0

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        row = [name, 0.0, 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            probs, caches = self.call("model.forward", fn, *args, **kwargs)
            self.max_forward_cache_bytes = max(self.max_forward_cache_bytes, cache_bytes(caches))
            return probs, caches

        return traced

    def instrument_model(self, model) -> None:
        """Wrap the passes of one model instance and of each of its layers."""
        if "forward" in vars(model):  # already instrumented
            return
        for branch in BRANCHES:
            for idx, layer in enumerate(getattr(model, f"{branch}_layers") or []):
                stem = f"layers.{branch}.{idx}.{type(layer).__name__}"
                layer.forward = self.wrap(f"{stem}.fwd", layer.forward)
                layer.backward = self.wrap(f"{stem}.bwd", layer.backward)
        model.forward = self._wrap_forward(model.forward)
        model.backward = self.wrap("model.backward", model.backward)

    def _wrap_model_factory(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            model = self.call(name, fn, *args, **kwargs)
            self.instrument_model(model)
            return model

        return traced

    def patch(self, modules) -> None:
        """Replace the functions in PATCHED_FUNCTIONS on the given modules."""
        for mod in modules:
            prefix = mod.__name__.rsplit(".", 1)[1]
            for fn_name in PATCHED_FUNCTIONS[mod.__name__]:
                original = getattr(mod, fn_name)
                span = f"{prefix}.{fn_name}"
                if fn_name in ("build_model", "load_model"):
                    replacement = self._wrap_model_factory(span, original)
                else:
                    replacement = self.wrap(span, original)
                self._restore.append((mod, fn_name, original))
                setattr(mod, fn_name, replacement)

    def unpatch(self) -> None:
        while self._restore:
            mod, fn_name, original = self._restore.pop()
            setattr(mod, fn_name, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, mean_ms and self_mean_ms."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        acc: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = acc[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return {
            name: {
                "calls": calls,
                "mean_ms": 1e3 * total / calls,
                "self_mean_ms": 1e3 * self_total / calls,
            }
            for name, (calls, total, self_total) in acc.items()
        }

    @property
    def max_forward_cache_mib(self) -> float:
        return self.max_forward_cache_bytes / _MIB
