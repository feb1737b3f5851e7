"""Spans recorded around the public functions of the `cts` layers.

A wrap point names the module (or class) attribute a caller looks a function
up by: `models.train` is wrapped as `cts.search.train`, `cts.experiment.train`
and `cts.baselines.train`, the names its callers use. Replacing the attribute
reaches every caller that resolves the name at call time. Spans are
kept in memory as (name, start, end, parent, meta) and written out at the end.

Phase points wrap the coarse calls the end-to-end metrics are computed from
(a handful per operation, so they are on in every run). Layer points wrap the
per-step functions; they are patched only in a traced run, and record only
while `Recorder.layers_on` is set.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

PHASE_POINTS = [
    ("cts.search", "run_cts", "search.run_cts"),
    ("cts.experiment", "run_cts", "search.run_cts"),
    ("cts.search", "search_phase", "search.search_phase"),
    ("cts.search", "train", "models.train"),
    ("cts.experiment", "train", "models.train"),
    ("cts.baselines", "train", "models.train"),
    ("cts.experiment", "run_cell", "experiment.cell"),
    ("cts.experiment", "run_experiment", "experiment.sweep"),
    ("cts.baselines", "run_ltr", "baselines.run_ltr"),
]

LAYER_POINTS = [
    ("cts.data:Dataset", "batch", "data.batch"),
    ("cts.tensor", "backward", "tensor.backward"),
    ("cts.objectives", "value_and_alpha_grad", "objectives.alpha_grad"),
    ("cts.objectives", "teacher_layer_grads", "objectives.teacher_grads"),
    ("cts.objectives", "hard_value", "objectives.hard_value"),
    ("cts.controllers", "gradbalance_step", "controllers.step"),
    ("cts.controllers", "adam_update", "controllers.adam"),
    ("cts.controllers", "sample_logistic", "mask.sample"),
    ("cts.controllers", "sparsity_loss_grad", "mask.sparsity_grad"),
    ("cts.mask", "expected_density", "mask.expected_density"),
    ("cts.mask", "clamp_topk", "mask.clamp"),
    ("cts.models", "evaluate", "models.evaluate"),
    ("cts.experiment", "evaluate", "models.evaluate"),
    ("cts.baselines", "snip_scores", "baselines.snip"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    meta: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """Records nested spans around patched functions; undo() restores them.

    `hooks` maps a span name to hook(args, kwargs) -> finish(out) | None. A
    hook runs outside the span it belongs to and may return meta via finish.
    """

    def __init__(self, hooks=None):
        self.layers_on = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []
        self._hooks = hooks or {}

    def _wrap(self, name, fn, layer):
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            if layer and not self.layers_on:
                return fn(*args, **kwargs)
            finish = hook(args, kwargs) if hook else None
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if finish:
                span.meta = finish(out) or {}
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, points, layer: bool = False) -> None:
        for target, attr, name in points:
            owner = _resolve(target)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, layer))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path, t0: float) -> None:
        rows = [{"name": s.name, "start_s": s.start - t0, "end_s": s.end - t0,
                 "parent": s.parent, **({"meta": s.meta} if s.meta else {})}
                for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f)


def self_time(spans: list[Span], idx: int, children: dict[int, list[int]]) -> float:
    return spans[idx].dur - sum(spans[c].dur for c in children.get(idx, ()))


def child_index(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            out.setdefault(s.parent, []).append(i)
    return out


def ancestor(spans: list[Span], idx: int, name: str) -> int:
    """Index of the nearest enclosing span with the given name, or -1."""
    p = spans[idx].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p
