"""Spans and counters recorded from outside stencilc.

``Tracer.install`` replaces module attributes of stencilc with wrappers,
and ``Tracer.uninstall`` puts the originals back. This works because the
pass driver (``stencilc.backend.operator._compile``) and ``Operator.apply``
look these names up in their module globals at call time. Nothing inside
stencilc is edited.

Spans record name, start, end and parent. A layer's self time is its span
minus the time its child spans cover. Counters record calls, and no spans,
on functions that run too often for a span each.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

#: (module, attribute) wrapped with a span, and the span's layer name.
SPANNED = [
    ("stencilc.backend.operator", "lower", "lowering"),
    ("stencilc.backend.operator", "clusterize", "clustering"),
    ("stencilc.backend.operator", "run_dse", "dse"),
    ("stencilc.backend.operator", "build_iet", "iet.build"),
    ("stencilc.backend.operator", "analyze_iet", "iet.analysis"),
    ("stencilc.backend.operator", "block_loops", "iet.blocking"),
    ("stencilc.backend.operator", "place_declarations", "iet.placement"),
    ("stencilc.backend.operator", "emit_c", "codegen.emit"),
    ("stencilc.backend.operator", "run", "interpreter"),
    ("stencilc.clustering", "get_dependences", "dependence"),
    ("stencilc.iet", "get_dependences", "dependence"),
]

#: Functions counted wherever a stencilc module binds them, keyed by the
#: module that defines them.
COUNTED_EVERYWHERE = [
    ("stencilc.lowering", "affine_offset"),
    ("stencilc.lowering", "collect_accesses"),
]

#: Functions counted only as bound in one module.
COUNTED_IN = [
    ("stencilc.backend.interpreter", "evaluate"),
    ("stencilc.backend.interpreter", "free_symbols"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    #: len() of the wrapped call's result, where it has one
    size: Optional[int] = None
    #: counter deltas over the span, for spans opened with ``counts=True``
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    Spans assume one thread: the traced run applies with ``workers=1``.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: list = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, result=None):
        span = self.spans[index]
        span.end = perf_counter()
        if isinstance(result, (list, tuple)):
            span.size = len(result)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, counts: bool = False):
        """A span around the benchmark's own call into a layer. With
        ``counts``, the span keeps the counter deltas over its length."""
        before = Counter(self.counts) if counts else None
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)
            if before is not None:
                delta = Counter(self.counts)
                delta.subtract(before)
                self.spans[index].counts = {k: v for k, v in delta.items()
                                            if v}

    def children(self, index: int) -> List[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index: int) -> float:
        """The span's duration minus the time its children cover. Children
        run one after another on one thread, so they do not overlap."""
        span = self.spans[index]
        return span.duration - sum(c.duration for c in self.children(index))

    # -- wrapping -----------------------------------------------------------

    def install(self):
        """Wrap every traced name. Call ``uninstall`` to undo."""
        for modname, attr, layer in SPANNED:
            self._patch(modname, attr, self._spanned(layer))
        for defmod, attr in COUNTED_EVERYWHERE:
            original = getattr(importlib.import_module(defmod), attr)
            for modname, mod in sorted(sys.modules.items()):
                if modname.startswith("stencilc") and \
                        getattr(mod, attr, None) is original:
                    self._patch(modname, attr, self._counted(attr))
        for modname, attr in COUNTED_IN:
            self._patch(modname, attr, self._counted(attr))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _patch(self, modname: str, attr: str, make_wrapper):
        mod = importlib.import_module(modname)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make_wrapper(original))

    def _spanned(self, layer: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                index = self.open(layer)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self.close(index, result)
            return wrapper
        return make

    def _counted(self, name: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    def span(self, name: str, counts: bool = False):
        return contextlib.nullcontext()
