"""Benchmark-side spans around the calls into each layer.

The program's own ``repro.obs`` spans are aggregate histograms without
parent links, so per-request self times come from here: :class:`Tracer`
patches the name each *caller* resolves (``repro.dsp.pipeline.sosfilt``,
not ``repro.dsp.filters.sosfilt``) with a wrapper that records a span
``(name, start, end, parent)`` on a per-thread stack.  A layer's self
time is its span's duration minus the time its direct children cover.

Spans are kept in memory and summarised when the run ends; nothing is
patched until :meth:`Tracer.install`, and :meth:`Tracer.uninstall`
restores every original attribute.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable

#: ``(owner dotted path, attribute, span name)`` for every wrapper.  The
#: owner is the module or class whose attribute the caller looks up.
LAYER_PATCHES: tuple[tuple[str, str, str], ...] = (
    # dsp: Preprocessor.process_batch_detailed / process_debug resolve
    # these names in repro.dsp.pipeline's namespace.
    ("repro.dsp.pipeline", "detection_signals_batch", "dsp.onset"),
    ("repro.dsp.pipeline", "detect_onset_from_signal", "dsp.onset"),
    ("repro.dsp.pipeline", "detect_onset", "dsp.onset"),
    ("repro.dsp.pipeline", "segment_after_onset", "dsp.onset"),
    ("repro.dsp.pipeline", "replace_outliers_batch", "dsp.outliers"),
    ("repro.dsp.pipeline", "replace_outliers", "dsp.outliers"),
    ("repro.dsp.pipeline", "sosfilt", "dsp.filters"),
    ("repro.dsp.pipeline", "min_max_normalize", "dsp.normalize"),
    # core.frontend: the engine calls the instance's methods.
    ("repro.core.frontend.RectifiedSpectralFrontEnd", "transform_batch", "frontend"),
    ("repro.core.frontend.RectifiedSpectralFrontEnd", "transform", "frontend"),
    # core.engine / nn: the extractor forward.
    ("repro.core.engine", "extract_embeddings", "extractor"),
    # scoring: cancelable projection and cosine distances.
    ("repro.security.cancelable.CancelableTransform", "apply", "scoring"),
    ("repro.core.verification", "distances_to_template", "scoring"),
    ("repro.core.system", "cosine_distance", "scoring"),
    # core.gallery
    ("repro.core.gallery.sharded.ShardedGallery", "best_match", "gallery.best_match"),
    ("repro.core.gallery.sharded.ShardedGallery", "sync", "gallery.sync"),
    ("repro.core.gallery.sharded.ShardedGallery", "upsert", "gallery.mutation"),
    ("repro.core.gallery.sharded.ShardedGallery", "remove", "gallery.mutation"),
    # stream.dsp / stream.session
    ("repro.stream.dsp.StreamingSOSFilter", "push", "stream.filter"),
    ("repro.stream.dsp.StreamingOnsetDetector", "push", "stream.onset"),
    ("repro.stream.session.StreamSession", "push", "stream.push"),
)

#: Span name -> positional argument whose length a span records as
#: its ``tag`` (rows of the extractor's feature batch).
ROWS_ARGUMENT = {"extractor": 1}

#: Span name of the benchmark's own per-operation root.
REQUEST = "request"
#: Span name of one micro-batch on a serving worker thread, from the
#: moment ``DynamicBatcher.next_batch`` hands it out until that worker
#: asks for the next one.
BATCH = "serve.batch"


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Span:
    """One timed call; ``tag`` carries the extractor's row count."""

    __slots__ = ("name", "start", "end", "parent", "children_s", "tag")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.tag = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Per-thread span stacks over patched layer entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fired: dict[str, int] = {}  # closed spans per name
        self.patch_calls: dict[tuple[str, str], int] = {}  # per patched name
        self.batches: list[tuple[Span, list]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration
        with self._lock:
            self.spans.append(span)
            self.fired[span.name] = self.fired.get(span.name, 0) + 1

    def wrap(self, name: str, fn: Callable, patch: tuple[str, str]) -> Callable:
        tracer = self
        rows_arg = ROWS_ARGUMENT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.patch_calls[patch] = tracer.patch_calls.get(patch, 0) + 1
            span = tracer.open(name)
            if rows_arg is not None:
                span.tag = len(args[rows_arg])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Patch every layer entry point and the serving batcher."""
        for owner_path, attr, name in LAYER_PATCHES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            # An inherited method is shadowed on the subclass and the
            # shadow deleted again on uninstall.
            own = not isinstance(owner, type) or attr in owner.__dict__
            self._undo.append((owner, attr, original if own else None))
            setattr(owner, attr, self.wrap(name, original, (owner_path, attr)))
        from repro.serve.batcher import DynamicBatcher

        original = DynamicBatcher.next_batch
        self._undo.append((DynamicBatcher, "next_batch", original))
        tracer = self

        @functools.wraps(original)
        def next_batch(batcher):
            # Asking for the next batch ends this worker's previous one.
            previous = getattr(tracer._local, "batch", None)
            if previous is not None:
                tracer._local.batch = None
                tracer.close(previous)
            batch = original(batcher)
            if batch is not None:
                span = tracer.open(BATCH)
                tracer._local.batch = span
                with tracer._lock:
                    tracer.batches.append((span, list(batch)))
            return batch

        DynamicBatcher.next_batch = next_batch

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def by_root(self) -> dict[int, list[Span]]:
        """Recorded spans grouped by ``id`` of their root span."""
        groups: dict[int, list[Span]] = {}
        for span in self.spans:
            groups.setdefault(id(span.root()), []).append(span)
        return groups
