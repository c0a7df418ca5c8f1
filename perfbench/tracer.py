"""In-memory spans around the calls the benchmark makes into each layer.

Spans are recorded from outside the library: the tracer wraps the stage
chain an :class:`~repro.engine.session.EditSession` would build (installed
back with ``with_engine``), the training algorithm and the models it
returns, and every rule generator after each preselect.  Nothing under
``src/`` changes.

A span is ``(id, name, start, end, parent, trace, phase, attrs)``.  The
parent is the enclosing span on the same thread, or the benchmark's
current root span for work that runs on the serving layer's worker
threads; ``trace`` names one edit or served session; ``phase`` is the
benchmark phase (``setup``, ``round``, ``resume``) the span ran in.  Self
time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.engine import EditEngine

#: Stage class name -> layer name.  Unknown stages get ``engine.<name>``.
STAGE_LAYERS = {
    "ModificationStage": "engine.setup",
    "FeedbackStage": "engine.feedback",
    "PreselectStage": "engine.preselect",
    "SelectionStage": "engine.selection",
    "GenerationStage": "engine.generation",
    "AcceptanceStage": "engine.acceptance",
}

MODEL_LAYERS = ("models.fit", "models.predict", "models.partial_update")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str | None
    phase: str | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace": self.trace,
            "phase": self.phase,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans from any thread; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase: str | None = None
        #: Parent for spans opened on a thread with no open span.
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str, *, trace: str | None = None, **attrs: Any):
        """Time the body as span ``name``; yields its mutable ``attrs``."""
        stack = self._stack()
        if stack:
            parent, _, inherited = stack[-1]
        else:
            parent, inherited = self.root, None
        span_id = next(self._ids)
        trace = trace if trace is not None else inherited
        stack.append((span_id, name, trace))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, trace, self.phase, attrs)
            )

    @contextmanager
    def root_span(self, name: str, *, trace: str | None = None, **attrs: Any):
        """A span that also parents work on other threads while open."""
        with self.span(name, trace=trace, **attrs) as out:
            outer = self.root
            self.root = self._stack()[-1][0]
            try:
                yield out
            finally:
                self.root = outer

    # ------------------------------------------------------------------ #
    # Wrappers around the library's layers.
    def algorithm(self, algorithm, model_name: str):
        """Wrap a ``Dataset -> model`` training algorithm."""

        def traced(dataset):
            with self.span("models.fit", model=model_name, rows=int(dataset.n)):
                model = algorithm(dataset)
            self.instrument_model(model)
            return model

        return traced

    def instrument_model(self, model) -> None:
        """Time ``predict`` / ``predict_proba`` / ``partial_update``."""
        for attr in ("predict", "predict_proba"):
            setattr(model, attr, self._predict_wrapper(getattr(model, attr)))
        if hasattr(model, "partial_update"):
            update = model.partial_update

            def partial_update(delta):
                with self.span("models.partial_update", rows=int(delta.n)):
                    return update(delta)

            model.partial_update = partial_update

    def _predict_wrapper(self, method):
        def predict(table):
            # predict() calls predict_proba(): count the outer call once.
            if self.current_name() == "models.predict":
                return method(table)
            with self.span("models.predict", rows=int(table.n_rows)):
                return method(table)

        return predict

    def instrument_generators(self, state) -> None:
        """Time every rule generator's ``generate`` (neighbour search
        included); called after each preselect, which may build new ones."""
        for generator in state.generators:
            if getattr(generator, "_bench_traced", False):
                continue
            generate = generator.generate

            def traced_generate(*args, _generate=generate, **kwargs):
                with self.span("sampling.generate") as attrs:
                    out = _generate(*args, **kwargs)
                    attrs["rows"] = int(out.n)
                return out

            generator.generate = traced_generate
            generator._bench_traced = True

    def stage(self, inner):
        """A delegating timer around one stage, named like the stage so
        the engine's per-stage timings keep their keys."""
        name = type(inner).__name__
        cls = type(name, (_TracedStage,), {})
        return cls(inner, self, STAGE_LAYERS.get(name, f"engine.{name.lower()}"))

    def engine(self, session, trace: str) -> EditEngine:
        """The session's own engine with every stage wrapped; install it
        with ``session.with_engine(...)``."""
        base = session.build_engine()
        return _TracedEngine(
            self,
            trace,
            stages=[self.stage(s) for s in base.stages],
            setup_stages=[self.stage(s) for s in base.setup_stages],
        )

    # ------------------------------------------------------------------ #
    # Aggregation.
    def self_times(self) -> dict[int, float]:
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return {s.id: s.duration - child_time.get(s.id, 0.0) for s in self.spans}

    def coverage(self, parent_names: tuple[str, ...]) -> float:
        """Share of the named spans' time covered by their direct
        children (union of intervals, so concurrent children count once)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        covered = total = 0.0
        for span in self.spans:
            if span.name not in parent_names:
                continue
            total += span.duration
            end_so_far = span.start
            for start, end in sorted(children.get(span.id, ())):
                start, end = max(start, end_so_far), min(end, span.end)
                if end > start:
                    covered += end - start
                    end_so_far = end
        return covered / total if total > 0 else float("nan")


class _TracedStage:
    def __init__(self, inner, tracer: Tracer, layer: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.layer = layer

    def run(self, state) -> None:
        stale = bool(getattr(state, "population_stale", False))
        with self.tracer.span(self.layer, stale=stale):
            self.inner.run(state)
        if self.layer == "engine.preselect":
            self.tracer.instrument_generators(state)


class _TracedEngine(EditEngine):
    """Times the engine's three entry points under one trace id."""

    def __init__(self, tracer: Tracer, trace: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self.trace = trace

    def initialize(self, state):
        with self.tracer.span("engine.initialize", trace=self.trace):
            return super().initialize(state)

    def step(self, state):
        with self.tracer.span("engine.step", trace=self.trace):
            return super().step(state)

    def finalize(self, state):
        with self.tracer.span("engine.finalize", trace=self.trace):
            return super().finalize(state)
