"""Spans around the library's layers, recorded from outside the library.

:class:`Tracer` patches the public functions each layer exposes, at the
names its callers look them up by, so that every call records a span
``(name, start, end, parent, request id, ok)``.  Nothing inside ``src/``
is changed; :meth:`Tracer.uninstall` puts every original back.  Spans stay
in memory until the run ends.  Counts of the work each layer did are
taken from the same wrappers' arguments and results.

The layers, as the span names give them:

* ``separators.minimal_separators``, ``pmc.potential_maximal_cliques``
  and ``core.context.build`` (the blocks and PMC index, as self time):
  context initialisation;
* ``preprocess.plan`` and ``preprocess.compose``: reductions, atoms and
  the recomposition of per-atom streams;
* ``core.mintriang.base_dp``: the unconstrained block DP;
* ``api.stream.first_pop`` / ``api.stream.next``: one ``RankedStream``
  step, whose ``engine.expand`` child runs the constrained Lawler–Murty
  DPs;
* ``api.session.init`` / ``api.session.stream``: the session calls;
* ``bench.request``: one whole request, as the benchmark's client made
  it; its self time is what no layer span explains.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, request id, ok]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._popped: weakref.WeakSet = weakref.WeakSet()
        self.request_id: int | None = None

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.request_id, True])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, ok: bool = True) -> None:
        span = self.spans[index]
        span[2] = _now()
        span[5] = ok
        self._stack.pop()

    # -- patching --------------------------------------------------------
    def _wrap(self, owner, attr: str, name, on_result=None) -> None:
        original = owner.__dict__[attr]
        kind = type(original) if isinstance(
            original, (staticmethod, classmethod)
        ) else None
        func = original.__func__ if kind else original
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name(args) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.close(index, ok=False)
                raise
            tracer.close(index)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Patch every traced layer entry point."""
        import repro.api.session as session_mod
        import repro.api.stream as stream_mod
        import repro.core.context as context_mod
        from repro.engine.strategy import SerialStrategy
        from repro.preprocess.recompose import (
            ComposedRankedStream,
            PreprocessPlan,
        )

        counts = self.counts

        def context_built(_args, ctx) -> None:
            counts["separators"] += len(ctx.separators)
            counts["pmcs"] += len(ctx.pmcs)
            counts["blocks"] += len(ctx.blocks)
            counts["contexts"] += 1

        def plan_built(_args, plan) -> None:
            counts["atoms"] += len(plan.decomposition.atoms)
            counts["plans"] += 1

        def expanded(args, outcomes) -> None:
            counts["expansions"] += len(args[1])
            counts["children"] += sum(o is not None for o in outcomes)

        for attr in ("minimal_separator_masks", "minimal_separators"):
            self._wrap(context_mod, attr, "separators.minimal_separators")
        for attr in (
            "potential_maximal_clique_masks",
            "potential_maximal_cliques",
        ):
            self._wrap(context_mod, attr, "pmc.potential_maximal_cliques")
        self._wrap(
            context_mod.TriangulationContext, "build", "core.context.build",
            context_built,
        )
        self._wrap(PreprocessPlan, "build", "preprocess.plan", plan_built)
        self._wrap(ComposedRankedStream, "start", "preprocess.compose")
        self._wrap(ComposedRankedStream, "__next__", "preprocess.compose")
        for module in (session_mod, stream_mod):
            self._wrap(
                module, "min_triangulation_and_table", "core.mintriang.base_dp"
            )

        popped = self._popped

        def step_name(args) -> str:
            stream = args[0]
            if stream in popped:
                return "api.stream.next"
            popped.add(stream)
            return "api.stream.first_pop"

        self._wrap(stream_mod.RankedStream, "__next__", step_name)
        self._wrap(SerialStrategy, "expand", "engine.expand", expanded)
        self._wrap(session_mod.Session, "__init__", "api.session.init")
        self._wrap(session_mod.Session, "stream", "api.session.stream")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for name, start, end, parent, _req, _ok in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _req, _ok) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called ``name`` that returned normally."""
        return [
            end - start
            for n, start, end, _p, _r, ok in self.spans
            if n == name and ok
        ]
