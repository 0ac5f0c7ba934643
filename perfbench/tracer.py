"""Span tracing installed from outside the analysed program.

The benchmark never edits ``src/repro``.  Instead, :class:`Tracer`
replaces public entry points (module functions, methods, class-method
constructors) with timing wrappers for the duration of a traced
iteration and puts the originals back afterwards, so untraced
iterations run the unmodified code.

Every wrapped call opens a span with a name, a start, an end and the
span that was open when it started (its parent).  A span's *self* time
is its duration minus the time covered by its children; because the
program under test is single-threaded here, spans nest strictly and the
self times of all spans inside a root add up to the root's duration.
Spans are kept in memory; :meth:`Tracer.dump` writes them out as JSON
lines at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Union

#: a span name, or a function of the wrapped call's positional
#: arguments that returns one (e.g. the serve method being evaluated)
SpanName = Union[str, Callable[[tuple], str]]


class _Frame:
    __slots__ = ("span_id", "name", "start", "children")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    """Collects spans from wrapped entry points.

    ``label`` is substituted for ``{c}`` in span names, so one wrapper
    around ``WorklistSolver.solve`` attributes its time to whichever
    solver configuration the harness is running.
    """

    def __init__(self) -> None:
        self.label = ""
        self.records: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: calls whose parent span has a different name (a detector hook
        #: delegating to a sub-detector is one call, not two)
        self.calls: Counter = Counter()
        #: values handed to ``capture`` callbacks, by span name; counted
        #: after the traced region so counting never lands inside a span
        self.captured: Dict[str, list] = defaultdict(list)
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._specs: List[tuple] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        if "{c}" in name:
            name = name.replace("{c}", self.label)
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent.name != name:
            self.calls[name] += 1
        self._next_id += 1
        frame = _Frame(self._next_id, name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, keep: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.self_s[frame.name] += duration - frame.children
        self.total_s[frame.name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children += duration
        if keep:
            self.records.append(
                (
                    frame.span_id,
                    frame.name,
                    frame.start,
                    end,
                    parent.span_id if parent is not None else None,
                )
            )

    def span(self, name: str) -> "_SpanContext":
        """Open a span from the harness itself (e.g. one timed request)."""
        return _SpanContext(self, name)

    def reset(self) -> None:
        """Forget aggregates and captures (records are kept for dump)."""
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.captured.clear()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _wrap(
        self,
        name: SpanName,
        fn: Callable,
        capture: Optional[Callable] = None,
        keep: bool = True,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            frame = tracer._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, keep)
            if capture is not None:
                tracer.captured[frame.name].append(capture(args, result))
            return result

        return wrapper

    def wrap_method(
        self,
        owner: type,
        attr: str,
        name: SpanName,
        capture: Optional[Callable] = None,
        keep: bool = True,
    ) -> None:
        """Register a method (plain, class- or static-) for wrapping."""
        self._specs.append(("method", owner, attr, name, capture, keep))

    def wrap_function(
        self,
        module,
        attr: str,
        name: SpanName,
        capture: Optional[Callable] = None,
    ) -> None:
        """Register a module function for wrapping *everywhere* it is
        bound: modules that did ``from x import f`` hold their own
        reference, so each loaded ``repro`` module carrying the same
        object is patched too."""
        self._specs.append(("function", module, attr, name, capture, True))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for kind, owner, attr, name, capture, keep in self._specs:
            if kind == "method":
                # an inherited method is shadowed on ``owner`` and the
                # shadow deleted again on uninstall
                inherited = attr not in owner.__dict__
                raw = next(
                    c.__dict__[attr] for c in owner.__mro__ if attr in c.__dict__
                )
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(
                        self._wrap(name, raw.__func__, capture, keep)
                    )
                else:
                    wrapped = self._wrap(name, raw, capture, keep)
                self._patches.append((owner, attr, None if inherited else raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, capture, keep)
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "repro" or module_name.startswith("repro.")
                ):
                    continue
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.records:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.frame, True)
