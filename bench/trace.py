"""Span recording around the layers' public entry points, from outside.

A traced pass installs wrappers, at run time and from ``bench/`` only,
around the functions and methods the per-layer metrics are named after;
nothing under ``src/`` is edited (in-program tracing is a later issue).
Every wrapper is bound where the callee is *looked up*: a method on its
class, a module-level function in every loaded ``repro`` module that
imported it by name. :meth:`Tracer.uninstall` puts every original back.

One :class:`Tracer` belongs to one pass process. Spans sit on a
per-process stack, so a span's self time is its duration minus the part
its child spans cover. Per name the tracer keeps a call count, the self
time, and the inclusive time of outermost calls; individual
``(name, start, end, parent)`` spans are kept in memory as well, except
for names marked *hot* (per-request calls on the scalar paths), which
only aggregate. Coroutines interleave on one loop, so they cannot share
the stack: :meth:`Tracer.wrap_async` just collects call durations.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer"]

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent span index or -1]`` per kept span.
        self.spans: List[List[Any]] = []
        #: name -> ``[calls, self seconds, outermost inclusive seconds]``.
        self.totals: Dict[str, List[float]] = {}
        #: stage -> name -> self seconds (see :meth:`set_stage`).
        self.by_stage: Dict[str, Dict[str, float]] = {}
        #: Exact work counts taken at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}
        #: name -> per-call durations of wrapped coroutines.
        self.durations: Dict[str, List[float]] = {}
        #: Free-form observations a boundary hook wants to keep for the
        #: read-out (not written to the trace file).
        self.kept: Dict[str, Any] = {}
        self._stage = "setup"
        # Open frames: [name, start, child seconds, span index or -1].
        self._stack: List[List[Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def set_stage(self, stage: str) -> None:
        """Attribute the self time of spans closed from now on to ``stage``."""
        self._stage = stage

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrapper(
        self,
        fn: Callable,
        name: str,
        hot: bool,
        after: Optional[Callable[["Tracer", tuple, dict, Any], None]],
    ) -> Callable:
        stack = self._stack
        spans = self.spans
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = -1
            if not hot:
                parent = -1
                for frame in reversed(stack):
                    if frame[3] >= 0:
                        parent = frame[3]
                        break
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [name, _clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[1]
                self_time = duration - frame[2]
                totals[0] += 1
                totals[1] += self_time
                if not any(f[0] == name for f in stack):
                    totals[2] += duration
                if stack:
                    stack[-1][2] += duration
                stage = self.by_stage.setdefault(self._stage, {})
                stage[name] = stage.get(name, 0.0) + self_time
                if index >= 0:
                    spans[index][1] = frame[1]
                    spans[index][2] = end
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        hot: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap ``cls.attr`` where it is defined (plain or classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrapper(raw.__func__, name, hot, after))
        else:
            wrapped = self._wrapper(raw, name, hot, after)
        self._set(cls, attr, wrapped)

    def wrap_subclasses(self, base: type, attrs: Dict[str, str]) -> None:
        """Wrap ``attrs`` (method -> span name) on every loaded subclass of
        ``base`` that defines the method itself."""
        pending = list(base.__subclasses__())
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for attr, name in attrs.items():
                raw = cls.__dict__.get(attr)
                if raw is not None and callable(raw):
                    self.wrap_method(cls, attr, name)

    def wrap_function(
        self,
        module: Any,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap a module-level function in every module that looks it up:
        its home module and each loaded ``repro``/bench module holding a
        ``from ... import`` binding of the same object."""
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, False, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(("repro", "bench")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def wrap_async(
        self,
        cls: type,
        attr: str,
        name: str,
        keep: Optional[Callable[[tuple, dict], bool]] = None,
    ) -> None:
        """Collect the duration of each ``await cls.attr(...)`` under ``name``.

        ``keep(args, kwargs)`` filters which calls are collected.
        """
        fn = cls.__dict__[attr]
        bucket = self.durations.setdefault(name, [])

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if keep is not None and not keep(args, kwargs):
                return await fn(*args, **kwargs)
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                bucket.append(_clock() - start)

        self._set(cls, attr, traced)

    def uninstall(self) -> None:
        """Restore every binding :meth:`_set` replaced, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # read-out
    # ------------------------------------------------------------------ #
    def _total(self, name: str, column: int) -> float:
        return self.totals[name][column] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return int(self._total(name, 0))

    def self_s(self, name: str) -> float:
        return float(self._total(name, 1))

    def total_s(self, name: str) -> float:
        """Inclusive seconds of the outermost calls of ``name``."""
        return float(self._total(name, 2))

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, JSON-ready (written out when the pass ends)."""
        return {
            "spans": self.spans,
            "totals": {k: list(v) for k, v in self.totals.items()},
            "by_stage": self.by_stage,
            "counts": self.counts,
        }
