"""Outside-in span recorder for the traced benchmark mode.

The recorder wraps a program's public functions and methods from the
benchmark's own files; nothing inside ``src/repro`` knows it is there.
Each call of a wrapped callable becomes one span ``[name, layer, start,
end, parent, rid]``: ``parent`` is the index of the enclosing span (or
-1) and ``rid`` is the id of the request or unit the span belongs to,
inherited from the parent when the wrapper cannot derive one itself.
Spans stay in memory until :meth:`Recorder.write` dumps them as JSONL.

A layer's self time is the sum, over its spans, of the span's duration
minus the time its child spans cover.  The wrapped code is synchronous
and single-threaded (asyncio coroutines are wrapped as one span around
the whole await), so children never overlap and a plain sum of child
durations is the covered part.

Functions that other modules import by value (``from ..core.iar import
iar``) are rebound in every loaded module that holds the original
object, so a call through any name lands in the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def outermost(self, parent: int, name: str) -> bool:
        """True when no enclosing span of the same ``name`` exists (so a
        subclass calling its base class's wrapped method counts once)."""
        spans = self.spans
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][4]
        return True

    def _open(self, name: str, layer: str, rid: Optional[str]) -> list:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if rid is None:
            rid = self.spans[parent][5] if parent >= 0 else ""
        span = [name, layer, 0.0, 0.0, parent, rid]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, rid: Optional[str] = None):
        """A span opened by the benchmark itself."""
        span = self._open(name, layer, rid)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, layer: str, hook=None, rid_of=None):
        """``fn`` recording one span per call.

        ``hook(args, kwargs, result, parent)`` runs after the call to
        derive counters from arguments or return values; ``rid_of(args,
        kwargs)`` names the request the span belongs to.
        """
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = recorder._open(
                    name, layer, rid_of(args, kwargs) if rid_of else None
                )
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._close(span)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder._open(
                name, layer, rid_of(args, kwargs) if rid_of else None
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if hook is not None:
                hook(args, kwargs, result, span[4])
            return result

        return wrapper

    # -- patching --------------------------------------------------------
    def method(self, cls, attr: str, name: str, layer: str, **kw) -> None:
        """Wrap ``cls.attr`` (the class's own definition)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, layer, **kw))
        self._undo.append(lambda: setattr(cls, attr, original))

    def function(self, module, attr: str, name: str, layer: str, **kw) -> None:
        """Wrap ``module.attr`` everywhere a loaded module binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, layer, **kw)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(
                        lambda m=mod, k=key: setattr(m, k, original)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Layer → summed self time in seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                covered[span[4]] += span[3] - span[2]
        out: Dict[str, float] = {}
        for index, span in enumerate(spans):
            own = span[3] - span[2] - covered[index]
            out[span[1]] = out.get(span[1], 0.0) + own
        return out

    def calls(self, name: str) -> int:
        """Calls of ``name`` not nested in another call of ``name``."""
        return sum(
            1 for span in self.spans
            if span[0] == name and self.outermost(span[4], name)
        )

    def inclusive(self, name: str) -> float:
        """Wall time under the outermost spans of ``name``."""
        return sum(
            span[3] - span[2] for span in self.spans
            if span[0] == name and self.outermost(span[4], name)
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
