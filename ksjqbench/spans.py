"""In-memory span tracer that wraps library functions at run time.

The benchmark measures layers of an unmodified program: :func:`install`
replaces each target function (or method) with a wrapper that records
one span per call — name, start/end in ``perf_counter_ns``, the parent
span and the request id — and :meth:`Installation.uninstall` restores
the originals.
The parent is taken from a :mod:`contextvars` variable, so spans nest
per thread and per asyncio task; a thread pool whose ``submit`` copies
the caller's context (:class:`ContextExecutor`) carries the request id
into worker threads.

Self time is a span's duration minus the union of its children's
intervals (children may overlap when they run on several threads).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

#: (span id, request id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "ksjqbench_span", default=(-1, -1)
)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``;
    ``span`` the span name. ``measure(args, kwargs, result)`` optionally
    returns ``{counter: amount}`` added to the tracer's counters on each
    call.
    """

    where: str
    span: str
    measure: Callable[[tuple, dict, Any], dict[str, int]] | None = None


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (span id, name id, start ns, end ns, parent span id, request id)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.counters: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def open(self, request_id: int | None = None) -> tuple[int, int, contextvars.Token]:
        """Start a span under the current one. A root span without an
        explicit request id starts a new request, numbered by its span id."""
        parent, rid = _CURRENT.get()
        sid = next(self._ids)
        if request_id is None:
            request_id = rid if parent >= 0 else sid
        token = _CURRENT.set((sid, request_id))
        return sid, parent, token

    def close(self, sid: int, parent: int, token: contextvars.Token,
              name_id: int, start: int) -> None:
        end = time.perf_counter_ns()
        rid = _CURRENT.get()[1]
        _CURRENT.reset(token)
        self.spans.append((sid, name_id, start, end, parent, rid))

    def request(self, request_id: int, name: str = "request") -> "_RequestSpan":
        """Context manager opening the root span of one request."""
        return _RequestSpan(self, request_id, self.name_id(name))

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, int]]:
        """``{span name: (total self ns, calls)}`` over every span."""
        children: dict[int, list[tuple[int, int]]] = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, tuple[int, int]] = {}
        for sid, nid, start, end, _, _ in self.spans:
            own = (end - start) - covered(start, end, children.get(sid, ()))
            total, calls = out.get(self.names[nid], (0, 0))
            out[self.names[nid]] = (total + own, calls + 1)
        return out

    def totals(self) -> dict[str, tuple[int, int]]:
        """``{span name: (total inclusive ns, calls)}``."""
        out: dict[str, tuple[int, int]] = {}
        for _, nid, start, end, _, _ in self.spans:
            total, calls = out.get(self.names[nid], (0, 0))
            out[self.names[nid]] = (total + end - start, calls + 1)
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, rid)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, nid, start, end, parent, rid in self.spans:
                fh.write(json.dumps([sid, self.names[nid], start, end, parent, rid]))
                fh.write("\n")


class _RequestSpan:
    def __init__(self, tracer: Tracer, request_id: int, name_id: int) -> None:
        self._tracer, self._rid, self._nid = tracer, request_id, name_id

    def __enter__(self) -> None:
        self._state = self._tracer.open(self._rid)
        self._start = time.perf_counter_ns()

    def __exit__(self, *exc: object) -> None:
        sid, parent, token = self._state
        self._tracer.close(sid, parent, token, self._nid, self._start)


def covered(start: int, end: int, intervals) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _wrap(fn: Callable, tracer: Tracer, target: Target) -> Callable:
    nid = tracer.name_id(target.span)
    measure = target.measure

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            sid, parent, token = tracer.open()
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.close(sid, parent, token, nid, start)
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, token = tracer.open()
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid, parent, token, nid, start)
        if measure is not None:
            for counter, amount in measure(args, kwargs, result).items():
                tracer.add(counter, amount)
        return result

    return wrapper


_MISSING = object()


class Installation:
    """Wrappers in place for one traced phase; :meth:`uninstall` undoes them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, targets: list[Target]) -> Installation:
    """Wrap every target; module-level functions are replaced in every
    ``repro`` module that imported them by name, so callers that bound
    the name at import time are traced too."""
    inst = Installation()
    loaded = [m for name, m in list(sys.modules.items())
              if name == "repro" or name.startswith("repro.")]
    for target in targets:
        module_name, _, qual = target.where.partition(":")
        module = importlib.import_module(module_name)
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            raw = vars(cls)[meth]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, tracer, target))
            else:
                wrapped = _wrap(raw, tracer, target)
            inst.patch(cls, meth, wrapped)
            continue
        original = getattr(module, qual)
        wrapped = _wrap(original, tracer, target)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    inst.patch(mod, attr, wrapped)
    return inst


class ContextExecutor(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context,
    so spans opened in a worker thread get the submitting request's
    span as parent and its request id."""

    def submit(self, fn, /, *args, **kwargs):  # type: ignore[override]
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)
