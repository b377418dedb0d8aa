"""Span tracer for the benchmark's traced run.

Timing wrappers are installed at run time on the names the fbmlab code looks
up when it calls into another layer (``fbmlab.experiments.heat_kernel``,
``fbmlab.limits.fourier``, ``TestFunction.__call__``, ...), so the library
itself is unchanged and the untraced run executes no tracing code at all.

Every span records its parent. Self time is a share of wall-clock time:
between two span events the elapsed time is split evenly over the innermost
open span of every thread, except a span whose child is open on another
thread (it is waiting for that child). With one thread this is the usual
"duration minus the children"; with a thread pool the self times of all
layers still add up to the wall time of the traced calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


class _Span:
    __slots__ = ("name", "parent", "thread", "start", "self_s", "points",
                 "remote_open")

    def __init__(self, name, parent, thread, start):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.self_s = 0.0
        self.points = 0
        self.remote_open = 0


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    points: int = 0


class Tracer:
    """Collects spans in memory, aggregated per name and per parent edge."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[_Span]] = {}
        self._root_thread: Optional[int] = None
        self._last: Optional[float] = None
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple[Optional[str], str], SpanStats] = {}

    def _settle(self, now: float) -> None:
        if self._last is not None:
            running = [st[-1] for st in self._stacks.values()
                       if st and not st[-1].remote_open]
            if running:
                share = (now - self._last) / len(running)
                for sp in running:
                    sp.self_s += share
        self._last = now

    def enter(self, name: str) -> _Span:
        tid = threading.get_ident()
        with self._lock:
            now = time.perf_counter()
            self._settle(now)
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span belongs to the call that is
                # waiting for the pool
                root = self._stacks.get(self._root_thread)
                parent = root[-1] if root else None
                if parent is None:
                    self._root_thread = tid
            if parent is not None and parent.thread != tid:
                parent.remote_open += 1
            span = _Span(name, parent, tid, now)
            stack.append(span)
        return span

    def exit(self, span: _Span) -> None:
        with self._lock:
            now = time.perf_counter()
            self._settle(now)
            self._stacks[span.thread].pop()
            parent = span.parent
            if parent is not None and parent.thread != span.thread:
                parent.remote_open -= 1
            total = now - span.start
            for table, key in ((self.stats, span.name),
                               (self.edges, (parent and parent.name,
                                             span.name))):
                st = table.get(key)
                if st is None:
                    st = table[key] = SpanStats()
                st.calls += 1
                st.self_s += span.self_s
                st.total_s += total
                st.points += span.points

    @contextmanager
    def span(self, name: str):
        sp = self.enter(name)
        try:
            yield sp
        finally:
            self.exit(sp)


def _wrap(tracer: Tracer, fn: Callable, name: str,
          points: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sp = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
            if points is not None:
                sp.points = points(args, out)
            return out
        finally:
            tracer.exit(sp)
    return traced


def _wrap_batches(tracer: Tracer, fn: Callable, name: str,
                  points: Optional[Callable]) -> Callable:
    """Run each per-batch worker inside a span, so that work a pool thread
    does outside any wrapped call is still charged to its layer."""
    if "worker" not in inspect.signature(fn).parameters:
        raise TypeError("batch runner no longer takes a worker")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        worker = bound.arguments["worker"]

        def traced_worker(*wargs, **wkwargs):
            with tracer.span(name):
                return worker(*wargs, **wkwargs)

        bound.arguments["worker"] = traced_worker
        return fn(*bound.args, **bound.kwargs)
    return traced


def _size(x) -> int:
    return int(getattr(x, "size", 1))


@dataclass(frozen=True)
class Patch:
    """A wrapper on ``owner.attr``; ``owner`` is a module, optionally
    followed by a class name (``fbmlab.testfuncs.TestFunction``)."""

    owner: str
    attr: str
    span: str
    points: Optional[Callable] = None
    wrap: Callable = _wrap


PATCHES = (
    # synthesis is reached through private names only; if a refactor
    # renames them, the fbm.synth metrics are reported missing
    Patch("fbmlab.experiments", "_batch_values", "fbm.synth",
          lambda args, out: _size(out)),
    Patch("fbmlab.experiments", "_simulate_batches", "experiments.batch",
          wrap=_wrap_batches),
    Patch("fbmlab.experiments", "heat_kernel", "localtime.heat_kernel",
          lambda args, out: _size(out)),
    Patch("fbmlab.experiments", "heat_kernel_prime",
          "localtime.heat_kernel_prime", lambda args, out: _size(out)),
    Patch("fbmlab.experiments", "a_h", "limits.a_h"),
    Patch("fbmlab.experiments", "a_one_third", "limits.a_one_third"),
    Patch("fbmlab.limits", "a_h", "limits.a_h"),
    Patch("fbmlab.limits", "a_one_third", "limits.a_one_third"),
    Patch("fbmlab.limits", "fourier", "testfuncs.fourier"),
    Patch("fbmlab.limits", "beta3", "constants.beta3"),
    Patch("fbmlab.testfuncs.TestFunction", "__call__", "testfuncs.eval",
          lambda args, out: _size(out)),
)


def _resolve(owner: str):
    parts = owner.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(owner)


@contextmanager
def installed(tracer: Tracer, patches=PATCHES):
    """Install the wrappers for the duration of the block; yields the set
    of span names whose wrapper could not be installed."""
    restore = []
    missing: set[str] = set()
    try:
        for p in patches:
            try:
                owner = _resolve(p.owner)
                original = owner.__dict__[p.attr]
                if not callable(original):
                    raise TypeError(f"{p.owner}.{p.attr} is not callable")
                wrapped = p.wrap(tracer, original, p.span, p.points)
            except (ImportError, AttributeError, KeyError, TypeError,
                    ValueError):
                missing.add(p.span)
                continue
            setattr(owner, p.attr, wrapped)
            restore.append((owner, p.attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
