"""Spans recorded around the package's functions, from outside the package.

A traced pass replaces each target function, under every name a
``shiftdecon`` module binds it to, with a wrapper that records one span per
call, and puts the originals back when the pass ends.  Nothing in the
package changes: a module that calls ``select_cutoff`` looks the name up in
its own globals at call time, so it reaches the wrapper.

Spans are kept in memory and reduced once the pass has ended.  A span opened
on a pool thread with nothing open on that thread is caused by the span open
on the root thread at that moment (the call that dispatched the work).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional

__all__ = ["Span", "Target", "Tracer", "install", "self_times", "union_length"]


class Span:
    """One call: name, start and end (``perf_counter`` seconds), the span
    that caused it, the thread it ran on, and what ``Target.inspect`` took
    from its result."""

    __slots__ = ("name", "start", "end", "parent", "thread", "info")

    def __init__(self, name: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """A function to wrap: ``owner`` is a module name, or ``module:Class`` for
    a method; ``inspect`` maps the call's result to ``Span.info``."""

    name: str
    owner: str
    attr: str
    inspect: Optional[Callable] = None


class Tracer:
    """Collects spans; the thread that creates it is the root thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._root_thread = threading.get_ident()
        self._root_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._root_stack and self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        span = Span(name, parent, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span, stack

    def _close(self, span: Span, stack: list) -> None:
        span.end = time.perf_counter()
        stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextmanager
    def span(self, name: str):
        span, stack = self._open(name)
        try:
            yield span
        finally:
            self._close(span, stack)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        inspect = target.inspect

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, stack)
            if inspect is not None:
                span.info = inspect(result)
            return result

        return traced


def _package_modules(package: str) -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def install(tracer: Tracer, targets, package: str = "shiftdecon"):
    """Wrap every target for the duration of the block, then restore.

    Yields the names of targets the package does not define, so a caller can
    report them instead of silently reading zero for them.
    """
    patched = []  # (namespace, attribute, original)
    missing = []
    try:
        for target in targets:
            module_name, _, class_name = target.owner.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(target.name)
                continue
            owner = getattr(module, class_name, None) if class_name else module
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None:
                missing.append(target.name)
                continue
            wrapper = tracer.wrap(target, original)
            if class_name:
                setattr(owner, target.attr, wrapper)
                patched.append((owner, target.attr, original))
                continue
            for mod in _package_modules(package):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield missing
    finally:
        for namespace, attr, original in reversed(patched):
            setattr(namespace, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> tuple[dict, float]:
    """Self time of every span, and the parallel overlap of the trace.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  On one thread children never overlap, so the self
    times of all spans sum to the root span's duration.  Children running in
    parallel on pool threads can overlap; the overlap returned is the sum,
    over parents, of the children's durations minus the length they cover,
    so that ``sum(self) - overlap == root duration`` holds in every case.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    selfs = {}
    overlap = 0.0
    for span in spans:
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(id(span), ())]
        covered = union_length(clipped)
        selfs[id(span)] = span.duration - covered
        overlap += sum(max(0.0, end - start) for start, end in clipped) - covered
    return selfs, overlap
