"""Spans recorded from outside the program, by wrapping its public calls.

:class:`Tracer` replaces a function (or a method) at the name its
callers look it up by with a wrapper that records a span, and puts the
original back in :meth:`Tracer.restore`.  Spans are kept in memory and
written out once, when the run ends.

Each span is ``[id, name, start, end, parent, op, attrs]``.  ``parent``
is the innermost open span on the same thread; a span opened on a
thread with no open span (a service worker or an API dispatcher) is
parented to the running operation's root span.  With one operation in
flight at a time, as in every workload, that puts each layer span
inside exactly one operation span.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: tuple[str, int] | None = None
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        op_id, root = self._op if self._op is not None else ("", -1)
        with self._lock:
            span = [len(self.spans), name, 0.0, 0.0,
                    stack[-1] if stack else root, op_id, {}]
            self.spans.append(span)
        stack.append(span[0])
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op_id: str) -> list:
        """Open the root span of one operation (or of one set-up)."""
        self._op = (op_id, -1)
        span = self._open("op")
        self._op = (op_id, span[0])
        return span

    def end_op(self, span: list) -> None:
        self._close(span)
        self._op = None

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``on_result(result, attrs)`` may copy counts out of the call's
        return value into the span's attributes.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(result, span[6])
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s[4] >= 0:
                kids[s[4]].append((s[2], s[3]))
        out = {}
        for s in self.spans:
            t0, t1 = s[2], s[3]
            covered, edge = 0.0, t0
            for c0, c1 in sorted(kids.get(s[0], ())):
                c0, c1 = max(c0, edge), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    edge = c1
            out[s[0]] = (t1 - t0) - covered
        return out

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
