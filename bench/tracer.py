"""Span tracer that wraps refbus's public functions from outside.

Nothing in ``src/`` knows about it. ``install()`` replaces each traced
function where its callers look it up, ``uninstall()`` puts the originals
back. ``node.py`` and ``client.py`` bind the codec functions and
``type_check`` with ``from ... import``, so those are patched in
``refbus.node`` and ``refbus.client``; patching ``refbus.wire`` would miss
every call.

Spans stay in memory until ``summary()``. A span's self time is its
duration minus the time its child spans on the same thread cover. For the
recursive ``materialize`` and ``Node.marshal_outbound`` only the outermost
call is a span. The tracer changes no ``gc`` or other runtime setting; it
only adds a ``gc.callbacks`` entry to time collections.
"""

from __future__ import annotations

import functools
import gc
import http.client
import http.server
import socketserver
import threading
import time
from collections import Counter

import refbus.client
import refbus.component
import refbus.interfaces
import refbus.node
import refbus.policy
import refbus.registry

# (owner, attribute, span name, outermost only)
SPANS = [
    (refbus.node.Node, "marshal_outbound", "marshal", True),
    (refbus.client, "materialize", "materialize", True),
    (refbus.client, "post_call", "post_call", False),
    (refbus.client, "encode_call", "encode_call", False),
    (refbus.client, "decode_reply", "decode_reply", False),
    (refbus.client, "type_check", "type_check", False),
    (refbus.node, "type_check", "type_check", False),
    (refbus.node, "decode_call", "decode_call", False),
    (refbus.node, "encode_reply", "encode_reply", False),
    (refbus.node.Node, "handle_request", "handle_request", False),
    (refbus.component.ComponentHandle, "invoke", "invoke", False),
    (refbus.node, "snapshot_instance", "snapshot", False),
    (refbus.component, "snapshot_instance", "snapshot", False),
    (refbus.registry.ObjectTable, "export", "export", False),
    (refbus.registry.ObjectTable, "resolve", "resolve", False),
    (refbus.policy.PolicyStore, "resolve", "policy_resolve", False),
    (refbus.interfaces.InterfaceDescriptor, "method", "method_lookup", False),
]

# encoder -> counter of the bytes it produced
WIRE_BYTES = {"encode_call": "request_bytes", "encode_reply": "reply_bytes"}


class Tracer:
    """Records spans and counts for one process while installed."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float, float]] = []
        # Bumped without a lock: in a closed loop with one caller no two
        # threads count the same key at once.
        self.counts: Counter[str] = Counter()
        self.gc_s = 0.0
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, name, fn, outermost, *, only_with_child=False):
        tracer = self
        byte_counter = WIRE_BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if outermost and any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0, False]  # name, time covered by children, had a child
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2] = True
                if frame[2] or not only_with_child:
                    tracer.spans.append(
                        (name, threading.get_ident(), start, end, duration - frame[1])
                    )
            if byte_counter is not None:
                tracer.counts[byte_counter] += len(result.encode("utf-8"))
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _intern(self, fn):
        span = self._span("intern", fn, False)
        counts = self.counts

        def intern(table, ior, factory):
            def counted_factory(i):
                counts["intern_new"] += 1
                return factory(i)

            return span(table, ior, counted_factory)

        return functools.wraps(fn)(intern)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    def install(self):
        for owner, attr, name, outermost in SPANS:
            self._patch(owner, attr, self._span(name, owner.__dict__[attr], outermost))
        # One server-side request, outside handle_request: request line,
        # headers, body read and response write. The read that only meets
        # the client's close handles no request and is not a span.
        handler = http.server.BaseHTTPRequestHandler
        self._patch(handler, "handle_one_request",
                    self._span("http", handler.handle_one_request, False, only_with_child=True))
        self._patch(refbus.registry.ProxyTable, "intern",
                    self._intern(refbus.registry.ProxyTable.intern))
        self._patch(http.client.HTTPConnection, "connect",
                    self._count("connect", http.client.HTTPConnection.connect))
        self._patch(socketserver.ThreadingMixIn, "process_request",
                    self._count("accept", socketserver.ThreadingMixIn.process_request))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: count, total self time and total duration (seconds)."""
        spans: dict[str, dict[str, float]] = {}
        for name, _thread, start, end, self_s in list(self.spans):
            row = spans.setdefault(name, {"n": 0, "self_s": 0.0, "total_s": 0.0})
            row["n"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
        return {"spans": spans, "counts": dict(self.counts), "gc_s": self.gc_s}
