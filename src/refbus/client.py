"""Client half of a node: HTTP transport, proxies, value materialization,
name-based lookup and remote snapshots. Every request a node sends leaves
from here.

Each request takes a fresh connection, opened by ``http.client`` (its host
check, ``TCP_NODELAY`` and audit event), then leaves in one write; ``http1``
frames the request and reads the reply, under the rules the node reads
requests by. A reply it refuses (``http1.Malformed``, ``http1.Truncated``)
reaches the caller as NetworkError. The transport loads on a process's
first request, so a node that only serves never loads ``http.client``.

A proxy forwards interface-method calls to the component its Ior points
at. Incoming references materialize either to an interned proxy or, when
the Ior points back at this very node, to the original local instance,
preserving identity across a round trip. Invocation is at-most-once: no
retry ever happens on a network error, so side effects are never silently
duplicated.
"""

from __future__ import annotations

import functools
import io
import socket
import time
from threading import TIMEOUT_MAX

from . import http1
from .errors import (
    BadEnvelopeError,
    CallTimeout,
    NetworkError,
    RefbusError,
    TypeMismatchError,
    UnknownMethodError,
    UnknownServiceError,
    fault_error,
)
from .interfaces import RESOLVE_METHOD, SNAPSHOT_METHOD, InterfaceDescriptor
from .policy import CallOverride, ParamPos
from .registry import validate_name
from .values import Record, Value, VList, VNull, VRecord, VRef
from .wire import CallEnvelope, decode_reply, encode_call
from .wire import type_check  # unused here; bench/tracer.py patches refbus.client.type_check
from .wire import loads, read_reply, receive, reply_shape, send_call

DEFAULT_TIMEOUT = 30.0


def _check_timeout(timeout) -> None:
    """Refuse a timeout that a socket would refuse, or read as no timeout,
    before any argument is marshalled."""
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise TypeError(f"timeout must be a number of seconds, got {type(timeout).__name__}")
    if not 0 < timeout <= TIMEOUT_MAX:  # NaN fails too
        raise ValueError(f"timeout must be positive and at most {TIMEOUT_MAX} s, got {timeout!r}")


def remaining(deadline: float) -> float:
    """Seconds left before a ``time.monotonic()`` deadline, for the next
    request or socket operation; CallTimeout when none are left."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise CallTimeout("the deadline passed before the next request or socket operation")
    return left


class CallOptions(Record):
    """Options for one invocation: per-call policy override, and a timeout
    that bounds the whole call, remote snapshots of its arguments included."""

    __slots__ = ("override", "timeout")

    def __init__(self, override: CallOverride | None = None, timeout: float = DEFAULT_TIMEOUT):
        _check_timeout(timeout)
        object.__setattr__(self, "override", override)
        object.__setattr__(self, "timeout", timeout)


DEFAULT_OPTIONS = CallOptions()


class _DeadlineReader(io.RawIOBase):
    """A socket's bytes, each recv given only the time left before a
    deadline, so a reply trickled byte by byte cannot outlive it."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock = sock
        self._deadline = deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(remaining(self._deadline))
        return self._sock.recv_into(buffer)


def _http_request(host, port, method, path, body: bytes | None, timeout: float) -> bytes:
    """The body of a 200 reply to one request on a fresh connection. http.client
    only opens it; the request goes out in one write. ``timeout`` bounds the
    whole request: the connect, the send and every recv get only the time
    that is left. Nothing is retried; every refusal, another status and a
    host with no IDNA form included, is a NetworkError."""
    # Imported here, not at module level: a node that only serves never
    # loads http.client, nor the ssl and email packages it imports.
    import http.client

    deadline = time.monotonic() + timeout
    try:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            request = http1.request_bytes(method, path, conn.host, conn.port, body)
            conn.connect()
            conn.sock.settimeout(remaining(deadline))
            conn.sock.sendall(request)
            with io.BufferedReader(_DeadlineReader(conn.sock, deadline)) as rfile:
                status, data = http1.read_reply(rfile)
        finally:
            conn.close()
    except socket.timeout as exc:
        raise CallTimeout(f"{method} {host}:{port}{path} timed out") from exc
    except OSError as exc:
        raise NetworkError(f"{method} {host}:{port}{path} failed: {exc}") from exc
    except (http.client.InvalidURL, http1.Malformed, http1.Truncated, UnicodeError) as exc:
        raise NetworkError(f"{method} {host}:{port}{path} failed: {type(exc).__name__}: {exc}") from exc
    if status != 200:
        raise NetworkError(f"{method} {host}:{port}{path} returned HTTP {status}")
    return data


def post_call(host, port, path, call: str, timeout: float = DEFAULT_TIMEOUT) -> bytes:
    """Send one call envelope, as JSON text, and return the reply body's
    bytes for the caller to decode."""
    return _http_request(host, port, "POST", path, call.encode("utf-8"), timeout)


def http_get(host, port, path, timeout: float = DEFAULT_TIMEOUT) -> str:
    data = _http_request(host, port, "GET", path, None, timeout)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadEnvelopeError(f"body is not valid UTF-8: {exc}") from None


class Proxy:
    """Client-side stand-in for a remote component.

    Its invocable methods are exactly the interface's; attribute access is
    sugar over invoke(). Proxies with equal Iors are interned to one
    object while any of them is alive, so identity comparison works. The
    intern table holds proxies weakly, so a proxy must stay free of
    reference cycles (no callables cached on the instance): reference
    counting then frees it as soon as its last holder drops it.
    """

    def __init__(self, node, ior, iface: InterfaceDescriptor):
        self._node = node
        self.ior = ior
        self.iface = iface

    def invoke(self, method: str, args=(), opts: CallOptions | None = None):
        """Marshal, send, and materialize one remote invocation."""
        args = list(args)
        opts = opts or DEFAULT_OPTIONS
        sig = self.iface.method(method)
        if sig is None:
            raise UnknownMethodError(f"{self.iface.name} has no method {method!r}")
        if len(args) != len(sig.params):
            raise TypeMismatchError(
                f"{self.iface.name}.{method} takes {len(sig.params)} args, got {len(args)}"
            )
        node = self._node
        deadline = time.monotonic() + opts.timeout

        def marshal_at(i):
            return functools.partial(
                node.marshal_outbound,
                iface_name=self.iface.name,
                method_name=method,
                position=ParamPos(i),
                override=opts.override,
                deadline=deadline,
            )

        call = send_call(method, sig.params, args, marshal_at)
        path = f"/obj/{self.ior.object_number}"
        data = post_call(self.ior.host, self.ior.port, path, call, remaining(deadline))
        read = read_reply(data, sig.returns)
        if read is not None:
            return read
        result, fault = reply_shape(loads(data))
        if fault is not None:
            raise fault_error(fault.code, fault.message)
        (result,), misfits = receive(
            [result], [sig.returns], node.env, "$.result", functools.partial(materialize, node)
        )
        if misfits:
            raise TypeMismatchError("result: " + "; ".join(misfits[0][1]))
        return result

    def __getattr__(self, name):
        # Only reached for names not set in __init__; the lookup of "iface"
        # must not recurse on an instance whose __init__ never ran.
        iface = self.__dict__.get("iface")
        if iface is None or iface.method(name) is None:
            raise AttributeError(f"{getattr(iface, 'name', 'Proxy')} has no method {name!r}")
        def call(*args, _opts: CallOptions | None = None):
            return self.invoke(name, args, _opts)
        call.__name__ = name
        return call

    def __copy__(self):
        # Equal references intern to one proxy, so a copy is the proxy.
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce_ex__(self, protocol):
        # Unpickled elsewhere, it would have no node to call through.
        raise RefbusError(f"cannot pickle a proxy: {self!r}")

    def __repr__(self):
        ior = self.ior
        return f"<Proxy {ior.interface_name} @ {ior.host}:{ior.port}/obj/{ior.object_number}>"


def materialize(node, v: Value):
    """Turn a wire value into its local form, directed by its tags alone.

    References pointing at this node resolve to the original instance
    (unproxying) when their object number and interface name belong to one
    deployment; other references intern to a proxy. Records reconstruct a
    fresh component when a constructor is registered for their type name,
    otherwise they are delivered as-is. The walk that parsed the value has
    already checked it against its declared type, so such a record holds
    that class's state fields in order.
    """
    if isinstance(v, VNull):
        return None
    if isinstance(v, VList):
        return [materialize(node, item) for item in v.items]
    if isinstance(v, VRecord):
        constructor = node.constructor_for(v.type_name)
        if constructor is None:
            return v
        return constructor(*[materialize(node, value) for _, value in v.fields])
    if isinstance(v, VRef):
        ior = v.ior
        if (ior.host, ior.port) == (node.host, node.port):
            dep = node.table.resolve(ior.object_number)
            if dep.iface.name != ior.interface_name:
                raise UnknownServiceError(
                    f"object number {ior.object_number} is not deployed as "
                    f"{ior.interface_name!r}"
                )
            return dep.component.instance
        return node.proxy_for_ior(ior)
    return v.value


def get_component_by_name(node, name, host, port, timeout: float = DEFAULT_TIMEOUT) -> Proxy:
    """Obtain an interned proxy to a component deployed under a name remotely.

    Fetches the deployment's descriptor document, then asks the named
    endpoint to resolve itself into a remote reference; ``timeout`` bounds
    both requests together. A host or port no request can reach is refused
    before any request: ``getaddrinfo`` would read port 70000 as 4464.
    """
    validate_name(name)
    if not isinstance(host, str) or isinstance(port, bool) or not isinstance(port, int):
        raise TypeError(f"host must be a str and port an int, got {host!r}, {port!r}")
    if not host or not 1 <= port <= 65535:
        raise ValueError(f"host must be non-empty and port in 1-65535, got {host!r}, {port!r}")
    _check_timeout(timeout)
    deadline = time.monotonic() + timeout
    doc = loads(http_get(host, port, f"/{name}?wsdl", timeout))
    if isinstance(doc, dict) and "fault" in doc:
        _, fault = reply_shape(doc)
        raise fault_error(fault.code, fault.message)
    if not isinstance(doc, dict) or "interface" not in doc:
        raise BadEnvelopeError("descriptor document missing interface name")

    call = encode_call(CallEnvelope(RESOLVE_METHOD))
    reply = decode_reply(post_call(host, port, f"/{name}", call, remaining(deadline)))
    if reply.fault is not None:
        raise fault_error(reply.fault.code, reply.fault.message)
    if not isinstance(reply.result, VRef):
        raise BadEnvelopeError("name resolution must return a remote reference")
    ior = reply.result.ior
    if ior.interface_name != doc["interface"]:
        raise BadEnvelopeError(
            f"descriptor names interface {doc['interface']!r} "
            f"but the reference carries {ior.interface_name!r}"
        )
    return node.proxy_for_ior(ior)


def snapshot(proxy: Proxy, deadline: float | None) -> VRecord:
    """State record of a proxy's component, from the reserved ``__snapshot``
    call, before a ``time.monotonic()`` ``deadline`` or within DEFAULT_TIMEOUT
    without one; a fault or any other result is a NetworkError."""
    ior = proxy.ior
    call = encode_call(CallEnvelope(SNAPSHOT_METHOD))
    timeout = DEFAULT_TIMEOUT if deadline is None else remaining(deadline)
    reply = decode_reply(post_call(ior.host, ior.port, f"/obj/{ior.object_number}", call, timeout))
    if reply.fault is not None:
        raise NetworkError(
            f"snapshot of {ior.interface_name} at {ior.host}:{ior.port} failed: "
            f"{reply.fault.code.value}: {reply.fault.message}"
        )
    if not isinstance(reply.result, VRecord):
        raise NetworkError("remote snapshot did not return a record")
    return reply.result
