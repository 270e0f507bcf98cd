"""Client half of a node: HTTP transport, proxies, value materialization,
and name-based lookup.

A proxy forwards interface-method calls to the component its Ior points
at. Incoming references materialize either to an interned proxy or, when
the Ior points back at this very node, to the original local instance,
preserving identity across a round trip. Invocation is at-most-once: no
retry ever happens on a network error, so side effects are never silently
duplicated.
"""

from __future__ import annotations

import http.client
import json
import socket
from dataclasses import dataclass

from .errors import (
    BadEnvelopeError,
    CallTimeout,
    NetworkError,
    TypeMismatchError,
    UnknownMethodError,
    fault_error,
)
from .interfaces import InterfaceDescriptor
from .policy import CallOverride, ParamPos
from .values import (
    SCALAR_TAG_BY_CLASS,
    Value,
    VList,
    VNull,
    VRecord,
    VRef,
    type_check,
)
from .wire import CallEnvelope, ReplyEnvelope, decode_reply, encode_call

RESOLVE_METHOD = "__resolve"
SNAPSHOT_METHOD = "__snapshot"
RESERVED_METHODS = frozenset({RESOLVE_METHOD, SNAPSHOT_METHOD})

DEFAULT_TIMEOUT = 30.0


@dataclass(frozen=True)
class CallOptions:
    """Options for one invocation: per-call policy override and timeout."""

    override: CallOverride | None = None
    timeout: float = DEFAULT_TIMEOUT


DEFAULT_OPTIONS = CallOptions()


def _http_request(host, port, method, path, body: bytes | None, timeout: float):
    try:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()
    except socket.timeout as exc:
        raise CallTimeout(f"{method} {host}:{port}{path} timed out") from exc
    except OSError as exc:
        raise NetworkError(f"{method} {host}:{port}{path} failed: {exc}") from exc


def post_call(host, port, path, call: CallEnvelope, timeout: float = DEFAULT_TIMEOUT) -> ReplyEnvelope:
    body = encode_call(call).encode("utf-8")
    status, data = _http_request(host, port, "POST", path, body, timeout)
    if status != 200:
        raise NetworkError(f"POST {host}:{port}{path} returned HTTP {status}")
    return decode_reply(data)


def http_get(host, port, path, timeout: float = DEFAULT_TIMEOUT) -> str:
    status, data = _http_request(host, port, "GET", path, None, timeout)
    if status != 200:
        raise NetworkError(f"GET {host}:{port}{path} returned HTTP {status}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadEnvelopeError(f"body is not valid UTF-8: {exc}") from None


class Proxy:
    """Client-side stand-in for a remote component.

    Its invocable methods are exactly the interface's; attribute access is
    sugar over invoke(). Proxies with equal Iors are interned to one
    object, so identity comparison works.
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
        wire_args = [
            self._node.marshal_outbound(
                arg,
                sig.params[i],
                iface_name=self.iface.name,
                method_name=method,
                position=ParamPos(i),
                override=opts.override,
            )
            for i, arg in enumerate(args)
        ]
        reply = post_call(
            self.ior.host,
            self.ior.port,
            f"/obj/{self.ior.object_number}",
            CallEnvelope(method, wire_args),
            opts.timeout,
        )
        if reply.fault is not None:
            raise fault_error(reply.fault.code, reply.fault.message)
        mismatches = type_check(reply.result, sig.returns, self._node.env)
        if mismatches:
            raise TypeMismatchError("result: " + "; ".join(mismatches))
        return materialize(self._node, reply.result)

    def __getattr__(self, name):
        # Only reached for names not set in __init__.
        if self.iface.method(name) is None:
            raise AttributeError(f"{self.iface.name} has no method {name!r}")
        def call(*args, _opts: CallOptions | None = None):
            return self.invoke(name, args, _opts)
        call.__name__ = name
        return call

    def __repr__(self):
        ior = self.ior
        return f"<Proxy {ior.interface_name} @ {ior.host}:{ior.port}/obj/{ior.object_number}>"


def materialize(node, v: Value):
    """Turn a wire value into its local form, directed by its tags alone.

    References pointing at this node resolve to the original instance
    (unproxying); other references intern to a proxy. Records reconstruct a
    fresh component when a constructor is registered for their type name,
    otherwise they are delivered as-is; type_check first ensures they hold
    that class's state fields in order.
    """
    if isinstance(v, VNull):
        return None
    if type(v) in SCALAR_TAG_BY_CLASS:
        return v.value
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
            return node.table.resolve(ior.object_number).component.instance
        return node.proxy_for_ior(ior)
    raise TypeMismatchError(f"cannot materialize {type(v).__name__}")


def get_component_by_name(node, name, host, port, timeout: float = DEFAULT_TIMEOUT) -> Proxy:
    """Obtain an interned proxy to a component deployed under a name remotely.

    Fetches the deployment's descriptor document, then asks the named
    endpoint to resolve itself into a remote reference.
    """
    doc_text = http_get(host, port, f"/{name}?wsdl", timeout)
    try:
        doc = json.loads(doc_text)
    except ValueError as exc:
        raise BadEnvelopeError(f"descriptor document is not valid JSON: {exc}") from None
    if isinstance(doc, dict) and "fault" in doc:
        reply = decode_reply(doc_text)
        raise fault_error(reply.fault.code, reply.fault.message)
    if not isinstance(doc, dict) or "interface" not in doc:
        raise BadEnvelopeError("descriptor document missing interface name")

    reply = post_call(host, port, f"/{name}", CallEnvelope(RESOLVE_METHOD), timeout)
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
