"""The runtime node: deploys live component instances behind interfaces,
serves the HTTP endpoints, dispatches calls through skeletons, and
marshals values per transmission policy.

One node per address space combines the server and client roles. That is
what makes loopback unproxying work: a reference exported from here and
received back resolves to the original instance, not to a proxy.

HTTP mapping (bodies are application/json):

    POST /<name>        call envelope -> reply envelope
    POST /obj/<N>       call envelope -> reply envelope
    GET  /<name>?wsdl   descriptor document
    GET  /obj/<N>?wsdl  descriptor document
    GET  /              deployment listing

Application errors travel as fault envelopes with HTTP 200; only malformed
HTTP itself yields a 400.
"""

from __future__ import annotations

import argparse
import functools
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from . import client as _client
from . import codec
from .component import ComponentHandle, snapshot_instance
from .errors import (
    FaultCode,
    FaultError,
    IncompatibleComponentError,
    InternalFaultError,
    NetworkError,
    NonInterfaceSignatureError,
    RefbusError,
    TypeMismatchError,
    UnknownInterfaceError,
    UnknownMethodError,
    UnknownServiceError,
)
from .interfaces import (
    RESERVED_METHODS,
    RESOLVE_METHOD,
    SNAPSHOT_METHOD,
    ClassDescriptor,
    InterfaceDescriptor,
    check_closure,
    check_compat,
    describe,
)
from .policy import BY_REFERENCE, CallOverride, PolicyStore, Position, RETURN
from .registry import Deployment, ObjectTable, ProxyTable
from .values import (
    NULL,
    InterfaceType,
    Ior,
    ListOf,
    Prim,
    RecordType,
    TypeEnvironment,
    TypeRef,
    Value,
    VList,
    VRecord,
    VRef,
    python_scalar,
    type_check,
    typeref_name,
)
from .wire import CallEnvelope, ReplyEnvelope, encode_reply
from .wire import _call_shape, _decode, _parse_args, _walk
from .wire import decode_call  # unused here; bench/tracer.py patches refbus.node.decode_call

MAX_BODY_BYTES = 16 * 1024 * 1024


class Node:
    """A refbus runtime instance bound to one host and port.

    Construct, register types and component classes, then start() before
    deploying. ``port=0`` binds an ephemeral port; the node identity
    stamped into exported references is fixed once the server is bound.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.env = TypeEnvironment()
        self.policies = PolicyStore()
        self.table = ObjectTable()
        self.proxies = ProxyTable()
        self._classes: dict[type, ClassDescriptor] = {}
        self._constructors: dict[str, type] = {}
        self._host = host
        self._port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # registration

    def register_record(self, name: str, fields):
        self.env.add_record(name, fields)

    def register_interface(self, descriptor: InterfaceDescriptor):
        self.env.add_interface(descriptor)

    def register_class(
        self, py_class: type, descriptor: ClassDescriptor, *, constructor: bool = True
    ):
        """Register a component class.

        ``constructor`` controls by-value reception of records bearing this
        class's name: True builds instances of ``py_class`` positionally
        from the state fields, False delivers such records as they are.
        """
        self.env.add_class(descriptor)
        self._classes[py_class] = descriptor
        if constructor:
            self._constructors[descriptor.name] = py_class

    def constructor_for(self, type_name: str) -> type | None:
        return self._constructors.get(type_name)

    def class_descriptor_for(self, instance) -> ClassDescriptor | None:
        return self._classes.get(type(instance))

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    def start(self) -> "Node":
        if self._server is not None:
            return self
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((self._host, self._port), handler)
        self._server.daemon_threads = True
        self._port = self._server.server_port
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name=f"refbus-node-{self._port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self):
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
        self._server = None
        self._thread = None

    def __enter__(self) -> "Node":
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _require_started(self):
        if self._server is None:
            raise RuntimeError("node is not running; call start() first")

    def url(self, name: str) -> str:
        return f"http://{self._host}:{self._port}/{name}"

    # ------------------------------------------------------------------
    # deployment

    def _iface_descriptor(self, iface) -> InterfaceDescriptor:
        if isinstance(iface, InterfaceDescriptor):
            return iface
        descriptor = self.env.interfaces.get(iface)
        if descriptor is None:
            raise UnknownInterfaceError(f"interface not registered: {iface!r}")
        return descriptor

    def _handle_for(self, component) -> ComponentHandle:
        if isinstance(component, ComponentHandle):
            return component
        descriptor = self.class_descriptor_for(component)
        if descriptor is None:
            raise IncompatibleComponentError(
                f"no component class registered for {type(component).__name__}"
            )
        return ComponentHandle(component, descriptor)

    def _prepare(self, iface, component) -> tuple[InterfaceDescriptor, ComponentHandle]:
        self._require_started()
        descriptor = self._iface_descriptor(iface)
        violations = check_closure(descriptor, self.env)
        if violations:
            raise NonInterfaceSignatureError(
                f"interface {descriptor.name!r} signatures must refer only to "
                "interface types: " + "; ".join(str(v) for v in violations),
                violations,
            )
        handle = self._handle_for(component)
        missing = check_compat(handle.class_descriptor, descriptor)
        if missing:
            names = ", ".join(m.name for m in missing)
            raise IncompatibleComponentError(
                f"{handle.class_descriptor.name} is not compatible with "
                f"{descriptor.name}: missing {names}",
                missing,
            )
        return descriptor, handle

    def deploy(self, iface, component, name: str) -> str:
        """Expose a component under a name; returns its endpoint URL.

        Naming a component that deploy_anonymous already exported keeps its
        object number, so the named and numbered endpoints stay one
        deployment.
        """
        descriptor, handle = self._prepare(iface, component)
        dep = self.table.add(handle, descriptor)
        self.table.bind_name(name, dep)
        return self.url(name)

    def deploy_anonymous(self, iface, component) -> Ior:
        """Expose a component without a name; returns its remote reference.

        An (instance, interface) pair already deployed is exported again
        without repeating the deploy-time checks.
        """
        self._require_started()
        identity = component.identity if isinstance(component, ComponentHandle) else id(component)
        iface_name = iface.name if isinstance(iface, InterfaceDescriptor) else iface
        dep = self.table.lookup(identity, iface_name)
        if dep is None:
            descriptor, handle = self._prepare(iface, component)
        else:
            descriptor, handle = dep.iface, dep.component
        return self.table.export(handle, descriptor, self._host, self._port)

    # ------------------------------------------------------------------
    # client half

    def proxy_for_ior(self, ior: Ior) -> _client.Proxy:
        iface = self.env.interfaces.get(ior.interface_name)
        if iface is None:
            raise UnknownInterfaceError(
                f"interface not in local type environment: {ior.interface_name!r}"
            )
        return self.proxies.intern(ior, lambda i: _client.Proxy(self, i, iface))

    def get_component_by_name(self, name, host, port, timeout=_client.DEFAULT_TIMEOUT):
        return _client.get_component_by_name(self, name, host, port, timeout)

    # ------------------------------------------------------------------
    # marshaling

    def marshal_outbound(
        self,
        value,
        declared: TypeRef,
        *,
        iface_name: str,
        method_name: str,
        position: Position,
        override: CallOverride | None = None,
    ) -> Value:
        """Turn a local value into its wire form for one signature position.

        Components and proxies at interface-typed positions follow the
        resolved transmission policy: BY_REFERENCE sends a reference
        (just-in-time deploying local components), BY_VALUE sends a state
        record (snapshotting proxies remotely). Everything else always
        passes by value; lists marshal elementwise under the same position.
        """
        if value is None:
            if declared is Prim.NULL or isinstance(declared, (InterfaceType, RecordType)):
                return NULL
            raise TypeMismatchError(f"None does not fit {typeref_name(declared)}")
        scalar = python_scalar(value)
        if scalar is not None:
            prim, value_class = scalar
            if declared is not prim:
                raise TypeMismatchError(
                    f"{type(value).__name__} does not fit {typeref_name(declared)}"
                )
            try:
                return value_class(value)
            except ValueError as exc:
                raise TypeMismatchError(str(exc)) from None
        if isinstance(value, (list, tuple)):
            if not isinstance(declared, ListOf):
                raise TypeMismatchError(f"list does not fit {typeref_name(declared)}")
            return VList(
                self.marshal_outbound(
                    item,
                    declared.elem,
                    iface_name=iface_name,
                    method_name=method_name,
                    position=position,
                    override=override,
                )
                for item in value
            )
        if isinstance(value, Value):
            mismatches = type_check(value, declared, self.env)
            if mismatches:
                raise TypeMismatchError("; ".join(mismatches))
            return value
        if isinstance(value, _client.Proxy):
            if not isinstance(declared, InterfaceType):
                raise TypeMismatchError(f"reference does not fit {typeref_name(declared)}")
            if value.ior.interface_name != declared.name:
                raise TypeMismatchError(
                    f"reference to {value.ior.interface_name!r} does not fit "
                    f"{typeref_name(declared)}"
                )
            policy = self.policies.resolve(position, iface_name, method_name, None, override)
            if policy is BY_REFERENCE:
                return VRef(value.ior)
            return self._remote_snapshot(value)
        descriptor = self.class_descriptor_for(value)
        if descriptor is not None:
            if not isinstance(declared, InterfaceType):
                raise TypeMismatchError(
                    f"component {descriptor.name} does not fit {typeref_name(declared)}"
                )
            target_iface = self._iface_descriptor(declared.name)
            policy = self.policies.resolve(
                position, iface_name, method_name, descriptor.name, override
            )
            if policy is BY_REFERENCE:
                return VRef(self.deploy_anonymous(target_iface, value))
            return snapshot_instance(value, descriptor)
        raise TypeMismatchError(
            f"cannot marshal {type(value).__name__}: not a transmissible value "
            "or registered component class"
        )

    def _remote_snapshot(self, proxy: _client.Proxy) -> VRecord:
        ior = proxy.ior
        reply = _client.post_call(
            ior.host, ior.port, f"/obj/{ior.object_number}", CallEnvelope(SNAPSHOT_METHOD)
        )
        if reply.fault is not None:
            raise NetworkError(
                f"snapshot of {ior.interface_name} at {ior.host}:{ior.port} failed: "
                f"{reply.fault.code.value}: {reply.fault.message}"
            )
        if not isinstance(reply.result, VRecord):
            raise NetworkError("remote snapshot did not return a record")
        return reply.result

    # ------------------------------------------------------------------
    # request handling

    def handle_request(self, http_method: str, path: str, query: str, body: bytes):
        """Route one HTTP request; returns (status, body text).

        Total over raw requests: anything that goes wrong inside call
        handling becomes a fault envelope, never an exception.
        """
        segments = [s for s in path.split("/") if s]
        wants_wsdl = "wsdl" in parse_qs(query, keep_blank_values=True)

        if http_method == "GET":
            if not segments:
                return 200, self._listing()
            dep = self._route(segments)
            if wants_wsdl:
                if dep is None:
                    return 200, encode_reply(
                        ReplyEnvelope.fail(
                            FaultCode.UNKNOWN_SERVICE, f"no such service: /{'/'.join(segments)}"
                        )
                    )
                return 200, describe(dep.iface, self.env)
            return 404, '{"error":"not found; descriptor documents are served at ?wsdl"}'

        if http_method == "POST":
            dep = self._route(segments)
            return 200, self._call(dep, "/" + "/".join(segments), body)

        return 400, '{"error":"unsupported HTTP method"}'

    def _route(self, segments: list[str]) -> Deployment | None:
        if len(segments) == 2 and segments[0] == "obj":
            number = segments[1]
            # str.isdigit alone also accepts digits int() rejects ("²") or
            # reads as ASCII ones ("١"); a leading zero would give one object
            # many paths.
            if not (number.isascii() and number.isdigit()):
                return None
            if number[0] == "0" and number != "0":
                return None
            try:
                return self.table.resolve(int(number))
            except (RefbusError, ValueError):  # ValueError: past int's digit limit
                return None
        if len(segments) == 1:
            return self.table.lookup_name(segments[0])
        return None

    def _listing(self) -> str:
        rows = []
        for dep in self.table.deployments():
            rows.append(
                {
                    "names": sorted(dep.names),
                    "obj": dep.object_number,
                    "iface": dep.iface.name,
                }
            )
        return json.dumps({"deployments": rows}, separators=(",", ":"))

    def _call(self, dep: Deployment | None, path: str, body: bytes) -> str:
        """Answer one call with reply text; the only place an exception
        becomes a fault."""
        try:
            if dep is None:
                raise UnknownServiceError(f"no such service: {path}")
            method, args = _decode(body, _call_shape)
            sig = dep.iface.method(method)  # None for a reserved or unknown method
            if sig is None or len(args) != len(sig.params):
                result = self._dispatch(dep, method, _walk(_parse_args, args))
                return encode_reply(ReplyEnvelope.ok(result))
            args, misfits = codec.receive(
                args, sig.params, self.env, "$.args[{}]",
                functools.partial(_client.materialize, self),
            )
            if misfits:
                raise TypeMismatchError("; ".join(f"arg {i} {m}" for i, ms in misfits for m in ms))
            result = self._invoke(dep, method, args)
            marshal = functools.partial(
                self.marshal_outbound, iface_name=dep.iface.name, method_name=method, position=RETURN
            )
            return codec.send_result(result, sig.returns, marshal)
        except FaultError as exc:
            code, message = exc.code, str(exc)
        except Exception as exc:  # total: never let a request kill the node
            code, message = FaultCode.INTERNAL, f"{type(exc).__name__}: {exc}"
        # A lone surrogate from the body, as in a method or field name, has
        # no UTF-8 form; escaped, the reply can still be sent.
        message = message.encode("utf-8", "backslashreplace").decode("utf-8")
        return encode_reply(ReplyEnvelope.fail(code, message))

    def _dispatch(self, dep: Deployment, method: str, args: list[Value]) -> Value:
        """Answer a call that no signature of the interface takes: a
        reserved method, or else a fault."""
        if method in RESERVED_METHODS:
            if args:
                raise TypeMismatchError(f"{method} takes no arguments")
            if method == RESOLVE_METHOD:
                return VRef(self.table.export(dep.component, dep.iface, self._host, self._port))
            return snapshot_instance(dep.component.instance, dep.component.class_descriptor)
        sig = dep.iface.method(method)
        if sig is None:
            raise UnknownMethodError(f"no such method: {method}")
        raise TypeMismatchError(f"{method} takes {len(sig.params)} args, got {len(args)}")

    def _invoke(self, dep: Deployment, method: str, args: list):
        try:
            if dep.component.reentrant:
                return dep.component.invoke(method, args)
            with dep.component.lock:
                return dep.component.invoke(method, args)
        except Exception as exc:  # a component's FaultError is INTERNAL too
            raise InternalFaultError(f"{type(exc).__name__}: {exc}") from exc


def _make_handler(node: Node):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffer each response so headers and body leave in one write; the
        # request loop flushes after every request. Written separately, the
        # body waited under Nagle's algorithm for the client's delayed ACK
        # of the headers, about 40 ms per keep-alive reply. A body larger
        # than the buffer still takes two writes, which TCP_NODELAY sends
        # without that wait.
        wbufsize = -1
        disable_nagle_algorithm = True

        def handle_expect_100(self):
            # "100 Continue" must reach the client before it sends the body.
            ok = super().handle_expect_100()
            self.wfile.flush()
            return ok

        def log_message(self, format, *args):
            pass

        def _respond(self, status: int, text: str):
            if status != 200:
                # the request body may be unread; do not reuse the connection
                self.close_connection = True
            data = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            path, _, query = self.path.partition("?")
            status, text = node.handle_request("GET", path, query, b"")
            self._respond(status, text)

        def do_POST(self):
            try:
                length = int(self.headers.get("Content-Length", ""))
            except ValueError:
                self._respond(400, '{"error":"missing or invalid Content-Length"}')
                return
            if length < 0 or length > MAX_BODY_BYTES:
                self._respond(400, '{"error":"Content-Length out of bounds"}')
                return
            body = self.rfile.read(length)
            path, _, query = self.path.partition("?")
            status, text = node.handle_request("POST", path, query, body)
            self._respond(status, text)

    return Handler


def _serve_until_interrupted(node: Node):
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass


def main(argv=None, *, wait=_serve_until_interrupted) -> int:
    """Run a bare node until interrupted."""
    parser = argparse.ArgumentParser(prog="refbus-node", description=main.__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--demo",
        choices=["figure1"],
        help="deploy the demo student component as 'bob' before serving",
    )
    args = parser.parse_args(argv)

    node = Node(args.host, args.port)
    node.start()
    try:
        if args.demo == "figure1":
            from .scenarios import Student, register_demo_types

            register_demo_types(node)
            url = node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
            print(f"deployed {url}")
        print(f"listening on http://{node.host}:{node.port}/")
        wait(node)
    finally:
        node.stop()
    return 0
