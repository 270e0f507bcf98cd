"""The runtime node: deploys live component instances behind interfaces,
serves the HTTP endpoints, dispatches calls through skeletons, and
marshals values per transmission policy. It sends no request itself:
``client`` sends calls, lookups and the snapshots of by-value proxies.

One node per address space combines the server and client roles. That is
what makes loopback unproxying work: a reference exported from here and
received back resolves to the original instance, not to a proxy.

HTTP mapping (bodies are application/json), exactly these paths:

    POST /<name>        call envelope -> reply envelope
    POST /obj/<N>       call envelope -> reply envelope
    GET  /<name>?wsdl   descriptor document
    GET  /obj/<N>?wsdl  descriptor document
    GET  /              deployment listing

Application errors travel as fault envelopes with HTTP 200; only malformed
HTTP itself yields a 400, as does a GET that declares a body. ``http1``
reads each request and writes each reply (see ``_Server``).
"""

from __future__ import annotations

import functools
import json
import selectors
import socket
import socketserver
import struct
import sys
import threading
import time
from urllib.parse import parse_qs

from . import client as _client
from . import http1
from .component import ComponentHandle, snapshot_instance
from .errors import (
    FaultCode,
    FaultError,
    IncompatibleComponentError,
    InternalFaultError,
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
    Prim,
    RecordType,
    TypeEnvironment,
    TypeRef,
    Value,
    VRef,
    to_value,
    typeref_name,
)
from .wire import ReplyEnvelope, encode_reply
from .wire import call_shape, loads, parse_args, read_call, receive, send_result, type_check
from .wire import decode_call  # unused here; bench/tracer.py patches refbus.node.decode_call

# Seconds a connection may send nothing before the node closes it and its
# thread ends: between requests, or partway through one.
IDLE_TIMEOUT_S = 30.0


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
        self._server: _Server | None = None
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

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    def start(self) -> "Node":
        """Bind and serve on a thread of the node's own; a no-op when
        running."""
        if self._server is not None:
            return self
        self._server = _Server(self)
        # On Linux, accepted connections inherit this receive timeout (a
        # POSIX struct timeval), so a read that waits longer ends the
        # connection. A Python socket timeout on each connection would do
        # the same, but it polls before every read and write, which cost
        # about 5% of a figure2_refs call.
        seconds, micros = divmod(round(IDLE_TIMEOUT_S * 1e6), 1_000_000)
        self._server.socket.setsockopt(
            socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack("@ll", seconds, micros)
        )
        self._port = self._server.socket.getsockname()[1]
        self._thread = threading.Thread(
            target=self._server.serve,
            name=f"refbus-node-{self._port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self):
        """Stop accepting, close the listening socket once the accept loop
        has ended, and end each connection still open: a call already
        running still gets its reply, though ``stop`` waits about 1 s at
        most for it, and no further request runs."""
        if self._server is None:
            return
        self._server.stop()
        self._thread.join()
        self._server.server_close()
        self._server = None
        self._thread = None

    def __enter__(self) -> "Node":
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _require_started(self):
        if self._server is None:
            raise RuntimeError("node is not running; call start() first")

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
        descriptor = self._classes.get(type(component))
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
        return f"http://{self._host}:{self._port}/{name}"

    def deploy_anonymous(self, iface, component) -> Ior:
        """Expose a component without a name; returns its remote reference.

        Only an (instance, interface) pair not yet deployed passes the
        deploy-time checks and is added to the table; either way the
        deployment is exported, which numbers it on its first export.
        """
        self._require_started()
        identity = component.identity if isinstance(component, ComponentHandle) else id(component)
        iface_name = iface.name if isinstance(iface, InterfaceDescriptor) else iface
        dep = self.table.lookup(identity, iface_name)
        if dep is None:
            descriptor, handle = self._prepare(iface, component)
            dep = self.table.add(handle, descriptor)
        return self.table.export(dep, self._host, self._port)

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
        deadline: float | None = None,
    ) -> Value:
        """Turn a local value into its wire form for one signature position.

        Components and proxies at interface-typed positions follow the
        resolved transmission policy: BY_REFERENCE sends a reference
        (just-in-time deploying local components), BY_VALUE sends a state
        record (a proxy's comes from ``client.snapshot``, bounded by the
        ``time.monotonic()`` ``deadline``).
        Everything else always passes by value; ``values.to_value``
        converts scalars and lists, and each list element takes the same
        position.
        """

        def leaf(x, t: TypeRef) -> Value:
            if x is None:
                if t is Prim.NULL or isinstance(t, (InterfaceType, RecordType)):
                    return NULL
                raise TypeMismatchError(f"None does not fit {typeref_name(t)}")
            if isinstance(x, Value):
                mismatches = type_check(x, t, self.env)
                if mismatches:
                    raise TypeMismatchError("; ".join(mismatches))
                return x
            if isinstance(x, _client.Proxy):
                if not isinstance(t, InterfaceType):
                    raise TypeMismatchError(f"reference does not fit {typeref_name(t)}")
                if x.ior.interface_name != t.name:
                    raise TypeMismatchError(
                        f"reference to {x.ior.interface_name!r} does not fit {typeref_name(t)}"
                    )
                policy = self.policies.resolve(position, iface_name, method_name, None, override)
                if policy is BY_REFERENCE:
                    return VRef(x.ior)
                return _client.snapshot(x, deadline)
            descriptor = self._classes.get(type(x))
            if descriptor is not None:
                if not isinstance(t, InterfaceType):
                    raise TypeMismatchError(
                        f"component {descriptor.name} does not fit {typeref_name(t)}"
                    )
                target_iface = self._iface_descriptor(t.name)
                policy = self.policies.resolve(
                    position, iface_name, method_name, descriptor.name, override
                )
                if policy is BY_REFERENCE:
                    return VRef(self.deploy_anonymous(target_iface, x))
                return snapshot_instance(x, descriptor, self.env)
            raise TypeMismatchError(
                f"cannot marshal {type(x).__name__}: not a transmissible value "
                "or registered component class"
            )

        return to_value(value, declared, leaf)

    # ------------------------------------------------------------------
    # request handling

    def handle_request(self, http_method: str, path: str, query: str, body: bytes):
        """Route one HTTP request; returns (status, body text).

        Total over raw requests: anything that goes wrong inside call
        handling becomes a fault envelope, never an exception.
        """
        if http_method == "GET":
            if path == "/":
                return 200, self._listing()
            dep = self._route(path)
            if "wsdl" in parse_qs(query, keep_blank_values=True):
                if dep is None:
                    return 200, encode_reply(
                        ReplyEnvelope.fail(FaultCode.UNKNOWN_SERVICE, f"no such service: {path}")
                    )
                return 200, describe(dep.iface, self.env)
            return 404, '{"error":"not found; descriptor documents are served at ?wsdl"}'

        if http_method == "POST":
            return 200, self._call(self._route(path), path, body)

        return 400, '{"error":"unsupported HTTP method"}'

    def _route(self, path: str) -> Deployment | None:
        """The deployment at exactly /<name> or /obj/<N>; any other
        spelling would give one deployment many paths."""
        segments = path.split("/")
        if len(segments) == 3 and segments[:2] == ["", "obj"]:
            number = segments[2]
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
        if len(segments) == 2 and segments[0] == "":
            return self.table.lookup_name(segments[1])
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
            if read := read_call(body, dep.iface.method):
                method, sig, args = read
            else:
                method, args = call_shape(loads(body))
                sig = dep.iface.method(method)  # None for a reserved or unknown method
                if sig is None or len(args) != len(sig.params):
                    result = self._dispatch(dep, method, parse_args(args))
                    return encode_reply(ReplyEnvelope.ok(result))
                args, misfits = receive(
                    args, sig.params, self.env, "$.args[{}]",
                    functools.partial(_client.materialize, self),
                )
                if misfits:
                    raise TypeMismatchError(
                        "; ".join(f"arg {i} {m}" for i, ms in misfits for m in ms)
                    )
            result = self._invoke(dep, method, args)
            marshal = functools.partial(
                self.marshal_outbound, iface_name=dep.iface.name, method_name=method, position=RETURN
            )
            return send_result(result, sig.returns, marshal)
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
                return VRef(self.table.export(dep, self._host, self._port))
            return snapshot_instance(dep.component.instance, dep.component.class_descriptor, self.env)
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


class _Server(socketserver.ThreadingMixIn):
    """Accepts a node's connections, and serves each on a daemon thread.

    ``serve`` is the accept loop: it blocks on the listening socket and on
    one end of a socket pair, and ``stop`` writes to the other end, so
    ``Node.stop`` returns as soon as the loop sees it. The server keeps each
    open connection, with its thread, for ``stop`` to end.
    """

    daemon_threads = True

    def __init__(self, node: Node):
        self.node = node
        self.stopped = False
        self.socket = socket.create_server((node.host, node.port))
        # after the bind: where it fails, create_server closes its socket
        self._waker, self._wakee = socket.socketpair()
        self._lock = threading.Lock()
        self._serving: dict[socket.socket, threading.Thread] = {}

    def serve(self):
        """Accept connections until ``stop``."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.socket, selectors.EVENT_READ)
            selector.register(self._wakee, selectors.EVENT_READ)
            while True:
                ready = selector.select()
                if self.stopped:
                    return
                if ready:  # only the listening socket, until stop
                    try:
                        conn, address = self.socket.accept()
                        self.process_request(conn, address)
                    except OSError:
                        pass  # reset before it was accepted, or no descriptor is free
                    except RuntimeError:  # no thread could start to serve it
                        conn.close()

    def process_request_thread(self, conn: socket.socket, address):
        """Serve one connection with ``http1`` until the peer closes, goes
        idle, a request ends the connection, or the node stops."""
        with conn:
            with self._lock:
                if self.stopped:
                    return
                self._serving[conn] = threading.current_thread()
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with conn.makefile("rb") as rfile:
                    while self._answer(conn, rfile):
                        pass
                conn.shutdown(socket.SHUT_WR)  # the FIN follows the last reply
            except (EOFError, OSError):
                pass  # closed, reset or idle: there is no one to answer
            finally:
                with self._lock:
                    del self._serving[conn]

    def _answer(self, sock: socket.socket, rfile) -> bool:
        """Read and answer one request; False when the connection closes."""
        try:
            method, target, keep_open, body = http1.read_request(sock, rfile)
        except ValueError as exc:
            http1.write_reply(sock, 400, json.dumps({"error": str(exc)}, separators=(",", ":")), False)
            return False
        if self.stopped:
            return False  # the node stopped while this request was on its way
        path, _, query = target.partition("?")
        status, text = self.node.handle_request(method, path, query, body)
        keep_open = keep_open and status == 200  # any other may leave a body unread
        http1.write_reply(sock, status, text, keep_open)
        return keep_open

    def stop(self):
        """Mark the server stopped, end ``serve``, and shut the read side of
        each open connection: a read waiting there ends, and a call already
        running still writes its reply. Waits about 1 s at most for them."""
        with self._lock:
            self.stopped = True
            for conn in self._serving:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer reset it
            threads = list(self._serving.values())
        self._waker.send(b"\0")
        deadline = time.monotonic() + 1.0
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(max(0.0, deadline - time.monotonic()))

    def server_close(self):
        self.socket.close()
        self._waker.close()
        self._wakee.close()


def _serve_until_interrupted(node: Node):
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass


def main(argv=None, *, wait=_serve_until_interrupted) -> int:
    """Run a bare node until interrupted."""
    import argparse

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


if __name__ == "__main__":
    # runpy runs this file as a second copy of refbus.node; serve the package's Node.
    from refbus.node import main as package_main

    sys.exit(package_main())
