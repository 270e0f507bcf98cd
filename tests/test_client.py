"""Client runtime: proxies, materialization, loopback identity, chained
references, and call options."""

from __future__ import annotations

import contextlib
import copy
import functools
import gc
import http.client
import math
import pickle
import re
import socketserver
import threading
import time
import types
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import refbus.client
from refbus import (
    BY_REFERENCE,
    BY_VALUE,
    BadEnvelopeError,
    CallOptions,
    CallOverride,
    CallTimeout,
    ClassDescriptor,
    ComponentHandle,
    FaultCode,
    InterfaceDescriptor,
    InterfaceType,
    InternalFaultError,
    InvalidNameError,
    MethodSig,
    NetworkError,
    Node,
    Prim,
    RecordType,
    RefbusError,
    TypeMismatchError,
    UnknownInterfaceError,
    UnknownMethodError,
    UnknownServiceError,
)
from refbus.client import Proxy, http_get, materialize, post_call
from refbus.http1 import Malformed, Truncated
from refbus.values import Ior, VInt, VList, VRecord, VRef, VStr
from refbus.wire import CallEnvelope, ReplyEnvelope, decode_reply, encode_call, encode_reply
from refbus.scenarios import PERSON_CLASS, Person, Student, register_demo_types

IHOLDER = InterfaceDescriptor(
    "IHolder",
    [
        MethodSig("setItem", (InterfaceType("IPerson"),), Prim.NULL),
        MethodSig("getItem", (), InterfaceType("IPerson")),
    ],
)

HOLDER_CLASS = ClassDescriptor(
    "Holder",
    methods=[
        MethodSig("setItem", (InterfaceType("IPerson"),), Prim.NULL),
        MethodSig("getItem", (), InterfaceType("IPerson")),
    ],
)


class Holder:
    def __init__(self):
        self.item = None
        self.received = []

    def setItem(self, item):
        self.item = item
        self.received.append(item)

    def getItem(self):
        return self.item


def _holder_node(make_node):
    node = make_node()
    node.register_interface(IHOLDER)
    node.register_class(Holder, HOLDER_CLASS, constructor=False)
    return node


# ---------------------------------------------------------------------------
# get_component_by_name


def test_get_component_by_name(make_node):
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    bob = consumer.get_component_by_name("bob", server.host, server.port)
    assert isinstance(bob, Proxy)
    assert bob.iface.name == "INamedEntity"
    assert bob.getName() == "Bobby Jones"


def test_get_component_by_name_unknown(make_node):
    server, consumer = make_node(), make_node()
    with pytest.raises(UnknownServiceError):
        consumer.get_component_by_name("nosuch", server.host, server.port)


def test_get_component_by_name_interns(make_node):
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    first = consumer.get_component_by_name("bob", server.host, server.port)
    second = consumer.get_component_by_name("bob", server.host, server.port)
    assert first is second


def test_get_component_by_name_requires_local_interface(make_node):
    server = make_node()
    consumer = make_node(demo=False)  # empty type environment
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    with pytest.raises(UnknownInterfaceError):
        consumer.get_component_by_name("bob", server.host, server.port)


def test_get_component_by_name_network_error():
    node = Node()
    register_demo_types(node)
    node.start()
    try:
        dead_port = node.port  # will be closed right below
    finally:
        node.stop()
    probe = Node()
    register_demo_types(probe)
    probe.start()
    try:
        with pytest.raises(NetworkError):
            probe.get_component_by_name("bob", "127.0.0.1", dead_port, timeout=2)
    finally:
        probe.stop()


def test_get_component_by_name_rejects_unreachable_name_before_io(monkeypatch):
    def no_io(*args):
        raise AssertionError("a name no URL can carry reached the network")

    monkeypatch.setattr(refbus.client, "_http_request", no_io)
    with pytest.raises(InvalidNameError):
        Node().get_component_by_name("my comp", "127.0.0.1", 1)
    # A host or port no request can reach: before, port 70000 reached port
    # 4464 (getaddrinfo keeps 16 bits), and the others reached the transport.
    for host, port, error in [
        ("127.0.0.1", 70000, ValueError), ("127.0.0.1", 2**70, ValueError),
        ("127.0.0.1", 0, ValueError), ("127.0.0.1", 65536, ValueError),
        ("127.0.0.1", -1, ValueError), ("", 80, ValueError),
        ("127.0.0.1", "80", TypeError), ("127.0.0.1", True, TypeError),
        ("127.0.0.1", 80.0, TypeError), (None, 80, TypeError), (2130706433, 80, TypeError),
        (b"127.0.0.1", 80, TypeError),
    ]:
        with pytest.raises(error):
            Node().get_component_by_name("bob", host, port)


@contextlib.contextmanager
def _stub_server(body: bytes):
    """A local HTTP server answering every GET and POST with 200 and ``body``;
    yields its port."""

    class Stub(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):
            pass

        def _reply(self):
            self.rfile.read(int(self.headers.get("Content-Length", "0")))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = _reply

    server = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_get_component_by_name_deeply_nested_descriptor_is_bad_envelope():
    node = Node()
    register_demo_types(node)
    with _stub_server(b"[" * 100000) as port:
        with pytest.raises(BadEnvelopeError):
            node.get_component_by_name("bob", "127.0.0.1", port, timeout=5)


def test_non_utf8_reply_body_is_bad_envelope():
    """A 200 reply whose body is not UTF-8 raises BadEnvelopeError, from
    post_call and http_get alike, never a bare UnicodeDecodeError."""
    with _stub_server(b"\xff") as port:
        with pytest.raises(BadEnvelopeError):
            decode_reply(post_call("127.0.0.1", port, "/x", encode_call(CallEnvelope("m")), timeout=5))
        with pytest.raises(BadEnvelopeError):
            http_get("127.0.0.1", port, "/x?wsdl", timeout=5)


def _answering(monkeypatch, node, *, get=None, post=None, delay=0.0):
    """Make ``node`` answer every GET with ``get`` and every POST with
    ``post`` after ``delay`` seconds; an answer left None is the node's own."""
    own = node.handle_request

    def handle_request(http_method, path, query, body):
        time.sleep(delay)
        text = get if http_method == "GET" else post
        return own(http_method, path, query, body) if text is None else (200, text)

    monkeypatch.setattr(node, "handle_request", handle_request)


@pytest.mark.parametrize(
    "get, post, error, message",
    [
        ('{"methods":[]}', None, BadEnvelopeError, "descriptor document missing interface name"),
        (
            None,
            encode_reply(ReplyEnvelope.fail(FaultCode.UNKNOWN_SERVICE, "bob left")),
            UnknownServiceError,
            "bob left",
        ),
        (
            None,
            encode_reply(ReplyEnvelope.ok(VInt(1))),
            BadEnvelopeError,
            "name resolution must return a remote reference",
        ),
        (
            None,
            encode_reply(ReplyEnvelope.ok(VRef(Ior("127.0.0.1", 1, 0, "IPerson")))),
            BadEnvelopeError,
            "descriptor names interface 'INamedEntity' but the reference carries 'IPerson'",
        ),
    ],
    ids=["no-interface", "resolve-fault", "not-a-reference", "interface-mismatch"],
)
def test_get_component_by_name_refuses_a_bad_answer(
    make_node, monkeypatch, get, post, error, message
):
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    _answering(monkeypatch, server, get=get, post=post)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        consumer.get_component_by_name("bob", server.host, server.port)


def test_a_lookup_timeout_bounds_both_of_its_requests(make_node, monkeypatch):
    """Under a 1.0 s timeout, a 0.7 s descriptor GET leaves 0.3 s for the
    0.7 s resolve; before, each request got the whole timeout and the
    lookup returned after about 1.4 s."""
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    _answering(monkeypatch, server, delay=0.7)
    with pytest.raises(CallTimeout):
        consumer.get_component_by_name("bob", server.host, server.port, timeout=1.0)


# Replies the client cannot read, by the http.client error each raised
# before http1 read them: now the refbus class and text of each refusal
_MALFORMED_REPLIES = {
    "IncompleteRead": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
        Truncated, "the connection ended 7 bytes short of the body",
    ),
    "BadStatusLine": (
        b"SPDY/9 hello\r\n", Malformed, "a status line is HTTP/1.x NNN, got b'SPDY/9 hello\\r\\n'",
    ),
    "LineTooLong": (
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n",
        Malformed, "a line of the head is longer than 65536 bytes",
    ),
}


@pytest.mark.parametrize("via", ["proxy", "GET"])
@pytest.mark.parametrize("error", sorted(_MALFORMED_REPLIES))
def test_malformed_http_reply_is_a_network_error(make_node, raw_reply, error, via):
    """A reply the client cannot read raises NetworkError from a proxy call
    and a GET alike, once: the call is not retried."""
    reply, cause, text = _MALFORMED_REPLIES[error]
    port = raw_reply(reply)
    if via == "proxy":
        request = make_node().proxy_for_ior(Ior("127.0.0.1", port, 0, "INamedEntity")).getName
    else:
        request = functools.partial(http_get, "127.0.0.1", port, "/x?wsdl", timeout=5)
    with pytest.raises(NetworkError) as info:
        request()
    assert type(info.value.__cause__) is cause and str(info.value.__cause__) == text


# Replies the client's reader refuses, each on one connection, by the
# refbus class and text of the refusal
_REFUSED_REPLIES = {
    "a 101st header line": (
        b"HTTP/1.1 200 OK\r\n" + b"X-A: b\r\n" * 101 + b"Content-Length: 2\r\n\r\n{}",
        Malformed, "more than 100 header lines",  # was http.client.HTTPException
    ),
    "chunked": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        Malformed, "Transfer-Encoding is not supported",  # was http.client.HTTPException
    ),
    "non-digit Content-Length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\n{}",
        Malformed, "invalid Content-Length",  # was http.client.HTTPException
    ),
    "close before a status line": (
        b"", Truncated, "the connection ended inside a head",  # was RemoteDisconnected
    ),
    "close inside the head": (
        b"HTTP/1.1 200 OK\r\nContent-Len",
        Truncated, "the connection ended inside a head",  # was http.client.IncompleteRead
    ),
    "a huge Content-Length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 16777216\r\n\r\nabc",
        Truncated, "the connection ended 16777213 bytes short of the body",  # was IncompleteRead
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_REPLIES))
def test_a_refused_reply_is_a_network_error(raw_reply, case):
    """Each refusal is http1's error under a NetworkError, from one
    request: a declared length of 16 MiB, 3 bytes sent, is read piece by
    piece."""
    reply, cause, text = _REFUSED_REPLIES[case]
    port = raw_reply(reply)
    with pytest.raises(NetworkError) as info:
        http_get("127.0.0.1", port, "/x?wsdl", timeout=5)
    assert type(info.value.__cause__) is cause and str(info.value.__cause__) == text


def test_a_reply_sent_one_byte_at_a_time_is_read_whole(make_node, raw_reply):
    body = encode_reply(ReplyEnvelope.ok(VStr("Bobby Jones"))).encode()
    port = raw_reply(
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body), bytewise=True
    )
    proxy = make_node().proxy_for_ior(Ior("127.0.0.1", port, 0, "INamedEntity"))
    assert proxy.getName() == "Bobby Jones"


def test_a_timeout_bounds_the_whole_reply(raw_reply):
    """A reply trickled one byte every 0.1 s, about 4.5 s in all, ends
    with CallTimeout at the 1.0 s timeout, though no one recv waits that
    long."""
    reply = b'HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\n{"a":1}'
    port = raw_reply(reply, bytewise=True, delay=0.1)
    start = time.monotonic()
    with pytest.raises(CallTimeout):
        http_get("127.0.0.1", port, "/x?wsdl", timeout=1.0)
    assert time.monotonic() - start < 1.5


def test_a_deadline_that_passes_between_two_reads_of_a_reply_raises_call_timeout(
    raw_reply, monkeypatch
):
    """A stub clock passes the deadline as the first read of a reply returns:
    the next read raises CallTimeout before it waits, though the peer's
    close is already there to read, which would be a truncated reply."""
    now = 0.0
    read = refbus.client._DeadlineReader.readinto

    def read_then_pass_the_deadline(self, buffer):
        nonlocal now
        count = read(self, buffer)
        now += 60.0
        return count

    monkeypatch.setattr(refbus.client, "time", types.SimpleNamespace(monotonic=lambda: now))
    monkeypatch.setattr(refbus.client._DeadlineReader, "readinto", read_then_pass_the_deadline)
    port = raw_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\n")
    with pytest.raises(CallTimeout) as info:
        http_get("127.0.0.1", port, "/x?wsdl", timeout=5)
    assert str(info.value) == "the deadline passed before the next request or socket operation"


def test_each_request_asks_for_its_connection_to_be_closed(raw_reply):
    """RFC 9112 §9.3: a client that keeps no connection open sends the close
    option in every request. Without it, the node's thread read on until
    the client's FIN came."""
    port = raw_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
    call = encode_call(CallEnvelope("getName", []))
    post_call("127.0.0.1", port, "/bob", call, timeout=5)
    assert raw_reply.heads == [
        b"POST /bob HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nConnection: close\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d" % (port, len(call))
    ]


def test_a_reply_without_content_length_is_read_to_close(raw_reply):
    port = raw_reply(b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{\"a\":1}")
    assert http_get("127.0.0.1", port, "/x?wsdl", timeout=5) == '{"a":1}'


@pytest.mark.parametrize("path", ["/b\u00e9?wsdl", "/bob ?wsdl", "/bob\r\n?wsdl", "/\x7f", ""])
def test_a_target_that_is_not_printable_ascii_is_refused_before_connecting(
    make_node, monkeypatch, path
):
    """A non-ASCII target raised a bare UnicodeEncodeError before; now every
    target that is not printable ASCII without spaces is an http1.Malformed
    (it was an http.client.InvalidURL) under a NetworkError, and no
    connection is opened."""
    node = make_node()

    def no_connect(self):
        raise AssertionError("a request with a bad target was connected")

    monkeypatch.setattr(http.client.HTTPConnection, "connect", no_connect)
    call = encode_call(CallEnvelope("getName", []))
    for request in (
        functools.partial(http_get, node.host, node.port, path, timeout=5),
        functools.partial(post_call, node.host, node.port, path, call, timeout=5),
    ):
        with pytest.raises(NetworkError) as info:
            request()
        assert type(info.value.__cause__) is Malformed
        assert str(info.value.__cause__) == (
            f"a request target is printable ASCII without spaces: {path!r}"
        )


def test_each_request_opens_and_is_accepted_on_one_connection(make_node, monkeypatch):
    """A proxy call, a ?wsdl GET and a by-value proxy argument's remote
    snapshot each make one HTTPConnection.connect and one process_request,
    the two names bench/tracer.py counts connections and accepts by. This
    test is deleted with the bench change that counts them in refbus."""
    counts = {"connect": 0, "accept": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    node_a, node_b = _holder_node(make_node), make_node()
    node_a.deploy("IPerson", Person("john", 35), "john")
    node_a.deploy(IHOLDER, Holder(), "holder")
    node_b.register_interface(IHOLDER)
    john = node_b.get_component_by_name("john", node_a.host, node_a.port)
    holder = node_b.get_component_by_name("holder", node_a.host, node_a.port)
    monkeypatch.setattr(
        http.client.HTTPConnection, "connect",
        counting("connect", http.client.HTTPConnection.connect),
    )
    monkeypatch.setattr(
        socketserver.ThreadingMixIn, "process_request",
        counting("accept", socketserver.ThreadingMixIn.process_request),
    )
    by_value = CallOptions(override=CallOverride(whole_call=BY_VALUE))
    for request, requests in [
        (john.getAge, 1),
        (functools.partial(http_get, node_a.host, node_a.port, "/john?wsdl"), 1),
        (functools.partial(holder.invoke, "setItem", [john], by_value), 2),  # snapshot, call
    ]:
        counts.update(connect=0, accept=0)
        request()
        assert counts == {"connect": requests, "accept": requests}


def test_a_reply_other_than_200_is_a_network_error_naming_its_status(make_node, raw_reply):
    """A GET of a deployment path without ?wsdl gets the node's 404; a
    POST answered 503 is not retried (raw_reply takes one connection)."""
    node = make_node()
    node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    with pytest.raises(NetworkError, match=f"^GET 127.0.0.1:{node.port}/bob returned HTTP 404$"):
        http_get(node.host, node.port, "/bob", timeout=5)
    port = raw_reply(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n")
    call = encode_call(CallEnvelope("getName", []))
    with pytest.raises(NetworkError, match=f"^POST 127.0.0.1:{port}/bob returned HTTP 503$"):
        post_call("127.0.0.1", port, "/bob", call, timeout=5)


def test_reference_to_an_unusable_host_is_a_network_error(make_node):
    """http.client refuses a host with a space as an InvalidURL."""
    proxy = make_node().proxy_for_ior(Ior("bad host", 1, 0, "INamedEntity"))
    for request in (proxy.getName, functools.partial(http_get, "bad host", 1, "/", timeout=5)):
        with pytest.raises(NetworkError) as info:
            request()
        assert type(info.value.__cause__) is http.client.InvalidURL


@pytest.mark.parametrize("host", ["a..b", "a" * 70 + ".example", "\u00e9" * 70])
def test_a_host_without_an_idna_form_is_a_network_error(make_node, host):
    """A host with an empty or over-63-character label has no IDNA form. It
    raised a bare UnicodeError from the request writer or from getaddrinfo;
    now it is a NetworkError caused by that UnicodeError, before any lookup."""
    proxy = make_node().proxy_for_ior(Ior(host, 1, 0, "INamedEntity"))
    for request in (proxy.getName, functools.partial(http_get, host, 1, "/", timeout=5)):
        with pytest.raises(NetworkError, match="failed: UnicodeError: ") as info:
            request()
        assert type(info.value.__cause__) is UnicodeError


# ---------------------------------------------------------------------------
# proxy invocation


def test_proxy_method_set_is_confined(make_node):
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    bob = consumer.get_component_by_name("bob", server.host, server.port)
    with pytest.raises(AttributeError):
        bob.getMatriculationNumber
    with pytest.raises(UnknownMethodError):
        bob.invoke("getMatriculationNumber")


def test_proxy_arity_check(make_node):
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    bob = consumer.get_component_by_name("bob", server.host, server.port)
    with pytest.raises(TypeMismatchError):
        bob.invoke("getName", [1])


def test_proxy_transparency_for_primitive_results(make_node):
    server, consumer = make_node(), make_node()
    student = Student("Bobby Jones", 1234)
    server.deploy("INamedEntity", student, "bob")
    bob = consumer.get_component_by_name("bob", server.host, server.port)
    assert bob.getName() == student.getName()


def test_call_timeout(make_node):
    class Sleeper:
        def nap(self):
            time.sleep(0.6)

    node = make_node()
    iface = InterfaceDescriptor("ISleep", [MethodSig("nap", (), Prim.NULL)])
    node.register_interface(iface)
    descriptor = ClassDescriptor("Sleeper", methods=[MethodSig("nap", (), Prim.NULL)])
    node.deploy(iface, ComponentHandle(Sleeper(), descriptor), "sleeper")

    consumer = make_node()
    consumer.register_interface(iface)
    sleeper = consumer.get_component_by_name("sleeper", node.host, node.port)
    with pytest.raises(CallTimeout):
        sleeper.invoke("nap", (), CallOptions(timeout=0.1))


@pytest.mark.parametrize(
    "timeout, error",
    [
        (-1, ValueError), (0, ValueError), (math.nan, ValueError), (math.inf, ValueError),
        (threading.TIMEOUT_MAX * 2, ValueError), (True, TypeError), ("5", TypeError),
        (None, TypeError),
    ],
    ids=["-1", "0", "nan", "inf", "past TIMEOUT_MAX", "True", "str", "None"],
)
def test_a_timeout_is_a_positive_finite_number(timeout, error, monkeypatch):
    """A bad timeout is refused where the options are built, so no argument
    is marshalled (or deployed by reference) for a call that cannot be
    sent; before, -1 and NaN left the call as a bare ValueError, inf as
    OverflowError and 0 as a NetworkError."""
    with pytest.raises(error, match="^timeout must be"):
        CallOptions(timeout=timeout)

    def no_io(*args):
        raise AssertionError("a bad timeout reached the network")

    monkeypatch.setattr(refbus.client, "_http_request", no_io)
    with pytest.raises(error, match="^timeout must be"):
        Node().get_component_by_name("bob", "127.0.0.1", 1, timeout=timeout)


def test_a_timeout_may_be_any_positive_number_a_socket_takes():
    for timeout in (1, 0.001, 5e-324, threading.TIMEOUT_MAX):
        assert CallOptions(timeout=timeout).timeout == timeout


def test_unrepresentable_numbers_fault_before_sending(make_node, monkeypatch):
    import refbus.client

    sent = []
    monkeypatch.setattr(refbus.client, "post_call", lambda *args: sent.append(args))
    inumbers = InterfaceDescriptor(
        "INumbers",
        [MethodSig("put", (Prim.I64,), Prim.NULL), MethodSig("putf", (Prim.F64,), Prim.NULL)],
    )
    node = make_node()
    node.register_interface(inumbers)
    proxy = node.proxy_for_ior(Ior(node.host, node.port, 0, "INumbers"))
    with pytest.raises(TypeMismatchError):
        proxy.put(2**70)
    with pytest.raises(TypeMismatchError):
        proxy.putf(float("nan"))
    assert sent == []


def test_lone_surrogate_argument_faults_before_sending(make_node, monkeypatch):
    import refbus.client

    sent = []
    monkeypatch.setattr(refbus.client, "post_call", lambda *args: sent.append(args))
    inames = InterfaceDescriptor("INames", [MethodSig("setName", (Prim.STR,), Prim.NULL)])
    node = make_node()
    node.register_interface(inames)
    proxy = node.proxy_for_ior(Ior(node.host, node.port, 0, "INames"))
    with pytest.raises(TypeMismatchError):
        proxy.setName("\udc80")
    assert sent == []


def test_null_argument_travels_as_null_under_any_policy(make_node):
    node_a, node_b = _holder_node(make_node), _holder_node(make_node)
    node_a.policies.set_method_policy("IHolder", "setItem", BY_REFERENCE)
    holder = Holder()
    node_b.deploy(IHOLDER, holder, "holder")
    proxy = node_a.get_component_by_name("holder", node_b.host, node_b.port)
    proxy.setItem(None)
    assert holder.received == [None]


# ---------------------------------------------------------------------------
# materialize


def test_materialize_loopback_reference_preserves_identity(make_node):
    node = make_node()
    john = Person("john", 35)
    ior = node.deploy_anonymous("IPerson", john)
    assert materialize(node, VRef(ior)) is john


def test_materialize_loopback_unknown_object(make_node):
    node = make_node()
    ior = Ior(node.host, node.port, 404, "IPerson")
    with pytest.raises(UnknownServiceError):
        materialize(node, VRef(ior))


def test_materialize_foreign_reference_is_a_proxy(make_node):
    node = make_node()
    ior = Ior("elsewhere.example", 9999, 0, "IPerson")
    proxy = materialize(node, VRef(ior))
    assert isinstance(proxy, Proxy)
    assert materialize(node, VRef(ior)) is proxy


def test_materialize_unknown_interface(make_node):
    node = make_node(demo=False)
    ior = Ior("elsewhere.example", 9999, 0, "IPerson")
    with pytest.raises(UnknownInterfaceError):
        materialize(node, VRef(ior))


def test_materialize_record_with_constructor(make_node):
    node = make_node()
    record = VRecord("Person", [("name", VStr("John Brown")), ("age", VInt(35))])
    person = materialize(node, record)
    assert isinstance(person, Person)
    assert (person.name, person.age) == ("John Brown", 35)


def test_materialize_record_without_constructor_stays_a_record(make_node):
    node = make_node()
    record = VRecord("Mystery", [("x", VInt(1))])
    out = materialize(node, record)
    assert out == record


def test_materialize_nested_list(make_node):
    node = make_node()
    wire = VList([VInt(1), VList([VStr("a")]), VRecord("Person", [("name", VStr("n")), ("age", VInt(1))])])
    out = materialize(node, wire)
    assert out[0] == 1
    assert out[1] == ["a"]
    assert isinstance(out[2], Person)


# ---------------------------------------------------------------------------
# reference round trips


def test_reference_round_trip_identity(make_node):
    """A -> B by reference, then back to A: the original instance returns."""
    node_a, node_b = _holder_node(make_node), _holder_node(make_node)
    node_a.policies.set_method_policy("IHolder", "setItem", BY_REFERENCE)
    node_b.policies.set_return_policy("IHolder", "getItem", BY_REFERENCE)

    holder = Holder()
    node_b.deploy(IHOLDER, holder, "holder")
    john = Person("john", 35)

    proxy = node_a.get_component_by_name("holder", node_b.host, node_b.port)
    proxy.setItem(john)
    assert isinstance(holder.item, Proxy)  # B holds a proxy back to A
    returned = proxy.getItem()
    assert returned is john


def test_two_receipts_of_one_ior_intern_to_one_proxy(make_node):
    node_a, node_b = _holder_node(make_node), _holder_node(make_node)
    node_a.policies.set_method_policy("IHolder", "setItem", BY_REFERENCE)

    holder = Holder()
    node_b.deploy(IHOLDER, holder, "holder")
    john = Person("john", 35)
    proxy = node_a.get_component_by_name("holder", node_b.host, node_b.port)
    proxy.setItem(john)
    proxy.setItem(john)
    assert len(holder.received) == 2
    assert holder.received[0] is holder.received[1]


def test_a_receiver_keeps_no_proxy_it_received_and_dropped(make_node):
    """The receiving node's intern table does not grow with every
    reference it was passed: a replaced spouse's proxy is freed."""
    sender, receiver = make_node(), make_node()
    sender.policies.set_method_policy("IPerson", "setSpouse", BY_REFERENCE)
    mary = Person("Mary Brown", 34)
    receiver.deploy("IPerson", mary, "mary")
    proxy = sender.get_component_by_name("mary", receiver.host, receiver.port)
    for i in range(500):
        proxy.setSpouse(Person(f"Spouse {i}", i))
    gc.collect()
    assert len(receiver.proxies._proxies) <= 1
    assert isinstance(mary.spouse, Proxy) and mary.spouse.getAge() == 499


def test_a_dropped_proxy_dies_by_reference_counting_and_a_new_receipt_works(make_node):
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    proxy = consumer.get_component_by_name("bob", server.host, server.port)
    dead = weakref.ref(proxy)
    enabled = gc.isenabled()
    gc.disable()  # a cycle through the proxy would survive reference counting
    try:
        assert proxy.getName() == "Bobby Jones"  # through __getattr__
        del proxy
        assert dead() is None
    finally:
        if enabled:
            gc.enable()
    assert len(consumer.proxies._proxies) == 0
    again = consumer.get_component_by_name("bob", server.host, server.port)
    assert again.getName() == "Bobby Jones"
    assert consumer.get_component_by_name("bob", server.host, server.port) is again


def test_a_copy_of_a_proxy_is_the_proxy(make_node):
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    proxy = consumer.get_component_by_name("bob", server.host, server.port)
    assert copy.copy(proxy) is proxy
    assert copy.deepcopy(proxy) is proxy
    assert copy.deepcopy({"bob": [proxy]})["bob"][0] is proxy
    bare = Proxy.__new__(Proxy)  # as copy and pickle build one
    with pytest.raises(AttributeError):
        bare.getName
    assert proxy.getName() == "Bobby Jones"


def test_pickling_a_proxy_is_refused_with_its_interface_and_address(make_node):
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    proxy = consumer.get_component_by_name("bob", server.host, server.port)
    address = f"{server.host}:{server.port}/obj/{proxy.ior.object_number}"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(RefbusError) as info:
            pickle.dumps(proxy, protocol)
        assert "INamedEntity" in str(info.value) and address in str(info.value)
    assert copy.deepcopy(proxy) is proxy
    assert proxy.getName() == "Bobby Jones"


def test_chained_reference_forwards_ior_verbatim(make_node):
    """A's component handed to C through B: C's proxy points at A, not B."""
    node_a = _holder_node(make_node)
    node_b = _holder_node(make_node)
    node_c = _holder_node(make_node)

    john = Person("john", 35)
    ior_a = node_a.deploy_anonymous("IPerson", john)

    # B receives A's reference, holds the proxy
    holder_b = Holder()
    node_b.deploy(IHOLDER, holder_b, "holder-b")
    node_a.policies.set_method_policy("IHolder", "setItem", BY_REFERENCE)
    proxy_ab = node_a.get_component_by_name("holder-b", node_b.host, node_b.port)
    proxy_ab.setItem(john)
    assert isinstance(holder_b.item, Proxy)
    assert holder_b.item.ior == ior_a

    # C asks B for the item; B forwards the reference it holds
    node_b.policies.set_return_policy("IHolder", "getItem", BY_REFERENCE)
    proxy_cb = node_c.get_component_by_name("holder-b", node_b.host, node_b.port)
    item = proxy_cb.getItem()
    assert isinstance(item, Proxy)
    assert item.ior == ior_a
    assert (item.ior.host, item.ior.port) == (node_a.host, node_a.port)
    assert item.getAge() == 35


def test_per_call_override_flips_semantics(make_node):
    node_a, node_b = _holder_node(make_node), _holder_node(make_node)
    # stored policy says copy; the override forces a reference for one call
    node_a.policies.set_method_policy("IHolder", "setItem", BY_VALUE)
    holder = Holder()
    node_b.deploy(IHOLDER, holder, "holder")
    john = Person("john", 35)
    proxy = node_a.get_component_by_name("holder", node_b.host, node_b.port)

    proxy.setItem(john)
    assert isinstance(holder.received[0], Person)
    assert holder.received[0] is not john

    proxy.invoke(
        "setItem",
        [john],
        CallOptions(override=CallOverride(whole_call=BY_REFERENCE)),
    )
    assert isinstance(holder.received[1], Proxy)


def test_figure2_semantics_through_proxies(make_node):
    """setSpouse by reference sees the increment (36); by value does not (35)."""
    for policy, expected_age in ((BY_REFERENCE, 36), (BY_VALUE, 35)):
        node_a, node_b = make_node(), make_node()
        node_a.policies.set_method_policy("IPerson", "setSpouse", policy)
        node_b.deploy("IPerson", Person("Mary Smith", 40), "mary")

        john = Person("John Brown", 35)
        mary = node_a.get_component_by_name("mary", node_b.host, node_b.port)
        mary.setSpouse(john)
        john.incrementAge()
        assert mary.getSpouse().getAge() == expected_age


def test_by_value_proxy_translation_snapshots_remotely(make_node):
    """Passing a proxy with BY_VALUE sends the referenced component's state."""
    node_a, node_b, node_c = _holder_node(make_node), _holder_node(make_node), _holder_node(make_node)

    john = Person("john", 35)
    node_a.deploy("IPerson", john, "john")

    holder_c = Holder()
    node_c.deploy(IHOLDER, holder_c, "holder")

    # B obtains a proxy to A's john, then passes it to C by value
    john_proxy = node_b.get_component_by_name("john", node_a.host, node_a.port)
    node_b.policies.set_method_policy("IHolder", "setItem", BY_VALUE)
    holder_proxy = node_b.get_component_by_name("holder", node_c.host, node_c.port)
    holder_proxy.setItem(john_proxy)

    received = holder_c.item
    assert isinstance(received, Person)
    assert (received.name, received.age) == ("john", 35)
    assert received is not john


class SlowPerson(Person):
    """A Person whose name, as a snapshot reads it, first calls ``wait()``."""

    def __init__(self, wait):
        self.wait = wait
        super().__init__("john", 35)

    @property
    def name(self):
        self.wait()
        return self._name

    @name.setter
    def name(self, value):
        self._name = value


def test_a_by_value_proxy_snapshot_keeps_the_call_timeout(make_node):
    """The remote snapshot that a proxy passed by value needs is part of the
    call, so it ends with the call's timeout; before, it waited on
    client.DEFAULT_TIMEOUT (30 s)."""
    release = threading.Event()
    node_a, node_b = _holder_node(make_node), make_node()
    slow = SlowPerson(functools.partial(release.wait, 5))
    node_a.deploy("IPerson", ComponentHandle(slow, PERSON_CLASS), "john")
    node_a.deploy(IHOLDER, Holder(), "holder")
    node_b.register_interface(IHOLDER)
    john = node_b.get_component_by_name("john", node_a.host, node_a.port)
    holder = node_b.get_component_by_name("holder", node_a.host, node_a.port)
    opts = CallOptions(override=CallOverride(whole_call=BY_VALUE), timeout=0.5)
    start = time.monotonic()
    try:
        with pytest.raises(CallTimeout):
            holder.invoke("setItem", [john], opts)
        assert time.monotonic() - start < 2.0
    finally:
        release.set()


class SlowHolder(Holder):
    def setItem(self, item):
        time.sleep(0.7)
        super().setItem(item)


def test_a_call_timeout_bounds_its_snapshots_and_the_call_together(make_node):
    """Under a 1.0 s timeout, a 0.7 s snapshot of a by-value proxy argument
    leaves 0.3 s for the 0.7 s method; before, each request got the whole
    timeout and the call returned after about 1.4 s."""
    node_a, node_b = _holder_node(make_node), make_node()
    slow = SlowPerson(functools.partial(time.sleep, 0.7))
    node_a.deploy("IPerson", ComponentHandle(slow, PERSON_CLASS), "john")
    node_a.deploy(IHOLDER, ComponentHandle(SlowHolder(), HOLDER_CLASS), "holder")
    node_b.register_interface(IHOLDER)
    john = node_b.get_component_by_name("john", node_a.host, node_a.port)
    holder = node_b.get_component_by_name("holder", node_a.host, node_a.port)
    opts = CallOptions(override=CallOverride(whole_call=BY_VALUE), timeout=1.0)
    with pytest.raises(CallTimeout):
        holder.invoke("setItem", [john], opts)


def test_a_by_value_argument_that_cannot_be_snapshotted_is_not_sent(make_node, monkeypatch):
    """An argument instance that lacks a declared state field raises
    InternalFaultError, with the snapshot fault's text, before any request
    goes out."""
    server, consumer = make_node(), make_node()
    mary = Person("Mary Smith", 40)
    server.deploy("IPerson", mary, "mary")
    proxy = consumer.get_component_by_name("mary", server.host, server.port)
    half = Person("Half", 3)
    del half.age

    def no_io(*args):
        raise AssertionError("a call whose argument cannot be copied reached the network")

    monkeypatch.setattr(refbus.client, "_http_request", no_io)
    override = CallOptions(override=CallOverride(whole_call=BY_VALUE))
    with pytest.raises(InternalFaultError) as info:
        proxy.invoke("setSpouse", [half], override)
    assert str(info.value) == "cannot snapshot Person.age: 'Person' object has no attribute 'age'"
    assert mary.spouse is None


def test_a_call_whose_timeout_has_run_out_is_not_sent(make_node, monkeypatch):
    """A timeout too short to leave any time after marshalling raises
    CallTimeout before any request goes out."""
    server, consumer = make_node(), make_node()
    server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    bob = consumer.get_component_by_name("bob", server.host, server.port)

    def no_io(*args):
        raise AssertionError("a call with no time left reached the network")

    monkeypatch.setattr(refbus.client, "_http_request", no_io)
    with pytest.raises(CallTimeout):
        bob.invoke("getName", (), CallOptions(timeout=5e-324))


@pytest.mark.parametrize(
    "reply, message",
    [
        (
            encode_reply(ReplyEnvelope.fail(FaultCode.UNKNOWN_SERVICE, "john left")),
            "failed: UNKNOWN_SERVICE: john left",
        ),
        (encode_reply(ReplyEnvelope.ok(VInt(1))), "remote snapshot did not return a record"),
    ],
    ids=["fault", "not-a-record"],
)
def test_a_remote_snapshot_that_is_no_state_record_is_a_network_error(
    make_node, monkeypatch, reply, message
):
    """The by-value copy of a proxy argument fails the call before it is
    sent when the snapshot request faults or returns something else."""
    node_a, node_b, node_c = make_node(), make_node(), _holder_node(make_node)
    node_a.deploy("IPerson", Person("john", 35), "john")
    holder_c = Holder()
    node_c.deploy(IHOLDER, holder_c, "holder")
    node_b.register_interface(IHOLDER)
    john = node_b.get_component_by_name("john", node_a.host, node_a.port)
    holder = node_b.get_component_by_name("holder", node_c.host, node_c.port)
    _answering(monkeypatch, node_a, post=reply)
    with pytest.raises(NetworkError, match=re.escape(message)):
        holder.setItem(john)
    assert holder_c.received == []


def test_a_result_record_type_the_client_lacks_is_a_type_mismatch(make_node):
    get_pt = MethodSig("get", (), RecordType("Pt"))
    ipt = InterfaceDescriptor("IPt", [get_pt])

    class Source:
        def get(self):
            return VRecord("Pt", [("x", VInt(1))])

    server = make_node(demo=False)
    server.register_record("Pt", [("x", Prim.I64)])
    server.register_interface(ipt)
    source_class = ClassDescriptor("Source", methods=[get_pt])
    server.deploy(ipt, ComponentHandle(Source(), source_class), "pt")
    consumer = make_node(demo=False)
    consumer.register_interface(ipt)  # and not the record type Pt
    source = consumer.get_component_by_name("pt", server.host, server.port)
    with pytest.raises(TypeMismatchError, match=r"^result: \$: record type 'Pt' is not defined$"):
        source.get()
