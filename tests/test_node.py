"""Server runtime: deployment checks, HTTP dispatch, fault mapping,
policy-driven marshaling, and just-in-time deployment."""

from __future__ import annotations

import gc
import json
import re
import socket
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

import refbus.node
from refbus import http1
from refbus import (
    BY_REFERENCE,
    BY_VALUE,
    CallOverride,
    ClassDescriptor,
    ComponentHandle,
    FaultCode,
    IncompatibleComponentError,
    InterfaceDescriptor,
    InterfaceType,
    InternalFaultError,
    MethodSig,
    NameInUseError,
    Node,
    NonInterfaceSignatureError,
    Prim,
    RecordType,
    UnknownInterfaceError,
)
from refbus.interfaces import describe
from refbus.policy import RETURN, ParamPos
from refbus.values import Ior, VInt, VRecord, VRef, VStr
from refbus.wire import CallEnvelope, decode_reply, encode_call
from refbus.client import http_get, post_call
from refbus.scenarios import INAMED_ENTITY, IPERSON, PERSON_CLASS, Person, Student, register_demo_types


def _call(node, path, method, args=()):
    return decode_reply(post_call(node.host, node.port, path, encode_call(CallEnvelope(method, args))))


@pytest.fixture
def bob_node(make_node):
    node = make_node()
    node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    return node


# ---------------------------------------------------------------------------
# deployment


def test_deploy_returns_url(make_node):
    node = make_node()
    url = node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    assert url == f"http://127.0.0.1:{node.port}/bob"


def test_deploy_rejects_incompatible_component(make_node):
    node = make_node()
    with pytest.raises(IncompatibleComponentError) as err:
        node.deploy("IPerson", Student("Bobby Jones", 1234), "x")
    assert {m.name for m in err.value.missing} == {
        "getSpouse",
        "setSpouse",
        "getAge",
        "incrementAge",
    }


def test_deploy_rejects_class_typed_signature(make_node):
    node = make_node()
    bad = InterfaceDescriptor(
        "IBad", [MethodSig("enroll", (InterfaceType("Student"),), Prim.NULL)]
    )
    node.register_interface(bad)
    with pytest.raises(NonInterfaceSignatureError):
        node.deploy(bad, Person("p", 1), "y")


def test_deploy_rejects_duplicate_name(make_node):
    node = make_node()
    node.deploy("INamedEntity", Student("a", 1), "bob")
    with pytest.raises(NameInUseError):
        node.deploy("INamedEntity", Student("b", 2), "bob")


def test_deploy_requires_started_node():
    node = Node()
    register_demo_types(node)
    with pytest.raises(RuntimeError):
        node.deploy("INamedEntity", Student("a", 1), "bob")


def test_a_with_block_starts_the_node_and_stops_it_on_leaving():
    with Node() as node:
        register_demo_types(node)
        node.deploy("INamedEntity", Student("a", 1), "bob")
        assert _call(node, "/bob", "getName").result == VStr("a")
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((node.host, node.port), timeout=5).close()


def test_a_second_start_keeps_the_node_on_its_port(make_node):
    node = make_node()
    port = node.port
    assert node.start() is node
    assert node.port == port
    node.deploy("INamedEntity", Student("a", 1), "bob")
    assert _call(node, "/bob", "getName").result == VStr("a")


def test_deploy_under_an_unregistered_interface_name_raises(make_node):
    node = make_node()
    with pytest.raises(UnknownInterfaceError, match="INoSuch"):
        node.deploy("INoSuch", Student("a", 1), "bob")


def test_deploy_of_an_instance_of_an_unregistered_class_raises(make_node):
    class Stranger:
        def getName(self):
            return "s"

    node = make_node()
    with pytest.raises(IncompatibleComponentError, match="Stranger"):
        node.deploy("INamedEntity", Stranger(), "bob")


def test_deploy_anonymous_returns_resolvable_ior(make_node):
    node = make_node()
    ior = node.deploy_anonymous("IPerson", Person("john", 35))
    assert (ior.host, ior.port) == (node.host, node.port)
    reply = _call(node, f"/obj/{ior.object_number}", "getAge")
    assert reply.result == VInt(35)


def test_deploy_anonymous_is_idempotent(make_node):
    node = make_node()
    john = Person("john", 35)
    assert node.deploy_anonymous("IPerson", john) == node.deploy_anonymous("IPerson", john)


def test_anonymous_deployment_can_be_named_later(make_node):
    node = make_node()
    john = Person("john", 35)
    ior = node.deploy_anonymous("IPerson", john)
    node.deploy("IPerson", john, "john")
    assert _call(node, "/john", "getAge").result == VInt(35)
    # still the same deployment, same object number
    assert _call(node, "/john", "__resolve").result.ior == ior


def test_compat_ok_implies_every_interface_method_dispatches(make_node):
    """Cross-module property: once deployment-time compatibility passes,
    the skeleton answers every interface method (never UNKNOWN_METHOD)."""
    import random

    from refbus import ClassDescriptor

    rng = random.Random(99)
    node = make_node(demo=False)
    for case in range(20):
        method_names = [f"m{case}_{j}" for j in range(rng.randint(1, 4))]
        sigs = [
            MethodSig(name, (), rng.choice([Prim.I64, Prim.STR, Prim.NULL]))
            for name in method_names
        ]
        iface = InterfaceDescriptor(f"IGen{case}", sigs)
        node.register_interface(iface)

        returns = {
            sig.name: (7 if sig.returns is Prim.I64 else "x" if sig.returns is Prim.STR else None)
            for sig in sigs
        }
        impl = type(
            f"Gen{case}",
            (),
            {
                name: (lambda self, _value=value: _value)
                for name, value in returns.items()
            },
        )()
        handle = ComponentHandle(impl, ClassDescriptor(f"Gen{case}", methods=sigs))
        node.deploy(iface, handle, f"gen{case}")
        for sig in sigs:
            reply = _call(node, f"/gen{case}", sig.name)
            assert reply.fault is None, reply.fault



# ---------------------------------------------------------------------------
# HTTP surface


def test_post_bob_get_name(bob_node):
    reply = _call(bob_node, "/bob", "getName")
    assert reply.fault is None
    assert reply.result == VStr("Bobby Jones")


def test_interface_confinement(bob_node):
    # present on the class, absent from the deployed interface
    reply = _call(bob_node, "/bob", "getMatriculationNumber")
    assert reply.fault is not None
    assert reply.fault.code is FaultCode.UNKNOWN_METHOD


def test_unknown_path_faults_unknown_service(bob_node):
    reply = _call(bob_node, "/nosuch", "getName")
    assert reply.fault.code is FaultCode.UNKNOWN_SERVICE
    reply = _call(bob_node, "/a/b/c", "getName")
    assert reply.fault.code is FaultCode.UNKNOWN_SERVICE
    # Object numbers are canonical ASCII decimal only. http.client cannot
    # send some of these paths, so they go to handle_request directly;
    # objects 0 and 1 exist, so "/obj/١" (an Arabic-Indic one) must not alias
    # "/obj/1", nor "/obj/000" alias "/obj/0".
    bob_node.deploy_anonymous("INamedEntity", Student("a", 1))
    bob_node.deploy_anonymous("INamedEntity", Student("b", 2))
    body = encode_call(CallEnvelope("getName")).encode("utf-8")
    paths = ["/obj/\u00b2", "/obj/" + "1" * 5000, "/obj/\u0661", "/obj/000", "/obj/01"]
    # Nor may empty segments alias "/bob", "/obj/0" or the listing at "/".
    paths += ["/bob/", "//bob", "/bob//", "/obj//0", "/obj/0/", "//", ""]
    for path in paths:
        status, text = bob_node.handle_request("POST", path, "", body)
        assert status == 200
        fault = decode_reply(text).fault
        assert fault.code is FaultCode.UNKNOWN_SERVICE, path
        assert fault.message == f"no such service: {path}"
        status, text = bob_node.handle_request("GET", path, "wsdl", b"")
        assert decode_reply(text).fault.code is FaultCode.UNKNOWN_SERVICE, path
        assert bob_node.handle_request("GET", path, "", b"")[0] == 404, path


def test_wrong_arity_faults_type_mismatch(bob_node):
    reply = _call(bob_node, "/bob", "getName", [VInt(1)])
    assert reply.fault.code is FaultCode.TYPE_MISMATCH


def test_bad_argument_type_faults_with_path(make_node):
    node = make_node()
    node.deploy("IPerson", Person("mary", 40), "mary")
    reply = _call(node, "/mary", "setSpouse", [VInt(3)])
    assert reply.fault.code is FaultCode.TYPE_MISMATCH
    assert "arg 0" in reply.fault.message


def test_unrepresentable_result_faults_type_mismatch(make_node):
    node = make_node()
    node.deploy("IPerson", Person("huge", 2**70), "huge")
    reply = _call(node, "/huge", "getAge")
    assert reply.fault.code is FaultCode.TYPE_MISMATCH


def test_lone_surrogate_result_faults_type_mismatch(make_node):
    node = make_node()
    node.deploy("INamedEntity", Student("\ud800", 1), "bad")
    reply = _call(node, "/bad", "getName")
    assert reply.fault.code is FaultCode.TYPE_MISMATCH


def test_lone_surrogate_argument_faults_bad_envelope(make_node):
    """A str argument must be valid Unicode text; the component keeps its
    name and the node keeps answering."""

    class Namer:
        def __init__(self):
            self.name = "ok"

        def setName(self, name):
            self.name = name

        def getName(self):
            return self.name

    iface = InterfaceDescriptor(
        "INamer",
        [MethodSig("setName", (Prim.STR,), Prim.NULL), MethodSig("getName", (), Prim.STR)],
    )
    node = make_node()
    node.register_interface(iface)
    handle = ComponentHandle(Namer(), ClassDescriptor("Namer", methods=iface.methods))
    node.deploy(iface, handle, "namer")
    body = rb'{"method":"setName","args":[{"t":"str","v":"\ud800"}]}'
    status, text = node.handle_request("POST", "/namer", "", body)
    assert status == 200
    assert decode_reply(text).fault.code is FaultCode.BAD_ENVELOPE
    assert _call(node, "/namer", "getName").result == VStr("ok")


@pytest.mark.parametrize(
    "path, body, message",
    [
        ("/bob", rb'{"method":"getName\ud800","args":[]}', r"no such method: getName\ud800"),
        (
            "/ann",
            rb'{"method":"setSpouse","args":[{"t":"rec","type":"P","v":{"a\ud800":{"t":"x"}}}]}',
            r"$.args[0].a\ud800: unknown value tag 'x'",
        ),
    ],
    ids=["method", "field"],
)
def test_fault_text_with_lone_surrogate_is_escaped(make_node, path, body, message):
    """A name from the body with a lone surrogate has no UTF-8 form; the
    fault text escapes it, so the reply still reaches the caller."""
    import http.client

    node = make_node()
    node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    node.deploy("IPerson", Person("Ann", 30), "ann")
    conn = http.client.HTTPConnection(node.host, node.port, timeout=5)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        status, data = response.status, response.read()
    finally:
        conn.close()
    assert status == 200
    assert decode_reply(data.decode("utf-8")).fault.message == message


def test_component_exception_becomes_internal_fault(make_node):
    class Cranky:
        def boom(self):
            raise RuntimeError("no thanks")

    node = make_node()
    iface = InterfaceDescriptor("ICranky", [MethodSig("boom", (), Prim.NULL)])
    node.register_interface(iface)
    node.deploy(iface, ComponentHandle(Cranky(), _cranky_descriptor()), "cranky")
    reply = _call(node, "/cranky", "boom")
    assert reply.fault.code is FaultCode.INTERNAL
    assert "no thanks" in reply.fault.message


def _cranky_descriptor():
    from refbus import ClassDescriptor

    return ClassDescriptor("Cranky", methods=[MethodSig("boom", (), Prim.NULL)])


def test_fault_raised_by_component_is_internal(make_node):
    from refbus import ClassDescriptor, UnknownServiceError

    class Liar:
        def boom(self):
            raise UnknownServiceError("not really")

    node = make_node()
    iface = InterfaceDescriptor("ILiar", [MethodSig("boom", (), Prim.NULL)])
    node.register_interface(iface)
    descriptor = ClassDescriptor("Liar", methods=iface.methods)
    node.deploy(iface, ComponentHandle(Liar(), descriptor), "liar")
    reply = _call(node, "/liar", "boom")
    assert reply.fault.code is FaultCode.INTERNAL
    assert reply.fault.message == "UnknownServiceError: not really"


def test_a_copy_whose_constructor_raises_is_an_internal_fault(make_node):
    """Building a by-value argument can raise anything; the call faults
    INTERNAL with the exception's type and text, the method never runs,
    and the node answers the next call."""

    class Grumpy(Person):
        def __init__(self, name, age):
            raise ValueError("grumpy people are not copied")

    node = make_node()
    node.register_class(Grumpy, ClassDescriptor("Grumpy", PERSON_CLASS.state_fields, IPERSON.methods))
    mary = Person("Mary Smith", 40)
    node.deploy("IPerson", mary, "mary")
    grumpy = VRecord("Grumpy", [("name", VStr("G")), ("age", VInt(3))])
    reply = _call(node, "/mary", "setSpouse", [grumpy])
    assert (reply.fault.code, reply.fault.message) == (
        FaultCode.INTERNAL,
        "ValueError: grumpy people are not copied",
    )
    assert mary.spouse is None
    assert _call(node, "/mary", "getAge").result == VInt(40)


def test_forged_local_reference_faults_unknown_service(make_node):
    """A reference naming this node resolves only when its object number
    and interface name match the same deployment."""
    node = make_node()
    node.deploy_anonymous("INamedEntity", Student("Bobby Jones", 1234))  # object 0
    mary = Person("mary", 40)
    node.deploy("IPerson", mary, "mary")
    forged = VRef(Ior(node.host, node.port, 0, "IPerson"))
    reply = _call(node, "/mary", "setSpouse", [forged])
    assert reply.fault.code is FaultCode.UNKNOWN_SERVICE
    assert mary.spouse is None


@pytest.mark.parametrize("depth", [300, 3000])
def test_deeply_nested_argument_faults_bad_envelope(bob_node, depth):
    value = '{"t":"list","v":[' * depth + "]}" * depth
    body = ('{"method":"getName","args":[' + value + "]}").encode("utf-8")
    status, text = bob_node.handle_request("POST", "/bob", "", body)
    assert status == 200
    assert decode_reply(text).fault.code is FaultCode.BAD_ENVELOPE


@pytest.mark.parametrize("depth, message", [
    (100, "getName takes 0 args, got 1"),
    (101, "value nesting too deep"),
])
def test_argument_nesting_limit_is_100_levels(bob_node, depth, message):
    value = '{"t":"list","v":[' * depth + "]}" * depth
    body = ('{"method":"getName","args":[' + value + "]}").encode("utf-8")
    status, text = bob_node.handle_request("POST", "/bob", "", body)
    assert status == 200
    assert decode_reply(text).fault.message == message


def test_wsdl_endpoint_matches_describe(bob_node):
    text = http_get(bob_node.host, bob_node.port, "/bob?wsdl")
    iface = bob_node.env.interfaces["INamedEntity"]
    assert text == describe(iface, bob_node.env)
    doc = json.loads(text)
    assert [m["name"] for m in doc["methods"]] == ["getName"]


def test_wsdl_for_unknown_service(bob_node):
    text = http_get(bob_node.host, bob_node.port, "/nosuch?wsdl")
    doc = json.loads(text)
    assert doc["fault"]["code"] == "UNKNOWN_SERVICE"


def test_wsdl_on_object_route(make_node):
    node = make_node()
    ior = node.deploy_anonymous("IPerson", Person("p", 1))
    text = http_get(node.host, node.port, f"/obj/{ior.object_number}?wsdl")
    assert json.loads(text)["interface"] == "IPerson"


def test_listing_shows_names_and_lazy_numbers(bob_node):
    listing = json.loads(http_get(bob_node.host, bob_node.port, "/"))
    assert listing == {
        "deployments": [{"names": ["bob"], "obj": None, "iface": "INamedEntity"}]
    }
    # resolving assigns the number, visible on the next listing
    _call(bob_node, "/bob", "__resolve")
    listing = json.loads(http_get(bob_node.host, bob_node.port, "/"))
    assert listing["deployments"][0]["obj"] == 0


def test_get_without_wsdl_is_404(bob_node):
    import http.client

    conn = http.client.HTTPConnection(bob_node.host, bob_node.port)
    try:
        conn.request("GET", "/bob")
        assert conn.getresponse().status == 404
    finally:
        conn.close()


def test_keep_alive_calls_do_not_stall(bob_node):
    import http.client

    # At about 44 ms per reply, when headers and body left in separate
    # writes, these 200 calls took about 8.8 s.
    body = encode_call(CallEnvelope("getName")).encode("utf-8")
    conn = http.client.HTTPConnection(bob_node.host, bob_node.port, timeout=5)
    try:
        start = time.perf_counter()
        for _ in range(200):
            conn.request("POST", "/bob", body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert decode_reply(response.read()).result == VStr("Bobby Jones")
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    assert elapsed < 2.0, f"200 keep-alive calls took {elapsed:.2f} s"


def test_expect_100_continue_is_answered_before_the_body(bob_node):
    import socket

    body = encode_call(CallEnvelope("getName")).encode("utf-8")
    with socket.create_connection((bob_node.host, bob_node.port), timeout=5) as sock:
        sock.sendall(
            b"POST /bob HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        assert sock.recv(64).startswith(b"HTTP/1.1 100 ")
        sock.sendall(body)
        reply = b""
        while not reply.endswith(b"}}"):
            chunk = sock.recv(4096)
            assert chunk, reply
            reply += chunk
    assert reply.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
    assert decode_reply(reply.partition(b"\r\n\r\n")[2]).result == VStr("Bobby Jones")


@pytest.mark.parametrize(
    "head, length",
    [
        (b"Content-Length: 30", 30),
        (b"Content-Length: 30 ", 30),
        (b"Content-Length: 0030", 30),
        pytest.param(b"Content-Length: " + b"0" * 5000 + b"30", 30, id="5000-zeros-then-30"),
        (b"Content-Length: 16777216", 16777216),
        (b"Content-Length: +30", None),
        (b"Content-Length: -1", None),
        (b"Content-Length:\r\n 30", None),
        (b"Content-Length: 3_0", None),
        (b"Content-Length: \xa030", None),
        (b"Content-Length: 0x1e", None),
        (b"Content-Length: ", None),
        (b"Host: x", None),
        (b"Content-Length: 30\r\nContent-Length: 5", None),
        (b"Content-Length: 30\r\nContent-Length: 30", None),
        (b"Content-Length: 16777217", None),
        pytest.param(b"Content-Length: " + b"9" * 5000, None, id="5000-nines"),
        (b"Transfer-Encoding: chunked\r\nContent-Length: 30", None),
        (b"transfer-encoding: identity", None),
    ],
)
def test_a_body_length_is_one_content_length_of_ascii_digits(head, length):
    """The head goes through http1's own header reader, so a folded line is
    refused whatever the Python release's ``email`` parser makes of it; a
    POST without a Content-Length is refused too."""
    import io

    request = b"POST /bob HTTP/1.1\r\n%s\r\n\r\n%s" % (head, b"x" * (length or 0))

    def body():
        return http1.read_request(None, io.BytesIO(request))[3]

    if length is not None:
        assert len(body()) == length
    else:
        with pytest.raises(http1.Malformed):
            body()


def test_a_declared_body_reserves_no_memory_before_it_arrives(bob_node):
    """A POST that declares 16 MiB and sends 3 bytes made the node reserve
    all 16 MiB while it waited; it reads the body piece by piece now."""
    import tracemalloc

    tracemalloc.start()
    try:
        with socket.create_connection((bob_node.host, bob_node.port), timeout=5) as sock:
            sock.sendall(b'POST /bob HTTP/1.1\r\nHost: x\r\nContent-Length: 16777216\r\n\r\n{"m')
            time.sleep(0.5)  # the node's thread waits for the rest of the body
            held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4 * 1024 * 1024


@pytest.mark.parametrize(
    "head",
    [
        b"Content-Length: +%d",
        b"Content-Length: %d\r\nContent-Length: 5",
        b"Transfer-Encoding: chunked\r\nContent-Length: %d",
    ],
    ids=["sign", "duplicate", "transfer-encoding"],
)
def test_ill_framed_requests_get_400_and_a_closed_connection(bob_node, head):
    import socket

    body = encode_call(CallEnvelope("getName")).encode("utf-8")
    with socket.create_connection((bob_node.host, bob_node.port), timeout=5) as sock:
        sock.sendall(b"POST /bob HTTP/1.1\r\nHost: x\r\n" + head % len(body) + b"\r\n\r\n" + body)
        reply = b""
        while chunk := sock.recv(4096):  # the node closes the connection
            reply += chunk
    assert reply.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"


class _CountingNamer:
    def __init__(self):
        self.calls = 0

    def getName(self):
        self.calls += 1
        return "Bob"


@pytest.mark.parametrize(
    "head, served",
    [
        (b"Content-Length: %d", False),
        (b"Content-Length: +%d", False),
        (b"Transfer-Encoding: chunked\r\nContent-Length: %d", False),
        (b"Content-Length: 0", True),
    ],
    ids=["length", "sign", "transfer-encoding", "empty"],
)
def test_a_get_with_a_body_gets_400_and_the_body_never_runs(make_node, head, served):
    """Unread, the body of a GET would be parsed as a second request."""
    import socket

    node = make_node()
    named = _CountingNamer()
    descriptor = ClassDescriptor("Namer", methods=INAMED_ENTITY.methods)
    node.deploy(INAMED_ENTITY, ComponentHandle(named, descriptor), "bob")
    call = encode_call(CallEnvelope("getName")).encode("utf-8")
    smuggled = (
        b"POST /bob HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(call), call)
    )
    if b"%d" in head:
        head %= len(smuggled)
    with socket.create_connection((node.host, node.port), timeout=5) as sock:
        sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n" + head + b"\r\n\r\n" + smuggled)
        reply = b""
        while chunk := sock.recv(4096):  # the node closes the connection
            reply += chunk
    # A body need not end in a line break, so count status lines anywhere.
    statuses = re.findall(rb"HTTP/1\.1 \d{3} [A-Za-z ]+", reply)
    if served:  # an empty body: the next bytes are the next request
        assert statuses == [b"HTTP/1.1 200 OK"] * 2 and named.calls == 1
    else:
        assert statuses == [b"HTTP/1.1 400 Bad Request"] and named.calls == 0


def test_idle_connections_are_closed(make_node, monkeypatch):
    """A connection that sends nothing, or stops partway through a body, is
    closed after the idle timeout, and its server thread ends."""
    import socket

    monkeypatch.setattr(refbus.node, "IDLE_TIMEOUT_S", 0.2)
    node = make_node()
    before = set(threading.enumerate())
    with socket.create_connection((node.host, node.port), timeout=5) as idle, \
            socket.create_connection((node.host, node.port), timeout=5) as half:
        half.sendall(b'POST /bob HTTP/1.1\r\nHost: x\r\nContent-Length: 40\r\n\r\n{"method"')
        start = time.monotonic()
        for sock in (idle, half):
            sock.settimeout(2)
            assert sock.recv(64) == b""
        assert time.monotonic() - start < 2
    deadline = time.monotonic() + 2
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not set(threading.enumerate()) - before


def test_a_stopped_node_answers_no_request_on_an_open_connection(make_node):
    """A request that arrives on a keep-alive connection after stop() is
    not answered and does not run: the node closes the connection."""
    node = make_node()
    named = _CountingNamer()
    descriptor = ClassDescriptor("Namer", methods=INAMED_ENTITY.methods)
    node.deploy(INAMED_ENTITY, ComponentHandle(named, descriptor), "bob")
    request = b"POST /bob HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (
        len(_CALL), _CALL
    )
    with socket.create_connection((node.host, node.port), timeout=5) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as replies:
            assert replies.readline() == b"HTTP/1.1 200 OK\r\n"
            while (line := replies.readline()) != b"\r\n":
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            assert b"Bob" in replies.read(length)
            node.stop()
            sock.sendall(request)
            assert replies.read() == b""
    assert named.calls == 1


def test_stop_returns_without_waiting_for_a_poll():
    """Each stop() wakes the accept loop at once; with a 50 ms poll, 20
    cycles took about 1 s."""
    start = time.perf_counter()
    for _ in range(20):
        Node().start().stop()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"20 start/stop cycles took {elapsed:.2f} s"


def test_a_failed_bind_leaves_no_socket_open(make_node):
    """start() on a port in use raises, and closes the socket pair that
    wakes the accept loop along with the listening socket."""
    node = make_node()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError):
            Node(port=node.port).start()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _exchange(node, request: bytes) -> bytes:
    """Send raw bytes on one connection; returns all the node sends until it
    closes the connection."""
    with socket.create_connection((node.host, node.port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def _wait_for_threads(before: set):
    deadline = time.monotonic() + 2
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not set(threading.enumerate()) - before


_CALL = encode_call(CallEnvelope("getName")).encode("utf-8")


@pytest.mark.parametrize(
    "request_bytes",
    [
        pytest.param(b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", id="request-line-over-64KiB"),
        pytest.param(b"GET / HTTP/1.1\r\nX-A: " + b"a" * 65536 + b"\r\n\r\n", id="header-line-over-64KiB"),
        pytest.param(b"GET / HTTP/1.1\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n", id="101-header-lines"),
        pytest.param(b"GET / HTTP/1.1\r\nHost x\r\n\r\n", id="no-colon"),
        pytest.param(b"GET / HTTP/1.1\r\nHost : x\r\n\r\n", id="space-before-colon"),
        pytest.param(
            b"POST /bob HTTP/1.1\r\nHost: x\r\nContent-Length:\r\n %d\r\n\r\n%s" % (len(_CALL), _CALL),
            id="obs-fold",
        ),
        pytest.param(b"GET /\r\n", id="two-words"),  # HTTP/0.9
        pytest.param(b"GET / HTTP/1.1 x\r\n\r\n", id="four-words"),
        pytest.param(b"GET  / HTTP/1.1\r\n\r\n", id="two-spaces"),
        pytest.param(b"GET / HTTP/2.0\r\n\r\n", id="http-2"),
    ],
)
def test_a_malformed_request_head_gets_400_and_a_closed_connection(bob_node, request_bytes):
    before = set(threading.enumerate())
    reply = _exchange(bob_node, request_bytes)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[:3] == [
        b"HTTP/1.1 400 Bad Request", b"Content-Type: application/json", b"Connection: close"
    ]
    assert "error" in json.loads(body)
    _wait_for_threads(before)


def test_the_head_limits_take_a_64KiB_line_and_100_header_lines(bob_node):
    line = b"GET /" + b"a" * (65536 - len(b"GET / HTTP/1.1\r\n")) + b" HTTP/1.1\r\n"
    assert len(line) == 65536
    reply = _exchange(bob_node, line + b"X-A: 1\r\n" * 99 + b"Connection: close\r\n\r\n")
    assert reply.split(b"\r\n")[0] == b"HTTP/1.1 404 Not Found"


def test_an_http10_request_gets_connection_close_and_eof(bob_node):
    reply = _exchange(bob_node, b"GET / HTTP/1.0\r\n\r\n")  # EOF, or recv times out
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n") == [
        b"HTTP/1.1 200 OK",
        b"Content-Type: application/json",
        b"Connection: close",
        b"Content-Length: %d" % len(body),
    ]
    assert json.loads(body)["deployments"][0]["names"] == ["bob"]


def test_pipelined_keep_alive_posts_get_replies_in_order(bob_node):
    calls = [_CALL, encode_call(CallEnvelope("__snapshot")).encode("utf-8")]
    request = b"".join(
        b"POST /bob HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (len(c), c)
        for c in calls
    )
    with socket.create_connection((bob_node.host, bob_node.port), timeout=5) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as replies:
            results = []
            for _ in calls:
                assert replies.readline() == b"HTTP/1.1 200 OK\r\n"
                headers = []
                while (line := replies.readline()) != b"\r\n":
                    headers.append(line)
                # no "Connection: close": the connection stays open
                assert len(headers) == 2 and headers[0] == b"Content-Type: application/json\r\n"
                body = replies.read(int(headers[1].split(b":")[1]))
                results.append(decode_reply(body).result)
    assert results[0] == VStr("Bobby Jones")
    assert results[1].type_name == "Student"


def test_unsupported_http_method(bob_node):
    import http.client

    conn = http.client.HTTPConnection(bob_node.host, bob_node.port)
    try:
        conn.request("PUT", "/bob", body=b"{}")
        assert conn.getresponse().status in (400, 501)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# reserved methods


def test_resolve_returns_reference(bob_node):
    reply = _call(bob_node, "/bob", "__resolve")
    assert isinstance(reply.result, VRef)
    ior = reply.result.ior
    assert (ior.host, ior.port, ior.interface_name) == (
        bob_node.host,
        bob_node.port,
        "INamedEntity",
    )


def test_snapshot_returns_state_record(bob_node):
    reply = _call(bob_node, "/bob", "__snapshot")
    expected = VRecord(
        "Student", [("name", VStr("Bobby Jones")), ("matricNumber", VInt(1234))]
    )
    assert reply.result == expected


def test_reserved_methods_never_appear_in_descriptor(bob_node):
    text = http_get(bob_node.host, bob_node.port, "/bob?wsdl")
    assert "__resolve" not in text and "__snapshot" not in text


def test_reserved_methods_reject_arguments(bob_node):
    reply = _call(bob_node, "/bob", "__resolve", [VInt(1)])
    assert reply.fault.code is FaultCode.TYPE_MISMATCH


# ---------------------------------------------------------------------------
# marshaling


def _marshal(node, value, declared, position=ParamPos(0), override=None):
    return node.marshal_outbound(
        value,
        declared,
        iface_name="IPerson",
        method_name="setSpouse",
        position=position,
        override=override,
    )


def test_primitives_ignore_policy(make_node):
    node = make_node()
    node.policies.set_method_policy("IPerson", "setSpouse", BY_REFERENCE)
    assert _marshal(node, 36, Prim.I64) == VInt(36)
    assert _marshal(node, "x", Prim.STR) == VStr("x")


def test_component_by_reference_gets_fresh_reference(make_node):
    node = make_node()
    node.policies.set_method_policy("IPerson", "setSpouse", BY_REFERENCE)
    john = Person("John Brown", 35)
    wire = _marshal(node, john, InterfaceType("IPerson"))
    assert isinstance(wire, VRef)
    assert wire.ior.interface_name == "IPerson"
    assert node.table.resolve(wire.ior.object_number).component.instance is john


def test_component_by_value_snapshots(make_node):
    node = make_node()
    wire = _marshal(node, Person("John Brown", 35), InterfaceType("IPerson"))
    expected = VRecord("Person", [("name", VStr("John Brown")), ("age", VInt(35))])
    assert wire == expected


def test_jit_deployment_is_idempotent(make_node):
    node = make_node()
    node.policies.set_class_policy("Person", BY_REFERENCE)
    john = Person("John Brown", 35)
    before = len(node.table.deployments())
    wires = [_marshal(node, john, InterfaceType("IPerson")) for _ in range(20)]
    assert len({w.ior for w in wires}) == 1
    assert len(node.table.deployments()) == before + 1


def test_repeated_anonymous_deployment_prepares_once(make_node, monkeypatch):
    import refbus.node

    handles, walks = [], []
    original_init = ComponentHandle.__init__
    original_walk = refbus.node.check_closure

    def counting_init(self, *args, **kwargs):
        handles.append(self)
        original_init(self, *args, **kwargs)

    def counting_walk(*args):
        walks.append(args)
        return original_walk(*args)

    monkeypatch.setattr(ComponentHandle, "__init__", counting_init)
    monkeypatch.setattr(refbus.node, "check_closure", counting_walk)
    node = make_node()
    john = Person("John Brown", 35)
    iors = [node.deploy_anonymous("IPerson", john) for _ in range(100)]
    assert len(set(iors)) == 1
    assert len(handles) == 1
    assert len(walks) == 1


def test_by_value_copy_must_match_the_receiving_class(make_node):
    """A record at an interface position that names a class registered here
    must be a state copy of that class, and the class must be compatible."""
    from refbus.values import NULL

    node = make_node()
    mary = Person("mary", 40)
    node.deploy("IPerson", mary, "mary")
    copies = [
        VRecord("Student", [("name", VStr("bob")), ("matricNumber", VInt(1))]),
        VRecord("Person", [("age", VInt(1)), ("name", VStr("old"))]),
        VRecord("Person", []),
    ]
    for copy in copies:
        reply = _call(node, "/mary", "setSpouse", [copy])
        assert reply.fault is not None and reply.fault.code is FaultCode.TYPE_MISMATCH, copy
    assert mary.spouse is None
    # null state fields are accepted: snapshots send None as null
    copy = VRecord("Person", [("name", NULL), ("age", VInt(3))])
    reply = _call(node, "/mary", "setSpouse", [copy])
    assert reply.fault is None
    assert isinstance(mary.spouse, Person)
    assert (mary.spouse.name, mary.spouse.age) == (None, 3)


def test_marshal_type_mismatches(make_node):
    from refbus import TypeMismatchError

    node = make_node()
    with pytest.raises(TypeMismatchError):
        _marshal(node, "text", Prim.I64)
    with pytest.raises(TypeMismatchError):
        _marshal(node, Person("p", 1), Prim.I64)
    with pytest.raises(TypeMismatchError):
        _marshal(node, object(), InterfaceType("IPerson"))
    with pytest.raises(TypeMismatchError):
        _marshal(node, None, Prim.I64)
    named = node.proxy_for_ior(Ior("127.0.0.1", 1, 7, "INamedEntity"))
    with pytest.raises(TypeMismatchError) as info:
        _marshal(node, named, InterfaceType("IPerson"))
    assert str(info.value) == "reference to 'INamedEntity' does not fit interface IPerson"


def test_an_instance_missing_state_faults_where_it_is_copied(make_node):
    """A by-value return and a __snapshot of an instance that lacks a
    declared state field each fault with the "cannot snapshot" text."""
    node = make_node()
    half = Person("Half", 3)
    del half.age
    mary = Person("Mary Smith", 40)
    mary.setSpouse(half)
    node.deploy("IPerson", mary, "mary")
    node.deploy("IPerson", half, "half")
    message = "cannot snapshot Person.age: 'Person' object has no attribute 'age'"
    for path, method in (("/mary", "getSpouse"), ("/half", "__snapshot")):
        reply = _call(node, path, method)
        assert (reply.fault.code, reply.fault.message) == (FaultCode.INTERNAL, message)


class Shape:
    def __init__(self, pos):
        self.pos = pos
        self.kept = None

    def me(self):
        return self

    def keep(self, other):
        self.kept = other


ISHAPE = InterfaceDescriptor(
    "IShape",
    [
        MethodSig("me", (), InterfaceType("IShape")),
        MethodSig("keep", (InterfaceType("IShape"),), Prim.NULL),
    ],
)


def _shape_node(make_node):
    node = make_node(demo=False)
    node.register_record("Pt", [("x", Prim.I64)])
    node.register_interface(ISHAPE)
    shape_class = ClassDescriptor("Shape", [("pos", RecordType("Pt"))], ISHAPE.methods)
    node.register_class(Shape, shape_class)
    return node


def test_a_held_record_that_does_not_fit_its_state_type_is_not_copied(make_node):
    """State holding a record whose field misfits the record type faults
    with the "cannot snapshot" text wherever it would be copied: a
    __snapshot, a by-value return and a by-value argument, which is not
    sent. A fitting record is copied as it is held. Before, a held record
    was sent unchecked."""
    server, consumer = _shape_node(make_node), _shape_node(make_node)
    good, bad = VRecord("Pt", [("x", VInt(1))]), VRecord("Pt", [("x", VStr("oops"))])
    keeper = Shape(good)
    server.deploy("IShape", keeper, "good")
    server.deploy("IShape", Shape(bad), "bad")
    message = "cannot snapshot Shape.pos: $.x: expected i64, got str"
    for method in ("__snapshot", "me"):
        assert _call(server, "/good", method).result == VRecord("Shape", [("pos", good)])
        reply = _call(server, "/bad", method)
        assert (reply.fault.code, reply.fault.message) == (FaultCode.INTERNAL, message)
    proxy = consumer.get_component_by_name("good", server.host, server.port)
    with pytest.raises(InternalFaultError) as info:
        proxy.keep(Shape(bad))
    assert str(info.value) == message and keeper.kept is None
    proxy.keep(Shape(good))
    assert keeper.kept.pos == good


def test_marshal_none_is_null_at_reference_positions(make_node):
    from refbus.values import NULL

    node = make_node()
    node.policies.set_method_policy("IPerson", "setSpouse", BY_REFERENCE)
    assert _marshal(node, None, InterfaceType("IPerson")) == NULL


def test_marshal_list_elementwise_policy(make_node):
    from refbus import ListOf
    from refbus.values import VList

    node = make_node()
    node.policies.set_method_policy("IPerson", "setSpouse", BY_REFERENCE)
    john, jane = Person("j", 1), Person("J", 2)
    wire = _marshal(node, [john, None, jane], ListOf(InterfaceType("IPerson")))
    assert isinstance(wire, VList)
    assert isinstance(wire.items[0], VRef)
    assert wire.items[2].ior.object_number != wire.items[0].ior.object_number


def test_per_call_override_beats_stored_policy(make_node):
    node = make_node()
    node.policies.set_method_policy("IPerson", "setSpouse", BY_VALUE)
    john = Person("John Brown", 35)
    wire = _marshal(
        node,
        john,
        InterfaceType("IPerson"),
        override=CallOverride(per_param={0: BY_REFERENCE}),
    )
    assert isinstance(wire, VRef)


def test_return_position_marshals_by_return_policy(make_node):
    node = make_node()
    node.policies.set_return_policy("IPerson", "getSpouse", BY_REFERENCE)
    john = Person("John Brown", 35)
    wire = node.marshal_outbound(
        john,
        InterfaceType("IPerson"),
        iface_name="IPerson",
        method_name="getSpouse",
        position=RETURN,
    )
    assert isinstance(wire, VRef)


# ---------------------------------------------------------------------------
# concurrency


def test_invocations_serialize_per_component(make_node):
    class Slow:
        def __init__(self):
            self.active = 0
            self.overlaps = 0
            self._lock = threading.Lock()

        def work(self):
            with self._lock:
                self.active += 1
                if self.active > 1:
                    self.overlaps += 1
            time.sleep(0.02)
            with self._lock:
                self.active -= 1

    from refbus import ClassDescriptor

    node = make_node()
    iface = InterfaceDescriptor("ISlow", [MethodSig("work", (), Prim.NULL)])
    node.register_interface(iface)
    descriptor = ClassDescriptor("Slow", methods=[MethodSig("work", (), Prim.NULL)])
    slow = Slow()
    node.deploy(iface, ComponentHandle(slow, descriptor), "slow")

    with ThreadPoolExecutor(max_workers=8) as pool:
        replies = list(pool.map(lambda _: _call(node, "/slow", "work"), range(16)))
    assert all(r.fault is None for r in replies)
    assert slow.overlaps == 0


def test_reentrant_component_opts_out_of_serialization(make_node):
    class Slow:
        def __init__(self):
            self.active = 0
            self.peak = 0
            self._lock = threading.Lock()

        def work(self):
            with self._lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.02)
            with self._lock:
                self.active -= 1

    from refbus import ClassDescriptor

    node = make_node()
    iface = InterfaceDescriptor("ISlow", [MethodSig("work", (), Prim.NULL)])
    node.register_interface(iface)
    descriptor = ClassDescriptor("Slow", methods=[MethodSig("work", (), Prim.NULL)])
    slow = Slow()
    node.deploy(iface, ComponentHandle(slow, descriptor, reentrant=True), "slow")

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: _call(node, "/slow", "work"), range(16)))
    assert slow.peak > 1


# ---------------------------------------------------------------------------
# multi-interface deployment


def test_one_instance_two_interfaces(make_node):
    node = make_node()
    student = Student("Bobby Jones", 1234)
    node.deploy("INamedEntity", student, "bob")
    node.deploy("IMatriculated", student, "bob-number")

    assert _call(node, "/bob", "getName").result == VStr("Bobby Jones")
    assert _call(node, "/bob", "getMatriculationNumber").fault.code is FaultCode.UNKNOWN_METHOD
    assert _call(node, "/bob-number", "getMatriculationNumber").result == VInt(1234)
    assert _call(node, "/bob-number", "getName").fault.code is FaultCode.UNKNOWN_METHOD

    named = _call(node, "/bob", "__resolve").result.ior
    matric = _call(node, "/bob-number", "__resolve").result.ior
    assert named.object_number != matric.object_number
    assert (
        node.table.resolve(named.object_number).component
        is node.table.resolve(matric.object_number).component
    )


# ---------------------------------------------------------------------------
# robustness smoke (the full fuzz lives in the acceptance suite)


def test_node_cli_serves_and_stops(capsys):
    from refbus.node import main as node_main

    seen = {}

    def probe(node):
        seen["name"] = _call(node, "/bob", "getName").result

    assert node_main(["--port", "0", "--demo", "figure1"], wait=probe) == 0
    out = capsys.readouterr().out
    assert "deployed http://127.0.0.1:" in out
    assert "listening on" in out
    assert seen["name"] == VStr("Bobby Jones")


def test_python_m_refbus_node_serves():
    """Both ``python -m refbus.node`` and ``python -m refbus`` serve. The
    second runs the node module only once, so runpy's RuntimeWarning about
    a module already in sys.modules never comes (it is made an error)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(refbus.node.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    call = encode_call(CallEnvelope("getName"))
    for module in (["-m", "refbus.node"], ["-W", "error::RuntimeWarning", "-m", "refbus"]):
        argv = [sys.executable, "-u", *module, "--demo", "figure1", "--port", "0"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) as proc:
            try:
                assert proc.stdout.readline().startswith("deployed http://127.0.0.1:"), module
                listening = proc.stdout.readline()
                port = int(re.fullmatch(r"listening on http://127\.0\.0\.1:(\d+)/\n", listening)[1])
                reply = decode_reply(post_call("127.0.0.1", port, "/bob", call, timeout=5))
                assert reply.result == VStr("Bobby Jones")
            finally:
                proc.terminate()
                proc.wait(timeout=10)


_SERVE_ONLY = """
import json, socket, sys
sys.path.insert(0, sys.argv[1])
from refbus import ClassDescriptor, InterfaceDescriptor, MethodSig, Node, Prim, http1
from refbus.values import VInt
from refbus.wire import CallEnvelope, decode_reply, encode_call

ADD = MethodSig("add", (Prim.I64, Prim.I64), Prim.I64)

class Adder:
    def add(self, a, b):
        return a + b

def ask(node, method, target, body=None):
    with socket.create_connection((node.host, node.port), timeout=5) as sock:
        sock.sendall(http1.request_bytes(method, target, node.host, node.port, body))
        with sock.makefile("rb") as rfile:
            return http1.read_reply(rfile)

server, caller = Node("127.0.0.1", 0).start(), Node("127.0.0.1", 0).start()
try:
    server.register_interface(InterfaceDescriptor("IAdder", [ADD]))
    server.register_class(Adder, ClassDescriptor("Adder", methods=[ADD]))
    server.deploy("IAdder", Adder(), "adder")
    call = encode_call(CallEnvelope("add", [VInt(2), VInt(3)])).encode()
    status, body = ask(server, "POST", "/adder", call)
    print(status, decode_reply(body.decode()).result.value)
    status, body = ask(server, "GET", "/adder?wsdl")
    print(status, json.loads(body)["interface"])
    print(*[m for m in ("http.client", "ssl", "argparse") if m in sys.modules])
    caller.register_interface(InterfaceDescriptor("IAdder", [ADD]))
    print(caller.get_component_by_name("adder", server.host, server.port).add(2, 3))
finally:
    caller.stop()
    server.stop()
"""


def test_a_node_that_only_serves_loads_no_client_stack():
    """A node that answers a call and a ?wsdl GET, sent from a raw socket,
    has not loaded http.client (nor ssl with it) or argparse; the first
    request a node sends loads the client transport, and works. ``-S``
    keeps site-packages from loading any of them first."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(refbus.node.__file__).resolve().parents[1])
    argv = [sys.executable, "-X", "dev", "-W", "error", "-S", "-c", _SERVE_ONLY, src]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["200 5", "200 IAdder", "", "5"]


def test_malformed_bodies_yield_fault_envelopes(bob_node):
    import http.client

    bodies = [b"", b"garbage", b"\xff\xfe\x00", b"[1,2,3]", b'{"method":1}', b'{"x":{}}']
    for body in bodies:
        conn = http.client.HTTPConnection(bob_node.host, bob_node.port, timeout=5)
        try:
            conn.request(
                "POST", "/bob", body=body, headers={"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            assert response.status == 200
            doc = json.loads(response.read())
            assert "fault" in doc
        finally:
            conn.close()
    # the node still serves good calls afterwards
    assert _call(bob_node, "/bob", "getName").result == VStr("Bobby Jones")
