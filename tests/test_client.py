"""Client runtime: proxies, materialization, loopback identity, chained
references, and call options."""

from __future__ import annotations

import contextlib
import threading
import time
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
    InterfaceDescriptor,
    InterfaceType,
    InvalidNameError,
    MethodSig,
    NetworkError,
    Node,
    Prim,
    TypeMismatchError,
    UnknownInterfaceError,
    UnknownMethodError,
    UnknownServiceError,
)
from refbus.client import Proxy, http_get, materialize, post_call
from refbus.values import Ior, VInt, VList, VRecord, VRef, VStr, value_equals
from refbus.wire import CallEnvelope
from refbus.scenarios import Person, Student, register_demo_types

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
            post_call("127.0.0.1", port, "/x", CallEnvelope("m"), timeout=5)
        with pytest.raises(BadEnvelopeError):
            http_get("127.0.0.1", port, "/x?wsdl", timeout=5)


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
    assert value_equals(out, record)


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
