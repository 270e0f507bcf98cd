"""Server runtime: deployment checks, HTTP dispatch, fault mapping,
policy-driven marshaling, and just-in-time deployment."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from refbus import (
    BY_REFERENCE,
    BY_VALUE,
    CallEnvelope,
    CallOverride,
    ComponentHandle,
    FaultCode,
    IncompatibleComponentError,
    InterfaceDescriptor,
    InterfaceType,
    MethodSig,
    NameInUseError,
    Node,
    NonInterfaceSignatureError,
    ParamPos,
    Prim,
    RETURN,
    VInt,
    VRecord,
    VRef,
    VStr,
    decode_reply,
    describe,
    encode_call,
    value_equals,
)
from refbus.client import http_get, post_call
from refbus.scenarios import Person, Student, register_demo_types


def _call(node, path, method, args=()):
    return post_call(node.host, node.port, path, CallEnvelope(method, args))


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
    for path in paths:
        status, text = bob_node.handle_request("POST", path, "", body)
        assert status == 200
        assert decode_reply(text).fault.code is FaultCode.UNKNOWN_SERVICE, path


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
    assert value_equals(reply.result, expected)


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
    assert value_equals(wire, expected)


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
    from refbus import NULL

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


def test_marshal_none_is_null_at_reference_positions(make_node):
    from refbus import NULL

    node = make_node()
    node.policies.set_method_policy("IPerson", "setSpouse", BY_REFERENCE)
    assert _marshal(node, None, InterfaceType("IPerson")) == NULL


def test_marshal_list_elementwise_policy(make_node):
    from refbus import ListOf, VList

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
    from refbus.client import post_call as cli_post
    from refbus.node import main as node_main
    from refbus import CallEnvelope as Env

    seen = {}

    def probe(node):
        reply = cli_post(node.host, node.port, "/bob", Env("getName"))
        seen["name"] = reply.result

    assert node_main(["--port", "0", "--demo", "figure1"], wait=probe) == 0
    out = capsys.readouterr().out
    assert "deployed http://127.0.0.1:" in out
    assert "listening on" in out
    assert seen["name"] == VStr("Bobby Jones")


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
