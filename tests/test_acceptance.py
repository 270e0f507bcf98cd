"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import string
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from refbus import (
    BY_REFERENCE,
    BY_VALUE,
    CallEnvelope,
    CallOverride,
    ClassDescriptor,
    ComponentHandle,
    FaultCode,
    IncompatibleComponentError,
    InterfaceDescriptor,
    InterfaceType,
    MethodSig,
    NonInterfaceSignatureError,
    ParamPos,
    PolicyStore,
    Prim,
    RETURN,
    VInt,
    VRef,
    VStr,
    decode_value,
    encode_value,
    value_equals,
)
from refbus.client import http_get, materialize, post_call
from refbus.inspector import (
    EXIT_FAULT,
    EXIT_NETWORK,
    EXIT_OK,
    EXIT_UNKNOWN_SERVICE,
    EXIT_USAGE,
    format_descriptor,
)
from refbus.inspector import main as inspect_main
from refbus.scenarios import Person, Student, run_scenario
from conftest import random_value


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {title}")


def _call(node, path, method, args=()):
    return post_call(node.host, node.port, path, CallEnvelope(method, args))


def test_criterion_01_figure2_semantics():
    with criterion(1, "figure 2 semantics: by-reference 36, by-value 35, local 36"):
        start = time.monotonic()
        assert run_scenario("figure2-byref")[-1] == "36"
        assert run_scenario("figure2-byvalue")[-1] == "35"
        assert run_scenario("figure2-local")[-1] == "36"
        assert time.monotonic() - start < 5.0


def test_criterion_02_figure1_deployment(make_node):
    with criterion(2, "figure 1 deployment: /bob endpoint, descriptor, confinement"):
        start = time.monotonic()
        node = make_node()
        url = node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
        assert url == f"http://{node.host}:{node.port}/bob"

        doc = json.loads(http_get(node.host, node.port, "/bob?wsdl"))
        assert [m["name"] for m in doc["methods"]] == ["getName"]

        assert _call(node, "/bob", "getName").result == VStr("Bobby Jones")
        fault = _call(node, "/bob", "getMatriculationNumber").fault
        assert fault is not None and fault.code is FaultCode.UNKNOWN_METHOD
        assert time.monotonic() - start < 2.0


def test_criterion_03_deploy_time_checks(make_node):
    with criterion(3, "deploy-time checks classify 50 generated pairs correctly"):
        node = make_node(demo=False)
        rng = random.Random(0xACCE55)
        correct = 0
        total = 50
        for i in range(total):
            label = ("ok", "incompatible", "class-typed")[i % 3]
            method_names = [f"m{i}_{j}" for j in range(rng.randint(1, 3))]
            sigs = [
                MethodSig(name, tuple(rng.choice([Prim.I64, Prim.STR]) for _ in range(rng.randint(0, 2))), Prim.NULL)
                for name in method_names
            ]
            if label == "class-typed":
                poison = ClassDescriptor(f"Poison{i}")
                node.env.add_class(poison)
                sigs[0] = MethodSig(sigs[0].name, (InterfaceType(f"Poison{i}"),), Prim.NULL)
            iface = InterfaceDescriptor(f"I{i}", sigs)

            class_sigs = list(sigs)
            if label == "incompatible":
                # same name, different signature
                class_sigs[0] = MethodSig(sigs[0].name, sigs[0].params, Prim.F64)
            impl = type(
                f"Impl{i}",
                (),
                {name: (lambda self, *args: None) for name in method_names},
            )()
            handle = ComponentHandle(
                impl, ClassDescriptor(f"Impl{i}", methods=class_sigs)
            )

            try:
                node.register_interface(iface)
                node.deploy(iface, handle, f"svc{i}")
                outcome = "ok"
            except IncompatibleComponentError:
                outcome = "incompatible"
            except NonInterfaceSignatureError:
                outcome = "class-typed"
            if outcome == label:
                correct += 1
        assert correct == total


def test_criterion_04_policy_precedence_matrix():
    with criterion(4, "policy precedence matrix exhaustive, 0 failures"):
        choices = (None, BY_VALUE, BY_REFERENCE)
        failures = 0
        cases = 0
        for position_kind in ("param", "return"):
            for default in (BY_VALUE, BY_REFERENCE):
                for stored in itertools.product(choices, choices, choices):
                    for ov_pos, ov_whole in itertools.product(choices, choices):
                        store = PolicyStore(default)
                        p_pos, p_method, p_class = stored
                        if position_kind == "param":
                            position = ParamPos(0)
                            if p_pos is not None:
                                store.set_param_policy("I", "m", 0, p_pos)
                        else:
                            position = RETURN
                            if p_pos is not None:
                                store.set_return_policy("I", "m", p_pos)
                        if p_method is not None:
                            store.set_method_policy("I", "m", p_method)
                        if p_class is not None:
                            store.set_class_policy("C", p_class)
                        override = None
                        if ov_pos is not None or ov_whole is not None:
                            if position_kind == "param":
                                override = CallOverride(
                                    per_param={} if ov_pos is None else {0: ov_pos},
                                    whole_call=ov_whole,
                                )
                            else:
                                override = CallOverride(
                                    for_return=ov_pos, whole_call=ov_whole
                                )
                        expected = next(
                            (
                                layer
                                for layer in (ov_pos, ov_whole, p_pos, p_method, p_class)
                                if layer is not None
                            ),
                            default,
                        )
                        got = store.resolve(position, "I", "m", "C", override)
                        cases += 1
                        if got is not expected:
                            failures += 1
        assert cases >= 2 * 2 * 27 * 9
        assert failures == 0


def test_criterion_05_wire_round_trip():
    with criterion(5, "wire round-trip of 1000 random values, byte-stable"):
        start = time.monotonic()
        rng = random.Random(0x57AB1E)
        encoded_first = []
        for _ in range(1000):
            v = random_value(rng)
            text = encode_value(v)
            encoded_first.append(text)
            assert value_equals(decode_value(text), v)
            assert encode_value(decode_value(text)) == text
        # independent second run over the same seed: byte-identical encodings
        rng = random.Random(0x57AB1E)
        for first_text in encoded_first:
            assert encode_value(random_value(rng)) == first_text
        assert time.monotonic() - start < 5.0


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

    def setItem(self, item):
        self.item = item

    def getItem(self):
        return self.item


def test_criterion_06_reference_identity(make_node):
    with criterion(6, "reference identity round trip and proxy interning"):
        node_a, node_b = make_node(), make_node()
        for node in (node_a, node_b):
            node.register_interface(IHOLDER)
            node.register_class(Holder, HOLDER_CLASS, constructor=False)
        node_a.policies.set_method_policy("IHolder", "setItem", BY_REFERENCE)
        node_b.policies.set_return_policy("IHolder", "getItem", BY_REFERENCE)

        holder = Holder()
        node_b.deploy(IHOLDER, holder, "holder")
        john = Person("john", 35)

        proxy = node_a.get_component_by_name("holder", node_b.host, node_b.port)
        proxy.setItem(john)
        assert proxy.getItem() is john

        # two receipts of one Ior at B intern to one proxy
        ior = node_a.deploy_anonymous("IPerson", Person("jane", 40))
        first = materialize(node_b, VRef(ior))
        second = materialize(node_b, VRef(ior))
        assert first is second


def test_criterion_07_jit_idempotence_under_concurrency(make_node):
    with criterion(7, "1000 concurrent by-reference marshals of 100 components"):
        node = make_node()
        components = [Person(f"p{i}", i) for i in range(100)]
        override = CallOverride(whole_call=BY_REFERENCE)

        def marshal(task: int):
            idx = task % 100
            wire = node.marshal_outbound(
                components[idx],
                InterfaceType("IPerson"),
                iface_name="IPerson",
                method_name="setSpouse",
                position=ParamPos(0),
                override=override,
            )
            return idx, wire.ior

        with ThreadPoolExecutor(max_workers=32) as pool:
            results = list(pool.map(marshal, range(1000)))

        iors_by_component = {}
        violations = 0
        for idx, ior in results:
            if idx in iors_by_component and iors_by_component[idx] != ior:
                violations += 1
            iors_by_component[idx] = ior
        assert violations == 0
        assert len(iors_by_component) == 100
        numbers = {ior.object_number for ior in iors_by_component.values()}
        assert len(numbers) == 100
        assert len(node.table.deployments()) == 100
        for idx, ior in iors_by_component.items():
            dep = node.table.resolve(ior.object_number)
            assert dep.component.instance is components[idx]


def test_criterion_08_multi_interface_deployment(make_node):
    with criterion(8, "one instance under two interfaces, each confined"):
        node = make_node()
        student = Student("Bobby Jones", 1234)
        node.deploy("INamedEntity", student, "bob")
        node.deploy("IMatriculated", student, "bob-number")

        assert _call(node, "/bob", "getName").result == VStr("Bobby Jones")
        assert (
            _call(node, "/bob", "getMatriculationNumber").fault.code
            is FaultCode.UNKNOWN_METHOD
        )
        assert _call(node, "/bob-number", "getMatriculationNumber").result == VInt(1234)
        assert _call(node, "/bob-number", "getName").fault.code is FaultCode.UNKNOWN_METHOD

        named = _call(node, "/bob", "__resolve").result.ior
        matric = _call(node, "/bob-number", "__resolve").result.ior
        assert named.object_number != matric.object_number
        assert (
            node.table.resolve(named.object_number).component.instance
            is node.table.resolve(matric.object_number).component.instance
        )


def test_criterion_09_inspector_round_trip(make_node, capsys):
    with criterion(9, "inspector list/describe/call against the figure 1 setup"):
        node = make_node()
        node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
        target = f"{node.host}:{node.port}"

        assert inspect_main([target, "list"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["bob\tINamedEntity"]

        assert inspect_main([target, "describe", "bob"]) == EXIT_OK
        described = capsys.readouterr().out.rstrip("\n")
        document = json.loads(http_get(node.host, node.port, "/bob?wsdl"))
        assert described == format_descriptor(document)

        assert inspect_main([target, "call", "bob", "getName"]) == EXIT_OK
        assert capsys.readouterr().out == "Bobby Jones\n"

        assert inspect_main([target, "describe", "nosuch"]) == EXIT_UNKNOWN_SERVICE
        capsys.readouterr()
        assert inspect_main([target, "call", "bob", "getMatriculationNumber"]) == EXIT_FAULT
        capsys.readouterr()
        assert inspect_main([target, "call", "bob", "getName", "q:1"]) == EXIT_USAGE
        capsys.readouterr()

        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        assert inspect_main([f"127.0.0.1:{free_port}", "list"]) == EXIT_NETWORK
        capsys.readouterr()


def _malformed_bodies(rng: random.Random, count: int):
    valid = '{"method":"getName","args":[]}'
    wrong_shapes = [
        17,
        [1, 2],
        {"method": 5, "args": []},
        {"args": []},
        {"method": "getName"},
        {"method": "", "args": []},
        {"method": "getName", "args": {}},
        {"fault": "nope"},
    ]
    for i in range(count):
        choice = i % 8
        if choice == 0:
            yield bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
        elif choice == 1:
            text = "".join(rng.choice(string.printable) for _ in range(rng.randint(1, 60)))
            yield text.encode()
        elif choice == 2:
            yield valid[: rng.randint(0, len(valid) - 1)].encode()
        elif choice == 3:
            yield json.dumps(rng.choice(wrong_shapes)).encode()
        elif choice == 4:
            yield json.dumps({"method": "getName", "args": [], "extra": True}).encode()
        elif choice == 5:
            yield json.dumps(
                {"method": "getName", "args": [{"t": "i99", "v": rng.randint(0, 9)}]}
            ).encode()
        elif choice == 6:
            yield ('{"t":"list","v":[' * rng.randint(1, 80)).encode()
        else:
            yield json.dumps({"method": f"no_such_{i}", "args": []}).encode()


def test_criterion_10_fuzz_never_crashes(make_node):
    with criterion(10, "10,000 malformed bodies: always a fault envelope or 400"):
        node = make_node()
        node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")

        def worker(worker_id: int) -> int:
            rng = random.Random(1000 + worker_id)
            conn = http.client.HTTPConnection(node.host, node.port, timeout=30)
            checked = 0
            try:
                for body in _malformed_bodies(rng, 1250):
                    for attempt in (0, 1):
                        try:
                            conn.request(
                                "POST",
                                "/bob",
                                body=body,
                                headers={"Content-Type": "application/json"},
                            )
                            response = conn.getresponse()
                            payload = response.read()
                            break
                        except (http.client.HTTPException, OSError):
                            conn.close()
                            conn = http.client.HTTPConnection(
                                node.host, node.port, timeout=30
                            )
                            if attempt == 1:
                                raise
                    assert response.status in (200, 400), response.status
                    if response.status == 200:
                        doc = json.loads(payload)
                        assert "fault" in doc, payload
                    checked += 1
            finally:
                conn.close()
            return checked

        with ThreadPoolExecutor(max_workers=8) as pool:
            totals = list(pool.map(worker, range(8)))
        assert sum(totals) == 10_000

        # the node survived and still answers real calls
        assert _call(node, "/bob", "getName").result == VStr("Bobby Jones")
