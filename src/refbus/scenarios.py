"""Executable end-to-end scenarios on loopback nodes, and the demo
component classes they deploy.

The two figure2 variants run the same script and differ in exactly one
policy call, the setSpouse method policy, which is what flips the final
printed age between 36 and 35 without touching component code. The local
variant runs both components in one address space and needs no wire
traffic at all.

Method names on the demo classes are the wire-facing names and stay in
their original camelCase.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import ScenarioFailed
from .interfaces import ClassDescriptor, InterfaceDescriptor, MethodSig
from .node import Node
from .policy import (
    BY_REFERENCE,
    BY_VALUE,
    CallOverride,
    ParamPos,
    PolicyStore,
    RETURN,
    TransmissionPolicy,
)
from .values import InterfaceType, Prim


class Student:
    def __init__(self, name, matricNumber):
        self.name = name
        self.matricNumber = matricNumber

    def getName(self):
        return self.name

    def getMatriculationNumber(self):
        return self.matricNumber


class Person:
    def __init__(self, name, age):
        self.name = name
        self.age = age
        self.spouse = None

    def getSpouse(self):
        return self.spouse

    def setSpouse(self, spouse):
        self.spouse = spouse

    def getAge(self):
        return self.age

    def incrementAge(self):
        self.age += 1


INAMED_ENTITY = InterfaceDescriptor("INamedEntity", [MethodSig("getName", (), Prim.STR)])

IMATRICULATED = InterfaceDescriptor(
    "IMatriculated", [MethodSig("getMatriculationNumber", (), Prim.I64)]
)

IPERSON = InterfaceDescriptor(
    "IPerson",
    [
        MethodSig("getSpouse", (), InterfaceType("IPerson")),
        MethodSig("setSpouse", (InterfaceType("IPerson"),), Prim.NULL),
        MethodSig("getAge", (), Prim.I64),
        MethodSig("incrementAge", (), Prim.NULL),
    ],
)

STUDENT_CLASS = ClassDescriptor(
    "Student",
    state_fields=[("name", Prim.STR), ("matricNumber", Prim.I64)],
    methods=[
        MethodSig("getName", (), Prim.STR),
        MethodSig("getMatriculationNumber", (), Prim.I64),
    ],
)

PERSON_CLASS = ClassDescriptor(
    "Person",
    state_fields=[("name", Prim.STR), ("age", Prim.I64)],
    methods=IPERSON.methods,
)


def register_demo_types(node: Node):
    node.register_interface(INAMED_ENTITY)
    node.register_interface(IMATRICULATED)
    node.register_interface(IPERSON)
    node.register_class(Student, STUDENT_CLASS)
    node.register_class(Person, PERSON_CLASS)


def _ports(ports, count: int) -> list[int]:
    if ports is None:
        return [0] * count
    if len(ports) < count:
        raise ValueError(f"scenario needs {count} ports, got {len(ports)}")
    return list(ports[:count])


def _figure1(ports) -> list[str]:
    pa, pb = _ports(ports, 2)
    out: list[str] = []
    server, consumer = Node(port=pa), Node(port=pb)
    register_demo_types(server)
    register_demo_types(consumer)
    server.start()
    consumer.start()
    try:
        url = server.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
        out.append(url)
        bob = consumer.get_component_by_name("bob", server.host, server.port)
        out.append(bob.getName())
    finally:
        consumer.stop()
        server.stop()
    return out


def _figure2_remote(policy: TransmissionPolicy, ports) -> list[str]:
    pa, pb = _ports(ports, 2)
    out: list[str] = []
    node_a, node_b = Node(port=pa), Node(port=pb)
    register_demo_types(node_a)
    register_demo_types(node_b)
    node_a.start()
    node_b.start()
    try:
        url = node_b.deploy("IPerson", Person("Mary Smith", 40), "mary")
        out.append(f"mary deployed at {url}")
        # the single call that differs between the two remote variants
        node_a.policies.set_method_policy("IPerson", "setSpouse", policy)
        out.append(f"setSpouse transmission policy: {policy.value}")

        john = Person("John Brown", 35)
        mary = node_a.get_component_by_name("mary", node_b.host, node_b.port)
        mary.setSpouse(john)
        john.incrementAge()
        out.append(str(mary.getSpouse().getAge()))
    finally:
        node_b.stop()
        node_a.stop()
    return out


def _figure2_byref(ports) -> list[str]:
    return _figure2_remote(BY_REFERENCE, ports)


def _figure2_byvalue(ports) -> list[str]:
    return _figure2_remote(BY_VALUE, ports)


def _figure2_local(ports) -> list[str]:
    out = ["mary and john share one address space"]
    mary = Person("Mary Smith", 40)
    john = Person("John Brown", 35)
    mary.setSpouse(john)
    john.incrementAge()
    out.append(str(mary.getSpouse().getAge()))
    return out


def _figure4_precedence(ports) -> list[str]:
    out: list[str] = []
    store = PolicyStore()

    def show(label, position, iface, method, runtime_class, override=None):
        resolved = store.resolve(position, iface, method, runtime_class, override)
        out.append(f"{label}: {resolved.value}")

    show("empty store, IPerson.setSpouse param 0 of Student", ParamPos(0), "IPerson", "setSpouse", "Student")
    store.set_class_policy("Student", BY_REFERENCE)
    out.append("set class policy Student = BY_REFERENCE")
    show("IPerson.setSpouse param 0 of Student", ParamPos(0), "IPerson", "setSpouse", "Student")
    show("IPerson.setSpouse param 0 of Person", ParamPos(0), "IPerson", "setSpouse", "Person")
    store.set_method_policy("IPerson", "setSpouse", BY_VALUE)
    out.append("set method policy IPerson.setSpouse = BY_VALUE")
    show("IPerson.setSpouse param 0 of Student", ParamPos(0), "IPerson", "setSpouse", "Student")
    show("IPerson.getSpouse return of Student", RETURN, "IPerson", "getSpouse", "Student")
    store.set_param_policy("IPerson", "setSpouse", 0, BY_REFERENCE)
    out.append("set param policy IPerson.setSpouse[0] = BY_REFERENCE")
    show("IPerson.setSpouse param 0 of Student", ParamPos(0), "IPerson", "setSpouse", "Student")
    override = CallOverride(whole_call=BY_VALUE)
    show(
        "IPerson.setSpouse param 0 of Student with whole-call override BY_VALUE",
        ParamPos(0),
        "IPerson",
        "setSpouse",
        "Student",
        override,
    )
    override = CallOverride(per_param={0: BY_REFERENCE}, whole_call=BY_VALUE)
    show(
        "IPerson.setSpouse param 0 of Student with per-param override BY_REFERENCE",
        ParamPos(0),
        "IPerson",
        "setSpouse",
        "Student",
        override,
    )
    return out


SCENARIOS = {
    "figure1": _figure1,
    "figure2-byref": _figure2_byref,
    "figure2-byvalue": _figure2_byvalue,
    "figure2-local": _figure2_local,
    "figure4-precedence": _figure4_precedence,
}

EXPECTED = {
    "figure1": [
        r"http://127\.0\.0\.1:\d+/bob",
        r"Bobby Jones",
    ],
    "figure2-byref": [
        r"mary deployed at http://127\.0\.0\.1:\d+/mary",
        r"setSpouse transmission policy: BY_REFERENCE",
        r"36",
    ],
    "figure2-byvalue": [
        r"mary deployed at http://127\.0\.0\.1:\d+/mary",
        r"setSpouse transmission policy: BY_VALUE",
        r"35",
    ],
    "figure2-local": [
        r"mary and john share one address space",
        r"36",
    ],
    "figure4-precedence": [
        r"empty store, IPerson\.setSpouse param 0 of Student: BY_VALUE",
        r"set class policy Student = BY_REFERENCE",
        r"IPerson\.setSpouse param 0 of Student: BY_REFERENCE",
        r"IPerson\.setSpouse param 0 of Person: BY_VALUE",
        r"set method policy IPerson\.setSpouse = BY_VALUE",
        r"IPerson\.setSpouse param 0 of Student: BY_VALUE",
        r"IPerson\.getSpouse return of Student: BY_REFERENCE",
        r"set param policy IPerson\.setSpouse\[0\] = BY_REFERENCE",
        r"IPerson\.setSpouse param 0 of Student: BY_REFERENCE",
        r"IPerson\.setSpouse param 0 of Student with whole-call override BY_VALUE: BY_VALUE",
        r"IPerson\.setSpouse param 0 of Student with per-param override BY_REFERENCE: BY_REFERENCE",
    ],
}


def transcript_diff(name: str, transcript: list[str]) -> list[str]:
    """Lines where the transcript deviates from the expectation; empty if none."""
    expected = EXPECTED[name]
    problems = []
    for i, pattern in enumerate(expected):
        if i >= len(transcript):
            problems.append(f"line {i + 1}: missing, expected /{pattern}/")
        elif not re.fullmatch(pattern, transcript[i]):
            problems.append(f"line {i + 1}: {transcript[i]!r} !~ /{pattern}/")
    for i in range(len(expected), len(transcript)):
        problems.append(f"line {i + 1}: unexpected {transcript[i]!r}")
    return problems


def run_scenario(name: str, *, ports=None, check: bool = True) -> list[str]:
    """Run a named scenario and return its transcript.

    With check=True (the default) the transcript is verified against the
    scenario's expectation and a mismatch raises ScenarioFailed carrying
    the diff.
    """
    runner = SCENARIOS.get(name)
    if runner is None:
        raise ValueError(f"unknown scenario {name!r} (choose from {sorted(SCENARIOS)})")
    transcript = runner(ports)
    if check:
        problems = transcript_diff(name, transcript)
        if problems:
            raise ScenarioFailed(f"scenario {name!r} diverged:\n" + "\n".join(problems))
    return transcript


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="refbus-scenario", description="Run a worked end-to-end scenario."
    )
    parser.add_argument("name", choices=sorted(SCENARIOS))
    args = parser.parse_args(argv)
    transcript = run_scenario(args.name, check=False)
    for line in transcript:
        print(line)
    problems = transcript_diff(args.name, transcript)
    if problems:
        print("scenario diverged:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
