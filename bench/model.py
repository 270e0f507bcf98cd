"""Component types the benchmark deploys, shared by both of its processes.

The server process deploys a ``Counter`` (small_calls), an ``Echo``
(bulk_list) or a ``Holder`` (figure2_refs). The load generator registers
the same descriptors, plus the README's ``Person`` class, which it passes
to the ``Holder`` by reference and by value.
"""

from __future__ import annotations

from refbus import (
    BY_REFERENCE,
    ClassDescriptor,
    InterfaceDescriptor,
    InterfaceType,
    ListOf,
    MethodSig,
    Node,
    Prim,
)


class Counter:
    def __init__(self):
        self.value = 0
        self.name = ""

    def incr(self, delta):
        self.value += delta
        return self.value

    def setName(self, name):
        self.name = name

    def getName(self):
        return self.name


class Echo:
    def echo(self, values):
        return values


class Person:
    def __init__(self, name, age):
        self.name, self.age, self.spouse = name, age, None

    def getSpouse(self):
        return self.spouse

    def setSpouse(self, s):
        self.spouse = s

    def getAge(self):
        return self.age

    def incrementAge(self):
        self.age += 1


class Holder:
    """Keeps the last person it was given; heldAge asks that person."""

    def __init__(self):
        self.person = None

    def hold(self, person):
        self.person = person

    def held(self):
        return self.person

    def heldAge(self):
        return self.person.getAge()


ICOUNTER = InterfaceDescriptor("ICounter", [
    MethodSig("incr", (Prim.I64,), Prim.I64),
    MethodSig("setName", (Prim.STR,), Prim.NULL),
    MethodSig("getName", (), Prim.STR),
])
COUNTER = ClassDescriptor("Counter", state_fields=[("value", Prim.I64), ("name", Prim.STR)],
                          methods=ICOUNTER.methods)

IECHO = InterfaceDescriptor("IEcho", [MethodSig("echo", (ListOf(Prim.I64),), ListOf(Prim.I64))])
ECHO = ClassDescriptor("Echo", methods=IECHO.methods)

IPERSON = InterfaceDescriptor("IPerson", [
    MethodSig("getSpouse", (), InterfaceType("IPerson")),
    MethodSig("setSpouse", (InterfaceType("IPerson"),), Prim.NULL),
    MethodSig("getAge", (), Prim.I64),
    MethodSig("incrementAge", (), Prim.NULL),
])
PERSON = ClassDescriptor("Person", state_fields=[("name", Prim.STR), ("age", Prim.I64)],
                         methods=IPERSON.methods)

IHOLDER = InterfaceDescriptor("IHolder", [
    MethodSig("hold", (InterfaceType("IPerson"),), Prim.NULL),
    MethodSig("held", (), InterfaceType("IPerson")),
    MethodSig("heldAge", (), Prim.I64),
])
HOLDER = ClassDescriptor("Holder", methods=IHOLDER.methods)

# workload -> (deployment name, interface, component factory)
DEPLOYMENTS = {
    "small_calls": ("counter", ICOUNTER, Counter),
    "bulk_list": ("echo", IECHO, Echo),
    "figure2_refs": ("holder", IHOLDER, Holder),
}


def register_types(node: Node):
    """Register every benchmark interface and class on a node."""
    for iface in (ICOUNTER, IECHO, IPERSON, IHOLDER):
        node.register_interface(iface)
    for cls, descriptor in ((Counter, COUNTER), (Echo, ECHO), (Person, PERSON), (Holder, HOLDER)):
        node.register_class(cls, descriptor)


def deploy_server(node: Node, workload: str):
    """Deploy the workload's component on a started server node.

    ``held`` must return the held person by reference: without this
    server-side policy the default BY_VALUE hands the caller a copy.
    """
    name, iface, factory = DEPLOYMENTS[workload]
    node.deploy(iface.name, factory(), name)
    node.policies.set_return_policy("IHolder", "held", BY_REFERENCE)
