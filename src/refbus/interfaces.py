"""Interface and class descriptors, structural compatibility, and the
descriptor documents served at the ``?wsdl`` endpoint.

A component never has to implement its deployment interface nominally; it
only needs structurally equivalent methods (check_compat). Deployment
interfaces must additionally satisfy the interface-only rule: every type
reachable from their signatures is a primitive, list, record, or another
interface, never a concrete class. That rule recurses through referenced
interfaces and record fields (check_closure).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .values import (
    ListOf,
    Prim,
    RecordType,
    TypeEnvironment,
    TypeRef,
)


# Methods every deployment answers itself; no signature may declare them.
RESOLVE_METHOD = "__resolve"
SNAPSHOT_METHOD = "__snapshot"
RESERVED_METHODS = frozenset({RESOLVE_METHOD, SNAPSHOT_METHOD})


@dataclass(frozen=True)
class MethodSig:
    name: str
    params: tuple[TypeRef, ...] = ()
    returns: TypeRef = Prim.NULL

    def __init__(self, name: str, params: Iterable[TypeRef] = (), returns: TypeRef = Prim.NULL):
        if not name:
            raise ValueError("method name must be non-empty")
        if name in RESERVED_METHODS:
            raise ValueError(f"method name {name!r} is reserved")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "returns", returns)


def _check_unique_methods(owner: str, methods: tuple[MethodSig, ...]):
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate method names in {owner!r} (no overloading)")


@dataclass(frozen=True)
class InterfaceDescriptor:
    name: str
    methods: tuple[MethodSig, ...] = ()

    def __init__(self, name: str, methods: Iterable[MethodSig] = ()):
        if not name:
            raise ValueError("interface name must be non-empty")
        methods = tuple(methods)
        _check_unique_methods(name, methods)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "_by_name", {m.name: m for m in methods})

    def method(self, name: str) -> MethodSig | None:
        return self._by_name.get(name)


@dataclass(frozen=True)
class ClassDescriptor:
    """Shape of a concrete component class: snapshot fields plus methods.

    Used for compatibility checks and state snapshots only; a class name is
    never a legal signature type.
    """

    name: str
    state_fields: tuple[tuple[str, TypeRef], ...] = ()
    methods: tuple[MethodSig, ...] = ()

    def __init__(self, name, state_fields=(), methods: Iterable[MethodSig] = ()):
        if not name:
            raise ValueError("class name must be non-empty")
        fields = tuple((fname, ftype) for fname, ftype in state_fields)
        field_names = [fname for fname, _ in fields]
        if not all(field_names):
            raise ValueError(f"state field names in class {name!r} must be non-empty")
        if len(set(field_names)) != len(field_names):
            raise ValueError(f"duplicate state field names in class {name!r}")
        methods = tuple(methods)
        _check_unique_methods(name, methods)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "state_fields", fields)
        object.__setattr__(self, "methods", methods)


def check_compat(cls: ClassDescriptor, iface: InterfaceDescriptor) -> list[MethodSig]:
    """Interface methods the class cannot stand behind; empty means compatible.

    Equivalence is exact structural signature equality: same name, same
    parameter types in order, same return type.
    """
    by_name = {m.name: m for m in cls.methods}
    return [m for m in iface.methods if by_name.get(m.name) != m]


@dataclass(frozen=True)
class ClosureViolation:
    interface: str
    method: str
    position: str
    offending: str
    reason: str

    def __str__(self):
        return (
            f"{self.interface}.{self.method} {self.position}: "
            f"{self.offending!r} {self.reason}"
        )


def _walk_closure(iface: InterfaceDescriptor, env: TypeEnvironment):
    """Walk every type reachable from an interface's signatures, once.

    Descends through list elements, record fields, and referenced
    interfaces, entering each record and interface at most once, so
    interface cycles (back to the root too) terminate. Returns the records
    and the non-root interfaces reached, plus the interface-only rule
    violations met: a name that resolves to a class, or does not resolve
    to the kind of type it is used as.
    """
    records: dict[str, tuple[tuple[str, TypeRef], ...]] = {}
    interfaces: dict[str, InterfaceDescriptor] = {iface.name: iface}
    violations: list[ClosureViolation] = []

    def walk_type(t: TypeRef, owner: str, method: str, position: str):
        if isinstance(t, Prim):
            return
        if isinstance(t, ListOf):
            walk_type(t.elem, owner, method, f"{position} element")
            return
        name = t.name
        if name in env.classes:
            violations.append(
                ClosureViolation(owner, method, position, name, "names a concrete class")
            )
            return
        if isinstance(t, RecordType):
            if name in records:
                return
            declared = env.records.get(name)
            if declared is None:
                violations.append(
                    ClosureViolation(owner, method, position, name, "does not resolve")
                )
                return
            records[name] = declared
            for fname, ftype in declared:
                walk_type(ftype, owner, method, f"{position} -> record {name} field {fname}")
            return
        if name in interfaces:
            return
        target = env.interfaces.get(name)
        if target is None:
            violations.append(
                ClosureViolation(owner, method, position, name, "does not resolve")
            )
            return
        interfaces[name] = target
        walk_interface(target)

    def walk_interface(descriptor: InterfaceDescriptor):
        for m in descriptor.methods:
            for i, p in enumerate(m.params):
                walk_type(p, descriptor.name, m.name, f"param {i}")
            walk_type(m.returns, descriptor.name, m.name, "return")

    walk_interface(iface)
    del interfaces[iface.name]
    return records, interfaces, violations


def check_closure(
    iface: InterfaceDescriptor, env: TypeEnvironment
) -> list[ClosureViolation]:
    """Enforce the interface-only signature rule, recursively.

    Every type reachable from the interface's signatures must be a
    primitive, list, record, or interface; a name that resolves to a class
    (or does not resolve at all) is a violation.
    """
    return _walk_closure(iface, env)[2]


def typeref_doc(t: TypeRef):
    """Descriptor-document form of a type: a tag string or one-key object."""
    if isinstance(t, Prim):
        return t.value
    if isinstance(t, ListOf):
        return {"list": typeref_doc(t.elem)}
    if isinstance(t, RecordType):
        return {"record": t.name}
    return {"interface": t.name}


def _method_doc(m: MethodSig) -> dict:
    return {
        "name": m.name,
        "params": [typeref_doc(p) for p in m.params],
        "returns": typeref_doc(m.returns),
    }


def describe(iface: InterfaceDescriptor, env: TypeEnvironment) -> str:
    """Deterministic descriptor document for an interface.

    Contains the interface's methods plus the transitive closure of record
    and interface definitions its signatures reference. The root interface
    appears once, at the top; cycles back to it are collapsed. Raises
    LookupError for an interface that check_closure rejects.
    """
    records, interfaces, violations = _walk_closure(iface, env)
    if violations:
        raise LookupError("; ".join(str(v) for v in violations))

    doc = {
        "interface": iface.name,
        "methods": [_method_doc(m) for m in iface.methods],
        "records": {
            name: [{"name": fname, "type": typeref_doc(ftype)} for fname, ftype in records[name]]
            for name in sorted(records)
        },
        "interfaces": {
            name: [_method_doc(m) for m in interfaces[name].methods]
            for name in sorted(interfaces)
        },
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)
