"""Live component wrappers: the server-side dispatch skeleton and state
snapshots.

A ComponentHandle pairs an arbitrary Python instance with its class
descriptor. The dispatch table is built once, at wrap time, so an incoming
call is a dict lookup plus a plain method call, and only the descriptor's
methods are reachable through it.
"""

from __future__ import annotations

import threading

from .errors import InternalFaultError, UnknownMethodError
from .interfaces import ClassDescriptor
from .values import (
    NULL,
    InterfaceType,
    ListOf,
    Prim,
    RecordType,
    TypeRef,
    Value,
    VList,
    VRecord,
    python_scalar,
    typeref_name,
)


class ComponentHandle:
    """A live instance plus its descriptor, skeleton, and snapshot capability.

    ``identity`` is the instance's in-memory identity, so wrapping the same
    instance twice yields handles the object table will coalesce.
    Invocations are serialized on ``lock`` unless the handle is marked
    reentrant.
    """

    def __init__(self, instance, descriptor: ClassDescriptor, *, reentrant: bool = False):
        self.instance = instance
        self.class_descriptor = descriptor
        self.identity = id(instance)
        self.reentrant = reentrant
        self.lock = threading.RLock()
        self._dispatch = {}
        for sig in descriptor.methods:
            target = getattr(instance, sig.name, None)
            if not callable(target):
                raise TypeError(
                    f"{descriptor.name} instance has no callable {sig.name!r}"
                )
            self._dispatch[sig.name] = target

    def invoke(self, method_name: str, args: list):
        target = self._dispatch.get(method_name)
        if target is None:
            raise UnknownMethodError(f"no such method: {method_name}")
        return target(*args)

    def snapshot(self) -> VRecord:
        return snapshot_instance(self.instance, self.class_descriptor)

    def __repr__(self):
        return f"<ComponentHandle {self.class_descriptor.name} identity={self.identity}>"


def snapshot_instance(instance, descriptor: ClassDescriptor) -> VRecord:
    """State record of an instance, fields in declaration order."""
    fields = []
    for name, declared in descriptor.state_fields:
        raw = getattr(instance, name)
        fields.append((name, _state_value(raw, declared, descriptor.name, name)))
    return VRecord(descriptor.name, fields)


def _state_value(raw, declared: TypeRef, class_name: str, field_name: str) -> Value:
    where = f"{class_name}.{field_name}"
    if raw is None:
        return NULL
    if isinstance(declared, Prim):
        scalar = python_scalar(raw)
        if scalar is not None and scalar[0] is declared:
            try:
                return scalar[1](raw)
            except ValueError as exc:
                raise InternalFaultError(f"cannot snapshot {where}: {exc}") from None
    elif isinstance(declared, ListOf):
        if isinstance(raw, (list, tuple)):
            return VList(
                _state_value(item, declared.elem, class_name, field_name) for item in raw
            )
    elif isinstance(declared, RecordType):
        if isinstance(raw, VRecord) and raw.type_name == declared.name:
            return raw
    elif isinstance(declared, InterfaceType):
        # A live reference held in snapshotted state has no by-value form;
        # reference-valued state must stay out of state_fields.
        raise InternalFaultError(f"cannot snapshot live reference field {where}")
    raise InternalFaultError(
        f"cannot snapshot {where}: expected {typeref_name(declared)}, "
        f"got {type(raw).__name__}"
    )
