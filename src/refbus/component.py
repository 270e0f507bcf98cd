"""Live component wrappers: the server-side dispatch skeleton and state
snapshots.

A ComponentHandle pairs an arbitrary Python instance with its class
descriptor. The dispatch table is built once, at wrap time, so an incoming
call is a dict lookup plus a plain method call, and only the descriptor's
methods are reachable through it.
"""

from __future__ import annotations

import threading

from .errors import InternalFaultError, TypeMismatchError, UnknownMethodError
from .interfaces import ClassDescriptor
from .values import NULL, InterfaceType, RecordType, TypeEnvironment, TypeRef, Value, VRecord
from .values import typeref_name
from .wire import to_value, type_check


class ComponentHandle:
    """A live instance plus its descriptor and dispatch skeleton.

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

    def __repr__(self):
        return f"<ComponentHandle {self.class_descriptor.name} identity={self.identity}>"


def snapshot_instance(instance, descriptor: ClassDescriptor, env: TypeEnvironment) -> VRecord:
    """State record of an instance, fields in declaration order. None is
    null and a record held as state is itself, once it fits ``env``;
    nothing else has a by-value form. Reference-valued state must stay out
    of state_fields."""

    def leaf(x, t: TypeRef) -> Value:
        if x is None:
            return NULL
        if isinstance(x, VRecord) and isinstance(t, RecordType) and x.type_name == t.name:
            if mismatches := type_check(x, t, env):
                raise TypeMismatchError("; ".join(mismatches))
            return x
        if isinstance(t, InterfaceType):
            raise TypeMismatchError("a live reference has no by-value form")
        raise TypeMismatchError(f"{type(x).__name__} does not fit {typeref_name(t)}")

    fields = []
    for name, declared in descriptor.state_fields:
        try:
            fields.append((name, to_value(getattr(instance, name), declared, leaf)))
        except (TypeMismatchError, AttributeError) as exc:
            raise InternalFaultError(f"cannot snapshot {descriptor.name}.{name}: {exc}") from None
    return VRecord(descriptor.name, fields)
