"""Transmissible values, remote references, and the signature type grammar.

A Value is the universal datum that crosses the wire: scalars, lists,
records, or a remote reference (Ior). TypeRefs describe signature
positions; InterfaceType is the only component-shaped TypeRef, so a
reference can only ever be typed as an interface. All types here are
immutable after construction and safe to share across threads. Two values
are ``==`` exactly when they encode to the same wire text; floats compare
bit-exactly, so 0.0 and -0.0 differ. Which value class holds each Prim,
and ``to_value``, which turns Python data into values, live in
``refbus.wire``, beside its table of scalar rows.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:
    from .interfaces import ClassDescriptor, InterfaceDescriptor

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class Record:
    """Base of refbus's data classes: values, types, descriptors, envelopes.

    A subclass names its fields in ``__slots__``, in constructor order, and
    its ``__init__`` checks its arguments and sets each field once through
    ``object.__setattr__``. A slot whose name starts with ``_`` holds what
    ``__init__`` derives from the fields, and is no field. Two records are
    ``==`` when they are of the same class with equal fields, and equal
    records hash alike. ``repr`` is ``Name(field=value, ...)``. Assigning
    or deleting an attribute raises AttributeError, so copies and pickles
    rebuild a record through its constructor, checks included.

    The methods are written once here, not generated per class: generating
    them imported ``inspect`` and compiled code for every class on every
    import, a third of the time ``import refbus`` took.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # One getter per class reads every field in C; a loop of getattr
        # calls on each == or hash cost three times as much.
        cls._key = attrgetter(*cls._fields) if cls._fields else staticmethod(lambda record: ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Ior(Record):
    """Remote reference: where a component lives and the interface it exposes.

    The object number identifies the component uniquely within its node;
    host and port identify the node itself.
    """

    __slots__ = ("host", "port", "object_number", "interface_name")

    def __init__(self, host: str, port: int, object_number: int, interface_name: str):
        if not isinstance(host, str) or not host:
            raise ValueError("Ior host must be a non-empty string")
        if isinstance(port, bool) or not isinstance(port, int) or not 1 <= port <= 65535:
            raise ValueError(f"Ior port out of range: {port!r}")
        if (
            isinstance(object_number, bool)
            or not isinstance(object_number, int)
            or not 0 <= object_number <= I64_MAX
        ):
            raise ValueError(f"Ior object number out of range: {object_number!r}")
        if not isinstance(interface_name, str) or not interface_name:
            raise ValueError("Ior interface name must be a non-empty string")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "port", port)
        object.__setattr__(self, "object_number", object_number)
        object.__setattr__(self, "interface_name", interface_name)


class VNull(Record):
    __slots__ = ()


class VBool(Record):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        if not isinstance(value, bool):
            raise ValueError(f"VBool requires a bool, got {type(value).__name__}")
        object.__setattr__(self, "value", value)


class VInt(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"VInt requires an int, got {type(value).__name__}")
        if not I64_MIN <= value <= I64_MAX:
            raise ValueError(f"VInt out of 64-bit signed range: {value}")
        object.__setattr__(self, "value", value)


class VFloat(Record):
    __slots__ = ("value",)

    def __init__(self, value: float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"VFloat requires a float, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError("VFloat out of range: integer too large for f64") from None
        if not math.isfinite(value):
            raise ValueError("VFloat must be finite (no NaN or infinity)")
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        # Bit-exact, as the wire writes it: 0.0 and -0.0 are two values.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value.hex() == other.value.hex()

    __hash__ = Record.__hash__


class VStr(Record):
    __slots__ = ("value",)

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise ValueError(f"VStr requires a str, got {type(value).__name__}")
        if not is_text(value):
            raise ValueError("VStr must be valid Unicode text (no lone surrogates)")
        object.__setattr__(self, "value", value)


def is_text(s: str) -> bool:
    """Whether a str is valid Unicode text: what UTF-8 can encode, so no
    lone surrogates."""
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class VList(Record):
    __slots__ = ("items",)

    def __init__(self, items: Iterable["Value"] = ()):
        items = tuple(items)
        for i, item in enumerate(items):
            if not isinstance(item, _VALUE_CLASSES):
                raise ValueError(f"item {i} of a list is not a value: {item!r}")
        object.__setattr__(self, "items", items)


class VRecord(Record):
    """Named record with ordered fields; field order is the wire order."""

    __slots__ = ("type_name", "fields")

    def __init__(self, type_name: str, fields=()):
        if not isinstance(type_name, str) or not type_name:
            raise ValueError("record type name must be a non-empty string")
        pairs = tuple((name, value) for name, value in fields)
        names = [name for name, _ in pairs]
        if not all(isinstance(name, str) and name for name in names):
            raise ValueError(f"field names in record {type_name!r} must be non-empty strings")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in record {type_name!r}")
        for name, value in pairs:
            if not isinstance(value, _VALUE_CLASSES):
                raise ValueError(f"field {name!r} of record {type_name!r} is not a value: {value!r}")
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "fields", pairs)

    def get(self, name: str) -> "Value":
        for field_name, value in self.fields:
            if field_name == name:
                return value
        raise KeyError(name)


class VRef(Record):
    __slots__ = ("ior",)

    def __init__(self, ior: Ior):
        object.__setattr__(self, "ior", ior)


_VALUE_CLASSES = (VNull, VBool, VInt, VFloat, VStr, VList, VRecord, VRef)
Value = Union[_VALUE_CLASSES]

NULL = VNull()


class Prim(Enum):
    """Primitive signature types; the names match the wire tags."""

    NULL = "null"
    BOOL = "bool"
    I64 = "i64"
    F64 = "f64"
    STR = "str"

    # Members are singletons compared by identity, so identity hashes them,
    # in C; Enum's own __hash__ is a Python call on each dict lookup.
    __hash__ = object.__hash__


class ListOf(Record):
    __slots__ = ("elem",)

    def __init__(self, elem: "TypeRef"):
        object.__setattr__(self, "elem", elem)


class RecordType(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class InterfaceType(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


TypeRef = Union[Prim, ListOf, RecordType, InterfaceType]

def typeref_name(t: TypeRef) -> str:
    if isinstance(t, Prim):
        return t.value
    if isinstance(t, ListOf):
        return f"list<{typeref_name(t.elem)}>"
    if isinstance(t, RecordType):
        return f"record {t.name}"
    return f"interface {t.name}"


class TypeEnvironment:
    """Named record shapes, interface descriptors, and component class
    descriptors known to one node.

    The three namespaces are disjoint so any name resolves to exactly one
    kind of type; in particular this is what lets the signature-closure
    check recognise a concrete class name used where a type belongs.
    """

    def __init__(self):
        self.records: dict[str, tuple[tuple[str, TypeRef], ...]] = {}
        self.interfaces: dict[str, "InterfaceDescriptor"] = {}
        self.classes: dict[str, "ClassDescriptor"] = {}

    def _claim(self, name: str):
        if not name:
            raise ValueError("type name must be non-empty")
        if name in self.records or name in self.interfaces or name in self.classes:
            raise ValueError(f"type name already in use: {name!r}")

    def add_record(self, name: str, fields: Iterable[tuple[str, TypeRef]]):
        self._claim(name)
        pairs = tuple((fname, ftype) for fname, ftype in fields)
        names = [fname for fname, _ in pairs]
        if not all(names):
            raise ValueError(f"field names in record type {name!r} must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in record type {name!r}")
        self.records[name] = pairs

    def add_interface(self, descriptor: "InterfaceDescriptor"):
        self._claim(descriptor.name)
        self.interfaces[descriptor.name] = descriptor

    def add_class(self, descriptor: "ClassDescriptor"):
        self._claim(descriptor.name)
        self.classes[descriptor.name] = descriptor
