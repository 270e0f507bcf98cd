"""Transmissible values, remote references, and the signature type grammar.

A Value is the universal datum that crosses the wire: scalars, lists,
records, or a remote reference (Ior). TypeRefs describe signature
positions; InterfaceType is the only component-shaped TypeRef, so a
reference can only ever be typed as an interface. All types here are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Union

if TYPE_CHECKING:
    from .interfaces import ClassDescriptor, InterfaceDescriptor

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Ior:
    """Remote reference: where a component lives and the interface it exposes.

    The object number identifies the component uniquely within its node;
    host and port identify the node itself.
    """

    host: str
    port: int
    object_number: int
    interface_name: str

    def __post_init__(self):
        port, number = self.port, self.object_number
        if not isinstance(self.host, str) or not self.host:
            raise ValueError("Ior host must be a non-empty string")
        if isinstance(port, bool) or not isinstance(port, int) or not 1 <= port <= 65535:
            raise ValueError(f"Ior port out of range: {port!r}")
        if isinstance(number, bool) or not isinstance(number, int) or not 0 <= number <= I64_MAX:
            raise ValueError(f"Ior object number out of range: {number!r}")
        if not isinstance(self.interface_name, str) or not self.interface_name:
            raise ValueError("Ior interface name must be a non-empty string")


@dataclass(frozen=True)
class VNull:
    pass


@dataclass(frozen=True)
class VBool:
    value: bool

    def __post_init__(self):
        if not isinstance(self.value, bool):
            raise ValueError(f"VBool requires a bool, got {type(self.value).__name__}")


@dataclass(frozen=True)
class VInt:
    value: int

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise ValueError(f"VInt requires an int, got {type(self.value).__name__}")
        if not I64_MIN <= self.value <= I64_MAX:
            raise ValueError(f"VInt out of 64-bit signed range: {self.value}")


@dataclass(frozen=True)
class VFloat:
    value: float

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise ValueError(f"VFloat requires a float, got {type(self.value).__name__}")
        try:
            object.__setattr__(self, "value", float(self.value))
        except OverflowError:
            raise ValueError("VFloat out of range: integer too large for f64") from None
        if not math.isfinite(self.value):
            raise ValueError("VFloat must be finite (no NaN or infinity)")


@dataclass(frozen=True)
class VStr:
    value: str

    def __post_init__(self):
        if not isinstance(self.value, str):
            raise ValueError(f"VStr requires a str, got {type(self.value).__name__}")


@dataclass(frozen=True)
class VList:
    items: tuple["Value", ...]

    def __init__(self, items: Iterable["Value"] = ()):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class VRecord:
    """Named record with ordered fields; field order is the wire order."""

    type_name: str
    fields: tuple[tuple[str, "Value"], ...]

    def __init__(self, type_name: str, fields=()):
        if not type_name:
            raise ValueError("record type name must be non-empty")
        if isinstance(fields, Mapping):
            pairs = tuple(fields.items())
        else:
            pairs = tuple((name, value) for name, value in fields)
        names = [name for name, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in record {type_name!r}")
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "fields", pairs)

    def get(self, name: str) -> "Value":
        for field_name, value in self.fields:
            if field_name == name:
                return value
        raise KeyError(name)

    def as_dict(self) -> dict[str, "Value"]:
        return dict(self.fields)


@dataclass(frozen=True)
class VRef:
    ior: Ior


Value = Union[VNull, VBool, VInt, VFloat, VStr, VList, VRecord, VRef]

NULL = VNull()


class Prim(Enum):
    """Primitive signature types; the names match the wire tags."""

    NULL = "null"
    BOOL = "bool"
    I64 = "i64"
    F64 = "f64"
    STR = "str"


@dataclass(frozen=True)
class ListOf:
    elem: "TypeRef"


@dataclass(frozen=True)
class RecordType:
    name: str


@dataclass(frozen=True)
class InterfaceType:
    name: str


TypeRef = Union[Prim, ListOf, RecordType, InterfaceType]

# Each scalar kind once: its Prim (whose value is its wire tag), value class
# and Python type. Only the value class's constructor decides what fits; it
# raises ValueError. A Python int is no f64, but VFloat takes a JSON integer.
SCALARS = (
    (Prim.BOOL, VBool, bool),
    (Prim.I64, VInt, int),
    (Prim.F64, VFloat, float),
    (Prim.STR, VStr, str),
)
SCALAR_CLASS_BY_TAG = {prim.value: cls for prim, cls, _ in SCALARS}
SCALAR_TAG_BY_CLASS = {cls: prim.value for prim, cls, _ in SCALARS}
_SCALAR_BY_PY_TYPE = {py_type: (prim, cls) for prim, cls, py_type in SCALARS}


def python_scalar(x) -> tuple[Prim, type] | None:
    """The (Prim, value class) a Python datum travels as; None for a non-scalar.

    A subclass (an IntEnum, say) falls back to isinstance; bool precedes int.
    """
    row = _SCALAR_BY_PY_TYPE.get(type(x))
    if row is None:
        for prim, cls, py_type in SCALARS:
            if isinstance(x, py_type):
                return prim, cls
    return row


_TAGS = {VNull: "null", **SCALAR_TAG_BY_CLASS, VList: "list", VRecord: "rec", VRef: "ref"}


def value_tag(v: Value) -> str:
    """Wire tag of a value, used in mismatch descriptions."""
    return _TAGS[type(v)]


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
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in record type {name!r}")
        self.records[name] = pairs

    def add_interface(self, descriptor: "InterfaceDescriptor"):
        self._claim(descriptor.name)
        self.interfaces[descriptor.name] = descriptor

    def add_class(self, descriptor: "ClassDescriptor"):
        self._claim(descriptor.name)
        self.classes[descriptor.name] = descriptor


def type_check(v: Value, t: TypeRef, env: TypeEnvironment) -> list[str]:
    """Check a value against a signature type.

    Returns mismatch descriptions, each giving the path into the value and
    the expected/actual tags; an empty list means the value conforms.
    Null conforms to any interface or record position (an absent
    reference), and a record conforms to an interface position because a
    by-value component copy travels as its state record. When the record
    names a class in ``env``, that class must be compatible with the
    interface and the record must hold its state fields.
    """
    mismatches: list[str] = []
    _check(v, t, env, "$", mismatches)
    return mismatches


def _mismatch(out: list[str], path: str, t: TypeRef, v: Value, note: str = ""):
    suffix = f" ({note})" if note else ""
    out.append(f"{path}: expected {typeref_name(t)}, got {value_tag(v)}{suffix}")


def _check(v: Value, t: TypeRef, env: TypeEnvironment, path: str, out: list[str]):
    if isinstance(t, Prim):
        if _TAGS[type(v)] != t.value:
            _mismatch(out, path, t, v)
        return
    if isinstance(t, ListOf):
        if not isinstance(v, VList):
            _mismatch(out, path, t, v)
            return
        for i, item in enumerate(v.items):
            _check(item, t.elem, env, f"{path}[{i}]", out)
        return
    if isinstance(t, RecordType):
        if isinstance(v, VNull):
            return
        if not isinstance(v, VRecord):
            _mismatch(out, path, t, v)
            return
        if v.type_name != t.name:
            _mismatch(out, path, t, v, f"record type {v.type_name!r}")
            return
        declared = env.records.get(t.name)
        if declared is None:
            out.append(f"{path}: record type {t.name!r} is not defined")
            return
        _check_fields(v, declared, env, path, out)
        return
    # InterfaceType: a reference with the right interface, an absent
    # reference, or a by-value component copy (record). A copy naming a class
    # known here holds that class's state, with null for None fields as
    # snapshots send them, and the class must be compatible.
    if isinstance(v, VNull):
        return
    if isinstance(v, VRecord):
        cls = env.classes.get(v.type_name)
        if cls is None:
            return
        from .interfaces import check_compat  # interfaces imports this module

        iface = env.interfaces.get(t.name)
        if iface is None or check_compat(cls, iface):
            _mismatch(out, path, t, v, f"class {cls.name!r} is not compatible")
        else:
            _check_fields(v, cls.state_fields, env, path, out, null_ok=True)
        return
    if isinstance(v, VRef):
        if v.ior.interface_name != t.name:
            _mismatch(out, path, t, v, f"reference to {v.ior.interface_name!r}")
        return
    _mismatch(out, path, t, v)


def _check_fields(v: VRecord, declared, env, path: str, out: list[str], *, null_ok=False):
    """Declared names, order and count; each value conforms or, if null_ok, is null."""
    if len(v.fields) != len(declared):
        out.append(
            f"{path}: record {v.type_name!r} has {len(v.fields)} fields, "
            f"expected {len(declared)}"
        )
        return
    for (fname, fvalue), (dname, dtype) in zip(v.fields, declared):
        if fname != dname:
            out.append(f"{path}: record field {fname!r} where {dname!r} was declared")
            return
        if not (null_ok and isinstance(fvalue, VNull)):
            _check(fvalue, dtype, env, f"{path}.{fname}", out)


def _float_bits(f: float) -> bytes:
    return struct.pack("<d", f)


def value_equals(a: Value, b: Value) -> bool:
    """Deep structural equality; floats compare bit-exactly."""
    if type(a) is not type(b):
        return False
    if isinstance(a, VNull):
        return True
    if isinstance(a, VFloat):
        return _float_bits(a.value) == _float_bits(b.value)
    if isinstance(a, (VBool, VInt, VStr)):
        return a.value == b.value
    if isinstance(a, VList):
        return len(a.items) == len(b.items) and all(
            value_equals(x, y) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, VRecord):
        if a.type_name != b.type_name or len(a.fields) != len(b.fields):
            return False
        return all(
            an == bn and value_equals(av, bv)
            for (an, av), (bn, bv) in zip(a.fields, b.fields)
        )
    return a.ior == b.ior
