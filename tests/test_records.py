"""Every data class of refbus is a ``values.Record``: equality by exact
class and fields, a hash that agrees with it, a ``Name(field=value, ...)``
repr, no assignment, and copies and pickles that rebuild through the
constructor."""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil

import pytest

import refbus
from refbus import BY_REFERENCE, BY_VALUE, CallOptions, CallOverride, FaultCode
from refbus.interfaces import ClassDescriptor, ClosureViolation, InterfaceDescriptor, MethodSig
from refbus.policy import ParamPos, ReturnPos
from refbus.values import (
    Ior,
    InterfaceType,
    ListOf,
    Prim,
    Record,
    RecordType,
    VBool,
    VFloat,
    VInt,
    VList,
    VNull,
    VRecord,
    VRef,
    VStr,
)
from refbus.wire import CallEnvelope, Fault, ReplyEnvelope

_IOR = {"host": "h", "port": 8000, "object_number": 3, "interface_name": "IPerson"}
_SIG = MethodSig("getAge", (), Prim.I64)
_IFACE = InterfaceDescriptor("IPerson", [_SIG])

# (class, keyword arguments, the same with one field changed). Every
# keyword appears, in constructor order, which is also the field order.
# RecordType and InterfaceType, and VNull and ReturnPos, hold the same
# fields, so the cross-class check meets them.
RECORDS = [
    (Ior, _IOR, {**_IOR, "object_number": 4}),
    (VNull, {}, None),
    (VBool, {"value": True}, {"value": False}),
    (VInt, {"value": 7}, {"value": -7}),
    (VFloat, {"value": 0.0}, {"value": -0.0}),
    (VStr, {"value": "a"}, {"value": "b"}),
    (VList, {"items": (VInt(1), VFloat(1.5))}, {"items": (VInt(1),)}),
    (
        VRecord,
        {"type_name": "Student", "fields": (("name", VStr("Bob")),)},
        {"type_name": "Student", "fields": (("name", VStr("Rob")),)},
    ),
    (VRef, {"ior": Ior(**_IOR)}, {"ior": Ior(**{**_IOR, "port": 8001})}),
    (ListOf, {"elem": Prim.I64}, {"elem": ListOf(Prim.I64)}),
    (RecordType, {"name": "X"}, {"name": "Y"}),
    (InterfaceType, {"name": "X"}, {"name": "Y"}),
    (
        MethodSig,
        {"name": "f", "params": (Prim.I64,), "returns": Prim.STR},
        {"name": "f", "params": (Prim.I64,), "returns": Prim.F64},
    ),
    (InterfaceDescriptor, {"name": "IPerson", "methods": (_SIG,)}, {"name": "IPerson", "methods": ()}),
    (
        ClassDescriptor,
        {"name": "Person", "state_fields": (("age", Prim.I64),), "methods": (_SIG,)},
        {"name": "Person", "state_fields": (("age", Prim.F64),), "methods": (_SIG,)},
    ),
    (
        ClosureViolation,
        {"interface": "I", "method": "f", "position": "param 0", "offending": "C", "reason": "r"},
        {"interface": "I", "method": "f", "position": "return", "offending": "C", "reason": "r"},
    ),
    (ParamPos, {"index": 0}, {"index": 1}),
    (ReturnPos, {}, None),
    (
        CallOverride,
        {"per_param": {0: BY_REFERENCE}, "whole_call": BY_VALUE},
        {"per_param": {0: BY_REFERENCE}, "whole_call": None},
    ),
    (Fault, {"code": FaultCode.INTERNAL, "message": "m"}, {"code": FaultCode.INTERNAL, "message": "n"}),
    (CallEnvelope, {"method": "f", "args": (VInt(1),)}, {"method": "f", "args": ()}),
    (ReplyEnvelope, {"result": VInt(1), "fault": None}, {"result": VInt(2), "fault": None}),
    (CallOptions, {"override": None, "timeout": 5.0}, {"override": None, "timeout": 6.0}),
]
# What a mapping proxy field makes unhashable, as before
UNHASHABLE = {CallOverride}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_table_holds_every_record_class_once():
    for module in pkgutil.iter_modules(refbus.__path__, "refbus."):
        importlib.import_module(module.name)
    in_refbus = {cls for cls in _subclasses(Record) if cls.__module__.startswith("refbus.")}
    classes = [cls for cls, _, _ in RECORDS]
    assert len(classes) == len(set(classes)) == 23
    assert set(classes) == in_refbus


@pytest.mark.parametrize("cls, kwargs, changed", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, kwargs, changed):
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a == b and not a != b
    assert a != object() and a.__eq__(object()) is NotImplemented
    if changed is not None:
        assert a != cls(**changed) and not a == cls(**changed)
    for other_cls, other_kwargs, _ in RECORDS:
        if other_cls is not cls:
            assert a != other_cls(**other_kwargs)
            assert a.__eq__(other_cls(**other_kwargs)) is NotImplemented

    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    names = list(kwargs)
    for name in names + ["other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b

    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in names)
    assert repr(a) == f"{cls.__name__}({shown})"

    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a
        assert repr(twin) == repr(a)


def test_an_interface_descriptors_method_index_survives_a_copy_and_stays_out():
    for twin in (copy.copy(_IFACE), copy.deepcopy(_IFACE), pickle.loads(pickle.dumps(_IFACE))):
        assert twin.method("getAge") == _SIG
    assert "_by_name" not in repr(_IFACE)
    assert _IFACE == InterfaceDescriptor("IPerson", [_SIG])
