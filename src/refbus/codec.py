"""Signature-compiled codec: one pass per side for plain types.

A plain type is a primitive or a list of plain types. For each plain
TypeRef, ``compile_type`` builds once a decoder (parsed JSON to Python
value) and an encoder (Python value to JSON-ready data). Each does in one
pass what the V* path does in several: ``wire._parse_value``,
``type_check`` and ``client.materialize`` inbound, ``Node.marshal_outbound``
and ``wire._value_obj`` outbound. The text it encodes is byte-identical to
the V* path's.

The compiled path is only a fast way to succeed. Receiving raises ``Unfit``
at anything unusual, and the caller then runs the V* path on the same body,
which produces the fault. An encoder hands any value that is not exactly a
built-in scalar, list or tuple to the caller's ``marshal``, which runs the
V* path for that position. Record and interface positions have no compiled
form: they always take the V* path, so policies, deploys, unproxying and
snapshots keep one implementation each. Nothing compiled captures a node
or its type environment.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable

from .errors import BadEnvelopeError
from .values import (
    I64_MAX,
    I64_MIN,
    SCALARS,
    ListOf,
    Prim,
    TypeEnvironment,
    TypeRef,
    Value,
    is_text,
    type_check,
)
from .wire import _dumps, _loads, _parse_value, _value_obj

# marshal(value, declared) -> the Value the V* path sends for one position
Marshal = Callable[[Any, TypeRef], Value]


class Unfit(Exception):
    """The compiled codec declines a body; the V* path must answer it."""


_MISSING = object()  # stands for an absent "v" key; its type fits no scalar
_PY_TYPE = {prim: py_type for prim, _, py_type in SCALARS}
# What values of exactly a scalar's Python type must also satisfy: the
# checks of VBool, VInt, VFloat and VStr, over a whole list at once.
_RULES = {
    Prim.BOOL: lambda xs: True,
    Prim.I64: lambda xs: I64_MIN <= min(xs) and max(xs) <= I64_MAX,
    Prim.F64: lambda xs: all(map(math.isfinite, xs)),
    Prim.STR: lambda xs: is_text("".join(xs)),
}


def _fits(prim: Prim, xs) -> bool:
    return not xs or (set(map(type, xs)) == {_PY_TYPE[prim]} and _RULES[prim](xs))


def _accept(prim: Prim, payloads: list) -> list:
    """Python values of the "v" payloads of values tagged ``prim``."""
    if prim is Prim.F64 and int in set(map(type, payloads)):
        try:  # VFloat takes a JSON integer too
            payloads = [float(v) if type(v) is int else v for v in payloads]
        except OverflowError:
            raise Unfit from None
    if not _fits(prim, payloads):
        raise Unfit
    return payloads


def _payload(obj, tag: str):
    if type(obj) is dict and len(obj) == 2 and obj.get("t") == tag:
        payload = obj.get("v", _MISSING)
        if payload is not _MISSING:
            return payload
    raise Unfit


def _decode_null(obj):
    if type(obj) is dict and len(obj) == 1 and obj.get("t") == "null":
        return None
    raise Unfit


def _encode_null(x, marshal: Marshal):
    return {"t": "null"} if x is None else _value_obj(marshal(x, Prim.NULL))


def _scalar_codec(prim: Prim):
    tag = prim.value

    def decode(obj):
        return _accept(prim, [_payload(obj, tag)])[0]

    def encode(x, marshal: Marshal):
        if _fits(prim, [x]):
            return {"t": tag, "v": x}
        return _value_obj(marshal(x, prim))

    return decode, encode


def _list_codec(t: ListOf, decode_elem, encode_elem):
    # A list of scalars is checked in bulk; any other list item by item.
    prim = t.elem if t.elem in _RULES else None
    tag = prim.value if prim is not None else None

    def decode(obj):
        items = _payload(obj, "list")
        if type(items) is not list:
            raise Unfit
        if prim is None:
            return [decode_elem(item) for item in items]
        payloads = [
            item.get("v", _MISSING)
            for item in items
            if type(item) is dict and len(item) == 2 and item.get("t") == tag
        ]
        if len(payloads) != len(items):
            raise Unfit
        return _accept(prim, payloads)

    def encode(x, marshal: Marshal):
        if type(x) is not list and type(x) is not tuple:
            return _value_obj(marshal(x, t))
        if prim is not None and _fits(prim, x):
            return {"t": "list", "v": [{"t": tag, "v": item} for item in x]}
        return {"t": "list", "v": [encode_elem(item, marshal) for item in x]}

    return decode, encode


@functools.cache
def compile_type(t: TypeRef):
    """(decode, encode) for a plain type, built once per TypeRef; None for
    a type that holds a record or an interface."""
    if t is Prim.NULL:
        return _decode_null, _encode_null
    if isinstance(t, Prim):
        return _scalar_codec(t)
    if isinstance(t, ListOf):
        elem = compile_type(t.elem)
        if elem is not None:
            return _list_codec(t, *elem)
    return None


def plain(t: TypeRef) -> bool:
    return compile_type(t) is not None


def _receive(obj, t: TypeRef, env: TypeEnvironment):
    compiled = compile_type(t)
    if compiled is not None:
        return compiled[0](obj)
    v = _parse_value(obj, "$")
    if type_check(v, t, env):
        raise Unfit
    return v


def receive_call(body, iface, env: TypeEnvironment) -> tuple:
    """(MethodSig, staged args) of a call body, or Unfit.

    Free of side effects. A plain argument is staged as its Python value, a
    record or interface argument as its checked Value, which the caller
    materializes once every argument has passed.
    """
    try:
        call = _loads(body)
        if type(call) is not dict or len(call) != 2:
            raise Unfit
        method, args = call.get("method"), call.get("args")
        if type(method) is not str or type(args) is not list:
            raise Unfit
        sig = iface.method(method)  # None for a reserved or unknown method
        if sig is None or len(args) != len(sig.params):
            raise Unfit
        return sig, [_receive(a, t, env) for a, t in zip(args, sig.params)]
    except (BadEnvelopeError, RecursionError):
        raise Unfit from None


def receive_result(data, t: TypeRef, env: TypeEnvironment):
    """The staged result of a reply body, as ``receive_call`` stages an
    argument; Unfit for a fault or anything unusual."""
    try:
        reply = _loads(data)
        if type(reply) is not dict or len(reply) != 1 or "result" not in reply:
            raise Unfit
        return _receive(reply["result"], t, env)
    except (BadEnvelopeError, RecursionError):
        raise Unfit from None


def _send(x, t: TypeRef, marshal: Marshal):
    compiled = compile_type(t)
    if compiled is None:
        return _value_obj(marshal(x, t))
    return compiled[1](x, marshal)


def send_call(method: str, params, args, marshal_at: Callable[[int], Marshal]) -> str:
    """Call envelope text; ``marshal_at(i)`` marshals argument ``i``."""
    return _dumps({
        "method": method,
        "args": [_send(a, t, marshal_at(i)) for i, (a, t) in enumerate(zip(args, params))],
    })


def send_result(x, t: TypeRef, marshal: Marshal) -> str:
    """Reply envelope text for a result."""
    return _dumps({"result": _send(x, t, marshal)})
