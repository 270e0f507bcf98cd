"""Type-directed codec: one pass per side for plain types.

A plain type is a primitive or a list of plain types. At a plain type,
``decode`` turns parsed JSON into a Python value and ``_encode`` turns a
Python value into JSON-ready data, each walking the declared type. Each
does in one pass what the V* path does in several: ``wire._parse_value``,
``type_check`` and ``client.materialize`` inbound, ``Node.marshal_outbound``
and ``wire._value_obj`` outbound. The text it encodes is byte-identical to
the V* path's. Which scalar values fit comes from ``values.SCALARS``.

The choice is made per signature position, after ``wire`` has checked the
envelope. ``decode`` is only a fast way to succeed: at anything unusual it
declines, and ``receive`` runs the V* path on that one position, which
produces the fault. ``_encode`` hands any value that is not exactly a
built-in scalar, list or tuple to the caller's ``marshal``, which runs the
V* path for that position. Record and interface positions are not plain:
they always take the V* path, so policies, deploys, unproxying and
snapshots keep one implementation each.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from .values import SCALARS, ListOf, Prim, TypeEnvironment, TypeRef, Value, type_check
from .wire import MAX_NESTING, _dumps, _parse_value, _value_obj

# marshal(value, declared) -> the Value the V* path sends for one position
Marshal = Callable[[Any, TypeRef], Value]


class _Unfit(Exception):
    """``decode`` declines a value; the V* path must answer it."""


_MISSING = object()  # stands for an absent "v" key; its type fits no scalar
# Prim -> (wire tag, exact Python type, bulk rule), one lookup per position
_SCALAR = {prim: (prim.value, py_type, rule) for prim, _, py_type, rule in SCALARS}


def _fits(xs, row) -> bool:
    return not xs or (set(map(type, xs)) == {row[1]} and row[2](xs))


def _accept(payloads: list, row) -> list:
    """Python values of the "v" payloads of values tagged ``row[0]``."""
    if row[1] is float and int in set(map(type, payloads)):
        try:  # VFloat takes a JSON integer too
            payloads = [float(v) if type(v) is int else v for v in payloads]
        except OverflowError:
            raise _Unfit from None
    if not _fits(payloads, row):
        raise _Unfit
    return payloads


def _payload(obj, tag: str):
    if type(obj) is dict and len(obj) == 2 and obj.get("t") == tag:
        payload = obj.get("v", _MISSING)
        if payload is not _MISSING:
            return payload
    raise _Unfit


@functools.cache
def plain(t: TypeRef, depth: int = 0) -> bool:
    """Whether ``t`` holds no record or interface, and no value of it nests
    deeper than the wire allows, which only the V* path checks."""
    if isinstance(t, ListOf):
        return depth < MAX_NESTING and plain(t.elem, depth + 1)
    return isinstance(t, Prim)


def decode(obj, t: TypeRef):
    """The Python value of parsed JSON at plain type ``t``; raises _Unfit
    where it declines."""
    if type(t) is ListOf:
        items = _payload(obj, "list")
        if type(items) is not list:
            raise _Unfit
        row = _SCALAR.get(t.elem)
        if row is None:  # not a list of scalars: item by item
            elem = t.elem
            return [decode(item, elem) for item in items]
        tag = row[0]
        payloads = [
            item.get("v", _MISSING)
            for item in items
            if type(item) is dict and len(item) == 2 and item.get("t") == tag
        ]
        if len(payloads) != len(items):
            raise _Unfit
        return _accept(payloads, row)
    if t is Prim.NULL:
        if type(obj) is dict and len(obj) == 1 and obj.get("t") == "null":
            return None
        raise _Unfit
    row = _SCALAR[t]
    return _accept([_payload(obj, row[0])], row)[0]


def _encode(x, t: TypeRef, marshal: Marshal):
    """JSON-ready data of ``x`` at plain type ``t``; ``marshal`` answers each
    position ``x`` does not fit."""
    if type(t) is ListOf:
        if type(x) is list or type(x) is tuple:
            row = _SCALAR.get(t.elem)
            if row is not None and _fits(x, row):
                tag = row[0]
                return {"t": "list", "v": [{"t": tag, "v": item} for item in x]}
            elem = t.elem
            return {"t": "list", "v": [_encode(item, elem, marshal) for item in x]}
    elif t is Prim.NULL:
        if x is None:
            return {"t": "null"}
    elif _fits([x], row := _SCALAR[t]):
        return {"t": row[0], "v": x}
    return _value_obj(marshal(x, t))


def receive(
    objs: list, types, env: TypeEnvironment, path: str, materialize: Callable[[Value], Any]
) -> tuple[list, list]:
    """(values, misfits) of the parsed JSON values at signature positions.

    Each plain position runs ``decode``. Where that declines, or the type
    is not plain, ``wire._parse_value`` parses the position at
    ``path.format(i)``, so BadEnvelopeError leaves at the first position
    that does not parse, and ``type_check`` adds ``(i, mismatches)`` to
    misfits. Only when there are no misfits are the parsed positions
    materialized into values.
    """
    values, parsed, misfits = [], [], []
    for i, (obj, t) in enumerate(zip(objs, types)):
        if plain(t):
            try:
                values.append(decode(obj, t))
                continue
            except _Unfit:
                pass
        v = _parse_value(obj, path.format(i))
        if mismatches := type_check(v, t, env):
            misfits.append((i, mismatches))
        parsed.append(i)
        values.append(v)
    if not misfits:
        for i in parsed:
            values[i] = materialize(values[i])
    return values, misfits


def _send(x, t: TypeRef, marshal: Marshal):
    if plain(t):
        return _encode(x, t, marshal)
    return _value_obj(marshal(x, t))


def send_call(method: str, params, args, marshal_at: Callable[[int], Marshal]) -> str:
    """Call envelope text; ``marshal_at(i)`` marshals argument ``i``."""
    return _dumps({
        "method": method,
        "args": [_send(a, t, marshal_at(i)) for i, (a, t) in enumerate(zip(args, params))],
    })


def send_result(x, t: TypeRef, marshal: Marshal) -> str:
    """Reply envelope text for a result."""
    return _dumps({"result": _send(x, t, marshal)})
