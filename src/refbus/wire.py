"""The wire format: bit-exact envelopes and values.

The wire grammar is a compact self-tagging JSON subset: every value is an
object carrying a "t" tag, a call is {"method", "args"}, and a reply holds
exactly one of "result" or "fault". Encoding is deterministic (equal
inputs yield byte-identical text) and decoding is strict: unknown tags,
missing or extra keys, out-of-range numbers, and non-finite floats all
signal BAD_ENVELOPE.

A value takes one of three paths each way, and one table, ``_ROWS``,
decides which. It holds one row per Prim: the exact Python type of its
values, its value class and that class's rule, the writer of its payload
and the reader of a parsed payload. The V* path's scalar lookups, by tag,
by value class and by Python type, are built from the same table.

A scalar or null position takes its row. Outbound, ``_write`` writes a
value of exactly the row's Python type, within its rule, as ``_dumps``
would. Inbound, ``receive`` reads a parsed value object of the row's tag,
with exactly its keys and a payload that fits, into the Python value
``materialize`` would make. Neither end builds a ``values.Value``.

A position declared ``readable`` (a list of a Prim whose row has a bulk
rule: i64, f64 or bool) takes the text path. Outbound, ``_write`` writes a
list or tuple of exact payloads straight to the canonical text. Inbound,
``read_call`` and ``read_reply`` read the one argument of a call, or the
result of a reply: where the body is the canonical text ``_write``
writes, they read the payloads straight from it with one JSON parse of a
bare array, and build no element object. Anything else they decline,
before parsing or after, where a payload does not fit.

Everything a row or the text path declines, and every other position,
takes the V* path. Outbound, ``marshal`` answers the position whole
(``to_value`` turns scalars and lists into their ``values.Value``), and
``_value_obj`` writes its value with the same bytes. Inbound,
one walk of ``_parse_value`` in ``receive`` parses the position into a
``values.Value`` and checks it against the declared type, and once every
position fits, the caller's ``materialize`` turns each into a Python
value. The V* path is the only writer of fault texts, so the rows and the
text path change no fault. ``send_call`` and ``send_result`` join the
texts around the envelope. ``type_check`` runs the V* walk over a value
the caller supplies.
"""

from __future__ import annotations

import json
import math
from json.decoder import scanstring
from json.encoder import c_make_encoder, encode_basestring
from typing import Any, Callable, Iterable

from .errors import BadEnvelopeError, FaultCode, TypeMismatchError
from .interfaces import check_compat
from .values import (
    I64_MAX,
    I64_MIN,
    NULL,
    InterfaceType,
    Ior,
    ListOf,
    Prim,
    Record,
    RecordType,
    TypeEnvironment,
    TypeRef,
    Value,
    VBool,
    VFloat,
    VInt,
    VList,
    VNull,
    VRecord,
    VRef,
    VStr,
    is_text,
    typeref_name,
)


class Fault(Record):
    __slots__ = ("code", "message")

    def __init__(self, code: FaultCode, message: str):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)


class CallEnvelope(Record):
    __slots__ = ("method", "args")

    def __init__(self, method: str, args: Iterable[Value] = ()):
        if not method:
            raise ValueError("call method must be non-empty")
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "args", tuple(args))


class ReplyEnvelope(Record):
    """Either a result or a fault, never both."""

    __slots__ = ("result", "fault")

    def __init__(self, result: Value | None = None, fault: Fault | None = None):
        if (result is None) == (fault is None):
            raise ValueError("reply must carry exactly one of result or fault")
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "fault", fault)

    @classmethod
    def ok(cls, result: Value) -> "ReplyEnvelope":
        return cls(result=result)

    @classmethod
    def fail(cls, code: FaultCode, message: str) -> "ReplyEnvelope":
        return cls(fault=Fault(code, message))


# Every container reaching it is built fresh by an encoder, so it holds no
# cycle, and the check for one would only cost time on large lists.
_ENCODER = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False, allow_nan=False, check_circular=False
)
# JSONEncoder.encode builds a C encoder on every call; this one is built
# once, with the same settings. Builds without the C accelerator fall back.
_C_ENCODE = None if c_make_encoder is None else c_make_encoder(
    None, _ENCODER.default, encode_basestring, None, ":", ",", False, False, False
)


def _dumps(obj: Any) -> str:
    if _C_ENCODE is None:
        return _ENCODER.encode(obj)
    return "".join(_C_ENCODE(obj, 0))


def _value_obj(v: Value) -> dict:
    row = _ROW_BY_CLASS.get(type(v))
    if row is not None:
        return {"t": row.tag, "v": v.value}
    if isinstance(v, VNull):
        return {"t": "null"}
    if isinstance(v, VList):
        return {"t": "list", "v": [_value_obj(item) for item in v.items]}
    if isinstance(v, VRecord):
        return {
            "t": "rec",
            "type": v.type_name,
            "v": {name: _value_obj(value) for name, value in v.fields},
        }
    if isinstance(v, VRef):
        ior = v.ior
        return {
            "t": "ref",
            "v": {
                "host": ior.host,
                "port": ior.port,
                "obj": ior.object_number,
                "iface": ior.interface_name,
            },
        }
    raise TypeError(f"not a Value: {v!r}")


def encode_value(v: Value) -> str:
    return _dumps(_value_obj(v))


def encode_call(call: CallEnvelope) -> str:
    return _dumps({"method": call.method, "args": [_value_obj(a) for a in call.args]})


def encode_reply(reply: ReplyEnvelope) -> str:
    if reply.fault is not None:
        return _dumps(
            {"fault": {"code": reply.fault.code.value, "message": reply.fault.message}}
        )
    return _dumps({"result": _value_obj(reply.result)})


# Levels of lists and records one value may nest, as protobuf's default
# recursion limit; deeper is BAD_ENVELOPE, whatever the caller's stack.
MAX_NESTING = 100


def _reject_constant(name: str):
    raise ValueError(f"non-finite number constant: {name}")


# json.loads builds a decoder on every call that passes parse_constant
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads(text: str) -> Any:
    """The JSON data of a body, as text or UTF-8 bytes; BadEnvelopeError
    where it is not UTF-8 or not JSON."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadEnvelopeError(f"body is not valid UTF-8: {exc}") from None
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (ValueError, TypeError) as exc:
        raise BadEnvelopeError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise BadEnvelopeError("value nesting too deep") from None


def _require_keys(obj: dict, keys: set[str], what: str, path: str):
    if set(obj.keys()) != keys:
        raise BadEnvelopeError(
            f"{path}: {what} must have exactly keys {sorted(keys)}, got {sorted(obj.keys())}"
        )


# The tags a value may carry at a list, record or interface type; at a Prim,
# only the Prim's own. Null fits a record or an interface (an absent
# reference), and a record fits an interface, because a by-value component
# copy travels as its state record.
_TAGS_AT = {
    ListOf: ("list",), RecordType: ("null", "rec"), InterfaceType: ("null", "rec", "ref")
}


def _declared_fields(type_name: str, count: int, t: TypeRef, env: TypeEnvironment, path, out):
    """The (name, type) pairs a record named ``type_name`` with ``count``
    fields must hold, in order, at ``t``; None, with any mismatch added to
    ``out``, where its fields are not checked. A copy of a class unknown
    here fits an interface unchecked; a known class must be compatible."""
    if type(t) is RecordType:
        if type_name != t.name:
            out.append(f"{path}: expected record {t.name}, got rec (record type {type_name!r})")
            return None
        declared = env.records.get(t.name)
        if declared is None:
            out.append(f"{path}: record type {t.name!r} is not defined")
            return None
    else:
        cls = env.classes.get(type_name)
        if cls is None:
            return None
        iface = env.interfaces.get(t.name)
        if iface is None or check_compat(cls, iface):
            out.append(
                f"{path}: expected interface {t.name}, got rec "
                f"(class {type_name!r} is not compatible)"
            )
            return None
        declared = cls.state_fields
    if count != len(declared):
        out.append(f"{path}: record {type_name!r} has {count} fields, expected {len(declared)}")
        return None
    return declared


def _parse_value(
    obj: Any, path: str, t: TypeRef | None = None, env=None, out=None, depth: int = 0
) -> Value:
    """Parse the JSON value at ``path`` and, given a declared type ``t``,
    check it against ``t`` in the same walk.

    The JSON shape is checked here, and the value classes check what fits;
    either raises BadEnvelopeError. Each mismatch with ``t`` (in ``env``)
    is added to ``out``, and the subtree under it is parsed without a type,
    so a malformed value anywhere still raises. ``depth`` counts the lists
    and records around ``obj``. Recursion takes at most two frames per
    level, so MAX_NESTING levels parse under any caller that leaves
    Python's default recursion limit a few hundred frames of room.
    """
    if not isinstance(obj, dict):
        raise BadEnvelopeError(f"{path}: value must be a tagged object")
    tag = obj.get("t")
    if not isinstance(tag, str):  # a JSON list or object tag is unhashable
        raise BadEnvelopeError(f"{path}: unknown value tag {tag!r}")
    row = _ROW_BY_TAG.get(tag)
    if t is not None and (row is None or t is not row.prim) and tag not in _TAGS_AT.get(type(t), ()):
        out.append(f"{path}: expected {typeref_name(t)}, got {tag}")
        t = None
    try:
        if row is not None and row.cls is not None:
            _require_keys(obj, {"t", "v"}, f"{tag} value", path)
            return row.cls(obj["v"])
        if tag == "ref":
            _require_keys(obj, {"t", "v"}, "reference value", path)
            ref = obj["v"]
            if not isinstance(ref, dict):
                raise BadEnvelopeError(f"{path}: reference payload must be an object")
            _require_keys(ref, {"host", "port", "obj", "iface"}, "reference", path)
            ior = Ior(ref["host"], ref["port"], ref["obj"], ref["iface"])
            if t is not None and ior.interface_name != t.name:
                out.append(
                    f"{path}: expected interface {t.name}, got ref "
                    f"(reference to {ior.interface_name!r})"
                )
            return VRef(ior)
    except ValueError as exc:
        raise BadEnvelopeError(f"{path}: {exc}") from None
    if tag == "null":
        _require_keys(obj, {"t"}, "null value", path)
        return NULL
    if (tag == "list" or tag == "rec") and depth == MAX_NESTING:
        raise BadEnvelopeError("value nesting too deep")
    depth += 1
    if tag == "list":
        _require_keys(obj, {"t", "v"}, "list value", path)
        items = obj["v"]
        if not isinstance(items, list):
            raise BadEnvelopeError(f"{path}: list payload must be an array")
        elem = None if t is None else t.elem
        return VList(
            [
                _parse_value(item, f"{path}[{i}]", elem, env, out, depth)
                for i, item in enumerate(items)
            ]
        )
    if tag == "rec":
        _require_keys(obj, {"t", "type", "v"}, "record value", path)
        type_name, payload = obj["type"], obj["v"]
        if not isinstance(type_name, str) or not type_name:
            raise BadEnvelopeError(f"{path}: record type must be a non-empty string")
        if not isinstance(payload, dict):
            raise BadEnvelopeError(f"{path}: record payload must be an object")
        declared = None
        if t is not None:
            declared = _declared_fields(type_name, len(payload), t, env, path, out)
        # a copy sends a None field as null, which fits any field type there
        null_ok = type(t) is InterfaceType
        fields = []
        for i, (name, item) in enumerate(payload.items()):
            if not isinstance(name, str) or not name:
                raise BadEnvelopeError(f"{path}: record field names must be non-empty")
            ftype = None
            if declared is not None:
                dname, ftype = declared[i]
                if name != dname:
                    out.append(f"{path}: record field {name!r} where {dname!r} was declared")
                    declared = ftype = None
                elif null_ok and item == {"t": "null"}:
                    ftype = None
            fields.append((name, _parse_value(item, f"{path}.{name}", ftype, env, out, depth)))
        return VRecord(type_name, fields)
    raise BadEnvelopeError(f"{path}: unknown value tag {tag!r}")


def type_check(v: Value, t: TypeRef, env: TypeEnvironment) -> list[str]:
    """Mismatches of a value with a signature type, each with its path in
    the value; empty where it fits. The value's JSON takes the walk that
    checks every received position."""
    out: list[str] = []
    _parse_value(_value_obj(v), "$", t, env, out)
    return out


def decode_value(text: str) -> Value:
    return _parse_value(loads(text), "$")


def decode_call(text: str) -> CallEnvelope:
    method, args = call_shape(loads(text))
    return CallEnvelope(method, parse_args(args))


def decode_reply(text: str) -> ReplyEnvelope:
    result, fault = reply_shape(loads(text))
    if fault is not None:
        return ReplyEnvelope(fault=fault)
    return ReplyEnvelope.ok(_parse_value(result, "$.result"))


def call_shape(obj: Any) -> tuple[str, list]:
    """The method and the unparsed args of a call object."""
    if not isinstance(obj, dict):
        raise BadEnvelopeError("call must be an object")
    _require_keys(obj, {"method", "args"}, "call", "$")
    method = obj["method"]
    if not isinstance(method, str) or not method:
        raise BadEnvelopeError("call method must be a non-empty string")
    if not isinstance(obj["args"], list):
        raise BadEnvelopeError("call args must be an array")
    return method, obj["args"]


def parse_args(args: list) -> list[Value]:
    return [_parse_value(a, f"$.args[{i}]") for i, a in enumerate(args)]


def reply_shape(obj: Any) -> tuple[Any, Fault | None]:
    """The unparsed result of a reply object, or its fault."""
    if not isinstance(obj, dict):
        raise BadEnvelopeError("reply must be an object")
    if set(obj.keys()) == {"result"}:
        return obj["result"], None
    if set(obj.keys()) == {"fault"}:
        fault = obj["fault"]
        if not isinstance(fault, dict):
            raise BadEnvelopeError("fault must be an object")
        _require_keys(fault, {"code", "message"}, "fault", "$.fault")
        try:
            code = FaultCode(fault["code"])
        except ValueError:
            raise BadEnvelopeError(f"unknown fault code {fault['code']!r}") from None
        if not isinstance(fault["message"], str):
            raise BadEnvelopeError("fault message must be a string")
        return None, Fault(code, fault["message"])
    raise BadEnvelopeError("reply must carry exactly one of result or fault")


# marshal(value, declared) -> the Value the V* path sends for one position
Marshal = Callable[[Any, TypeRef], Value]


class _Row:
    """One Prim: how its values skip the value objects, both ways, and its
    value class on the V* path."""

    __slots__ = ("prim", "tag", "keys", "head", "py_type", "cls", "rule", "write", "read", "bulk")

    def __init__(self, prim: Prim, py_type: type, cls, rule, write, read=None, bulk=None):
        self.prim, self.tag = prim, prim.value
        # A null has no payload: its value object has one key, and the text
        # before its payload is all of it but the closing brace.
        self.keys = 1 if prim is Prim.NULL else 2
        self.head = f'{{"t":"{self.tag}"' + ("" if prim is Prim.NULL else ',"v":')
        self.py_type, self.cls, self.rule, self.write, self.bulk = py_type, cls, rule, write, bulk
        self.read = read or _as_parsed


def _as_parsed(payload):
    return payload


def _as_float(payload):
    """An f64 payload, a JSON integer read as a float as VFloat reads it;
    None where no float holds it."""
    if type(payload) is int:
        try:
            return float(payload)
        except OverflowError:
            return None
    return payload


def _anything(_) -> bool:
    return True


# The one table that decides which positions skip the value objects: a
# scalar or null at its Prim, and a list or tuple of them at a ``readable``
# type, a list of a Prim whose row has a bulk rule. Those are the Prims
# whose payloads hold no quote, comma or bracket; a string's can span a
# separator, so list<str> stays out. A row holds:
# - the exact Python type of its values, so a bool is no i64, and an
#   IntEnum takes the V* path, which writes it as its int;
# - its value class, none for null, whose constructor decides what fits on
#   the V* path; a Python int is no f64, but VFloat takes a JSON integer;
# - that class's rule, over one value of exactly that type;
# - the writer of a payload, which writes what ``_dumps`` does;
# - the reader of a parsed payload, which makes the Python value that
#   ``materialize`` would, or one that the type and rule then decline;
# - the bulk rule: the rule over a whole non-empty list at once.
# Whatever a row declines takes the V* path, the only writer of fault texts.
_ROWS = {
    row.prim: row
    for row in (
        _Row(Prim.NULL, type(None), None, _anything, lambda x: ""),
        _Row(
            Prim.BOOL, bool, VBool, _anything, {False: "false", True: "true"}.__getitem__,
            bulk=_anything,
        ),
        _Row(
            Prim.I64, int, VInt, lambda x: I64_MIN <= x <= I64_MAX, int.__repr__,
            bulk=lambda xs: I64_MIN <= min(xs) and max(xs) <= I64_MAX,
        ),
        _Row(
            Prim.F64, float, VFloat, math.isfinite, float.__repr__, _as_float,
            bulk=lambda xs: all(map(math.isfinite, xs)),
        ),
        _Row(Prim.STR, str, VStr, is_text, encode_basestring),
    )
}
# The V* path's lookups, built once, so they hold while a test empties _ROWS
# to turn the rows off. Bool precedes int in _ROWS, as to_value's
# isinstance fallback needs.
_ROW_BY_TAG = {row.tag: row for row in _ROWS.values()}
_ROW_BY_CLASS = {row.cls: row for row in _ROWS.values() if row.cls}
_ROW_BY_PY_TYPE = {row.py_type: row for row in _ROW_BY_CLASS.values()}


def to_value(x, t: TypeRef, leaf: Callable[[Any, TypeRef], Value]) -> Value:
    """The Value of a Python datum at declared type ``t``.

    Scalars convert to their value class and lists and tuples element-wise;
    ``leaf(x, t)`` answers every other datum, None included. A scalar or
    list that does not fit ``t``, or a scalar its value class refuses,
    raises TypeMismatchError. A scalar subclass (an IntEnum, say) falls
    back to isinstance; bool precedes int.
    """
    if x is None:
        return leaf(x, t)
    row = _ROW_BY_PY_TYPE.get(type(x))
    if row is None:
        for row in _ROW_BY_PY_TYPE.values():
            if isinstance(x, row.py_type):
                break
        else:
            if not isinstance(x, (list, tuple)):
                return leaf(x, t)
            if not isinstance(t, ListOf):
                raise TypeMismatchError(f"list does not fit {typeref_name(t)}")
            return VList([to_value(item, t.elem, leaf) for item in x])
    if t is not row.prim:
        raise TypeMismatchError(f"{type(x).__name__} does not fit {typeref_name(t)}")
    try:
        return row.cls(x)
    except ValueError as exc:
        raise TypeMismatchError(str(exc)) from None


# The text every list value starts with
_LIST_HEAD = '{"t":"list","v":['


def readable(t: TypeRef) -> bool:
    """Whether values of ``t`` take the text path: a list of i64, f64 or
    bool, which ``_write`` writes and ``read_call`` and ``read_reply``
    read."""
    row = _ROWS.get(t.elem) if type(t) is ListOf else None
    return row is not None and row.bulk is not None


def _fits(xs, row: _Row) -> bool:
    """Whether ``xs`` are payloads the text path writes and reads at
    ``row``: each of exactly its Python type, and all within its bulk rule."""
    return not xs or (set(map(type, xs)) == {row.py_type} and row.bulk(xs))


def _write(x, t: TypeRef) -> str | None:
    """The JSON text of ``x`` at ``t`` where its row takes it: a value of
    exactly the Python type of ``t``'s row, within its rule, or a list or
    tuple of them at a ``readable`` type, written as the readers read it.
    None where the row declines."""
    if type(t) is Prim:
        row = _ROWS.get(t)
        if row is not None and type(x) is row.py_type and row.rule(x):
            return row.head + row.write(x) + "}"
    elif readable(t) and (type(x) is list or type(x) is tuple):
        row = _ROWS[t.elem]
        if _fits(x, row):
            head = row.head
            items = head + ("}," + head).join(map(row.write, x)) + "}" if x else ""
            return _LIST_HEAD + items + "]}"
    return None


def _encode(x, t: TypeRef, marshal: Marshal) -> str:
    """JSON text of ``x`` at ``t`` on the V* path: ``marshal`` answers the
    position whole, and ``_value_obj`` writes its value."""
    return _dumps(_value_obj(marshal(x, t)))


_DECLINED = object()


def _read(obj, row: _Row):
    """The Python value ``materialize`` would make of the parsed JSON value
    ``obj`` at ``row``'s Prim; _DECLINED where ``obj`` is not exactly an
    object of that tag whose payload fits."""
    if type(obj) is dict and len(obj) == row.keys and obj.get("t") == row.tag:
        x = row.read(obj.get("v"))
        if type(x) is row.py_type and row.rule(x):
            return x
    return _DECLINED


def receive(
    objs: list, types, env: TypeEnvironment, path: str, materialize: Callable[[Value], Any]
) -> tuple[list, list]:
    """(values, misfits) of the parsed JSON values at signature positions.

    A position at a Prim whose row takes it is read by the row. One walk
    of ``_parse_value`` parses each other position at ``path.format(i)``
    and checks it against its type, so BadEnvelopeError leaves at the first
    position that does not parse, and a position that does not fit adds
    ``(i, mismatches)`` to misfits, each path relative to the position.
    Only when there are no misfits are the walked values materialized: that
    runs constructors and interns proxies, so it stays a pass of its own.
    """
    values, misfits, walked = [], [], []
    for i, (obj, t) in enumerate(zip(objs, types)):
        if type(t) is Prim and (row := _ROWS.get(t)) is not None:
            x = _read(obj, row)
            if x is not _DECLINED:
                values.append(x)
                continue
        root, out = path.format(i), []
        walked.append(i)
        values.append(_parse_value(obj, root, t, env, out))
        if out:
            misfits.append((i, ["$" + m[len(root) :] for m in out]))
    if not misfits:
        for i in walked:
            values[i] = materialize(values[i])
    return values, misfits


def send_call(method: str, params, args, marshal_at: Callable[[int], Marshal]) -> str:
    """Call envelope text. A row writes each argument it takes, and
    ``marshal_at(i)`` marshals an argument ``i`` that its row declines."""
    texts = [
        _write(a, t) or _encode(a, t, marshal_at(i)) for i, (a, t) in enumerate(zip(args, params))
    ]
    return '{"method":' + encode_basestring(method) + ',"args":[' + ",".join(texts) + "]}"


def send_result(x, t: TypeRef, marshal: Marshal) -> str:
    """Reply envelope text for a result: its row writes it, or ``marshal``
    answers it where the row declines."""
    return '{"result":' + (_write(x, t) or _encode(x, t, marshal)) + "}"


def _read_list(text: str, start: int, end: int, t: ListOf) -> list | None:
    """The payloads of the list whose text runs from ``start`` to the
    closing ``]}`` at ``end``; None where that text is not the canonical
    text of a list of ``t``, or a payload does not fit.

    ``_fits`` decides the payloads, as it does for ``_write``: a JSON
    integer in a list of f64, which ``_write`` never writes, is declined.

    Each separator between elements becomes a comma, and one parse reads
    the payloads as a bare array. Numbers and bools hold no quote, comma or
    bracket, so an array of exactly one more number or bool than there are
    separators proves that each piece was one payload.
    """
    if not text.startswith(_LIST_HEAD, start, end):
        return None
    start += len(_LIST_HEAD)
    if start == end:
        return []
    row = _ROWS[t.elem]
    head = row.head
    if not (text.startswith(head, start, end) and text[end - 1] == "}"):
        return None
    sep = "}," + head
    pieces = text[start + len(head) : end - 1]
    joined = pieces.replace(sep, ",")
    try:
        payloads = _DECODER.decode("[" + joined + "]")
        # each replaced separator left len(sep) - 1 characters fewer
        if len(payloads) == (len(pieces) - len(joined)) // (len(sep) - 1) + 1:
            return payloads if _fits(payloads, row) else None
    except (ValueError, RecursionError):
        pass
    return None


def read_call(body: bytes, sig_of: Callable[[str], Any]) -> tuple[str, Any, list] | None:
    """(method, signature, [argument]) of a call whose one parameter is
    ``readable``, read straight from the body text; ``sig_of(method)`` is
    the signature, with its ``params``, or None. None where the reader
    declines, a body that is not the canonical text included: ``loads``,
    ``call_shape`` and ``receive`` then answer the body on the V* path, so
    only a misfit or malformed list body is parsed twice."""
    if not (body.startswith(b'{"method":"') and body.endswith(b"]}]}")):
        return None
    try:
        text = body.decode("utf-8")
        method, end = scanstring(text, 11)
    except ValueError:  # not UTF-8, or not a JSON string
        return None
    sig = sig_of(method)
    if sig is None or len(sig.params) != 1 or not readable(sig.params[0]):
        return None
    if not text.startswith(',"args":[', end):
        return None
    arg = _read_list(text, end + 9, len(text) - 4, sig.params[0])
    return None if arg is None else (method, sig, [arg])


def read_reply(data: bytes, t: TypeRef) -> list | None:
    """The result of a reply at a ``readable`` type ``t``, read straight
    from the body text. None where the reader declines, a fault or a body
    that is not the canonical text included: ``loads``, ``reply_shape`` and
    ``receive`` then answer the body on the V* path, so only a misfit or
    malformed list reply is parsed twice."""
    if not (readable(t) and data.startswith(b'{"result":') and data.endswith(b"]}}")):
        return None
    try:
        text = data.decode("utf-8")
    except ValueError:
        return None
    return _read_list(text, 10, len(text) - 3, t)
