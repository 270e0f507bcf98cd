"""The wire format: bit-exact envelopes and values.

The wire grammar is a compact self-tagging JSON subset: every value is an
object carrying a "t" tag, a call is {"method", "args"}, and a reply holds
exactly one of "result" or "fault". Encoding is deterministic (equal
inputs yield byte-identical text) and decoding is strict: unknown tags,
missing or extra keys, out-of-range numbers, and non-finite floats all
signal BAD_ENVELOPE.

A value takes one of two paths each way, and one table, ``_SCALAR``,
decides which: a position declared ``readable`` (a list of i64, f64 or
bool) takes the text path, and every other position the V* path.

Outbound, ``_encode`` writes a list or tuple of exact payloads at a
``readable`` type straight to the canonical text. It hands every other
position, whole, to ``marshal``, whose ``values.Value`` ``_value_obj``
writes with the same bytes. ``send_call`` and ``send_result`` join the
texts around the envelope.

Inbound, ``read_call`` and ``read_reply`` read the one argument of a call,
or the result of a reply, declared ``readable``: where the body is the
canonical text ``_encode`` writes, they read the payloads straight from it
with one ``json.loads`` of a bare array, and build no element object.
Anything else they decline, before parsing or after, where a payload does
not fit. Every other position takes the V* path in ``receive``: one walk
of ``_parse_value`` parses it into a ``values.Value`` and checks it
against the declared type, and once every position fits, the caller's
``materialize`` turns each into a Python value. That path answers every
fault. ``type_check`` runs the same walk over a value the caller supplies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable

from .errors import BadEnvelopeError, FaultCode
from .interfaces import check_compat
from .values import (
    I64_MAX,
    I64_MIN,
    NULL,
    SCALAR_CLASS_BY_TAG,
    SCALAR_TAG_BY_CLASS,
    InterfaceType,
    Ior,
    ListOf,
    Prim,
    RecordType,
    TypeEnvironment,
    TypeRef,
    Value,
    VList,
    VNull,
    VRecord,
    VRef,
    typeref_name,
)


@dataclass(frozen=True)
class Fault:
    code: FaultCode
    message: str


@dataclass(frozen=True)
class CallEnvelope:
    method: str
    args: tuple[Value, ...]

    def __init__(self, method: str, args: Iterable[Value] = ()):
        if not method:
            raise ValueError("call method must be non-empty")
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class ReplyEnvelope:
    """Either a result or a fault, never both."""

    result: Value | None = None
    fault: Fault | None = None

    def __post_init__(self):
        if (self.result is None) == (self.fault is None):
            raise ValueError("reply must carry exactly one of result or fault")

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


def _dumps(obj: Any) -> str:
    return _ENCODER.encode(obj)


def _value_obj(v: Value) -> dict:
    tag = SCALAR_TAG_BY_CLASS.get(type(v))
    if tag is not None:
        return {"t": tag, "v": v.value}
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


def loads(text: str) -> Any:
    """The JSON data of a body, as text or UTF-8 bytes; BadEnvelopeError
    where it is not UTF-8 or not JSON."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadEnvelopeError(f"body is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text, parse_constant=_reject_constant)
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
_PRIM_BY_TAG = {prim.value: prim for prim in Prim}


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
    if t is not None and t is not _PRIM_BY_TAG.get(tag) and tag not in _TAGS_AT.get(type(t), ()):
        out.append(f"{path}: expected {typeref_name(t)}, got {tag}")
        t = None
    scalar = SCALAR_CLASS_BY_TAG.get(tag)
    try:
        if scalar is not None:
            _require_keys(obj, {"t", "v"}, f"{tag} value", path)
            return scalar(obj["v"])
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


# The element types of the text path's lists, whose payloads hold no quote,
# comma or bracket (a string can span a separator, so list<str> stays out):
# Prim -> (exact Python type, bulk rule, writer, text before the payload).
# The bulk rule is the value class's check over a non-empty list of values
# of exactly the Python type, all at once; the writer writes what _dumps does.
_SCALAR = {
    prim: (py_type, rule, write, f'{{"t":"{prim.value}","v":')
    for prim, py_type, rule, write in (
        (Prim.BOOL, bool, lambda xs: True, {False: "false", True: "true"}.__getitem__),
        (Prim.I64, int, lambda xs: I64_MIN <= min(xs) and max(xs) <= I64_MAX, int.__repr__),
        (Prim.F64, float, lambda xs: all(map(math.isfinite, xs)), float.__repr__),
    )
}


# The text every list value starts with
_LIST_HEAD = '{"t":"list","v":['


def _fits(xs, row) -> bool:
    return not xs or (set(map(type, xs)) == {row[0]} and row[1](xs))


def _accept(payloads: list, row) -> list | None:
    """Python values of the "v" payloads of a list of ``row``'s scalar;
    None where one does not fit."""
    if row[0] is float and int in set(map(type, payloads)):
        try:  # VFloat takes a JSON integer too
            payloads = [float(v) if type(v) is int else v for v in payloads]
        except OverflowError:
            return None
    return payloads if _fits(payloads, row) else None


def _encode(x, t: TypeRef, marshal: Marshal) -> str:
    """JSON text of ``x`` at ``t``. A list or tuple of payloads of exactly
    the element's Python type, at a ``readable`` type, is written here as
    the text reader reads it; ``marshal`` answers every other position
    whole, and ``_value_obj`` writes its value."""
    if readable(t) and (type(x) is list or type(x) is tuple):
        row = _SCALAR[t.elem]
        if _fits(x, row):
            head = row[3]
            items = head + ("}," + head).join(map(row[2], x)) + "}" if x else ""
            return _LIST_HEAD + items + "]}"
    return _dumps(_value_obj(marshal(x, t)))


def receive(
    objs: list, types, env: TypeEnvironment, path: str, materialize: Callable[[Value], Any]
) -> tuple[list, list]:
    """(values, misfits) of the parsed JSON values at signature positions.

    One walk of ``_parse_value`` parses each position at ``path.format(i)``
    and checks it against its type, so BadEnvelopeError leaves at the first
    position that does not parse, and a position that does not fit adds
    ``(i, mismatches)`` to misfits, each path relative to the position.
    Only when there are no misfits are the values materialized: that runs
    constructors and interns proxies, so it stays a pass of its own.
    """
    values, misfits = [], []
    for i, (obj, t) in enumerate(zip(objs, types)):
        root, out = path.format(i), []
        values.append(_parse_value(obj, root, t, env, out))
        if out:
            misfits.append((i, ["$" + m[len(root) :] for m in out]))
    if not misfits:
        values = [materialize(v) for v in values]
    return values, misfits


def send_call(method: str, params, args, marshal_at: Callable[[int], Marshal]) -> str:
    """Call envelope text; ``marshal_at(i)`` marshals argument ``i``."""
    texts = [_encode(a, t, marshal_at(i)) for i, (a, t) in enumerate(zip(args, params))]
    return '{"method":' + encode_basestring(method) + ',"args":[' + ",".join(texts) + "]}"


def send_result(x, t: TypeRef, marshal: Marshal) -> str:
    """Reply envelope text for a result."""
    return '{"result":' + _encode(x, t, marshal) + "}"


def _read_list(text: str, start: int, end: int, t: ListOf) -> list | None:
    """The payloads of the list whose text runs from ``start`` to the
    closing ``]}`` at ``end``; None where that text is not the canonical
    text of a list of ``t``, or a payload does not fit.

    Each separator between elements becomes a comma, and one ``json.loads``
    parses the payloads as a bare array. Numbers and bools hold no quote,
    comma or bracket, so an array of exactly one more number or bool than
    there are separators proves that each piece was one payload.
    """
    if not text.startswith(_LIST_HEAD, start, end):
        return None
    start += len(_LIST_HEAD)
    if start == end:
        return []
    row = _SCALAR[t.elem]
    head = row[3]
    if not (text.startswith(head, start, end) and text[end - 1] == "}"):
        return None
    sep = "}," + head
    pieces = text[start + len(head) : end - 1]
    joined = pieces.replace(sep, ",")
    try:
        payloads = json.loads("[" + joined + "]", parse_constant=_reject_constant)
        # each replaced separator left len(sep) - 1 characters fewer
        if len(payloads) == (len(pieces) - len(joined)) // (len(sep) - 1) + 1:
            return _accept(payloads, row)
    except (ValueError, RecursionError):
        pass
    return None


def readable(t: TypeRef) -> bool:
    """Whether values of ``t`` take the text path: a list of i64, f64 or
    bool, which ``_encode`` writes and ``read_call`` and ``read_reply``
    read."""
    return type(t) is ListOf and t.elem in _SCALAR


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
