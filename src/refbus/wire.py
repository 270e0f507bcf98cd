"""Bit-exact envelope and value encoding.

The wire grammar is a compact self-tagging JSON subset: every value is an
object carrying a "t" tag, a call is {"method", "args"}, and a reply holds
exactly one of "result" or "fault". Encoding is deterministic (equal
inputs yield byte-identical text) and decoding is strict: unknown tags,
missing or extra keys, out-of-range numbers, and non-finite floats all
signal BAD_ENVELOPE.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

from .errors import BadEnvelopeError, FaultCode
from .values import (
    NULL,
    SCALAR_CLASS_BY_TAG,
    SCALAR_TAG_BY_CLASS,
    Ior,
    Value,
    VList,
    VNull,
    VRecord,
    VRef,
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


def _reject_constant(name: str):
    raise ValueError(f"non-finite number constant: {name}")


def _loads(text: str) -> Any:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadEnvelopeError(f"body is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, TypeError) as exc:
        raise BadEnvelopeError(f"invalid JSON: {exc}") from None


def _require_keys(obj: dict, keys: set[str], what: str, path: str):
    if set(obj.keys()) != keys:
        raise BadEnvelopeError(
            f"{path}: {what} must have exactly keys {sorted(keys)}, got {sorted(obj.keys())}"
        )


def _parse_value(obj: Any, path: str) -> Value:
    """Check the JSON shape here; the value classes check what fits."""
    if not isinstance(obj, dict):
        raise BadEnvelopeError(f"{path}: value must be a tagged object")
    tag = obj.get("t")
    if not isinstance(tag, str):  # a JSON list or object tag is unhashable
        raise BadEnvelopeError(f"{path}: unknown value tag {tag!r}")
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
            return VRef(Ior(ref["host"], ref["port"], ref["obj"], ref["iface"]))
    except ValueError as exc:
        raise BadEnvelopeError(f"{path}: {exc}") from None
    if tag == "null":
        _require_keys(obj, {"t"}, "null value", path)
        return NULL
    if tag == "list":
        _require_keys(obj, {"t", "v"}, "list value", path)
        if not isinstance(obj["v"], list):
            raise BadEnvelopeError(f"{path}: list payload must be an array")
        return VList(
            _parse_value(item, f"{path}[{i}]") for i, item in enumerate(obj["v"])
        )
    if tag == "rec":
        _require_keys(obj, {"t", "type", "v"}, "record value", path)
        type_name = obj["type"]
        if not isinstance(type_name, str) or not type_name:
            raise BadEnvelopeError(f"{path}: record type must be a non-empty string")
        if not isinstance(obj["v"], dict):
            raise BadEnvelopeError(f"{path}: record payload must be an object")
        fields = []
        for name, value in obj["v"].items():
            if not isinstance(name, str) or not name:
                raise BadEnvelopeError(f"{path}: record field names must be non-empty")
            fields.append((name, _parse_value(value, f"{path}.{name}")))
        return VRecord(type_name, fields)
    raise BadEnvelopeError(f"{path}: unknown value tag {tag!r}")


def _walk(parse, *args):
    """parse(*args), where nesting too deep for json.loads or the recursive
    walkers is a malformed envelope, not an internal error."""
    try:
        return parse(*args)
    except RecursionError:
        raise BadEnvelopeError("value nesting too deep") from None


def _decode(text: str, parse):
    """Parse JSON text, then its object with ``parse``."""
    return _walk(lambda: parse(_loads(text)))


def decode_value(text: str) -> Value:
    return _decode(text, lambda obj: _parse_value(obj, "$"))


def decode_call(text: str) -> CallEnvelope:
    return _decode(text, _parse_call)


def decode_reply(text: str) -> ReplyEnvelope:
    return _decode(text, _parse_reply)


def _call_shape(obj: Any) -> tuple[str, list]:
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


def _parse_args(args: list) -> list[Value]:
    return [_parse_value(a, f"$.args[{i}]") for i, a in enumerate(args)]


def _parse_call(obj: Any) -> CallEnvelope:
    method, args = _call_shape(obj)
    return CallEnvelope(method, _parse_args(args))


def _reply_shape(obj: Any) -> tuple[Any, Fault | None]:
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


def _parse_reply(obj: Any) -> ReplyEnvelope:
    result, fault = _reply_shape(obj)
    if fault is not None:
        return ReplyEnvelope(fault=fault)
    return ReplyEnvelope.ok(_parse_value(result, "$.result"))
