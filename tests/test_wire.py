"""Wire protocol: byte-exact encoding, strict decoding, round-trip identity."""

from __future__ import annotations

import random

import pytest

from refbus import BadEnvelopeError, FaultCode, ListOf, Prim, wire
from refbus.values import (
    NULL,
    Ior,
    VBool,
    VFloat,
    VInt,
    VList,
    VRecord,
    VRef,
    VStr,
)
from refbus.wire import (
    MAX_NESTING,
    CallEnvelope,
    ReplyEnvelope,
    decode_call,
    decode_reply,
    decode_value,
    encode_call,
    encode_reply,
    encode_value,
    read_reply,
)
from conftest import random_value


def _nested_list(depth: int) -> str:
    return '{"t":"list","v":[' * depth + "]}" * depth


# ---------------------------------------------------------------------------
# pinned encodings


def test_encode_int():
    assert encode_value(VInt(36)) == '{"t":"i64","v":36}'


def test_encode_remote_reference():
    ref = VRef(Ior("svc.example.org", 5001, 0, "INamedEntity"))
    assert encode_value(ref) == (
        '{"t":"ref","v":{"host":"svc.example.org","port":5001,"obj":0,'
        '"iface":"INamedEntity"}}'
    )


def test_encode_student_record():
    student = VRecord(
        "Student", [("name", VStr("Bobby Jones")), ("matricNumber", VInt(1234))]
    )
    assert encode_value(student) == (
        '{"t":"rec","type":"Student","v":{"name":{"t":"str","v":"Bobby Jones"},'
        '"matricNumber":{"t":"i64","v":1234}}}'
    )


def test_encode_null_bool_float_str_list():
    assert encode_value(NULL) == '{"t":"null"}'
    assert encode_value(VBool(True)) == '{"t":"bool","v":true}'
    assert encode_value(VFloat(1.5)) == '{"t":"f64","v":1.5}'
    assert encode_value(VFloat(-0.0)) == '{"t":"f64","v":-0.0}'
    assert encode_value(VStr("a")) == '{"t":"str","v":"a"}'
    assert encode_value(VList([VInt(1), VStr("a")])) == (
        '{"t":"list","v":[{"t":"i64","v":1},{"t":"str","v":"a"}]}'
    )


def test_encode_call_get_name():
    assert encode_call(CallEnvelope("getName")) == '{"method":"getName","args":[]}'


def test_the_pure_python_encoder_writes_the_same_text(monkeypatch):
    """Where the C accelerator is missing, ``_dumps`` falls back to
    ``JSONEncoder.encode``, which must write the bytes the C encoder does."""
    rng = random.Random(29)
    values = [random_value(rng, 3) for _ in range(200)] + [VStr("é\u2028\x00\"\\"), VFloat(-0.0)]
    texts = [encode_value(v) for v in values]
    monkeypatch.setattr(wire, "_C_ENCODE", None)
    assert [encode_value(v) for v in values] == texts


def test_encode_fault_reply():
    reply = ReplyEnvelope.fail(FaultCode.UNKNOWN_METHOD, "no such method: foo")
    assert encode_reply(reply) == (
        '{"fault":{"code":"UNKNOWN_METHOD","message":"no such method: foo"}}'
    )


def test_encode_result_reply():
    assert encode_reply(ReplyEnvelope.ok(VStr("Bobby Jones"))) == (
        '{"result":{"t":"str","v":"Bobby Jones"}}'
    )


# ---------------------------------------------------------------------------
# strict decoding


def test_decode_null():
    assert decode_value('{"t":"null"}') == NULL


def test_decode_rejects_port_out_of_range():
    text = '{"t":"ref","v":{"host":"h","port":70000,"obj":1,"iface":"I"}}'
    with pytest.raises(BadEnvelopeError):
        decode_value(text)


def test_decode_call_missing_method():
    with pytest.raises(BadEnvelopeError):
        decode_call('{"args":[]}')


@pytest.mark.parametrize(
    "text",
    [
        "",
        "not json",
        "[]",
        "42",
        '{"t":"i99","v":1}',
        '{"t":"i64"}',
        '{"t":"i64","v":1,"x":2}',
        '{"t":"i64","v":true}',
        '{"t":"i64","v":1.5}',
        '{"t":"i64","v":9223372036854775808}',
        '{"t":"bool","v":1}',
        '{"t":"str","v":5}',
        '{"t":"f64","v":NaN}',
        '{"t":"f64","v":Infinity}',
        '{"t":"list","v":{}}',
        '{"t":"rec","type":"","v":{}}',
        '{"t":"rec","type":"R","v":[]}',
        '{"t":"rec","type":"R","v":{"":{"t":"null"}}}',
        '{"t":"ref","v":{"host":"h","port":80,"obj":1}}',
        '{"t":"ref","v":{"host":"h","port":80,"obj":-1,"iface":"I"}}',
        '{"t":"ref","v":{"host":"","port":80,"obj":1,"iface":"I"}}',
        '{"t":"f64","v":1e999}',
        '{"t":"f64","v":' + "9" * 400 + "}",
        '{"t":[1]}',
        '{"t":{"a":1}}',
        '{"t":"ref","v":{"host":5,"port":80,"obj":1,"iface":"I"}}',
        '{"t":"ref","v":{"host":"h","port":true,"obj":1,"iface":"I"}}',
        pytest.param(_nested_list(300), id="list-nested-300"),
        pytest.param(_nested_list(3000), id="list-nested-3000"),
        pytest.param(r'{"t":"str","v":"\ud800"}', id="str-lone-surrogate"),
    ],
)
def test_decode_value_rejects_malformed(text):
    with pytest.raises(BadEnvelopeError):
        decode_value(text)


def test_read_reply_declines_a_list_reply_that_is_not_utf8():
    """The list reader leaves a body with the list reply's prefix and suffix
    but invalid UTF-8 inside to the parser, which refuses it."""
    data = b'{"result":{"t":"list","v":[{"t":"i64","v":1\xff}]}}'
    assert read_reply(data, ListOf(Prim.I64)) is None
    with pytest.raises(BadEnvelopeError):
        decode_reply(data)


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        '{"method":"m"}',
        '{"method":"","args":[]}',
        '{"method":"m","args":[],"extra":1}',
        '{"method":5,"args":[]}',
        '{"method":"m","args":{}}',
        pytest.param('{"method":"m","args":[' + _nested_list(300) + "]}", id="list-nested-300"),
        pytest.param('{"method":"m","args":[' + _nested_list(3000) + "]}", id="list-nested-3000"),
        pytest.param(r'{"method":"m","args":[{"t":"str","v":"\udc80"}]}', id="str-lone-surrogate"),
    ],
)
def test_decode_call_rejects_malformed(text):
    with pytest.raises(BadEnvelopeError):
        decode_call(text)


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        '{"result":{"t":"null"},"fault":{"code":"INTERNAL","message":""}}',
        '{"fault":{"code":"NOT_A_CODE","message":"x"}}',
        '{"fault":{"code":"INTERNAL"}}',
        '{"fault":{"code":"INTERNAL","message":5}}',
        pytest.param('{"result":' + _nested_list(300) + "}", id="list-nested-300"),
        pytest.param('{"result":' + _nested_list(3000) + "}", id="list-nested-3000"),
        pytest.param(r'{"result":{"t":"str","v":"\ud800"}}', id="str-lone-surrogate"),
    ],
)
def test_decode_reply_rejects_malformed(text):
    with pytest.raises(BadEnvelopeError):
        decode_reply(text)


def test_decode_rejects_invalid_utf8_bytes():
    with pytest.raises(BadEnvelopeError):
        decode_value(b"\xff\xfe{}")


def _under_stack(frames: int, fn):
    """fn() from ``frames`` Python frames deeper than the caller."""
    return fn() if frames == 0 else _under_stack(frames - 1, fn)


def _nested_mixed(depth: int) -> str:
    """Lists and records alternating, ``depth`` levels in all."""
    text = '{"t":"null"}'
    for level in range(depth):
        if level % 2:
            text = '{"t":"rec","type":"R","v":{"f":' + text + "}}"
        else:
            text = '{"t":"list","v":[' + text + "]}"
    return text


def _depth(v) -> int:
    if isinstance(v, VList):
        return 1 + max(map(_depth, v.items), default=0)
    if isinstance(v, VRecord):
        return 1 + max((_depth(value) for _, value in v.fields), default=0)
    return 0


@pytest.mark.parametrize("nested", [_nested_list, _nested_mixed], ids=["lists", "mixed"])
def test_nesting_limit_does_not_depend_on_the_caller_stack(nested):
    """MAX_NESTING levels parse, as a value, argument or result, even under
    a deep caller; one more level is BAD_ENVELOPE at the top level."""
    assert MAX_NESTING == 100
    text = nested(MAX_NESTING)
    value = _under_stack(600, lambda: decode_value(text))
    assert _depth(value) == MAX_NESTING
    call = _under_stack(600, lambda: decode_call('{"method":"m","args":[' + text + "]}"))
    assert _depth(call.args[0]) == MAX_NESTING
    reply = _under_stack(600, lambda: decode_reply('{"result":' + text + "}"))
    assert _depth(reply.result) == MAX_NESTING
    deeper = nested(MAX_NESTING + 1)
    for decode, body in [
        (decode_value, deeper),
        (decode_call, '{"method":"m","args":[' + deeper + "]}"),
        (decode_reply, '{"result":' + deeper + "}"),
    ]:
        with pytest.raises(BadEnvelopeError, match="^value nesting too deep$"):
            decode(body)


def test_reply_envelope_requires_exactly_one_side():
    with pytest.raises(ValueError):
        ReplyEnvelope()
    with pytest.raises(ValueError):
        ReplyEnvelope(result=NULL, fault=ReplyEnvelope.fail(FaultCode.INTERNAL, "x").fault)


# ---------------------------------------------------------------------------
# round trips


def test_value_round_trip_random():
    rng = random.Random(0xBEEF)
    for _ in range(1000):
        v = random_value(rng)
        encoded = encode_value(v)
        assert decode_value(encoded) == v
        # deterministic: re-encoding is byte-identical
        assert encode_value(decode_value(encoded)) == encoded


def test_float_round_trip_is_bit_exact():
    for f in (0.0, -0.0, 1e-308, 5e-324, 1.7976931348623157e308, 0.1, 2.5):
        v = VFloat(f)
        assert decode_value(encode_value(v)) == v


def test_encoding_deterministic_across_equal_values():
    a = VRecord("R", [("x", VList([VInt(1), NULL]))])
    b = VRecord("R", [("x", VList([VInt(1), NULL]))])
    assert encode_value(a) == encode_value(b)


def test_call_round_trip():
    rng = random.Random(41)
    for _ in range(100):
        call = CallEnvelope("doIt", [random_value(rng, 3) for _ in range(rng.randint(0, 3))])
        decoded = decode_call(encode_call(call))
        assert decoded.method == call.method
        assert len(decoded.args) == len(call.args)
        assert all(x == y for x, y in zip(decoded.args, call.args))


def test_reply_round_trip():
    rng = random.Random(42)
    for _ in range(100):
        if rng.random() < 0.5:
            reply = ReplyEnvelope.ok(random_value(rng, 3))
        else:
            reply = ReplyEnvelope.fail(
                rng.choice(list(FaultCode)), "message with unicode ☃"
            )
        decoded = decode_reply(encode_reply(reply))
        if reply.fault is not None:
            assert decoded.fault == reply.fault
        else:
            assert decoded.result == reply.result
