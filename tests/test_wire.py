"""Wire protocol: byte-exact encoding, strict decoding, round-trip identity."""

from __future__ import annotations

import random

import pytest

from refbus import (
    NULL,
    BadEnvelopeError,
    CallEnvelope,
    FaultCode,
    Ior,
    ReplyEnvelope,
    VBool,
    VFloat,
    VInt,
    VList,
    VRecord,
    VRef,
    VStr,
    decode_call,
    decode_reply,
    decode_value,
    encode_call,
    encode_reply,
    encode_value,
    value_equals,
)
from conftest import random_value


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
        '{"t":"ref","v":{"host":"h","port":80,"obj":1}}',
        '{"t":"ref","v":{"host":"h","port":80,"obj":-1,"iface":"I"}}',
        '{"t":"ref","v":{"host":"","port":80,"obj":1,"iface":"I"}}',
        '{"t":"f64","v":1e999}',
        '{"t":"f64","v":' + "9" * 400 + "}",
        '{"t":[1]}',
        '{"t":{"a":1}}',
        '{"t":"ref","v":{"host":5,"port":80,"obj":1,"iface":"I"}}',
        '{"t":"ref","v":{"host":"h","port":true,"obj":1,"iface":"I"}}',
    ],
)
def test_decode_value_rejects_malformed(text):
    with pytest.raises(BadEnvelopeError):
        decode_value(text)


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        '{"method":"m"}',
        '{"method":"","args":[]}',
        '{"method":"m","args":[],"extra":1}',
        '{"method":5,"args":[]}',
        '{"method":"m","args":{}}',
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
    ],
)
def test_decode_reply_rejects_malformed(text):
    with pytest.raises(BadEnvelopeError):
        decode_reply(text)


def test_decode_rejects_invalid_utf8_bytes():
    with pytest.raises(BadEnvelopeError):
        decode_value(b"\xff\xfe{}")


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
        assert value_equals(decode_value(encoded), v)
        # deterministic: re-encoding is byte-identical
        assert encode_value(decode_value(encoded)) == encoded


def test_float_round_trip_is_bit_exact():
    for f in (0.0, -0.0, 1e-308, 5e-324, 1.7976931348623157e308, 0.1, 2.5):
        v = VFloat(f)
        assert value_equals(decode_value(encode_value(v)), v)


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
        assert all(value_equals(x, y) for x, y in zip(decoded.args, call.args))


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
            assert value_equals(decoded.result, reply.result)
