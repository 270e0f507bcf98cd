"""The text path against the V* path it stands in for.

The V* path is the oracle: inbound, one walk of wire._parse_value parses
and checks each position, and materialize then acts; outbound,
Node.marshal_outbound and wire._value_obj. For seeded random types,
well-typed values and mutated ones, both paths must give equal results,
byte-identical text and the same faults with the same messages.
Well-typed values of a ``readable`` type must be written by the text
path, so a silent fallback cannot hide a slow codec. The scalar rows of
``wire._ROWS`` are held to the V* path the same way. Every other position
takes the V* path both ways, so the pinned tables here, not the
comparison, hold its bytes and faults in place.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import random
import re
import struct
from collections import Counter

import pytest

import refbus.client
from refbus import (
    BY_REFERENCE,
    BY_VALUE,
    BadEnvelopeError,
    CallOverride,
    ClassDescriptor,
    ComponentHandle,
    FaultCode,
    InterfaceDescriptor,
    InterfaceType,
    InternalFaultError,
    ListOf,
    MethodSig,
    Prim,
    RecordType,
    TypeMismatchError,
)
from refbus import wire as codec  # the typed path lives in refbus.wire
from refbus.policy import RETURN, ParamPos
from refbus.scenarios import IPERSON, PERSON_CLASS, Person
from refbus.values import (
    I64_MAX,
    I64_MIN,
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
from refbus.wire import CallEnvelope, ReplyEnvelope, decode_reply, encode_call, encode_reply, to_value

PT = RecordType("Pt")
IPERSON_T = InterfaceType("IPerson")
LEAF_TYPES = [Prim.NULL, Prim.BOOL, Prim.I64, Prim.F64, Prim.STR, PT, IPERSON_T]


class Level(enum.IntEnum):
    LOW = 1


class Taker:
    def __init__(self):
        self.received = []

    def take(self, x):
        self.received.append(x)
        return x


def _nested_list(depth: int) -> dict:
    return json.loads('{"t":"list","v":[' * depth + "]}" * depth)


def rand_type(rng: random.Random, depth: int = 3):
    if depth and rng.random() < 0.45:
        return ListOf(rand_type(rng, depth - 1))
    return rng.choice(LEAF_TYPES)


# Values that do not fit a position of each kind, or fit only through the
# V* path (an IntEnum, a V* value).
def _bad_python(t):
    if t is Prim.I64:
        return [True, 1.5, 2**63, I64_MIN - 1, Level.LOW, VInt(3), "7", None]
    if t is Prim.F64:
        return [7, math.nan, -math.inf, True, VFloat(2.5), None]
    if t is Prim.STR:
        return ["\ud800", "a\udc80b", b"x", 5, VStr("v"), None]
    if t is Prim.BOOL:
        return [1, VBool(True), None]
    if t is Prim.NULL:
        return [0, "", []]
    if isinstance(t, ListOf):
        return [{"a": 1}, "ab", None, 5, VList([VInt(1)])]
    return [5, "x", [1]]


def rand_python(rng, t, people, bad: float = 0.0):
    """A Python value for ``t``; each position is replaced by a misfit with
    probability ``bad``."""
    if bad and rng.random() < bad:
        return rng.choice(_bad_python(t))
    if t is Prim.NULL:
        return None
    if t is Prim.BOOL:
        return rng.random() < 0.5
    if t is Prim.I64:
        return rng.choice([I64_MIN, I64_MAX, 0, -1, rng.randint(I64_MIN, I64_MAX)])
    if t is Prim.F64:
        return rng.choice([0.0, -0.0, 5e-324, 1.7976931348623157e308, rng.uniform(-1e9, 1e9)])
    if t is Prim.STR:
        return "".join(rng.choice('ab é☃💡"\\\n') for _ in range(rng.randint(0, 6)))
    if isinstance(t, ListOf):
        items = [rand_python(rng, t.elem, people, bad) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    if t == PT:
        point = VRecord("Pt", [("x", VInt(rng.randint(-9, 9))), ("label", VStr("p"))])
        return rng.choice([None, point])
    return rng.choice([None, *people])


def _tagged_slots(holder, key, out):
    """(holder, key) of every tagged value inside holder[key], itself included."""
    out.append((holder, key))
    obj = holder[key]
    payload = obj.get("v") if isinstance(obj, dict) else None
    if isinstance(payload, list):
        for i in range(len(payload)):
            _tagged_slots(payload, i, out)
    elif isinstance(obj, dict) and obj.get("t") == "rec" and isinstance(payload, dict):
        for name in payload:
            _tagged_slots(payload, name, out)


def _without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


_TAGS = ["i64", "f64", "str", "bool", "null", "list", "rec", "ref", "i32"]
_JSON_MUTANTS = [
    lambda rng, o: {**o, "t": rng.choice(_TAGS)},
    lambda rng, o: {**o, "x": 1},
    lambda rng, o: _without(o, rng.choice(["t", "v"])),
    lambda rng, o: {"t": "i64", "v": True},
    lambda rng, o: {"t": "i64", "v": 1.5},
    lambda rng, o: {"t": "f64", "v": 7},
    lambda rng, o: {"t": "f64", "v": int("9" * 400)},
    lambda rng, o: {"t": "i64", "v": 2**63},
    lambda rng, o: {"t": "i64", "v": I64_MIN - 1},
    lambda rng, o: {"t": "str", "v": "\ud800"},
    lambda rng, o: _nested_list(300),
]


def mutate_json(rng, obj):
    box = [json.loads(json.dumps(obj))]
    slots = []
    _tagged_slots(box, 0, slots)
    holder, key = rng.choice(slots)
    holder[key] = rng.choice(_JSON_MUTANTS)(rng, holder[key])
    return box[0]


def same(a, b) -> bool:
    """Equal by ==, by type at every level, and bit-exactly for floats;
    components and proxies have no __eq__, so == is identity for them."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def outcome(fn):
    try:
        result = fn()
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", result)


def _refuse(value, declared):
    raise AssertionError(f"compiled encoder handed {value!r} at {declared} to the V* path")


def _value_path_only(m):
    """Patch the text path out, so that every list position takes the V*
    path: ``_write`` declines it, and the text readers decline."""
    m.setattr(codec, "readable", lambda t: False)


@pytest.fixture
def world(make_node):
    node = make_node(demo=False)
    node.register_interface(IPERSON)
    # by-value Person copies stay records, so an echo of one is deterministic
    node.register_class(Person, PERSON_CLASS, constructor=False)
    node.register_record("Pt", [("x", Prim.I64), ("label", Prim.STR)])
    locals_ = [Person("Ann", 30), Person("Bo", 41)]
    foreign = node.proxy_for_ior(Ior("127.0.0.1", 1, 7, "IPerson"))
    return node, locals_, foreign


def test_compiled_codec_matches_the_value_path(world, monkeypatch):
    node, local_people, foreign = world
    rng = random.Random(20240607)
    seen = Counter()

    def serve(path, body: bytes, taker, fast: bool):
        taker.received.clear()
        with monkeypatch.context() as m:
            if not fast:
                _value_path_only(m)
            _, text = node.handle_request("POST", path, "", body)
        return text, list(taker.received)

    def ask(proxy, arg, reply: bytes, fast: bool):
        with monkeypatch.context() as m:
            m.setattr(refbus.client, "post_call", lambda *args: reply)
            if not fast:
                _value_path_only(m)
            return outcome(lambda: proxy.invoke("take", [arg]))

    for n in range(160):
        t = rand_type(rng)
        iface = InterfaceDescriptor(f"ITake{n}", [MethodSig("take", (t,), t)])
        node.register_interface(iface)
        node.policies.set_method_policy(iface.name, "take", BY_REFERENCE)
        taker = Taker()
        handle = ComponentHandle(taker, ClassDescriptor(f"Taker{n}", methods=iface.methods))
        node.deploy(iface, handle, f"take{n}")
        path = f"/take{n}"
        proxy = node.proxy_for_ior(node.deploy_anonymous(iface, handle))
        policy = rng.choice([BY_VALUE, BY_REFERENCE])
        # the override governs the arguments, the stored policy the result
        node.policies.set_return_policy(iface.name, "take", policy)
        people = local_people + ([foreign] if policy is BY_REFERENCE else [])

        def marshal_at(position):
            return functools.partial(
                node.marshal_outbound, iface_name=iface.name, method_name="take",
                position=position, override=CallOverride(whole_call=policy),
            )

        # encoders: send_result and send_call against marshal, then encode
        for bad in (0.0, 0.3, 0.3):
            x = rand_python(rng, t, people, bad)
            marshal = marshal_at(RETURN)
            fast = outcome(lambda: codec.send_result(x, t, marshal))
            oracle = outcome(lambda: encode_reply(ReplyEnvelope.ok(marshal(x, t))))
            assert fast == oracle, (t, x)
            fast = outcome(
                lambda: codec.send_call("take", (t,), [x], lambda i: marshal_at(ParamPos(i)))
            )
            oracle = outcome(
                lambda: encode_call(CallEnvelope("take", [marshal_at(ParamPos(0))(x, t)]))
            )
            assert fast == oracle, (t, x)
            seen["encode " + fast[0]] += 1
            if codec.readable(t) and not bad:
                codec.send_result(x, t, _refuse)

        # decoders: well-typed JSON from the V* encoder, then mutants of it
        x = rand_python(rng, t, people)
        arg = json.loads(encode_reply(ReplyEnvelope.ok(marshal_at(ParamPos(0))(x, t))))["result"]
        cases = [("well-typed", arg)] + [("mutant", mutate_json(rng, arg)) for _ in range(3)]
        for kind, obj in cases:
            body = json.dumps({"method": "take", "args": [obj]}).encode("utf-8")
            fast_text, fast_got = serve(path, body, taker, fast=True)
            oracle_text, oracle_got = serve(path, body, taker, fast=False)
            assert fast_text == oracle_text, (t, obj)
            assert len(fast_got) == len(oracle_got), (t, obj)
            assert all(map(same, fast_got, oracle_got)), (t, obj)
            reply = json.dumps({"result": obj}).encode("utf-8")
            fast = ask(proxy, x, reply, fast=True)
            oracle = ask(proxy, x, reply, fast=False)
            assert fast[:1] == oracle[:1] and (
                same(fast[1], oracle[1]) if fast[0] == "ok" else fast == oracle
            ), (t, obj)
            seen[f"{kind} {'ok' if fast_got else 'fault'}"] += 1

    # both outcomes occur often enough for the comparison to mean something
    assert seen["well-typed ok"] == 160
    assert seen["mutant fault"] > 300 and seen["mutant ok"] > 5
    assert seen["encode raised"] > 80 and seen["encode ok"] > 200


_PT_VALUE = VRecord("Pt", [("x", VInt(1)), ("label", VStr("a"))])
_PT_TEXT = '{"t":"rec","type":"Pt","v":{"x":{"t":"i64","v":1},"label":{"t":"str","v":"a"}}}'
# (value, declared type, outcome) of one outbound position: the exact value
# text inside the call and reply envelopes, or the error class and its text.
_OUTBOUND = [
    (I64_MIN, Prim.I64, '{"t":"i64","v":-9223372036854775808}'),
    (I64_MAX, Prim.I64, '{"t":"i64","v":9223372036854775807}'),
    (0, Prim.I64, '{"t":"i64","v":0}'),
    (-1, Prim.I64, '{"t":"i64","v":-1}'),
    (2**63, Prim.I64, (TypeMismatchError, "VInt out of 64-bit signed range: 9223372036854775808")),
    (-0.0, Prim.F64, '{"t":"f64","v":-0.0}'),
    (5e-324, Prim.F64, '{"t":"f64","v":5e-324}'),
    (1e16, Prim.F64, '{"t":"f64","v":1e+16}'),
    (1e22, Prim.F64, '{"t":"f64","v":1e+22}'),
    (3.0, Prim.F64, '{"t":"f64","v":3.0}'),
    (0.1, Prim.F64, '{"t":"f64","v":0.1}'),
    (1.7976931348623157e308, Prim.F64, '{"t":"f64","v":1.7976931348623157e+308}'),
    (math.nan, Prim.F64, (TypeMismatchError, "VFloat must be finite (no NaN or infinity)")),
    (False, Prim.BOOL, '{"t":"bool","v":false}'),
    (True, Prim.BOOL, '{"t":"bool","v":true}'),
    ("é", Prim.STR, '{"t":"str","v":"é"}'),
    (" ", Prim.STR, '{"t":"str","v":" "}'),
    ("", Prim.STR, '{"t":"str","v":""}'),
    ('"', Prim.STR, r'{"t":"str","v":"\""}'),
    ("\\", Prim.STR, r'{"t":"str","v":"\\"}'),
    ("/", Prim.STR, '{"t":"str","v":"/"}'),
    ("\x00\x1f\x7f", Prim.STR, r'{"t":"str","v":"\u0000\u001f' + '\x7f"}'),
    ("\u2028💡", Prim.STR, '{"t":"str","v":"\u2028💡"}'),
    (
        "\ud800", Prim.STR,
        (TypeMismatchError, "VStr must be valid Unicode text (no lone surrogates)"),
    ),
    (None, Prim.NULL, '{"t":"null"}'),
    (None, Prim.STR, (TypeMismatchError, "None does not fit str")),
    (1, Prim.STR, (TypeMismatchError, "int does not fit str")),
    ([1], Prim.I64, (TypeMismatchError, "list does not fit i64")),
    (Level.LOW, Prim.I64, '{"t":"i64","v":1}'),
    (
        ["a", "é", '"'], ListOf(Prim.STR),
        r'{"t":"list","v":[{"t":"str","v":"a"},{"t":"str","v":"é"},{"t":"str","v":"\""}]}',
    ),
    ((), ListOf(Prim.STR), '{"t":"list","v":[]}'),
    (
        [[1], []], ListOf(ListOf(Prim.I64)),
        '{"t":"list","v":[{"t":"list","v":[{"t":"i64","v":1}]},{"t":"list","v":[]}]}',
    ),
    (
        [["a", "é"], []], ListOf(ListOf(Prim.STR)),
        '{"t":"list","v":[{"t":"list","v":[{"t":"str","v":"a"},{"t":"str","v":"é"}]},'
        '{"t":"list","v":[]}]}',
    ),
    ([_PT_VALUE, None], ListOf(PT), '{"t":"list","v":[' + _PT_TEXT + ',{"t":"null"}]}'),
]


def test_outbound_positions_keep_their_texts_and_errors(world):
    """send_call and send_result write each value with the pinned text, or
    raise the pinned error, whichever path writes the position."""
    node, _, _ = world

    def marshal_at(position):
        return functools.partial(
            node.marshal_outbound, iface_name="IPerson", method_name="take", position=position
        )

    for x, t, expected in _OUTBOUND:
        call = outcome(
            lambda: codec.send_call("take", (t,), [x], lambda i: marshal_at(ParamPos(i)))
        )
        reply = outcome(lambda: codec.send_result(x, t, marshal_at(RETURN)))
        if isinstance(expected, str):
            assert call == ("ok", '{"method":"take","args":[' + expected + "]}"), (x, t)
            assert reply == ("ok", '{"result":' + expected + "}"), (x, t)
        else:
            assert call == reply == ("raised", *expected), (x, t)


# Lists of scalars whose JSON text is easy to get wrong, by element type
_EDGE_SCALARS = {
    Prim.F64: [-0.0, 5e-324, 1e16, 1e22, 3.0, 0.1, 1.7976931348623157e308],
    Prim.I64: [I64_MIN, I64_MAX, 0, -1],
    Prim.BOOL: [True, False],
}
_EDGE_CASES = [(xs, ListOf(t)) for t, xs in _EDGE_SCALARS.items()] + [
    (x, ListOf(t)) for t in _EDGE_SCALARS for x in ([], ())
]


def _v_star(x, t):
    return to_value(x, t, _refuse)


def _texts(method: str, x, t, marshal) -> tuple[str, str]:
    """The reply and call texts of ``x`` at ``t`` on the typed path."""
    return (
        codec.send_result(x, t, marshal),
        codec.send_call(method, (t,), [x], lambda i: marshal),
    )


def _oracle_texts(method: str, x, t, marshal) -> tuple[str, str]:
    """The same texts on the V* path."""
    v = marshal(x, t)
    return encode_reply(ReplyEnvelope.ok(v)), encode_call(CallEnvelope(method, [v]))


def test_edge_scalars_write_the_value_path_bytes():
    method = 'tåke"\\'  # the method name is escaped as the V* path escapes it
    for x, t in _EDGE_CASES:
        assert _texts(method, x, t, _refuse) == _oracle_texts(method, x, t, _v_star), (x, t)


def test_a_scalar_subclass_falls_back_to_the_value_path():
    """repr(Level.LOW) is not 1: only the V* path may write an IntEnum, so
    a list holding one is marshalled whole, once per text."""
    marshalled = []

    def marshal(x, t):
        marshalled.append(x)
        return _v_star(x, t)

    x, t = [1, Level.LOW], ListOf(Prim.I64)
    texts = _texts("take", x, t, marshal)
    assert marshalled == [x, x]
    assert texts == _oracle_texts("take", x, t, _v_star)


def test_lists_of_references_and_records_write_the_value_path_bytes(world):
    """send_call and send_result hand a list<IPerson> or list<Pt> to
    marshal whole, and write the bytes of the V* path. Local components
    deploy by reference in element order, and a misfit at element k raises
    the V* path's error after exactly k deploys."""
    node, _, foreign = world
    node.policies.set_return_policy("IPerson", "take", BY_REFERENCE)
    by_reference = functools.partial(
        node.marshal_outbound, iface_name="IPerson", method_name="take", position=RETURN
    )
    marshalled_at = set()

    def marshal(x, t):
        marshalled_at.add(t)
        return by_reference(x, t)

    people_t, points_t = ListOf(IPERSON_T), ListOf(PT)

    def deploys(send):
        """(outcome of send(), instances it deployed, in order)."""
        before = len(node.table.deployments())
        result = outcome(send)
        return result, [d.component.instance for d in node.table.deployments()[before:]]

    for frame in (list, tuple):
        ann, bo, cy = Person("Ann", 30), Person("Bo", 41), Person("Cy", 7)
        x = frame([ann, None, bo, foreign, cy])
        marshalled_at.clear()
        typed, deployed = deploys(lambda: _texts("take", x, people_t, marshal))
        assert deployed == [ann, bo, cy]
        assert marshalled_at == {people_t}  # the whole list, never an element
        assert typed == ("ok", _oracle_texts("take", x, people_t, marshal))
    points = [VRecord("Pt", [("x", VInt(1)), ("label", VStr("a"))]), None]
    marshalled_at.clear()
    typed = _texts("take", points, points_t, marshal)
    assert marshalled_at == {points_t}
    assert typed == _oracle_texts("take", points, points_t, marshal)

    def misfit_at(k, misfit):
        """A list of fresh Persons with ``misfit`` at element k."""
        return [Person(f"p{i}", i) for i in range(k)] + [misfit, Person("after", 1)]

    encoders = [
        lambda x, t: codec.send_result(x, t, marshal),
        lambda x, t: codec.send_call("take", (t,), [x], lambda i: marshal),
    ]
    oracles = [
        lambda x, t: encode_reply(ReplyEnvelope.ok(marshal(x, t))),
        lambda x, t: encode_call(CallEnvelope("take", [marshal(x, t)])),
    ]
    for k, misfit in [(0, "x"), (2, 5), (3, Level.LOW), (1, VStr("v"))]:
        for encode, oracle in zip(encoders, oracles):
            x, y = misfit_at(k, misfit), misfit_at(k, misfit)
            typed, deployed = deploys(lambda: encode(x, people_t))
            assert typed[:2] == ("raised", TypeMismatchError), (k, misfit)
            assert deployed == x[:k]
            assert deploys(lambda: oracle(y, people_t)) == (typed, y[:k])
    for misfit in [5, VRecord("Other", []), VRecord("Pt", [("x", VInt(1))]), foreign]:
        x = [points[0], misfit]
        for encode, oracle in zip(encoders, oracles):
            typed = outcome(lambda: encode(x, points_t))
            assert typed[:2] == ("raised", TypeMismatchError), misfit
            assert typed == outcome(lambda: oracle(x, points_t))


class Pair:
    def take(self, numbers, name):
        return numbers


def _fault(code: str, message: str) -> str:
    return json.dumps({"fault": {"code": code, "message": message}}, separators=(",", ":"))


_NUMBERS, _NAME = '{"t":"list","v":[{"t":"i64","v":1}]}', '{"t":"str","v":"n"}'
_KEYS = "$: call must have exactly keys ['args', 'method'], got "
# (body, reply text), the replies as the whole-body V* path gave them
_ENVELOPE_REPLIES = [
    ("", _fault("BAD_ENVELOPE", "invalid JSON: Expecting value: line 1 column 1 (char 0)")),
    ("[]", _fault("BAD_ENVELOPE", "call must be an object")),
    ("{}", _fault("BAD_ENVELOPE", _KEYS + "[]")),
    ('{"method":"take"}', _fault("BAD_ENVELOPE", _KEYS + "['method']")),
    ('{"method":"take","args":{}}', _fault("BAD_ENVELOPE", "call args must be an array")),
    (
        '{"method":"take","args":[' + _NUMBERS + "," + _NAME + '],"x":1}',
        _fault("BAD_ENVELOPE", _KEYS + "['args', 'method', 'x']"),
    ),
    (
        '{"method":["take"],"args":[' + _NUMBERS + "," + _NAME + "]}",
        _fault("BAD_ENVELOPE", "call method must be a non-empty string"),
    ),
    ('{"method":"nope","args":[]}', _fault("UNKNOWN_METHOD", "no such method: nope")),
    (
        '{"method":"take","args":[' + _NUMBERS + "]}",
        _fault("TYPE_MISMATCH", "take takes 2 args, got 1"),
    ),
    (
        '{"method":"take","args":[' + _NAME + "," + _NAME + "]}",
        _fault("TYPE_MISMATCH", "arg 0 $: expected list<i64>, got str"),
    ),
    (
        '{"method":"take","args":[' + _NAME + r',{"t":"str","v":"\ud800"}]}',
        _fault("BAD_ENVELOPE", "$.args[1]: VStr must be valid Unicode text (no lone surrogates)"),
    ),
    (
        '{"method":"take","args":[' + _NAME + ',{"t":"str","v":"n","x":1}]}',
        _fault(
            "BAD_ENVELOPE",
            "$.args[1]: str value must have exactly keys ['t', 'v'], got ['t', 'v', 'x']",
        ),
    ),
    (
        '{"method":"take","args":[' + _NAME + "," + _NUMBERS + "]}",
        _fault(
            "TYPE_MISMATCH",
            "arg 0 $: expected list<i64>, got str; arg 1 $: expected str, got list",
        ),
    ),
    (
        '{"method":"take","args":[{"t":"list","v":5},' + _NAME + "]}",
        _fault("BAD_ENVELOPE", "$.args[0]: list payload must be an array"),
    ),
    ('{"method":"__snapshot","args":[]}', '{"result":{"t":"rec","type":"Pair","v":{}}}'),
    (
        '{"method":"__resolve","args":[1]}',
        _fault("BAD_ENVELOPE", "$.args[0]: value must be a tagged object"),
    ),
]


def test_envelope_faults_match_the_value_path(world, monkeypatch):
    """Envelope and argument faults keep their texts, BAD_ENVELOPE in a
    later argument beating TYPE_MISMATCH in an earlier one. The texts are
    pinned, since the typed and V* paths share the envelope code."""
    node, _, _ = world
    _pair_proxy(node)
    for body, reply in _ENVELOPE_REPLIES:
        assert node.handle_request("POST", "/pair", "", body.encode()) == (200, reply), body
        with monkeypatch.context() as m:
            _value_path_only(m)
            assert node.handle_request("POST", "/pair", "", body.encode()) == (200, reply), body


# (reply, outcome of take([1], "n") on IPair), as the whole-reply V* path gave them
_REPLY_OUTCOMES = [
    ('{"result":' + _NUMBERS + "}", ("ok", [1])),
    (
        '{"result":{"t":"list","v":[{"t":"str","v":"a"},{"t":"str","v":"b"}]}}',
        (
            "raised", TypeMismatchError,
            "result: $[0]: expected i64, got str; $[1]: expected i64, got str",
        ),
    ),
    (
        '{"result":{"t":"list","v":[{"t":"i64"}]}}',
        (
            "raised", BadEnvelopeError,
            "$.result[0]: i64 value must have exactly keys ['t', 'v'], got ['t']",
        ),
    ),
    ('{"fault":{"code":"INTERNAL","message":"m"}}', ("raised", InternalFaultError, "m")),
    (
        '{"fault":{"code":"NOPE","message":"m"}}',
        ("raised", BadEnvelopeError, "unknown fault code 'NOPE'"),
    ),
    (
        '{"result":1,"fault":1}',
        ("raised", BadEnvelopeError, "reply must carry exactly one of result or fault"),
    ),
    ("[]", ("raised", BadEnvelopeError, "reply must be an object")),
]


def _pair_proxy(node):
    sig = MethodSig("take", (ListOf(Prim.I64), Prim.STR), ListOf(Prim.I64))
    iface = InterfaceDescriptor("IPair", [sig])
    node.register_interface(iface)
    handle = ComponentHandle(Pair(), ClassDescriptor("Pair", methods=[sig]))
    node.deploy(iface, handle, "pair")
    return node.proxy_for_ior(node.deploy_anonymous(iface, handle))


def test_reply_outcomes_keep_their_texts(world, monkeypatch):
    """Results and faults keep their outcomes and texts, pinned, since the
    typed and V* paths share the reply code."""
    node, _, _ = world
    proxy = _pair_proxy(node)
    for reply, expected in _REPLY_OUTCOMES:
        monkeypatch.setattr(refbus.client, "post_call", lambda *args: reply.encode())
        assert outcome(lambda: proxy.take([1], "n")) == expected, reply


def _deploy_taker(node, name, params, returns):
    iface = InterfaceDescriptor(f"I{name}", [MethodSig("take", params, returns)])
    node.register_interface(iface)
    handle = ComponentHandle(Taker(), ClassDescriptor(f"{name}Taker", methods=iface.methods))
    node.deploy(iface, handle, name)
    return handle.instance, node.proxy_for_ior(node.deploy_anonymous(iface, handle))


# (type, value text, outcome) of a scalar or null as the one argument and as
# the result. An accepted value's outcome is (the Python value the component
# and the caller get, the text the node echoes it as); a refused one's is
# (error class, its text after the position's path).
_SCALAR_INBOUND = [
    (Prim.I64, '{"t":"i64","v":7}', (7, '{"t":"i64","v":7}')),
    (Prim.I64, '{"t":"i64","v":true}', (BadEnvelopeError, "VInt requires an int, got bool")),
    (
        Prim.I64, '{"t":"i64","v":9223372036854775808}',
        (BadEnvelopeError, "VInt out of 64-bit signed range: 9223372036854775808"),
    ),
    (
        Prim.I64, '{"t":"i64"}',
        (BadEnvelopeError, "i64 value must have exactly keys ['t', 'v'], got ['t']"),
    ),
    (
        Prim.I64, '{"t":"i64","v":7,"x":1}',
        (BadEnvelopeError, "i64 value must have exactly keys ['t', 'v'], got ['t', 'v', 'x']"),
    ),
    (Prim.I64, '{"t":"str","v":"7"}', (TypeMismatchError, "expected i64, got str")),
    (Prim.I64, '{"t":"null"}', (TypeMismatchError, "expected i64, got null")),
    (Prim.F64, '{"t":"f64","v":2.5}', (2.5, '{"t":"f64","v":2.5}')),
    (Prim.F64, '{"t":"f64","v":3}', (3.0, '{"t":"f64","v":3.0}')),
    (
        Prim.F64, '{"t":"f64","v":1e400}',
        (BadEnvelopeError, "VFloat must be finite (no NaN or infinity)"),
    ),
    (
        Prim.F64, '{"t":"f64"}',
        (BadEnvelopeError, "f64 value must have exactly keys ['t', 'v'], got ['t']"),
    ),
    (
        Prim.F64, '{"t":"f64","v":2.5,"x":1}',
        (BadEnvelopeError, "f64 value must have exactly keys ['t', 'v'], got ['t', 'v', 'x']"),
    ),
    (Prim.F64, '{"t":"i64","v":3}', (TypeMismatchError, "expected f64, got i64")),
    (Prim.F64, '{"t":"null"}', (TypeMismatchError, "expected f64, got null")),
    (Prim.BOOL, '{"t":"bool","v":true}', (True, '{"t":"bool","v":true}')),
    (
        Prim.BOOL, '{"t":"bool"}',
        (BadEnvelopeError, "bool value must have exactly keys ['t', 'v'], got ['t']"),
    ),
    (
        Prim.BOOL, '{"t":"bool","v":true,"x":1}',
        (BadEnvelopeError, "bool value must have exactly keys ['t', 'v'], got ['t', 'v', 'x']"),
    ),
    (Prim.BOOL, '{"t":"i64","v":1}', (TypeMismatchError, "expected bool, got i64")),
    (Prim.BOOL, '{"t":"null"}', (TypeMismatchError, "expected bool, got null")),
    (Prim.STR, '{"t":"str","v":"é"}', ("é", '{"t":"str","v":"é"}')),
    (
        Prim.STR, r'{"t":"str","v":"\ud800"}',
        (BadEnvelopeError, "VStr must be valid Unicode text (no lone surrogates)"),
    ),
    (
        Prim.STR, '{"t":"str"}',
        (BadEnvelopeError, "str value must have exactly keys ['t', 'v'], got ['t']"),
    ),
    (
        Prim.STR, '{"t":"str","v":"a","x":1}',
        (BadEnvelopeError, "str value must have exactly keys ['t', 'v'], got ['t', 'v', 'x']"),
    ),
    (Prim.STR, '{"t":"bool","v":false}', (TypeMismatchError, "expected str, got bool")),
    (Prim.STR, '{"t":"null"}', (TypeMismatchError, "expected str, got null")),
    (Prim.NULL, '{"t":"null"}', (None, '{"t":"null"}')),
    (
        Prim.NULL, '{"t":"null","v":null}',
        (BadEnvelopeError, "null value must have exactly keys ['t'], got ['t', 'v']"),
    ),
    (Prim.NULL, '{"t":"bool","v":false}', (TypeMismatchError, "expected null, got bool")),
]


def test_scalar_arguments_and_results_keep_their_outcomes(world, monkeypatch):
    """For each scalar or null as the one argument and as the result: the
    node's exact reply, the Python value the component gets, type and bits
    included, and the caller's exact result or error. A refused value
    reaches no component."""
    node, _, _ = world
    sent = {Prim.I64: 7, Prim.F64: 2.5, Prim.BOOL: True, Prim.STR: "é", Prim.NULL: None}
    takers = {t: _deploy_taker(node, f"scalar_{t.value}", (t,), t) for t in sent}
    for t, value, (expected, detail) in _SCALAR_INBOUND:
        taker, proxy = takers[t]
        taker.received.clear()
        body = '{"method":"take","args":[' + value + "]}"
        _, text = node.handle_request("POST", f"/scalar_{t.value}", "", body.encode())
        reply = ('{"result":' + value + "}").encode()
        monkeypatch.setattr(refbus.client, "post_call", lambda *args: reply)
        got = outcome(lambda: proxy.take(sent[t]))
        if expected is BadEnvelopeError:
            assert text == _fault("BAD_ENVELOPE", "$.args[0]: " + detail), value
            assert got == ("raised", expected, "$.result: " + detail), value
        elif expected is TypeMismatchError:
            assert text == _fault("TYPE_MISMATCH", "arg 0 $: " + detail), value
            assert got == ("raised", expected, "result: $: " + detail), value
        else:
            assert text == '{"result":' + detail + "}", value
            assert got[0] == "ok" and same(got[1], expected), value
        received = [] if isinstance(expected, type) else [expected]
        assert len(taker.received) == len(received), value
        assert all(map(same, taker.received, received)), value


def _rec(type_name: str, fields: str) -> str:
    return '{"t":"rec","type":"%s","v":{%s}}' % (type_name, fields)


def _ref(iface: str) -> str:
    return '{"t":"ref","v":{"host":"127.0.0.1","port":1,"obj":7,"iface":"%s"}}' % iface


_LISTS = ListOf(ListOf(Prim.I64))
_X1, _LABEL = '"x":{"t":"i64","v":1}', '"label":{"t":"str","v":"a"}'
_ANN, _AGE = '"name":{"t":"str","v":"Ann"}', '"age":{"t":"i64","v":30}'
_NO_V = "i64 value must have exactly keys ['t', 'v'], got ['t']"
_LIST_1 = '{"t":"list","v":[{"t":"i64","v":1}]}'
# (type, value text, outcome) of a record, reference or nested list as the
# one argument and as the result. An accepted value's outcome is (the
# Python value the component and the caller get, the text the node echoes
# it as). A misfit's is (TypeMismatchError, its mismatches, each with its
# path in the value), and a malformed value's (BadEnvelopeError, its text
# after the position's path).
_NESTED_INBOUND = [
    (PT, _rec("Pt", _X1 + "," + _LABEL), (_PT_VALUE, _PT_TEXT)),
    (
        PT, _rec("Qt", _X1 + "," + _LABEL),
        (TypeMismatchError, ["$: expected record Pt, got rec (record type 'Qt')"]),
    ),
    (PT, _rec("Pt", _X1), (TypeMismatchError, ["$: record 'Pt' has 1 fields, expected 2"])),
    (
        PT, _rec("Pt", _LABEL + "," + _X1),
        (TypeMismatchError, ["$: record field 'label' where 'x' was declared"]),
    ),
    (
        PT, _rec("Pt", '"x":{"t":"str","v":"1"},' + _LABEL),
        (TypeMismatchError, ["$.x: expected i64, got str"]),
    ),
    (
        PT, _rec("Pt", '"x":{"t":"str","v":"1"},"label":{"t":"null"}'),
        (TypeMismatchError, ["$.x: expected i64, got str", "$.label: expected str, got null"]),
    ),
    (PT, '{"t":"null"}', (None, '{"t":"null"}')),
    (PT, _ref("IPerson"), (TypeMismatchError, ["$: expected record Pt, got ref"])),
    (PT, _rec("Qt", '"x":{"t":"i64"}'), (BadEnvelopeError, ".x: " + _NO_V)),
    (PT, _rec("Pt", _LABEL + ',"x":{"t":"i64"}'), (BadEnvelopeError, ".x: " + _NO_V)),
    (
        IPERSON_T, _ref("IOther"),
        (TypeMismatchError, ["$: expected interface IPerson, got ref (reference to 'IOther')"]),
    ),
    (
        IPERSON_T, _rec("Person", _ANN + ',"age":{"t":"null"}'),
        (
            VRecord("Person", [("name", VStr("Ann")), ("age", NULL)]),
            _rec("Person", _ANN + ',"age":{"t":"null"}'),
        ),
    ),
    (
        IPERSON_T, _rec("Person", _ANN + ',"age":{"t":"str","v":"30"}'),
        (TypeMismatchError, ["$.age: expected i64, got str"]),
    ),
    (
        IPERSON_T, _rec("Person", _AGE + "," + _ANN),
        (TypeMismatchError, ["$: record field 'age' where 'name' was declared"]),
    ),
    (
        IPERSON_T, _rec("Person", _ANN + "," + _AGE + "," + _X1),
        (TypeMismatchError, ["$: record 'Person' has 3 fields, expected 2"]),
    ),
    (
        IPERSON_T, _rec("Pet", _ANN),
        (
            TypeMismatchError,
            ["$: expected interface IPerson, got rec (class 'Pet' is not compatible)"],
        ),
    ),
    (
        IPERSON_T, _rec("Robot", _X1),
        (VRecord("Robot", [("x", VInt(1))]), _rec("Robot", _X1)),
    ),
    (IPERSON_T, '{"t":"null"}', (None, '{"t":"null"}')),
    (
        IPERSON_T, '{"t":"list","v":[]}',
        (TypeMismatchError, ["$: expected interface IPerson, got list"]),
    ),
    (
        _LISTS, '{"t":"list","v":[' + _LIST_1 + ',{"t":"list","v":[]}]}',
        ([[1], []], '{"t":"list","v":[' + _LIST_1 + ',{"t":"list","v":[]}]}'),
    ),
    (
        _LISTS, '{"t":"list","v":[' + _LIST_1 + ',{"t":"list","v":[{"t":"str","v":"a"}]}]}',
        (TypeMismatchError, ["$[1][0]: expected i64, got str"]),
    ),
    (
        _LISTS, '{"t":"list","v":[{"t":"list","v":[{"t":"str","v":"a"}]},{"t":"i64","v":5}]}',
        (
            TypeMismatchError,
            ["$[0][0]: expected i64, got str", "$[1]: expected list<i64>, got i64"],
        ),
    ),
    (
        _LISTS,
        '{"t":"list","v":[{"t":"list","v":[{"t":"str","v":"a"}]},{"t":"list","v":[{"t":"i64"}]}]}',
        (BadEnvelopeError, "[1][0]: " + _NO_V),
    ),
    (
        _LISTS, '{"t":"list","v":[' + _rec("Qt", '"a":{"t":"i64"}') + "]}",
        (BadEnvelopeError, "[0].a: " + _NO_V),
    ),
    (Prim.STR, '{"t":"list","v":[{"t":"i64"}]}', (BadEnvelopeError, "[0]: " + _NO_V)),
]


class Pet:
    pass


def test_nested_arguments_and_results_keep_their_outcomes(world, monkeypatch):
    """For each record, reference or nested list as the one argument and as
    the result: the node's exact reply, what the component gets, and the
    caller's exact result or error. Mismatches keep their texts and their
    order, and a malformed value beats a misfit, in the same position or
    around it. A refused value reaches no component."""
    node, _, _ = world
    node.register_class(Pet, ClassDescriptor("Pet", [("name", Prim.STR)]), constructor=False)
    sent = {PT: None, IPERSON_T: None, _LISTS: [[1]], Prim.STR: "s"}
    takers = {t: _deploy_taker(node, f"nested{i}", (t,), t) for i, t in enumerate(sent)}
    paths = {t: f"/nested{i}" for i, t in enumerate(sent)}
    for t, value, (expected, detail) in _NESTED_INBOUND:
        taker, proxy = takers[t]
        taker.received.clear()
        body = '{"method":"take","args":[' + value + "]}"
        _, text = node.handle_request("POST", paths[t], "", body.encode())
        reply = ('{"result":' + value + "}").encode()
        monkeypatch.setattr(refbus.client, "post_call", lambda *args: reply)
        got = outcome(lambda: proxy.take(sent[t]))
        if expected is BadEnvelopeError:
            assert text == _fault("BAD_ENVELOPE", "$.args[0]" + detail), value
            assert got == ("raised", expected, "$.result" + detail), value
        elif expected is TypeMismatchError:
            node_text = "; ".join("arg 0 " + m for m in detail)
            assert text == _fault("TYPE_MISMATCH", node_text), value
            assert got == ("raised", expected, "result: " + "; ".join(detail)), value
        else:
            assert text == '{"result":' + detail + "}", value
            assert got[0] == "ok" and same(got[1], expected), value
        received = [] if isinstance(expected, type) else [expected]
        assert len(taker.received) == len(received), value
        assert all(map(same, taker.received, received)), value


def _nested_value(depth: int):
    v = VList([])
    for _ in range(depth - 1):
        v = VList([v])
    return v


def _nested_type(depth: int):
    t = Prim.I64
    for _ in range(depth):
        t = ListOf(t)
    return t


# (declared type, value, error) of a value the caller supplies that the
# marshal leaf refuses: the method never runs
_OUTBOUND_VALUES = [
    (
        PT, VRecord("Pt", [("x", VStr("1")), ("label", VStr("a"))]),
        (TypeMismatchError, "$.x: expected i64, got str"),
    ),
    (
        PT, VRecord("Qt", [("x", VInt(1)), ("label", VStr("a"))]),
        (TypeMismatchError, "$: expected record Pt, got rec (record type 'Qt')"),
    ),
    (
        ListOf(Prim.I64), VList([VInt(1), VStr("a"), VList([])]),
        (TypeMismatchError, "$[1]: expected i64, got str; $[2]: expected i64, got list"),
    ),
    (
        IPERSON_T, VRef(Ior("127.0.0.1", 1, 7, "IOther")),
        (TypeMismatchError, "$: expected interface IPerson, got ref (reference to 'IOther')"),
    ),
    (_nested_type(101), _nested_value(101), (BadEnvelopeError, "value nesting too deep")),
]


def test_supplied_values_are_checked_before_the_method_runs(world):
    node, _, _ = world
    for i, (t, value, expected) in enumerate(_OUTBOUND_VALUES):
        taker, proxy = _deploy_taker(node, f"supplied{i}", (t,), Prim.NULL)
        assert outcome(lambda: proxy.take(value)) == ("raised", *expected), value
        assert taker.received == []


def test_misfits_fault_before_anything_materializes(world):
    """A forged local reference would fault UNKNOWN_SERVICE when it
    materializes; a misfit in a later argument answers first."""
    node, _, _ = world
    taker, _ = _deploy_taker(node, "misfit", (IPERSON_T, Prim.STR), Prim.NULL)
    forged = '{"t":"ref","v":{"host":"%s","port":%d,"obj":999,"iface":"IPerson"}}' % (
        node.host, node.port,
    )
    body = '{"method":"take","args":[' + forged + ',{"t":"i64","v":1}]}'
    reply = _fault("TYPE_MISMATCH", "arg 1 $: expected str, got i64")
    assert node.handle_request("POST", "/misfit", "", body.encode()) == (200, reply)
    assert taker.received == []


@pytest.mark.parametrize(
    "declared, arg", [(ListOf(Prim.I64), []), (IPERSON_T, None)], ids=["list<i64>", "IPerson"]
)
def test_deep_nesting_at_a_position_is_bad_envelope(world, monkeypatch, declared, arg):
    node, _, _ = world
    _, proxy = _deploy_taker(node, "deep", (declared,), declared)
    value = '{"t":"list","v":[' * 300 + "]}" * 300
    body = '{"method":"take","args":[' + value + "]}"
    reply = _fault("BAD_ENVELOPE", "value nesting too deep")
    assert node.handle_request("POST", "/deep", "", body.encode()) == (200, reply)
    data = ('{"result":' + value + "}").encode()
    monkeypatch.setattr(refbus.client, "post_call", lambda *args: data)
    with pytest.raises(BadEnvelopeError, match="^value nesting too deep$"):
        proxy.take(arg)


@pytest.mark.parametrize("depth", [100, 101])
def test_nesting_limit_holds_at_a_deeply_declared_type(world, depth):
    """Values of a deeply declared type meet the same nesting limit as any
    other."""
    node, _, _ = world
    declared = Prim.I64
    for _ in range(depth):
        declared = ListOf(declared)
    taker, _ = _deploy_taker(node, f"deep{depth}", (declared,), declared)
    value = '{"t":"list","v":[' * depth + "]}" * depth
    body = '{"method":"take","args":[' + value + "]}"
    status, text = node.handle_request("POST", f"/deep{depth}", "", body.encode())
    if depth == 100:
        assert text == '{"result":' + value + "}"
        assert len(taker.received) == 1
    else:
        assert (status, text) == (200, _fault("BAD_ENVELOPE", "value nesting too deep"))
        assert taker.received == []


def test_each_body_and_reply_is_parsed_once(world, monkeypatch):
    """A call whose method and arity match parses its body once, whether it
    succeeds or faults; a reply parses once, whether it holds a result or
    a fault."""
    node, _, _ = world
    proxy = _pair_proxy(node)
    parses = Counter()
    decode = codec._DECODER.decode

    def counted_decode(text):
        parses["loads"] += 1
        return decode(text)

    monkeypatch.setattr(codec._DECODER, "decode", counted_decode)
    bodies = [
        '{"method":"take","args":[' + _NUMBERS + "," + _NAME + "]}",
        '{"method":"take","args":[' + _NAME + "," + _NAME + "]}",
        '{"method":"take","args":[' + _NUMBERS + ',{"t":"str"}]}',
    ]
    for body in bodies:
        parses.clear()
        node.handle_request("POST", "/pair", "", body.encode())
        assert parses["loads"] == 1, body
    for reply, _ in _REPLY_OUTCOMES:
        monkeypatch.setattr(refbus.client, "post_call", lambda *args: reply.encode())
        parses.clear()
        outcome(lambda: proxy.take([1], "n"))
        assert parses["loads"] == 1, reply


@pytest.fixture
def value_counts(monkeypatch):
    """Counts VInt and VList constructions while the test runs."""
    counts = Counter()
    int_init, list_init = VInt.__init__, VList.__init__

    def counted_int_init(self, value):
        counts["VInt"] += 1
        int_init(self, value)

    def counted_list_init(self, items=()):
        counts["VList"] += 1
        list_init(self, items)

    monkeypatch.setattr(VInt, "__init__", counted_int_init)
    monkeypatch.setattr(VList, "__init__", counted_list_init)
    return counts


class Echo:
    def echo(self, values):
        return values


def test_hot_path_builds_no_values(make_node, value_counts, monkeypatch):
    """A well-typed list<i64> echo makes no VInt or VList and no JSON
    encoder call on either side, and through a proxy hands the decoder no
    text that holds an element object; a misfit element does, because the
    V* path answers it."""
    dumps, decode = codec._dumps, codec._DECODER.decode

    def counted_dumps(obj):
        value_counts["_dumps"] += 1
        return dumps(obj)

    def counted_decode(text):
        if '"i64"' in text:
            value_counts["element loads"] += 1
        return decode(text)

    node = make_node(demo=False)
    iface = InterfaceDescriptor("IEcho", [MethodSig("echo", (ListOf(Prim.I64),), ListOf(Prim.I64))])
    node.register_interface(iface)
    handle = ComponentHandle(Echo(), ClassDescriptor("Echo", methods=iface.methods))
    node.deploy(iface, handle, "echo")
    proxy = node.proxy_for_ior(node.deploy_anonymous(iface, handle))
    rng = random.Random(3)
    values = [rng.randint(I64_MIN, I64_MAX) for _ in range(1000)]
    items = [{"t": "i64", "v": v} for v in values]

    def echo_body():
        call = {"method": "echo", "args": [{"t": "list", "v": items}]}
        return json.dumps(call, separators=(",", ":")).encode("utf-8")

    monkeypatch.setattr(codec, "_dumps", counted_dumps)
    _, text = node.handle_request("POST", "/echo", "", echo_body())
    assert json.loads(text) == {"result": {"t": "list", "v": items}}
    monkeypatch.setattr(codec._DECODER, "decode", counted_decode)
    assert proxy.echo(values) == values
    assert value_counts == {}

    items[500] = {"t": "i64", "v": True}
    _, text = node.handle_request("POST", "/echo", "", echo_body())
    assert decode_reply(text).fault.code is FaultCode.BAD_ENVELOPE
    assert value_counts["VInt"] > 0
    assert value_counts["_dumps"] > 0
    assert value_counts["element loads"] > 0
    value_counts.clear()
    with pytest.raises(TypeMismatchError):
        proxy.echo(values[:500] + [2**70])
    assert value_counts["VInt"] > 0


# The list types wire.read_call and wire.read_reply read from the text
_READABLE = [ListOf(Prim.I64), ListOf(Prim.F64), ListOf(Prim.BOOL)]
# Text a mutant splices in: glue of the canonical form, and payload text
_SPLICES = [
    ",", "}", "{", "[", "]", '"', ":", " ", "\t", "-", "0", "1", "e", ".", "true", "NaN",
    '"v":', '},{"t":"i64","v":', '},{"t":"f64","v":', '},{"t":"bool","v":', '"t":"f64",',
]
_PAYLOADS = [
    "NaN", "Infinity", "-Infinity", "1e5", "-0", "-0.0", "1" * 5000, " 1", "1 ", "\n1\t",
    "true", "false", "null", "1.5", "01", "-", '"a"', "[1]", "{}", "", "1,2", "1E400",
    str(I64_MAX + 1), str(I64_MIN),
]
_PAYLOAD_AT = re.compile(r'(?<="v":)(-?[0-9.eE+]+|true|false)')


def _rand_readable(rng, t):
    n = rng.choice([0, 1, 2, 3, 5, 8, 30])
    if t.elem is Prim.BOOL:
        return [rng.random() < 0.5 for _ in range(n)]
    return [rand_python(rng, t.elem, []) for _ in range(n)]


def mutate_text(rng, text: str) -> str:
    """``text`` with one seeded edit: a cut, a splice, a character swapped
    for a splice, a repeated span, or a payload swapped for other text."""
    i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
    payloads = list(_PAYLOAD_AT.finditer(text))
    op = rng.randrange(5 if payloads else 4)
    if op == 0:
        return text[:i] + text[i + rng.randint(1, 3) :]
    if op == 1:
        return text[:i] + rng.choice(_SPLICES) + text[i:]
    if op == 2:
        return text[:i] + rng.choice(_SPLICES) + text[i + 1 :]
    if op == 3:
        return text[:j] + text[i:j] + text[j:]
    m = rng.choice(payloads)
    return text[: m.start()] + rng.choice(_PAYLOADS) + text[m.end() :]


def _list_text(tag: str, payloads) -> str:
    items = ",".join('{"t":"%s","v":%s}' % (tag, p) for p in payloads)
    return '{"t":"list","v":[' + items + "]}"


def _call_text(args: str, method: str = "take") -> str:
    return '{"method":"' + method + '","args":[' + args + "]}"


def _reply_text(result: str) -> str:
    return '{"result":' + result + "}"


_I64S, _F64S, _BOOLS = _READABLE
_ONES, _TWOS = _list_text("i64", ["1"]), _list_text("i64", ["2"])
# (type, list text) that a reader of the list text could get wrong
_PINNED_LISTS = [
    (_I64S, '{"t":"list","v":[{"t":"i64","v":"a},{"t":"i64","v":b"}]}'),  # "a,b"
    (_I64S, '{"t":"list","v":[{"t":"i64","v":1,"v":2}]}'),
    (_I64S, '{"t":"list","v":[{"t":"i64","v":1},{"t":"i64","v":2,"v":3}]}'),
    (_I64S, '{"t":"list","v":[{"t":"i64","v":1,[2},{"t":"i64","v":3]}]}'),  # [1,[2,3]]
    (_F64S, _list_text("f64", ["1.5", "NaN"])),
    (_I64S, _list_text("i64", ["7", "1e5"])),
    (_I64S, _list_text("i64", ["-0", "5"])),
    (_F64S, _list_text("f64", ["-0", "-0.0"])),
    (_I64S, _list_text("i64", ["1" * 5000])),
    (_F64S, _list_text("f64", ["1" * 5000])),
    (_I64S, _list_text("i64", [" 1", "2\n", "\t3 "])),
    (_BOOLS, _list_text("bool", [" true", "false "])),
    (_I64S, _list_text("i64", ["1 ,2"])),
    (_I64S, '{"t":"list","v":[{"t":"i64","v":12]}'),
    (_I64S, _ONES.replace('"list"', '"LIST"')),
    # not readable: a quote can span a separator, so pieces "a"," and "
    # would read as ["a", ","]
    (ListOf(Prim.STR), '{"t":"list","v":[{"t":"str","v":"a","},{"t":"str","v":"}]}'),
]
# (type, call body, reply): the pinned lists, then whole-body cases
_PINNED = [(t, _call_text(text), _reply_text(text)) for t, text in _PINNED_LISTS] + [
    (_I64S, "\ufeff" + _call_text(_ONES), "\ufeff" + _reply_text(_ONES)),
    (_I64S, _call_text(_ONES, r"take\ud800"), _reply_text(_ONES) + " "),
    (_I64S, _call_text(_ONES).replace("args", "argz"), _reply_text(_ONES)[:-1] + "]"),
    (  # a second key smuggled in after the list
        _I64S,
        _call_text(_ONES + '],"method":"take","args":[' + _TWOS),
        '{"result":' + _ONES + ',"result":' + _TWOS + "}",
    ),
    (
        _I64S,
        _call_text(_ONES + "," + _TWOS),
        '{"result":' + _ONES + ',"fault":{"code":"INTERNAL","message":"m"}}',
    ),
]


def test_text_reader_matches_the_parsed_path(world, monkeypatch):
    """Seeded canonical list<i64|f64|bool> bodies and replies, text mutants
    of them and the pinned cases give the same reply text, the same
    received values and the same client outcome whether the text reader
    reads them or declines each one to the parsed path."""
    node, _, _ = world
    rng = random.Random(20261019)
    seen = Counter()
    deployed = {
        t: _deploy_taker(node, f"read_{t.elem.value}", (t,), t)
        for t in _READABLE + [ListOf(Prim.STR)]
    }

    def serve(t, body: bytes, read: bool):
        taker, _ = deployed[t]
        taker.received.clear()
        with monkeypatch.context() as m:
            if not read:
                m.setattr(refbus.node, "read_call", lambda body, sig_of: None)
            _, text = node.handle_request("POST", f"/read_{t.elem.value}", "", body)
        return text, list(taker.received)

    def ask(t, reply: bytes, read: bool):
        _, proxy = deployed[t]
        with monkeypatch.context() as m:
            m.setattr(refbus.client, "post_call", lambda *args: reply)
            if not read:
                m.setattr(refbus.client, "read_reply", lambda data, t: None)
            return outcome(lambda: proxy.take([]))

    def check(t, body: str, reply: str):
        body, reply = body.encode(), reply.encode()
        read_text, read_got = serve(t, body, read=True)
        parsed_text, parsed_got = serve(t, body, read=False)
        assert read_text == parsed_text, body
        assert len(read_got) == len(parsed_got) and all(map(same, read_got, parsed_got)), body
        read, parsed = ask(t, reply, read=True), ask(t, reply, read=False)
        assert read[:1] == parsed[:1] and (
            same(read[1], parsed[1]) if read[0] == "ok" else read == parsed
        ), reply
        took = codec.read_call(body, deployed[t][1].iface.method) is not None
        seen[f"call {'read' if took else 'declined'} {'ok' if read_got else 'fault'}"] += 1
        took = codec.read_reply(reply, t) is not None
        seen[f"reply {'read' if took else 'declined'} {read[0]}"] += 1

    for t, body, reply in _PINNED:
        check(t, body, reply)
    for n in range(300):
        t = _READABLE[n % 3]
        xs = _rand_readable(rng, t)
        body = codec.send_call("take", (t,), [xs], lambda i: _refuse)
        reply = codec.send_result(xs, t, _refuse)
        assert codec.read_call(body.encode(), deployed[t][1].iface.method)[2] == [xs]
        assert same(codec.read_reply(reply.encode(), t), xs)
        check(t, body, reply)
        for _ in range(5):
            check(t, mutate_text(rng, body), mutate_text(rng, reply))

    # the reader takes only what the parsed path accepts, and every
    # outcome occurs often enough for the comparison to mean something
    assert seen["call read fault"] == seen["reply read raised"] == 0, seen
    assert seen["call declined fault"] > 500 and seen["reply declined raised"] > 500, seen
    assert seen["call declined ok"] > 10 and seen["reply declined ok"] > 10, seen
    assert seen["call read ok"] > 300 and seen["reply read ok"] > 300, seen


# (payloads of a list<f64> no refbus writer sends, the node's reply text,
# what the component and the caller get): canonical f64 text always holds
# a "." or an exponent, so a JSON integer comes only from another writer
_INTEGER_F64S = [
    (
        ["3", "1.5", "-0"],
        _reply_text(_list_text("f64", ["3.0", "1.5", "0.0"])),
        ("ok", [3.0, 1.5, 0.0]),
    ),
    (
        ["1.5", "1" + "0" * 400],
        _fault("BAD_ENVELOPE", "$.args[0][1]: VFloat out of range: integer too large for f64"),
        ("raised", BadEnvelopeError, "$.result[1]: VFloat out of range: integer too large for f64"),
    ),
]


def test_integer_f64_payloads_are_declined_to_the_parsed_path(world, monkeypatch):
    """The text reader declines a list<f64> call body or reply that holds a
    JSON integer, and the parsed path answers it: each integer reads as a
    float, and one too large for f64 is BAD_ENVELOPE."""
    node, _, _ = world
    t = ListOf(Prim.F64)
    taker, proxy = _deploy_taker(node, "integer_f64s", (t,), t)
    for payloads, text, expected in _INTEGER_F64S:
        body = _call_text(_list_text("f64", payloads)).encode()
        reply = _reply_text(_list_text("f64", payloads)).encode()
        assert codec.read_call(body, proxy.iface.method) is None, payloads
        assert codec.read_reply(reply, t) is None, payloads
        taker.received.clear()
        assert node.handle_request("POST", "/integer_f64s", "", body) == (200, text)
        received = [expected[1]] if expected[0] == "ok" else []
        assert len(taker.received) == len(received), payloads
        assert all(map(same, taker.received, received)), payloads
        monkeypatch.setattr(refbus.client, "post_call", lambda *args: reply)
        got = outcome(lambda: proxy.take([]))
        assert got[:1] == expected[:1], payloads
        assert same(got[1], expected[1]) if got[0] == "ok" else got == expected, payloads


_PRIMS = [Prim.NULL, Prim.BOOL, Prim.I64, Prim.F64, Prim.STR]
# A value of each Prim that every row takes
_CANONICAL = {Prim.NULL: None, Prim.BOOL: True, Prim.I64: 7, Prim.F64: 2.5, Prim.STR: "é"}
# (type, value text) a reader of the parsed payload could get wrong
_ROW_INBOUND = [
    (Prim.I64, '{"t":"i64","v":9223372036854775807}'),
    (Prim.I64, '{"t":"i64","v":-9223372036854775808}'),
    (Prim.I64, '{"t":"i64","v":-9223372036854775809}'),
    (Prim.I64, '{"t":"i64","v":false}'),
    (Prim.I64, '{"t":"i64","v":1.0}'),
    (Prim.I64, '{"t":"i64","v":null}'),
    (Prim.I64, '{"t":"i64","v":"7"}'),
    (Prim.I64, '{"t":"i64","v":1,"v":2}'),
    (Prim.I64, '{"t":"i64","v":1,"v":true}'),
    (Prim.I64, '{"t":"i64","v":1,"t":"f64"}'),
    (Prim.I64, '{"v":1,"t":"i64"}'),
    (Prim.I64, '{ "t" : "i64" , "v" : 1 }'),
    (Prim.I64, '{"t":"i64","x":1}'),
    (Prim.I64, '{"t":["i64"],"v":1}'),
    (Prim.I64, "7"),
    (Prim.I64, "[]"),
    (Prim.F64, '{"t":"f64","v":-0.0}'),
    (Prim.F64, '{"t":"f64","v":-0}'),
    (Prim.F64, '{"t":"f64","v":3}'),
    (Prim.F64, '{"t":"f64","v":9223372036854775808}'),
    (Prim.F64, '{"t":"f64","v":1' + "0" * 400 + "}"),
    (Prim.F64, '{"t":"f64","v":1e400}'),
    (Prim.F64, '{"t":"f64","v":-1e400}'),
    (Prim.F64, '{"t":"f64","v":NaN}'),
    (Prim.F64, '{"t":"f64","v":true}'),
    (Prim.F64, '{"t":"f64","v":"2.5"}'),
    (Prim.BOOL, '{"t":"bool","v":false}'),
    (Prim.BOOL, '{"t":"bool","v":1}'),
    (Prim.BOOL, '{"t":"bool","v":null}'),
    (Prim.STR, r'{"t":"str","v":"\udc80\ud800"}'),
    (Prim.STR, r'{"t":"str","v":"💡"}'),
    (Prim.STR, '{"t":"str","v":"é☃💡 "}'),
    (Prim.STR, '{"t":"str","v":""}'),
    (Prim.STR, '{"t":"str","v":5}'),
    (Prim.STR, '{"t":"str","v":null}'),
    (Prim.STR, '"a"'),
    (Prim.NULL, '{"t":"null","t":"null"}'),
    (Prim.NULL, '{"t":"null","x":1}'),
    (Prim.NULL, '{"t":"NULL"}'),
    (Prim.NULL, "null"),
    (Prim.NULL, "{}"),
]
# (type, Python value) a writer of one value could get wrong
_ROW_OUTBOUND = [
    (Prim.I64, I64_MAX + 1),
    (Prim.I64, I64_MIN - 1),
    (Prim.I64, True),
    (Prim.I64, Level.LOW),
    (Prim.I64, VInt(3)),
    (Prim.I64, 7.0),
    (Prim.F64, -0.0),
    (Prim.F64, math.inf),
    (Prim.F64, 3),
    (Prim.F64, VFloat(2.5)),
    (Prim.BOOL, 1),
    (Prim.BOOL, VBool(False)),
    (Prim.STR, "é☃💡 "),
    (Prim.STR, "a\udc80b"),
    (Prim.STR, VStr("v")),
    (Prim.STR, b"x"),
    (Prim.NULL, NULL),
    (Prim.NULL, 0),
]


class Mirror:
    """Records each argument, and returns ``result``, or the argument while
    ``result`` is ``Mirror.ECHO``."""

    ECHO = object()

    def __init__(self):
        self.received = []
        self.result = Mirror.ECHO

    def take(self, x):
        self.received.append(x)
        return x if self.result is Mirror.ECHO else self.result


def test_scalar_rows_match_the_value_path(world, monkeypatch):
    """Scalar and null arguments and results give the same reply text, the
    same received values, the same call text and the same client outcome
    whether the rows of wire._ROWS read and write them or, with the table
    emptied, the V* path does: the pinned scalar tables, every reply of
    _REPLY_OUTCOMES, the edge cases above and seeded values and mutants."""
    node, _, _ = world
    rng = random.Random(20261022)
    seen = Counter()
    deployed = {}
    for t in _PRIMS:
        iface = InterfaceDescriptor(f"IRow_{t.value}", [MethodSig("take", (t,), t)])
        node.register_interface(iface)
        mirror = Mirror()
        handle = ComponentHandle(mirror, ClassDescriptor(f"Row_{t.value}", methods=iface.methods))
        node.deploy(iface, handle, f"row_{t.value}")
        deployed[t] = mirror, node.proxy_for_ior(node.deploy_anonymous(iface, handle))

    def serve(t, body: bytes, result, rows: bool):
        mirror, _ = deployed[t]
        mirror.received.clear()
        mirror.result = result
        with monkeypatch.context() as m:
            if not rows:
                m.setattr(codec, "_ROWS", {})
            _, text = node.handle_request("POST", f"/row_{t.value}", "", body)
        return text, list(mirror.received)

    def ask(t, x, reply: bytes, rows: bool):
        _, proxy = deployed[t]
        sent = []

        def post_call(host, port, path, call, timeout):
            sent.append(call)
            return reply

        with monkeypatch.context() as m:
            m.setattr(refbus.client, "post_call", post_call)
            if not rows:
                m.setattr(codec, "_ROWS", {})
            return sent, outcome(lambda: proxy.take(x))

    marshal = functools.partial(
        node.marshal_outbound, iface_name="IPerson", method_name="take", position=RETURN
    )

    def same_outcome(a, b) -> bool:
        return a[:1] == b[:1] and (same(a[1], b[1]) if a[0] == "ok" else a == b)

    def canonical(t) -> str:
        return codec.send_result(_CANONICAL[t], t, _refuse)[len('{"result":') : -1]

    def check_reply(t, reply: str):
        (_, on), (_, off) = (ask(t, _CANONICAL[t], reply.encode(), rows) for rows in (True, False))
        assert same_outcome(on, off), reply
        return on

    def check_inbound(t, value: str):
        """``value`` as the argument of a call, and as the result of a reply."""
        body = _call_text(value).encode()
        (on_text, on_got), (off_text, off_got) = (
            serve(t, body, Mirror.ECHO, rows) for rows in (True, False)
        )
        assert on_text == off_text, value
        assert len(on_got) == len(off_got) and all(map(same, on_got, off_got)), value
        on = check_reply(t, _reply_text(value))
        try:
            took = codec._read(json.loads(value), codec._ROWS[t]) is not codec._DECLINED
        except ValueError:  # not JSON
            took = False
        seen[f"read {'row' if took else 'declined'} {on[0]}"] += 1

    def check_outbound(t, x):
        """``x`` as a component's result, and as a caller's argument."""
        body = _call_text(canonical(t)).encode()
        assert serve(t, body, x, True) == serve(t, body, x, False), (t, x)
        reply = _reply_text(canonical(t)).encode()
        (on_sent, on), (off_sent, off) = (ask(t, x, reply, rows) for rows in (True, False))
        assert on_sent == off_sent and same_outcome(on, off), (t, x)
        took = codec._write(x, t) is not None
        seen[f"write {'row' if took else 'declined'} {on[0]}"] += 1

    for t, value, _ in _SCALAR_INBOUND:
        check_inbound(t, value)
    for x, t, _ in _OUTBOUND:
        if type(t) is Prim:
            check_outbound(t, x)
    for t in _PRIMS:
        for reply, _ in _REPLY_OUTCOMES:
            check_reply(t, reply)
    for t, value in _ROW_INBOUND:
        check_inbound(t, value)
    for t, x in _ROW_OUTBOUND:
        check_outbound(t, x)
    for n in range(300):
        t = _PRIMS[n % len(_PRIMS)]
        x = rand_python(rng, t, [], bad=0.3)
        check_outbound(t, x)
        x = rand_python(rng, t, [])
        value = codec.send_result(x, t, _refuse)[len('{"result":') : -1]
        assert _reply_text(value) == encode_reply(ReplyEnvelope.ok(marshal(x, t)))
        check_inbound(t, value)
        check_inbound(t, json.dumps(mutate_json(rng, json.loads(value))))

    # the rows take only what the V* path accepts, and read all of it: only
    # a V* value or a scalar subclass is declined and still accepted. Every
    # other outcome occurs often enough for the comparison to mean something.
    assert seen["read row raised"] == seen["write row raised"] == seen["read declined ok"] == 0
    assert seen["read row ok"] > 300 and seen["read declined raised"] > 300, seen
    assert seen["write row ok"] > 200 and seen["write declined raised"] > 50, seen
    assert seen["write declined ok"] > 10, seen


def test_scalar_calls_build_no_values(make_node, value_counts, monkeypatch):
    """A call whose argument and result are scalars or null makes no
    value object, and marshals and materializes nothing, on either end."""
    node = make_node(demo=False)
    calls = Counter()
    marshal_outbound, materialize = node.marshal_outbound, refbus.client.materialize

    def counted_marshal(*args, **kwargs):
        calls["marshal"] += 1
        return marshal_outbound(*args, **kwargs)

    def counted_materialize(*args):
        calls["materialize"] += 1
        return materialize(*args)

    monkeypatch.setattr(node, "marshal_outbound", counted_marshal)
    monkeypatch.setattr(refbus.client, "materialize", counted_materialize)
    proxies = {}
    for t in _PRIMS:
        iface = InterfaceDescriptor(f"IScalar_{t.value}", [MethodSig("take", (t,), t)])
        node.register_interface(iface)
        mirror = Mirror()
        handle = ComponentHandle(mirror, ClassDescriptor(f"Scalar_{t.value}", methods=iface.methods))
        proxies[t] = proxy = node.proxy_for_ior(node.deploy_anonymous(iface, handle))
        assert same(proxy.take(_CANONICAL[t]), _CANONICAL[t])
        assert len(mirror.received) == 1 and same(mirror.received[0], _CANONICAL[t])
    assert value_counts == {} and calls == {}
    # an IntEnum takes the V* path out, so the counters do count
    assert same(proxies[Prim.I64].take(Level.LOW), 1)
    assert value_counts["VInt"] > 0 and calls["marshal"] > 0


def test_rows_are_the_one_table_of_scalar_kinds():
    """``_ROWS`` holds one row per Prim. A row's value class holds a value
    of exactly the row's Python type as ``.value`` and refuses what the
    row's rule refuses, and the V* path's lookups, by tag, by value class
    and by Python type, agree with the rows."""
    assert list(codec._ROWS) == list(Prim)
    held = {
        Prim.BOOL: [False, True],
        Prim.I64: [I64_MIN, 0, I64_MAX],
        Prim.F64: [-0.0, 2.5, 1e308],
        Prim.STR: ["", "é", "\U0001f600"],
    }
    refused = {
        Prim.I64: [I64_MIN - 1, I64_MAX + 1, 2**70],
        Prim.F64: [math.inf, -math.inf, math.nan],
        Prim.STR: ["\ud800", "a\udfff"],
    }
    for prim, row in codec._ROWS.items():
        assert row.prim is prim and row.tag == prim.value
        assert codec._ROW_BY_TAG[row.tag] is row
        if prim is Prim.NULL:
            assert row.cls is None and row.py_type is type(None)
            assert codec._parse_value({"t": "null"}, "$", prim, None, []) == NULL
            continue
        assert codec._ROW_BY_CLASS[row.cls] is row and codec._ROW_BY_PY_TYPE[row.py_type] is row
        for x in held[prim]:
            assert row.rule(x)
            v = row.cls(x)
            assert type(v.value) is row.py_type and same(v.value, x)
            assert to_value(x, prim, _refuse) == v
            assert codec._value_obj(v) == {"t": row.tag, "v": x}
            out = []
            assert codec._parse_value({"t": row.tag, "v": x}, "$", prim, None, out) == v
            assert out == []
        for x in refused.get(prim, []):
            assert type(x) is row.py_type and not row.rule(x)
            with pytest.raises(ValueError):
                row.cls(x)
    assert set(codec._ROW_BY_TAG) == {prim.value for prim in Prim}
    assert set(codec._ROW_BY_CLASS) == {VBool, VInt, VFloat, VStr}
    assert list(codec._ROW_BY_PY_TYPE) == [bool, int, float, str]  # bool before int
