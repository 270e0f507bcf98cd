"""The compiled codec against the V* path it stands in for.

The V* path is the oracle: wire._parse_value, type_check and materialize
inbound; Node.marshal_outbound and wire._value_obj outbound. For seeded
random types, well-typed values and mutated ones, both paths must give
equal results, byte-identical text and the same faults with the same
messages. Well-typed plain values must take the compiled path, so a
silent fallback cannot hide a slow codec.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import random
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
from refbus import codec
from refbus.policy import RETURN, ParamPos
from refbus.scenarios import IPERSON, PERSON_CLASS, Person
from refbus.values import I64_MAX, I64_MIN, Ior, VBool, VFloat, VInt, VList, VRecord, VStr
from refbus.wire import CallEnvelope, ReplyEnvelope, decode_reply, encode_call, encode_reply

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
                m.setattr(codec, "compile_type", lambda t: None)
            _, text = node.handle_request("POST", path, "", body)
        return text, list(taker.received)

    def ask(proxy, arg, reply: bytes, fast: bool):
        with monkeypatch.context() as m:
            m.setattr(refbus.client, "post_call", lambda *args: reply)
            if not fast:
                m.setattr(codec, "compile_type", lambda t: None)
            return outcome(lambda: proxy.invoke("take", [arg]))

    for n in range(160):
        t = rand_type(rng)
        compiled = codec.compile_type(t)
        plain = compiled is not None
        iface = InterfaceDescriptor(f"ITake{n}", [MethodSig("take", (t,), t)])
        node.register_interface(iface)
        node.policies.set_method_policy(iface.name, "take", BY_REFERENCE)
        taker = Taker()
        handle = ComponentHandle(taker, ClassDescriptor(f"Taker{n}", methods=iface.methods))
        node.deploy(iface, handle, f"take{n}")
        path = f"/take{n}"
        proxy = node.proxy_for_ior(node.deploy_anonymous(iface, handle))
        policy = rng.choice([BY_VALUE, BY_REFERENCE])
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
            if plain and not bad:
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
            # at a plain type, the compiled decoder takes whatever the V* path
            # takes; it raises where it declines
            if plain and (oracle_got or oracle[0] == "ok"):
                compiled[0](obj)

    # both outcomes occur often enough for the comparison to mean something
    assert seen["well-typed ok"] == 160
    assert seen["mutant fault"] > 300 and seen["mutant ok"] > 5
    assert seen["encode raised"] > 80 and seen["encode ok"] > 200


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
    ('{"method":"__snapshot","args":[]}', '{"result":{"t":"rec","type":"Pair","v":{}}}'),
    (
        '{"method":"__resolve","args":[1]}',
        _fault("BAD_ENVELOPE", "$.args[0]: value must be a tagged object"),
    ),
]


def test_envelope_faults_match_the_value_path(world, monkeypatch):
    """Envelope and argument faults keep their texts, BAD_ENVELOPE in a
    later argument beating TYPE_MISMATCH in an earlier one. The texts are
    pinned, since the compiled and V* paths share the envelope code."""
    node, _, _ = world
    _pair_proxy(node)
    for body, reply in _ENVELOPE_REPLIES:
        assert node.handle_request("POST", "/pair", "", body.encode()) == (200, reply), body
        with monkeypatch.context() as m:
            m.setattr(codec, "compile_type", lambda t: None)
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
    compiled and V* paths share the reply code."""
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


def test_each_body_and_reply_is_parsed_once(world, monkeypatch):
    """A call whose method and arity match parses its body once, whether it
    succeeds or faults; a reply parses once, whether it holds a result or
    a fault."""
    node, _, _ = world
    proxy = _pair_proxy(node)
    parses = Counter()
    loads = json.loads

    def counted_loads(*args, **kwargs):
        parses["loads"] += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted_loads)
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
    post_init, list_init = VInt.__post_init__, VList.__init__

    def counted_post_init(self):
        counts["VInt"] += 1
        post_init(self)

    def counted_list_init(self, items=()):
        counts["VList"] += 1
        list_init(self, items)

    monkeypatch.setattr(VInt, "__post_init__", counted_post_init)
    monkeypatch.setattr(VList, "__init__", counted_list_init)
    return counts


class Echo:
    def echo(self, values):
        return values


def test_hot_path_builds_no_values(make_node, value_counts):
    """A well-typed list<i64> echo makes no VInt or VList on either side; a
    misfit element does, because the V* path answers it."""
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
        return json.dumps({"method": "echo", "args": [{"t": "list", "v": items}]}).encode("utf-8")

    _, text = node.handle_request("POST", "/echo", "", echo_body())
    assert json.loads(text) == {"result": {"t": "list", "v": items}}
    assert proxy.echo(values) == values
    assert value_counts == {}

    items[500] = {"t": "i64", "v": True}
    _, text = node.handle_request("POST", "/echo", "", echo_body())
    assert decode_reply(text).fault.code is FaultCode.BAD_ENVELOPE
    assert value_counts["VInt"] > 0
    value_counts.clear()
    with pytest.raises(TypeMismatchError):
        proxy.echo(values[:500] + [2**70])
    assert value_counts["VInt"] > 0
