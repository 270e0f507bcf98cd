"""Value model: construction invariants, type conformance, structural equality."""

from __future__ import annotations

import random

import pytest

from refbus import ClassDescriptor, InterfaceDescriptor, InterfaceType, ListOf, MethodSig, Prim, RecordType
from refbus.values import (
    NULL,
    Ior,
    TypeEnvironment,
    VBool,
    VFloat,
    VInt,
    VList,
    VNull,
    VRecord,
    VRef,
    VStr,
)
from refbus.wire import CallEnvelope, encode_value, type_check
from conftest import TypedGenerator, clone_value, deep_eq, random_value


def _env_with_student() -> TypeEnvironment:
    env = TypeEnvironment()
    env.add_record("Student", [("name", Prim.STR), ("matricNumber", Prim.I64)])
    env.add_interface(InterfaceDescriptor("INamedEntity"))
    env.add_interface(InterfaceDescriptor("IPerson"))
    return env


# ---------------------------------------------------------------------------
# construction invariants


def test_float_rejects_nan_and_infinity():
    with pytest.raises(ValueError):
        VFloat(float("nan"))
    with pytest.raises(ValueError):
        VFloat(float("inf"))
    with pytest.raises(ValueError):
        VFloat(float("-inf"))


def test_int_range_is_64_bit_signed():
    assert VInt(2**63 - 1).value == 2**63 - 1
    assert VInt(-(2**63)).value == -(2**63)
    with pytest.raises(ValueError):
        VInt(2**63)
    with pytest.raises(ValueError):
        VInt(-(2**63) - 1)


def test_int_rejects_bool():
    with pytest.raises(ValueError):
        VInt(True)


def test_record_rejects_duplicate_field_names():
    with pytest.raises(ValueError):
        VRecord("R", [("a", VInt(1)), ("a", VInt(2))])


@pytest.mark.parametrize(
    "type_name, fields",
    [("T", [("", VInt(1))]), ("T", [(5, VInt(1))]), (7, [("a", VInt(1))]), ("", [])],
)
def test_record_refuses_names_no_peer_can_read(type_name, fields):
    # the wire refuses these names, so a record holding one could never be sent
    with pytest.raises(ValueError):
        VRecord(type_name, fields)


@pytest.mark.parametrize("fields", [[("a", 5)], {"ab": VInt(1)}], ids=["int", "dict"])
def test_record_refuses_a_field_that_is_not_a_value(fields):
    """A dict's keys unpack as (name, value) pairs of characters: {"ab": ...}
    would build the field "a" holding "b"."""
    with pytest.raises(ValueError, match="^field 'a' of record 'T' is not a value: "):
        VRecord("T", fields)


@pytest.mark.parametrize(
    "items, index", [([5], 0), ((VInt(1), None), 1), (iter([VInt(1), VStr("a"), "b"]), 2)]
)
def test_list_refuses_an_item_that_is_not_a_value(items, index):
    """A list holding a Python object would reach type_check and the
    encoder as a TypeError; it is refused where it is built, as a record
    field is."""
    with pytest.raises(ValueError, match=f"^item {index} of a list is not a value: "):
        VList(items)


@pytest.mark.parametrize(
    "make",
    [
        lambda: MethodSig(""),
        lambda: InterfaceDescriptor(""),
        lambda: ClassDescriptor(""),
        lambda: TypeEnvironment().add_record("", []),
        lambda: CallEnvelope(""),
    ],
    ids=["method", "interface", "class", "type", "call"],
)
def test_an_empty_name_is_refused(make):
    with pytest.raises(ValueError, match="must be non-empty$"):
        make()


def test_ior_validation():
    with pytest.raises(ValueError):
        Ior("", 80, 0, "I")
    with pytest.raises(ValueError):
        Ior("h", 0, 0, "I")
    with pytest.raises(ValueError):
        Ior("h", 70000, 0, "I")
    with pytest.raises(ValueError):
        Ior("h", 80, -1, "I")
    with pytest.raises(ValueError):
        Ior("h", 80, 0, "")


def test_values_are_immutable():
    v = VInt(1)
    with pytest.raises(Exception):
        v.value = 2
    r = VRecord("R", [("a", VInt(1))])
    with pytest.raises(Exception):
        r.type_name = "S"


def test_environment_namespaces_are_disjoint():
    env = _env_with_student()
    with pytest.raises(ValueError):
        env.add_record("Student", [])
    with pytest.raises(ValueError):
        env.add_interface(InterfaceDescriptor("Student"))


def test_record_types_refuse_empty_field_names():
    # the wire refuses an empty field name, so no value of the shape could travel
    env = TypeEnvironment()
    with pytest.raises(ValueError, match="^field names in record type 'R' must be non-empty$"):
        env.add_record("R", [("a", Prim.I64), ("", Prim.I64)])
    assert "R" not in env.records


# ---------------------------------------------------------------------------
# type_check


def test_type_check_tag_match():
    env = TypeEnvironment()
    assert type_check(VInt(36), Prim.I64, env) == []


def test_type_check_ref_interface_name_mismatch():
    # hand-traced rule table: the reference's interface must equal the
    # declared one, so this mismatches at the root and nowhere else
    env = _env_with_student()
    ref = VRef(Ior("h", 80, 0, "IPerson"))
    mismatches = type_check(ref, InterfaceType("INamedEntity"), env)
    assert len(mismatches) == 1
    assert mismatches[0].startswith("$:")
    assert "INamedEntity" in mismatches[0] and "IPerson" in mismatches[0]


def test_type_check_record_against_declared_shape():
    env = _env_with_student()
    student = VRecord("Student", [("name", VStr("Bobby Jones")), ("matricNumber", VInt(1234))])
    assert type_check(student, RecordType("Student"), env) == []


def test_type_check_record_wrong_field_order():
    env = _env_with_student()
    student = VRecord("Student", [("matricNumber", VInt(1234)), ("name", VStr("x"))])
    assert type_check(student, RecordType("Student"), env) != []


def test_type_check_record_wrong_field_type_has_path():
    env = _env_with_student()
    student = VRecord("Student", [("name", VStr("x")), ("matricNumber", VStr("oops"))])
    mismatches = type_check(student, RecordType("Student"), env)
    assert len(mismatches) == 1
    assert "$.matricNumber" in mismatches[0]


def test_null_conforms_to_interface_and_record_only():
    env = _env_with_student()
    assert type_check(NULL, InterfaceType("IPerson"), env) == []
    assert type_check(NULL, RecordType("Student"), env) == []
    assert type_check(NULL, Prim.NULL, env) == []
    assert type_check(NULL, Prim.I64, env) != []
    assert type_check(NULL, Prim.STR, env) != []
    assert type_check(NULL, ListOf(Prim.I64), env) != []


def test_record_conforms_to_interface_position():
    # a by-value component copy travels as its state record
    env = _env_with_student()
    copy = VRecord("Person", [("name", VStr("John Brown")), ("age", VInt(35))])
    assert type_check(copy, InterfaceType("IPerson"), env) == []


def test_list_mismatch_paths():
    env = TypeEnvironment()
    v = VList([VInt(1), VStr("a"), VInt(3)])
    mismatches = type_check(v, ListOf(Prim.I64), env)
    assert len(mismatches) == 1
    assert "$[1]" in mismatches[0]


def test_type_check_primitive_mismatch_reports_expected_and_actual():
    env = TypeEnvironment()
    mismatches = type_check(VStr("x"), Prim.I64, env)
    assert mismatches == ["$: expected i64, got str"]


# ---------------------------------------------------------------------------
# equality: == compares values as the wire writes them


def test_value_equals_null():
    assert NULL == NULL


def test_value_equals_ref_object_number_differs():
    a = VRef(Ior("h", 80, 5, "I"))
    b = VRef(Ior("h", 80, 6, "I"))
    assert a != b


def test_value_equals_mixed_list():
    # oracle: element-wise recursive comparison over an independent
    # canonical form
    a = VList([VInt(1), VStr("a")])
    b = VList([VInt(1), VStr("a")])
    assert deep_eq(a, b)
    assert a == b
    c = VList([VInt(1), VStr("b")])
    assert not deep_eq(a, c)
    assert a != c


def test_value_equals_floats_bit_exact():
    assert VFloat(1.5) == VFloat(1.5)
    assert VFloat(0.0) != VFloat(-0.0)


def test_value_equals_distinguishes_tags():
    assert VInt(1) != VFloat(1.0)
    assert VBool(True) != VInt(1)


def test_value_equals_agrees_with_independent_oracle():
    rng = random.Random(0xC0FFEE)
    values = [random_value(rng) for _ in range(300)]
    for a in values:
        idx = rng.randrange(len(values))
        b = values[idx]
        assert (a == b) == deep_eq(a, b)


def test_value_equals_is_an_equivalence():
    rng = random.Random(2024)
    for _ in range(200):
        v = random_value(rng)
        c1 = clone_value(v)
        c2 = clone_value(c1)
        # reflexive
        assert v == v
        # symmetric
        assert v == c1 and c1 == v
        # transitive
        assert v == c1 and c1 == c2 and v == c2


_SMALL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.0)
_SMALL_IORS = (Ior("h", 80, 1, "I"), Ior("h", 80, 2, "I"), Ior("h", 81, 1, "I"))


def _small_value(rng: random.Random, depth: int = 3):
    """A value from a domain small enough that random pairs often coincide:
    ±0.0, the smallest subnormal, 0 as i64 and f64, nested lists and
    records, references that differ in one field."""
    kinds = ["null", "bool", "int", "float", "str", "ref"]
    if depth > 0:
        kinds += ["list", "list", "rec", "rec"]
    kind = rng.choice(kinds)
    if kind == "null":
        return NULL
    if kind == "bool":
        return VBool(rng.random() < 0.5)
    if kind == "int":
        return VInt(rng.randint(0, 1))
    if kind == "float":
        return VFloat(rng.choice(_SMALL_FLOATS))
    if kind == "str":
        return VStr(rng.choice(("", "a")))
    if kind == "ref":
        return VRef(rng.choice(_SMALL_IORS))
    if kind == "list":
        return VList(_small_value(rng, depth - 1) for _ in range(rng.randint(0, 2)))
    names = rng.choice(((), ("a",), ("b",), ("a", "b")))
    return VRecord(rng.choice("RS"), [(n, _small_value(rng, depth - 1)) for n in names])


def test_equality_is_equal_wire_text():
    rng = random.Random(0x3D)
    pairs = [(_small_value(rng), _small_value(rng)) for _ in range(20000)]
    pairs += [(v, clone_value(v)) for v in (random_value(rng) for _ in range(300))]
    equal = 0
    for a, b in pairs:
        assert (a == b) == (encode_value(a) == encode_value(b)), (a, b)
        assert (a != b) == (encode_value(a) != encode_value(b)), (a, b)
        if a == b:
            assert hash(a) == hash(b), (a, b)
            equal += 1
    # both answers are exercised, not only the clones
    assert 300 < equal < len(pairs) - 300
    assert VFloat(0.0) != VFloat(-0.0)
    assert VInt(1) != VFloat(1.0)


# ---------------------------------------------------------------------------
# inferred-shape property


def _infer_shape(v, env):
    """Tag-directed TypeRef of a value; None where no single shape exists."""
    if isinstance(v, VNull):
        return Prim.NULL
    if isinstance(v, VBool):
        return Prim.BOOL
    if isinstance(v, VInt):
        return Prim.I64
    if isinstance(v, VFloat):
        return Prim.F64
    if isinstance(v, VStr):
        return Prim.STR
    if isinstance(v, VRef):
        return InterfaceType(v.ior.interface_name)
    if isinstance(v, VRecord):
        return RecordType(v.type_name)
    shapes = [_infer_shape(item, env) for item in v.items]
    if not shapes:
        return ListOf(Prim.NULL)
    if any(s is None for s in shapes) or any(s != shapes[0] for s in shapes):
        return None
    return ListOf(shapes[0])


def test_typed_generation_is_sound_and_inferred_shapes_conform():
    gen = TypedGenerator(random.Random(7))
    checked_inferred = 0
    for _ in range(250):
        t = gen.random_type()
        v = gen.random_conforming(t)
        assert type_check(v, t, gen.env) == [], (t, v)
        shape = _infer_shape(v, gen.env)
        if shape is not None:
            assert type_check(v, shape, gen.env) == [], (shape, v)
            checked_inferred += 1
    assert checked_inferred > 100
