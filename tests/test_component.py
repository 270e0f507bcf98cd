"""Component handles: skeleton dispatch and state snapshots."""

from __future__ import annotations

import pytest

from refbus import (
    ClassDescriptor,
    ComponentHandle,
    InterfaceType,
    InternalFaultError,
    ListOf,
    MethodSig,
    Prim,
    RecordType,
    UnknownMethodError,
)
from refbus.component import snapshot_instance
from refbus.values import NULL, TypeEnvironment, VInt, VList, VRecord, VStr
from refbus.scenarios import PERSON_CLASS, STUDENT_CLASS, Person, Student

# The record types that state in these tests may hold.
ENV = TypeEnvironment()
ENV.add_record("Pt", [("x", Prim.I64), ("label", Prim.STR)])


def test_invoke_dispatches_declared_methods():
    handle = ComponentHandle(Student("Bobby Jones", 1234), STUDENT_CLASS)
    assert handle.invoke("getName", []) == "Bobby Jones"
    assert handle.invoke("getMatriculationNumber", []) == 1234


def test_invoke_is_confined_to_the_descriptor():
    class Chatty(Student):
        def secret(self):
            return "hidden"

    handle = ComponentHandle(Chatty("x", 1), STUDENT_CLASS)
    with pytest.raises(UnknownMethodError):
        handle.invoke("secret", [])


def test_wrap_fails_fast_on_missing_method():
    descriptor = ClassDescriptor("Student", methods=[MethodSig("fly", (), Prim.NULL)])
    with pytest.raises(TypeError):
        ComponentHandle(Student("x", 1), descriptor)


def test_identity_defaults_to_instance_identity():
    student = Student("x", 1)
    assert ComponentHandle(student, STUDENT_CLASS).identity == id(student)


def test_snapshot_student():
    snap = snapshot_instance(Student("Bobby Jones", 1234), STUDENT_CLASS, ENV)
    expected = VRecord(
        "Student", [("name", VStr("Bobby Jones")), ("matricNumber", VInt(1234))]
    )
    assert snap == expected


def test_snapshot_person_omits_spouse():
    # only declared state fields appear, in declaration order
    john = Person("John Brown", 35)
    john.setSpouse(Person("Mary Smith", 40))
    snap = snapshot_instance(john, PERSON_CLASS, ENV)
    assert [name for name, _ in snap.fields] == ["name", "age"]


def test_snapshot_none_becomes_null():
    student = Student(None, 7)
    snap = snapshot_instance(student, STUDENT_CLASS, ENV)
    assert snap.get("name") == NULL


def test_snapshot_list_field():
    class Roster:
        def __init__(self, tags):
            self.tags = tags

    descriptor = ClassDescriptor("Roster", state_fields=[("tags", ListOf(Prim.STR))])
    snap = snapshot_instance(Roster(["a", "b"]), descriptor, ENV)
    assert snap.get("tags") == VList([VStr("a"), VStr("b")])


def test_snapshot_rejects_live_reference_fields():
    class Holder:
        def __init__(self, item):
            self.item = item

    descriptor = ClassDescriptor("Holder", state_fields=[("item", InterfaceType("I"))])
    assert snapshot_instance(Holder(None), descriptor, ENV).get("item") == NULL
    with pytest.raises(InternalFaultError):
        snapshot_instance(Holder(object()), descriptor, ENV)


def test_snapshot_rejects_state_type_mismatch():
    student = Student("name", "not-an-int")
    with pytest.raises(InternalFaultError):
        snapshot_instance(student, STUDENT_CLASS, ENV)


def test_snapshot_rejects_out_of_range_int():
    with pytest.raises(InternalFaultError):
        snapshot_instance(Person("X", 2**70), PERSON_CLASS, ENV)


def test_snapshot_rejects_lone_surrogate():
    with pytest.raises(InternalFaultError):
        snapshot_instance(Person("\ud800", 3), PERSON_CLASS, ENV)


class _Holder:
    def __init__(self, item):
        self.item = item


@pytest.mark.parametrize(
    "declared, item, message",
    [
        (Prim.I64, "7", "str does not fit i64"),
        (Prim.I64, 2**70, "VInt out of 64-bit signed range: 1180591620717411303424"),
        (Prim.STR, object(), "object does not fit str"),
        (ListOf(Prim.STR), "ab", "str does not fit list<str>"),
        (ListOf(Prim.STR), ["a", 1], "int does not fit str"),
        (Prim.I64, [1], "list does not fit i64"),
        (RecordType("R"), VRecord("S", []), "VRecord does not fit record R"),
        (InterfaceType("I"), object(), "a live reference has no by-value form"),
        # a held record is checked against its record type
        (RecordType("Pt"), VRecord("Pt", [("x", VStr("1")), ("label", VStr("a"))]),
         "$.x: expected i64, got str"),
        (RecordType("Pt"), VRecord("Pt", [("x", VInt(1))]), "$: record 'Pt' has 1 fields, expected 2"),
    ],
)
def test_snapshot_fault_names_the_field_and_the_misfit(declared, item, message):
    descriptor = ClassDescriptor("Holder", state_fields=[("item", declared)])
    with pytest.raises(InternalFaultError) as info:
        snapshot_instance(_Holder(item), descriptor, ENV)
    assert str(info.value) == f"cannot snapshot Holder.item: {message}"


def test_snapshot_of_a_missing_state_attribute_is_an_internal_fault():
    half = Person("Half", 3)
    del half.age
    with pytest.raises(InternalFaultError) as info:
        snapshot_instance(half, PERSON_CLASS, ENV)
    assert str(info.value) == "cannot snapshot Person.age: 'Person' object has no attribute 'age'"


def test_snapshot_keeps_a_record_held_as_state():
    point = VRecord("Pt", [("x", VInt(1)), ("label", VStr("a"))])
    descriptor = ClassDescriptor("Holder", state_fields=[("item", RecordType("Pt"))])
    assert snapshot_instance(_Holder(point), descriptor, ENV).get("item") is point
