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
    UnknownMethodError,
    VInt,
    VList,
    VRecord,
    VStr,
    snapshot_instance,
    value_equals,
)
from refbus.values import NULL
from refbus.scenarios import PERSON_CLASS, STUDENT_CLASS, Person, Student


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
    snap = ComponentHandle(Student("Bobby Jones", 1234), STUDENT_CLASS).snapshot()
    expected = VRecord(
        "Student", [("name", VStr("Bobby Jones")), ("matricNumber", VInt(1234))]
    )
    assert value_equals(snap, expected)


def test_snapshot_person_omits_spouse():
    # only declared state fields appear, in declaration order
    john = Person("John Brown", 35)
    john.setSpouse(Person("Mary Smith", 40))
    snap = snapshot_instance(john, PERSON_CLASS)
    assert [name for name, _ in snap.fields] == ["name", "age"]


def test_snapshot_none_becomes_null():
    student = Student(None, 7)
    snap = snapshot_instance(student, STUDENT_CLASS)
    assert snap.get("name") == NULL


def test_snapshot_list_field():
    class Roster:
        def __init__(self, tags):
            self.tags = tags

    descriptor = ClassDescriptor("Roster", state_fields=[("tags", ListOf(Prim.STR))])
    snap = snapshot_instance(Roster(["a", "b"]), descriptor)
    assert value_equals(snap.get("tags"), VList([VStr("a"), VStr("b")]))


def test_snapshot_rejects_live_reference_fields():
    class Holder:
        def __init__(self, item):
            self.item = item

    descriptor = ClassDescriptor("Holder", state_fields=[("item", InterfaceType("I"))])
    assert snapshot_instance(Holder(None), descriptor).get("item") == NULL
    with pytest.raises(InternalFaultError):
        snapshot_instance(Holder(object()), descriptor)


def test_snapshot_rejects_state_type_mismatch():
    student = Student("name", "not-an-int")
    with pytest.raises(InternalFaultError):
        snapshot_instance(student, STUDENT_CLASS)


def test_snapshot_rejects_out_of_range_int():
    with pytest.raises(InternalFaultError):
        snapshot_instance(Person("X", 2**70), PERSON_CLASS)
