"""Descriptors: structural compatibility, the recursive interface-only
signature rule, and descriptor-document generation."""

from __future__ import annotations

import json
import random

import pytest

from refbus import (
    ClassDescriptor,
    InterfaceDescriptor,
    InterfaceType,
    ListOf,
    MethodSig,
    Prim,
    RecordType,
)
from refbus.interfaces import check_closure, check_compat, describe
from refbus.values import TypeEnvironment
from refbus.scenarios import IPERSON, PERSON_CLASS, STUDENT_CLASS, INAMED_ENTITY


def _env(*, records=(), interfaces=(), classes=()) -> TypeEnvironment:
    env = TypeEnvironment()
    for name, fields in records:
        env.add_record(name, fields)
    for descriptor in interfaces:
        env.add_interface(descriptor)
    for descriptor in classes:
        env.add_class(descriptor)
    return env


# ---------------------------------------------------------------------------
# check_compat


def test_student_is_compatible_with_named_entity():
    assert check_compat(STUDENT_CLASS, INAMED_ENTITY) == []


def test_student_is_not_compatible_with_person():
    missing = check_compat(STUDENT_CLASS, IPERSON)
    # oracle: signature set difference computed independently
    student_names = {m.name for m in STUDENT_CLASS.methods}
    expected = sorted(m.name for m in IPERSON.methods if m.name not in student_names)
    assert sorted(m.name for m in missing) == expected
    assert expected == ["getAge", "getSpouse", "incrementAge", "setSpouse"]


def test_empty_interface_is_vacuously_compatible():
    assert check_compat(STUDENT_CLASS, InterfaceDescriptor("IEmpty")) == []


def test_compat_is_structural_not_just_names():
    cls = ClassDescriptor("C", methods=[MethodSig("getName", (), Prim.I64)])
    missing = check_compat(cls, INAMED_ENTITY)
    assert [m.name for m in missing] == ["getName"]

    cls_params = ClassDescriptor(
        "C2", methods=[MethodSig("setSpouse", (Prim.STR,), Prim.NULL)]
    )
    iface = InterfaceDescriptor(
        "I2", [MethodSig("setSpouse", (InterfaceType("I2"),), Prim.NULL)]
    )
    assert len(check_compat(cls_params, iface)) == 1


def test_no_method_overloading():
    with pytest.raises(ValueError):
        InterfaceDescriptor("I", [MethodSig("m"), MethodSig("m", (Prim.I64,))])


def test_class_state_fields_refuse_empty_names():
    # a snapshot with an empty field name would be refused by every receiver
    with pytest.raises(ValueError, match="^state field names in class 'C' must be non-empty$"):
        ClassDescriptor("C", [("", Prim.I64)])


@pytest.mark.parametrize("name", ["__resolve", "__snapshot"])
def test_reserved_method_names_cannot_be_declared(name):
    # every deployment answers these itself, so a declared one could never run
    with pytest.raises(ValueError):
        MethodSig(name, (), Prim.STR)


# ---------------------------------------------------------------------------
# check_closure


def test_person_interface_self_reference_is_fine():
    env = _env(interfaces=[IPERSON], classes=[PERSON_CLASS])
    assert check_closure(IPERSON, env) == []


def test_class_name_in_param_is_a_violation():
    env = _env(interfaces=[INAMED_ENTITY], classes=[STUDENT_CLASS])
    iface = InterfaceDescriptor(
        "IBad", [MethodSig("enroll", (InterfaceType("Student"),), Prim.NULL)]
    )
    violations = check_closure(iface, env)
    assert len(violations) == 1
    v = violations[0]
    assert (v.interface, v.method, v.position, v.offending) == (
        "IBad",
        "enroll",
        "param 0",
        "Student",
    )


def test_violation_found_through_interface_recursion():
    cls = ClassDescriptor("C")
    i2 = InterfaceDescriptor("I2", [MethodSig("leak", (), InterfaceType("C"))])
    i1 = InterfaceDescriptor("I1", [MethodSig("get", (), InterfaceType("I2"))])
    env = _env(interfaces=[i1, i2], classes=[cls])
    violations = check_closure(i1, env)
    assert [(v.interface, v.method, v.offending) for v in violations] == [
        ("I2", "leak", "C")
    ]


def test_violation_found_through_record_fields_and_lists():
    cls = ClassDescriptor("C")
    env = _env(
        records=[("Box", [("payload", ListOf(InterfaceType("C")))])],
        classes=[cls],
    )
    iface = InterfaceDescriptor("I", [MethodSig("take", (RecordType("Box"),), Prim.NULL)])
    violations = check_closure(iface, env)
    assert len(violations) == 1
    assert violations[0].offending == "C"
    assert "Box" in violations[0].position


def test_unresolved_name_is_a_violation():
    env = TypeEnvironment()
    iface = InterfaceDescriptor("I", [MethodSig("get", (), InterfaceType("Nowhere"))])
    violations = check_closure(iface, env)
    assert len(violations) == 1
    assert violations[0].reason == "does not resolve"


def test_record_types_are_permitted_in_signatures():
    env = _env(records=[("Pair", [("a", Prim.I64), ("b", Prim.I64)])])
    iface = InterfaceDescriptor("I", [MethodSig("sum", (RecordType("Pair"),), Prim.I64)])
    assert check_closure(iface, env) == []


def test_exhaustive_small_type_graphs_match_reachability_oracle():
    """Random type graphs of up to 6 nodes: acceptance must equal an
    independently computed reachability check (no class or dangling name
    reachable from the root interface)."""
    rng = random.Random(0x5EED)

    for _ in range(300):
        node_count = rng.randint(1, 6)
        kinds = {}
        names = [f"N{i}" for i in range(node_count)]
        kinds[names[0]] = "interface"
        for name in names[1:]:
            kinds[name] = rng.choice(["interface", "record", "class"])

        def random_typeref():
            if rng.random() < 0.4:
                return rng.choice([Prim.I64, Prim.STR, Prim.BOOL])
            target = rng.choice(names)
            wrapper = rng.random()
            if kinds[target] == "record":
                t = RecordType(target)
            else:
                t = InterfaceType(target)
            # sometimes reference a name with the "wrong" constructor kind,
            # sometimes a name that does not exist at all
            if rng.random() < 0.1:
                t = RecordType(target) if isinstance(t, InterfaceType) else InterfaceType(target)
            if rng.random() < 0.05:
                t = InterfaceType("missing")
            return ListOf(t) if wrapper < 0.2 else t

        env = TypeEnvironment()
        structure: dict[str, list] = {}
        for name in names:
            refs = [random_typeref() for _ in range(rng.randint(0, 3))]
            structure[name] = refs
            if kinds[name] == "interface":
                env.add_interface(
                    InterfaceDescriptor(
                        name, [MethodSig(f"m{i}", (t,)) for i, t in enumerate(refs)]
                    )
                )
            elif kinds[name] == "record":
                env.add_record(name, [(f"f{i}", t) for i, t in enumerate(refs)])
            else:
                env.add_class(ClassDescriptor(name))

        # independent oracle: walk the name graph, looking for any reachable
        # class or name that does not resolve to its referenced kind; returns
        # whether the graph is accepted and the names it reached
        def oracle() -> tuple[bool, set[str]]:
            seen = set()
            stack = [names[0]]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                for t in structure[current]:
                    while isinstance(t, ListOf):
                        t = t.elem
                    if isinstance(t, Prim):
                        continue
                    target = t.name
                    kind = kinds.get(target)
                    if kind is None or kind == "class":
                        return False, seen
                    if isinstance(t, RecordType) and kind != "record":
                        return False, seen
                    if isinstance(t, InterfaceType) and kind != "interface":
                        return False, seen
                    stack.append(target)
            return True, seen

        accepts, reached = oracle()
        violations = check_closure(env.interfaces[names[0]], env)
        assert (violations == []) == accepts, (structure, kinds, violations)

        # describe shares the walk: it fails exactly on rejected graphs and
        # otherwise lists every reached record and non-root interface
        if not accepts:
            with pytest.raises(LookupError):
                describe(env.interfaces[names[0]], env)
            continue
        doc = json.loads(describe(env.interfaces[names[0]], env))
        expected = reached - {names[0]}
        assert set(doc["records"]) == {n for n in expected if kinds[n] == "record"}
        assert set(doc["interfaces"]) == {n for n in expected if kinds[n] == "interface"}


# ---------------------------------------------------------------------------
# describe


def test_describe_named_entity_document():
    env = _env(interfaces=[INAMED_ENTITY])
    doc = json.loads(describe(INAMED_ENTITY, env))
    assert doc == {
        "interface": "INamedEntity",
        "methods": [{"name": "getName", "params": [], "returns": "str"}],
        "records": {},
        "interfaces": {},
    }


def test_describe_empty_interface():
    iface = InterfaceDescriptor("IEmpty")
    doc = json.loads(describe(iface, _env(interfaces=[iface])))
    assert doc["methods"] == []


def test_describe_collapses_self_reference_cycle():
    # oracle: manual expansion; IPerson's closure contains only IPerson
    # itself, which the document embeds exactly once, at the root
    env = _env(interfaces=[IPERSON])
    doc = json.loads(describe(IPERSON, env))
    assert doc["interface"] == "IPerson"
    assert [m["name"] for m in doc["methods"]] == [
        "getSpouse",
        "setSpouse",
        "getAge",
        "incrementAge",
    ]
    assert doc["interfaces"] == {}
    assert doc["records"] == {}


def test_describe_includes_transitive_closure_once():
    pair = ("Pair", [("a", Prim.I64), ("b", RecordType("Inner"))])
    inner = ("Inner", [("x", Prim.STR)])
    other = InterfaceDescriptor("IOther", [MethodSig("get", (), RecordType("Pair"))])
    iface = InterfaceDescriptor(
        "IRoot",
        [
            MethodSig("first", (), InterfaceType("IOther")),
            MethodSig("second", (), InterfaceType("IOther")),
        ],
    )
    env = _env(records=[pair, inner], interfaces=[other, iface])
    doc = json.loads(describe(iface, env))
    assert sorted(doc["interfaces"]) == ["IOther"]
    assert sorted(doc["records"]) == ["Inner", "Pair"]


def test_describe_is_deterministic():
    env = _env(interfaces=[IPERSON])
    assert describe(IPERSON, env) == describe(IPERSON, env)
    env2 = _env(interfaces=[IPERSON])
    assert describe(IPERSON, env) == describe(IPERSON, env2)
