"""Object table and proxy intern table semantics."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from refbus import (
    ComponentHandle,
    InvalidNameError,
    NameInUseError,
    UnknownServiceError,
)
from refbus.registry import ObjectTable, ProxyTable
from refbus.values import Ior
from refbus.scenarios import (
    IMATRICULATED,
    INAMED_ENTITY,
    STUDENT_CLASS,
    Student,
)


def _handle(name="Bobby Jones", number=1234) -> ComponentHandle:
    return ComponentHandle(Student(name, number), STUDENT_CLASS)


# ---------------------------------------------------------------------------
# names


def test_bind_name_and_lookup():
    table = ObjectTable()
    dep = table.add(_handle(), INAMED_ENTITY)
    table.bind_name("bob", dep)
    assert table.lookup_name("bob") is dep
    assert "bob" in dep.names


@pytest.mark.parametrize("name", ["", "a/b", "a?b", "obj/3", "my comp", "café", "a\tb"])
def test_bind_rejects_invalid_names(name):
    table = ObjectTable()
    dep = table.add(_handle(), INAMED_ENTITY)
    with pytest.raises(InvalidNameError):
        table.bind_name(name, dep)


def test_rebinding_same_deployment_is_idempotent():
    table = ObjectTable()
    dep = table.add(_handle(), INAMED_ENTITY)
    table.bind_name("bob", dep)
    table.bind_name("bob", dep)
    assert table.lookup_name("bob") is dep
    assert dep.names == {"bob"}


def test_binding_name_to_different_deployment_fails():
    table = ObjectTable()
    dep1 = table.add(_handle(), INAMED_ENTITY)
    dep2 = table.add(_handle("Other", 1), INAMED_ENTITY)
    table.bind_name("bob", dep1)
    with pytest.raises(NameInUseError):
        table.bind_name("bob", dep2)


def test_one_deployment_may_carry_several_names():
    table = ObjectTable()
    dep = table.add(_handle(), INAMED_ENTITY)
    table.bind_name("bob", dep)
    table.bind_name("robert", dep)
    assert table.lookup_name("robert") is dep
    assert dep.names == {"bob", "robert"}


# ---------------------------------------------------------------------------
# object numbers


def test_object_numbers_start_at_zero_and_increment():
    # oracle: plain counter semantics
    table = ObjectTable()
    first = table.export(_handle(), INAMED_ENTITY, "h", 80)
    second = table.export(_handle("Jane", 2), INAMED_ENTITY, "h", 80)
    assert (first.object_number, second.object_number) == (0, 1)


def test_export_is_idempotent_per_component_and_interface():
    table = ObjectTable()
    handle = _handle()
    first = table.export(handle, INAMED_ENTITY, "h", 80)
    second = table.export(handle, INAMED_ENTITY, "h", 80)
    assert first == second
    assert len(table.deployments()) == 1


def test_one_component_under_two_interfaces_gets_two_deployments():
    table = ObjectTable()
    handle = _handle()
    named = table.export(handle, INAMED_ENTITY, "h", 80)
    matric = table.export(handle, IMATRICULATED, "h", 80)
    assert named.object_number != matric.object_number
    assert named.interface_name == "INamedEntity"
    assert matric.interface_name == "IMatriculated"
    assert len(table.deployments()) == 2


def test_named_deployment_gets_number_lazily():
    table = ObjectTable()
    dep = table.add(_handle(), INAMED_ENTITY)
    table.bind_name("bob", dep)
    assert dep.object_number is None
    ior = table.export(dep.component, dep.iface, "h", 80)
    assert ior.object_number == 0
    assert dep.object_number == 0
    assert table.resolve(0) is dep


def test_resolve_known_and_unknown():
    table = ObjectTable()
    ior = table.export(_handle(), INAMED_ENTITY, "h", 80)
    assert table.resolve(ior.object_number).component.instance.getName() == "Bobby Jones"
    with pytest.raises(UnknownServiceError):
        table.resolve(99)


def test_same_instance_wrapped_twice_coalesces_to_one_handle():
    table = ObjectTable()
    student = Student("Bobby Jones", 1234)
    h1 = ComponentHandle(student, STUDENT_CLASS)
    h2 = ComponentHandle(student, STUDENT_CLASS)
    dep1 = table.add(h1, INAMED_ENTITY)
    dep2 = table.add(h2, INAMED_ENTITY)
    assert dep1 is dep2
    assert dep1.component is h1


def test_concurrent_exports_unique_and_resolvable():
    table = ObjectTable()
    handles = [_handle(f"S{i}", i) for i in range(50)]
    iors = []
    lock = threading.Lock()

    def export(i):
        ior = table.export(handles[i % 50], INAMED_ENTITY, "h", 80)
        with lock:
            iors.append((i % 50, ior))

    with ThreadPoolExecutor(max_workers=16) as pool:
        list(pool.map(export, range(400)))

    numbers = {ior.object_number for _, ior in iors}
    assert len(numbers) == 50
    assert len(table.deployments()) == 50
    for idx, ior in iors:
        dep = table.resolve(ior.object_number)
        assert dep.component is handles[idx]
    # object numbers are exactly 0..49, never reused or skipped
    assert numbers == set(range(50))


def test_name_and_object_tables_agree():
    table = ObjectTable()
    dep = table.add(_handle(), INAMED_ENTITY)
    table.bind_name("bob", dep)
    table.export(dep.component, dep.iface, "h", 80)
    assert table.resolve(dep.object_number) is table.lookup_name("bob")


# ---------------------------------------------------------------------------
# proxy interning


def test_intern_same_key_returns_identical_handle():
    proxies = ProxyTable()
    ior = Ior("h", 80, 3, "I")
    made = []

    def factory(i):
        made.append(i)
        return object()

    first = proxies.intern(ior, factory)
    second = proxies.intern(Ior("h", 80, 3, "I"), factory)
    assert first is second
    assert len(made) == 1


def test_intern_distinguishes_every_key_field():
    proxies = ProxyTable()
    base = Ior("h", 80, 3, "I")
    variants = [
        Ior("other", 80, 3, "I"),
        Ior("h", 81, 3, "I"),
        Ior("h", 80, 4, "I"),
        Ior("h", 80, 3, "J"),
    ]
    first = proxies.intern(base, lambda i: object())
    for variant in variants:
        assert proxies.intern(variant, lambda i: object()) is not first


def test_proxy_key_equality_is_fieldwise():
    # ProxyTable keys on the Ior itself
    a = Ior("h", 80, 3, "I")
    b = Ior("h", 80, 3, "I")
    assert a is not b
    assert a == b and hash(a) == hash(b)
    proxies = ProxyTable()
    assert proxies.intern(a, lambda i: object()) is proxies.intern(b, lambda i: object())


def test_concurrent_intern_single_winner():
    proxies = ProxyTable()
    ior = Ior("h", 80, 3, "I")
    results = []
    lock = threading.Lock()

    def intern():
        p = proxies.intern(ior, lambda i: object())
        with lock:
            results.append(p)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: intern(), range(100)))
    assert len({id(p) for p in results}) == 1
