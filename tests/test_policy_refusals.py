"""What a policy store and a call override refuse: a policy that is not a
TransmissionPolicy, an empty name, and a per-parameter key that is not a
parameter index."""

from __future__ import annotations

import pytest

from refbus import BY_REFERENCE, BY_VALUE, CallOverride
from refbus.policy import RETURN, ParamPos, PolicyStore

_SETTERS = [
    ("set_class_policy", ("Person",)),
    ("set_method_policy", ("IPerson", "setSpouse")),
    ("set_param_policy", ("IPerson", "setSpouse", 0)),
    ("set_return_policy", ("IPerson", "getSpouse")),
]
_EMPTY_DUMP = {"default": "BY_VALUE", "classes": {}, "methods": {}, "params": {}, "returns": {}}


@pytest.mark.parametrize("setter, names", _SETTERS, ids=[s for s, _ in _SETTERS])
@pytest.mark.parametrize("policy", ["BY_REFERENCE", None, 1])
def test_a_stored_policy_is_a_transmission_policy(setter, names, policy):
    store = PolicyStore()
    with pytest.raises(TypeError, match="^a policy is BY_VALUE or BY_REFERENCE, got "):
        getattr(store, setter)(*names, policy)
    assert store.dump() == _EMPTY_DUMP
    for position in (ParamPos(0), RETURN):
        assert store.resolve(position, "IPerson", "setSpouse", "Person") is BY_VALUE
        assert store.resolve(position, "IPerson", "getSpouse", "Person") is BY_VALUE


@pytest.mark.parametrize("setter, names", _SETTERS, ids=[s for s, _ in _SETTERS])
def test_a_policy_name_is_non_empty(setter, names):
    store = PolicyStore()
    for i, name in enumerate(names):
        if isinstance(name, int):
            continue
        blank = (*names[:i], "", *names[i + 1 :])
        with pytest.raises(ValueError, match="^policy names must be non-empty$"):
            getattr(store, setter)(*blank, BY_REFERENCE)
    assert store.dump() == _EMPTY_DUMP


@pytest.mark.parametrize(
    "fields",
    [
        {"whole_call": "BY_REFERENCE"},
        {"whole_call": 1},
        {"per_param": {0: "BY_REFERENCE"}},
        {"per_param": {0: BY_VALUE, 1: None}},
    ],
)
def test_a_call_override_holds_transmission_policies(fields):
    with pytest.raises(TypeError, match="^a policy is BY_VALUE or BY_REFERENCE, got "):
        CallOverride(**fields)


@pytest.mark.parametrize(
    "key, error",
    [("0", TypeError), (True, TypeError), (1.0, TypeError), (None, TypeError), (-1, ValueError)],
)
def test_a_per_param_key_is_a_parameter_index(key, error):
    with pytest.raises(error, match="^parameter index must be"):
        CallOverride(per_param={key: BY_REFERENCE})
    with pytest.raises(error, match="^parameter index must be"):
        ParamPos(key)


def test_dump_spells_every_scope():
    store = PolicyStore()
    store.set_return_policy("IPerson", "getSpouse", BY_REFERENCE)
    store.set_param_policy("IPerson", "setSpouse", 10, BY_REFERENCE)
    store.set_param_policy("IPerson", "setSpouse", 2, BY_VALUE)
    store.set_method_policy("IPerson", "setSpouse", BY_VALUE)
    store.set_method_policy("IAnimal", "feed", BY_REFERENCE)
    store.set_class_policy("Student", BY_REFERENCE)
    store.set_class_policy("Person", BY_VALUE)
    dump = store.dump()
    assert dump == {
        "default": "BY_VALUE",
        "classes": {"Person": "BY_VALUE", "Student": "BY_REFERENCE"},
        "methods": {"IAnimal.feed": "BY_REFERENCE", "IPerson.setSpouse": "BY_VALUE"},
        "params": {"IPerson.setSpouse[2]": "BY_VALUE", "IPerson.setSpouse[10]": "BY_REFERENCE"},
        "returns": {"IPerson.getSpouse": "BY_REFERENCE"},
    }
    # each section is sorted by its stored key, so index 2 precedes index 10
    assert [list(section) for section in dump.values()][1:] == [
        ["Person", "Student"],
        ["IAnimal.feed", "IPerson.setSpouse"],
        ["IPerson.setSpouse[2]", "IPerson.setSpouse[10]"],
        ["IPerson.getSpouse"],
    ]


def test_a_call_override_keeps_a_read_only_copy_of_per_param():
    """Changing the caller's dict afterwards changes nothing, and the
    override's own mapping refuses assignment, so its checks still hold."""
    given = {0: BY_VALUE}
    override = CallOverride(per_param=given)
    given[0] = "BY_REFERENCE"
    given[True] = BY_REFERENCE
    store = PolicyStore()
    assert store.resolve(ParamPos(0), "IPerson", "setSpouse", "Person", override) is BY_VALUE
    assert store.resolve(ParamPos(1), "IPerson", "setSpouse", "Person", override) is BY_VALUE
    with pytest.raises(TypeError):
        override.per_param[0] = "BY_REFERENCE"
    assert dict(override.per_param) == {0: BY_VALUE}
