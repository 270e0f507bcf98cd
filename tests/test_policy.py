"""Transmission policy resolution: examples, exhaustive precedence matrix,
totality."""

from __future__ import annotations

import itertools
import threading

import pytest

from refbus import BY_REFERENCE, BY_VALUE, CallOverride
from refbus.policy import RETURN, ParamPos, PolicyStore


def test_empty_store_defaults_to_by_value():
    store = PolicyStore()
    assert store.resolve(ParamPos(0), "IPerson", "setSpouse", "Person") is BY_VALUE
    assert store.resolve(RETURN, "IPerson", "getSpouse", "Person") is BY_VALUE


def test_class_policy_requires_exact_runtime_class():
    # rule-table walk: only the stored class name matches layer 5
    store = PolicyStore()
    store.set_class_policy("Student", BY_REFERENCE)
    assert store.resolve(ParamPos(0), "IPerson", "setSpouse", "Person") is BY_VALUE
    assert store.resolve(ParamPos(0), "IPerson", "setSpouse", "Student") is BY_REFERENCE
    assert store.resolve(ParamPos(0), "IPerson", "setSpouse", None) is BY_VALUE


def test_no_class_name_looks_up_no_class_key():
    """("classes", None) can never be stored, so it is never looked up."""

    class Table(dict):
        def get(self, key, default=None):
            looked_up.append(key)
            return super().get(key, default)

    looked_up = []
    store = PolicyStore()
    store.set_class_policy("Student", BY_REFERENCE)
    store._table = Table(store._table)
    assert store.resolve(ParamPos(0), "IPerson", "setSpouse", None) is BY_VALUE
    assert store.resolve(RETURN, "IPerson", "getSpouse", "Student") is BY_REFERENCE
    assert ("classes", None) not in looked_up and ("classes", "Student") in looked_up


def test_method_policy_beats_class_policy():
    store = PolicyStore()
    store.set_class_policy("Person", BY_REFERENCE)
    store.set_method_policy("IPerson", "setSpouse", BY_VALUE)
    assert store.resolve(ParamPos(0), "IPerson", "setSpouse", "Person") is BY_VALUE
    # other methods still see the class policy
    assert store.resolve(ParamPos(0), "IPerson", "marry", "Person") is BY_REFERENCE


def test_param_policy_beats_method_policy():
    store = PolicyStore()
    store.set_method_policy("IPerson", "setSpouse", BY_VALUE)
    store.set_param_policy("IPerson", "setSpouse", 0, BY_REFERENCE)
    assert store.resolve(ParamPos(0), "IPerson", "setSpouse", "Person") is BY_REFERENCE
    assert store.resolve(ParamPos(1), "IPerson", "setSpouse", "Person") is BY_VALUE


def test_a_parameter_index_is_non_negative():
    store = PolicyStore()
    for refuse in (lambda: ParamPos(-1), lambda: store.set_param_policy("I", "m", -1, BY_VALUE)):
        with pytest.raises(ValueError, match="^parameter index must be non-negative$"):
            refuse()
    assert store.dump()["params"] == {}


def test_return_policy_is_its_own_key():
    store = PolicyStore()
    store.set_return_policy("IPerson", "getSpouse", BY_REFERENCE)
    assert store.resolve(RETURN, "IPerson", "getSpouse", None) is BY_REFERENCE
    assert store.resolve(ParamPos(0), "IPerson", "getSpouse", None) is BY_VALUE


def test_override_layers_outrank_stored_policies():
    store = PolicyStore()
    store.set_param_policy("IPerson", "setSpouse", 0, BY_VALUE)
    override = CallOverride(whole_call=BY_REFERENCE)
    assert (
        store.resolve(ParamPos(0), "IPerson", "setSpouse", "Person", override)
        is BY_REFERENCE
    )
    override = CallOverride(per_param={0: BY_VALUE}, whole_call=BY_REFERENCE)
    assert (
        store.resolve(ParamPos(0), "IPerson", "setSpouse", "Person", override)
        is BY_VALUE
    )
    assert (
        store.resolve(ParamPos(1), "IPerson", "setSpouse", "Person", override)
        is BY_REFERENCE
    )


def test_last_write_wins_per_key():
    store = PolicyStore()
    store.set_class_policy("Student", BY_REFERENCE)
    store.set_class_policy("Student", BY_VALUE)
    assert store.resolve(ParamPos(0), "I", "m", "Student") is BY_VALUE


_CHOICES = (None, BY_VALUE, BY_REFERENCE)


def _expected(layers, default):
    """Independent statement of the precedence rule: first populated layer,
    else the system default."""
    for layer in layers:
        if layer is not None:
            return layer
    return default


def test_exhaustive_precedence_matrix_param_position():
    overrides_cases = list(itertools.product(_CHOICES, _CHOICES))  # per-param, whole-call
    stored_cases = list(itertools.product(_CHOICES, _CHOICES, _CHOICES))  # param, method, class
    failures = 0
    for default in (BY_VALUE,):  # the system default, which is fixed
        for per_param, whole_call in overrides_cases:
            for p_param, p_method, p_class in stored_cases:
                store = PolicyStore()
                if p_param is not None:
                    store.set_param_policy("I", "m", 0, p_param)
                if p_method is not None:
                    store.set_method_policy("I", "m", p_method)
                if p_class is not None:
                    store.set_class_policy("C", p_class)
                override = None
                if per_param is not None or whole_call is not None:
                    override = CallOverride(
                        per_param={} if per_param is None else {0: per_param},
                        whole_call=whole_call,
                    )
                got = store.resolve(ParamPos(0), "I", "m", "C", override)
                want = _expected((per_param, whole_call, p_param, p_method, p_class), default)
                if got is not want:
                    failures += 1
    assert failures == 0


def test_exhaustive_precedence_matrix_return_position():
    """A return position has only the stored layers: the serving node
    marshals a result with no per-call override, and resolve ignores one
    given at a return position."""
    overrides = [None] + [CallOverride(per_param={0: p}, whole_call=p) for p in _CHOICES[1:]]
    failures = 0
    for default in (BY_VALUE,):  # the system default, which is fixed
        for p_return, p_method, p_class in itertools.product(_CHOICES, _CHOICES, _CHOICES):
            store = PolicyStore()
            if p_return is not None:
                store.set_return_policy("I", "m", p_return)
            if p_method is not None:
                store.set_method_policy("I", "m", p_method)
            if p_class is not None:
                store.set_class_policy("C", p_class)
            want = _expected((p_return, p_method, p_class), default)
            for override in overrides:
                if store.resolve(RETURN, "I", "m", "C", override) is not want:
                    failures += 1
    assert failures == 0


def test_resolution_is_total_over_unknown_names():
    store = PolicyStore()
    store.set_method_policy("ghost", "unseen", BY_REFERENCE)
    assert store.resolve(ParamPos(7), "no-such-iface", "no-such-method", None) is BY_VALUE
    assert store.resolve(RETURN, "", "", "") is BY_VALUE


def test_concurrent_reads_and_writes_never_tear():
    store = PolicyStore()
    stop = threading.Event()
    seen = []

    def writer():
        flip = True
        while not stop.is_set():
            store.set_method_policy("I", "m", BY_REFERENCE if flip else BY_VALUE)
            flip = not flip

    def reader():
        while not stop.is_set():
            seen.append(store.resolve(ParamPos(0), "I", "m", None))

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for t in threads:
        t.start()
    stop_timer = threading.Timer(0.2, stop.set)
    stop_timer.start()
    for t in threads:
        t.join()
    stop_timer.cancel()
    assert seen
    assert all(p in (BY_VALUE, BY_REFERENCE) for p in seen)


def test_dump_snapshot():
    store = PolicyStore()
    store.set_class_policy("Student", BY_REFERENCE)
    store.set_param_policy("IPerson", "setSpouse", 0, BY_VALUE)
    dump = store.dump()
    assert dump["default"] == "BY_VALUE"
    assert dump["classes"] == {"Student": "BY_REFERENCE"}
    assert dump["params"] == {"IPerson.setSpouse[0]": "BY_VALUE"}
