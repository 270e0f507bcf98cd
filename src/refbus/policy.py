"""Transmission policy storage and resolution.

A policy chooses between copying a component's state across the wire
(BY_VALUE) and sending a remote reference to it (BY_REFERENCE); setting
anything else raises TypeError. Policies attach at four stored scopes
(class, method, parameter, return value) plus per-call overrides, and
resolution takes the first layer, in this order, that holds a policy:

    per-call param > per-call whole call > stored param/return
    > stored method > stored class > system default (BY_VALUE)

A per-call override governs only the arguments of its call: the serving
node marshals the result under its own stored policies, so a return
position has no per-call layers.

The stored scopes share one table keyed by ``(scope, names...)``. Class
policies key on the component's runtime class name; method, param, and
return policies on the deployed interface. Resolution never looks at the
value being transmitted, only at names and positions; values that are not
components always travel by value regardless of what resolution says.
"""

from __future__ import annotations

import threading
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Union

from .values import Record


class TransmissionPolicy(Enum):
    BY_VALUE = "BY_VALUE"
    BY_REFERENCE = "BY_REFERENCE"


BY_VALUE = TransmissionPolicy.BY_VALUE
BY_REFERENCE = TransmissionPolicy.BY_REFERENCE


def _check_policy(policy) -> None:
    if not isinstance(policy, TransmissionPolicy):
        raise TypeError(f"a policy is BY_VALUE or BY_REFERENCE, got {policy!r}")


class ParamPos(Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if isinstance(index, bool) or not isinstance(index, int):
            raise TypeError(f"parameter index must be an int, got {index!r}")
        if index < 0:
            raise ValueError("parameter index must be non-negative")
        object.__setattr__(self, "index", index)


class ReturnPos(Record):
    __slots__ = ()


RETURN = ReturnPos()

Position = Union[ParamPos, ReturnPos]


class CallOverride(Record):
    """Per-invocation policy overrides for the arguments of exactly one
    call. ``per_param`` is kept as a read-only copy, so the checks made
    here hold."""

    __slots__ = ("per_param", "whole_call")

    def __init__(
        self,
        per_param: Mapping[int, TransmissionPolicy] = MappingProxyType({}),
        whole_call: TransmissionPolicy | None = None,
    ):
        per_param = MappingProxyType(dict(per_param))
        for index, policy in per_param.items():
            ParamPos(index)
            _check_policy(policy)
        if whole_call is not None:
            _check_policy(whole_call)
        object.__setattr__(self, "per_param", per_param)
        object.__setattr__(self, "whole_call", whole_call)

    def __reduce__(self):
        # a mappingproxy neither pickles nor deep-copies; the dict it shows does
        return CallOverride, (dict(self.per_param), self.whole_call)


# The stored scopes, in dump() order, and how dump() spells their keys.
_SPELLING = {"classes": "{}", "methods": "{}.{}", "params": "{}.{}[{}]", "returns": "{}.{}"}


class PolicyStore:
    """Stored transmission policies for one node.

    Safe for concurrent reads and writes; a resolve observes either the
    pre- or post-write value of any key, never a torn mix. Unknown names
    are stored without complaint; they simply never match.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._table: dict[tuple, TransmissionPolicy] = {}

    def _set(self, key: tuple, policy: TransmissionPolicy):
        if not all(key[1:3]):  # the names; a param key's index follows them
            raise ValueError("policy names must be non-empty")
        _check_policy(policy)
        with self._lock:
            self._table[key] = policy

    def set_class_policy(self, class_name: str, policy: TransmissionPolicy):
        self._set(("classes", class_name), policy)

    def set_method_policy(self, iface_name: str, method_name: str, policy: TransmissionPolicy):
        self._set(("methods", iface_name, method_name), policy)

    def set_param_policy(
        self, iface_name: str, method_name: str, index: int, policy: TransmissionPolicy
    ):
        self._set(("params", iface_name, method_name, ParamPos(index).index), policy)

    def set_return_policy(self, iface_name: str, method_name: str, policy: TransmissionPolicy):
        self._set(("returns", iface_name, method_name), policy)

    def resolve(
        self,
        position: Position,
        iface_name: str,
        method_name: str,
        runtime_class_name: str | None = None,
        override: CallOverride | None = None,
    ) -> TransmissionPolicy:
        """Effective policy for one transmitted position; total and
        deterministic. ``override`` applies only at a ParamPos."""
        per_call = None
        if isinstance(position, ParamPos):
            if override:
                per_call = override.per_param.get(position.index) or override.whole_call
            stored = ("params", iface_name, method_name, position.index)
        else:
            stored = ("returns", iface_name, method_name)
        return (
            per_call
            or self._table.get(stored)
            or self._table.get(("methods", iface_name, method_name))
            or (runtime_class_name and self._table.get(("classes", runtime_class_name)))
            or BY_VALUE
        )

    def dump(self) -> dict:
        """Read-only snapshot of the stored policies."""
        out = {"default": BY_VALUE.value, **{scope: {} for scope in _SPELLING}}
        with self._lock:
            entries = sorted(self._table.items())
        for (scope, *names), policy in entries:
            out[scope][_SPELLING[scope].format(*names)] = policy.value
        return out
