"""Transmission policy storage and resolution.

A policy chooses between copying a component's state across the wire
(BY_VALUE) and sending a remote reference to it (BY_REFERENCE). Policies
attach at four stored scopes (class, method, parameter, return value)
plus per-call overrides, and resolution picks the most specific layer
present:

    per-call position > per-call whole call > stored param/return
    > stored method > stored class > system default (BY_VALUE)

Class policies key on the component's runtime class name; method, param,
and return policies key on the deployed interface. Resolution never looks
at the value being transmitted, only at names and positions; values that
are not components always travel by value regardless of what resolution
says.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union


class TransmissionPolicy(Enum):
    BY_VALUE = "BY_VALUE"
    BY_REFERENCE = "BY_REFERENCE"


BY_VALUE = TransmissionPolicy.BY_VALUE
BY_REFERENCE = TransmissionPolicy.BY_REFERENCE


@dataclass(frozen=True)
class ParamPos:
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("parameter index must be non-negative")


@dataclass(frozen=True)
class ReturnPos:
    pass


RETURN = ReturnPos()

Position = Union[ParamPos, ReturnPos]


@dataclass(frozen=True)
class CallOverride:
    """Per-invocation policy overrides; applies to exactly one call."""

    per_param: Mapping[int, TransmissionPolicy] = field(default_factory=dict)
    for_return: TransmissionPolicy | None = None
    whole_call: TransmissionPolicy | None = None


class PolicyStore:
    """Stored transmission policies for one node.

    Safe for concurrent reads and writes; a resolve observes either the
    pre- or post-write value of any key, never a torn mix. Unknown names
    are stored without complaint; they simply never match.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._classes: dict[str, TransmissionPolicy] = {}
        self._methods: dict[tuple[str, str], TransmissionPolicy] = {}
        self._params: dict[tuple[str, str, int], TransmissionPolicy] = {}
        self._returns: dict[tuple[str, str], TransmissionPolicy] = {}

    @staticmethod
    def _require(*names: str):
        for name in names:
            if not name:
                raise ValueError("policy names must be non-empty")

    def set_class_policy(self, class_name: str, policy: TransmissionPolicy):
        self._require(class_name)
        with self._lock:
            self._classes[class_name] = policy

    def set_method_policy(self, iface_name: str, method_name: str, policy: TransmissionPolicy):
        self._require(iface_name, method_name)
        with self._lock:
            self._methods[(iface_name, method_name)] = policy

    def set_param_policy(
        self, iface_name: str, method_name: str, index: int, policy: TransmissionPolicy
    ):
        self._require(iface_name, method_name)
        ParamPos(index)  # refuses a negative index
        with self._lock:
            self._params[(iface_name, method_name, index)] = policy

    def set_return_policy(self, iface_name: str, method_name: str, policy: TransmissionPolicy):
        self._require(iface_name, method_name)
        with self._lock:
            self._returns[(iface_name, method_name)] = policy

    def resolve(
        self,
        position: Position,
        iface_name: str,
        method_name: str,
        runtime_class_name: str | None = None,
        override: CallOverride | None = None,
    ) -> TransmissionPolicy:
        """Effective policy for one transmitted position; total and deterministic."""
        if override is not None:
            if isinstance(position, ParamPos):
                p = override.per_param.get(position.index)
            else:
                p = override.for_return
            if p is not None:
                return p
            if override.whole_call is not None:
                return override.whole_call
        if isinstance(position, ParamPos):
            p = self._params.get((iface_name, method_name, position.index))
        else:
            p = self._returns.get((iface_name, method_name))
        if p is not None:
            return p
        p = self._methods.get((iface_name, method_name))
        if p is not None:
            return p
        if runtime_class_name is not None:
            p = self._classes.get(runtime_class_name)
            if p is not None:
                return p
        return BY_VALUE

    def dump(self) -> dict:
        """Read-only snapshot of the stored policies."""
        with self._lock:
            return {
                "default": BY_VALUE.value,
                "classes": {k: v.value for k, v in sorted(self._classes.items())},
                "methods": {
                    f"{i}.{m}": v.value for (i, m), v in sorted(self._methods.items())
                },
                "params": {
                    f"{i}.{m}[{n}]": v.value
                    for (i, m, n), v in sorted(self._params.items())
                },
                "returns": {
                    f"{i}.{m}": v.value for (i, m), v in sorted(self._returns.items())
                },
            }
