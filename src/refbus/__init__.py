"""refbus: expose live component instances for remote invocation over HTTP.

A Node deploys specific, pre-existing component instances behind
structural interfaces, serves them at name- and object-number-based
endpoints, and lets callers choose, per class, method, parameter, return
value, or individual call, whether arguments travel by value (a state
copy) or by reference (a remote reference that preserves identity).

This package exports what a user of nodes needs: the node, the type
grammar and descriptors, transmission policies, and the error classes.
The wire format, the value model and the node's tables live in their
submodules (``refbus.wire``, ``refbus.values``, ``refbus.registry``, ...).
"""

from .client import CallOptions
from .component import ComponentHandle
from .errors import (
    BadEnvelopeError,
    CallTimeout,
    FaultCode,
    FaultError,
    IncompatibleComponentError,
    InternalFaultError,
    InvalidNameError,
    NameInUseError,
    NetworkError,
    NonInterfaceSignatureError,
    RefbusError,
    ScenarioFailed,
    TypeMismatchError,
    UnknownInterfaceError,
    UnknownMethodError,
    UnknownServiceError,
)
from .interfaces import ClassDescriptor, InterfaceDescriptor, MethodSig
from .node import Node
from .policy import BY_REFERENCE, BY_VALUE, CallOverride
from .values import InterfaceType, ListOf, Prim, RecordType

__version__ = "0.1.0"

__all__ = [
    "BY_REFERENCE",
    "BY_VALUE",
    "BadEnvelopeError",
    "CallOptions",
    "CallOverride",
    "CallTimeout",
    "ClassDescriptor",
    "ComponentHandle",
    "FaultCode",
    "FaultError",
    "IncompatibleComponentError",
    "InterfaceDescriptor",
    "InterfaceType",
    "InternalFaultError",
    "InvalidNameError",
    "ListOf",
    "MethodSig",
    "NameInUseError",
    "NetworkError",
    "Node",
    "NonInterfaceSignatureError",
    "Prim",
    "RecordType",
    "RefbusError",
    "ScenarioFailed",
    "TypeMismatchError",
    "UnknownInterfaceError",
    "UnknownMethodError",
    "UnknownServiceError",
]
