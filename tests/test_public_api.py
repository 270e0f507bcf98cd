"""The package surface: `import refbus` gives the user-facing API only, and
everything else is imported from the one submodule that defines it."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import refbus

PUBLIC = {
    # nodes, the type grammar and descriptors
    "Node", "Prim", "ListOf", "RecordType", "InterfaceType", "MethodSig",
    "InterfaceDescriptor", "ClassDescriptor", "ComponentHandle",
    # transmission policies
    "BY_VALUE", "BY_REFERENCE", "CallOptions", "CallOverride",
    # faults and errors
    "FaultCode", "RefbusError", "FaultError", "UnknownServiceError",
    "UnknownMethodError", "TypeMismatchError", "BadEnvelopeError",
    "InternalFaultError", "NameInUseError", "InvalidNameError",
    "IncompatibleComponentError", "NonInterfaceSignatureError",
    "UnknownInterfaceError", "NetworkError", "CallTimeout", "ScenarioFailed",
}

SUBMODULE_ONLY = {
    "refbus.values": [
        "NULL", "Ior", "TypeEnvironment", "TypeRef", "Value", "VBool", "VFloat",
        "VInt", "VList", "VNull", "VRecord", "VRef", "VStr",
    ],
    "refbus.wire": [
        "CallEnvelope", "Fault", "ReplyEnvelope", "encode_call", "encode_reply",
        "encode_value", "decode_call", "decode_reply", "decode_value", "loads",
        "call_shape", "reply_shape", "parse_args", "receive",
        "send_call", "send_result", "readable", "read_call", "read_reply", "type_check",
    ],
    "refbus.interfaces": ["ClosureViolation", "check_closure", "check_compat", "describe"],
    "refbus.policy": ["ParamPos", "RETURN", "ReturnPos", "PolicyStore", "TransmissionPolicy"],
    "refbus.registry": ["Deployment", "ObjectTable", "ProxyTable"],
    "refbus.client": ["Proxy", "materialize"],
    "refbus.component": ["snapshot_instance"],
}


def test_all_is_exactly_the_public_api_and_nothing_else_is_bound():
    assert len(PUBLIC) == 29
    assert sorted(refbus.__all__) == sorted(PUBLIC)
    bound = {
        name
        for name, value in vars(refbus).items()
        if not name.startswith("__") and not isinstance(value, type(refbus))
    }
    assert bound == PUBLIC


@pytest.mark.parametrize("module", sorted(SUBMODULE_ONLY))
def test_internal_names_import_from_their_submodule_only(module):
    owner = importlib.import_module(module)
    for name in SUBMODULE_ONLY[module]:
        assert hasattr(owner, name), f"{module}.{name}"
        assert not hasattr(refbus, name), f"refbus.{name}"


def test_no_module_imports_a_private_name_from_a_sibling():
    """A ``_`` name belongs to the module that defines it."""
    src = Path(__file__).resolve().parents[1] / "src" / "refbus"
    leaks = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert leaks == []


def test_console_scripts_name_callables():
    """Each [project.scripts] entry of pyproject.toml imports to a callable."""
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert set(scripts) == {"refbus-node", "refbus-inspect", "refbus-scenario"}
    for command, target in scripts.items():
        module, _, function = target.partition(":")
        assert callable(getattr(importlib.import_module(module), function, None)), command
