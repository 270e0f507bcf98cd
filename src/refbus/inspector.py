"""Command-line probe for a running node.

A pure HTTP client: everything it does can be done with raw requests
against the node's endpoints. Exit codes are stable:

    0  success
    2  network failure
    3  unknown service (describe)
    4  usage or argument parse failure
    5  remote fault, or a reply that is not well formed
"""

from __future__ import annotations

import argparse
import sys

from .client import CallOptions, http_get, post_call
from .errors import BadEnvelopeError, FaultCode, NetworkError
from .values import (
    NULL,
    Ior,
    Value,
    VBool,
    VFloat,
    VInt,
    VNull,
    VRef,
    VStr,
)
from .wire import CallEnvelope, decode_reply, encode_call, encode_value, loads, reply_shape

EXIT_OK = 0
EXIT_NETWORK = 2
EXIT_UNKNOWN_SERVICE = 3
EXIT_USAGE = 4
EXIT_FAULT = 5


class LiteralParseError(ValueError):
    pass


def parse_literal(token: str) -> Value:
    """Parse a typed argument literal.

    Syntax: ``i:36``, ``f:1.5``, ``s:abc``, ``b:true``, ``null``,
    ``ref:host:port:obj:iface``.
    """
    if token == "null":
        return NULL
    kind, sep, rest = token.partition(":")
    if not sep:
        raise LiteralParseError(f"cannot parse literal {token!r}")
    try:
        if kind == "i":
            return VInt(int(rest))
        if kind == "f":
            return VFloat(float(rest))
        if kind == "s":
            return VStr(rest)
        if kind == "b":
            if rest in ("true", "false"):
                return VBool(rest == "true")
            raise LiteralParseError(f"bool literal must be b:true or b:false, got {token!r}")
        if kind == "ref":
            parts = rest.split(":")
            if len(parts) != 4:
                raise LiteralParseError(f"ref literal must be ref:host:port:obj:iface, got {token!r}")
            host, port, number, iface = parts
            return VRef(Ior(host, int(port), int(number), iface))
    except LiteralParseError:
        raise
    except ValueError as exc:
        raise LiteralParseError(f"cannot parse literal {token!r}: {exc}") from None
    raise LiteralParseError(f"unknown literal kind {kind!r} in {token!r}")


def format_value(v: Value) -> str:
    """Human form of a decoded result; references print their Ior fields."""
    if isinstance(v, VNull):
        return "null"
    if isinstance(v, VBool):
        return "true" if v.value else "false"
    if isinstance(v, (VInt, VFloat)):
        return repr(v.value)
    if isinstance(v, VStr):
        return v.value
    if isinstance(v, VRef):
        ior = v.ior
        return f"ref {ior.host}:{ior.port}/obj/{ior.object_number} {ior.interface_name}"
    return encode_value(v)


def _format_typeref(doc) -> str:
    if isinstance(doc, str):
        return doc
    if isinstance(doc, dict) and len(doc) == 1:
        [(kind, inner)] = doc.items()
        if kind == "list":
            return f"list<{_format_typeref(inner)}>"
        if kind in ("record", "interface") and isinstance(inner, str):
            return inner
    raise BadEnvelopeError("descriptor holds a malformed type reference")


def _format_methods(methods) -> list[str]:
    lines = []
    for m in methods:
        params = ", ".join(_format_typeref(p) for p in m["params"])
        lines.append(f"  {m['name']}({params}) -> {_format_typeref(m['returns'])}")
    return lines


def format_descriptor(doc) -> str:
    """Readable rendering of a descriptor document; BadEnvelopeError for a
    document of another shape."""
    try:
        lines = [f"interface {doc['interface']}", *_format_methods(doc["methods"])]
        for name in sorted(doc.get("records", {})):
            fields = ", ".join(
                f"{f['name']}: {_format_typeref(f['type'])}" for f in doc["records"][name]
            )
            lines.append(f"record {name} {{{fields}}}")
        for name in sorted(doc.get("interfaces", {})):
            if name != doc["interface"]:
                lines += [f"interface {name}", *_format_methods(doc["interfaces"][name])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise BadEnvelopeError(f"malformed descriptor ({type(exc).__name__}: {exc})") from None
    return "\n".join(lines)


def cmd_list(host: str, port: int, timeout: float) -> int:
    listing = loads(http_get(host, port, "/", timeout))
    if not (isinstance(listing, dict) and isinstance(listing.get("deployments"), list)):
        raise BadEnvelopeError("listing has no deployments array")
    lines = []
    try:
        for dep in listing["deployments"]:
            label = min(dep["names"]) if dep["names"] else f"obj/{dep['obj']}"
            lines.append(f"{label}\t{dep['iface']}")
    except (KeyError, TypeError) as exc:
        raise BadEnvelopeError(f"malformed listing row ({type(exc).__name__}: {exc})") from None
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_describe(host: str, port: int, target: str, timeout: float, as_json: bool) -> int:
    text = http_get(host, port, f"/{target}?wsdl", timeout)
    doc = loads(text)
    if isinstance(doc, dict) and "fault" in doc:
        _, fault = reply_shape(doc)
        print(f"fault {fault.code.value}: {fault.message}", file=sys.stderr)
        return EXIT_UNKNOWN_SERVICE if fault.code is FaultCode.UNKNOWN_SERVICE else EXIT_FAULT
    print(text if as_json else format_descriptor(doc))
    return EXIT_OK


def cmd_call(host: str, port: int, target: str, method: str, literals, timeout: float) -> int:
    if not method or any("\ud800" <= c <= "\udfff" for c in method):  # no UTF-8 form
        raise LiteralParseError(f"a method name is non-empty text, got {method!r}")
    args = [parse_literal(token) for token in literals]
    call = encode_call(CallEnvelope(method, args))
    reply = decode_reply(post_call(host, port, f"/{target}", call, timeout))
    if reply.fault is not None:
        print(f"fault {reply.fault.code.value}: {reply.fault.message}", file=sys.stderr)
        return EXIT_FAULT
    print(format_value(reply.result))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_target_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise LiteralParseError(f"target must be host:port, got {text!r}")
    try:
        number = int(port)
    except ValueError:
        raise LiteralParseError(f"target port must be an integer, got {port!r}") from None
    if not 1 <= number <= 65535:
        raise LiteralParseError(f"target port out of range: {number}")
    return host, number


def _timeout_seconds(text: str) -> float:
    """A --timeout value, held to the rule CallOptions applies."""
    try:
        return CallOptions(timeout=float(text)).timeout
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = _Parser(prog="refbus-inspect", description="Probe a running refbus node.")
    parser.add_argument("target", help="node address as host:port")
    parser.add_argument("--timeout", type=_timeout_seconds, default=10.0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list deployments")

    describe_p = sub.add_parser("describe", help="show a deployment's descriptor")
    describe_p.add_argument("name", help="deployment name or obj/N")
    describe_p.add_argument("--json", action="store_true", help="print the raw document")

    call_p = sub.add_parser("call", help="invoke a method")
    call_p.add_argument("name", help="deployment name or obj/N")
    call_p.add_argument("method")
    call_p.add_argument("args", nargs="*", help="typed literals, e.g. i:36 s:abc null")

    ns = parser.parse_args(argv)
    try:
        host, port = _parse_target_address(ns.target)
        if ns.command == "list":
            return cmd_list(host, port, ns.timeout)
        if not ns.name:  # "/" is the listing's path, not a deployment's
            raise LiteralParseError("a deployment name is a name or obj/N, got ''")
        if ns.command == "describe":
            return cmd_describe(host, port, ns.name, ns.timeout, ns.json)
        return cmd_call(host, port, ns.name, ns.method, ns.args, ns.timeout)
    except LiteralParseError as exc:
        print(f"refbus-inspect: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NetworkError as exc:
        print(f"refbus-inspect: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except BadEnvelopeError as exc:
        print(f"refbus-inspect: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
