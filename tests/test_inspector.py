"""Inspector CLI: commands, output, exit codes, and the pure-HTTP-client
property (verified against a recording test double)."""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from refbus.inspector import (
    EXIT_FAULT,
    EXIT_NETWORK,
    EXIT_OK,
    EXIT_UNKNOWN_SERVICE,
    EXIT_USAGE,
    LiteralParseError,
    main,
    parse_literal,
)
from refbus import (
    ClassDescriptor,
    ComponentHandle,
    InterfaceDescriptor,
    InterfaceType,
    ListOf,
    MethodSig,
    Prim,
    RecordType,
)
from refbus.values import NULL, Ior, VBool, VFloat, VInt, VRecord, VRef, VStr
from refbus.scenarios import Person, Student


@pytest.fixture
def bob_node(make_node):
    node = make_node()
    node.deploy("INamedEntity", Student("Bobby Jones", 1234), "bob")
    return node


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# literals


def test_parse_literals():
    assert parse_literal("i:36") == VInt(36)
    assert parse_literal("f:1.5") == VFloat(1.5)
    assert parse_literal("s:abc") == VStr("abc")
    assert parse_literal("s:with:colon") == VStr("with:colon")
    assert parse_literal("b:true") == VBool(True)
    assert parse_literal("b:false") == VBool(False)
    assert parse_literal("null") == NULL
    assert parse_literal("ref:h:81:3:IPerson") == VRef(Ior("h", 81, 3, "IPerson"))


@pytest.mark.parametrize(
    "token", ["x:1", "i:abc", "b:maybe", "ref:h:81:3", "plain", "f:"]
)
def test_parse_literal_rejects(token):
    with pytest.raises(LiteralParseError):
        parse_literal(token)


# ---------------------------------------------------------------------------
# commands against a live node


def test_list_shows_bob(bob_node, capsys):
    code, out, _ = _run(capsys, f"{bob_node.host}:{bob_node.port}", "list")
    assert code == EXIT_OK
    assert out.splitlines() == ["bob\tINamedEntity"]


def test_list_empty_node(make_node, capsys):
    node = make_node()
    code, out, _ = _run(capsys, f"{node.host}:{node.port}", "list")
    assert code == EXIT_OK
    assert out == ""


def test_describe_bob(bob_node, capsys):
    code, out, _ = _run(capsys, f"{bob_node.host}:{bob_node.port}", "describe", "bob")
    assert code == EXIT_OK
    assert "interface INamedEntity" in out
    assert "getName() -> str" in out


def test_describe_obj_route(make_node, capsys):
    node = make_node()
    ior = node.deploy_anonymous("IPerson", Person("p", 1))
    code, out, _ = _run(
        capsys, f"{node.host}:{node.port}", "describe", f"obj/{ior.object_number}"
    )
    assert code == EXIT_OK
    assert "interface IPerson" in out


def test_describe_unknown_service_exit_3(bob_node, capsys):
    code, _, err = _run(capsys, f"{bob_node.host}:{bob_node.port}", "describe", "nosuch")
    assert code == EXIT_UNKNOWN_SERVICE
    assert "UNKNOWN_SERVICE" in err


def test_describe_json_matches_wsdl(bob_node, capsys):
    from refbus.client import http_get

    code, out, _ = _run(
        capsys, f"{bob_node.host}:{bob_node.port}", "describe", "bob", "--json"
    )
    assert code == EXIT_OK
    assert out.strip() == http_get(bob_node.host, bob_node.port, "/bob?wsdl")


def test_call_get_name(bob_node, capsys):
    code, out, _ = _run(capsys, f"{bob_node.host}:{bob_node.port}", "call", "bob", "getName")
    assert code == EXIT_OK
    assert out == "Bobby Jones\n"


def test_call_fault_exit_5(bob_node, capsys):
    code, _, err = _run(
        capsys, f"{bob_node.host}:{bob_node.port}", "call", "bob", "getMatriculationNumber"
    )
    assert code == EXIT_FAULT
    assert "UNKNOWN_METHOD" in err


def test_call_bad_literal_exit_4(bob_node, capsys):
    code, _, err = _run(
        capsys, f"{bob_node.host}:{bob_node.port}", "call", "bob", "getName", "x:1"
    )
    assert code == EXIT_USAGE
    assert "literal" in err


@pytest.mark.parametrize("method", ["", "get\udcff"], ids=["empty", "not-text"])
def test_a_method_name_no_call_can_carry_is_a_usage_error(capsys, method):
    """An empty method name raised ValueError, and one that is not valid
    text (as ``$'get\\xff'`` reaches argv) UnicodeEncodeError: a traceback
    and exit 1. Both are refused before any I/O; nothing listens on port 1,
    so exit 4 also shows that nothing was sent."""
    code, out, err = _run(capsys, "127.0.0.1:1", "call", "bob", method)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"refbus-inspect: a method name is non-empty text, got {method!r}\n"


@pytest.mark.parametrize(
    "command", [["describe", ""], ["call", "", "getName"]], ids=["describe", "call"]
)
def test_an_empty_deployment_name_is_a_usage_error(capsys, command):
    """describe of an empty name fetched the listing (GET /?wsdl) and exited
    5 with "malformed descriptor (KeyError: 'interface')". Both commands
    refuse it before any I/O; nothing listens on port 1."""
    code, out, err = _run(capsys, "127.0.0.1:1", *command)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "refbus-inspect: a deployment name is a name or obj/N, got ''\n"


def test_unreachable_host_exit_2(capsys):
    # reserve a port, then close it so nothing is listening
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    code, _, err = _run(capsys, f"127.0.0.1:{port}", "list")
    assert code == EXIT_NETWORK
    assert err


def test_malformed_http_reply_exit_2(raw_reply, capsys):
    port = raw_reply(b"SPDY/9 hello\r\n")
    code, out, err = _run(capsys, f"127.0.0.1:{port}", "list")
    assert (code, out) == (EXIT_NETWORK, "")
    assert err.startswith("refbus-inspect: GET ") and err.count("\n") == 1


def test_a_name_no_request_line_can_carry_exits_2(bob_node, capsys):
    """describe of a non-ASCII name printed a UnicodeEncodeError traceback
    and exited 1; the request is refused before it is sent."""
    code, out, err = _run(capsys, f"{bob_node.host}:{bob_node.port}", "describe", "b\u00e9")
    assert (code, out) == (EXIT_NETWORK, "")
    assert err.startswith("refbus-inspect: GET ") and err.count("\n") == 1
    assert "failed: Malformed: a request target is printable ASCII" in err  # was InvalidURL


def test_a_host_without_an_idna_form_exits_2(capsys):
    """``a..b`` printed a UnicodeError traceback and exited 1."""
    code, out, err = _run(capsys, "a..b:1", "list")
    assert (code, out) == (EXIT_NETWORK, "")
    assert err.startswith("refbus-inspect: GET a..b:1/ failed: UnicodeError: ")
    assert err.count("\n") == 1


def test_usage_error_exit_4(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["127.0.0.1:1", "frobnicate"])
    assert exit_info.value.code == EXIT_USAGE


def test_bad_target_address_exit_4(capsys):
    code, _, _ = _run(capsys, "no-port-here", "list")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("timeout", ["-1", "nan", "inf", "0"])
def test_a_timeout_that_is_not_a_positive_finite_number_is_a_usage_error(capsys, timeout):
    """Refused while parsing the arguments, as CallOptions refuses it: no
    traceback and no attempt at the network."""
    with pytest.raises(SystemExit) as exit_info:
        main([f"--timeout={timeout}", "127.0.0.1:1", "list"])
    assert exit_info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: refbus-inspect ")
    [error] = [line for line in err.splitlines() if "error:" in line]
    assert error.startswith("refbus-inspect: error: argument --timeout: timeout must be positive")


def test_call_with_reference_argument_sets_state(make_node, capsys):
    """Two-deployment harness: pass one component to another by reference
    literal, then check the server-side state actually changed."""
    node = make_node()
    mary = Person("Mary Smith", 40)
    node.deploy("IPerson", mary, "mary")
    john_ior = node.deploy_anonymous("IPerson", Person("John Brown", 35))

    ref = f"ref:{john_ior.host}:{john_ior.port}:{john_ior.object_number}:IPerson"
    code, out, _ = _run(
        capsys, f"{node.host}:{node.port}", "call", "mary", "setSpouse", ref
    )
    assert code == EXIT_OK
    assert out == "null\n"
    # loopback reference resolved to the original john instance
    assert isinstance(mary.spouse, Person)
    assert mary.spouse.name == "John Brown"


def test_call_prints_reference_results_as_ior_fields(make_node, capsys):
    from refbus import BY_REFERENCE

    node = make_node()
    node.policies.set_return_policy("IPerson", "getSpouse", BY_REFERENCE)
    mary = Person("Mary Smith", 40)
    john = Person("John Brown", 35)
    mary.setSpouse(john)
    node.deploy("IPerson", mary, "mary")
    code, out, _ = _run(capsys, f"{node.host}:{node.port}", "call", "mary", "getSpouse")
    assert code == EXIT_OK
    assert out.startswith("ref ")
    assert "IPerson" in out


class Gauge:
    def ready(self):
        return True

    def level(self):
        return 2.5

    def origin(self):
        return VRecord("Pt", [("x", VInt(1)), ("label", VStr("o"))])

    def history(self):
        return [[1, 2], []]

    def owner(self):
        return None


_GAUGE_METHODS = [
    MethodSig("ready", (), Prim.BOOL),
    MethodSig("level", (), Prim.F64),
    MethodSig("origin", (), RecordType("Pt")),
    MethodSig("history", (), ListOf(ListOf(Prim.I64))),
    MethodSig("owner", (), InterfaceType("INamedEntity")),
]


@pytest.fixture
def gauge_node(make_node):
    node = make_node()
    node.register_record("Pt", [("x", Prim.I64), ("label", Prim.STR)])
    node.register_interface(InterfaceDescriptor("IGauge", _GAUGE_METHODS))
    node.deploy("IGauge", ComponentHandle(Gauge(), ClassDescriptor("Gauge", methods=_GAUGE_METHODS)), "gauge")
    return node


@pytest.mark.parametrize(
    "method, printed",
    [
        ("ready", "true"),
        ("level", "2.5"),
        ("origin", '{"t":"rec","type":"Pt","v":{"x":{"t":"i64","v":1},"label":{"t":"str","v":"o"}}}'),
        (
            "history",
            '{"t":"list","v":[{"t":"list","v":[{"t":"i64","v":1},{"t":"i64","v":2}]},'
            '{"t":"list","v":[]}]}',
        ),
        ("owner", "null"),
    ],
)
def test_call_prints_each_kind_of_result(gauge_node, capsys, method, printed):
    code, out, _ = _run(capsys, f"{gauge_node.host}:{gauge_node.port}", "call", "gauge", method)
    assert (code, out) == (EXIT_OK, printed + "\n")


def test_describe_shows_records_and_further_interfaces(gauge_node, capsys):
    code, out, _ = _run(capsys, f"{gauge_node.host}:{gauge_node.port}", "describe", "gauge")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "interface IGauge",
        "  ready() -> bool",
        "  level() -> f64",
        "  origin() -> Pt",
        "  history() -> list<list<i64>>",
        "  owner() -> INamedEntity",
        "record Pt {x: i64, label: str}",
        "interface INamedEntity",
        "  getName() -> str",
    ]


# ---------------------------------------------------------------------------
# the CLI is a pure HTTP client


class _RecordingStub:
    """Minimal HTTP double that records every request line it serves.
    Given ``body``, it answers every request with it."""

    def __init__(self, body: bytes | None = None):
        self.requests: list[tuple[str, str]] = []
        self.body = body
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _reply(self, payload: str):
                data = payload.encode() if stub.body is None else stub.body
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self):
                stub.requests.append(("GET", self.path))
                if self.path == "/":
                    self._reply('{"deployments":[]}')
                else:
                    self._reply(
                        '{"interface":"INamedEntity","methods":[],"records":{},"interfaces":{}}'
                    )

            def do_POST(self):
                stub.requests.append(("POST", self.path))
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self._reply('{"result":{"t":"null"}}')

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.05), daemon=True
        )
        self.thread.start()
        self.address = f"127.0.0.1:{self.server.server_port}"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


def test_cli_performs_only_the_documented_http_operations(capsys):
    stub = _RecordingStub()
    try:
        _run(capsys, stub.address, "list")
        _run(capsys, stub.address, "describe", "bob")
        _run(capsys, stub.address, "call", "bob", "getName", "i:1")
    finally:
        stub.stop()
    assert stub.requests == [
        ("GET", "/"),
        ("GET", "/bob?wsdl"),
        ("POST", "/bob"),
    ]


@pytest.mark.parametrize(
    "command, body",
    [
        (["list"], b"[" * 100000),
        (["list"], b'{"deployments":{}}'),
        (["describe", "bob"], b'{"fault":5}'),
        (["call", "bob", "getName"], b'{"result":{"t":"zz"}}'),
        (["call", "bob", "getName"], b"\xff"),
        (["list"], b'{"deployments":[5]}'),
        (["list"], b'{"deployments":[{"names":"x"}]}'),
        (["describe", "bob"], b'{"interface":"I"}'),
        (["describe", "bob"], b"[1]"),
        (
            ["describe", "bob"],
            b'{"interface":"I","methods":[{"name":"m","params":[5],"returns":"null"}]}',
        ),
    ],
    ids=[
        "list-deep", "list-no-array", "describe-bad-fault", "call-bad-tag", "call-not-utf8",
        "list-row-not-object", "list-row-no-iface", "describe-no-methods", "describe-not-object",
        "describe-bad-param",
    ],
)
def test_malformed_reply_exits_5_with_one_line(capsys, command, body):
    stub = _RecordingStub(body)
    try:
        code, out, err = _run(capsys, stub.address, *command)
    finally:
        stub.stop()
    assert code == EXIT_FAULT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("refbus-inspect: "), err
