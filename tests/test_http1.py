"""HTTP/1.1 framing: one set of head rules, held by the node against
requests and by the client against replies."""

from __future__ import annotations

import io
import json
import socket
import tracemalloc

import pytest

from refbus import NetworkError
from refbus.client import http_get
from refbus.http1 import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE, Malformed, body_length
from refbus.http1 import read_request, request_bytes

# Header blocks, between the start line and the empty line, that both ends
# refuse, with the text of the refusal. The client accepted the first three
# in a reply before both ends shared http1's reader.
_HEAD_MISFITS = {
    "no-colon": (b"Host x", "a header line is a name, a colon and a value"),
    "space-before-colon": (b"Host : x", "a header line is a name, a colon and a value"),
    "obs-fold": (b"X-A: 1\r\n 2", "a folded header line (obs-fold) is not accepted"),
    "101-header-lines": (b"\r\n".join([b"X-A: 1"] * 101), "more than 100 header lines"),
    "line-over-64KiB": (
        b"X-A: " + b"a" * MAX_LINE, "a line of the head is longer than 65536 bytes"
    ),
    "sign": (b"Content-Length: +2", "invalid Content-Length"),
    "minus": (b"Content-Length: -1", "invalid Content-Length"),
    "folded-length": (b"Content-Length:\r\n 2", "a folded header line (obs-fold) is not accepted"),
    "underscore": (b"Content-Length: 0_2", "invalid Content-Length"),
    "no-break-space": (b"Content-Length: \xa02", "invalid Content-Length"),
    "hex": (b"Content-Length: 0x2", "invalid Content-Length"),
    "empty-length": (b"Content-Length: ", "invalid Content-Length"),
    "two-lengths": (b"Content-Length: 2\r\nContent-Length: 5", "invalid Content-Length"),
    "same-length-twice": (b"Content-Length: 2\r\nContent-Length: 2", "invalid Content-Length"),
    "19-nines": (b"Content-Length: " + b"9" * 19, "Content-Length out of bounds"),
    "chunked": (
        b"Transfer-Encoding: chunked\r\nContent-Length: 2", "Transfer-Encoding is not supported"
    ),
    "identity": (b"transfer-encoding: identity", "Transfer-Encoding is not supported"),
}


@pytest.mark.parametrize("case", sorted(_HEAD_MISFITS))
def test_the_node_answers_a_head_misfit_with_400(make_node, case):
    block, text = _HEAD_MISFITS[case]
    node = make_node()
    with socket.create_connection((node.host, node.port), timeout=5) as sock:
        sock.sendall(b"GET / HTTP/1.1\r\n%s\r\n\r\n" % block)
        reply = b""
        while chunk := sock.recv(65536):  # the node closes the connection
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[:3] == [
        b"HTTP/1.1 400 Bad Request", b"Content-Type: application/json", b"Connection: close"
    ]
    assert json.loads(body) == {"error": text}


@pytest.mark.parametrize("case", sorted(_HEAD_MISFITS))
def test_the_client_refuses_a_head_misfit_in_a_reply(raw_reply, case):
    block, text = _HEAD_MISFITS[case]
    port = raw_reply(b"HTTP/1.1 200 OK\r\n%s\r\n\r\n{}" % block)
    with pytest.raises(NetworkError, match="failed: Malformed: ") as info:
        http_get("127.0.0.1", port, "/x?wsdl", timeout=5)
    assert type(info.value.__cause__) is Malformed and str(info.value.__cause__) == text


def test_the_head_limits_are_the_same_for_a_reply(raw_reply):
    """A 64 KiB line and 100 header lines are accepted in a reply too."""
    status = b"HTTP/1.1 200 " + b"O" * (MAX_LINE - len(b"HTTP/1.1 200 \r\n")) + b"\r\n"
    assert len(status) == MAX_LINE
    headers = b"X-A: 1\r\n" * (MAX_HEADERS - 1) + b"Content-Length: 2\r\n\r\n{}"
    assert http_get("127.0.0.1", raw_reply(status + headers), "/x?wsdl", timeout=5) == "{}"


@pytest.mark.parametrize(
    "value, length",
    [
        (b"16777216", 16777216),
        (b"16777217", None),
        (b"0" * 5000 + b"16777216", 16777216),
        (b"1000000000000000000", None),
    ],
)
def test_both_ends_hold_a_content_length_to_one_cap(value, length):
    """One Content-Length rule with one cap, MAX_BODY_BYTES, for a request
    and a reply alike."""
    assert MAX_BODY_BYTES == 16777216
    fields = {b"content-length": [value]}
    if length is None:
        with pytest.raises(Malformed, match="^Content-Length out of bounds$"):
            body_length(fields)
    else:
        assert body_length(fields) == length


def test_a_head_without_content_length_declares_no_length():
    """None: the node refuses such a POST, and the client reads the reply
    to the close."""
    assert body_length({b"host": [b" x"]}) is None


@pytest.mark.parametrize(
    "length, text",
    [
        (b"Content-Length: 16777217\r\n", "Content-Length out of bounds"),
        (b"", "a body without a Content-Length runs past 16777216 bytes"),
    ],
    ids=["content-length", "to-close"],
)
def test_a_reply_over_the_cap_is_refused(raw_reply, length, text):
    port = raw_reply(b"HTTP/1.1 200 OK\r\n%s\r\n%s" % (length, b"x" * (MAX_BODY_BYTES + 1)))
    with pytest.raises(NetworkError, match="failed: Malformed: ") as info:
        http_get("127.0.0.1", port, "/x?wsdl", timeout=5)
    assert type(info.value.__cause__) is Malformed and str(info.value.__cause__) == text


def test_a_reply_read_to_the_close_holds_no_more_than_the_cap(raw_reply):
    """A 64 MiB reply without a Content-Length is refused once it passes
    the cap, before the client holds all of it."""
    port = raw_reply(b"HTTP/1.1 200 OK\r\n\r\n" + b"x" * (64 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(NetworkError):
            http_get("127.0.0.1", port, "/x?wsdl", timeout=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20


def test_one_empty_line_before_a_request_line_is_skipped():
    """RFC 9112 §2.2 lets one empty line precede a request line; a second
    is read as the request line, and refused."""
    request = b"GET /bob?wsdl HTTP/1.1\r\nHost: x\r\n\r\n"
    assert read_request(None, io.BytesIO(b"\r\n" + request)) == ("GET", "/bob?wsdl", True, b"")
    with pytest.raises(Malformed, match=r"^a request line is METHOD target HTTP/1\.x$"):
        read_request(None, io.BytesIO(b"\r\n\n" + request))


def test_an_ipv6_literal_host_is_bracketed_in_the_host_field():
    """As RFC 3986 §3.2.2 writes an IP literal in an authority."""
    head = request_bytes("GET", "/", "::1", 8080, None)
    assert head == b"GET / HTTP/1.1\r\nHost: [::1]:8080\r\nConnection: close\r\n\r\n"
