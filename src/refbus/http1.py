"""HTTP/1.1 framing for both ends (RFC 9112): the node reads requests and
writes replies, the client writes requests and reads replies.

Both ends read a head with the same line reader and header-field reader,
and a body length with the same ``Content-Length`` rule, so a head one end
refuses the other refuses too. A message that breaks a rule raises
Malformed; a peer that closes the connection or goes idle partway through
one raises Truncated.
"""

from __future__ import annotations

import functools
import re
from http import HTTPStatus

# A head line is at most MAX_LINE bytes with its line break, and a head has
# at most MAX_HEADERS header lines, as http.server and http.client bound them.
MAX_LINE = 65536
MAX_HEADERS = 100
# A body, of a request or of a reply, is at most this many bytes.
MAX_BODY_BYTES = 16 * 1024 * 1024
# A body is read in pieces of at most this many bytes, so a declared
# Content-Length reserves no memory that the peer has not sent.
_PIECE = 1 << 20

# METHOD SP request-target SP HTTP/1.x (RFC 9112 §3), the method a token.
_REQUEST_LINE = re.compile(rb"([-!#$%&'*+.^_`|~0-9A-Za-z]+) (\S+) HTTP/1\.([0-9])\r?\n")
# HTTP/1.x NNN, then an optional reason phrase (RFC 9112 §4).
_STATUS_LINE = re.compile(rb"HTTP/1\.[0-9] ([0-9]{3})(?: [^\r\n]*)?\r?\n")
# A request target: printable ASCII without spaces (RFC 9112 §3.2).
_TARGET = re.compile(r"[!-~]+")


class Malformed(ValueError):
    """A message that breaks a framing rule; the node answers it with 400."""


class Truncated(EOFError):
    """The peer closed the connection, or went idle, partway through a message."""


def _read_line(rfile) -> bytes:
    """One line of a head, with its line break."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise Malformed(f"a line of the head is longer than {MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise Truncated("the connection ended inside a head")
    return line


def _read_fields(rfile) -> dict[bytes, list[bytes]]:
    """Read header lines up to the empty line that ends a head; returns each
    field's values by lower-cased name. Malformed for more than MAX_HEADERS
    lines, a line without a colon, a space before the colon (RFC 9112 §5.1
    requires a 400 for it) and a folded line (obs-fold, which §5.2 lets a
    server refuse; refbus nodes never fold, so replies are held to it too)."""
    fields: dict[bytes, list[bytes]] = {}
    count = 0
    while (line := _read_line(rfile)) not in (b"\r\n", b"\n"):
        count += 1
        if count > MAX_HEADERS:
            raise Malformed(f"more than {MAX_HEADERS} header lines")
        if line[0] in b" \t":
            raise Malformed("a folded header line (obs-fold) is not accepted")
        name, colon, value = line.partition(b":")
        if not (colon and name) or name[-1] in b" \t":
            raise Malformed("a header line is a name, a colon and a value")
        fields.setdefault(name.lower(), []).append(value.rstrip(b"\r\n"))
    return fields


def _tokens(fields: dict[bytes, list[bytes]], name: bytes) -> set[bytes]:
    """The comma-separated tokens of a header field, lower-cased."""
    values = fields.get(name, ())
    return {token.strip(b" \t").lower() for value in values for token in value.split(b",")}


def body_length(fields: dict[bytes, list[bytes]]) -> int | None:
    """The body length a head declares, None without a Content-Length.
    RFC 7230 §3.3.2-3.3.3 allow one Content-Length of ASCII digits; one
    above MAX_BODY_BYTES, any other Content-Length and any
    Transfer-Encoding raise Malformed."""
    if b"transfer-encoding" in fields:
        raise Malformed("Transfer-Encoding is not supported")
    values = fields.get(b"content-length")
    if values is None:
        return None
    text = values[0].strip(b" \t") if len(values) == 1 else b""
    if not text.isdigit():  # bytes.isdigit: ASCII digits only
        raise Malformed("invalid Content-Length")
    digits = text.lstrip(b"0") or b"0"  # int() has a digit limit; zeros may pad
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise Malformed("Content-Length out of bounds")
    return int(digits)


def _read_body(rfile, length: int) -> bytes:
    """Exactly ``length`` bytes, read in pieces of at most _PIECE."""
    pieces = []
    while length:
        piece = rfile.read(min(length, _PIECE))
        if not piece:  # b"" at EOF; None or b"" when the peer went idle
            raise Truncated(f"the connection ended {length} bytes short of the body")
        pieces.append(piece)
        length -= len(piece)
    return b"".join(pieces)


def read_request(sock, rfile) -> tuple[str, str, bool, bytes]:
    """(method, target, keep the connection open, body) of one request,
    whose body is at most MAX_BODY_BYTES. Answers ``Expect: 100-continue``
    on ``sock`` before reading the body."""
    line = _read_line(rfile)
    if line in (b"\r\n", b"\n"):  # RFC 9112 §2.2: one may precede a request
        line = _read_line(rfile)
    request = _REQUEST_LINE.fullmatch(line)
    if request is None:
        raise Malformed("a request line is METHOD target HTTP/1.x")
    method, target, minor = request.groups()
    fields = _read_fields(rfile)
    http10 = minor == b"0"
    keep_open = not http10 and b"close" not in _tokens(fields, b"connection")
    body = b""
    if method == b"POST":
        length = body_length(fields)
        if length is None:
            raise Malformed("a POST request needs a Content-Length")
        if not http10 and b"100-continue" in _tokens(fields, b"expect"):
            sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = _read_body(rfile, length)
    elif method == b"GET" and body_length(fields):
        # An unread body would be parsed as the next request.
        raise Malformed("a GET request must not have a body")
    return method.decode("ascii"), target.decode("latin-1"), keep_open, body


def _read_to_close(rfile) -> bytes:
    """Every byte up to the close, read in pieces of at most _PIECE;
    Malformed once they pass MAX_BODY_BYTES."""
    pieces, size = [], 0
    while piece := rfile.read(_PIECE):
        size += len(piece)
        if size > MAX_BODY_BYTES:
            raise Malformed(f"a body without a Content-Length runs past {MAX_BODY_BYTES} bytes")
        pieces.append(piece)
    return b"".join(pieces)


def read_reply(rfile) -> tuple[int, bytes]:
    """(status, body) of one reply, whose body is at most MAX_BODY_BYTES.
    The body is Content-Length bytes, or runs to the close without one."""
    line = _read_line(rfile)
    status = _STATUS_LINE.fullmatch(line)
    if status is None:
        raise Malformed(f"a status line is HTTP/1.x NNN, got {line!r}")
    length = body_length(_read_fields(rfile))
    body = _read_to_close(rfile) if length is None else _read_body(rfile, length)
    return int(status[1]), body


def request_bytes(method: str, target: str, host: str, port: int, body: bytes | None) -> bytes:
    """The whole request: request line, Host, ``Connection: close`` (each
    request takes its own connection, and RFC 9112 §9.3 asks a client that
    keeps none open to say so) and, with a body, its Content-Type and
    Content-Length, then the body. Malformed for a target
    that is not printable ASCII without spaces; UnicodeError for a host
    that has no IDNA form."""
    if not _TARGET.fullmatch(target):
        raise Malformed(f"a request target is printable ASCII without spaces: {target!r}")
    name = host.encode("ascii" if host.isascii() else "idna")
    if b":" in name:  # an IPv6 literal
        name = b"[%s]" % name
    head = b"%s %s HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n" % (
        method.encode(), target.encode(), name, port,
    )
    if body is None:
        return head + b"\r\n"
    return b"%sContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s" % (
        head, len(body), body,
    )


@functools.cache
def _reply_head(status: int, keep_open: bool) -> bytes:
    """A reply's status line and headers, up to the Content-Length value."""
    close = b"" if keep_open else b"Connection: close\r\n"
    phrase = HTTPStatus(status).phrase.encode("ascii")
    return b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n%sContent-Length: " % (
        status, phrase, close,
    )


def write_reply(sock, status: int, text: str, keep_open: bool):
    data = text.encode("utf-8")
    # One write: a body sent apart from its head would wait for the peer's
    # delayed ACK under Nagle's algorithm, about 40 ms per keep-alive reply.
    sock.sendall(b"%s%d\r\n\r\n%s" % (_reply_head(status, keep_open), len(data), data))
