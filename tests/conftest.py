"""Shared fixtures and test-side oracles.

The value generators and the canonical-form comparator here are written
independently of the library's own equality/encoding paths so round-trip
and equivalence tests check two routes against each other.
"""

from __future__ import annotations

import contextlib
import random
import re
import socket
import string
import struct
import threading
import time

import pytest

from refbus import InterfaceDescriptor, InterfaceType, ListOf, Node, Prim, RecordType
from refbus.values import (
    NULL,
    Ior,
    TypeEnvironment,
    VBool,
    VFloat,
    VInt,
    VList,
    VRecord,
    VRef,
    VStr,
)
from refbus.scenarios import register_demo_types

_NAME_ALPHABET = string.ascii_letters
_TEXT_ALPHABET = string.printable + "äöüßéλπ☃💡"


def _rand_name(rng: random.Random) -> str:
    return "".join(rng.choice(_NAME_ALPHABET) for _ in range(rng.randint(1, 8)))


def _rand_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randint(0, 12)))


def _rand_float(rng: random.Random) -> float:
    specials = [0.0, -0.0, 1.0, -1.5, 1e-308, 5e-324, 1.7976931348623157e308]
    if rng.random() < 0.3:
        return rng.choice(specials)
    return rng.uniform(-1e6, 1e6)


def _rand_ior(rng: random.Random) -> Ior:
    return Ior(
        _rand_name(rng),
        rng.randint(1, 65535),
        rng.randint(0, 2**40),
        _rand_name(rng),
    )


def random_value(rng: random.Random, depth: int = 5):
    """Unconstrained random Value with nesting depth at most ``depth``."""
    kinds = ["null", "bool", "int", "float", "str", "ref"]
    if depth > 0:
        kinds += ["list", "list", "rec", "rec"]
    kind = rng.choice(kinds)
    if kind == "null":
        return NULL
    if kind == "bool":
        return VBool(rng.random() < 0.5)
    if kind == "int":
        return VInt(rng.randint(-(2**63), 2**63 - 1))
    if kind == "float":
        return VFloat(_rand_float(rng))
    if kind == "str":
        return VStr(_rand_text(rng))
    if kind == "ref":
        return VRef(_rand_ior(rng))
    if kind == "list":
        return VList(random_value(rng, depth - 1) for _ in range(rng.randint(0, 4)))
    names = []
    while len(names) < rng.randint(0, 4):
        name = _rand_name(rng)
        if name not in names:
            names.append(name)
    return VRecord(_rand_name(rng), [(n, random_value(rng, depth - 1)) for n in names])


class TypedGenerator:
    """Generates (TypeRef, conforming Value) pairs against a growing env."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.env = TypeEnvironment()
        self._counter = 0

    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def random_type(self, depth: int = 3):
        rng = self.rng
        kinds = ["null", "bool", "i64", "f64", "str"]
        if depth > 0:
            kinds += ["list", "rec", "iface"]
        kind = rng.choice(kinds)
        if kind == "null":
            return Prim.NULL
        if kind == "bool":
            return Prim.BOOL
        if kind == "i64":
            return Prim.I64
        if kind == "f64":
            return Prim.F64
        if kind == "str":
            return Prim.STR
        if kind == "list":
            return ListOf(self.random_type(depth - 1))
        if kind == "rec":
            name = self._fresh_name("Rec")
            fields = [
                (f"f{i}", self.random_type(depth - 1)) for i in range(rng.randint(0, 3))
            ]
            self.env.add_record(name, fields)
            return RecordType(name)
        name = self._fresh_name("Iface")
        self.env.add_interface(InterfaceDescriptor(name))
        return InterfaceType(name)

    def random_conforming(self, t):
        rng = self.rng
        if t is Prim.NULL:
            return NULL
        if t is Prim.BOOL:
            return VBool(rng.random() < 0.5)
        if t is Prim.I64:
            return VInt(rng.randint(-(2**63), 2**63 - 1))
        if t is Prim.F64:
            return VFloat(_rand_float(rng))
        if t is Prim.STR:
            return VStr(_rand_text(rng))
        if isinstance(t, ListOf):
            return VList(
                self.random_conforming(t.elem) for _ in range(rng.randint(0, 3))
            )
        if isinstance(t, RecordType):
            if rng.random() < 0.2:
                return NULL
            fields = self.env.records[t.name]
            return VRecord(
                t.name, [(name, self.random_conforming(ft)) for name, ft in fields]
            )
        if rng.random() < 0.3:
            return NULL
        return VRef(
            Ior(_rand_name(rng), rng.randint(1, 65535), rng.randint(0, 100), t.name)
        )


def canonical(v) -> tuple:
    """Independent canonical form: tagged tuples, floats as raw bit patterns."""
    if isinstance(v, VBool):
        return ("bool", v.value)
    if isinstance(v, VInt):
        return ("i64", v.value)
    if isinstance(v, VFloat):
        return ("f64", struct.pack(">d", v.value))
    if isinstance(v, VStr):
        return ("str", v.value)
    if isinstance(v, VList):
        return ("list", tuple(canonical(item) for item in v.items))
    if isinstance(v, VRecord):
        return (
            "rec",
            v.type_name,
            tuple((name, canonical(value)) for name, value in v.fields),
        )
    if isinstance(v, VRef):
        return ("ref", v.ior.host, v.ior.port, v.ior.object_number, v.ior.interface_name)
    return ("null",)


def deep_eq(a, b) -> bool:
    return canonical(a) == canonical(b)


def clone_value(v):
    """Structural copy built from fresh objects (for equality properties)."""
    if isinstance(v, VBool):
        return VBool(bool(v.value))
    if isinstance(v, VInt):
        return VInt(int(v.value))
    if isinstance(v, VFloat):
        return VFloat(struct.unpack("<d", struct.pack("<d", v.value))[0])
    if isinstance(v, VStr):
        return VStr(str(v.value))
    if isinstance(v, VList):
        return VList(clone_value(item) for item in v.items)
    if isinstance(v, VRecord):
        return VRecord(v.type_name, [(name, clone_value(value)) for name, value in v.fields])
    if isinstance(v, VRef):
        ior = v.ior
        return VRef(Ior(ior.host, ior.port, ior.object_number, ior.interface_name))
    return NULL


@pytest.fixture
def make_node():
    """Factory for started nodes with the demo types registered; stops them all."""
    nodes = []

    def factory(*, demo: bool = True, **kwargs) -> Node:
        node = Node(**kwargs)
        if demo:
            register_demo_types(node)
        node.start()
        nodes.append(node)
        return node

    yield factory
    for node in nodes:
        node.stop()


def _read_request(conn: socket.socket) -> bytes:
    """Read one HTTP request, its head and Content-Length body, off ``conn``;
    returns the head without the empty line that ends it."""
    data = b""
    while True:
        head, end, body = data.partition(b"\r\n\r\n")
        if end:
            length = re.search(rb"(?i)\r\ncontent-length:\s*(\d+)", head)
            if len(body) >= (int(length[1]) if length else 0):
                return head
        chunk = conn.recv(65536)
        if not chunk:
            raise ConnectionError("the client hung up")
        data += chunk


@pytest.fixture
def raw_reply():
    """Factory for local sockets that each read one HTTP request, answer it
    with the given raw bytes and close; returns the port. The heads of the
    requests read so far are in ``.heads``. At teardown, no socket may have
    had a second connection: calls are at-most-once."""
    listeners, threads, heads = [], [], []

    def serve(reply: bytes, *, bytewise: bool = False, delay: float = 0.001) -> int:
        """``bytewise`` sends the reply one byte per write, ``delay`` seconds
        apart."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)

        def answer():
            with contextlib.suppress(OSError):  # the client may hang up first
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5)
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    heads.append(_read_request(conn))
                    if bytewise:
                        for i in range(len(reply)):
                            conn.sendall(reply[i : i + 1])
                            time.sleep(delay)
                    else:
                        conn.sendall(reply)
                    conn.shutdown(socket.SHUT_WR)

        listeners.append(listener)
        threads.append(threading.Thread(target=answer, daemon=True))
        threads[-1].start()
        return listener.getsockname()[1]

    serve.heads = heads
    yield serve
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    for listener in listeners:
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            listener.accept()
        listener.close()
