"""Per-node tables: deployments addressed by name, object number, and
component identity, plus the client-side proxy intern table.

The intern table holds its proxies weakly: an entry lives exactly as long
as something in the program holds that proxy, so a reference received and
dropped costs the receiver nothing. The deployment tables keep every
deployment for the node's lifetime.

Object numbers are assigned lazily (``ObjectTable.export`` numbers a
deployment when it first hands out a reference to it), start at 0,
increment monotonically, and are never reused for the node's lifetime.
The same (component identity, interface) pair always maps to the same
deployment, which is what makes just-in-time deployment idempotent.
"""

from __future__ import annotations

import threading
import weakref

from .component import ComponentHandle
from .errors import InvalidNameError, NameInUseError, UnknownServiceError
from .interfaces import InterfaceDescriptor
from .values import Ior


class Deployment:
    """One (component, interface) pair a node serves. The table sets its
    object number and adds its names in place; two deployments are the
    same only when they are one object."""

    __slots__ = ("component", "iface", "object_number", "names")

    def __init__(self, component: ComponentHandle, iface: InterfaceDescriptor):
        self.component = component
        self.iface = iface
        self.object_number: int | None = None
        self.names: set[str] = set()


def validate_name(name: str):
    """A deployment name is its URL path segment as it is: printable ASCII
    without spaces, '/' or '?'."""
    if not name:
        raise InvalidNameError("deployment name must be non-empty")
    if not all("!" <= c <= "~" for c in name) or "/" in name or "?" in name:
        raise InvalidNameError(
            f"deployment name must be printable ASCII without spaces, '/' or '?': {name!r}"
        )


class ObjectTable:
    """Node-side deployment tables; all operations are thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._by_name: dict[str, Deployment] = {}
        self._by_number: dict[int, Deployment] = {}
        self._by_key: dict[tuple[int, str], Deployment] = {}
        self._handles: dict[int, ComponentHandle] = {}
        self._next_number = 0

    def add(self, component: ComponentHandle, iface: InterfaceDescriptor) -> Deployment:
        """Deployment for (component identity, interface), created on first use.

        The first handle seen for an identity wins, so one instance deployed
        under several interfaces still serializes on a single handle.
        """
        with self._lock:
            handle = self._handles.setdefault(component.identity, component)
            key = (handle.identity, iface.name)
            dep = self._by_key.get(key)
            if dep is None:
                dep = Deployment(handle, iface)
                self._by_key[key] = dep
            return dep

    def lookup(self, identity: int, iface_name: str) -> Deployment | None:
        """The deployment of (component identity, interface name), if any."""
        return self._by_key.get((identity, iface_name))

    def export(self, dep: Deployment, host: str, port: int) -> Ior:
        """The reference to a deployment of this table at host:port; its
        object number is assigned on the first export."""
        with self._lock:
            if dep.object_number is None:
                dep.object_number = self._next_number
                self._next_number += 1
                self._by_number[dep.object_number] = dep
        return Ior(host, port, dep.object_number, dep.iface.name)

    def bind_name(self, name: str, dep: Deployment):
        validate_name(name)
        with self._lock:
            existing = self._by_name.get(name)
            if existing is dep:
                return
            if existing is not None:
                raise NameInUseError(f"name already bound: {name!r}")
            self._by_name[name] = dep
            dep.names.add(name)

    def lookup_name(self, name: str) -> Deployment | None:
        return self._by_name.get(name)

    def resolve(self, object_number: int) -> Deployment:
        dep = self._by_number.get(object_number)
        if dep is None:
            raise UnknownServiceError(f"no deployment with object number {object_number}")
        return dep

    def deployments(self) -> list[Deployment]:
        """Snapshot in creation order."""
        with self._lock:
            return list(self._by_key.values())


class ProxyTable:
    """Client-side intern table: equal Iors yield the identical proxy
    handle while any proxy for them is alive.

    Proxies are held weakly, so the table never keeps one alive. A
    reference received after its proxy died gets a fresh proxy from the
    factory.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._proxies: weakref.WeakValueDictionary[Ior, object] = weakref.WeakValueDictionary()

    def intern(self, ior: Ior, factory):
        with self._lock:
            proxy = self._proxies.get(ior)
            if proxy is None:
                proxy = factory(ior)
                self._proxies[ior] = proxy
            return proxy
