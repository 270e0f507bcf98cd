"""Per-node tables: deployments addressed by name, object number, and
component identity, plus the client-side proxy intern table.

Object numbers are assigned lazily (a named deployment gets one only when
it is first exported by reference), start at 0, increment monotonically,
and are never reused for the node's lifetime. The same (component
identity, interface) pair always maps to the same deployment, which is
what makes just-in-time deployment idempotent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .component import ComponentHandle
from .errors import InvalidNameError, NameInUseError, UnknownServiceError
from .interfaces import InterfaceDescriptor
from .values import Ior


@dataclass
class Deployment:
    component: ComponentHandle
    iface: InterfaceDescriptor
    object_number: int | None = None
    names: set[str] = field(default_factory=set)


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

    def ensure_number(self, dep: Deployment) -> int:
        with self._lock:
            if dep.object_number is None:
                dep.object_number = self._next_number
                self._next_number += 1
                self._by_number[dep.object_number] = dep
            return dep.object_number

    def export(
        self, component: ComponentHandle, iface: InterfaceDescriptor, host: str, port: int
    ) -> Ior:
        """Deploy (idempotently), assign the lazy object number, return the Ior."""
        dep = self.add(component, iface)
        return Ior(host, port, self.ensure_number(dep), iface.name)

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
    """Client-side intern table: equal Iors yield the identical proxy handle."""

    def __init__(self):
        self._lock = threading.Lock()
        self._proxies: dict[Ior, object] = {}

    def intern(self, ior: Ior, factory):
        with self._lock:
            proxy = self._proxies.get(ior)
            if proxy is None:
                proxy = factory(ior)
                self._proxies[ior] = proxy
            return proxy
