"""The names bench/tracer.py patches are bound where it looks them up.

``Tracer.install`` reads each traced function through ``owner.__dict__``,
so a name that ``src/`` stops binding (an unused import dropped from
``client.py``, say) fails every ``--trace 1`` run. The tracer is read with
``ast`` here, neither imported nor installed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _resolve(expr: ast.expr, local: dict[str, ast.expr]):
    """The module or attribute a dotted name in the tracer stands for."""
    if isinstance(expr, ast.Name) and expr.id in local:
        return _resolve(local[expr.id], local)
    try:
        return importlib.import_module(ast.unparse(expr))
    except ModuleNotFoundError:
        assert isinstance(expr, ast.Attribute), ast.unparse(expr)
        return getattr(_resolve(expr.value, local), expr.attr)


def _lookups() -> list[tuple[ast.expr, str, dict[str, ast.expr]]]:
    """(owner, attribute, install's local names) for every read of
    ``owner.__dict__[attribute]``: each SPANS row, and each ``_patch`` in
    ``install`` that names its attribute."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    spans = next(
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["SPANS"]
    )
    found = [(row.elts[0], row.elts[1].value, {}) for row in spans.elts]
    install = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    local = {
        stmt.targets[0].id: stmt.value
        for stmt in install.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
    }
    span_loops = [
        node for node in install.body
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "SPANS"
    ]
    for node in ast.walk(install):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "self._patch"):
            continue
        owner, attr = node.args[:2]
        if isinstance(attr, ast.Constant):
            found.append((owner, attr.value, local))
        else:  # the SPANS loop, read above
            assert any(node in ast.walk(loop) for loop in span_loops), ast.unparse(node)
    return found


def test_every_name_the_tracer_patches_is_bound():
    lookups = _lookups()
    pairs = {(ast.unparse(owner), attr) for owner, attr, _ in lookups}
    assert {("refbus.client", "type_check"), ("refbus.node", "decode_call")} <= pairs
    unbound = [
        f"{ast.unparse(owner)}.{attr}"
        for owner, attr, local in lookups
        if attr not in vars(_resolve(owner, local))
    ]
    assert unbound == []
