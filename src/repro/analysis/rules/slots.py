"""CHR007 — ``__slots__`` on record/message types in batch fast paths.

The batch fast paths allocate one message/record object per wire item; a
dict-backed dataclass costs an extra allocation and ~3x the memory per
instance.  Every public dataclass in the ``*/messages.py`` modules and the
core record model (``core/record.py``) must therefore be declared
``@dataclass(..., slots=True)`` — or, for field-less base classes like
``Payload``, carry an explicit ``__slots__ = ()`` so subclasses' slots
actually bite (a dict-ful base silently re-adds ``__dict__`` to every
subclass instance).

A ``typing.NamedTuple`` is slotted, but a class that subclasses one (as the
record model's checked types do) gets a per-instance ``__dict__`` back
unless it declares ``__slots__ = ()`` too.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from ..findings import Finding
from ..project import ModuleInfo
from .base import ModuleRule

#: Module path suffixes whose dataclasses are hot-path record/message types.
HOT_MODULE_SUFFIXES: Tuple[str, ...] = ("messages.py", "core/record.py")


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return decorator
    return None


def _base_names(node: ast.ClassDef) -> Iterator[str]:
    for base in node.bases:
        if isinstance(base, ast.Attribute):
            yield base.attr
        elif isinstance(base, ast.Name):
            yield base.id


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    return False


class SlotsRule(ModuleRule):
    """CHR007: hot-path dataclasses must be slotted."""

    code = "CHR007"
    name = "missing-slots"
    description = (
        "Public dataclasses in */messages.py and core/record.py are "
        "allocated per wire item on the batch fast paths and must declare "
        "slots=True in their @dataclass decorator (or an explicit "
        "__slots__ assignment for field-less bases); a public subclass of "
        "a NamedTuple class there must declare __slots__ = ()."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not any(module.relpath.endswith(s) for s in HOT_MODULE_SUFFIXES):
            return
        tuple_classes: Set[str] = set()  # NamedTuple classes and their subclasses
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = set(_base_names(node))
            if "NamedTuple" in bases:
                tuple_classes.add(node.name)
                continue
            if bases & tuple_classes:
                tuple_classes.add(node.name)
                if not node.name.startswith("_") and not _declares_slots(node):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"hot-path NamedTuple subclass {node.name} lacks "
                        "__slots__ = (); without it every instance has a __dict__",
                    )
                continue
            if node.name.startswith("_"):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            if isinstance(decorator, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in decorator.keywords
            ):
                continue
            if _declares_slots(node):
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"hot-path dataclass {node.name} lacks __slots__; declare "
                "@dataclass(slots=True) or __slots__ = () on field-less bases",
            )
