"""Cross-check the declarative protocol spec against the real AST.

:func:`check_anchors` walks the scanned project for the classes a
:class:`~repro.analysis.protocol_check.spec.ProtocolSpec` names and
verifies every :class:`~repro.analysis.protocol_check.spec.CodeAnchor`
still matches.  The result is a list of :class:`Drift` records — an empty
list means the code still implements the machine the model checker
verifies, so checking the model really checks the code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dataflow import AnyFunc, class_methods
from ..model import terminal_name
from ..project import ModuleInfo, ProjectInfo
from .spec import CodeAnchor, ProtocolSpec


@dataclass(slots=True)
class Drift:
    """One anchor that no longer matches the source."""

    transition: str
    anchor: CodeAnchor
    module: ModuleInfo
    line: int
    col: int

    def describe(self) -> str:
        return (
            f"transition {self.transition!r} anchor no longer matches: "
            f"{self.anchor.describe()}"
        )


def _base_name(node: ast.expr) -> Optional[str]:
    """Terminal name of an expression, unwrapping subscripts/calls and the
    left side of arithmetic.

    ``slot.unacked[0][0]`` -> ``unacked``; ``len(x)`` -> ``len``;
    ``slot.emission_high + 1`` -> ``emission_high``.
    """
    while isinstance(node, (ast.Subscript, ast.BinOp)):
        node = node.value if isinstance(node, ast.Subscript) else node.left
    return terminal_name(node)


def _assigned_attrs(node: ast.Assign) -> List[str]:
    names: List[str] = []
    for target in node.targets:
        elements = (
            list(target.elts)
            if isinstance(target, (ast.Tuple, ast.List))
            else [target]
        )
        for element in elements:
            name = terminal_name(element)
            if name is not None:
                names.append(name)
    return names


def anchor_matches(anchor: CodeAnchor, func: AnyFunc) -> bool:
    """Whether one anchor pattern matches anywhere inside ``func``."""
    for node in ast.walk(func):
        if anchor.kind == "augassign" and isinstance(node, ast.AugAssign):
            if terminal_name(node.target) == anchor.attr:
                return True
        elif anchor.kind == "assign" and isinstance(node, ast.Assign):
            if anchor.attr in _assigned_attrs(node):
                return True
        elif anchor.kind == "append" and isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "appendleft")
                and _base_name(node.func.value) == anchor.attr
            ):
                return True
        elif anchor.kind == "method_call" and isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == anchor.detail
                and _base_name(node.func.value) == anchor.attr
            ):
                return True
        elif anchor.kind == "compare" and isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                if _base_name(operand) == anchor.attr:
                    return True
        elif anchor.kind == "call" and isinstance(node, ast.Call):
            if terminal_name(node.func) == anchor.detail:
                return True
    return False


def locate_classes(
    spec: ProtocolSpec, project: ProjectInfo
) -> Optional[Dict[str, Tuple[ModuleInfo, ast.ClassDef]]]:
    """Find the spec's classes in its modules; None when any is absent.

    A scan that lacks the protocol's modules (fixture trees, partial scans)
    is out of scope for the spec, not in violation of it.
    """
    located: Dict[str, Tuple[ModuleInfo, ast.ClassDef]] = {}
    for module in project:
        if not any(module.relpath.endswith(s) for s in spec.module_suffixes):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                located.setdefault(node.name, (module, node))
    if not all(name in located for name in spec.required_classes):
        return None
    return located


def check_anchors(spec: ProtocolSpec, project: ProjectInfo) -> List[Drift]:
    """Every anchor of ``spec`` that fails to match the scanned sources.

    Call :func:`locate_classes` first; passing a project the spec does not
    apply to reports every anchor as drifted, which is never what you want.
    """
    located = locate_classes(spec, project)
    if located is None:
        return []
    drifts: List[Drift] = []
    for transition, anchor in spec.all_anchors():
        found = located.get(anchor.cls)
        if found is None:
            # The class is optional context (not in required_classes) and
            # absent: the anchor cannot hold.
            first = next(iter(located.values()))
            drifts.append(Drift(transition, anchor, first[0], first[1].lineno, 0))
            continue
        module, cls = found
        func = class_methods(cls).get(anchor.method)
        if func is None:
            drifts.append(
                Drift(transition, anchor, module, cls.lineno, cls.col_offset)
            )
            continue
        if not anchor_matches(anchor, func):
            drifts.append(
                Drift(transition, anchor, module, func.lineno, func.col_offset)
            )
    return drifts


__all__ = ["Drift", "anchor_matches", "check_anchors", "locate_classes"]
