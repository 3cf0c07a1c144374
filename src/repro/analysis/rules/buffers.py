"""CHR009 — unbounded inter-stage buffers.

Every pipeline stage keeps pending work in ``list``/``deque`` instance
buffers (batcher drafts, queue deferrals; a sender keeps none, its
retransmission window is one attempt per stream over the log).
A buffer appended to on the ``on_message`` hot path with no high-water mark
grows without bound the moment a downstream stage slows — the failure mode
log-structured stores guard with explicit watermarks.  The rule flags any
append/extend on such a buffer in a method transitively reachable from
``on_message`` unless the class enforces a bound or declares one:

* a ``len(self.<buffer>...)`` comparison anywhere in the class counts as an
  enforced high-water check;
* ``deque(maxlen=...)`` buffers are bounded by construction;
* ``# chariots: bounded-by=<invariant>`` on the initialising assignment or
  the appending line declares an external bound by name (e.g. a buffer
  drained on every token visit is bounded by token circulation).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..dataflow import class_methods, reachable_from, self_call_graph
from ..findings import Finding
from ..project import ModuleInfo
from .base import ModuleRule

#: Packages whose actor classes are pipeline stages.
STAGE_PACKAGES: Tuple[str, ...] = ("chariots", "flstore", "runtime")

_GROW_METHODS = frozenset({"append", "extend", "appendleft", "insert"})


def _unbounded_list_value(node: ast.expr) -> bool:
    """``[]`` / ``list()`` / ``deque()`` without maxlen — an unbounded buffer."""
    if isinstance(node, ast.List) and not node.elts:
        return True
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else (
            node.func.attr if isinstance(node.func, ast.Attribute) else None
        )
        if name == "list" and not node.args:
            return True
        if name == "deque":
            return not any(kw.arg == "maxlen" for kw in node.keywords)
    return False


def _dict_of_lists_value(node: ast.expr) -> bool:
    """``{k: [] for ...}`` or ``{...: []}`` — per-peer unbounded buffers."""
    if isinstance(node, ast.DictComp):
        return _unbounded_list_value(node.value)
    if isinstance(node, ast.Dict):
        return any(_unbounded_list_value(v) for v in node.values)
    return False


def _buffer_attrs(init: ast.AST) -> Dict[str, int]:
    """``self.<attr>`` buffers initialised in ``__init__`` -> init line."""
    buffers: Dict[str, int] = {}
    for node in ast.walk(init):
        value: ast.expr
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        if not (_unbounded_list_value(value) or _dict_of_lists_value(value)):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                buffers[target.attr] = node.lineno
    return buffers


def _self_buffer_of(node: ast.expr) -> str:
    """The buffer attr behind ``self.X`` or ``self.X[...]``, else ``""``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _guarded_attrs(cls: ast.ClassDef) -> Set[str]:
    """Buffer attrs appearing under ``len(...)`` inside any comparison."""
    guarded: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Compare):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "len"
                and sub.args
            ):
                attr = _self_buffer_of(sub.args[0])
                if attr:
                    guarded.add(attr)
    return guarded


class UnboundedBufferRule(ModuleRule):
    """CHR009: stage buffers need an enforced or declared high-water mark."""

    code = "CHR009"
    name = "unbounded-stage-buffer"
    description = (
        "A list/deque instance buffer appended to in a method reachable from "
        "on_message must have an enforced high-water mark (a len() comparison "
        "in the class), a deque maxlen, or a '# chariots: bounded-by=...' "
        "declaration naming the external invariant that bounds it."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(STAGE_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = class_methods(cls)
        if "on_message" not in methods or "__init__" not in methods:
            return
        buffers = _buffer_attrs(methods["__init__"])
        if not buffers:
            return
        guarded = _guarded_attrs(cls)
        hot_methods = reachable_from(self_call_graph(cls), ["on_message"])
        seen: Set[Tuple[str, int]] = set()
        for method_name in sorted(hot_methods):
            func = methods[method_name]
            for call in ast.walk(func):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _GROW_METHODS
                ):
                    continue
                attr = _self_buffer_of(call.func.value)
                if not attr or attr not in buffers:
                    continue
                if attr in guarded:
                    continue
                if call.lineno in module.bounded or buffers[attr] in module.bounded:
                    continue
                key = (attr, call.lineno)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    module,
                    call.lineno,
                    call.col_offset,
                    f"buffer self.{attr} of {cls.name} grows in "
                    f"{method_name}() (reachable from on_message) without a "
                    "high-water mark; enforce a len() bound or declare "
                    "'# chariots: bounded-by=<invariant>'",
                )
