"""CHR016 — supervisor-protocol safety in the multi-process runtime.

The supervised seq/ack/group-commit protocol has two invariants the type
system cannot see, mined from ``runtime/multiproc/supervision.py``:

* **Sequenced emissions must be ackable.**  A method that advances a
  sequence counter (``slot.delivery_seq += 1``, ``slot.emission_high =
  seq``) and appends the frame to a buffer that outlives the call (an
  attribute named ``*unacked*``, ``*retransmit*`` or ``*uncommitted*``) is
  the 0xC6 sequenced-emission path: ``_admit_frame`` keeping inputs for
  retransmission, ``_park`` holding outputs until their commit marker.
  The class must also trim that buffer somewhere — a
  ``popleft``/``pop``/``remove``/``clear`` call or a reset assignment
  outside ``__init__`` (``parked, self.uncommitted = self.uncommitted, []``)
  — or every acked frame is retained forever and replay-after-respawn
  re-delivers the whole history.  (For ``uncommitted`` the two trim paths
  are the commit in ``_on_snapshot`` and the drop in ``_mark_worker_down``.)
* **Detected deaths must reach a respawn-or-park terminal.**  A method that
  reads ``proc.exitcode`` is a SIGKILL-detection branch.  Within
  :data:`~repro.analysis.dataflow.EXPAND_DEPTH` hops of the intra-class
  call graph it must reach a terminal: a call whose name says
  respawn/restart/replace/spawn/park/mark-down (``_mark_worker_down``
  counts), or a write to a ``*failed*``/``*parked*`` flag.  A detection
  branch that reaches neither observes the corpse and does nothing — the
  worker is dead, its frames buffer forever, and no supervisor sweep will
  ever revive it.

Scope is ``runtime/`` only: the invariants are properties of the supervised
process runtime, not of the in-process substrates.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..dataflow import EXPAND_DEPTH, AnyFunc, class_methods, reachable_within, self_call_graph
from ..findings import Finding
from ..model import terminal_name
from ..project import ModuleInfo
from .base import ModuleRule

SUPERVISED_PACKAGES: Tuple[str, ...] = ("runtime",)

_BUFFER_RE = re.compile(r"unacked|retransmit|uncommitted")
_SEQ_RE = re.compile(r"seq|emission")
_TERMINAL_CALL_RE = re.compile(r"respawn|restart|replace|spawn|park|mark\w*down")
_TERMINAL_FLAG_RE = re.compile(r"failed|parked")
_TRIM_CALLS = frozenset({"popleft", "pop", "remove", "clear"})


def _assign_target_names(stmt: ast.stmt) -> List[str]:
    """Terminal names of everything a statement assigns to (tuples unpacked)."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    names: List[str] = []
    for target in targets:
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


def _advances_sequence(func: AnyFunc) -> bool:
    """``x.seq += 1`` or ``x.emission_high = seq`` anywhere in the method."""
    for node in ast.walk(func):
        targets: Sequence[ast.expr]
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        if any(
            isinstance(target, ast.Attribute) and _SEQ_RE.search(target.attr)
            for target in targets
        ):
            return True
    return False


def _sequenced_buffers(func: AnyFunc) -> Dict[str, Tuple[int, int]]:
    """Buffer attrs this method appends to alongside a sequence advance."""
    if not _advances_sequence(func):
        return {}
    buffers: Dict[str, Tuple[int, int]] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "appendleft")
        ):
            name = terminal_name(node.func.value)
            if name is not None and _BUFFER_RE.search(name):
                buffers.setdefault(name, (node.lineno, node.col_offset))
    return buffers


def _trimmed_buffers(cls: ast.ClassDef) -> Set[str]:
    """Buffer names the class trims or resets (``__init__`` init excluded)."""
    trimmed: Set[str] = set()
    for method in class_methods(cls).values():
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TRIM_CALLS
            ):
                name = terminal_name(node.func.value)
                if name is not None and _BUFFER_RE.search(name):
                    trimmed.add(name)
            elif method.name != "__init__" and isinstance(
                node, (ast.Assign, ast.AnnAssign)
            ):
                for name in _assign_target_names(node):
                    if _BUFFER_RE.search(name):
                        trimmed.add(name)
    return trimmed


def _reads_exitcode(func: AnyFunc) -> Optional[ast.Attribute]:
    """The first ``<x>.exitcode`` read in a method body, if any."""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "exitcode"
            and isinstance(node.ctx, ast.Load)
        ):
            return node
    return None


def _has_terminal(func: AnyFunc) -> bool:
    """Whether a method body respawns, parks, or flags a failure."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name is not None and _TERMINAL_CALL_RE.search(name.lower()):
                return True
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if _TERMINAL_FLAG_RE.search(node.attr):
                return True
    return False


class SupervisorProtocolRule(ModuleRule):
    """CHR016: sequenced emissions get trimmed; detected deaths get handled."""

    code = "CHR016"
    name = "supervisor-protocol"
    description = (
        "In runtime/, a method that advances a sequence counter and appends "
        "to a sequenced-frame buffer (*unacked*/*retransmit*/*uncommitted*) "
        "requires an ack/trim path in the same class (pop/clear or a reset outside "
        "__init__), and a method that reads proc.exitcode (SIGKILL "
        "detection) must reach a respawn-or-park terminal within the "
        "bounded intra-class call graph — otherwise dead workers are "
        "observed but never recovered."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(SUPERVISED_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = class_methods(cls)
        if not methods:
            return
        trimmed: Optional[Set[str]] = None  # computed lazily, once per class
        graph = None
        terminal_methods: Optional[Set[str]] = None
        for name, func in sorted(methods.items()):
            for buffer, (line, col) in sorted(_sequenced_buffers(func).items()):
                if trimmed is None:
                    trimmed = _trimmed_buffers(cls)
                if buffer not in trimmed:
                    yield self.finding(
                        module,
                        line,
                        col,
                        f"{cls.name}.{name}() appends sequenced frames to "
                        f"{buffer!r} but no method of {cls.name} ever trims "
                        "or resets it — acked frames are retained forever "
                        "and every respawn replays the full history",
                    )
            exit_read = _reads_exitcode(func)
            if exit_read is None:
                continue
            if graph is None:
                graph = self_call_graph(cls)
                terminal_methods = {
                    m for m, f in methods.items() if _has_terminal(f)
                }
            assert terminal_methods is not None
            reachable = reachable_within(graph, [name], EXPAND_DEPTH)
            if not (reachable & terminal_methods):
                yield self.finding(
                    module,
                    exit_read.lineno,
                    exit_read.col_offset,
                    f"{cls.name}.{name}() detects a dead worker via "
                    ".exitcode but reaches no respawn-or-park terminal "
                    f"within {EXPAND_DEPTH} call hops — the corpse is "
                    "observed and then ignored",
                )
