"""Whole-project model: the message-flow graph every cross-file rule shares.

PR 3's rules each re-walked the ASTs they needed.  This module centralises
the expensive whole-project extraction into one memoised
:class:`ProjectModel` so the protocol rules (CHR001/CHR002), the new
concurrency/flow rules (CHR009–CHR013) and the ``--graph`` dump all read the
same facts:

* **message classes** — public dataclasses in ``*/messages.py`` modules;
* **codec registry** — the ``_MESSAGE_TYPES`` tuple in the codec module;
* **dispatch sites** — ``isinstance`` checks inside ``on_message`` handlers;
* **construction sites** — every ``SomeMessage(...)`` call in the tree;
* **dict-request flow** — the ``{"type": ...}`` request surface of the
  ``net/`` layer: which type strings clients send and which ones server
  ``handle()``/``_serve()`` methods dispatch on;
* **reply shapes** — per request-type branch in a handler, the keys of every
  reply dict literal it returns (or ships via ``self.write``), and per
  client call site, the reply keys the caller actually reads — subscripts
  (``response["results"]``, a ``KeyError`` if the server drops the key) kept
  separate from tolerant ``response.get(...)`` reads.  CHR015 checks the two
  ends against each other.

The model is built once per scan and cached on
:attr:`ProjectInfo.model_cache`; rules obtain it via :func:`build_model`.
Everything here is pure ``ast`` — the scanned code is never imported.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .project import ModuleInfo, ProjectInfo

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")

#: Terminal callee names treated as "this call ships a request dict".
#: ``conn.request({...})`` / ``self._request(conn, {...})`` are the client
#: RPC entry points; ``link.post({...})`` / ``self._post(link, {...})`` are
#: the fire-and-forget paths (gossip, pushed postings).
SEND_FUNCS = frozenset({"request", "_request", "post", "_post"})

#: Method names whose bodies dispatch incoming request dicts (``handle``)
#: or answer them generically (``_serve``, the connection's error replies).
HANDLER_METHODS = frozenset({"handle", "_serve"})

#: Terminal callee name that ships a reply dict other than by ``return``.
REPLY_FUNC = "write"


def terminal_name(node: ast.AST) -> Optional[str]:
    """``cmsg.DraftBatch`` -> ``DraftBatch``; ``DraftBatch`` -> itself."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_dataclass_decorated(node: ast.ClassDef) -> bool:
    """Whether the class carries a ``@dataclass`` decorator (any spelling)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if terminal_name(target) == "dataclass":
            return True
    return False


def field_count(node: ast.ClassDef) -> int:
    """Number of public dataclass fields declared directly on the class."""
    count = 0
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        target = stmt.target
        if isinstance(target, ast.Name) and not target.id.startswith("_"):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" not in annotation:
                count += 1
    return count


def annotation_names(node: ast.ClassDef) -> Set[str]:
    """Every identifier appearing in the class's field annotations."""
    names: Set[str] = set()
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        for sub in ast.walk(stmt.annotation):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                # Forward references: "Record" inside a string annotation.
                if sub.value and set(sub.value) <= _IDENT_CHARS:
                    names.add(sub.value)
    return names


@dataclass(slots=True)
class Site:
    """One source location contributing an edge to the flow graph."""

    module: ModuleInfo
    line: int
    col: int


@dataclass(slots=True)
class MessageClass:
    """A public dataclass found in a ``*/messages.py`` module."""

    name: str
    module: ModuleInfo
    line: int
    col: int
    fields: int
    annotation_names: Set[str]


@dataclass(slots=True)
class RegistryEntry:
    """One codec registration: an element of the ``_MESSAGE_TYPES`` tuple."""

    module: ModuleInfo
    name: str
    line: int
    col: int


@dataclass(slots=True)
class ProjectModel:
    """The shared cross-module view rules and ``--graph`` consume."""

    message_classes: Dict[str, MessageClass] = field(default_factory=dict)
    registry: List[RegistryEntry] = field(default_factory=list)
    all_class_names: Set[str] = field(default_factory=set)
    #: class name -> its first base class (``LazyRecordBatch`` -> ``RecordBatch``).
    first_base: Dict[str, str] = field(default_factory=dict)
    #: message name -> ``isinstance`` dispatch sites inside ``on_message``.
    dispatched: Dict[str, List[Site]] = field(default_factory=dict)
    #: class name -> call sites constructing it (message/registered names only).
    constructions: Dict[str, List[Site]] = field(default_factory=dict)
    #: request ``"type"`` string -> compare sites in ``handle()``/``_serve()``.
    request_handled: Dict[str, List[Site]] = field(default_factory=dict)
    #: request ``"type"`` string -> client send sites.
    request_sent: Dict[str, List[Site]] = field(default_factory=dict)
    #: whether the scanned tree contains any request-handler method at all
    #: (partial scans without servers must not trip the flow rules).
    has_request_handlers: bool = False
    #: request type -> reply key -> handler emit sites (dict literals only).
    reply_keys: Dict[str, Dict[str, List[Site]]] = field(default_factory=dict)
    #: reply keys emitted outside any request-type branch (error fallbacks);
    #: these apply to every request type.
    reply_generic: Set[str] = field(default_factory=set)
    #: request types whose reply shape can't be known statically (a handler
    #: branch returns something other than a dict literal).
    reply_opaque: Set[str] = field(default_factory=set)
    #: request type -> reply key -> client subscript-read sites (KeyError on
    #: a missing key).
    reply_reads: Dict[str, Dict[str, List[Site]]] = field(default_factory=dict)
    #: request type -> reply keys read tolerantly via ``.get(...)``.
    reply_soft_reads: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def registered_names(self) -> Set[str]:
        return {entry.name for entry in self.registry}

    @property
    def embedded_annotation_names(self) -> Set[str]:
        """Union of all identifiers used in message field annotations."""
        names: Set[str] = set()
        for cls in self.message_classes.values():
            names |= cls.annotation_names
        return names

    def embedded_in(self) -> Dict[str, Set[str]]:
        """message name -> names of the messages that embed it as a field."""
        result: Dict[str, Set[str]] = {}
        for cls in self.message_classes.values():
            for name in cls.annotation_names:
                if name in self.message_classes:
                    result.setdefault(name, set()).add(cls.name)
        return result

    # -- graph export -----------------------------------------------------

    def graph_dict(self) -> Dict[str, object]:
        """The message-flow graph as a plain JSON-ready dict."""

        def sites(items: List[Site]) -> List[Dict[str, object]]:
            return [
                {"module": s.module.relpath, "line": s.line}
                for s in sorted(items, key=lambda s: (s.module.relpath, s.line))
            ]

        registered = self.registered_names
        embedded = self.embedded_in()
        messages = {}
        for name in sorted(self.message_classes):
            cls = self.message_classes[name]
            messages[name] = {
                "module": cls.module.relpath,
                "fields": cls.fields,
                "registered": name in registered,
                "constructed_in": sites(self.constructions.get(name, [])),
                "dispatched_in": sites(self.dispatched.get(name, [])),
                "embedded_in": sorted(embedded.get(name, ())),
            }
        requests = {}
        for kind in sorted(set(self.request_sent) | set(self.request_handled)):
            read = set(self.reply_reads.get(kind, {})) | self.reply_soft_reads.get(
                kind, set()
            )
            requests[kind] = {
                "sent_from": sites(self.request_sent.get(kind, [])),
                "handled_in": sites(self.request_handled.get(kind, [])),
                "reply_keys": sorted(self.reply_keys.get(kind, {})),
                "reply_reads": sorted(read),
                "reply_opaque": kind in self.reply_opaque,
            }
        return {"version": 1, "messages": messages, "requests": requests}

    def graph_json(self) -> str:
        return json.dumps(self.graph_dict(), indent=2, sort_keys=True) + "\n"

    def graph_dot(self) -> str:
        """The same graph in GraphViz DOT form, for docs and eyeballs."""
        graph = self.graph_dict()
        out: List[str] = [
            "digraph message_flow {",
            "  rankdir=LR;",
            '  node [fontsize=10, fontname="Helvetica"];',
        ]
        modules: Set[str] = set()
        messages = graph["messages"]
        requests = graph["requests"]
        assert isinstance(messages, dict) and isinstance(requests, dict)
        for name, info in messages.items():
            shape = "box" if info["registered"] else "box, style=dashed"
            out.append(f'  "msg:{name}" [label="{name}", shape={shape}];')
            for site in info["constructed_in"]:
                modules.add(site["module"])
                out.append(
                    f'  "mod:{site["module"]}" -> "msg:{name}" [label="constructs"];'
                )
            for site in info["dispatched_in"]:
                modules.add(site["module"])
                out.append(
                    f'  "msg:{name}" -> "mod:{site["module"]}" [label="dispatched"];'
                )
            for outer in info["embedded_in"]:
                out.append(
                    f'  "msg:{name}" -> "msg:{outer}" [label="embedded", style=dotted];'
                )
        for kind, info in requests.items():
            out.append(f'  "req:{kind}" [label="{kind}", shape=diamond];')
            for site in info["sent_from"]:
                modules.add(site["module"])
                out.append(
                    f'  "mod:{site["module"]}" -> "req:{kind}" [label="sends"];'
                )
            for site in info["handled_in"]:
                modules.add(site["module"])
                out.append(
                    f'  "req:{kind}" -> "mod:{site["module"]}" [label="handled"];'
                )
        for module in sorted(modules):
            out.append(f'  "mod:{module}" [label="{module}", shape=ellipse];')
        out.append("}")
        return "\n".join(out) + "\n"


# -- extraction -----------------------------------------------------------


def _registry_entries(module: ModuleInfo) -> List[Tuple[str, int, int]]:
    """(name, line, col) for every type registered in a codec module: the
    elements of its ``_MESSAGE_TYPES`` tuple."""
    entries: List[Tuple[str, int, int]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "_MESSAGE_TYPES"
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                for element in node.value.elts:
                    name = terminal_name(element)
                    if name:
                        entries.append((name, element.lineno, element.col_offset))
    return entries


def _collect_dispatch(model: ProjectModel, project: ProjectInfo) -> None:
    """``isinstance`` checks inside ``on_message`` methods, with sites."""
    for module in project:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name != "on_message":
                continue
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "isinstance"
                    and len(call.args) == 2
                ):
                    spec = call.args[1]
                    elements = (
                        spec.elts if isinstance(spec, (ast.Tuple, ast.List)) else [spec]
                    )
                    for element in elements:
                        name = terminal_name(element)
                        if name:
                            model.dispatched.setdefault(name, []).append(
                                Site(module, call.lineno, call.col_offset)
                            )


def _collect_constructions(model: ProjectModel, project: ProjectInfo) -> None:
    """Call sites whose callee is a message class or registered name, or a
    subclass of one: ``LazyRecordBatch(...)`` constructs a ``RecordBatch``."""
    tracked = set(model.message_classes) | model.registered_names
    if not tracked:
        return
    for module in project:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            climbed: Set[str] = set()
            while name is not None and name not in tracked and name not in climbed:
                climbed.add(name)
                name = model.first_base.get(name)
            if name in tracked:
                model.constructions.setdefault(name, []).append(
                    Site(module, node.lineno, node.col_offset)
                )


def _module_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` string constants."""
    consts: Dict[str, str] = {}
    for stmt in tree.body:
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        if not isinstance(value, ast.Constant) or not isinstance(value.value, str):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                consts[target.id] = value.value
    return consts


def _resolve_string(
    node: ast.AST, local: Dict[str, str], global_consts: Dict[str, str]
) -> Optional[str]:
    """Resolve a string literal or a (possibly imported) string constant."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    name = terminal_name(node)
    if name is None:
        return None
    if name in local:
        return local[name]
    return global_consts.get(name)


def _is_type_key_expr(node: ast.AST, aliases: Set[str]) -> bool:
    """``request["type"]`` / ``request.get("type")`` / an alias var of one."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.Subscript):
        key = node.slice
        return (
            isinstance(key, ast.Constant)
            and key.value == "type"
            and isinstance(node.value, ast.Name)
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (
            node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and len(node.args) >= 1
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "type"
        )
    return False


def _type_aliases(func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Set[str]:
    """Names bound from the type key: ``kind = request["type"]``."""
    aliases: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _is_type_key_expr(node.value, set()):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


def _compare_types(
    node: ast.Compare,
    aliases: Set[str],
    local_consts: Dict[str, str],
    global_consts: Dict[str, str],
) -> List[str]:
    """Type strings one comparison tests the request type against."""
    operands = [node.left, *node.comparators]
    if not any(_is_type_key_expr(op, aliases) for op in operands):
        return []
    results: List[str] = []
    for op, comparator in zip(node.ops, node.comparators):
        if isinstance(op, (ast.Eq, ast.NotEq)):
            for side in (node.left, comparator):
                value = _resolve_string(side, local_consts, global_consts)
                if value is not None:
                    results.append(value)
        elif isinstance(op, ast.In) and isinstance(
            comparator, (ast.Tuple, ast.List, ast.Set)
        ):
            for element in comparator.elts:
                value = _resolve_string(element, local_consts, global_consts)
                if value is not None:
                    results.append(value)
    return results


def _handler_compares(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    local_consts: Dict[str, str],
    global_consts: Dict[str, str],
) -> List[Tuple[str, int, int]]:
    """(type string, line, col) for every request-type comparison in a handler."""
    # Aliases: ``kind = request["type"]`` makes later ``kind == "x"`` count.
    aliases = _type_aliases(func)
    results: List[Tuple[str, int, int]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        for value in _compare_types(node, aliases, local_consts, global_consts):
            results.append((value, node.lineno, node.col_offset))
    return results


def _dict_type(
    node: ast.AST,
    local_consts: Dict[str, str],
    global_consts: Dict[str, str],
) -> Optional[str]:
    """The resolved ``"type"`` value of a request dict literal, if any."""
    if not isinstance(node, ast.Dict):
        return None
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and key.value == "type":
            return _resolve_string(value, local_consts, global_consts)
    return None


def _send_var_types(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    local_consts: Dict[str, str],
    global_consts: Dict[str, str],
) -> Dict[str, str]:
    """``message = {"type": "gossip", ...}`` bindings, by variable name."""
    var_types: Dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            kind = _dict_type(node.value, local_consts, global_consts)
            if kind is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        var_types[target.id] = kind
    return var_types


def _send_sites(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    local_consts: Dict[str, str],
    global_consts: Dict[str, str],
) -> List[Tuple[str, int, int]]:
    """(type string, line, col) for request dicts shipped via a send call."""
    var_types = _send_var_types(func, local_consts, global_consts)
    results: List[Tuple[str, int, int]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        if terminal_name(node.func) not in SEND_FUNCS:
            continue
        for arg in node.args:
            kind = _dict_type(arg, local_consts, global_consts)
            if kind is None and isinstance(arg, ast.Name):
                kind = var_types.get(arg.id)
            if kind is not None:
                results.append((kind, node.lineno, node.col_offset))
    return results


#: Sentinel for "a reply was emitted here but its keys are unknowable".
_OPAQUE = frozenset({"\x00opaque"})


def _reply_shapes(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    local_consts: Dict[str, str],
    global_consts: Dict[str, str],
) -> List[Tuple[Optional[Tuple[str, ...]], FrozenSet[str], int, int]]:
    """Reply emissions in a handler: (branch types, keys, line, col).

    ``types`` is the request-type strings of the innermost enclosing
    ``if``-branch that tests the type key (``None`` for emissions outside
    any branch — error fallbacks that apply to every type).  ``keys`` is the
    reply dict literal's key set, or the ``_OPAQUE`` sentinel when the reply
    isn't a dict literal with constant string keys.  ``return None`` and bare
    ``return`` are one-way paths and produce no entry.
    """
    aliases = _type_aliases(func)
    out: List[Tuple[Optional[Tuple[str, ...]], FrozenSet[str], int, int]] = []

    def emit(value: ast.expr, types: Optional[Tuple[str, ...]], node: ast.AST) -> None:
        if isinstance(value, ast.Constant) and value.value is None:
            return  # one-way: no reply frame
        if isinstance(value, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in value.keys
        ):
            keys = frozenset(k.value for k in value.keys if isinstance(k, ast.Constant))
        else:
            keys = _OPAQUE
        out.append((types, keys, node.lineno, node.col_offset))

    def test_types(test: ast.expr) -> List[str]:
        found: List[str] = []
        for node in ast.walk(test):
            if isinstance(node, ast.Compare):
                found.extend(
                    _compare_types(node, aliases, local_consts, global_consts)
                )
        return found

    def scan_calls(stmt: ast.stmt, types: Optional[Tuple[str, ...]]) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and terminal_name(node.func) == REPLY_FUNC:
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        emit(arg, types, node)

    def visit(body: List[ast.stmt], types: Optional[Tuple[str, ...]]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.If):
                scan_calls(stmt.test, types)  # a reply written in a test: unlikely
                branch = test_types(stmt.test)
                visit(stmt.body, tuple(branch) if branch else types)
                visit(stmt.orelse, types)
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    emit(stmt.value, types, stmt)
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                visit(stmt.body, types)
                visit(stmt.orelse, types)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body, types)
                for handler in stmt.handlers:
                    visit(handler.body, types)
                visit(stmt.orelse, types)
                visit(stmt.finalbody, types)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                visit(stmt.body, types)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scope: not this handler's replies
            else:
                scan_calls(stmt, types)

    visit(func.body, None)
    return out


def _reply_read_sites(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    local_consts: Dict[str, str],
    global_consts: Dict[str, str],
) -> List[Tuple[str, str, bool, int, int]]:
    """Reply-key reads at client call sites: (type, key, hard, line, col).

    A variable assigned from a send call whose request dict carries a
    literal ``"type"`` is that type's reply (``response = await
    self._request(conn, {"type": "head"})``).  Subscript reads are *hard*
    (a dropped key is a ``KeyError``); ``.get(...)`` reads are tolerant.
    """
    var_types = _send_var_types(func, local_consts, global_consts)

    def call_send_type(value: ast.expr) -> Optional[str]:
        for node in ast.walk(value):
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) not in SEND_FUNCS:
                continue
            for arg in node.args:
                kind = _dict_type(arg, local_consts, global_consts)
                if kind is None and isinstance(arg, ast.Name):
                    kind = var_types.get(arg.id)
                if kind is not None:
                    return kind
        return None

    reply_vars: Dict[str, str] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        kind = call_send_type(node.value)
        if kind is not None:
            reply_vars[target.id] = kind

    reads: List[Tuple[str, str, bool, int, int]] = []
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in reply_vars
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.append(
                (
                    reply_vars[node.value.id],
                    node.slice.value,
                    True,
                    node.lineno,
                    node.col_offset,
                )
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in reply_vars
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.append(
                (
                    reply_vars[node.func.value.id],
                    node.args[0].value,
                    False,
                    node.lineno,
                    node.col_offset,
                )
            )
    return reads


def _collect_request_flow(model: ProjectModel, project: ProjectInfo) -> None:
    """The dict-request surface of the ``net/`` layer, both directions."""
    net_modules = [m for m in project if m.in_package(("net",))]
    global_consts: Dict[str, str] = {}
    for module in net_modules:
        global_consts.update(_module_constants(module.tree))
    for module in net_modules:
        local_consts = _module_constants(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in HANDLER_METHODS:
                model.has_request_handlers = True
                for kind, line, col in _handler_compares(
                    node, local_consts, global_consts
                ):
                    model.request_handled.setdefault(kind, []).append(
                        Site(module, line, col)
                    )
                for types, keys, line, col in _reply_shapes(
                    node, local_consts, global_consts
                ):
                    if types is None:
                        if keys is not _OPAQUE:
                            model.reply_generic |= keys
                        continue
                    for kind in types:
                        if keys is _OPAQUE:
                            model.reply_opaque.add(kind)
                            continue
                        per_kind = model.reply_keys.setdefault(kind, {})
                        for key in keys:
                            per_kind.setdefault(key, []).append(
                                Site(module, line, col)
                            )
            else:
                for kind, line, col in _send_sites(node, local_consts, global_consts):
                    model.request_sent.setdefault(kind, []).append(
                        Site(module, line, col)
                    )
                for kind, key, hard, line, col in _reply_read_sites(
                    node, local_consts, global_consts
                ):
                    if hard:
                        model.reply_reads.setdefault(kind, {}).setdefault(
                            key, []
                        ).append(Site(module, line, col))
                    else:
                        model.reply_soft_reads.setdefault(kind, set()).add(key)


def build_model(project: ProjectInfo) -> ProjectModel:
    """Build (or return the cached) :class:`ProjectModel` for a scan."""
    cached = project.model_cache
    if isinstance(cached, ProjectModel):
        return cached
    model = ProjectModel()
    for module in project:
        is_messages = module.relpath.endswith("messages.py")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                model.all_class_names.add(node.name)
                base = terminal_name(node.bases[0]) if node.bases else None
                if base is not None:
                    model.first_base[node.name] = base
                if (
                    is_messages
                    and not node.name.startswith("_")
                    and is_dataclass_decorated(node)
                ):
                    model.message_classes[node.name] = MessageClass(
                        name=node.name,
                        module=module,
                        line=node.lineno,
                        col=node.col_offset,
                        fields=field_count(node),
                        annotation_names=annotation_names(node),
                    )
        for name, line, col in _registry_entries(module):
            model.registry.append(RegistryEntry(module, name, line, col))
    _collect_dispatch(model, project)
    _collect_constructions(model, project)
    _collect_request_flow(model, project)
    project.model_cache = model
    return model
