"""CHR008 — fully annotated public API in the typed packages.

Every ``repro.*`` package is on the mypy strict profile (pyproject
``[tool.mypy]`` overrides — the lenient repo-wide default is gone); strict
mode fails on any unannotated def, but mypy isn't installable in every
environment this repo runs in.  This rule enforces the load-bearing subset
locally and offline: every public function/method in those packages must
annotate its return type and every parameter (``self``/``cls`` excepted),
so the typed surface can't silently erode between CI runs.

``TYPED_PACKAGES`` must stay identical to the pyproject override module
list and the actual ``src/repro/*`` package set —
``tests/test_analysis.py`` asserts all three agree, so a new package
cannot land untyped silently.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..findings import Finding
from ..project import ModuleInfo
from .base import ModuleRule

#: Packages whose public defs must be fully annotated (the mypy-strict set).
TYPED_PACKAGES: Tuple[str, ...] = (
    "core",
    "flstore",
    "chariots",
    "runtime",
    "net",
    "sim",
    "chaos",
    "apps",
    "baseline",
    "scenarios",
    "analysis",
)

#: Dunder methods with fixed, inferable signatures that strict mypy accepts
#: without annotations are still annotated in this codebase; but __init__
#: subclass hooks etc. must carry annotations like everything else.
_IMPLICIT_OK = {"__init_subclass__", "__class_getitem__"}


class TypedApiRule(ModuleRule):
    """CHR008: public defs in typed packages carry full annotations."""

    code = "CHR008"
    name = "untyped-public-api"
    description = (
        "Every public function and method in every repro.* package must "
        "annotate its return type and all parameters (self/cls excepted); "
        "this is the offline-checkable core of the mypy strict gate, which "
        "now covers the whole tree."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(TYPED_PACKAGES):
            return
        # (function node, enclosing class or None), skipping nested defs:
        # closures are implementation detail, not API surface.
        stack = [(node, None) for node in module.tree.body]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    stack.extend((child, node) for child in node.body)
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            private = name.startswith("_") and not (
                name.startswith("__") and name.endswith("__")
            )
            if private or name in _IMPLICIT_OK:
                continue
            where = f"{owner.name}.{name}" if owner is not None else name
            if node.returns is None:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"public def {where} has no return annotation",
                )
            args = node.args
            positional = list(args.posonlyargs) + list(args.args)
            is_method = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            if is_method and positional:
                positional = positional[1:]  # self / cls
            for arg in positional + list(args.kwonlyargs):
                if arg.annotation is None:
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"public def {where} has unannotated parameter "
                        f"{arg.arg!r}",
                    )
            for star in (args.vararg, args.kwarg):
                if star is not None and star.annotation is None:
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"public def {where} has unannotated parameter "
                        f"*{star.arg!r}",
                    )
