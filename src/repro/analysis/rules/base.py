"""Rule plugin protocol.

A rule is a class with a stable ``code`` (``CHR001``…), a short ``name``,
and a ``check(project)`` generator yielding :class:`Finding` objects.  Rules
that only need one module at a time override :meth:`check_module`; rules
needing a whole-project view (the protocol-exhaustiveness cross-check)
override :meth:`check` directly.  noqa filtering happens in the driver, so
rules always report everything they see.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Iterator

from ..findings import Finding
from ..project import ModuleInfo, ProjectInfo


class Rule(ABC):
    """Base class for pluggable lint rules."""

    #: Stable, unique rule code (``CHR`` + three digits).  Codes are part of
    #: the suppression contract: never reuse a retired code.
    code: ClassVar[str]
    #: Short kebab-case name shown in ``--list-rules``.
    name: ClassVar[str]
    #: One-paragraph description of the invariant the rule enforces.
    description: ClassVar[str]

    def check(self, project: ProjectInfo) -> Iterator[Finding]:
        """Yield every violation in the project (pre-noqa)."""
        for module in project:
            yield from self.check_module(module)

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Per-module hook for rules without cross-module state."""
        return iter(())

    def finding(
        self, module: ModuleInfo, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            code=self.code, path=module.relpath, line=line, col=col, message=message
        )


class ModuleRule(Rule, ABC):
    """Convenience base for rules that inspect one module at a time."""

    @abstractmethod
    def check_module(self, module: ModuleInfo) -> Iterator[Finding]: ...
