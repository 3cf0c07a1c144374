"""Finding model for the project linter.

A finding pins one rule violation to one source location.  Its *fingerprint*
deliberately excludes the line number: a code-scanning service that dedups
alerts by it (SARIF ``partialFingerprints``) must see the same finding after
an unrelated edit shifts code up or down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    code: str  #: stable rule code, e.g. ``CHR003``
    path: str  #: posix-style path relative to the scan root
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    message: str  #: human-readable description of the violation

    def fingerprint(self) -> str:
        """Line-independent identity (SARIF ``partialFingerprints``)."""
        return f"{self.code}::{self.path}::{self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human-readable form (``path:line:col: CODE message``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
