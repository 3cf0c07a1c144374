"""Per-line suppression comments.

A finding on a line carrying ``# chariots: noqa=CHR003`` (or a comma list of
codes, or a bare ``# chariots: noqa`` to suppress every rule) is dropped
before it is reported.  The directive is project-specific on purpose —
plain ``# noqa`` keeps its usual meaning for ruff/flake8 and never silences
these rules, so suppressions of protocol/determinism invariants stay
greppable and auditable.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

#: ``line number (1-based) -> suppressed codes`` (``None`` = all codes).
NoqaMap = Dict[int, Optional[FrozenSet[str]]]

#: ``line number (1-based) -> declared bound`` for CHR009's
#: ``# chariots: bounded-by=<reason>`` directive.
BoundedMap = Dict[int, str]

_NOQA_RE = re.compile(
    r"#\s*chariots:\s*noqa(?:\s*=\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
)

_BOUNDED_RE = re.compile(r"#\s*chariots:\s*bounded-by\s*=\s*(?P<reason>[\w.\-]+)")


def _comment_tokens(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, text)`` for every real comment token in ``source``.

    Tokenizing (rather than regex-scanning raw lines) keeps directives
    quoted inside docstrings and string literals — this module's own docs,
    for one — from registering as live suppressions.
    """
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return  # unparseable tail; the scanner already requires valid AST


def collect_noqa(source: str) -> NoqaMap:
    """Map suppression directives in ``source`` by line number."""
    result: NoqaMap = {}
    for lineno, comment in _comment_tokens(source):
        match = _NOQA_RE.search(comment)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            result[lineno] = None
        else:
            result[lineno] = frozenset(c.strip() for c in codes.split(","))
    return result


def collect_bounded(source: str) -> BoundedMap:
    """Map ``# chariots: bounded-by=<reason>`` declarations by line number.

    The directive is CHR009's structured escape hatch: it asserts that a
    buffer which *looks* unbounded is in fact bounded by an external
    invariant (named by ``<reason>``), and is accepted on either the
    buffer's initialising assignment or the appending line.  Unlike a bare
    ``noqa`` it forces the author to name the invariant, which keeps
    declared bounds greppable (``grep -rn "bounded-by" src/``).
    """
    result: BoundedMap = {}
    for lineno, comment in _comment_tokens(source):
        match = _BOUNDED_RE.search(comment)
        if match is not None:
            result[lineno] = match.group("reason")
    return result


def is_suppressed(noqa: NoqaMap, line: int, code: str) -> bool:
    """Whether ``code`` is suppressed on ``line`` by a noqa directive."""
    if line not in noqa:
        return False
    codes = noqa[line]
    return codes is None or code in codes
