"""Every file path and ``make`` target the living docs name must exist.

Scans the code spans and fenced blocks of the user-facing docs (history
files — ``CHANGES.md``, ``ROADMAP.md``, ``ISSUE.md``, ``ledger/README.md`` —
are out of scope) so deleting or renaming a file fails here until the docs
that point at it are swept.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOCS = sorted(
    [REPO_ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
    + list((REPO_ROOT / "docs").glob("*.md"))
    + [REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
)

#: Docs abbreviate module paths (``core/log.py``, ``rules/protocol.py``).
_ROOTS = ("", "src", "src/repro", "src/repro/analysis", "docs")

#: Named in the docs but produced by running things (all gitignored).
_GENERATED = {
    "runs/", "ledger/out/",
    "spec.json", "aggregates.json", "perf.json", "timeseries.json", "run.json",
}

_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
_FILE = re.compile(r"^[A-Za-z_.][\w.\-/]*\.(py|md|json|toml|yml)$")
_DIR = re.compile(r"^[a-z.][a-z0-9_.\-/]*/$")
_MAKE = re.compile(r"\bmake ([a-z][a-z0-9-]*)")


def _code_text(doc: Path) -> str:
    return "\n".join(_CODE.findall(doc.read_text()))


def _named_paths(doc: Path):
    for word in _code_text(doc).split():
        word = word.strip("`\"'(),;:").rstrip(".")
        if _FILE.match(word) or _DIR.match(word):
            yield word


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_named_paths_exist(doc):
    assert doc.is_file(), doc
    missing = sorted(
        {
            path
            for path in _named_paths(doc)
            if path not in _GENERATED
            and not any((REPO_ROOT / root / path).exists() for root in _ROOTS)
        }
    )
    assert not missing, f"{doc.name} names paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_named_make_targets_exist(doc):
    makefile = (REPO_ROOT / "Makefile").read_text()
    targets = set(re.findall(r"^([a-z][a-z0-9-]*):", makefile, re.MULTILINE))
    missing = sorted(set(_MAKE.findall(_code_text(doc))) - targets)
    assert not missing, f"{doc.name} names make targets that do not exist: {missing}"
