"""Every file path and ``make`` target the living docs name must exist,
and every symbol ``docs/API.md`` names must be defined in ``src/``.

Scans the code spans and fenced blocks of the user-facing docs (history
files — ``CHANGES.md``, ``ROADMAP.md``, ``ISSUE.md``, ``ledger/README.md`` —
are out of scope) so deleting or renaming a file or a symbol fails here
until the docs that point at it are swept.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOCS = sorted(
    [REPO_ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
    + list((REPO_ROOT / "docs").glob("*.md"))
    + [REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
)

#: Docs abbreviate module paths (``core/record.py``, ``rules/protocol.py``).
_ROOTS = ("", "src", "src/repro", "src/repro/analysis", "docs")

#: Named in the docs but produced by running things (all gitignored).
_GENERATED = {
    "runs/", "ledger/out/",
    "spec.json", "aggregates.json", "timeseries.json", "run.json",
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


#: Names ``docs/API.md`` uses that ``src/`` does not define: the standard
#: library's (``gc.set_threshold``, ``random.Random``, ``typing.Protocol``
#: and ``NamedTuple``, builtins), the ``py.typed`` marker, and the repo's
#: directories outside ``src/``.
_NOT_FROM_SRC = {
    "set_threshold", "Random", "Protocol", "NamedTuple", "hash", "len", "None",
    "typed", "docs", "ledger", "tests",
}
_CALL = re.compile(r"\b([A-Za-z_]\w*)\(")
_ATTR = re.compile(r"(?<=[\w)\]])\.([A-Za-z_]\w*)")
_SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_ANY_FILE = re.compile(r"[A-Za-z_.][\w.\-/]*\.(py|md|json|toml|yml)\b")


def _api_doc_symbols():
    """Call-shaped names, ``.attr`` names, and code spans that are bare
    identifiers (or lists of them split by ``/`` or ``,``) in docs/API.md."""
    doc = (REPO_ROOT / "docs" / "API.md").read_text()
    code = _ANY_FILE.sub(" ", "\n".join(_CODE.findall(doc)))
    named = set(_CALL.findall(code)) | set(_ATTR.findall(code))
    for span in _SPAN.findall(doc):
        named.update(
            part for part in re.split(r"\s*[/,]\s*", span.strip()) if part.isidentifier()
        )
    return named


def _src_names():
    """Every name ``src/`` defines: modules and packages, functions and
    classes, assigned names and attributes, parameters, and string constants
    (message types, executor kinds and counter names are strings)."""
    names = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        names.add(path.stem)
        names.update(parent.name for parent in path.parents)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_api_doc_names_only_defined_symbols():
    missing = sorted(_api_doc_symbols() - _src_names() - _NOT_FROM_SRC)
    assert not missing, f"docs/API.md names symbols src/ does not define: {missing}"
