"""A hash that every process agrees on.

``hash(str)`` is salted per interpreter (``PYTHONHASHSEED``), so it cannot
pick a champion — the indexer of a tag key, the filter of a client — that a
writer and a reader in different processes must both arrive at.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, TypeVar

T = TypeVar("T")


@lru_cache(maxsize=4096)
def stable_hash(text: str) -> int:
    """Deterministic 32-bit FNV-1a of ``text``'s UTF-8 bytes.

    Memoised: champions are picked per posting on the maintainers' flush
    path, over a small set of tag keys.
    """
    value = 2166136261
    for ch in text.encode("utf-8"):
        value = ((value ^ ch) * 16777619) & 0xFFFFFFFF
    return value


def champion(key: str, names: Sequence[T]) -> T:
    """The member of ``names`` that champions ``key``: the same in every
    process that picks from the same ``names`` in the same order."""
    return names[stable_hash(key) % len(names)]
