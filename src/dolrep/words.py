"""Finite-word combinatorics: primitive roots, conjugates, canonical rotations.

Words are plain tuples of letter ids (small non-negative ints indexing an
Alphabet, see :mod:`dolrep.morphism`).  All functions here are pure and treat
words as immutable values, so they are safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Sequence

Word = tuple[int, ...]


def _word_str(word: Sequence[int]) -> str:
    """The word as a string of one character per letter (``chr`` of its
    id), so that it slices, compares, searches and hashes in C."""
    return "".join(map(chr, word))


def _str_word(text: str) -> Word:
    """The inverse of ``_word_str``."""
    return tuple(map(ord, text))


def _require_nonempty(w: Sequence[int]) -> None:
    if len(w) == 0:
        raise ValueError("word must be non-empty")


def primitive_root(w: Sequence[int]) -> Word:
    """Return the shortest x with w = x^m for some m >= 1."""
    _require_nonempty(w)
    w = tuple(w)
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    raise AssertionError("unreachable: every word is a power of itself")


def is_primitive(w: Sequence[int]) -> bool:
    """True iff w is not a proper power."""
    _require_nonempty(w)
    return len(primitive_root(w)) == len(w)


def conjugates(w: Sequence[int]) -> set[Word]:
    """The set of all rotations of w."""
    _require_nonempty(w)
    w = tuple(w)
    return {w[i:] + w[:i] for i in range(len(w))}


def canonical_rotation(w: Sequence[int]) -> Word:
    """Lexicographically least rotation of w, comparing letters by id."""
    _require_nonempty(w)
    w = tuple(w)
    return min(w[i:] + w[:i] for i in range(len(w)))
