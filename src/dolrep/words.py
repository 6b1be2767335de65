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
    # The rotations of w equal to w are those by multiples of |x|, x its
    # primitive root, so w first occurs in ww after position 0 at |x|.
    s = _word_str(w)
    return w[: (s + s).find(s, 1)]


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
    """Lexicographically least rotation of w, comparing letters by id.

    Duval's Lyndon factorisation of ww (J. Algorithms 1983), stopped once a
    factor starts at or past |w|: the least rotation starts at the last
    factor that starts before |w|.  Each round moves i past k and by at
    least j - k, so by at least half the j - i letters it compared, and the
    walk is O(|w|).
    """
    _require_nonempty(w)
    ww = tuple(w) * 2
    n = len(w)
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        # ww[i:j] is a power of a Lyndon word of length j - k, then a proper prefix of it
        while j < 2 * n and ww[k] <= ww[j]:
            k = i if ww[k] < ww[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return ww[start : start + n]
