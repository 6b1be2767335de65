"""Word helpers that only the tests use: occurrences, exact powers, conjugacy.

Words are tuples of letter ids, as in :mod:`dolrep.words`.
"""

from collections.abc import Sequence


def factor_occurrences(text: Sequence[int], pattern: Sequence[int]) -> list[int]:
    """All (possibly overlapping) start indices of pattern in text, ascending."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    text, pattern = tuple(text), tuple(pattern)
    k = len(pattern)
    return [i for i in range(len(text) - k + 1) if text[i : i + k] == pattern]


def exact_power_of(w: Sequence[int], v: Sequence[int]) -> int | None:
    """Return m if w = v^m (m = 0 iff w is empty), else None."""
    if not v:
        raise ValueError("base word must be non-empty")
    w, v = tuple(w), tuple(v)
    if len(w) % len(v):
        return None
    m = len(w) // len(v)
    return m if v * m == w else None


def are_conjugate(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff u is a rotation of v (two empty words are conjugate)."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        return False
    if not u:
        return True
    return bool(factor_occurrences(v + v, u))
