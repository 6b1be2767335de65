"""Infinite periodic factors containing an unbounded letter: Lando's check.

Such factors are exactly the purely periodic periodic points of the
morphism: unbounded letters a with first(phi^l(a)) = a for some l bounded by
the alphabet size, filtered through the three-step pure-periodicity check
(find a repeated unbounded letter in an iterate, require the candidate letter
itself to repeat, and test that the prefix up to its second occurrence is a
proper-power root of its own image).

The side-graph stage, ``pushy.periodic_words``, finds the candidate cycles
as the left side graph's label-free cycles, runs the check once per cycle
and derives the other letters' periods; its docstring has the proof.
``first_letter_candidates`` is the direct first-letter walk, kept as an
independent reference for those cycles.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from .morphism import D0LSystem, EngineInvariantError, Morphism, functional_cycles
from .words import Word


def first_letter_candidates(system: D0LSystem) -> list[tuple[int, ...]]:
    """The cycles of the graph a -> first(phi(a)) through unbounded letters.

    Each cycle starts at its least letter and follows first letters, and the
    list is ordered by that letter; a cycle's length never exceeds the
    alphabet size.  A cycle through an unbounded letter has only unbounded
    letters, since each of them reaches it.  O(|A|).
    """
    phi = system.morphism
    if phi.is_erasing():
        raise ValueError("first-letter graph requires a non-erasing morphism")
    unbounded = phi.classification.unbounded
    firsts = [img[0] for img in phi.images]
    return [
        cycle
        for cycle in functional_cycles(range(len(firsts)), firsts.__getitem__)
        if cycle[0] in unbounded
    ]


def _advance_counts(phi: Morphism, counts: dict[int, int], steps: int) -> dict[int, int]:
    """Letter counts of phi^steps applied to a word with the given counts.

    A count map holds only the letters that occur, each as
    min(occurrences, 2).  The Lando check only asks whether a count is at
    least 2 and every term is non-negative, so the cap is exact; it also
    keeps the integers small on fast-growing systems.  With every count 1 or
    2, a letter met a second time in a step gets 2 and one met first takes
    the count of the letter whose image holds it.  One step costs the total
    image length of the letters present, not O(|A|).
    """
    images = phi.images
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for a, c in counts.items():
            for b in images[a]:
                nxt[b] = 2 if b in nxt else c
        counts = nxt
    return counts


def _expand(phi: Morphism, word: Sequence[int], depth: int) -> Iterator[int]:
    """Letters of phi^depth(word), left to right, produced lazily.

    stack[i] walks a word that still needs depth - i applications of phi, so
    memory stays at depth + 1 iterators whatever the length of the result.
    """
    images = phi.images
    stack = [iter(word)]
    while stack:
        for a in stack[-1]:
            if len(stack) > depth:
                yield a
            else:
                stack.append(iter(images[a]))
                break
        else:
            stack.pop()


def _prefix_before_second(phi: Morphism, letter: int, depth: int) -> Word:
    """Prefix of phi^depth(letter) in which `letter` occurs only as the first letter."""
    prefix: list[int] = []
    occurrences = 0
    for c in _expand(phi, (letter,), depth):
        if c == letter:
            occurrences += 1
            if occurrences == 2:
                return tuple(prefix)
        prefix.append(c)
    raise EngineInvariantError("second occurrence promised by the count vector is missing")


def lando_periodic_check(phi: Morphism, exponent: int, letter: int) -> Word | None:
    """Return v with (phi^exponent)^omega(letter) = v^omega, or None.

    Writing psi = phi^exponent: find the least s <= #A such that psi^s(letter)
    repeats some unbounded letter; require the candidate letter itself to
    repeat there; let v be the prefix up to (excluding) its second occurrence
    and accept iff psi(v) = v^m with m >= 2.  psi(v) is compared letter by
    letter with v^omega as it is generated, and never stored.
    """
    if not phi.is_endomorphism():
        raise ValueError("pure-periodicity check applies to endomorphisms")
    if phi.is_erasing():
        raise ValueError("pure-periodicity check requires a non-erasing morphism")
    if exponent < 1:
        raise ValueError("exponent must be positive")
    if not 0 <= letter < len(phi.source):
        raise ValueError(f"letter id {letter} outside the alphabet")
    b = letter
    for _ in range(exponent):
        b = phi.first_letter(b)
    if b != letter:
        raise ValueError("first(phi^exponent(letter)) must equal the letter itself")

    cls = phi.classification
    if letter not in cls.unbounded:
        raise ValueError("the candidate letter must be unbounded")
    counts = {letter: 1}
    for s in range(1, len(phi.source) + 1):
        counts = _advance_counts(phi, counts, exponent)
        if any(k >= 2 and c in cls.unbounded for c, k in counts.items()):
            break
    else:
        return None
    if counts.get(letter, 0) < 2:
        return None

    v = _prefix_before_second(phi, letter, exponent * s)
    length = 0
    for length, (c, d) in enumerate(zip(_expand(phi, v, exponent), itertools.cycle(v)), start=1):
        if c != d:
            return None
    m, rest = divmod(length, len(v))
    if rest:
        return None
    if m < 2:
        # v starts with an unbounded letter, so psi(v) = v is impossible.
        raise EngineInvariantError("psi(v) = v contradicts unboundedness of the candidate letter")
    return v
