"""Planted systems: a small D0L-system inflated into a large one whose classes are known.

One inflation runs a simplification backwards.  Take a base system (g, w)
over B.  Split each letter b into r_b fresh letters, with
k(b) = a_(b,1) .. a_(b,r_b), and cut g(b) into r_b pieces, which may be
empty, as the images h(a_(b,j)).  Then h o k = g, and f = k o h with the
axiom k(w) has f^n(k(w)) = k(g^n(w)).  The fresh letters get their ids in a
random order.

Each letter of the new alphabet sits at one place of one block k(b).  So in
a high power of a word u the block boundaries recur with period |u|, a
rotation of u is k(v), and v's powers occur in the base's language: the
classes of (f, k(w)) are the canonical primitive roots of k(v) over the
classes v of (g, w).  A bounded letter b of g has k(b) made of bounded
letters, and an unbounded one has an unbounded letter in k(b), so each
class keeps its source.
"""

import random

from dolrep import Alphabet, D0LSystem, Morphism, analyze, canonical_rotation, primitive_root
from dolrep.morphism import compose


def inflate(base: D0LSystem, rng: random.Random, max_split: int) -> tuple[D0LSystem, Morphism]:
    """One inflation of base, with each r_b drawn from 1..max_split: the
    planted system and k, from base's alphabet into the planted one's."""
    splits = [rng.randint(1, max_split) for _ in base.alphabet.symbols]
    letters = [(b, j) for b, r in enumerate(splits) for j in range(r)]
    rng.shuffle(letters)
    letter_id = {bj: i for i, bj in enumerate(letters)}
    alphabet = Alphabet(tuple(f"p{i}" for i in range(len(letters))))
    k = Morphism(
        base.alphabet,
        alphabet,
        tuple(tuple(letter_id[b, j] for j in range(r)) for b, r in enumerate(splits)),
    )
    pieces = {}
    for b, (image, r) in enumerate(zip(base.morphism.images, splits)):
        cuts = [0, *sorted(rng.randint(0, len(image)) for _ in range(r - 1)), len(image)]
        for j in range(r):
            pieces[b, j] = image[cuts[j] : cuts[j + 1]]
    h = Morphism(alphabet, base.alphabet, tuple(pieces[bj] for bj in letters))
    return D0LSystem(compose(k, h), k(base.axiom)), k


def planted(
    base: D0LSystem, rng: random.Random, inflations: int, max_split: int
) -> tuple[D0LSystem, Morphism]:
    """base inflated the given number of times, and the composed k from
    base's alphabet into the result's."""
    system, k = inflate(base, rng, max_split)
    for _ in range(inflations - 1):
        system, k_next = inflate(system, rng, max_split)
        k = compose(k_next, k)
    return system, k


def planted_classes(base: D0LSystem, k: Morphism) -> set[tuple[tuple[int, ...], str]]:
    """The expected (representative, source) pairs of a system planted on
    base through k, from the engine's classes of base."""
    return {
        (canonical_rotation(primitive_root(k(cls.representative))), cls.source.value)
        for cls in analyze(base).classes
    }
