"""Metamorphic properties of the analysis on systems past the corpus's 4 letters.

No oracle is needed: the classes are a property of the language's factors,
so they cannot depend on the names or declaration order of the letters, and
they survive dropping the axiom from the language (replacing w by phi(w)
loses one word, and with it only finitely many factors).
"""

import random

from dolrep import Alphabet, D0LSystem, Morphism, analyze
from corpus_util import random_system


def _classes(system: D0LSystem) -> set[tuple[frozenset[tuple[str, ...]], str]]:
    """Each class as (its rotations over symbol names, source): free of letter ids."""
    symbols = system.alphabet.symbols
    out = set()
    for cls in analyze(system).classes:
        word = tuple(symbols[a] for a in cls.representative)
        out.add((frozenset(word[i:] + word[:i] for i in range(len(word))), cls.source.value))
    return out


def _systems(seed: int, count: int) -> list[D0LSystem]:
    rng = random.Random(seed)
    return [random_system(rng, max_letters=12, min_letters=5) for _ in range(count)]


def test_classes_invariant_under_renaming_and_reordering():
    rng = random.Random(6201)
    repetitive = 0
    for system in _systems(6202, 1000):
        n = len(system.alphabet)
        order = rng.sample(range(n), n)  # the old letter declared at each position
        rank = {a: i for i, a in enumerate(order)}
        rename = dict(zip(system.alphabet.symbols, (f"r{j}" for j in rng.sample(range(100), n))))
        alphabet = Alphabet(tuple(rename[system.alphabet.symbols[a]] for a in order))
        images = tuple(tuple(rank[b] for b in system.morphism.image(a)) for a in order)
        renamed = D0LSystem(Morphism(alphabet, alphabet, images), tuple(rank[a] for a in system.axiom))
        classes = _classes(system)
        expected = {
            (frozenset(tuple(rename[s] for s in word) for word in words), source)
            for words, source in classes
        }
        assert _classes(renamed) == expected, system
        repetitive += bool(classes)
    assert repetitive >= 100, repetitive


def test_classes_invariant_under_advancing_the_axiom():
    compared = repetitive = 0
    for system in _systems(6203, 1000):
        image = system.morphism(system.axiom)
        if not image:
            continue
        classes = _classes(system)
        assert _classes(D0LSystem(system.morphism, image)) == classes, system
        compared += 1
        repetitive += bool(classes)
    assert compared >= 800 and repetitive >= 100, (compared, repetitive)
