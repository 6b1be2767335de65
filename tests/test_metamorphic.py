"""Metamorphic properties of the analysis on systems past the corpus's 4 letters.

No oracle is needed: the classes are a property of the language's factors,
so they cannot depend on the names or declaration order of the letters, and
they survive dropping the axiom from the language (replacing w by phi(w)
loses one word, and with it only finitely many factors).  Reversing every
image and the axiom reverses the language, and with it every class; phi
maps the powers of a class onto powers of the primitive root of its image;
and the language of (phi, w) is the union of those of (phi^p, phi^i(w)),
i < p, so its classes are theirs.
"""

import random
import time

from dolrep import (
    Alphabet,
    D0LSystem,
    Morphism,
    analyze,
    canonical_rotation,
    primitive_root,
)
from dolrep.morphism import compose
from corpus_util import random_system
from shared_util import FAMILIES, _advanced, _classes, _landau, _mapped, _mirrored, _renamed


def _systems(seed: int, count: int) -> list[D0LSystem]:
    rng = random.Random(seed)
    return [random_system(rng, max_letters=12, min_letters=5) for _ in range(count)]


def _cyclic(length: int) -> D0LSystem:
    """a_i -> a_(i+1) for i < length - 1, a_(length-1) -> a_0 a_0, axiom a_0:
    one first-letter cycle through every letter, each letter a class."""
    alphabet = Alphabet(tuple(f"a{i}" for i in range(length)))
    images = tuple((i + 1,) for i in range(length - 1)) + ((0, 0),)
    return D0LSystem(Morphism(alphabet, alphabet, images), (0,))


# The named systems that the relations below check along with random ones.
EXTRA = [_cyclic(50)] + [system for system, _, _ in FAMILIES]


def test_families_pinned():
    for system, pushy, classes in FAMILIES:
        report = analyze(system)
        assert report.pushy == pushy, system
        assert _classes(system, report) == classes, system


def test_landau_forty_letters_within_five_seconds():
    # Primes 3-13: 1 + 3 + 5 + 7 + 11 + 13 = 40 letters and one class of
    # 15 015 blocks of 5 letters.  Canonicalising it by building every
    # rotation took 30 s.  The report is not rendered: it lists every
    # conjugate, which is quadratic in the class length.
    primes = (3, 5, 7, 11, 13)
    system = _landau(primes)
    start = time.perf_counter()
    report = analyze(system)
    elapsed = time.perf_counter() - start
    assert len(system.alphabet) == 40
    [cls] = report.classes
    assert cls.source.value == "bounded" and len(cls.representative) == 75_075
    period = " ".join(f"p{p}_{i % p}" for i in range(15_015) for p in primes)
    found = " ".join(system.alphabet.symbols[a] for a in cls.representative)
    assert f" {found} " in f" {period} {period} "  # a rotation of the period
    assert elapsed < 5, elapsed


def test_classes_invariant_under_renaming_and_reordering():
    rng = random.Random(6201)
    repetitive = 0
    for system in _systems(6202, 1000):
        renamed, word_map = _renamed(system, rng)
        classes = _classes(system)
        assert _classes(renamed) == _mapped(classes, word_map), system
        repetitive += bool(classes)
    assert repetitive >= 100, repetitive


def test_classes_invariant_under_advancing_the_axiom():
    compared = repetitive = 0
    for system in _systems(6203, 1000):
        if (advanced := _advanced(system)) is None:
            continue
        classes = _classes(system)
        assert _classes(advanced[0]) == classes, system
        compared += 1
        repetitive += bool(classes)
    assert compared >= 800 and repetitive >= 100, (compared, repetitive)


def test_classes_mirror_under_reversal():
    # The side graphs swap their left and right sides.
    repetitive = pushy = 0
    for system in _systems(6204, 3000) + EXTRA:
        mirror, word_map = _mirrored(system)
        report = analyze(system)
        assert _classes(mirror) == _mapped(_classes(system, report), word_map), system
        repetitive += report.repetitive
        pushy += report.pushy
    assert repetitive >= 550 and pushy >= 330, (repetitive, pushy)


def test_classes_closed_under_the_morphism():
    # v^k is a factor for every k, so phi(v)^k = phi(v^k) is one too: the
    # primitive root of a non-empty phi(v) names a class as well.
    checked = 0
    for system in _systems(6204, 3000) + EXTRA:
        phi = system.morphism
        representatives = {cls.representative for cls in analyze(system).classes}
        for v in representatives:
            image = phi(v)
            if image:
                assert canonical_rotation(primitive_root(image)) in representatives, (system, v)
                checked += 1
    assert checked >= 800, checked


def test_classes_are_the_union_over_the_powers_of_the_morphism():
    # L(phi, w) is the union over i < p of L(phi^p, phi^i(w)).  A word whose
    # every power is a factor of L(phi, w) has every power in one of the p
    # parts (each k has a part holding v^k, and some part holds v^k for
    # infinitely many k, so for every k), so the classes of (phi, w) are
    # the union of those of the systems (phi^p, phi^i(w)) with phi^i(w)
    # non-empty, each with the same source.
    systems = [random_system(random.Random(700_000 + i), max_letters=12, min_letters=3) for i in range(1500)]
    repetitive = 0
    for system in systems + EXTRA:
        phi = system.morphism
        classes = _classes(system)
        for p in (2, 3):
            power = phi
            for _ in range(p - 1):
                power = compose(phi, power)
            union, word = set(), system.axiom
            for _ in range(p):
                if word:
                    union |= _classes(D0LSystem(power, word))
                word = phi(word)
            assert union == classes, (system, p)
        repetitive += bool(classes)
    assert repetitive >= 250, repetitive
