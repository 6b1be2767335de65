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
    AnalysisReport,
    D0LSystem,
    Morphism,
    analyze,
    canonical_rotation,
    primitive_root,
)
from dolrep.morphism import compose
from corpus_util import random_system


def _classes(
    system: D0LSystem, report: AnalysisReport | None = None
) -> set[tuple[frozenset[tuple[str, ...]], str]]:
    """Each class as (its rotations over symbol names, source): free of letter
    ids.  Analyses the system unless its report is given."""
    symbols = system.alphabet.symbols
    out = set()
    for cls in (report or analyze(system)).classes:
        word = tuple(symbols[a] for a in cls.representative)
        out.add((frozenset(word[i:] + word[:i] for i in range(len(word))), cls.source.value))
    return out


def _systems(seed: int, count: int) -> list[D0LSystem]:
    rng = random.Random(seed)
    return [random_system(rng, max_letters=12, min_letters=5) for _ in range(count)]


def _cyclic(length: int) -> D0LSystem:
    """a_i -> a_(i+1) for i < length - 1, a_(length-1) -> a_0 a_0, axiom a_0:
    one first-letter cycle through every letter, each letter a class."""
    alphabet = Alphabet(tuple(f"a{i}" for i in range(length)))
    images = tuple((i + 1,) for i in range(length - 1)) + ((0, 0),)
    return D0LSystem(Morphism(alphabet, alphabet, images), (0,))


def _system(rules: dict[str, tuple[str, ...]], axiom: str) -> D0LSystem:
    alphabet = Alphabet(tuple(rules))
    return D0LSystem(Morphism.from_rules(alphabet, alphabet, rules), (alphabet.letter(axiom),))


def _chain(name: str, k: int, image, last: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """name_i -> image(name_(i+1)) for i < k, name_k -> last."""
    rules = {f"{name}{i}": image(f"{name}{i + 1}") for i in range(1, k)}
    rules[f"{name}{k}"] = last
    return rules


def _family_a(k: int) -> D0LSystem:
    """U -> U U b1, b_i -> b_(i+1) b_(i+1), b_k -> z, z -> z: class z."""
    doubling = _chain("b", k, lambda b: (b, b), ("z",))
    return _system({"U": ("U", "U", "b1"), **doubling, "z": ("z",)}, "U")


def _family_b(k: int) -> D0LSystem:
    """a -> a b1 c1, the b chain of family A, c_i -> c_(i+1), c_k -> a: no class."""
    doubling = _chain("b", k, lambda b: (b, b), ("z",))
    delay = _chain("c", k, lambda c: (c,), ("a",))
    return _system({"a": ("a", "b1", "c1"), **doubling, **delay, "z": ("z",)}, "a")


def _landau(primes: tuple[int, ...]) -> D0LSystem:
    """U -> U pP_0 ... over the primes P, and one cycle pP_i -> pP_((i+1) mod P) each."""
    rules = {"U": ("U",) + tuple(f"p{p}_0" for p in primes)}
    for p in primes:
        rules.update({f"p{p}_{i}": (f"p{p}_{(i + 1) % p}",) for i in range(p)})
    return _system(rules, "U")


def _family_c(length: int) -> D0LSystem:
    """a_i -> a_(i+1), a_(L-1) -> a_0 a_0 b, b -> b: one side cycle through
    every a_i pumps the class b."""
    rules = {f"a{i}": (f"a{i + 1}",) for i in range(length - 1)}
    rules[f"a{length - 1}"] = ("a0", "a0", "b")
    return _system({**rules, "b": ("b",)}, "a0")


def _rotations(word: tuple[str, ...]) -> frozenset[tuple[str, ...]]:
    return frozenset(word[i:] + word[:i] for i in range(len(word)))


# phi^n(U) = U B_0 ... B_(n-1) with B_i = p2_(i mod 2) p3_(i mod 3) p5_(i mod 5),
# so the Landau system's one class is 30 blocks of 3 letters.
_LANDAU_PERIOD = sum((tuple(f"p{p}_{i % p}" for p in (2, 3, 5)) for i in range(30)), ())

# Each system with whether it is pushy and its classes as `_classes` gives them.
FAMILIES = [
    (_family_a(8), True, {(_rotations(("z",)), "bounded")}),
    (_family_b(8), False, set()),
    (_landau((2, 3, 5)), True, {(_rotations(_LANDAU_PERIOD), "bounded")}),
    (_family_c(30), True, {(_rotations(("b",)), "bounded")}),
]
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


def test_classes_mirror_under_reversal():
    # Reversing every image and the axiom reverses every word of the
    # language, so each class becomes its reversal with the same source;
    # the side graphs swap their left and right sides.
    repetitive = pushy = 0
    for system in _systems(6204, 3000) + EXTRA:
        images = tuple(img[::-1] for img in system.morphism.images)
        mirror = D0LSystem(Morphism(system.alphabet, system.alphabet, images), system.axiom[::-1])
        report = analyze(system)
        classes = _classes(system, report)
        expected = {(frozenset(word[::-1] for word in words), source) for words, source in classes}
        assert _classes(mirror) == expected, system
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
