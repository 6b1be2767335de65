"""Helpers that more than one test module uses.

The named system families and the metamorphic relations that
``test_metamorphic`` checks and ``test_planted`` runs again on planted
systems, and the pieces of running a child interpreter on this checkout's
sources under an address-space cap.
"""

import os
import random
import resource
from collections.abc import Callable

import dolrep
from dolrep import Alphabet, AnalysisReport, D0LSystem, Morphism, analyze, canonical_rotation


def _src_env() -> dict[str, str]:
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(dolrep.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _address_space_limit(megabytes: int) -> str:
    """A prelude that caps the child's own address space."""
    return f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({megabytes} << 20, {megabytes} << 20))"


def _cap_address_space_at_one_gib() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cap_address_space_at_256_mib() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))


def _system(rules: dict[str, tuple[str, ...]], *axiom: str) -> D0LSystem:
    alphabet = Alphabet(tuple(rules))
    return D0LSystem(Morphism.from_rules(alphabet, alphabet, rules), alphabet.word(axiom))


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


def _family_e(m: int) -> D0LSystem:
    """z -> z z, e_1 .. e_m -> empty, axiom z e_1 .. e_m: class z, and m
    letters that erase at once."""
    erasing = {f"e{i}": () for i in range(1, m + 1)}
    return _system({"z": ("z", "z"), **erasing}, "z", *erasing)


def _family_e_prime(m: int) -> D0LSystem:
    """z -> z z, e_i -> e_(i+1), e_m -> empty, axiom z e_1: class z, and a
    chain of m letters that die one per step."""
    return _system({"z": ("z", "z"), **_chain("e", m, lambda e: (e,), ())}, "z", "e1")


# phi^n(U) = U B_0 ... B_(n-1) with B_i = p2_(i mod 2) p3_(i mod 3) p5_(i mod 5),
# so the Landau system's one class is 30 blocks of 3 letters.
_LANDAU_PERIOD = sum((tuple(f"p{p}_{i % p}" for p in (2, 3, 5)) for i in range(30)), ())

# Each system with whether it is pushy and its classes as `_classes` gives them.
FAMILIES = [
    (_family_a(8), True, {(("z",), "bounded")}),
    (_family_b(8), False, set()),
    (_landau((2, 3, 5)), True, {(canonical_rotation(_LANDAU_PERIOD), "bounded")}),
    (_family_c(30), True, {(("b",), "bounded")}),
    (_family_e(8), False, {(("z",), "unbounded")}),
    (_family_e_prime(8), False, {(("z",), "unbounded")}),
]


def _classes(
    system: D0LSystem, report: AnalysisReport | None = None
) -> set[tuple[tuple[str, ...], str]]:
    """Each class as (its least rotation over symbol names, source): free of
    letter ids.  Analyses the system unless its report is given."""
    symbols = system.alphabet.symbols
    return {
        (canonical_rotation(tuple(symbols[a] for a in cls.representative)), cls.source.value)
        for cls in (report or analyze(system)).classes
    }


# Three relations, each a map from a system to (another system, the map that
# sends each word of a class of the first to one of the second), or None where
# the relation does not apply.  ``test_metamorphic`` checks them on random
# systems, ``test_planted`` on planted ones.


def _renamed(system: D0LSystem, rng: random.Random) -> tuple[D0LSystem, Callable]:
    """The letters declared in a random order under random names."""
    n = len(system.alphabet)
    order = rng.sample(range(n), n)  # the old letter declared at each position
    rank = {a: i for i, a in enumerate(order)}
    rename = dict(zip(system.alphabet.symbols, (f"r{j}" for j in rng.sample(range(max(100, n)), n))))
    alphabet = Alphabet(tuple(rename[system.alphabet.symbols[a]] for a in order))
    images = tuple(tuple(rank[b] for b in system.morphism.image(a)) for a in order)
    renamed = D0LSystem(Morphism(alphabet, alphabet, images), tuple(rank[a] for a in system.axiom))
    return renamed, lambda word: tuple(rename[s] for s in word)


def _advanced(system: D0LSystem) -> tuple[D0LSystem, Callable] | None:
    """The axiom w replaced by phi(w), unless that is empty."""
    image = system.morphism(system.axiom)
    return (D0LSystem(system.morphism, image), lambda word: word) if image else None


def _mirrored(system: D0LSystem) -> tuple[D0LSystem, Callable]:
    """Every image and the axiom reversed: the language, and each class, reverse."""
    images = tuple(img[::-1] for img in system.morphism.images)
    mirror = D0LSystem(Morphism(system.alphabet, system.alphabet, images), system.axiom[::-1])
    return mirror, lambda word: word[::-1]


def _mapped(classes: set, word_map: Callable) -> set:
    """``_classes`` output with each word sent through word_map."""
    return {(canonical_rotation(word_map(word)), source) for word, source in classes}
