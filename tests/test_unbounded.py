from random import Random

import pytest

from dolrep import (
    Alphabet,
    D0LSystem,
    Morphism,
    analyze,
    first_letter_candidates,
    lando_periodic_check,
    make_system,
    primitive_root,
    unbounded_periodic_classes,
)
from dolrep.morphism import functional_cycles
from corpus_util import random_system


def test_candidates_system_g(system_g):
    assert first_letter_candidates(system_g) == [(0,)]


def test_candidates_two_cycle():
    system = make_system({"a": "ba", "b": "ab"}, "a")
    assert first_letter_candidates(system) == [(0, 1)]


def test_candidates_thue_morse(thue_morse):
    assert first_letter_candidates(thue_morse) == [(0,), (1,)]


def test_candidates_exclude_cycle_free_letters(fibonacci):
    # first-letter graph: 0 -> 0, 1 -> 0; only 0 lies on a cycle
    assert first_letter_candidates(fibonacci) == [(0,)]


def test_candidate_exponent_bounded_by_alphabet():
    systems = [
        make_system({"a": "ba", "b": "ab"}, "a"),
        make_system({"a": "bb", "b": "cc", "c": "aa"}, "a"),
    ]
    for system in systems:
        for cycle in first_letter_candidates(system):
            assert 1 <= len(cycle) <= len(system.alphabet)


def test_lando_doubling(doubling):
    v = lando_periodic_check(doubling.morphism, 1, 0)
    assert v == (0,)


def test_lando_system_g_rejects(system_g):
    assert lando_periodic_check(system_g.morphism, 1, 0) is None


def test_lando_duplicate_pair(duplicate_pair):
    v = lando_periodic_check(duplicate_pair.morphism, 1, 0)
    assert v == duplicate_pair.alphabet.word("ab")


def test_lando_thue_morse_rejects(thue_morse):
    assert lando_periodic_check(thue_morse.morphism, 1, 0) is None
    assert lando_periodic_check(thue_morse.morphism, 1, 1) is None


def test_lando_checks_precondition(system_g):
    with pytest.raises(ValueError):
        lando_periodic_check(system_g.morphism, 1, 1)  # bounded letter
    bad = make_system({"a": "ba", "b": "ab"}, "a")
    with pytest.raises(ValueError):
        lando_periodic_check(bad.morphism, 1, 0)  # first letter does not return


def test_lando_accepted_word_prefixes_iterates(doubling, duplicate_pair):
    for system, letter, exponent in ((doubling, 0, 1), (duplicate_pair, 0, 1)):
        phi = system.morphism
        v = lando_periodic_check(phi, exponent, letter)
        assert v is not None
        assert v[0] == letter
        for j in range(1, 5):
            w = phi.iterate((letter,), exponent * j)
            reps = -(-len(w) // len(v))
            assert (v * reps)[: len(w)] == w  # prefix of v^infinity


def test_unbounded_classes_examples(system_g, duplicate_pair, thue_morse):
    assert unbounded_periodic_classes(system_g) == []
    assert unbounded_periodic_classes(duplicate_pair) == [duplicate_pair.alphabet.word("ab")]
    assert unbounded_periodic_classes(thue_morse) == []


def test_unbounded_classes_contain_unbounded_letter():
    from dolrep import classify_letters

    system = make_system({"a": "bb", "b": "aa"}, "a")
    classes = unbounded_periodic_classes(system)
    cls = classify_letters(system.morphism)
    assert classes
    for v in classes:
        assert any(a in cls.unbounded for a in v)


def _system(images, axiom):
    alphabet = Alphabet(tuple(f"a{i}" for i in range(len(images))))
    return D0LSystem(Morphism(alphabet, alphabet, images), axiom)


def test_lando_deep_exponent_without_recursion():
    # a_i -> a_{i+1}, a_{L-1} -> a_0 a_0: psi = phi^L sends a_0 to a_0 a_0, and
    # expanding psi letter by letter nests L images deep
    size = 1200
    images = tuple((i + 1,) for i in range(size - 1)) + ((0, 0),)
    assert lando_periodic_check(_system(images, (0,)).morphism, size, 0) == (0,)


def test_lando_rejection_builds_no_long_word(monkeypatch):
    # |A| = 64, seed 12: psi(v) in the Lando check has 43.3M letters
    rng = Random(12)
    images = tuple(tuple(rng.randrange(64) for _ in range(rng.randint(1, 3))) for _ in range(64))
    system = _system(images, tuple(range(64)))
    apply = Morphism.apply

    def short_apply(phi, word):
        out = apply(phi, word)
        assert len(out) <= 10**5, "a long iterate was materialised"
        return out

    monkeypatch.setattr(Morphism, "apply", short_apply)
    monkeypatch.setattr(Morphism, "__call__", short_apply)
    assert analyze(system).classes == ()


def _per_letter_reference(system):
    """Lando's check on every candidate letter: {letter: primitive period or None},
    in letter order."""
    phi = system.morphism
    lengths = {a: len(cycle) for cycle in first_letter_candidates(system) for a in cycle}
    out = {}
    for a in sorted(lengths):
        v = lando_periodic_check(phi, lengths[a], a)
        out[a] = None if v is None else primitive_root(v)
    return out


def _permutation_first_letters(rng):
    # first(phi(a)) is a permutation, so every letter lies on a first-letter cycle
    n = rng.randint(2, 10)
    firsts = list(range(n))
    rng.shuffle(firsts)
    images = tuple(
        (firsts[a],)
        + tuple(rng.choice((firsts[a], a, rng.randrange(n))) for _ in range(rng.choice((0, 0, 1, 1, 2, 3))))
        for a in range(n)
    )
    return _system(images, (rng.randrange(n),))


def test_one_check_per_cycle_matches_per_letter_reference():
    rng = Random(8080)
    accepted_long_cycles = 0
    for k in range(1600):
        if k % 2:
            system = _permutation_first_letters(rng)
        else:
            system = random_system(rng, max_letters=8, min_image=1)
        final = analyze(system).chain.final_system
        if not final.morphism.classification.unbounded:
            continue
        reference = _per_letter_reference(final)
        words = [w for w in reference.values() if w is not None]
        got = unbounded_periodic_classes(final)
        assert got == list(dict.fromkeys(words)), final
        # the sort in unbounded_periodic_classes gives letter order because
        # each accepted letter's word starts with that letter
        assert all(w[0] == a for a, w in reference.items() if w is not None), final
        assert len({w[0] for w in got}) == len(got), final
        phi = final.morphism
        for cycle in functional_cycles(reference, phi.first_letter):
            periods = [reference[a] for a in cycle]
            # every letter of a cycle is accepted or none is
            assert (periods[0] is None) == all(w is None for w in periods), final
            if len(cycle) >= 2 and periods[0] is not None:
                accepted_long_cycles += 1
                for a, w in zip(cycle, periods[1:] + periods[:1]):
                    assert w == primitive_root(phi(reference[a]))
    assert accepted_long_cycles >= 50
