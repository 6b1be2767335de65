import random

import pytest

from dolrep import Alphabet, canonical_rotation, conjugates, is_primitive, primitive_root
from word_util import are_conjugate, exact_power_of, factor_occurrences

AB = Alphabet("ab")
DIG = Alphabet("012")


def w(alphabet, s):
    return alphabet.word(s)


def test_primitive_root_examples():
    assert primitive_root(w(AB, "abab")) == w(AB, "ab")
    assert primitive_root(w(AB, "aaa")) == w(AB, "a")
    # all divisor-length prefixes (1 and 2) fail to generate 1221
    assert primitive_root(w(DIG, "1221")) == w(DIG, "1221")


def test_primitive_root_rejects_empty():
    with pytest.raises(ValueError):
        primitive_root(())


def test_is_primitive_examples():
    assert is_primitive(w(AB, "a"))
    assert not is_primitive(w(AB, "abab"))
    assert is_primitive(w(DIG, "2112"))


def test_conjugates_examples():
    assert conjugates(w(DIG, "2112")) == {w(DIG, s) for s in ("2112", "1122", "1221", "2211")}
    assert conjugates(w(AB, "a")) == {w(AB, "a")}
    assert conjugates(w(AB, "aa")) == {w(AB, "aa")}


def test_are_conjugate_examples():
    assert are_conjugate(w(DIG, "1221"), w(DIG, "2112"))
    assert are_conjugate(w(AB, "ab"), w(AB, "ab"))
    assert not are_conjugate(w(AB, "ab"), w(AB, "baa"))
    assert are_conjugate((), ())


def test_canonical_rotation_examples():
    assert canonical_rotation(w(DIG, "2112")) == w(DIG, "1122")
    assert canonical_rotation(w(AB, "a")) == w(AB, "a")
    assert canonical_rotation(w(AB, "ba")) == w(AB, "ab")


def test_exact_power_of_examples():
    assert exact_power_of(w(AB, "abab"), w(AB, "ab")) == 2
    assert exact_power_of(w(AB, "aba"), w(AB, "ab")) is None
    assert exact_power_of((), w(AB, "ab")) == 0
    with pytest.raises(ValueError):
        exact_power_of(w(AB, "ab"), ())


def test_factor_occurrences_examples():
    assert factor_occurrences(w(DIG, "0122112"), w(DIG, "1221")) == [1]
    assert factor_occurrences(w(AB, "aaaa"), w(AB, "aa")) == [0, 1, 2]
    assert factor_occurrences(w(AB, "ab"), w(AB, "ba")) == []
    with pytest.raises(ValueError):
        factor_occurrences(w(AB, "ab"), ())


def _random_word(rng, max_len=8, letters=3, min_len=1):
    return tuple(rng.randrange(letters) for _ in range(rng.randint(min_len, max_len)))


def test_root_power_identity_randomized():
    rng = random.Random(7)
    for _ in range(300):
        word = _random_word(rng)
        root = primitive_root(word)
        assert len(word) % len(root) == 0
        assert root * (len(word) // len(root)) == word
        assert is_primitive(root)


def test_conjugacy_is_equivalence_relation_randomized():
    rng = random.Random(11)
    for _ in range(200):
        u = _random_word(rng, max_len=6, letters=2)
        v = _random_word(rng, max_len=6, letters=2)
        t = _random_word(rng, max_len=6, letters=2)
        assert are_conjugate(u, u)
        assert are_conjugate(u, v) == are_conjugate(v, u)
        if are_conjugate(u, v) and are_conjugate(v, t):
            assert are_conjugate(u, t)


def test_conjugates_closed_under_rotation_and_counted_by_root():
    rng = random.Random(13)
    for _ in range(200):
        word = _random_word(rng)
        conj = conjugates(word)
        for c in conj:
            assert conjugates(c) == conj
        assert len(conj) == len(primitive_root(word))


def test_canonical_rotation_characterizes_conjugacy():
    rng = random.Random(17)
    for _ in range(300):
        u = _random_word(rng, max_len=6, letters=2)
        v = _random_word(rng, max_len=6, letters=2)
        assert (canonical_rotation(u) == canonical_rotation(v)) == are_conjugate(u, v)


def test_exact_power_roundtrip_randomized():
    rng = random.Random(19)
    for _ in range(300):
        v = _random_word(rng, max_len=5)
        m = rng.randint(0, 8)
        assert exact_power_of(v * m, v) == m
