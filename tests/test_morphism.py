import random
from collections import deque
from itertools import chain

import pytest

from dolrep import (
    Alphabet,
    D0LSystem,
    Morphism,
    classify_letters,
    compose,
    injectivity_witness,
    is_injective,
    make_system,
)
from dolrep.morphism import CodewordIndex, _witness, code_witness, relation_heads
from dolrep.words import _word_str
from corpus_util import brute_injectivity_witness, random_system, simulated_bounded


def test_apply_system_g(system_g):
    phi = system_g.morphism
    alph = system_g.alphabet
    assert phi(alph.word("0")) == alph.word("012")
    assert phi(alph.word("012")) == alph.word("01221")
    assert phi(()) == ()


def test_apply_identity():
    alph = Alphabet("abc")
    ident = Morphism.identity(alph)
    assert ident(alph.word("cab")) == alph.word("cab")


def test_alphabet_size_limit():
    # Every letter id and the oracle's sentinel id |A| must be a code point.
    symbols = tuple(map(str, range(0x10FFFF + 1)))
    assert len(Alphabet(symbols[:-1])) == 0x10FFFF
    with pytest.raises(ValueError, match="at most 1114111"):
        Alphabet(symbols)


def test_alphabet_symbol_checks():
    # Python's whitespace, alone or between letters, is refused, as str.split
    # would break a system file's token there; format characters are not.
    for c in "\x1c\x85\xa0\u1680\u2028\u3000":
        for symbol in (c, f"a{c}b"):
            with pytest.raises(ValueError, match="without whitespace"):
                Alphabet(("x", symbol))
    for c in "\u180e\u200b\ufeff":
        assert Alphabet((c, f"a{c}b")).symbols == (c, f"a{c}b")
    with pytest.raises(ValueError, match="without whitespace"):
        Alphabet(("a", ""))
    with pytest.raises(ValueError, match="pairwise distinct"):
        Alphabet(("a", "b", "a"))


def test_apply_rejects_foreign_letters(system_g):
    with pytest.raises(ValueError):
        system_g.morphism.apply((7,))


def test_iterate_system_g(system_g):
    phi = system_g.morphism
    alph = system_g.alphabet
    assert phi.iterate(alph.word("0"), 2) == alph.word("01221")
    assert phi.iterate(alph.word("0"), 3) == alph.word("0122112")
    assert phi.iterate(alph.word("21"), 0) == alph.word("21")


def test_apply_is_homomorphism_randomized():
    rng = random.Random(23)
    for _ in range(200):
        system = random_system(rng)
        phi = system.morphism
        n = len(system.alphabet)
        u = tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
        assert phi(u + v) == phi(u) + phi(v)


EX1_ALPH = Alphabet("abcd")
EX1_TARGET = Alphabet("xyz")
EX1_H = Morphism.from_rules(EX1_ALPH, EX1_TARGET, {"a": "x", "b": "yz", "c": "xy", "d": "z"})
EX1_K = Morphism.from_rules(EX1_TARGET, EX1_ALPH, {"x": "aca", "y": "b", "z": "adc"})


def test_compose_reproduces_example1_f(example1_f):
    f = example1_f.morphism
    kh = compose(EX1_K, EX1_H)
    assert kh == f
    assert kh(EX1_ALPH.word("a")) == EX1_ALPH.word("aca")
    assert kh(EX1_ALPH.word("b")) == EX1_ALPH.word("badc")


def test_compose_with_identity(system_g):
    phi = system_g.morphism
    assert compose(Morphism.identity(system_g.alphabet), phi) == phi
    assert compose(phi, Morphism.identity(system_g.alphabet)) == phi


def test_compose_alphabet_mismatch(system_g, thue_morse):
    with pytest.raises(ValueError):
        compose(system_g.morphism, thue_morse.morphism)


def test_reduce_drops_unreachable_letter():
    system = make_system({"0": "012", "1": "2", "2": "1", "q": "q"}, "0")
    reduced = system.reduced()
    assert reduced.alphabet.symbols == ("0", "1", "2")
    assert reduced.morphism.image(0) == (0, 1, 2)


def test_reduce_identity_when_reduced(system_g):
    assert system_g.reduced() is system_g


def test_reduce_bounded_subsystem(system_g):
    system = D0LSystem(system_g.morphism, system_g.alphabet.word("1"))
    reduced = system.reduced()
    assert reduced.alphabet.symbols == ("1", "2")
    assert reduced.axiom == (0,)


def test_mortal_letters_examples():
    single = make_system({"a": ""}, "a")
    assert classify_letters(single.morphism).mortal == {0}
    chain = make_system({"a": "b", "b": ""}, "a")
    assert classify_letters(chain.morphism).mortal == {0, 1}


def test_mortal_letters_system_g(system_g):
    assert classify_letters(system_g.morphism).mortal == frozenset()


def test_classification_system_g(system_g):
    cls = classify_letters(system_g.morphism)
    alph = system_g.alphabet
    assert cls.bounded == {alph.letter("1"), alph.letter("2")}
    assert cls.unbounded == {alph.letter("0")}
    assert cls.mortal == frozenset()


def test_classification_system_h(system_h):
    cls = classify_letters(system_h.morphism)
    alph = system_h.alphabet
    assert cls.unbounded == {alph.letter("0"), alph.letter("3")}


def test_classification_doubling(doubling):
    cls = classify_letters(doubling.morphism)
    assert cls.unbounded == {0}
    assert cls.bounded == frozenset()


def test_classification_against_simulation_randomized():
    rng = random.Random(29)
    for _ in range(300):
        system = random_system(rng)
        cls = classify_letters(system.morphism)
        for a in range(len(system.alphabet)):
            assert (a in cls.bounded) == simulated_bounded(system.morphism, a), (
                system,
                system.alphabet.symbols[a],
            )


def test_classification_partition_invariants():
    rng = random.Random(31)
    for _ in range(200):
        system = random_system(rng)
        cls = classify_letters(system.morphism)
        letters = frozenset(range(len(system.alphabet)))
        assert cls.mortal <= cls.bounded
        assert cls.bounded | cls.unbounded == letters
        assert not cls.bounded & cls.unbounded
        if not system.morphism.is_erasing():
            assert cls.mortal == frozenset()


def test_injectivity_example1_witness(example1_f):
    f = example1_f.morphism
    alph = example1_f.alphabet
    witness = injectivity_witness(f)
    assert witness == (alph.word("ab"), alph.word("cd"))
    assert f(witness[0]) == f(witness[1])


def test_injectivity_example1_g_is_injective(example1_g):
    assert is_injective(example1_g.morphism)


def test_injectivity_identity():
    assert is_injective(Morphism.identity(Alphabet("abc")))


def test_injectivity_first_letter_example(example1_g, system_g):
    g = example1_g.morphism
    alph = example1_g.alphabet
    assert g.first_letter(alph.letter("y")) == alph.letter("y")
    assert system_g.morphism.first_letter(0) == 0
    assert system_g.morphism.first_letter(1) == 2


def test_first_letter_rejects_empty_image():
    system = make_system({"a": "a", "z": ""}, "a")
    with pytest.raises(ValueError):
        system.morphism.first_letter(1)


def test_injectivity_against_brute_force_randomized():
    rng = random.Random(37)
    checked_noninjective = 0
    for _ in range(250):
        system = random_system(rng)
        phi = system.morphism
        witness = injectivity_witness(phi)
        brute = brute_injectivity_witness(phi, max_len=5)
        if brute is not None:
            assert witness is not None, phi
        if witness is not None:
            u, v = witness
            assert u != v
            assert phi(u) == phi(v)
            if not phi.is_erasing() and len(set(phi.images)) == len(phi.images):
                # code_witness's relation: the shorter head image is a proper
                # prefix of the longer one, which code reduction relies on.
                short, long_ = sorted((phi.image(u[0]), phi.image(v[0])), key=len)
                assert len(short) < len(long_) and long_[: len(short)] == short
            checked_noninjective += 1
    assert checked_noninjective > 20  # the sample actually exercised the code path


def _all_pairs_code_witness(words):
    """Sardinas-Patterson comparing every state with every codeword in index order."""
    queue = deque()
    seen = set()
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            if len(x) < len(y) and y[: len(x)] == x and y[len(x) :] not in seen:
                seen.add(y[len(x) :])
                queue.append((y[len(x) :], [j], [i]))
    while queue:
        s, ahead, behind = queue.popleft()
        for j, y in enumerate(words):
            if y == s:
                return tuple(ahead), tuple(behind + [j])
            if len(y) > len(s) and y[: len(s)] == s and y[len(s) :] not in seen:
                seen.add(y[len(s) :])
                queue.append((y[len(s) :], behind + [j], ahead))
            elif len(s) > len(y) and s[: len(y)] == y and s[len(y) :] not in seen:
                seen.add(s[len(y) :])
                queue.append((s[len(y) :], ahead, behind + [j]))
    return None


def _all_pairs_level_witnesses(words):
    """Every relation of the first completing level of the all-pairs search:
    each level is tested for completion whole, and only then extended, its
    states in order and the codewords of each in index order."""
    seen = set()
    level = []
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            if len(x) < len(y) and y[: len(x)] == x and y[len(x) :] not in seen:
                seen.add(y[len(x) :])
                level.append((y[len(x) :], [j], [i]))
    while level:
        done = [(tuple(ahead), tuple(behind + [words.index(s)])) for s, ahead, behind in level if s in words]
        if done:
            return done
        deeper = []
        for s, ahead, behind in level:
            for j, y in enumerate(words):
                if len(y) > len(s) and y[: len(s)] == s and y[len(s) :] not in seen:
                    seen.add(y[len(s) :])
                    deeper.append((y[len(s) :], behind + [j], ahead))
                elif len(s) > len(y) and s[: len(y)] == y and s[len(y) :] not in seen:
                    seen.add(s[len(y) :])
                    deeper.append((s[len(y) :], ahead, behind + [j]))
        level = deeper
    return []


def _concat(words):
    return tuple(chain.from_iterable(words))


def test_code_witness_against_all_pairs_search():
    rng = random.Random(6060)
    non_codes = long_non_codes = 0
    for k in range(2000):
        letters = rng.randint(1, 4)
        if k % 8:
            size, longest = rng.randint(1, 8), rng.choice((2, 4, 6, 12))
            pool = {tuple(rng.randrange(letters) for _ in range(rng.randint(1, longest))) for _ in range(size)}
        else:
            # concatenations of a few short blocks: images past 1 000 letters
            blocks = [tuple(rng.randrange(letters) for _ in range(rng.randint(1, 5))) for _ in range(3)]
            pool = {_concat(rng.choice(blocks) for _ in range(rng.randint(250, 500))) for _ in range(3)}
            pool |= set(rng.sample(blocks, rng.randint(0, 3)))
        words = sorted(pool)
        rng.shuffle(words)
        witness = code_witness(words)
        assert witness == _all_pairs_code_witness(words), words
        if witness is not None:
            non_codes += 1
            long_non_codes += max(map(len, words)) > 1000
    assert non_codes >= 500
    assert long_non_codes >= 50, long_non_codes


def test_relations_stop_at_first_completing_level(monkeypatch):
    # Example 1's relation aca.badc = acab.adc completes at the second level;
    # e.f = ef completes at the first, so the search ends before the second.
    # No state of the completing level is extended: the first search makes
    # no query, not even for the state b that comes before f, and the second
    # queries b only, not the completing adc.
    alphabet = Alphabet("abcdef")
    index = CodewordIndex(_word_str(alphabet.word(w)) for w in ("aca", "adc", "acab", "badc", "e", "ef", "f"))
    queries = []
    matches = CodewordIndex._matches
    monkeypatch.setattr(CodewordIndex, "_matches", lambda self, s: queries.append(s) or matches(self, s))
    assert [relation_heads(r) for r in index.relations()] == [(4, 5)]
    assert queries == []
    index.delete(5)
    queries.clear()
    assert [relation_heads(r) for r in index.relations()] == [(0, 2)]
    assert queries == [_word_str(alphabet.word("b"))]


def _products(word, pieces):
    """Every way to write word as a product of pieces, as lists of pieces."""
    if not word:
        return [[]]
    return [
        [p] + rest
        for p in pieces
        if word[: len(p)] == p
        for rest in _products(word[len(p) :], pieces)
    ]


def test_codeword_index_edits_against_rebuilt_sets():
    # Random insertions and deletions, then every query of the edited index
    # against the live set: membership, products, and every relation of the
    # first completing level, which must be the all-pairs search's on the
    # live words in index order.
    rng = random.Random(6161)
    relations = several = reinserted = 0
    for _ in range(400):
        letters = rng.randint(1, 3)
        index = CodewordIndex([])
        live: dict[int, tuple] = {}
        for _ in range(rng.randint(1, 14)):
            if live and rng.random() < 0.35:
                j = rng.choice(sorted(live))
                index.delete(j)
                del live[j]
            else:
                longest = rng.choice((5, 5, 12))
                word = tuple(rng.randrange(letters) for _ in range(rng.randint(1, longest)))
                if word not in live.values():
                    reinserted += _word_str(word) in index.texts
                    live[index.insert(_word_str(word))] = word
            # No stale length: a length stays only while a live word has it.
            for a in range(letters):
                assert index._lengths.get(chr(a), []) == sorted({len(w) for w in live.values() if w[0] == a})
        assert [j for j in range(len(index.texts)) if index.is_live(j)] == sorted(live)
        pieces = list(live.values())
        for _ in range(5):
            word = tuple(rng.randrange(letters) for _ in range(rng.randint(1, 8)))
            products = _products(word, pieces)
            found = index.factorization(_word_str(word))
            if found is None:
                assert not products, (word, pieces)
            else:
                assert [live[j] for j in found] in products
        order = sorted(live)
        found = [_witness(r) for r in index.relations()]
        expected = _all_pairs_level_witnesses([live[j] for j in order])
        assert [tuple(tuple(map(order.index, side)) for side in w) for w in found] == expected
        relations += bool(found)
        several += len(found) > 1
    assert relations >= 100 and several >= 30 and reinserted >= 50, (relations, several, reinserted)
