import random
import time
from itertools import chain as _chain

import pytest

from dolrep import (
    Alphabet,
    D0LSystem,
    Morphism,
    SimplificationError,
    analyze,
    code_reduce,
    compose,
    eliminate_erasing,
    injective_simplification,
    is_injective,
    make_system,
    merge_duplicate_images,
)
from dolrep.cli import parse_system
from dolrep.morphism import CodewordIndex, code_witness
from dolrep.simplify import _reduce_to_code, _step
from corpus_util import random_system
from word_util import factor_occurrences


def _endo(rules, order):
    alph = Alphabet(order)
    return Morphism.from_rules(alph, alph, rules)


def test_eliminate_erasing_basic():
    f = _endo({"a": "ab", "b": ""}, "ab")
    step = eliminate_erasing(f)
    assert step.kind == "erasing-elimination"
    assert step.h.target.symbols == ("a",)
    assert compose(step.k, step.h) == f
    g = step.simplified()
    assert g.image(0) == (0,)  # a -> a


def test_eliminate_erasing_inside_image():
    f = _endo({"a": "zaz", "z": ""}, "az")
    step = eliminate_erasing(f)
    assert step.h.target.symbols == ("a",)
    assert step.simplified().image(0) == (0,)


def test_eliminate_erasing_removes_every_erasing_letter():
    system = make_system({"a": "aazy", "z": "", "y": ""}, "a")
    step = eliminate_erasing(system.morphism)
    assert step.h.target.symbols == ("a",)
    assert compose(step.k, step.h) == system.morphism
    assert step.simplified().image(0) == (0, 0)
    chain = injective_simplification(system)
    assert [s.kind for s in chain.steps] == ["erasing-elimination"]
    [cls] = analyze(system).classes
    assert (cls.representative, cls.source.value) == (system.alphabet.word("aazy"), "unbounded")


def test_eliminate_erasing_threads_axiom():
    system = make_system({"a": "a", "z": ""}, "az")
    chain = injective_simplification(system)
    assert [s.kind for s in chain.steps] == ["erasing-elimination"]
    final = chain.final_system
    assert final.alphabet.symbols == ("a",)
    assert final.axiom == final.alphabet.word("a")


def test_eliminate_erasing_requires_empty_image(system_g):
    with pytest.raises(ValueError):
        eliminate_erasing(system_g.morphism)


def test_merge_duplicate_images_basic():
    f = _endo({"a": "ab", "b": "ab"}, "ab")
    step = merge_duplicate_images(f)
    assert step.kind == "duplicate-merge"
    assert len(step.h.target) == 1
    assert compose(step.k, step.h) == f
    assert step.simplified().image(0) == (0, 0)  # merged letter doubles


def test_merge_duplicate_images_keeps_singletons():
    f = _endo({"a": "ba", "b": "ba", "c": "c"}, "abc")
    step = merge_duplicate_images(f)
    assert step.h.target.symbols == ("a", "c")
    g = step.simplified()
    assert g.image(0) == (0, 0)  # h(ba) = aa
    assert g.image(1) == (1,)


def test_merge_duplicate_images_requires_duplicates(system_g):
    with pytest.raises(ValueError):
        merge_duplicate_images(system_g.morphism)


def test_step_checks_k_of_h_on_every_image():
    # a, b -> ab merge onto a; a k whose image is ba breaks k o h = f.
    f = _endo({"a": "ab", "b": "ab"}, "ab")
    assert _step("duplicate-merge", f, ["a"], [(0,), (0,)], [(0, 1)]).k.images == ((0, 1),)
    with pytest.raises(SimplificationError, match="does not reproduce"):
        _step("duplicate-merge", f, ["a"], [(0,), (0,)], [(1, 0)])


def test_code_reduce_example1(example1_f, example1_g):
    f = example1_f.morphism
    step = code_reduce(f)
    assert step.kind == "code-reduction"
    assert compose(step.k, step.h) == f
    # canonical basis ordering: x0 = b, x1 = aca, x2 = adc
    src = example1_f.alphabet
    assert [src.text(step.k.image(i)) for i in range(3)] == ["b", "aca", "adc"]
    g = step.simplified()
    # equal to the expected simplification under the renaming x1/x0/x2 -> x/y/z
    rename = {1: "x", 0: "y", 2: "z"}
    expected_g = example1_g.morphism
    expected_alph = example1_g.alphabet
    for a in range(3):
        image = g.image(a)
        expected = expected_g.image(expected_alph.letter(rename[a]))
        assert tuple(expected_alph.letter(rename[b]) for b in image) == expected


def test_code_reduce_prefix_then_decompose():
    f = _endo({"a": "a", "b": "ab", "c": "ba"}, "abc")
    step = code_reduce(f)
    basis = {step.k.source.symbols[i]: step.k.image(i) for i in range(len(step.k.source))}
    src = Alphabet("abc")
    assert set(basis.values()) == {src.word("a"), src.word("b")}


def test_code_reduce_decomposable_image():
    f = _endo({"a": "ab", "b": "abab"}, "ab")
    step = code_reduce(f)
    assert len(step.k.source) == 1
    assert step.k.image(0) == Alphabet("ab").word("ab")


def _basis(step):
    return {step.k.image(i) for i in range(len(step.k.source))}


@pytest.mark.parametrize("order", ["abc", "cba"])
def test_code_reduce_free_hull(order):
    # aa and aaa force a into every free submonoid holding both, so the hull
    # base is {a, aab} whatever the letter ids; {a, b} also generates the
    # images, but its monoid is larger.
    f = _endo({"a": "aa", "b": "aab", "c": "aaa"}, order)
    src = Alphabet(order)
    assert _basis(code_reduce(f)) == {src.word("a"), src.word("aab")}


def _is_code(words):
    """Sardinas-Patterson on whole dangling-suffix sets: a code iff no set holds ()."""

    def quotients(left, right):
        return {w[len(p) :] for p in left for w in right if w[: len(p)] == p}

    dangling = frozenset(quotients(words, words) - {()})
    seen = set()
    while dangling not in seen:
        seen.add(dangling)
        dangling = frozenset(quotients(words, dangling) | quotients(dangling, words))
        if () in dangling:
            return False
    return True


def _in_star(word, pieces):
    reached = [True] + [False] * len(word)
    for i in range(len(word)):
        if reached[i]:
            for p in pieces:
                if word[i : i + len(p)] == p:
                    reached[i + len(p)] = True
    return reached[-1]


def _tilings(words, limit):
    """Every set of at most `limit` words, each used, whose monoid holds all of `words`."""
    found = set()

    def tile(i, pos, pieces):
        if i == len(words):
            found.add(pieces)
        elif pos == len(words[i]):
            tile(i + 1, 0, pieces)
        else:
            for end in range(pos + 1, len(words[i]) + 1):
                piece = words[i][pos:end]
                if piece in pieces:
                    tile(i, end, pieces)
                elif len(pieces) < limit:
                    tile(i, end, pieces | {piece})

    tile(0, 0, frozenset())
    return found


def _brute_hull_basis(words):
    """The code among smaller tilings of `words` whose monoid lies in every other's.

    The free hull's base is such a tiling (a member outside every image's
    factorization could be dropped, leaving a smaller free submonoid), and
    it is the only one: two codes generating each other's members generate
    the same free monoid, whose base is unique.
    """
    codes = [c for c in _tilings(words, len(words) - 1) if _is_code(c)]
    least = [c for c in codes if all(_in_star(y, other) for other in codes for y in c)]
    assert len(least) == 1, (words, least)
    return set(least[0]), len(codes)


def test_code_reduce_free_hull_randomized():
    # Image sets of 2-6 words of length 1-5 over 2-3 letters, as the images of
    # an endomorphism on as many letters as there are words.
    rng = random.Random(606)
    non_codes = ambiguous = 0
    for _ in range(1500):
        n = rng.randint(2, 6)
        letters = rng.randint(2, min(3, n))
        images = set()
        while len(images) < n:
            images.add(tuple(rng.randrange(letters) for _ in range(rng.randint(1, 5))))
        f = Morphism(Alphabet("abcdef"[:n]), Alphabet("abcdef"[:n]), tuple(sorted(images)))
        if _is_code(images):
            with pytest.raises(ValueError):
                code_reduce(f)
            continue
        non_codes += 1
        basis = _basis(code_reduce(f))
        expected, candidates = _brute_hull_basis(sorted(images))
        assert basis == expected, (sorted(images), basis, expected)
        assert len(basis) < n
        ambiguous += candidates > 1
        perm = list(range(n))
        rng.shuffle(perm)
        renamed = Morphism(f.source, f.target, tuple(
            tuple(perm[b] for b in f.image(perm.index(a))) for a in range(n)
        ))
        assert _basis(code_reduce(renamed)) == {tuple(perm[b] for b in w) for w in basis}
    assert non_codes >= 500 and ambiguous >= 300, (non_codes, ambiguous)


def test_code_reduce_drops_generated_words():
    # U -> U U b1, b_i -> b_(i+1) b_(i+1), b_k -> z, z -> z at k = 16: the
    # chain builds images up to 2^15 letters long.  Each code reduction must
    # drop the long power of z that the other codewords generate; stripping
    # it a letter at a time takes minutes.
    k = 16
    rules = {"U": ["U", "U", "b1"], "z": ["z"], f"b{k}": ["z"]}
    rules.update({f"b{i}": [f"b{i + 1}"] * 2 for i in range(1, k)})
    text = "alphabet: " + " ".join(rules) + "\naxiom: U\n"
    text += "".join(f"{a} -> {' '.join(image)}\n" for a, image in rules.items())
    system = parse_system(text)
    start = time.perf_counter()
    report = analyze(system)
    assert time.perf_counter() - start < 15.0  # about 0.3 s with the drop, 70 s without
    assert [system.alphabet.text(c.representative) for c in report.classes] == ["z"]
    kinds = [step.kind for step in report.chain.steps]
    assert kinds[0] == "duplicate-merge"
    assert len(kinds) > 1 and set(kinds[1:]) == {"code-reduction"}


def test_code_reduce_pumped_chain_without_class():
    # a -> a b1 c1, b_i -> b_(i+1) b_(i+1), b_k -> z, z -> z, c_i -> c_(i+1),
    # c_k -> a at k = 12: after one duplicate merge, every step is a code
    # reduction, and the longest image reaches 2^(k-1) + 2 letters.
    k = 12
    rules = {"a": ["a", "b1", "c1"], "z": ["z"], f"b{k}": ["z"], f"c{k}": ["a"]}
    rules.update({f"b{i}": [f"b{i + 1}"] * 2 for i in range(1, k)})
    rules.update({f"c{i}": [f"c{i + 1}"] for i in range(1, k)})
    text = "alphabet: " + " ".join(rules) + "\naxiom: a\n"
    text += "".join(f"{a} -> {' '.join(image)}\n" for a, image in rules.items())
    system = parse_system(text)
    start = time.perf_counter()
    report = analyze(system)
    assert time.perf_counter() - start < 15.0  # about 0.1 s
    assert report.classes == ()
    kinds = [step.kind for step in report.chain.steps]
    assert kinds[0] == "duplicate-merge"
    assert len(kinds) > 1 and set(kinds[1:]) == {"code-reduction"}


def test_code_reduction_searches_scale(monkeypatch):
    # 2048 letters with images of 1-3 random letters and the full axiom, as
    # perfbench's wide_raw(2048, 1).  Applying every relation of a search's
    # first completing level takes 47 searches here; the loop that applied
    # one relation per search took 207.
    n, rng = 2048, random.Random(1)
    images = [tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))) for _ in range(n)]
    alphabet = Alphabet(tuple(f"l{a}" for a in range(n)))
    system = D0LSystem(Morphism(alphabet, alphabet, images), tuple(range(n)))
    searches = []
    search = CodewordIndex.relations

    def counted(self):
        searches.append(1)
        return search(self)

    monkeypatch.setattr(CodewordIndex, "relations", counted)
    report = analyze(system)
    assert "code-reduction" in {step.kind for step in report.chain.steps}
    assert len(searches) <= 100, len(searches)


def test_code_reduce_rejects_codes(system_g):
    with pytest.raises(ValueError):
        code_reduce(system_g.morphism)


def test_injective_simplification_example1(example1_f):
    chain = injective_simplification(example1_f)
    assert len(chain.steps) == 1
    assert chain.steps[0].kind == "code-reduction"
    assert len(chain.final_system.alphabet) == 3
    assert is_injective(chain.final_system.morphism)


def test_code_reduction_searches_one_index_per_step(monkeypatch, system_g, example1_f):
    import dolrep.engine
    import dolrep.morphism
    import dolrep.simplify

    def forbidden(*args):
        raise AssertionError("a standalone Sardinas-Patterson test ran during analyze")

    for module in (dolrep.morphism, dolrep.simplify, dolrep.engine):
        for name in ("code_witness", "injectivity_witness"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    # searches run on each index, in the order the indexes are built
    searches = []
    build, search = CodewordIndex.__init__, CodewordIndex.relations

    def counted_build(self, codewords):
        searches.append(0)
        build(self, codewords)

    def counted_search(self):
        searches[-1] += 1
        return search(self)

    monkeypatch.setattr(CodewordIndex, "__init__", counted_build)
    monkeypatch.setattr(CodewordIndex, "relations", counted_search)

    assert analyze(system_g).chain.steps == ()
    assert searches == [1]  # G's images form a code: the first search finds no relation

    # Example 1, images X = {aca, adc, acab, badc}.  Search 1: the only
    # overhang is aca.b = acab, and b.adc = badc completes it at the second
    # level; acab does not factorize over the rest, so it is replaced by b.
    # Search 2: the overhang b.adc = badc is a codeword, so badc is dropped.
    # Search 3 finds Y = {b, aca, adc} a code.  A second index holds the
    # images of the 3-letter final system, and its one search finds a code.
    searches.clear()
    chain = analyze(example1_f).chain
    assert [step.kind for step in chain.steps] == ["code-reduction"]
    assert searches == [3, 1]

    # X = {ab, ba, a, b}: the overhangs a.b = ab and b.a = ba are both
    # codewords, so the first level of search 1 completes two relations, and
    # ab and ba are both dropped.  Search 2 finds {a, b} a code; one search
    # on the final system.
    searches.clear()
    chain = analyze(make_system({"a": "ab", "b": "ba", "c": "a", "d": "b"}, "acd")).chain
    assert [step.kind for step in chain.steps] == ["code-reduction"]
    assert searches == [2, 1]


def _concat(words):
    return tuple(_chain.from_iterable(words))


def _reference_reduce_to_code(images):
    """The free-hull loop with one relation per round: a ``code_witness`` run
    on Y sorted by length, then letters, each round, with every spelling
    rewritten.  Returns the words that occur in the spellings, by length,
    then letters, and each spelling as positions among them."""

    def factorization(word, pieces):
        n = len(word)
        start = [0] + [None] * n  # where a last piece ending here starts
        for i in range(n):
            if start[i] is None:
                continue
            for p in pieces:
                j = i + len(p)
                if j <= n and start[j] is None and word[i:j] == p:
                    start[j] = i
        if start[n] is None:
            return None
        out = []
        while n:
            out.append(word[start[n] : n])
            n = start[n]
        return out[::-1]

    Y = set(images)
    spelled = [[x] for x in images]
    while (relation := code_witness(members := sorted(Y, key=lambda w: (len(w), w)))) is not None:
        u, v = sorted((members[relation[0][0]], members[relation[1][0]]), key=len)
        Y.discard(v)
        replacement = factorization(v, Y) or [u, v[len(u) :]]
        Y.update(replacement)
        spelled = [[w for y in s for w in (replacement if y == v else [y])] for s in spelled]
    if Y == set(images):
        return None
    members = sorted({y for spelling in spelled for y in spelling}, key=lambda w: (len(w), w))
    position = {y: i for i, y in enumerate(members)}
    return members, [tuple(position[y] for y in spelling) for spelling in spelled]


def test_reduce_to_code_matches_reference_loop():
    rng = random.Random(1101)
    non_codes = {"short": 0, "long": 0, "wide": 0, "lengths": 0, "prefixes": 0}
    for k in range(20_000):
        if k % 200 == 0:
            # concatenations of a few short blocks: images past 1 000 letters
            family, letters = "long", rng.randint(1, 4)
            blocks = [tuple(rng.randrange(letters) for _ in range(rng.randint(1, 5))) for _ in range(3)]
            pool = {_concat(rng.choice(blocks) for _ in range(rng.randint(250, 500))) for _ in range(3)}
            pool |= set(rng.sample(blocks, rng.randint(0, 3)))
        elif k % 200 == 1:
            # images of length 1-3 over n letters, drawn as by perfbench's wide_raw
            family, n = "wide", rng.randint(64, 256)
            pool = {tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))) for _ in range(n)}
        elif k % 200 == 2:
            # one word of each length in a random subset of 1-40
            family, letters = "lengths", rng.randint(1, 3)
            lengths = rng.sample(range(1, 41), rng.randint(2, 12))
            pool = {tuple(rng.randrange(letters) for _ in range(n)) for n in lengths}
        elif k % 200 == 3:
            # prefixes of one 30-letter word, plus a few short words
            family, letters = "prefixes", rng.randint(1, 3)
            word = tuple(rng.randrange(letters) for _ in range(30))
            pool = {word[: rng.randint(1, 30)] for _ in range(rng.randint(2, 8))}
            pool |= {tuple(rng.randrange(letters) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 3))}
        else:
            family, letters = "short", rng.randint(1, 4)
            pool = {
                tuple(rng.randrange(letters) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 10))
            }
        images = sorted(pool)
        rng.shuffle(images)
        images = tuple(images)
        step = _reduce_to_code(images)
        assert step == _reference_reduce_to_code(images), images
        non_codes[family] += step is not None
    assert non_codes["short"] >= 10_000 and non_codes["long"] >= 40 and non_codes["wide"] >= 90, non_codes
    assert non_codes["lengths"] >= 35 and non_codes["prefixes"] >= 50, non_codes


def test_reduce_to_code_over_high_letter_ids():
    # Letters are code points in CodewordIndex: ids around the surrogate
    # block and the last ones must order, slice and spell as small ids do.
    rng = random.Random(4242)
    ids = (0xD7FF, 0xD800, 0xDFFF, 0xE000, 0x10FFFE)
    non_codes = 0
    for _ in range(2000):
        letters = rng.sample(ids, rng.randint(1, 5))
        pool = {tuple(rng.choice(letters) for _ in range(rng.randint(1, 6))) for _ in range(rng.randint(1, 10))}
        images = sorted(pool)
        rng.shuffle(images)
        images = tuple(images)
        step = _reduce_to_code(images)
        assert step == _reference_reduce_to_code(images), images
        non_codes += step is not None
    assert non_codes >= 750, non_codes  # 844


def test_analyze_never_runs_injectivity_witness(monkeypatch, example1_f):
    import dolrep.engine
    import dolrep.morphism
    import dolrep.simplify

    def forbidden(phi):
        raise AssertionError("injectivity_witness called during analyze")

    for module in (dolrep.morphism, dolrep.simplify, dolrep.engine):
        if hasattr(module, "injectivity_witness"):
            monkeypatch.setattr(module, "injectivity_witness", forbidden)
    systems = [example1_f, make_system({"a": "ab", "b": "ab"}, "a")]
    systems += [random_system(random.Random(seed), max_letters=8, min_letters=4) for seed in range(40)]
    kinds = set()
    for system in systems:
        kinds.update(step.kind for step in analyze(system).chain.steps)
    assert kinds == {"erasing-elimination", "duplicate-merge", "code-reduction"}


def test_injective_simplification_empty_chain(system_g):
    chain = injective_simplification(system_g)
    assert chain.steps == ()
    assert chain.final_system is system_g


def test_injective_simplification_duplicate_pair(duplicate_pair):
    chain = injective_simplification(duplicate_pair)
    assert [s.kind for s in chain.steps] == ["duplicate-merge"]
    final = chain.final_system
    assert final.morphism.image(0) == (0, 0)


def test_injective_simplification_requires_reduced():
    system = make_system({"0": "012", "1": "2", "2": "1", "q": "q"}, "0")
    with pytest.raises(ValueError):
        injective_simplification(system)


def test_injective_simplification_collapse_raises():
    system = make_system({"a": ""}, "a")
    with pytest.raises(SimplificationError):
        injective_simplification(system)


def test_chain_invariants_randomized():
    rng = random.Random(41)
    built = 0
    for _ in range(300):
        system = random_system(rng).reduced()
        try:
            chain = injective_simplification(system)
        except SimplificationError:
            continue  # finite-language collapse; the engine filters these
        built += 1
        sizes = [len(s.alphabet) for s in chain.systems]
        for step, size_in in zip(chain.steps, sizes):
            assert len(step.h.source) == size_in
            assert len(step.h.target) < len(step.h.source)
        assert is_injective(chain.final_system.morphism)
        # each system is exactly (g, h(axiom)) of the step before it, and
        # already reduced: every new letter occurs in some h(a)
        for i, step in enumerate(chain.steps):
            before, after = chain.systems[i], chain.systems[i + 1]
            pushed = step.h(before.axiom)
            assert [step.h.target.symbols[a] for a in pushed] == [
                after.alphabet.symbols[a] for a in after.axiom
            ]
            assert after == D0LSystem(step.simplified(), pushed)
            assert after.is_reduced()
        assert len(chain.steps) <= len(system.alphabet)
    assert built > 150


def _has_power_factor(haystack, needle, power):
    return bool(factor_occurrences(haystack, needle * power)) if needle else False


def test_factor_transfer_both_directions():
    # per-step transfer: v^6 in f^n(w) => h(v)^6 in g^n(h(w));
    # u^6 in g^n(h(w)) => k(u)^6 in f^(n+1)(w)
    rng = random.Random(43)
    systems = [
        make_system({"a": "ab", "b": "ab"}, "a"),
        make_system({"a": "aca", "b": "badc", "c": "acab", "d": "adc"}, "a"),
    ]
    for _ in range(120):
        systems.append(random_system(rng).reduced())
    exercised = 0
    for system in systems:
        try:
            chain = injective_simplification(system)
        except SimplificationError:
            continue
        for i, step in enumerate(chain.steps):
            before = chain.systems[i]
            f, h, k = before.morphism, step.h, step.k
            g = step.simplified()
            for n in range(0, 4):
                fn = f.iterate(before.axiom, n)
                gn = g.iterate(h(before.axiom), n)
                for length in range(1, 4):
                    for start in range(min(len(fn), 12)):
                        v = fn[start : start + length]
                        if len(v) == length and _has_power_factor(fn, v, 6):
                            assert _has_power_factor(gn, h(v), 6) or not h(v)
                            exercised += 1
                fn_next = f.iterate(before.axiom, n + 1)
                for length in range(1, 4):
                    for start in range(min(len(gn), 12)):
                        u = gn[start : start + length]
                        if len(u) == length and _has_power_factor(gn, u, 6):
                            assert _has_power_factor(fn_next, k(u), 6)
                            exercised += 1
    assert exercised > 10
