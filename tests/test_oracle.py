import random
import re
import tracemalloc

import pytest

from dolrep import (
    Alphabet,
    D0LSystem,
    Morphism,
    OracleParams,
    OracleResourceError,
    factors_up_to,
    make_system,
    max_power,
    observed_classes,
)
from dolrep import oracle
from dolrep.oracle import _accumulate_run_powers, _iterate_strings
from dolrep.words import canonical_rotation, is_primitive, primitive_root


def test_factors_small_depth(system_g):
    alph = system_g.alphabet
    found = factors_up_to(system_g, OracleParams(depth=1, max_len=2))
    assert found == {alph.word(s) for s in ("0", "1", "2", "01", "12")}


def test_factors_grow_with_depth(system_g):
    # phi^2(0) = 01221, phi^3(0) = 0122112
    alph = system_g.alphabet
    at2 = factors_up_to(system_g, OracleParams(depth=2, max_len=4))
    at3 = factors_up_to(system_g, OracleParams(depth=3, max_len=4))
    assert alph.word("1221") in at2
    assert alph.word("2211") not in at2
    assert alph.word("2211") in at3
    assert alph.word("2112") in at3
    assert at2 <= at3


def test_factors_exclude_empty_word(system_g):
    assert () not in factors_up_to(system_g, OracleParams(depth=2, max_len=3))


def test_factors_resource_guard(doubling):
    with pytest.raises(OracleResourceError):
        factors_up_to(doubling, OracleParams(depth=12, max_len=2, max_word_len=1000))


def test_budget_exit_builds_no_over_budget_iterate():
    # a -> a^300: the depth-3 iterate would hold 27M letters
    system = make_system({"a": "a" * 300}, "a")
    tracemalloc.start()
    try:
        with pytest.raises(OracleResourceError, match="^iterate length 27000000 exceeds the 100000-letter budget$"):
            observed_classes(system, OracleParams(depth=4, max_word_len=100_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_depth_over_the_budget_builds_nothing():
    # One iterate is kept per depth, so the letter budget bounds the depth as
    # well: before the check, --depth 10^8 on a -> a ran out of memory.
    system = make_system({"a": "a"}, "a")
    assert len(_iterate_strings(system, 1000, 1000)) == 1001
    tracemalloc.start()
    try:
        with pytest.raises(OracleResourceError, match="^depth 1001 exceeds the 1000-letter budget"):
            observed_classes(system, OracleParams(depth=1001, max_word_len=1000))
        with pytest.raises(OracleResourceError, match="^depth 100000000 exceeds the 1000000-letter budget"):
            factors_up_to(system, OracleParams(depth=10**8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_deep_iterates_share_their_reach_sets():
    # reach[j] stops growing once a step adds no letter; a set per depth held
    # 200 bytes or more per depth
    system = make_system({"a": "b", "b": "a"}, "a")
    tracemalloc.start()
    try:
        texts = _iterate_strings(system, 30_000, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert texts[-2:] == ["\x01", "\x00"]
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"


def test_max_power_system_g(system_g):
    v = system_g.alphabet.word("1221")
    assert max_power(system_g, v, OracleParams(depth=6)) >= 2
    assert max_power(system_g, v, OracleParams(depth=12)) > max_power(
        system_g, v, OracleParams(depth=6)
    )


def test_max_power_thue_morse(thue_morse):
    assert max_power(thue_morse, (0,), OracleParams(depth=10)) == 2


def test_max_power_doubling(doubling):
    for depth in (3, 6, 10):
        assert max_power(doubling, (0,), OracleParams(depth=depth)) == 2 ** depth


def test_max_power_monotone(system_g):
    alph = system_g.alphabet
    for word in ("1", "12", "1221", "2112"):
        v = alph.word(word)
        previous = 0
        for depth in (2, 4, 6, 8, 10):
            current = max_power(system_g, v, OracleParams(depth=depth))
            assert current >= previous
            previous = current


def test_max_power_rejects_nonprimitive(system_g):
    with pytest.raises(ValueError):
        max_power(system_g, system_g.alphabet.word("1212"), OracleParams())


def test_observed_classes_system_g(system_g):
    assert observed_classes(system_g) == {system_g.alphabet.word("1122")}


def test_observed_classes_thue_morse(thue_morse):
    assert observed_classes(thue_morse) == set()


def test_observed_classes_duplicate_pair(duplicate_pair):
    assert observed_classes(duplicate_pair) == {duplicate_pair.alphabet.word("ab")}


def test_observed_classes_static_powers_filtered():
    # b^3 appears from depth 1 on but never grows (the overlap-free part
    # carries no repetitions); the half/full comparison drops it
    system = make_system({"0": "01", "1": "10", "s": "bbb", "b": "b"}, "s0")
    assert max_power(system, (3,), OracleParams(depth=10, max_len=4)) == 3
    assert observed_classes(system, OracleParams(depth=10, power_threshold=3)) == set()


def test_params_validation():
    with pytest.raises(ValueError):
        OracleParams(depth=0)
    with pytest.raises(ValueError):
        OracleParams(power_threshold=1)
    with pytest.raises(ValueError):
        OracleParams(max_len=0)


def _reference_run_powers(text: str, max_len: int) -> dict[str, int]:
    """For every factor u with |u| <= max_len, the largest m >= 2 with u^m in
    text, by direct search."""
    powers = {}
    for l in range(1, max_len + 1):
        for u in {text[i : i + l] for i in range(len(text) - l + 1)}:
            m = 1
            while u * (m + 1) in text:
                m += 1
            if m >= 2:
                powers[u] = m
    return powers


def _random_texts(rng: random.Random):
    """Seeded texts over 1-4 letters from each base id: periodic with a few
    changed letters (units up to 12 letters long), or uniform."""
    for base in (0, 250, 1000, 0xD7FE, 70_000):
        for _ in range(40):
            k, n = rng.randint(1, 4), rng.randint(0, 300)
            if rng.random() < 0.6:
                unit = [rng.randrange(k) for _ in range(rng.randint(1, 12))]
                ids = [unit[i % len(unit)] for i in range(n)]
                for _ in range(rng.randint(0, 4)):
                    if ids:
                        ids[rng.randrange(n)] = rng.randrange(k)
            else:
                ids = [rng.randrange(k) for _ in range(n)]
            yield "".join(chr(base + i) for i in ids)


@pytest.mark.parametrize("chunk_letters", [None, 8])
def test_run_powers_against_brute_force(monkeypatch, chunk_letters):
    # A chunk of 8 letters holds fewer stretches than most texts have, so
    # the pairs of one period are grouped across many chunk boundaries.
    if chunk_letters is not None:
        monkeypatch.setattr(oracle, "_CHUNK_LETTERS", chunk_letters)
    rng = random.Random(7)
    long_units = wide_ids = filtered = 0
    for text in _random_texts(rng):
        max_len = rng.choice((1, 2, 8, 11))
        expected = _reference_run_powers(text, max_len)
        for min_power in (2, 3, 4):
            powers = {}
            _accumulate_run_powers(text, max_len, min_power, powers)
            assert powers == {u: m for u, m in expected.items() if m >= min_power}, (text, max_len, min_power)
            filtered += len(powers) < len(expected)
        long_units += any(len(u) > 8 for u in expected)
        wide_ids += bool(text) and max(text) >= chr(256)
    # both letter regimes were exercised, and the thresholds dropped units
    assert long_units >= 10 and wide_ids >= 100 and filtered >= 100


def test_run_powers_across_chunks_of_default_size():
    rng = random.Random(11)
    text = "".join(rng.choice(("aab", "abab", "aaab", "b", "bba")) for _ in range(60_000))
    # every run of a repeated letter is one period-1 pair: more than a chunk holds
    assert len(re.findall(r"(.)\1+", text)) > oracle._CHUNK_LETTERS
    powers = {}
    _accumulate_run_powers(text, 4, 2, powers)
    assert powers == _reference_run_powers(text, 4)


def test_run_powers_one_letter_repeated():
    text = "a" * 5000
    powers = {}
    _accumulate_run_powers(text, 11, 2, powers)
    assert powers == {"a" * l: 5000 // l for l in range(1, 12)}
    assert powers == _reference_run_powers(text, 11)


def test_run_powers_accumulate_into_existing_dict():
    # powers found earlier are raised, never lowered
    powers = {"ab": 5, "a": 1}
    _accumulate_run_powers("abababaaa", 2, 2, powers)
    assert powers == {"ab": 5, "ba": 3, "a": 3}


def test_run_powers_accept_surrogate_letter_ids():
    # chr() accepts the ids 0xD800-0xDFFF; a strict UTF-32 encoding refuses them
    powers = {}
    _accumulate_run_powers(chr(0xD800) * 4, 2, 2, powers)
    assert powers == {chr(0xD800): 4, chr(0xD800) * 2: 2}


def _system(images, axiom) -> D0LSystem:
    alphabet = Alphabet(tuple(f"x{i}" for i in range(len(images))))
    return D0LSystem(Morphism(alphabet, alphabet, tuple(map(tuple, images))), tuple(axiom))


def _reference_iterates(system: D0LSystem, depth: int, cap: int) -> list[str]:
    """phi^0(w) .. phi^depth(w), one str.translate per step, each length
    checked against the budget on the iterate before it is built."""
    table = {a: "".join(map(chr, img)) for a, img in enumerate(system.morphism.images)}
    text = "".join(map(chr, system.axiom))
    out = [text]
    for _ in range(depth):
        length = sum(len(table[ord(c)]) for c in text)
        if length > cap:
            raise OracleResourceError(f"iterate length {length} exceeds the {cap}-letter budget")
        text = text.translate(table)
        out.append(text)
    return out


def _random_iterate_system(rng: random.Random) -> D0LSystem:
    """Seeded systems with erasing images and unreachable letters; in the
    chain-shaped ones each image of the chain names the next letter, so the
    last one may first be reached at the last step.  The 300-letter ones use
    ids from 0 or from 295 on."""
    n = rng.choice((1, 2, 3, 5, 8, 300))
    low = rng.choice((0, n - 5)) if n == 300 else 0
    active = range(low, n)
    images = [[rng.choice(active) for _ in range(rng.randint(0, 3))] for _ in range(n)]
    if rng.random() < 0.4:
        for i in active[:-1]:
            images[i].insert(rng.randint(0, len(images[i])), i + 1)
        return _system(images, [low])
    return _system(images, [rng.choice(active) for _ in range(rng.randint(1, 3))])


def test_iterate_strings_against_translate_reference():
    rng = random.Random(17)
    seen = {"empty": 0, "unreached": 0, "last_step": 0, "wide": 0, "budget": 0}
    for _ in range(1200):
        system = _random_iterate_system(rng)
        depth, cap = rng.randint(1, 9), rng.choice((20, 500, 10**6))
        try:
            expected = _reference_iterates(system, depth, cap)
        except OracleResourceError as exc:
            with pytest.raises(OracleResourceError) as raised:
                _iterate_strings(system, depth, cap)
            assert str(raised.value) == str(exc)
            seen["budget"] += 1
            continue
        assert _iterate_strings(system, depth, cap) == expected, (system, depth)
        letters = [set(text) for text in expected]
        seen["empty"] += "" in expected
        seen["unreached"] += len(set().union(*letters)) < len(system.alphabet)
        seen["last_step"] += bool(letters[-1] - set().union(*letters[:-1]))
        seen["wide"] += max(map(max, filter(None, expected))) >= chr(256)
    assert min(seen.values()) >= 50, seen  # every case was exercised


@pytest.mark.parametrize("chain", [0, 6])
def test_fast_letter_far_from_axiom_builds_nothing_big(chain):
    # Letters a, b, c1..c6: a -> a, b -> b^10, never reached from the axiom a;
    # or a -> a c1, c_i -> c_(i+1), c6 -> b, so b is first reached at step
    # depth - 1.  The iterates stay tiny; expanding b at every level would
    # build b^(10^8), a 100 MB string.
    depth = 8
    images = [[0, 2] if chain else [0], [1] * 10]
    images += [[i + 2] if i < chain else [1] for i in range(1, chain + 1)]
    system = _system(images, [0])
    tracemalloc.start()
    try:
        observed_classes(system, OracleParams(depth=depth, max_len=12, power_threshold=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert _iterate_strings(system, depth, 10**6)[-1].count(chr(1)) == (11 if chain else 0)


def _reference_observed(system: D0LSystem, params: OracleParams) -> set:
    """observed_classes with one run-power scan per iterate, every power >= 2
    recorded."""
    texts = _iterate_strings(system, params.depth, params.max_word_len)
    half = -(-params.depth // 2)
    powers, half_powers = {}, {}
    for n, text in enumerate(texts):
        _accumulate_run_powers(text, params.max_len, 2, powers)
        if n == half:
            half_powers = dict(powers)
    out = set()
    for unit, power in powers.items():
        word = tuple(map(ord, unit))
        if power < params.power_threshold or not is_primitive(word):
            continue
        earlier = half_powers.get(unit)
        if earlier is None:
            earlier = 1 if any(unit in t for t in texts[: half + 1]) else 0
        if power > earlier:
            out.add(canonical_rotation(primitive_root(word)))
    return out


def test_batched_scan_against_per_iterate_scan(monkeypatch):
    scans = []

    def scan(text, max_len, min_power, powers):
        scans.append(len(text))
        _accumulate_run_powers(text, max_len, min_power, powers)

    monkeypatch.setattr(oracle, "_accumulate_run_powers", scan)
    rng = random.Random(23)
    seen = {"empty": 0, "split": 0, "wide": 0, "classes": 0, "long_max_len": 0, "late_repeat": 0}
    for _ in range(800):
        # letters near the top of the alphabet, so the sentinel chr(n) sits
        # just past them, on either side of the one-byte encoding
        n = rng.choice((12, 255, 256, 257))
        if rng.random() < 0.4:
            # the axiom c_0 e^s, e -> (empty), a chain c_0 -> .. -> c_(k-1) ->
            # d e^r, and d -> d: short iterates d follow a longer one late, so
            # they share its batch and repeat units that hold the sentinel
            d, e, k = n - 1, n - 2, rng.randint(1, 8)
            images = [[a + 1] for a in range(n)]
            images[d], images[e], images[e - 1] = [d], [], [d] + [e] * rng.randint(1, 3)
            axiom = [e - k] + [e] * rng.randint(0, 9)
        else:
            active = sorted({rng.randrange(n), n - 1, n - 2, n - 3})
            images = [[rng.choice(active) for _ in range(rng.randint(0, 3))] for _ in range(n)]
            axiom = [rng.choice(active) for _ in range(rng.randint(1, 3))]
        system = _system(images, axiom)
        params = OracleParams(
            depth=rng.randint(1, 12),
            max_len=rng.choice((1, 8, 12, 500)),
            power_threshold=rng.choice((2, 3, 4)),
            max_word_len=400,
        )
        try:
            texts = _iterate_strings(system, params.depth, params.max_word_len)
        except OracleResourceError:
            continue
        expected = _reference_observed(system, params)
        scans.clear()
        assert observed_classes(system, params) == expected, (system, params)
        assert max(scans) <= max(map(len, texts))  # no scan outgrows an iterate
        half = -(-params.depth // 2)
        late = [len(t) for t in texts[half + 1 :] if t]
        seen["empty"] += "" in texts
        seen["split"] += sum(late) + len(late) - 1 > max(map(len, texts))
        seen["wide"] += n > 255
        seen["classes"] += bool(expected)
        seen["long_max_len"] += params.max_len > max(map(len, texts))
        seen["late_repeat"] += any(
            len(t) > len(u) > 0 and u == v
            for t, u, v in zip(texts[half + 1 :], texts[half + 2 :], texts[half + 3 :])
        )
    assert min(seen.values()) >= 30, seen


def _stretch_texts(rng: random.Random, base: int):
    """Seeded texts of many stretches of one cyclic word, each at a random
    phase and length, separated by single mismatches: a letter outside the
    word, or one of its letters other than the one the period calls for."""
    for _ in range(60):
        word = [rng.randrange(3) for _ in range(rng.randint(1, 6))]
        q, ids = len(word), []
        for _ in range(rng.randint(1, 12)):
            phase = rng.randrange(q)
            ids += [word[(phase + i) % q] for i in range(rng.randint(1, 6 * q))]
            expected = word[(phase + len(ids)) % q]  # a letter the period does not call for
            ids.append(rng.choice([3] + [a for a in range(3) if a != expected]))
        yield "".join(chr(base + i) for i in ids)


def _square_stretch_lengths(text: str, l: int) -> dict[str, set[int]]:
    """The lengths of the maximal l-periodic stretches of text of 2l letters
    or more, by the unit each starts with."""
    out: dict[str, set[int]] = {}
    i = 0
    while i < len(text) - l:
        e = i
        while e < len(text) - l and text[e] == text[e + l]:
            e += 1
        if e - i >= l:
            out.setdefault(text[i : i + l], set()).add(e - i + l)
        i = e + 1
    return out


@pytest.mark.parametrize("chunk_letters", [None, 8])
def test_run_powers_of_stretches_of_one_word(monkeypatch, chunk_letters):
    # One start unit begins many stretches of different lengths, and the
    # rotations of one unit begin others, so every stretch but the longest
    # of its start unit must be dropped without losing a power.
    if chunk_letters is not None:
        monkeypatch.setattr(oracle, "_CHUNK_LETTERS", chunk_letters)
    rng = random.Random(29)
    shared = 0
    for base in (0, 70_000):
        for text in _stretch_texts(rng, base):
            max_len = rng.choice((1, 3, 6, 9))
            expected = _reference_run_powers(text, max_len)
            for min_power in (2, 3, 4):
                powers = {}
                _accumulate_run_powers(text, max_len, min_power, powers)
                assert powers == {u: m for u, m in expected.items() if m >= min_power}, (text, max_len, min_power)
            shared += any(
                len(lengths) > 1
                for l in range(1, max_len + 1)
                for lengths in _square_stretch_lengths(text, l).values()
            )
    assert shared >= 60, shared  # a start unit began stretches of two lengths


def _growing_system(rng: random.Random, kind: str) -> D0LSystem:
    """Seeded systems whose axiom a's iterates grow at the front ("suffix":
    a -> .. a), at the back ("prefix": a -> a ..), at both ends, or with the
    side chosen per system and the axiom sometimes a b; the other letters'
    images are random."""
    n = rng.randint(2, 5)
    images = [[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)]
    tail = images[0][: rng.randint(1, 3)] or [1]
    axiom = [0]
    if kind == "mixed":
        kind = rng.choice(("prefix", "suffix", "both"))
        if rng.random() < 0.3:
            axiom.append(1)
    images[0] = {"prefix": [0] + tail, "suffix": tail + [0], "both": [0] + tail + [0]}[kind]
    return _system(images, axiom)


@pytest.mark.parametrize("kind", ["prefix", "suffix", "mixed"])
def test_dominated_iterates_are_skipped_without_changing_the_classes(monkeypatch, kind):
    # An iterate that is a prefix or a suffix of the next one in its half of
    # the depths holds no higher power than that one, so it is not scanned.
    scanned = []

    def scan(text, max_len, min_power, powers):
        scanned.append(len(text) - text.count(sentinel))
        _accumulate_run_powers(text, max_len, min_power, powers)

    monkeypatch.setattr(oracle, "_accumulate_run_powers", scan)
    rng = random.Random(31)
    skipped = classes = 0
    for _ in range(150):
        system = _growing_system(rng, kind)
        sentinel = chr(len(system.alphabet))
        params = OracleParams(
            depth=rng.randint(1, 14),
            max_len=rng.choice((2, 8)),
            power_threshold=rng.choice((2, 3, 4)),
            max_word_len=2000,
        )
        try:
            texts = _iterate_strings(system, params.depth, params.max_word_len)
        except OracleResourceError:
            continue
        scanned.clear()
        observed = observed_classes(system, params)
        assert observed == _reference_observed(system, params), (system, params)
        skipped += sum(scanned) < sum(map(len, texts))
        classes += bool(observed)
    assert skipped >= 75 and classes >= 25, (skipped, classes)
