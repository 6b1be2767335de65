import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

from dolrep import (
    Alphabet,
    D0LSystem,
    EngineInvariantError,
    Morphism,
    Side,
    analyze,
    bounded_periodic_classes,
    build_side_graph,
    canonical_rotation,
    cycles,
    is_primitive,
    is_pushy,
    make_system,
    periodic_words,
    primitive_root,
)
from dolrep import pushy
from corpus_util import random_system
from test_cli import _src_env
from test_metamorphic import FAMILIES
from word_util import factor_occurrences


def test_side_graph_system_g(system_g):
    alph = system_g.alphabet
    right = build_side_graph(system_g, Side.RIGHT)
    assert list(right) == [0]
    assert right[0] == (0, alph.word("12"))
    left = build_side_graph(system_g, Side.LEFT)
    assert left[0] == (0, ())


def test_side_graph_system_h(system_h):
    alph = system_h.alphabet
    left = build_side_graph(system_h, Side.LEFT)
    assert left[alph.letter("0")] == (alph.letter("0"), ())
    assert left[alph.letter("3")] == (alph.letter("3"), alph.word("12"))
    right = build_side_graph(system_h, Side.RIGHT)
    assert all(label == () for _, label in right.values())


def test_side_graph_requires_nonerasing():
    system = make_system({"a": "ab", "b": ""}, "a")
    with pytest.raises(ValueError):
        build_side_graph(system, Side.RIGHT)


def test_cycles_system_g(system_g):
    right = build_side_graph(system_g, Side.RIGHT)
    cycs = cycles(right)
    assert cycs == [(0,)]
    assert right[0][1] == system_g.alphabet.word("12")


def test_cycles_system_h_left(system_h):
    left = build_side_graph(system_h, Side.LEFT)
    cycs = cycles(left)
    assert cycs == [(0,), (3,)]


def test_cycles_two_vertex_loop():
    system = make_system({"a": "bb", "b": "aa"}, "a")
    right = build_side_graph(system, Side.RIGHT)
    cycs = cycles(right)
    assert cycs == [(0, 1)]


def test_cycles_with_tail():
    # 0 feeds the self-loop on 3 without lying on a cycle itself
    system = make_system({"0": "0123", "1": "2", "2": "1", "3": "123"}, "0")
    right = build_side_graph(system, Side.RIGHT)
    cycs = cycles(right)
    assert cycs == [(3,)]


def test_is_pushy_examples(system_g, system_h, thue_morse):
    assert is_pushy(system_g)
    assert is_pushy(system_h)
    assert not is_pushy(thue_morse)


def test_side_graph_stage_refuses_an_unreduced_system():
    # the labelled loop at b pumps c, but the axiom never reaches b or c
    system = make_system({"a": "a", "b": "bc", "c": "c"}, "a")
    for stage in (periodic_words, bounded_periodic_classes, is_pushy):
        with pytest.raises(ValueError, match="reduced"):
            stage(system)
    report = analyze(system)
    assert report.pushy is False and report.classes == ()


def test_is_pushy_reads_the_labels_only(monkeypatch, system_g, system_h, thue_morse, doubling):
    def no_word(*args):
        raise AssertionError("is_pushy built a period word or ran a Lando check")

    monkeypatch.setattr(pushy, "_cycle_period_word", no_word)
    monkeypatch.setattr(pushy, "lando_periodic_check", no_word)
    assert is_pushy(system_g) and is_pushy(system_h)
    # doubling's label-free left loop is a class that Lando's check would accept
    assert not is_pushy(thue_morse) and not is_pushy(doubling)


def test_is_pushy_of_the_final_system_matches_the_report():
    corpus = [random_system(random.Random(1000 + i)) for i in range(500)]
    pushy_count = 0
    for system in corpus + [system for system, _, _ in FAMILIES]:
        report = analyze(system)
        assert is_pushy(report.chain.final_system) == report.pushy, system
        pushy_count += report.pushy
    assert pushy_count >= 20, pushy_count


_LANDAU_CHILD = """
import json, time
from dolrep import injective_simplification, is_pushy
from test_metamorphic import _landau

out = []
for primes in ((2, 3, 5, 7, 11, 13, 17, 19, 23), tuple(p for p in range(2, 60) if all(p % d for d in range(2, p)))):
    system = _landau(primes)
    start = time.perf_counter()
    pushy = is_pushy(injective_simplification(system).final_system)
    out.append((len(system.alphabet), pushy, time.perf_counter() - start))
print(json.dumps(out))
"""


def _cap_address_space_at_256_mib() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))


def test_is_pushy_decides_large_landau_systems_without_their_class():
    # The one class has r * lcm(primes) letters: 2 007 835 830 for the 101
    # letters over the primes 2-23, about 3.3e22 for the 441 over those below
    # 60.  Building it ran out of memory; the labels decide at once.
    env = _src_env()
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _LANDAU_CHILD],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_cap_address_space_at_256_mib,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    decided = json.loads(proc.stdout)
    assert [(letters, pushy) for letters, pushy, _ in decided] == [(101, True), (441, True)]
    assert all(elapsed < 0.1 for _, _, elapsed in decided), decided


def test_bounded_classes_system_g(system_g):
    alph = system_g.alphabet
    # one right self-loop at 0, labelled 12
    assert bounded_periodic_classes(system_g) == [alph.word("2112")]  # phi(12).phi^2(12)


def test_bounded_classes_system_h(system_h):
    alph = system_h.alphabet
    # one left self-loop at 3, labelled 12: the blocks in descending iterate order
    assert bounded_periodic_classes(system_h) == [alph.word("1221")]  # phi^2(12).phi(12)


def test_bounded_classes_fixed_bounded_letter():
    # loop labeled "1" with phi(1) = 1: s=0, t=1, one block phi(1)
    system = make_system({"a": "a1", "1": "1"}, "a")
    assert bounded_periodic_classes(system) == [system.alphabet.word("1")]
    assert [label for _, label in build_side_graph(system, Side.LEFT).values()] == [()]


def test_bounded_classes_one_per_cycle_phase():
    # 2-cycle a -> b (empty label), b -> a (label 1): the tail at a pumps
    # 1^l while the tail at b pumps 2^l, so both phases must be emitted
    system = make_system({"a": "b", "b": "a1", "1": "2", "2": "1"}, "a")
    alph = system.alphabet
    # phase 0 starts at the cycle's least vertex a, phase 1 at b
    assert cycles(build_side_graph(system, Side.RIGHT)) == [(alph.letter("a"), alph.letter("b"))]
    assert bounded_periodic_classes(system) == [alph.word("1"), alph.word("2")]
    # the pumped tails really appear: phi^(2l)(a) ends in 1^l, phi^(2l+2)(b) in 2^l
    phi = system.morphism
    assert phi.iterate(alph.word("a"), 8)[-4:] == alph.word("1111")
    assert phi.iterate(alph.word("b"), 8)[-4:] == alph.word("2222")


def test_bounded_classes_all_over_bounded_letters():
    rng = random.Random(47)
    from dolrep import classify_letters

    for _ in range(200):
        system = random_system(rng).reduced()
        if system.morphism.is_erasing():
            continue
        cls = classify_letters(system.morphism)
        for period in bounded_periodic_classes(system):
            assert period
            assert all(a in cls.bounded for a in period)


def test_is_pushy_iff_bounded_classes_nonempty():
    rng = random.Random(53)
    for _ in range(300):
        system = random_system(rng).reduced()
        if system.morphism.is_erasing():
            continue
        assert is_pushy(system) == bool(bounded_periodic_classes(system))


def test_suffix_pattern_accumulates_system_g(system_g):
    # phi^l(0) ends with u phi(u) ... phi^(l-1)(u) for the right loop label u = 12
    phi = system_g.morphism
    u = system_g.alphabet.word("12")
    for l in range(1, 5):
        iterate = phi.iterate(system_g.axiom, l)
        suffix = tuple(c for j in range(l) for c in phi.iterate(u, j))
        assert iterate[-len(suffix) :] == suffix


def test_emitted_periods_are_observed_factors(system_g, system_h):
    # P^6 occurs in some iterate at desk scale
    for system, depth in ((system_g, 14), (system_h, 14)):
        for period in bounded_periodic_classes(system):
            found = False
            for n in range(depth + 1):
                text = system.morphism.iterate(system.axiom, n)
                if factor_occurrences(text, period * 6):
                    found = True
                    break
            assert found, (system, period)


def test_bounded_classes_canonical_forms(system_g, system_h):
    g_cls = canonical_rotation(primitive_root(bounded_periodic_classes(system_g)[0]))
    h_cls = canonical_rotation(primitive_root(bounded_periodic_classes(system_h)[0]))
    assert g_cls == system_g.alphabet.word("1122")
    assert h_cls == system_h.alphabet.word("1122")


# Reference: every phase of a cycle computed from scratch, as the engine did
# before the phases were derived from one another by phi.


def _reference_rotations(cycle, labels):
    """(vertices, labels) of the cycle read from each of its vertices in turn."""
    return [(cycle[r:] + cycle[:r], labels[r:] + labels[:r]) for r in range(len(cycle))]


def _reference_orbit_tail_period(system, w):
    phi = system.morphism
    seen = {}
    cur = w
    j = 0
    while cur not in seen:
        seen[cur] = j
        cur = phi(cur)
        j += 1
    s = seen[cur]
    return s, j - s


def _reference_cycle_period_word(system, side, labels):
    phi = system.morphism
    k = len(labels)
    parts = []
    if side is Side.RIGHT:
        for j in range(k):
            parts.append(phi.iterate(labels[k - 1 - j], j))
    else:
        for j in range(k):
            parts.append(phi.iterate(labels[j], k - 1 - j))
    u = tuple(c for part in parts for c in part)

    s, t = _reference_orbit_tail_period(system, u)
    l0 = -(-s // k)
    l1 = l0 + math.lcm(t, k) // k
    blocks = []
    w = phi.iterate(u, (l0 + 1) * k)
    for _ in range(l0 + 1, l1 + 1):
        blocks.append(w)
        w = phi.iterate(w, k)
    if side is Side.LEFT:
        blocks.reverse()
    period = tuple(c for b in blocks for c in b)
    return primitive_root(period)


def _reference_bounded_periodic_classes(system):
    cls = system.morphism.classification
    if not cls.unbounded:
        return [], 0
    out, long_cycles = [], 0
    for side in (Side.LEFT, Side.RIGHT):
        graph = build_side_graph(system, side)
        for cycle in cycles(graph):
            labels = tuple(graph[a][1] for a in cycle)
            if any(b not in cls.mortal for label in labels for b in label):
                long_cycles += len(cycle) >= 2
                for r, (_, phase_labels) in enumerate(_reference_rotations(cycle, labels)):
                    out.append((r, _reference_cycle_period_word(system, side, phase_labels)))
    return out, long_cycles


def test_derived_phases_match_per_phase_reference():
    # phase r's period is derived as the primitive root of phi(P_(r-1)); it
    # must be a rotation of the period computed for phase r from scratch
    rng = random.Random(61)
    systems = []
    for i in range(20_000):
        system = random_system(rng, max_letters=7, min_letters=2, max_image=4, min_image=1)
        systems.append(system.reduced())
        if i % 20 == 0:
            systems.append(analyze(system).chain.final_system)
    long_cycles = first_phases = 0
    for system in systems:
        expected, found = _reference_bounded_periodic_classes(system)
        long_cycles += found
        periods = bounded_periodic_classes(system)
        assert len(periods) == len(expected), system
        for period, (phase, ref_period) in zip(periods, expected):
            assert is_primitive(period), system
            assert canonical_rotation(period) == canonical_rotation(ref_period), system
            if phase == 0:
                # phase 0 is computed, not derived: the same word, letter for letter
                assert period == ref_period, system
                first_phases += 1
    assert long_cycles >= 500
    assert first_phases >= 2900, first_phases


def _late_tail(m, side):
    """U -> V, V -> U b1 (right) or b1 U (left), b_i -> b_(i+1) for i < m,
    b_m -> c0 d0, and the cycles c0 .. c39 and d0 .. d8: the tail of b1 is
    m applications long, and its period lcm(40, 9) = 360."""
    rules = {"U": ("V",), "V": ("U", "b1") if side is Side.RIGHT else ("b1", "U")}
    rules.update({f"b{i}": (f"b{i + 1}",) for i in range(1, m)})
    rules[f"b{m}"] = ("c0", "d0")
    rules.update({f"c{i}": (f"c{(i + 1) % 40}",) for i in range(40)})
    rules.update({f"d{i}": (f"d{(i + 1) % 9}",) for i in range(9)})
    return make_system(rules, "U")


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_late_growing_tail_into_long_cycles(side):
    m = 50
    system = _late_tail(m, side)
    graph = build_side_graph(system, side)
    [cycle] = [c for c in cycles(graph) if any(graph[a][1] for a in c)]
    labels = tuple(graph[a][1] for a in cycle)
    assert len(cycle) == 2 and labels == ((), system.alphabet.word(["b1"]))
    assert _reference_orbit_tail_period(system, labels[1]) == (m, 360)
    periods = bounded_periodic_classes(system)
    assert periods[0] == _reference_cycle_period_word(system, side, labels)
    expected, _ = _reference_bounded_periodic_classes(system)
    assert [canonical_rotation(p) for p in periods] == [canonical_rotation(w) for _, w in expected]
    # lcm(360, 2) / 2 blocks of 2 letters
    assert len(periods[0]) == 360


def test_a_tail_longer_than_the_alphabet_is_an_invariant_error(system_g):
    # with no letter cycles given, the tail of the label 12 never ends
    labels = (system_g.alphabet.word("12"),)
    with pytest.raises(EngineInvariantError, match="tail"):
        pushy._cycle_period_word(system_g.morphism, Side.RIGHT, labels, {})


def _family_c(size, side):
    # a_i -> a_(i+1) for i < L-1, a_(L-1) -> a_0 a_0 b (right) or b a_0 a_0
    # (left), b -> b: one side cycle through all L letters pumps b^omega
    alphabet = Alphabet(tuple(f"a{i}" for i in range(size)) + ("b",))
    b = size
    last = (0, 0, b) if side is Side.RIGHT else (b, 0, 0)
    images = tuple((i + 1,) for i in range(size - 1)) + (last, (b,))
    return D0LSystem(Morphism(alphabet, alphabet, images), (0,))


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_family_c_long_side_cycle(side):
    # every phase of the L-cycle was once computed from scratch, about L^3.5
    # in all: 17.8 s on the right side at L = 500
    size = 500
    start = time.perf_counter()
    report = analyze(_family_c(size, side))
    elapsed = time.perf_counter() - start
    assert report.pushy
    assert [(c.representative, c.source.value) for c in report.classes] == [((size,), "bounded")]
    assert report.chain.steps == ()
    assert elapsed < 5, f"L = {size} took {elapsed:.1f} s"


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_one_period_computation_per_cycle(monkeypatch, side):
    calls = []
    original = pushy._cycle_period_word

    def counting(phi, cycle_side, labels, *rest):
        calls.append((cycle_side, labels))
        return original(phi, cycle_side, labels, *rest)

    monkeypatch.setattr(pushy, "_cycle_period_word", counting)
    size = 50
    system = _family_c(size, side)
    periods = bounded_periodic_classes(system)
    assert len(periods) == size
    # the one labelled edge leaves the cycle's last vertex a_(L-1)
    assert calls == [(side, ((),) * (size - 1) + ((size,),))]


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_family_c_phases_copy_no_cycle(side):
    # a rotated copy of the L-cycle per phase cost O(L^2): 246 MB at L = 4000
    size = 4000
    system = _family_c(size, side)
    tracemalloc.start()
    try:
        report = analyze(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(c.representative, c.source.value) for c in report.classes] == [((size,), "bounded")]
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert cycles(build_side_graph(system, side)) == [tuple(range(size))]
    # one period per phase, each the b of the one bounded letter
    assert bounded_periodic_classes(system) == [(size,)] * size
