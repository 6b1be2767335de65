"""Differential tests of the linear-time structure passes against brute force.

The references are the direct definitions: a reach set per letter for the
classification, a least fixed point for mortality, "walk |A| steps and come
back" for the cycles of a functional graph, and dense uncapped count
vectors for the Lando check.
"""

import random
import time

import pytest

from dolrep import (
    Alphabet,
    D0LSystem,
    Morphism,
    Side,
    build_side_graph,
    classify_letters,
    cycles,
    first_letter_candidates,
    lando_periodic_check,
)
from dolrep import unbounded
from corpus_util import random_system


def _layered_system(rng: random.Random) -> D0LSystem:
    """Letters in up to three layers whose images only reach their own layer or later ones.

    Each layer can hold its own strongly connected components, so the
    condensation has several components with edges between them.
    """
    n = rng.randint(1, 10)
    layer = sorted(rng.randrange(3) for _ in range(n))
    images = []
    for a in range(n):
        later = [b for b in range(n) if layer[b] >= layer[a]]
        img = [rng.choice(later) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.2:
            img.insert(rng.randint(0, len(img)), a)  # self-loop
        images.append(tuple(img))
    alphabet = Alphabet(tuple(f"x{a}" for a in range(n)))
    return D0LSystem(Morphism(alphabet, alphabet, tuple(images)), (0,))


def _systems(seed: int, count: int, min_image: int = 0) -> list[D0LSystem]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2:
            out.append(random_system(rng, max_letters=10, min_image=min_image))
        else:
            system = _layered_system(rng)
            if min_image and system.morphism.is_erasing():
                continue
            out.append(system)
    return out


def _reference_mortal(phi: Morphism) -> frozenset[int]:
    mortal = {a for a in range(len(phi.source)) if not phi.image(a)}
    changed = True
    while changed:
        changed = False
        for a in range(len(phi.source)):
            if a not in mortal and all(b in mortal for b in phi.image(a)):
                mortal.add(a)
                changed = True
    return frozenset(mortal)


def _reference_reach(phi: Morphism, mortal: frozenset[int]) -> dict[int, set[int]]:
    """Letters reachable from each immortal letter (itself included) over immortal letters."""
    immortal = [a for a in range(len(phi.source)) if a not in mortal]
    succ = {a: {b for b in phi.image(a) if b not in mortal} for a in immortal}
    reach = {}
    for a in immortal:
        seen = {a}
        stack = [a]
        while stack:
            for b in succ[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        reach[a] = seen
    return reach


def _reference_unbounded(phi: Morphism) -> frozenset[int]:
    """The definition: reaches a letter on a cycle that reaches a branching letter."""
    mortal = _reference_mortal(phi)
    reach = _reference_reach(phi, mortal)
    succ = {a: {b for b in phi.image(a) if b not in mortal} for a in reach}
    branching = {a for a in reach if sum(1 for b in phi.image(a) if b not in mortal) >= 2}
    on_cycle = {a for a in reach if any(a in reach[b] for b in succ[a])}
    return frozenset(
        a
        for a in reach
        if any(c in on_cycle and not branching.isdisjoint(reach[c]) for c in reach[a])
    )


def _cyclic_components(phi: Morphism) -> int:
    """Number of strongly connected components of immortal letters that hold a cycle."""
    mortal = _reference_mortal(phi)
    reach = _reference_reach(phi, mortal)
    on_cycle = [a for a in reach if any(a in reach[b] for b in phi.image(a) if b not in mortal)]
    return len({frozenset(b for b in reach[a] if a in reach[b]) for a in on_cycle})


def _reference_functional_cycles(vertices, target) -> list[tuple[int, ...]]:
    """Walk |V| steps from every vertex; those that come back lie on a cycle."""
    on_cycle = set()
    for v in vertices:
        u = target(v)
        for _ in range(len(vertices)):
            if u == v:
                on_cycle.add(v)
                break
            u = target(u)
    out, used = [], set()
    for v in sorted(on_cycle):
        if v not in used:
            cycle = [v]
            while target(cycle[-1]) != v:
                cycle.append(target(cycle[-1]))
            used.update(cycle)
            out.append(tuple(cycle))
    return out


def test_mortal_letters_against_fixed_point():
    for system in _systems(5101, 1500):
        assert classify_letters(system.morphism).mortal == _reference_mortal(system.morphism), system


def test_classification_against_reach_sets():
    seen = {"mortal": 0, "erasing": 0, "self_loop": 0, "several_cyclic_sccs": 0, "unbounded": 0}
    for system in _systems(5102, 1500):
        phi = system.morphism
        cls = classify_letters(phi)
        assert cls.mortal == _reference_mortal(phi), system
        assert cls.unbounded == _reference_unbounded(phi), system
        assert cls.bounded == frozenset(range(len(phi.source))) - cls.unbounded, system
        seen["mortal"] += bool(cls.mortal)
        seen["erasing"] += phi.is_erasing()
        seen["self_loop"] += any(
            a in phi.image(a) and a not in cls.mortal for a in range(len(phi.source))
        )
        seen["several_cyclic_sccs"] += _cyclic_components(phi) >= 2
        seen["unbounded"] += bool(cls.unbounded)
    assert min(seen.values()) >= 50, seen


CHAIN = 20_000


@pytest.mark.parametrize(
    "last_image, mortal, unbounded",
    [((), True, False), ((CHAIN - 1,), False, False), ((CHAIN - 1, CHAIN - 1), False, True)],
    ids=["erased", "fixed", "doubled"],
)
def test_classification_of_a_long_chain(last_image, mortal, unbounded):
    """a_i -> a_(i+1) over 20 000 letters, then a_last -> last_image.

    The whole chain is mortal, bounded and immortal, or unbounded with its
    last letter.  The depth-first walk is as deep as the chain, so this
    guards against recursion and against quadratic work.
    """
    alphabet = Alphabet(tuple(f"a{i}" for i in range(CHAIN)))
    phi = Morphism(alphabet, alphabet, tuple((i + 1,) for i in range(CHAIN - 1)) + (last_image,))
    start = time.perf_counter()
    cls = classify_letters(phi)
    elapsed = time.perf_counter() - start
    letters = frozenset(range(CHAIN))
    assert cls.mortal == (letters if mortal else frozenset())
    assert cls.unbounded == (letters if unbounded else frozenset())
    assert cls.bounded == letters - cls.unbounded
    assert elapsed < 1.0, elapsed


def test_first_letter_candidates_against_walk_back():
    lengths = set()
    for system in _systems(5103, 1500, min_image=1):
        phi = system.morphism
        n = len(phi.source)
        expected = []
        for a in sorted(_reference_unbounded(phi)):
            b = a
            for step in range(1, n + 1):
                b = phi.first_letter(b)
                if b == a:
                    expected.append((a, step))
                    break
        got = first_letter_candidates(system)
        for cycle in got:
            assert cycle[0] == min(cycle), system
            assert [phi.first_letter(a) for a in cycle] == list(cycle[1:] + cycle[:1]), system
        assert [cycle[0] for cycle in got] == sorted(cycle[0] for cycle in got), system
        assert sorted((a, len(cycle)) for cycle in got for a in cycle) == expected, system
        lengths.update(len(cycle) for cycle in got)
    assert max(lengths) >= 4, lengths


def test_side_graph_cycles_against_walk_back():
    checked = 0
    for system in _systems(5104, 1500, min_image=1):
        if not classify_letters(system.morphism).unbounded:
            continue
        for side in Side:
            graph = build_side_graph(system, side)
            assert list(graph) == sorted(classify_letters(system.morphism).unbounded), system
            expected = _reference_functional_cycles(list(graph), lambda a: graph[a][0])
            assert cycles(graph) == expected, system
            checked += 1
    assert checked >= 500


def test_first_letter_graph_is_the_label_free_left_side_graph():
    # An unbounded letter's first letter is unbounded exactly when its left
    # side-graph edge sheds no bounded prefix, and then both edges agree.
    checked = kept = dropped = 0
    for system in _systems(5108, 3000, min_image=1):
        graph = build_side_graph(system, Side.LEFT)
        label_free = [cycle for cycle in cycles(graph) if not any(graph[a][1] for a in cycle)]
        assert first_letter_candidates(system) == label_free, system
        checked += 1
        kept += len(label_free)
        dropped += len(cycles(graph)) - len(label_free)
    assert checked >= 1500 and kept >= 500 and dropped >= 100, (checked, kept, dropped)


def test_cycles_of_random_functional_graphs():
    rng = random.Random(5105)
    multi = 0
    for _ in range(1000):
        vertices = tuple(sorted(rng.sample(range(20), rng.randint(1, 12))))
        edges = {v: (rng.choice(vertices), ()) for v in vertices}
        expected = _reference_functional_cycles(vertices, lambda v: edges[v][0])
        assert cycles(edges) == expected, edges
        multi += len(expected) >= 2
    assert multi >= 100


def _dense_counts(phi: Morphism, counts: dict[int, int], steps: int) -> dict[int, int]:
    """Exact, uncapped occurrence counts through a dense vector."""
    vec = [0] * len(phi.source)
    for a, c in counts.items():
        vec[a] = c
    for _ in range(steps):
        nxt = [0] * len(vec)
        for a, c in enumerate(vec):
            for b in phi.image(a):
                nxt[b] += c
        vec = nxt
    return {a: c for a, c in enumerate(vec) if c}


def test_advance_counts_caps_at_two():
    doubling = Morphism(Alphabet("x"), Alphabet("x"), ((0, 0),))
    assert unbounded._advance_counts(doubling, {0: 1}, 60) == {0: 2}
    rng = random.Random(5106)
    for system in _systems(5106, 400):
        phi = system.morphism
        start = {a: rng.randint(1, 2) for a in rng.sample(range(len(phi.source)), 1)}
        steps = rng.randint(0, 12)
        exact = _dense_counts(phi, start, steps)
        assert unbounded._advance_counts(phi, start, steps) == {
            a: min(c, 2) for a, c in exact.items()
        }


def test_lando_check_unchanged_by_the_cap(monkeypatch):
    systems = _systems(5107, 1200, min_image=1)
    candidates = [
        (system.morphism, len(cycle), a)
        for system in systems
        for cycle in first_letter_candidates(system)
        for a in cycle
    ]
    capped = [lando_periodic_check(phi, length, a) for phi, length, a in candidates]
    largest = []

    def uncapped(phi, counts, steps):
        counts = _dense_counts(phi, counts, steps)
        largest.append(max(counts.values()))
        return counts

    monkeypatch.setattr(unbounded, "_advance_counts", uncapped)
    exact = [lando_periodic_check(phi, length, a) for phi, length, a in candidates]
    assert capped == exact
    assert sum(v is not None for v in exact) >= 20
    assert max(largest) > 2
