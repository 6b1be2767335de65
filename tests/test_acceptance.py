"""Acceptance suite: one test per criterion (run with -v for per-criterion lines)."""

import functools
import json
import random
import time

from dolrep import (
    OracleParams,
    Side,
    analyze,
    build_side_graph,
    compose,
    cycles,
    factors_up_to,
    injective_simplification,
    is_injective,
    is_primitive,
    make_system,
    max_power,
    periodic_factor_graph,
)
from dolrep.cli import report_to_dict
from corpus_util import oracle_agreement, random_system, simulated_bounded

CORPUS_SIZE = 500


def _timed(limit_s):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            assert elapsed < limit_s, f"{fn.__name__} took {elapsed:.2f}s (limit {limit_s}s)"

        return wrapper

    return decorate


@_timed(1.0)
def test_criterion_1_example1_simplification():
    f_system = make_system({"a": "aca", "b": "badc", "c": "acab", "d": "adc"}, "a")
    chain = injective_simplification(f_system)
    assert len(chain.steps) == 1
    step = chain.steps[0]
    assert len(step.h.target) == 3
    assert is_injective(chain.final_system.morphism)
    assert compose(step.k, step.h) == f_system.morphism

    # exact equality with the expected g under some letter renaming
    expected_g = make_system({"x": "xxyx", "y": "yz", "z": "xzxy"}, "x").morphism
    mine = chain.final_system.morphism
    from itertools import permutations

    matches = []
    for perm in permutations(range(3)):
        renamed = {
            perm[a]: tuple(perm[b] for b in mine.image(a)) for a in range(3)
        }
        if all(renamed[a] == expected_g.image(a) for a in range(3)):
            matches.append(perm)
    assert matches, "simplified morphism differs from the expected one up to renaming"


@_timed(1.0)
def test_criterion_2_system_g():
    system = make_system({"0": "012", "1": "2", "2": "1"}, "0")
    report = analyze(system)
    alph = system.alphabet
    assert report.pushy is True
    assert report.repetitive is True
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.conjugates == {alph.word(s) for s in ("1122", "1221", "2112", "2211")}
    assert cls.source.value == "bounded"


@_timed(1.0)
def test_criterion_3_system_h():
    system = make_system({"0": "0123", "1": "2", "2": "1", "3": "123"}, "0")
    report = analyze(system)
    alph = system.alphabet
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.conjugates == {alph.word(s) for s in ("1122", "1221", "2112", "2211")}
    assert cls.source.value == "bounded"
    left = build_side_graph(system, Side.LEFT)
    found = {(c, tuple(left[a][1] for a in c)) for c in cycles(left)}
    assert found == {
        ((alph.letter("0"),), ((),)),
        ((alph.letter("3"),), (alph.word("12"),)),
    }


@_timed(5.0)
def test_criterion_4_thue_morse():
    system = make_system({"0": "01", "1": "10"}, "0")
    report = analyze(system)
    assert report.pushy is False
    assert report.repetitive is False
    assert report.classes == ()
    params = OracleParams(depth=12, max_len=8)
    for v in factors_up_to(system, params):
        if is_primitive(v):
            assert max_power(system, v, params) <= 2, v


@_timed(5.0)
def test_criterion_5_fibonacci():
    system = make_system({"0": "01", "1": "0"}, "0")
    report = analyze(system)
    assert report.repetitive is False
    assert report.classes == ()
    params = OracleParams(depth=15, max_len=8)
    for v in factors_up_to(system, params):
        if is_primitive(v):
            assert max_power(system, v, params) <= 3, v


@_timed(1.0)
def test_criterion_6_trivial_periodic():
    doubling = make_system({"x": "xx"}, "x")
    report = analyze(doubling)
    assert [c.representative for c in report.classes] == [(0,)]
    assert report.classes[0].source.value == "unbounded"
    assert report.repetitive is True

    pair = make_system({"a": "ab", "b": "ab"}, "a")
    report = analyze(pair)
    assert [s.kind for s in report.chain.steps] == ["duplicate-merge"]
    assert len(report.classes) == 1
    assert report.classes[0].conjugates == {pair.alphabet.word("ab"), pair.alphabet.word("ba")}


@functools.lru_cache(maxsize=1)
def _corpus():
    systems = []
    for i in range(CORPUS_SIZE):
        rng = random.Random(1000 + i)
        systems.append(random_system(rng))
    return systems


@_timed(300.0)
def test_criterion_7_corpus_properties():
    systems = _corpus()
    from dolrep import classify_letters, injectivity_witness

    erasing = sum(1 for s in systems if s.morphism.is_erasing())
    noninjective = sum(1 for s in systems if injectivity_witness(s.morphism) is not None)
    assert erasing >= 50 and noninjective >= 50  # the corpus covers both regimes

    for system in systems:
        report = analyze(system)
        engine_reps = {c.representative for c in report.classes}

        # (a) two-sided engine/oracle agreement under tuned params
        agrees, observed, params = oracle_agreement(system, engine_reps)
        assert agrees, (system, sorted(engine_reps), sorted(observed), params)

        # (b) structural classification matches the orbit simulation
        cls = classify_letters(system.morphism)
        for a in range(len(system.alphabet)):
            assert (a in cls.bounded) == simulated_bounded(system.morphism, a), (system, a)

        # (c) every chain step reproduces its input morphism
        for i, step in enumerate(report.chain.steps):
            assert compose(step.k, step.h) == report.chain.systems[i].morphism, system

        # (d) the periodic-factor graph of the simplification is 1-regular
        graph = periodic_factor_graph(report)  # raises on any 1-regularity violation
        assert set(graph.edges.values()) == set(graph.vertices)


@_timed(300.0)
def test_criterion_8_determinism():
    for system in _corpus():
        first = json.dumps(report_to_dict(analyze(system)), indent=2)
        second = json.dumps(report_to_dict(analyze(system)), indent=2)
        assert first == second
