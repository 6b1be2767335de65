import random
import time

from dolrep import (
    Alphabet,
    D0LSystem,
    FactorSource,
    Morphism,
    analyze,
    canonical_rotation,
    classify_letters,
    is_primitive,
    is_repetitive,
    make_system,
    periodic_factor_graph,
    primitive_root,
)
from corpus_util import random_system


def test_analyze_system_g(system_g):
    report = analyze(system_g)
    alph = system_g.alphabet
    assert report.pushy and report.repetitive and report.strongly_repetitive
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.representative == alph.word("1122")
    assert cls.conjugates == {alph.word(s) for s in ("1122", "1221", "2112", "2211")}
    assert cls.source is FactorSource.BOUNDED


def test_analyze_system_h(system_h):
    report = analyze(system_h)
    alph = system_h.alphabet
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.representative == alph.word("1122")
    assert cls.source is FactorSource.BOUNDED


def test_analyze_doubling(doubling):
    report = analyze(doubling)
    assert report.repetitive and not report.pushy
    assert [c.representative for c in report.classes] == [(0,)]
    assert report.classes[0].source is FactorSource.UNBOUNDED


def test_analyze_thue_morse(thue_morse):
    report = analyze(thue_morse)
    assert not report.pushy and not report.repetitive
    assert report.classes == ()


def test_analyze_degenerate_all_bounded(system_g):
    from dolrep import D0LSystem

    finite = D0LSystem(system_g.morphism, system_g.alphabet.word("1"))
    report = analyze(finite)
    assert not report.repetitive and not report.pushy
    assert report.classes == ()
    assert report.chain.steps == ()


def test_analyze_degenerate_erasing():
    report = analyze(make_system({"a": ""}, "a"))
    assert not report.repetitive and report.classes == ()


def test_analyze_unreachable_letters_ignored():
    base = analyze(make_system({"0": "012", "1": "2", "2": "1"}, "0"))
    extended = analyze(make_system({"0": "012", "1": "2", "2": "1", "q": "qq"}, "0"))
    assert [c.conjugates for c in base.classes] == [
        {tuple(extended.original.alphabet.word(s)) for s in ("1122", "1221", "2112", "2211")}
    ] == [c.conjugates for c in extended.classes]


def test_is_repetitive_examples(system_g, thue_morse, fibonacci):
    assert is_repetitive(system_g)
    assert not is_repetitive(thue_morse)
    assert not is_repetitive(fibonacci)


def test_back_mapping_through_merge(duplicate_pair):
    report = analyze(duplicate_pair)
    alph = duplicate_pair.alphabet
    assert [c.representative for c in report.classes] == [alph.word("ab")]
    assert report.classes[0].source is FactorSource.UNBOUNDED
    assert [s.kind for s in report.chain.steps] == ["duplicate-merge"]


def test_back_mapping_through_erasing_steps():
    # classes of the original system may contain mortal letters
    system = make_system({"a": "aaz", "z": ""}, "a")
    report = analyze(system)
    alph = system.alphabet
    assert [s.kind for s in report.chain.steps] == ["erasing-elimination"]
    assert [c.representative for c in report.classes] == [alph.word("aaz")]

    # two erasing letters, one eliminated per step
    system = make_system({"a": "aazy", "z": "", "y": "z"}, "a")
    report = analyze(system)
    alph = system.alphabet
    assert [s.kind for s in report.chain.steps] == ["erasing-elimination"] * 2
    assert [c.representative for c in report.classes] == [alph.word("aazyaazyz")]
    # phi^3(a) is that word squared
    assert system.iterate(3) == alph.word("aazyaazyz") * 2


def test_graph_self_loop_system_g(system_g):
    graph = periodic_factor_graph(analyze(system_g))
    rep = system_g.alphabet.word("1122")
    assert graph.vertices == (rep,)
    assert graph.edges == {rep: rep}


def test_graph_self_loop_doubling(doubling):
    graph = periodic_factor_graph(analyze(doubling))
    assert graph.edges == {(0,): (0,)}


def test_graph_two_cycle():
    system = make_system({"a": "bb", "b": "aa"}, "aa")
    graph = periodic_factor_graph(analyze(system))
    a, b = system.alphabet.word("a"), system.alphabet.word("b")
    assert set(graph.vertices) == {a, b}
    assert graph.edges == {a: b, b: a}


def test_graph_two_cycle_of_bounded_classes():
    # side-graph 2-cycle whose phases pump different bounded letters
    system = make_system({"a": "b", "b": "a1", "1": "2", "2": "1"}, "a")
    report = analyze(system)
    alph = system.alphabet
    assert {c.representative for c in report.classes} == {alph.word("1"), alph.word("2")}
    assert all(c.source is FactorSource.BOUNDED for c in report.classes)
    graph = periodic_factor_graph(report)
    one, two = alph.word("1"), alph.word("2")
    assert graph.edges == {one: two, two: one}


def test_graph_reuses_the_reports_period_words(monkeypatch, system_g, doubling):
    import dolrep.engine
    import dolrep.pushy

    two_cycle = make_system({"a": "bb", "b": "aa"}, "aa")
    bounded_two_cycle = make_system({"a": "b", "b": "a1", "1": "2", "2": "1"}, "a")
    systems = (system_g, doubling, two_cycle, bounded_two_cycle)
    reports = [analyze(system) for system in systems]

    def harvest_again(system):
        raise AssertionError("periodic_factor_graph harvested the period words again")

    for module in (dolrep.engine, dolrep.pushy):
        monkeypatch.setattr(module, "periodic_words", harvest_again)
    graphs = [periodic_factor_graph(report).edges for report in reports]
    g, (a, b), (one, two) = (
        system_g.alphabet.word("1122"),
        (two_cycle.alphabet.word("a"), two_cycle.alphabet.word("b")),
        (bounded_two_cycle.alphabet.word("1"), bounded_two_cycle.alphabet.word("2")),
    )
    assert graphs == [{g: g}, {(0,): (0,)}, {a: b, b: a}, {one: two, two: one}]


def test_graph_empty_for_degenerate():
    graph = periodic_factor_graph(analyze(make_system({"a": ""}, "a")))
    assert graph.vertices == ()


def test_class_dichotomy_and_image_side():
    # every class is entirely bounded or contains an unbounded letter,
    # and its morphism image stays on the same side
    rng = random.Random(59)
    seen_classes = 0
    for _ in range(300):
        system = random_system(rng)
        report = analyze(system)
        cls_letters = classify_letters(system.morphism)
        for cls in report.classes:
            seen_classes += 1
            all_bounded = all(a in cls_letters.bounded for a in cls.representative)
            assert (cls.source is FactorSource.BOUNDED) == all_bounded
            image = system.morphism(cls.representative)
            assert all_bounded == all(a in cls_letters.bounded for a in image)
    assert seen_classes > 20


def test_classes_pairwise_nonconjugate_and_primitive():
    from dolrep import is_primitive
    from word_util import are_conjugate

    rng = random.Random(61)
    for _ in range(200):
        report = analyze(random_system(rng))
        reps = [c.representative for c in report.classes]
        for r in reps:
            assert is_primitive(r)
            assert canonical_rotation(primitive_root(r)) == r
        for i, u in enumerate(reps):
            for v in reps[i + 1 :]:
                assert not are_conjugate(u, v)
        assert report.repetitive == report.strongly_repetitive == bool(reps)
        if report.pushy:
            assert report.repetitive


def test_analyze_deterministic(system_g, system_h):
    for system in (system_g, system_h):
        assert analyze(system) == analyze(system)


def test_reported_sixth_powers_occur(system_g, system_h, doubling, duplicate_pair):
    # soundness at desk scale: rep^6 is a factor of some iterate of the original
    from word_util import factor_occurrences

    for system, depth in ((system_g, 16), (system_h, 16), (doubling, 4), (duplicate_pair, 5)):
        for cls in analyze(system).classes:
            needle = cls.representative * 6
            assert any(
                factor_occurrences(system.iterate(n), needle) for n in range(depth + 1)
            ), (system, cls.representative)


def test_high_growing_powers_all_reported(system_g, duplicate_pair):
    # desk-scale completeness: any primitive v (len <= 8) whose max power
    # reaches 8 and still grows matches a reported class
    from dolrep import OracleParams, factors_up_to, max_power

    for system, depth in ((system_g, 20), (duplicate_pair, 8)):
        reported = {c.representative for c in analyze(system).classes}
        full = OracleParams(depth=depth, max_len=8)
        half = OracleParams(depth=depth // 2, max_len=8)
        for v in factors_up_to(system, full):
            if not (len(v) <= 8 and is_primitive(v)):
                continue
            if max_power(system, v, full) >= 8 and max_power(system, v, full) > max_power(
                system, v, half
            ):
                assert canonical_rotation(primitive_root(v)) in reported, (system, v)


def _long_cycle_report(size):
    alphabet = Alphabet(tuple(f"a{i}" for i in range(size)))
    images = tuple((i + 1,) for i in range(size - 1)) + ((0, 0),)
    return analyze(D0LSystem(Morphism(alphabet, alphabet, images), (0,)))


def test_analyze_long_cycle_closed_form():
    # a_i -> a_{i+1}, a_{L-1} -> a_0 a_0: phi^L sends every a_i to a_i a_i, so
    # each letter is its own class; all L letters lie on one first-letter
    # cycle, so the Lando check runs once, with exponent L, and phi gives the
    # other periods
    size = 1200
    report = _long_cycle_report(size)
    assert [c.representative for c in report.classes] == [(i,) for i in range(size)]
    assert all(c.source is FactorSource.UNBOUNDED for c in report.classes)
    assert report.repetitive and not report.pushy
    assert report.chain.steps == ()


def test_analyze_longer_cycle_closed_form_in_linear_time():
    size = 6000
    start = time.perf_counter()
    report = _long_cycle_report(size)
    elapsed = time.perf_counter() - start
    assert [c.representative for c in report.classes] == [(i,) for i in range(size)]
    assert all(c.source is FactorSource.UNBOUNDED for c in report.classes)
    assert report.repetitive and not report.pushy
    assert report.chain.steps == ()
    assert elapsed < 10, f"L = {size} took {elapsed:.1f} s"
