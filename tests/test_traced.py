"""The names the benchmark's tracer wraps, and the walks it counts.

``perfbench/tracing.py`` replaces functions by name, and its ``install``
fails on a name that no longer resolves; these tests make such a rename
fail here too.  The tracer counts ``pushy.cycles`` and
``unbounded.first_letter_candidates`` per analysis: the side-graph stage
walks each side graph once and never the first-letter graph.
"""

import importlib
import random
import runpy
from pathlib import Path

import dolrep.pushy
import dolrep.unbounded
from dolrep import analyze
from corpus_util import random_system

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # run_path compiles the source without importing it as a module or
    # writing a bytecode cache next to it.
    tracing = runpy.run_path(str(TRACING))
    names = list(tracing["SPANS"] + tracing["COUNTED"])
    names += [("morphism", "Morphism.apply"), ("morphism", "Morphism.__call__")]
    assert len(names) >= 20
    for module, attr in names:
        owner = importlib.import_module(f"dolrep.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_analyze_walks_each_side_graph_once(monkeypatch):
    def no_walk(system):
        raise AssertionError("analyze walked the first-letter graph")

    walks = []
    cycles = dolrep.pushy.cycles

    def counted(graph):
        walks.append(graph)
        return cycles(graph)

    monkeypatch.setattr(dolrep.unbounded, "first_letter_candidates", no_walk)
    monkeypatch.setattr(dolrep.pushy, "cycles", counted)
    rng = random.Random(2101)
    growing = classes = 0
    for _ in range(1500):
        system = random_system(rng, max_letters=rng.choice((4, 8)))
        walks.clear()
        report = analyze(system)
        grows = bool(system.reduced().morphism.classification.unbounded)
        assert len(walks) == (2 if grows else 0), system
        growing += grows
        classes += bool(report.unbounded_periods)
    assert growing >= 500 and classes >= 200, (growing, classes)
