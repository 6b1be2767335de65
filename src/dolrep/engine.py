"""End-to-end analysis: simplify, harvest periodic factors, map back, report.

The pipeline reduces the input, simplifies it to an injective system,
collects the period words of both the bounded-letter and unbounded-letter
infinite periodic factors of the final system in one side-graph stage
(``pushy.periodic_words``), maps them back through the chain, and
canonicalizes them into conjugacy classes over the original alphabet.  A
system whose reduced alphabet has no unbounded letter has a finite
language and is reported as neither pushy nor repetitive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .morphism import D0LSystem, LetterClassification, translate_word
from .pushy import periodic_words
from .simplify import SimplificationChain, injective_simplification
from .words import Word, canonical_rotation, conjugates, primitive_root


class EngineInvariantError(RuntimeError):
    """An internal structural invariant failed; indicates an engine bug."""


class FactorSource(Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class PeriodicFactorClass:
    """Conjugacy class (v-rotations) of one infinite periodic factor v^omega."""

    representative: Word  # canonical rotation of the primitive root
    source: FactorSource

    @property
    def conjugates(self) -> frozenset[Word]:
        return frozenset(conjugates(self.representative))


@dataclass(frozen=True)
class AnalysisReport:
    original: D0LSystem
    chain: SimplificationChain
    # Period words of the final system's bounded-letter and unbounded-letter
    # infinite periodic factors, over its alphabet.
    bounded_periods: tuple[Word, ...]
    unbounded_periods: tuple[Word, ...]
    classes: tuple[PeriodicFactorClass, ...]

    @property
    def classification(self) -> LetterClassification:
        """Letter classification of the original system's morphism."""
        return self.original.morphism.classification

    @property
    def pushy(self) -> bool:
        """is_pushy(final) by definition: some side-graph cycle pumps a bounded period."""
        return bool(self.bounded_periods)

    @property
    def repetitive(self) -> bool:
        return bool(self.classes)

    @property
    def strongly_repetitive(self) -> bool:
        """Same as repetitive for D0L-systems (Ehrenfeucht & Rozenberg 1983)."""
        return self.repetitive


def analyze(system: D0LSystem) -> AnalysisReport:
    """Full analysis of a D0L-system; deterministic for equal inputs."""
    reduced = system.reduced()
    chain = SimplificationChain(steps=(), systems=(reduced,))
    bounded_periods = unbounded_periods = ()
    # A finite language has nothing that repeats unboundedly.
    if reduced.morphism.classification.unbounded:
        chain = injective_simplification(reduced)
        bounded_periods, unbounded_periods = map(tuple, periodic_words(chain.final_system))
    bounded_letters = system.morphism.classification.bounded
    classes: dict[Word, PeriodicFactorClass] = {}
    for word in bounded_periods + unbounded_periods:
        back = translate_word(chain.map_back(word), reduced.alphabet, system.alphabet)
        representative = canonical_rotation(primitive_root(back))
        if representative in classes:
            continue
        bounded = all(a in bounded_letters for a in representative)
        classes[representative] = PeriodicFactorClass(
            representative=representative,
            source=FactorSource.BOUNDED if bounded else FactorSource.UNBOUNDED,
        )

    ordered = tuple(classes[r] for r in sorted(classes))
    return AnalysisReport(system, chain, bounded_periods, unbounded_periods, ordered)


def is_repetitive(system: D0LSystem) -> bool:
    """True iff some word has all its powers among the language's factors."""
    return bool(analyze(system).classes)


@dataclass(frozen=True)
class PeriodicFactorGraph:
    """Classes of the final injective system with the edge [v] -> [phi(v)]."""

    vertices: tuple[Word, ...]
    edges: dict[Word, Word]


def periodic_factor_graph(report: AnalysisReport) -> PeriodicFactorGraph:
    """Graph of infinite periodic factors of the final system of the chain.

    Vertices are canonical class representatives over the final alphabet
    (before back-mapping).  The morphism must permute them: out- and
    indegree are asserted to be exactly one.
    """
    final = report.chain.final_system
    words = report.bounded_periods + report.unbounded_periods
    vertex_set = {canonical_rotation(primitive_root(w)) for w in words}
    vertices = tuple(sorted(vertex_set))
    edges: dict[Word, Word] = {}
    for v in vertices:
        image = canonical_rotation(primitive_root(final.morphism(v)))
        if image not in vertex_set:
            raise EngineInvariantError(
                f"class image {image} is not among the computed classes"
            )
        edges[v] = image
    indegree = Counter(edges.values())
    if any(indegree[v] != 1 for v in vertices):
        raise EngineInvariantError("periodic factor graph is not 1-regular")
    return PeriodicFactorGraph(vertices, edges)
