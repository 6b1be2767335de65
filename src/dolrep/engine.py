"""End-to-end analysis: simplify, harvest periodic factors, map back, report.

The pipeline reduces the input, simplifies it to an injective system,
collects the period words of both the bounded-letter and unbounded-letter
infinite periodic factors of the final system in one side-graph stage
(``pushy.periodic_words``), maps each back through the chain to its
primitive root (``SimplificationChain.map_back``), and canonicalizes it
into a conjugacy class over the original alphabet.  A system whose reduced
alphabet has no unbounded letter has a finite language and is reported as
neither pushy nor repetitive.

A class takes its source from the list its period came from.  Each step
has f^n o k = k o g^n; with F, G the chain's first and last morphisms and
K its k's composed, F^n o K = K o G^n.  So a bounded letter b of G has
|F^n(K(b))| = |K(G^n(b))| bounded in n: K(b) holds bounded letters only.
An accepted unbounded period v has G^l(v) = v^m with m >= 2, and G is
non-erasing, so K(v) is not empty and F^l(K(v)) = K(v)^m: K(v) holds a
letter that F does not bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .morphism import D0LSystem, EngineInvariantError, LetterClassification
from .pushy import periodic_words
from .simplify import SimplificationChain, injective_simplification
from .words import Word, canonical_rotation, conjugates, primitive_root


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
    # Reduction keeps symbols, so a reduced letter's id in the input is its symbol's.
    letter_ids = [system.alphabet.letter(s) for s in reduced.alphabet.symbols]
    classes: dict[Word, PeriodicFactorClass] = {}
    for source, periods in zip(FactorSource, (bounded_periods, unbounded_periods)):
        for word in periods:
            representative = canonical_rotation([letter_ids[a] for a in chain.map_back(word)])
            classes.setdefault(representative, PeriodicFactorClass(representative, source))

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
