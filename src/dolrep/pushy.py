"""The side-graph stage: every period word of the final system, from one walk per side.

For a non-erasing system the image of every unbounded letter contains an
unbounded letter; recording the last (resp. first) one together with the
bounded suffix (resp. prefix) it sheds yields two functional graphs on the
unbounded letters, one per side.  Their cycles are the only source of
arbitrarily long factors over bounded letters: a cycle with a non-empty
label pumps a periodic bounded-letter tail at each of its phases (starting
vertices).  The left side's label-free cycles are the cycles of the
first-letter graph a -> first(phi(a)) through unbounded letters, the
candidates of Lando's check in :mod:`dolrep.unbounded`.  So
``periodic_words`` walks each side graph's cycles once and harvests both
sources of classes; its docstring gives the proofs and the costs.
``is_pushy`` shares that walk and reads only its labels.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from enum import Enum

from .morphism import D0LSystem, EngineInvariantError, Morphism, functional_cycles
from .unbounded import lando_periodic_check
from .words import Word, primitive_root


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


def build_side_graph(system: D0LSystem, side: Side) -> dict[int, tuple[int, Word]]:
    """Graph of unbounded letters to the given side, as edges a -> (b, label).

    Right side: phi(a) = v b u with b the last unbounded letter and u the
    bounded suffix after it; edge a -> b labeled u.  Left side mirrored.
    The keys are the unbounded letters in increasing order.
    """
    phi = system.morphism
    if phi.is_erasing():
        raise ValueError("side graphs require a non-erasing morphism (simplify first)")
    cls = phi.classification
    edges: dict[int, tuple[int, Word]] = {}
    for a in sorted(cls.unbounded):
        img = phi.image(a)
        positions = [i for i, b in enumerate(img) if b in cls.unbounded]
        if not positions:
            raise EngineInvariantError("unbounded letter with bounded-only image")
        if side is Side.RIGHT:
            j = positions[-1]
            edges[a] = (img[j], img[j + 1 :])
        else:
            j = positions[0]
            edges[a] = (img[j], img[:j])
    return edges


def cycles(graph: dict[int, tuple[int, Word]]) -> list[tuple[int, ...]]:
    """Cycles of a side graph, each from its least vertex along the edges,
    ordered by that vertex."""
    return functional_cycles(graph, lambda a: graph[a][0])


def _side_cycles(system: D0LSystem) -> Iterator[tuple[Side, tuple[int, ...], tuple[Word, ...]]]:
    """(side, cycle, labels) for each cycle of the left, then the right side
    graph, in the order of ``cycles``; labels[i] labels the edge leaving
    cycle[i].  Each side graph is built once and its cycles walked once.

    A letter that the axiom never reaches can lie on a labelled cycle that
    pumps nothing in the language, so the system must be reduced.
    """
    if not system.is_reduced():
        raise ValueError("the side-graph stage expects a reduced system")
    if system.morphism.classification.unbounded:
        for side in (Side.LEFT, Side.RIGHT):
            graph = build_side_graph(system, side)
            for cycle in cycles(graph):
                yield side, cycle, tuple(graph[a][1] for a in cycle)


def is_pushy(system: D0LSystem) -> bool:
    """True iff some side-graph cycle has an edge with a non-empty label.

    On a reduced non-erasing system such a cycle pumps a bounded-letter class
    (see ``periodic_words``), so the labels decide: no period word is built
    and no Lando check runs.  Cost: the two side graphs and their cycles.
    """
    return any(any(labels) for _, _, labels in _side_cycles(system))


def _cycle_period_word(phi: Morphism, side: Side, labels: tuple[Word, ...], where: dict[int, tuple[Word, int]]) -> Word:
    """Primitive period of the bounded-letter tail pumped by a cycle's first phase.

    labels[i] is the label of the cycle's edge i.  Writing u_{i+1} for
    labels[i], the word accumulated per cycle round is
    u = u_k phi(u_{k-1}) ... phi^{k-1}(u_1) on the right, mirrored on the
    left; Horner's rule builds it with k applications of phi.  The block
    sequence phi^{jk}(u) is eventually periodic, and one full period of
    blocks, starting at block ceil(s/k) + 1 after the orbit's tail s, is the
    period word (blocks in descending iterate order on the left).

    The tail and period come from the letter cycles, not from a stored
    orbit.  where maps each bounded letter on a cycle of the graph
    a -> first(phi(a)) to (its cycle, its index there).  In a non-erasing
    system a bounded letter in a cyclic component of the letter graph has a
    one-letter image (two letters in the images of a cyclic component make
    it unbounded), so those cycles are the cyclic components of the bounded
    letters, and phi moves each letter on them one step along its cycle.
    Every other bounded letter a is alone in an acyclic component, and phi(a)
    holds only letters of components below it.  So each application moves
    every letter off the cycles one level down this acyclic part: s, the
    least n with every letter of phi^n(u) on a cycle, is at most the number
    of acyclic bounded letters, below |A|.  From there phi^(s+m)(u) is
    phi^s(u) with every letter moved m steps, so the period t is the lcm of
    those letters' cycle lengths, and block j is phi^s(u) moved jk - s
    steps.  Position p of the blocks walks its letter's cycle by k steps per
    block; one round of the cycle, repeated, gives that column.  A tail that
    reaches |A| applications means a broken invariant (a wrong letter
    classification, or a ``where`` that misses a cycle) and raises
    EngineInvariantError.

    Cost: k applications of phi for u and s < |A| more, with no orbit or
    set of words kept; one round of its letter's cycle per position of
    phi^s(u) for the columns; and the period word itself, interleaved from
    the columns.
    """
    k = len(labels)
    u: Word = ()
    for label in labels:
        u = label + phi(u) if side is Side.RIGHT else phi(u) + label
    s = 0
    while not where.keys() >= set(u):
        if s == len(phi.images):
            raise EngineInvariantError("a bounded-letter tail outlasted the alphabet")
        u, s = phi(u), s + 1
    t = math.lcm(*(len(where[a][0]) for a in u))
    # block ceil(s/k) + 1 + j is phi^s(u) with each letter moved -s % k + (j + 1)k steps
    columns = [[c[(i + -s % k + (j + 1) * k) % len(c)] for j in range(len(c))] for c, i in map(where.__getitem__, u)]
    blocks = list(zip(*(itertools.islice(itertools.cycle(col), math.lcm(t, k) // k) for col in columns)))
    if side is Side.LEFT:
        blocks.reverse()
    return primitive_root(tuple(itertools.chain.from_iterable(blocks)))


def bounded_periodic_classes(system: D0LSystem) -> list[Word]:
    """Primitive periods of all infinite periodic factors over bounded letters."""
    return periodic_words(system)[0]


def periodic_words(system: D0LSystem) -> tuple[list[Word], list[Word]]:
    """Period words of the bounded-letter and the unbounded-letter classes.

    Each side graph is built once and its cycles are walked once.  A cycle
    with a non-empty label pumps a bounded-letter tail, whose period
    ``_cycle_period_word`` computes (a non-erasing system has no mortal
    letter, so any non-empty label pumps).  A label-free left cycle is a
    first-letter cycle, and Lando's check runs on its least letter; a
    label-free right cycle pumps nothing.  A cycle of length k contributes
    one period per phase r < k, and only phase 0's is computed: phase r's
    is the primitive root of phi(P_{r-1}) for either kind, as shown below.
    For k > 1 these are images, not conjugates, so each phase is a class of
    its own.  The bounded list holds the left side's cycles, then the right
    side's, each in the order of ``cycles``; the unbounded list is sorted.

    *Bounded phases.*  On the right, with phi(a_i) = x_i a_{i+1} u_{i+1}
    along the cycle and T_i(n) the bounded tail after the cycle letter in
    phi^n(a_i), expanding phi^{n+1}(a_i) from the inside and from the
    outside gives

        T_i(n+1) = u_{i+n+1} phi(T_i(n)) = T_{i+1}(n) phi^n(u_{i+1}).

    Both u_{i+n+1} and phi^n(u_{i+1}) are over bounded letters, so their
    lengths are bounded in n: T_{i+1}(n) is phi(T_i(n)) up to a border of
    bounded length at each end.  T_i(n) has the factor P_i^m for every m
    once n is large, so T_{i+1}(n) has arbitrarily long factors with period
    |phi(P_i)|, and also with period |P_{i+1}|.  A factor longer than the
    sum of the two periods has their gcd as a period (Fine & Wilf, Proc.
    AMS 1965), and the primitive period of an eventually periodic word is
    unique up to rotation, so the primitive root of phi(P_i) is a
    conjugate of P_{i+1}.  The left side is the mirror image.  Phases
    r >= 1 may thus carry a rotation of the word their own computation
    would give; the conjugacy classes are the same.

    *Unbounded phases.*  The system is expected to be the reduced injective
    simplification, which makes every accepted v^m an actual factor of the
    language; injectivity is not re-verified here.  Let a be on a
    first-letter cycle of length l, b = first(phi(a)) and psi = phi^l.
    psi commutes with phi, and psi^n(b) is a prefix of phi(psi^n(a)), so
    psi^omega(b) = phi(psi^omega(a)); going round the cycle gives the
    converse.  On injective systems Lando's check accepts a letter exactly
    when its psi^omega is purely periodic, so either every letter of a
    cycle is accepted or none is, and when psi^omega(a) = w^omega with w
    primitive, psi^omega(b) = phi(w)^omega, whose primitive period is
    primitive_root(phi(w)) by Fine-Wilf uniqueness.  Letter a's word starts
    with a, as v is a prefix of psi^s(a), and primitive_root(phi(w)) starts
    with b; so the words have pairwise distinct first letters, and sorting
    them gives letter order, as a check of every candidate letter would.
    On a non-injective system, where the check can reject a letter whose
    psi^omega is periodic, that may differ.

    The system must be reduced (``_side_cycles``).  Cost per cycle: for a
    labelled one, k applications of phi for u, fewer than |A| more for its
    tail, and the period word itself (``_cycle_period_word``); the first
    labelled cycle also finds the bounded letters' cycles, once per call, in
    O(|A|).  For a label-free left one, one Lando check, which keeps the
    cyclic family a_i -> a_(i+1), a_(L-1) -> a_0 a_0 linear in L where a
    check per letter would be quadratic; for either, one application of phi
    plus one primitive root per further phase.
    """
    phi = system.morphism
    bounded: list[Word] = []
    unbounded: list[Word] = []
    where: dict[int, tuple[Word, int]] = {}
    for side, cycle, labels in _side_cycles(system):
        if any(labels):
            if not where:
                loops = functional_cycles(sorted(phi.classification.bounded), phi.first_letter)
                where = {a: (c, i) for c in loops for i, a in enumerate(c)}
            out, period = bounded, _cycle_period_word(phi, side, labels, where)
        elif side is Side.LEFT and (v := lando_periodic_check(phi, len(cycle), cycle[0])):
            out, period = unbounded, primitive_root(v)
        else:
            continue
        out.append(period)
        for _ in range(len(cycle) - 1):
            period = primitive_root(phi(period))
            out.append(period)
    return bounded, sorted(unbounded)
