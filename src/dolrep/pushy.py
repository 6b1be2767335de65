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
"""

from __future__ import annotations

import math
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


def is_pushy(system: D0LSystem) -> bool:
    """True iff some side-graph cycle has an edge with a non-empty label."""
    return bool(bounded_periodic_classes(system))


def _cycle_period_word(phi: Morphism, side: Side, labels: tuple[Word, ...]) -> Word:
    """Primitive period of the bounded-letter tail pumped by a cycle's first phase.

    labels[i] is the label of the cycle's edge i.  Writing u_{i+1} for
    labels[i], the word accumulated per cycle round is
    u = u_k phi(u_{k-1}) ... phi^{k-1}(u_1) on the right, mirrored on the
    left; Horner's rule builds it with k applications of phi.  The orbit u,
    phi(u), ... is finite, as u is over bounded letters, and one walk kept
    in a list gives its tail s and period t.  The block sequence
    phi^{jk}(u) is then eventually periodic; one full period of blocks,
    starting after the tail, is the period word (blocks in descending
    iterate order on the left).  Block j is read off the list at index jk,
    folded into [s, s + t), so no iterate is expanded twice.
    """
    k = len(labels)
    u: Word = ()
    for label in labels:
        u = label + phi(u) if side is Side.RIGHT else phi(u) + label

    orbit: list[Word] = []
    seen: dict[Word, int] = {}
    while u not in seen:
        seen[u] = len(orbit)
        orbit.append(u)
        u = phi(u)
    s = seen[u]
    t = len(orbit) - s
    l0 = -(-s // k)
    blocks = [orbit[s + (j * k - s) % t] for j in range(l0 + 1, l0 + 1 + math.lcm(t, k) // k)]
    if side is Side.LEFT:
        blocks.reverse()
    return primitive_root(tuple(c for b in blocks for c in b))


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

    Cost per cycle: for a labelled one, k applications of phi for u and
    s + t for the orbit; for a label-free left one, one Lando check, which
    keeps the cyclic family a_i -> a_(i+1), a_(L-1) -> a_0 a_0 linear in L
    where a check per letter would be quadratic; for either, one
    application of phi plus one primitive root per further phase.
    """
    phi = system.morphism
    bounded: list[Word] = []
    unbounded: list[Word] = []
    if not phi.classification.unbounded:
        return bounded, unbounded
    for side in (Side.LEFT, Side.RIGHT):
        graph = build_side_graph(system, side)
        for cycle in cycles(graph):
            labels = tuple(graph[a][1] for a in cycle)
            if any(labels):
                out, period = bounded, _cycle_period_word(phi, side, labels)
            elif side is Side.LEFT and (v := lando_periodic_check(phi, len(cycle), cycle[0])):
                out, period = unbounded, primitive_root(v)
            else:
                continue
            out.append(period)
            for _ in range(len(cycle) - 1):
                period = primitive_root(phi(period))
                out.append(period)
    return bounded, sorted(unbounded)
