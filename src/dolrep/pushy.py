"""Pushiness and infinite periodic factors over bounded letters.

For a non-erasing system the image of every unbounded letter contains an
unbounded letter; recording the last (resp. first) one together with the
bounded suffix (resp. prefix) it sheds yields two functional graphs on the
unbounded letters, one per side.  Their cycles are the only source of
arbitrarily long factors over bounded letters: a cycle whose labels contain
an immortal letter pumps a periodic bounded-letter tail, and the period word
is computed from the finite orbit of the accumulated label word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .morphism import D0LSystem, LetterClassification, functional_cycles
from .words import Word, primitive_root


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class SideGraph:
    """Functional graph on unbounded letters; edges carry bounded-letter labels."""

    side: Side
    vertices: tuple[int, ...]
    edges: dict[int, tuple[int, Word]]

    def target(self, a: int) -> int:
        return self.edges[a][0]

    def label(self, a: int) -> Word:
        return self.edges[a][1]


@dataclass(frozen=True)
class SideCycle:
    """A cycle of a side graph; edge i runs vertices[i] -> vertices[(i+1) % k]."""

    side: Side
    vertices: tuple[int, ...]
    labels: tuple[Word, ...]


class BoundedPeriodicFactor(NamedTuple):
    side: Side
    cycle: SideCycle
    period: Word


def build_side_graph(system: D0LSystem, side: Side) -> SideGraph:
    """Graph of unbounded letters to the given side.

    Right side: phi(a) = v b u with b the last unbounded letter and u the
    bounded suffix after it; edge a -> b labeled u.  Left side mirrored.
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
            raise AssertionError("unbounded letter with bounded-only image")
        if side is Side.RIGHT:
            j = positions[-1]
            edges[a] = (img[j], img[j + 1 :])
        else:
            j = positions[0]
            edges[a] = (img[j], img[:j])
    return SideGraph(side, tuple(sorted(cls.unbounded)), edges)


def cycles(graph: SideGraph) -> list[SideCycle]:
    """All cycles of the functional graph, entry vertex = lowest id on the cycle."""
    return [
        SideCycle(graph.side, vertices, tuple(graph.label(v) for v in vertices))
        for vertices in functional_cycles(graph.vertices, graph.target)
    ]


def _has_immortal_label(cycle: SideCycle, cls: LetterClassification) -> bool:
    return any(b not in cls.mortal for label in cycle.labels for b in label)


def is_pushy(system: D0LSystem) -> bool:
    """True iff some side-graph cycle has an edge with an immortal label."""
    return bool(bounded_periodic_classes(system))


def _orbit_tail_period(system: D0LSystem, w: Word) -> tuple[int, int]:
    """Least s >= 0 and t >= 1 with phi^s(w) = phi^(s+t)(w).

    Terminates because w is over bounded letters, whose word orbit is finite.
    """
    phi = system.morphism
    seen: dict[Word, int] = {}
    cur = w
    j = 0
    while cur not in seen:
        seen[cur] = j
        cur = phi(cur)
        j += 1
    s = seen[cur]
    return s, j - s


def _cycle_period_word(system: D0LSystem, cycle: SideCycle) -> Word:
    """Primitive period of the bounded-letter tail pumped by one cycle.

    Writing u_{i+1} for labels[i], the word accumulated per cycle round is
    u = u_k phi(u_{k-1}) ... phi^{k-1}(u_1) on the right, mirrored on the
    left.  The block sequence phi^{jk}(u) is eventually periodic; one full
    period of blocks, starting after the tail, is the period word (blocks in
    descending iterate order on the left).
    """
    phi = system.morphism
    k = len(cycle.vertices)
    labels = cycle.labels
    parts: list[Word] = []
    if cycle.side is Side.RIGHT:
        for j in range(k):
            parts.append(phi.iterate(labels[k - 1 - j], j))
    else:
        for j in range(k):
            parts.append(phi.iterate(labels[j], k - 1 - j))
    u = tuple(c for part in parts for c in part)

    s, t = _orbit_tail_period(system, u)
    l0 = -(-s // k)
    l1 = l0 + math.lcm(t, k) // k
    blocks: list[Word] = []
    w = phi.iterate(u, (l0 + 1) * k)
    for _ in range(l0 + 1, l1 + 1):
        blocks.append(w)
        w = phi.iterate(w, k)
    if cycle.side is Side.LEFT:
        blocks.reverse()
    period = tuple(c for b in blocks for c in b)
    return primitive_root(period)


def _rotations(cycle: SideCycle) -> list[SideCycle]:
    k = len(cycle.vertices)
    return [
        SideCycle(
            cycle.side,
            cycle.vertices[r:] + cycle.vertices[:r],
            cycle.labels[r:] + cycle.labels[:r],
        )
        for r in range(k)
    ]


def bounded_periodic_classes(system: D0LSystem) -> list[BoundedPeriodicFactor]:
    """Primitive periods of all infinite periodic factors over bounded letters.

    Cycles whose labels are all mortal (for non-erasing systems: empty) pump
    nothing.  A qualifying cycle is processed once per starting vertex: each
    vertex accumulates its own tail, and for cycles longer than one the
    resulting periods are morphism images of one another, not conjugates, so
    every phase contributes a class of its own.
    """
    cls = system.morphism.classification
    if not cls.unbounded:
        return []
    out: list[BoundedPeriodicFactor] = []
    for side in (Side.LEFT, Side.RIGHT):
        graph = build_side_graph(system, side)
        for cycle in cycles(graph):
            if _has_immortal_label(cycle, cls):
                for phase in _rotations(cycle):
                    out.append(
                        BoundedPeriodicFactor(side, phase, _cycle_period_word(system, phase))
                    )
    return out
