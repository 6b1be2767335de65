"""Exhaustive tests: every system over a small alphabet with short images.

Two spaces are checked, each by the same test:

- two-letter: images over {a, b} of length <= 3, 15 per letter, so 225
  morphisms, each run from the axioms a and ab: 450 systems;
- three-letter: images over {a, b, c} of length <= 2, 13 per letter, so
  2 197 morphisms, each run from the axioms a and abc: 4 394 systems.

On each system, the engine's classes must agree with the escalating
brute-force oracle (`corpus_util.oracle_agreement`), and they must match the
digest stored for that system in the space's golden file, one line
`<space>-<i> <sha256>` per system, the sha256 of
`repr(sorted((representative, source) ...))` over the engine's classes.  A
digest cannot go stale the way the oracle can.  When a class is meant to
change, print a space's new digests with `PYTHONPATH=src:tests python
tests/test_two_letter.py <space>` and name every changed system, with the
reason, in CHANGES.md.
"""

import hashlib
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import pytest

from dolrep import Alphabet, D0LSystem, Morphism, analyze
from corpus_util import oracle_agreement


@dataclass(frozen=True)
class Space:
    name: str
    letters: int
    max_image: int
    systems: int  # expected size, axioms times morphisms
    repetitive: int  # expected number of repetitive systems

    @property
    def golden(self) -> Path:
        return Path(__file__).with_name(f"golden_{self.name.replace('-', '_')}.sha256")


SPACES = {
    space.name: space
    for space in (
        Space("two-letter", letters=2, max_image=3, systems=450, repetitive=181),
        Space("three-letter", letters=3, max_image=2, systems=4394, repetitive=1700),
    )
}


def space_systems(space: Space) -> list[D0LSystem]:
    """Axiom a, then the whole alphabet in order; images of a, b, ... shortest first."""
    n = space.letters
    alphabet = Alphabet(tuple("abcdefghij"[:n]))
    images = [word for length in range(space.max_image + 1) for word in product(range(n), repeat=length)]
    return [
        D0LSystem(Morphism(alphabet, alphabet, table), axiom)
        for axiom in ((0,), tuple(range(n)))
        for table in product(images, repeat=n)
    ]


def _digest(report) -> str:
    classes = sorted((cls.representative, cls.source.value) for cls in report.classes)
    return hashlib.sha256(repr(classes).encode()).hexdigest()


@pytest.mark.parametrize("space", SPACES.values(), ids=SPACES)
def test_space_agrees_with_the_oracle_and_the_golden_digests(space):
    expected = dict(line.split() for line in space.golden.read_text().splitlines())
    systems = space_systems(space)
    assert len(systems) == len(expected) == space.systems
    repetitive = 0
    changed = []
    for i, system in enumerate(systems):
        report = analyze(system)
        agrees, observed, params = oracle_agreement(system, {cls.representative for cls in report.classes})
        assert agrees, (system, observed, params)
        if _digest(report) != expected[f"{space.name}-{i}"]:
            changed.append(i)
        repetitive += report.repetitive
    assert not changed, f"{len(changed)} {space.name} systems changed: {changed[:20]}"
    assert repetitive == space.repetitive, repetitive


if __name__ == "__main__":
    space = SPACES[sys.argv[1] if len(sys.argv) > 1 else "two-letter"]
    for i, system in enumerate(space_systems(space)):
        print(f"{space.name}-{i}", _digest(analyze(system)))
