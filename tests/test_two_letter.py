"""Exhaustive test: every system over {a, b} with images of length <= 3.

There are 15 such images per letter, so 225 morphisms, each run from the
axioms a and ab: 450 systems.  On each, the engine's classes must agree with
the escalating brute-force oracle (`corpus_util.oracle_agreement`), and they
must match the digest stored for that system in `golden_two_letter.sha256`,
one line `two-letter-<i> <sha256>` per system, the sha256 of
`repr(sorted((representative, source) ...))` over the engine's classes.  A
digest cannot go stale the way the oracle can.  When a class is meant to
change, print the new digests with `PYTHONPATH=src python
tests/test_two_letter.py` and name every changed system, with the reason,
in CHANGES.md.
"""

import hashlib
from itertools import product
from pathlib import Path

from dolrep import Alphabet, D0LSystem, Morphism, analyze
from corpus_util import oracle_agreement

GOLDEN = Path(__file__).with_name("golden_two_letter.sha256")
IMAGES = [word for length in range(4) for word in product(range(2), repeat=length)]


def two_letter_systems() -> list[D0LSystem]:
    """The 450 systems: axiom a, then ab; images of a, then of b, shortest first."""
    alphabet = Alphabet(("a", "b"))
    return [
        D0LSystem(Morphism(alphabet, alphabet, images), axiom)
        for axiom in ((0,), (0, 1))
        for images in product(IMAGES, repeat=2)
    ]


def _digest(report) -> str:
    classes = sorted((cls.representative, cls.source.value) for cls in report.classes)
    return hashlib.sha256(repr(classes).encode()).hexdigest()


def test_two_letter_space_agrees_with_the_oracle_and_the_golden_digests():
    expected = dict(line.split() for line in GOLDEN.read_text().splitlines())
    systems = two_letter_systems()
    assert len(systems) == len(expected) == 450
    repetitive = 0
    changed = []
    for i, system in enumerate(systems):
        report = analyze(system)
        agrees, observed, params = oracle_agreement(system, {cls.representative for cls in report.classes})
        assert agrees, (system, observed, params)
        if _digest(report) != expected[f"two-letter-{i}"]:
            changed.append(i)
        repetitive += report.repetitive
    assert not changed, f"{len(changed)} two-letter systems changed: {changed[:20]}"
    assert repetitive == 181, repetitive


if __name__ == "__main__":
    for i, system in enumerate(two_letter_systems()):
        print(f"two-letter-{i}", _digest(analyze(system)))
