"""Inputs of the benchmark's workloads, written as system files.

Every system is first built as ``(images, axiom)`` over letter ids
``0..n-1``.  The run seed then names its letters with seeded two-letter
symbols; the letters are declared in id order and the systems of a pass keep
a fixed order.  So the seed changes the text the program parses but not the
work the engine does on it.  A permutation of the letters would: it changes
the code-reduction path, and |A| = 64, seed 11 peaks at 88 MB under one
permutation and at 155 MB under another.  The wide workload's renaming check
uses such a permutation, outside the timed passes.

Families:

* corpus: the 500 systems of the acceptance suite, ``random.Random(1000 + i)``
  with at most 4 letters and images of length 0-3 (as ``random_system`` in
  ``tests/corpus_util.py``);
* cyclic: ``a_i -> a_{i+1}``, ``a_{L-1} -> a_0 a_0`` with axiom ``a_0``;
* wide: ``random.Random(seed)``, images of length 1-3 drawn before the full
  axiom ``range(n)``;
* verify: a fixed tenth of the corpus, run through the oracle as well.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

Raw = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]  # (images, axiom)

CORPUS_SIZE = 500
CORPUS_SYMBOLS = "abcd"
CYCLIC_SIZES = (50, 100, 150)
# |A| = 64, seed 12 builds a 43.3M-letter word in the Lando check (about 13 s
# and 900 MB on its own); seed 11 keeps the same effect at 3.0M letters.
WIDE_SEEDS = {32: tuple(range(20)), 64: tuple(s for s in range(20) if s != 12)}
# Every tenth corpus system from index 3 on: 50 systems, none more than a
# fifth of the pass, and system 223 climbs to the second oracle level.
VERIFY_INDICES = tuple(range(3, CORPUS_SIZE, 10))

# Escalation ladder and parameters of the acceptance suite's oracle check
# (tests/corpus_util.py): (depth cap, letters per iterate).
ESCALATION = ((16, 300_000), (20, 2_500_000), (24, 20_000_000))

_NAMES = tuple(a + b for a in string.ascii_lowercase for b in string.ascii_lowercase)


def corpus_raw(i: int) -> Raw:
    rng = random.Random(1000 + i)
    n = rng.randint(1, 4)
    images = tuple(
        tuple(rng.randrange(n) for _ in range(rng.randint(0, 3))) for _ in range(n)
    )
    axiom = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
    return images, axiom


def cyclic_raw(size: int) -> Raw:
    images = tuple((i + 1,) for i in range(size - 1)) + ((0, 0),)
    return images, (0,)


def wide_raw(n: int, seed: int) -> Raw:
    rng = random.Random(seed)
    images = tuple(
        tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))) for _ in range(n)
    )
    return images, tuple(range(n))


def system_text(symbols: tuple[str, ...], order, raw: Raw) -> str:
    """System file declaring the letters in `order` (ids into `symbols`)."""
    images, axiom = raw
    lines = [
        "alphabet: " + " ".join(symbols[a] for a in order),
        "axiom: " + " ".join(symbols[a] for a in axiom),
    ]
    for a in order:
        lines.append(" ".join([symbols[a], "->"] + [symbols[b] for b in images[a]]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Case:
    """One system of a workload, relabelled for the run."""

    name: str  # family and source, e.g. "wide-64-11"
    group: str  # size group the reference figures are given for
    raw: Raw
    symbols: tuple[str, ...]  # symbol of each source letter id
    order: tuple[int, ...]  # source ids in declaration order
    text: str  # the system file handed to the program

    def rank(self, a: int) -> int:
        """Letter id the parser gives to source letter `a`."""
        return self.order.index(a)

    def with_axiom(self, axiom: tuple[int, ...]) -> "Case":
        raw = (self.raw[0], axiom)
        return Case(self.name, self.group, raw, self.symbols, self.order,
                    system_text(self.symbols, self.order, raw))


def relabel(name: str, group: str, raw: Raw, rng: random.Random, permute: bool = False) -> Case:
    """Seeded symbols; with `permute`, a seeded declaration order as well."""
    n = len(raw[0])
    order = list(range(n))
    if permute:
        rng.shuffle(order)
    symbols = tuple(rng.sample(_NAMES, n))
    return Case(name, group, raw, symbols, tuple(order), system_text(symbols, order, raw))


def cases(workload: str, seed: int) -> list[Case]:
    """The relabelled systems of one pass."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "corpus":
        sources = [(f"corpus-{i}", "all", corpus_raw(i)) for i in range(CORPUS_SIZE)]
    elif workload == "verify":
        sources = [(f"corpus-{i}", "all", corpus_raw(i)) for i in VERIFY_INDICES]
    elif workload == "cyclic":
        sources = [(f"cyclic-{L}", f"L{L}", cyclic_raw(L)) for L in CYCLIC_SIZES]
    elif workload == "wide":
        sources = [
            (f"wide-{n}-{s}", f"A{n}", wide_raw(n, s))
            for n, seeds in WIDE_SEEDS.items()
            for s in seeds
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [relabel(name, group, raw, rng) for name, group, raw in sources]


def iterate_lengths(raw: Raw, depth: int) -> list[int]:
    """|phi^n(w)| for n = 0..depth, from letter-count vectors."""
    images, axiom = raw
    counts = [0] * len(images)
    for a in axiom:
        counts[a] += 1
    lengths = [sum(counts)]
    for _ in range(depth):
        nxt = [0] * len(counts)
        for a, c in enumerate(counts):
            if c:
                for b in images[a]:
                    nxt[b] += c
        counts = nxt
        lengths.append(sum(counts))
    return lengths


def oracle_depth(raw: Raw, depth_cap: int, budget: int) -> int:
    """Deepest iterate index whose iterates all fit the letter budget."""
    lengths = iterate_lengths(raw, depth_cap)
    return max(
        n for n in range(1, depth_cap + 1) if all(l <= budget for l in lengths[: n + 1])
    )
