"""Planted systems (``planted_util``): hundreds of letters, every step kind, known classes.

The bases are corpus systems, random 5-12-letter systems and the named
families of ``test_metamorphic``.  Each is inflated one to three times, with
up to 12 letters per split, and family E' at m = 40 is planted three times,
each by one inflation with at most 3 letters per split.  Every planted
system of at least 200 letters also goes through three metamorphic
relations of ``test_metamorphic``: renaming and reordering, advancing the
axiom, and reversal.  The check runs in a child process capped at 1 GiB
of address space: an inflated family E has hundreds of erasing letters, so
code that deletes one per step and maps whole words back doubles its period
hundreds of times, and then ends in a ``MemoryError`` instead of exhausting
the host.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter

from dolrep import analyze, is_pushy
from corpus_util import random_system
from planted_util import planted, planted_classes
from test_cli import _cap_address_space_at_one_gib, _src_env
from test_metamorphic import (
    FAMILIES,
    _advanced,
    _classes,
    _family_e_prime,
    _mapped,
    _mirrored,
    _renamed,
)


def _bases(rng: random.Random) -> list:
    corpus = [random_system(random.Random(1000 + i)) for i in rng.sample(range(500), 50)]
    wide = [random_system(rng, max_letters=12, min_letters=5) for _ in range(50)]
    return corpus + wide + [system for system, _, _ in FAMILIES] * 3


def _planted(rng: random.Random):
    """Each base with a system planted on it and the k of that planting."""
    for base in _bases(rng):
        yield base, *planted(base, rng, inflations=rng.randint(1, 3), max_split=rng.randint(2, 12))
    # About 40 erasing steps, one per level of mortality, each carrying the
    # class z's period back through a k that doubles it: taking the root only
    # at the end of map_back builds a word of about 2^40 blocks.
    base = _family_e_prime(40)
    for _ in range(3):
        yield base, *planted(base, rng, inflations=1, max_split=3)


def _check(seed: int) -> dict:
    """Analyse every planted system, compare its classes with the base's
    and ``is_pushy`` of its final system with the report, and run the
    metamorphic relations on each one with at least 200 letters; returns
    the largest alphabet, the step kinds seen and the number of relations
    checked on systems with a class."""
    rng = random.Random(seed)
    kinds: Counter = Counter()
    largest = 0
    relations = 0
    relation_rng = random.Random(seed + 1)  # leaves the planted systems as rng draws them
    for base, system, k in _planted(rng):
        report = analyze(system)
        found = {(cls.representative, cls.source.value) for cls in report.classes}
        assert found == planted_classes(base, k), (base, system)
        assert is_pushy(report.chain.final_system) == report.pushy, system
        kinds.update(step.kind for step in report.chain.steps)
        largest = max(largest, len(system.alphabet))
        if len(system.alphabet) < 200:
            continue
        classes = _classes(system, report)
        related = (_renamed(system, relation_rng), _advanced(system), _mirrored(system))
        for other, word_map in filter(None, related):
            assert _classes(other) == _mapped(classes, word_map), system
            relations += bool(classes)
    return {"largest": largest, "kinds": sorted(kinds), "relations": relations}


def test_planted_systems_have_the_planted_classes():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env=_src_env(),
        preexec_fn=_cap_address_space_at_one_gib,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["largest"] >= 500, summary
    assert summary["kinds"] == ["code-reduction", "duplicate-merge", "erasing-elimination"], summary
    assert summary["relations"] >= 30, summary
    assert elapsed < 15, elapsed


if __name__ == "__main__":
    print(json.dumps(_check(29)))
