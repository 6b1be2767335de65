"""Planted systems (``planted_util``): hundreds of letters, every step kind, known classes.

The bases are corpus systems, random 5-12-letter systems and the named
families of ``test_metamorphic``.  Each is inflated one to three times, with
up to 12 letters per split.  The check runs in a child process capped at
1 GiB of address space: an inflated family E has hundreds of erasing
letters, so code that deletes one per step and maps whole words back
doubles its period hundreds of times, and then ends in a ``MemoryError``
instead of exhausting the host.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter

from dolrep import analyze
from corpus_util import random_system
from planted_util import planted, planted_classes
from test_cli import _cap_address_space_at_one_gib, _src_env
from test_metamorphic import FAMILIES


def _bases(rng: random.Random) -> list:
    corpus = [random_system(random.Random(1000 + i)) for i in rng.sample(range(500), 50)]
    wide = [random_system(rng, max_letters=12, min_letters=5) for _ in range(50)]
    return corpus + wide + [system for system, _, _ in FAMILIES] * 3


def _check(seed: int) -> dict:
    """Analyse every planted system and compare its classes with the base's;
    returns the largest alphabet and the step kinds seen."""
    rng = random.Random(seed)
    kinds: Counter = Counter()
    largest = 0
    for base in _bases(rng):
        system, k = planted(base, rng, inflations=rng.randint(1, 3), max_split=rng.randint(2, 12))
        report = analyze(system)
        found = {(cls.representative, cls.source.value) for cls in report.classes}
        assert found == planted_classes(base, k), (base, system)
        kinds.update(step.kind for step in report.chain.steps)
        largest = max(largest, len(system.alphabet))
    return {"largest": largest, "kinds": sorted(kinds)}


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
    assert elapsed < 15, elapsed


if __name__ == "__main__":
    print(json.dumps(_check(29)))
