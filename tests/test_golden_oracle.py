"""Golden test: the brute-force oracle's observed classes on every acceptance-corpus system.

`golden_oracle.sha256` holds two lines per corpus system i:

* `corpus-<i>-rung1 <sha256>`, at the suite's first escalation rung
  (`corpus_oracle_params` with the engine's representatives);
* `corpus-<i>-default <sha256>`, at the library defaults `OracleParams()`.

Each digest is the sha256 of `repr(sorted(observed_classes(...)))`, or of
the marker `OracleResourceError` when the oracle ran out of its length
budget.  This pins the oracle's output as it stands, including its known
false disagreements and budget exits at the default settings, so a rewrite
of the oracle that changes any answer fails here.  When an answer is meant to
change, print the new digests with
`PYTHONPATH=src python tests/test_golden_oracle.py` and name every changed
line, with the reason, in CHANGES.md.
"""

import hashlib
import random
from pathlib import Path

from dolrep import OracleParams, OracleResourceError, analyze, observed_classes
from corpus_util import corpus_oracle_params, random_system

CORPUS_SIZE = 500
GOLDEN = Path(__file__).with_name("golden_oracle.sha256")
BUDGET_MARKER = "OracleResourceError"


def _digest(system, params: OracleParams) -> str:
    try:
        text = repr(sorted(observed_classes(system, params)))
    except OracleResourceError:
        text = BUDGET_MARKER
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_digests() -> dict[str, str]:
    """Two digests per corpus system (seeds as in test_acceptance)."""
    digests = {}
    for i in range(CORPUS_SIZE):
        system = random_system(random.Random(1000 + i))
        reps = {c.representative for c in analyze(system).classes}
        digests[f"corpus-{i}-rung1"] = _digest(system, corpus_oracle_params(system, reps))
        digests[f"corpus-{i}-default"] = _digest(system, OracleParams())
    return digests


def test_oracle_classes_match_golden_digests():
    expected = dict(line.split() for line in GOLDEN.read_text().splitlines())
    actual = oracle_digests()
    assert len(expected) == 2 * CORPUS_SIZE
    changed = [k for k in expected if actual[k] != expected[k]]
    assert not changed, f"{len(changed)} oracle answers changed: {changed[:20]}"


if __name__ == "__main__":
    for name, digest in oracle_digests().items():
        print(name, digest)
