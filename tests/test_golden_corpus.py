"""Golden test: the `--json` report of every acceptance-corpus system, byte for byte.

`golden_corpus.sha256` holds one line per corpus system, `corpus-<i> <sha256>`,
the digest of what `dolrep analyze - --json` prints for system i.  A change
that alters any report fails here.  When a report is meant to change, print
the new digests with `PYTHONPATH=src python tests/test_golden_corpus.py` and
name every changed system, with the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

from dolrep.cli import run, serialize_system
from corpus_util import random_system

CORPUS_SIZE = 500
GOLDEN = Path(__file__).with_name("golden_corpus.sha256")


def _json_report(text: str) -> str:
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            assert run(["analyze", "-", "--json"]) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue()


def corpus_digests() -> dict[str, str]:
    """sha256 of each corpus system's `--json` report (seeds as in test_acceptance)."""
    digests = {}
    for i in range(CORPUS_SIZE):
        text = serialize_system(random_system(random.Random(1000 + i)))
        digests[f"corpus-{i}"] = hashlib.sha256(_json_report(text).encode()).hexdigest()
    return digests


def test_corpus_json_reports_match_golden_digests():
    expected = dict(line.split() for line in GOLDEN.read_text().splitlines())
    actual = corpus_digests()
    assert len(expected) == CORPUS_SIZE
    changed = sorted((k for k in expected if actual[k] != expected[k]), key=lambda k: int(k[7:]))
    assert not changed, f"{len(changed)} corpus reports changed: {changed[:20]}"


if __name__ == "__main__":
    for name, digest in corpus_digests().items():
        print(name, digest)
