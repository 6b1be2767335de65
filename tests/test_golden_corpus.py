"""Golden test: the reports of every acceptance-corpus system, byte for byte.

`golden_corpus.sha256` holds one line per corpus system, `corpus-<i> <sha256>`,
the digest of what `dolrep analyze - --json` prints for system i, and
`golden_corpus_text.sha256` the same for the text report of
`dolrep analyze -`.  A change that alters any report fails here.  When a
report is meant to change, print the new digests with
`PYTHONPATH=src python tests/test_golden_corpus.py` (add `--text` for the
text reports) and name every changed system, with the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

# No pytest import: CI runs this file as a script where pytest is not installed.
from dolrep.cli import run, serialize_system
from corpus_util import random_system

CORPUS_SIZE = 500


def _report(text: str, flags: list[str]) -> str:
    out = io.StringIO()
    # `analyze -` reads the bytes behind stdin, as from a real one
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out):
            assert run(["analyze", "-", *flags]) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue()


def corpus_digests(flags: list[str]) -> dict[str, str]:
    """sha256 of each corpus system's report (seeds as in test_acceptance)."""
    digests = {}
    for i in range(CORPUS_SIZE):
        text = serialize_system(random_system(random.Random(1000 + i)))
        digests[f"corpus-{i}"] = hashlib.sha256(_report(text, flags).encode()).hexdigest()
    return digests


def _check(golden: str, flags: list[str]) -> None:
    expected = dict(line.split() for line in Path(__file__).with_name(golden).read_text().splitlines())
    actual = corpus_digests(flags)
    assert len(expected) == CORPUS_SIZE
    changed = sorted((k for k in expected if actual[k] != expected[k]), key=lambda k: int(k[7:]))
    assert not changed, f"{len(changed)} corpus reports changed: {changed[:20]}"


def test_corpus_json_reports_match_golden_digests():
    _check("golden_corpus.sha256", ["--json"])


def test_corpus_text_reports_match_golden_digests():
    _check("golden_corpus_text.sha256", [])


if __name__ == "__main__":
    flags = [] if sys.argv[1:] == ["--text"] else ["--json"]
    for name, digest in corpus_digests(flags).items():
        print(name, digest)
