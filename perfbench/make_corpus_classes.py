"""Compute the oracle's classes of the 500 corpus systems, without the engine.

    PYTHONPATH=src python3 perfbench/make_corpus_classes.py

writes ``perfbench/corpus_classes.json``, the reference the ``corpus``
workload checks ``analyze`` against.  Only ``dolrep.oracle.observed_classes``
and the system constructors are used.  Each system is observed on the
acceptance suite's escalation ladder with a fixed factor-length bound.  An
observation is kept once the next level deeper repeats it; when no two
consecutive levels agree, the deepest level's observation is kept.
"""

from __future__ import annotations

import json
import os
import sys
import time

from dolrep.morphism import Alphabet, D0LSystem, Morphism
from dolrep.oracle import OracleParams, observed_classes

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import (  # noqa: E402
    CORPUS_SIZE,
    CORPUS_SYMBOLS,
    ESCALATION,
    corpus_raw,
    oracle_depth,
    system_text,
)

MAX_LEN = 16  # the engine's longest corpus class has 13 letters
POWER_THRESHOLD = 3
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus_classes.json")


def observe(raw, level: int) -> set[tuple[int, ...]]:
    depth_cap, budget = ESCALATION[level]
    images, axiom = raw
    alphabet = Alphabet(CORPUS_SYMBOLS[: len(images)])
    system = D0LSystem(Morphism(alphabet, alphabet, images), axiom)
    params = OracleParams(
        depth=oracle_depth(raw, depth_cap, budget),
        max_len=MAX_LEN,
        power_threshold=POWER_THRESHOLD,
        max_word_len=2 * budget,
    )
    return observed_classes(system, params)


def settled(raw) -> tuple[int, set[tuple[int, ...]]]:
    """Observation of the first level the next one confirms, else of the deepest."""
    previous = observe(raw, 0)
    for level in range(1, len(ESCALATION)):
        current = observe(raw, level)
        if current == previous:
            return level - 1, current
        previous = current
    return len(ESCALATION) - 1, previous


def main() -> None:
    start = time.perf_counter()
    systems = []
    for i in range(CORPUS_SIZE):
        raw = corpus_raw(i)
        symbols = tuple(CORPUS_SYMBOLS[: len(raw[0])])
        level, classes = settled(raw)
        if (i + 1) % 50 == 0:
            print(f"{i + 1}/{CORPUS_SIZE} systems", file=sys.stderr, flush=True)
        systems.append(
            {
                "index": i,
                "text": system_text(symbols, list(range(len(symbols))), raw),
                "level": level,
                "classes": sorted("".join(CORPUS_SYMBOLS[a] for a in w) for w in classes),
            }
        )
    doc = {
        "recipe": "random.Random(1000 + index); see perfbench/workloads.py",
        "max_len": MAX_LEN,
        "power_threshold": POWER_THRESHOLD,
        "escalation": [list(level) for level in ESCALATION],
        "systems": systems,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT} in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
