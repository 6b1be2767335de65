"""Correctness checks on the reports the CLI path produces.

Each check reads the JSON report a user would see and compares it with
something computed apart from the engine: a closed form, the stored oracle
classes, or properties every correct report has.  Word helpers here are the
benchmark's own, not ``dolrep.words``.  A failed check raises CheckError.
"""

from __future__ import annotations

import json
import os

from workloads import CORPUS_SYMBOLS, Case, corpus_raw, system_text

CLASSES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus_classes.json")


class CheckError(AssertionError):
    """A report differs from what a correct analysis gives."""


def expect(condition: bool, case: Case, message: str) -> None:
    if not condition:
        raise CheckError(f"{case.name}: {message}")


def least_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


def is_primitive(word: tuple) -> bool:
    n = len(word)
    return all(n % p or word[p:] + word[:p] != word for p in range(1, n))


def class_reps(report: dict) -> list[tuple[str, ...]]:
    return [tuple(c["representative"]) for c in report["classes"]]


def expected_reps(case: Case, source_words) -> list[tuple[str, ...]]:
    """Source-id class words as the report of the relabelled system lists them."""
    ranked = sorted(least_rotation(tuple(case.rank(a) for a in word)) for word in source_words)
    return [tuple(case.symbols[case.order[r]] for r in word) for word in ranked]


def check_well_formed(case: Case, report: dict) -> None:
    """Properties of any correct report, whatever the system."""
    declared = [case.symbols[a] for a in case.order]
    expect(report["system"]["alphabet"] == declared, case, "alphabet differs from the input")
    rank = {s: i for i, s in enumerate(declared)}
    reps = class_reps(report)
    expect(report["repetitive"] == bool(reps), case, "repetitive disagrees with the classes")
    expect(report["strongly_repetitive"] == report["repetitive"], case, "strongly_repetitive differs")
    keys = [[rank[s] for s in rep] for rep in reps]
    expect(keys == sorted(keys) and len(set(reps)) == len(reps), case, "classes not sorted and distinct")
    for cls, key in zip(report["classes"], keys):
        word = tuple(key)
        expect(is_primitive(word), case, f"representative {cls['representative']} is not primitive")
        expect(least_rotation(word) == word, case, f"representative {cls['representative']} is not least")
        rotations = sorted({word[i:] + word[:i] for i in range(len(word))})
        listed = [tuple(rank[s] for s in w) for w in cls["conjugates"]]
        expect(sorted(listed) == rotations, case, f"conjugates of {cls['representative']} are wrong")
        expect(cls["source"] in ("bounded", "unbounded"), case, "unknown class source")


def check_cyclic(case: Case, report: dict) -> None:
    """Closed form: the L one-letter classes, all unbounded; not pushy."""
    size = len(case.raw[0])
    expect(report["repetitive"] and not report["pushy"], case, "expected repetitive and not pushy")
    expect(report["simplification_steps"] == [], case, "the cyclic morphism is injective")
    expected = expected_reps(case, [(a,) for a in range(size)])
    expect(class_reps(report) == expected, case, "classes differ from the L one-letter classes")
    expect(all(c["source"] == "unbounded" for c in report["classes"]), case, "a class is not unbounded")


def load_corpus_classes() -> dict[int, list[tuple[int, ...]]]:
    """Stored oracle classes by corpus index, as source-id words."""
    with open(CLASSES_FILE, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for entry in doc["systems"]:
        raw = corpus_raw(entry["index"])
        n = len(raw[0])
        if entry["text"] != system_text(tuple(CORPUS_SYMBOLS[:n]), range(n), raw):
            raise CheckError(f"corpus-{entry['index']}: stored system differs from the generated one")
        out[entry["index"]] = [tuple(CORPUS_SYMBOLS.index(c) for c in w) for w in entry["classes"]]
    return out


def check_against(case: Case, report: dict, source_words) -> None:
    expect(class_reps(report) == expected_reps(case, source_words), case, "classes differ from the oracle's")


def source_words(case: Case, report: dict) -> list[tuple[int, ...]]:
    return [tuple(case.symbols.index(s) for s in rep) for rep in class_reps(report)]


def check_renamed(case: Case, report: dict, other: Case, other_report: dict) -> None:
    """The same source system under two labellings has the same classes."""
    expected = expected_reps(other, source_words(case, report))
    expect(class_reps(other_report) == expected, case, "classes change under renaming")


def check_same_classes(case: Case, report: dict, other_report: dict, what: str) -> None:
    expect(class_reps(report) == class_reps(other_report), case, f"classes change {what}")
