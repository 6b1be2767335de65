"""Spans and counts at the boundaries of dolrep's modules.

While a Tracer is installed, each traced function is replaced by a wrapper
that records a span (name, start, end, parent) in memory.  The wrapper is
put in place of the function in its own module, under every name other
dolrep modules imported it as, and on the class for methods; ``remove``
puts the originals back.  Counting hooks read the results at the same
boundaries.  Nothing here changes what the wrapped functions return.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import Counter

# (module, attribute) of each traced function; "Class.method" for methods.
SPANS = (
    ("cli", "parse_system"),
    ("cli", "report_to_dict"),
    ("engine", "analyze"),
    ("simplify", "SimplificationChain.map_back"),
    ("simplify", "injective_simplification"),
    ("simplify", "code_reduce"),
    ("morphism", "classify_letters"),
    ("morphism", "injectivity_witness"),
    ("morphism", "D0LSystem.reduced"),
    ("pushy", "bounded_periodic_classes"),
    ("pushy", "is_pushy"),
    ("pushy", "cycles"),
    ("unbounded", "first_letter_candidates"),
    ("unbounded", "lando_periodic_check"),
    ("words", "canonical_rotation"),
    ("words", "primitive_root"),
    ("oracle", "observed_classes"),
)

# Functions only counted, without a span of their own.
COUNTED = (
    ("simplify", "eliminate_erasing"),
    ("simplify", "merge_duplicate_images"),
)

APPLY = "morphism.Morphism.apply"


def _count_result(counts: Counter, name: str, result) -> None:
    if name == "unbounded.first_letter_candidates":
        counts[f"{name}.candidates"] += len(result)
    elif name == "unbounded.lando_periodic_check" and result is not None:
        counts[f"{name}.accepted"] += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.max_apply = 0
        self.totals: dict[str, list[float]] = {}  # name -> [total s, self s]
        self.last_spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            counts[f"{name}.calls"] += 1
            _count_result(counts, name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _apply(self, fn):
        tracer = self

        @functools.wraps(fn)
        def apply(morphism, word):
            out = fn(morphism, word)
            tracer.counts[f"{APPLY}.letters"] += len(out)
            if len(out) > tracer.max_apply:
                tracer.max_apply = len(out)
            return out

        return apply

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dolrep" or n.startswith("dolrep.")]
        for table, make in ((SPANS, self._span), (COUNTED, self._counted)):
            for module, attr in table:
                name = f"{module}.{attr}"
                owner = sys.modules[f"dolrep.{module}"]
                if "." in attr:
                    cls, method = attr.split(".")
                    owner = getattr(owner, cls)
                    self._replace(owner, method, make(name, getattr(owner, method)))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, wrapper)
        morphism_cls = sys.modules["dolrep.morphism"].Morphism
        apply = self._apply(morphism_cls.apply)
        self._replace(morphism_cls, "apply", apply)
        self._replace(morphism_cls, "__call__", apply)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def fold(self) -> None:
        """Add the spans recorded so far to the totals, and keep them as the last."""
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            total = self.totals.setdefault(name, [0.0, 0.0])
            total[0] += end - start
            total[1] += end - start - child[index]
        self.last_spans = list(self.spans)
        self.spans.clear()


def write_spans(spans, path: str) -> None:
    """CSV of spans, times in microseconds from the first span's start."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(("index", "name", "start_us", "end_us", "parent"))
        origin = spans[0][1] if spans else 0.0
        for index, (name, start, end, parent) in enumerate(spans):
            out.writerow((index, name, round((start - origin) * 1e6), round((end - origin) * 1e6), parent))
