"""Shared helpers for randomized tests: system generation and test oracles."""

import random
import string
from itertools import product

from dolrep import D0LSystem, Morphism, OracleParams


def random_system(
    rng: random.Random,
    max_letters: int = 4,
    max_image: int = 3,
    min_letters: int = 1,
    min_image: int = 0,
) -> D0LSystem:
    """Random system over letters a, b, c, ...; erasing and shared images occur naturally.

    With the defaults this is the acceptance corpus's generator: at most 4
    letters, images of length 0-3.
    """
    from dolrep import Alphabet

    n = rng.randint(min_letters, max_letters)
    alphabet = Alphabet(string.ascii_lowercase[:n])
    images = tuple(
        tuple(rng.randrange(n) for _ in range(rng.randint(min_image, max_image))) for _ in range(n)
    )
    axiom = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
    return D0LSystem(Morphism(alphabet, alphabet, images), axiom)


def simulated_bounded(phi: Morphism, letter: int, max_steps: int = 512, max_len: int = 150) -> bool:
    """Orbit simulation: revisit => bounded, length blow-up => unbounded.

    Cutoffs are tuned for alphabets <= 4 with images <= 3: bounded-letter
    orbit words stay below ~3^4 letters, while the slowest unbounded growth
    (one bounded letter per cycle of length <= 3) crosses 150 well within
    512 steps.  Anything inconclusive fails loudly.
    """
    seen = set()
    w = (letter,)
    for _ in range(max_steps):
        if w in seen:
            return True
        seen.add(w)
        w = phi.apply(w)
        if len(w) > max_len:
            return False
    raise AssertionError("orbit simulation inconclusive; raise the cutoffs")


def brute_injectivity_witness(phi: Morphism, max_len: int = 6):
    """First pair of distinct words (len <= max_len) sharing an image, or None.

    One-directional: can only refute injectivity.
    """
    seen: dict[tuple, tuple] = {}
    n = len(phi.source)
    for length in range(0, max_len + 1):
        for word in product(range(n), repeat=length):
            image = phi.apply(word)
            if image in seen and seen[image] != word:
                return seen[image], word
            seen.setdefault(image, word)
    return None


def _iterate_lengths(system: D0LSystem, depth: int) -> list[int]:
    counts = [0] * len(system.alphabet)
    for a in system.axiom:
        counts[a] += 1
    lengths = [sum(counts)]
    for _ in range(depth):
        nxt = [0] * len(counts)
        for a, c in enumerate(counts):
            if c:
                for b in system.morphism.image(a):
                    nxt[b] += c
        counts = nxt
        lengths.append(sum(counts))
    return lengths


def corpus_oracle_params(system: D0LSystem, engine_reps, depth_cap: int = 16, budget: int = 300_000) -> OracleParams:
    """Deterministic per-system oracle tuning for the agreement check.

    Depth: as deep as the letter budget allows, capped at depth_cap (at the
    corpus scale of alphabet <= 4 and images <= 3 this is always >= 10).
    Length bound: at least 8, and enough to see every engine representative.
    """
    lengths = _iterate_lengths(system, depth_cap)
    depth = max(n for n in range(1, depth_cap + 1) if all(l <= budget for l in lengths[: n + 1]))
    max_len = max([8] + [len(rep) for rep in engine_reps])
    return OracleParams(depth=depth, max_len=max_len, power_threshold=3, max_word_len=2 * budget)


# Escalation ladder for the two-sided agreement check: static high powers that
# stabilize only after the half-depth snapshot look like growth at small
# depths, and slowly-pumped genuine classes may not reach the power threshold
# early; both resolve under a deeper look.  A real engine error persists at
# every level and still fails the test.
ESCALATION = ((16, 300_000), (20, 2_500_000), (24, 20_000_000))


def oracle_agreement(system: D0LSystem, engine_reps):
    """(agrees, observed, params) after escalating the oracle depth as needed."""
    from dolrep import observed_classes

    engine_reps = set(engine_reps)
    for depth_cap, budget in ESCALATION:
        params = corpus_oracle_params(system, engine_reps, depth_cap, budget)
        observed = observed_classes(system, params)
        if observed == engine_reps:
            return True, observed, params
    return False, observed, params
