"""Brute-force reference oracle used by the tests and by `analyze --verify`.

Iterates of the axiom are materialized (as Python strings, one char per
letter id, so scanning runs at C speed) up to a depth and length budget.
Factors, maximal powers and "observed" repetition classes are measured
directly on those iterates.  The oracle only gathers desk-scale evidence:
a class is observed when some primitive word reaches the power threshold
and its maximal power still grows between half depth and full depth, which
separates unbounded repetition from static high powers.

The iterates come from per-letter levels (`_iterate_strings`): the budget
is checked on every depth from letter counts (`iterate_counts`, from which
`analyze --verify` also works out its depth) before any string is built,
then level k holds phi^k(b) for each letter b that occurs in some phi^j(w)
with j <= depth - k, level k + 1 joins level-k strings along the images,
and phi^k(w) joins level k over the axiom.  Every string built is a factor
of an iterate within budget, a level holds at most (depth + 1) * budget
letters, and building costs string joins, not a lookup per letter.

The maximal powers behind `observed_classes` come from a vectorised scan
(`_accumulate_run_powers`): for each period l <= max_len, numpy finds the
maximal l-periodic stretches of a text that reach the power threshold T
(runs of at least (T - 1) * l letter equalities, found by eroding the
equality mask with shifted ANDs), groups them by the unit each starts with
in one exact sort, and expands only the longest stretch of each start unit
into its <= l rotations and their powers: a longer stretch with the same
start unit holds the same rotations, each at a power at least as high.  A
maximal repetition is fully described by its period, start and length
(Kolpakov & Kucherov, FOCS 1999), so Python code runs per distinct start
unit, not per position.  Shorter repeats are never listed: the verdict
needs only the powers >= T (proof in `observed_classes`).  Finding the
stretches costs O(max_len * n log(T * max_len)) numpy work per text of n
letters, and grouping a sort over ceil(l * itemsize / 8) + 1 keys per
stretch of power >= T and period l; the scan holds the letters at one byte
each when every id is below 256, and groups stretches in fixed-size chunks.
`observed_classes` first drops every iterate that is a prefix or a suffix
of the next one in its half of the depths (a factor of a text holds no
higher power than the text), then scans batches of consecutive iterates
joined by a sentinel that is no letter id, one scan per batch, dropping the
units that hold the sentinel (a sentinel-free unit's stretch cannot reach
one, so the powers are those of a per-iterate scan).  A batch is never
longer than the longest iterate, so no scan array is either, and the fixed
numpy cost per scan is paid per batch, not per iterate: the scan's cost
follows the total length of the iterates it keeps.

numpy is imported by the scan's functions, not by this module, so importing
dolrep, `analyze` and the CLI without `--verify` never load it; the first
scan does, and later scans find it in `sys.modules`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

from .morphism import D0LSystem
from .words import Word, _str_word, _word_str, canonical_rotation, is_primitive, primitive_root

if TYPE_CHECKING:
    import numpy as np


class OracleResourceError(RuntimeError):
    """An iterate exceeded the configured length budget."""


@dataclass(frozen=True)
class OracleParams:
    depth: int = 12  # max iterate index N
    max_len: int = 8  # max factor length tracked L
    power_threshold: int = 4  # power counted as repeating K
    max_word_len: int = 1_000_000  # guard on materialized iterate length

    def __post_init__(self) -> None:
        if self.depth < 1 or self.max_len < 1 or self.power_threshold < 2:
            raise ValueError("need depth >= 1, max_len >= 1, power_threshold >= 2")
        if self.max_word_len < 1:
            raise ValueError("max_word_len must be positive")


def iterate_counts(system: D0LSystem) -> Iterator[list[int]]:
    """The letter-count vectors of phi^0(w), phi^1(w), ..., without end.

    counts[a] is the number of occurrences of letter a in the iterate, so
    sum(counts) is its length, known before any iterate is built.  Each
    vector is a new list; a step costs one pass over the images of the
    letters that occur.
    """
    images = system.morphism.images
    counts = [0] * len(images)
    for a in system.axiom:
        counts[a] += 1
    while True:
        yield counts
        nxt = [0] * len(images)
        for a, c in enumerate(counts):
            if c:
                for b in images[a]:
                    nxt[b] += c
        counts = nxt


def _iterate_strings(system: D0LSystem, depth: int, cap: int) -> list[str]:
    """phi^0(w) .. phi^depth(w) encoded with chr(letter id).

    The lengths of all the iterates come first, from `iterate_counts`, so
    the first one over the budget raises before any string is built.
    The iterates are then built from per-letter levels: level k maps each
    letter b that occurs in some phi^j(w) with j <= depth - k to phi^k(b),
    level k + 1 joins the level-k strings along each image (every letter of
    such an image occurs in phi^(j+1)(w)), and phi^k(w) is the join of level
    k over the axiom.  Every string built is thus a factor of an iterate
    within budget: a letter first reached at step j is expanded only up to
    phi^(depth-j), and one never reached is never expanded.  The work is
    joins, about the letters of each level, instead of one dict lookup per
    letter of each iterate.  Memory: the letters of phi^j(w) hold at most
    budget letters between them at every level, so a level holds at most
    (depth + 1) * budget letters, and two levels are alive at a time.

    A depth over the budget raises before anything is built: the iterates
    are kept one per depth, so their number is bounded like their lengths.
    The reach sets stop growing once a step adds no letter, and from then
    on every depth shares the last one.
    """
    if depth > cap:
        raise OracleResourceError(
            f"depth {depth} exceeds the {cap}-letter budget (one iterate is kept per depth)"
        )
    reach = [set(system.axiom)]  # reach[j]: the letters of phi^0(w) .. phi^j(w)
    for counts in islice(iterate_counts(system), 1, depth + 1):
        length = sum(counts)
        if length > cap:
            raise OracleResourceError(f"iterate length {length} exceeds the {cap}-letter budget")
        letters = {b for b, c in enumerate(counts) if c}
        reach.append(reach[-1] if letters <= reach[-1] else reach[-1] | letters)
    images = system.morphism.images
    level = {b: chr(b) for b in reach[depth]}
    out = ["".join(map(level.__getitem__, system.axiom))]
    for k in range(1, depth + 1):
        level = {b: "".join(map(level.__getitem__, images[b])) for b in reach[depth - k]}
        out.append("".join(map(level.__getitem__, system.axiom)))
    return out


def factors_up_to(system: D0LSystem, params: OracleParams = OracleParams()) -> set[Word]:
    """All factors of length 1..max_len of phi^n(axiom) for n <= depth."""
    found: set[str] = set()
    for text in _iterate_strings(system, params.depth, params.max_word_len):
        for l in range(1, min(params.max_len, len(text)) + 1):
            for i in range(len(text) - l + 1):
                found.add(text[i : i + l])
    return {_str_word(f) for f in found}


def _max_power_in(text: str, pattern: str) -> int:
    """Largest m with pattern^m a substring of text (0 when absent)."""
    if pattern not in text:
        return 0
    lo, hi = 1, len(text) // len(pattern)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pattern * mid in text:
            lo = mid
        else:
            hi = mid - 1
    return lo


def max_power(system: D0LSystem, v: Word, params: OracleParams = OracleParams()) -> int:
    """Largest m such that v^m is a factor of some phi^n(axiom), n <= depth."""
    v = tuple(v)
    if not is_primitive(v):
        raise ValueError("max_power expects a primitive word")
    if len(v) > params.max_len:
        raise ValueError("word longer than the tracked factor length")
    pattern = _word_str(v)
    best = 0
    for text in _iterate_strings(system, params.depth, params.max_word_len):
        best = max(best, _max_power_in(text, pattern))
    return best


# Unit letters grouped at a time (stretches per chunk times the period):
# keeps the scratch arrays of one chunk below a MB whatever the text length.
_CHUNK_LETTERS = 1 << 15


def _letter_arrays(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The letter ids of text, one byte each when every id is below 256 (else
    four), and words, where words[b] is the 8 letter bytes from byte b on as
    one big-endian integer, zero past the end.  Both view one buffer."""
    import numpy as np

    try:
        data, dtype = text.encode("latin-1"), np.uint8
    except UnicodeEncodeError:
        # "surrogatepass" accepts the ids 0xD800-0xDFFF that chr() allows
        data, dtype = text.encode("utf-32-le", "surrogatepass"), np.dtype("<u4")
    data += bytes(8)
    letters = np.frombuffer(data, dtype=dtype, count=len(text))
    return letters, np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))


def _accumulate_run_powers(text: str, max_len: int, min_power: int, powers: dict[str, int]) -> None:
    """Record, for every factor v with |v| <= max_len, the largest m >= min_power
    with v^m a substring of text; factors with no such m are left out.  Needs
    min_power >= 2.

    For each period l, the maximal l-periodic stretches are the runs of
    text[i] == text[i + l]: a run [r, e) of eq is the stretch [r, e + l) of
    L = e - r + l letters, which holds the powers of the l units starting at
    r + d, d < min(l, L - l + 1), with power (L - d) // l.  Power min_power
    or more needs a run of at least k = (min_power - 1) * l equalities, so
    the equality mask is first eroded to "k equalities in a row" by
    ceil(log2 k) shifted ANDs: shorter runs vanish, and a stretch of L
    letters leaves a run of L - k - l + 1 positions, the start of a unit of
    power >= min_power.

    The stretches are then grouped by the unit they start with, their first
    l letters, and only the longest stretch of each start unit is expanded:
    the count min(l, L - k - l + 1) of its units of power >= min_power and
    the power (L - d) // l of each are non-decreasing in L, and the unit at
    r + d is the same rotation of the start unit in every such stretch.  The
    grouping is one exact sort (`np.lexsort`) whose keys are the unit's
    l * itemsize letter bytes, read as ceil(l * itemsize / 8) big-endian
    8-byte words from a stride-1 view of the bytes (the last word masked to
    the unit), with L as the least key, so the last stretch of each group
    is its longest.  Rotations of one another found under different start
    units merge in `powers` by max.  The periods stop at the first l with no
    room for min_power * l letters.

    Cost per call on a text of n letters: numpy work O(n log(min_power *
    max_len)) per period to find the stretches, so O(max_len * n log(...))
    in all, plus a sort over ceil(l * itemsize / 8) + 1 keys per stretch of
    power >= min_power; Python work O(l) per distinct start unit of each
    chunk.  Both follow the stretches of power >= min_power, not every
    repeat in the text or every position in those stretches.  Memory: the
    letters at one byte each when every id is below 256 (else four) and 8
    zero bytes after them, a few masks of one byte per letter, int32
    positions (int64 only past 2**31 letter bytes), the boundaries of the
    stretches of power >= min_power of one period, and the keys of one chunk
    of at most _CHUNK_LETTERS unit letters (one stretch when l exceeds it).
    """
    import numpy as np

    n = len(text)
    letters, words = _letter_arrays(text)
    size = letters.itemsize
    index = np.int32 if (n + max_len) * size < 2**31 else np.int64  # positions, lengths, byte offsets
    for l in range(1, max_len + 1):
        k = (min_power - 1) * l
        m = n - l - k + 1  # positions that can start a stretch of power >= min_power
        if m <= 0:
            break
        eq = letters[:-l] == letters[l:]
        width = 1  # eq[i]: text[i + j] == text[i + j + l] for every j < width
        while width < k:
            shift = min(width, k - width)
            eq = eq[:-shift] & eq[shift:]
            width += shift
        # flags[1 + i] = eq[i], padded with a 0 at each end
        flags = np.zeros(m + 2, dtype=np.bool_)
        flags[1:-1] = eq
        del eq
        edges = np.flatnonzero(flags[1:] != flags[:-1]).astype(index)
        del flags
        starts = edges[0::2]
        lengths = edges[1::2] - starts + (k - 1 + l)  # the stretch lengths L
        del edges
        unit_bytes = l * size
        last = unit_bytes - 8 * ((unit_bytes - 1) // 8)  # the unit bytes in its last word
        mask = ((1 << 8 * last) - 1) << (64 - 8 * last)
        step = max(1, _CHUNK_LETTERS // l)
        for lo in range(0, len(starts), step):
            pos, length = starts[lo : lo + step], lengths[lo : lo + step]
            offsets = pos * size
            keys = [words[offsets + j] for j in range(0, unit_bytes, 8)]
            keys[-1] &= np.uint64(mask)
            order = np.lexsort([length] + keys)
            tail = np.zeros(len(order), dtype=np.bool_)  # the longest stretch of each start unit
            tail[-1] = True
            for key in keys:
                key = key[order]
                tail[:-1] |= key[1:] != key[:-1]
            longest = order[tail]
            for r, L in zip(pos[longest].tolist(), length[longest].tolist()):
                for d in range(min(l, L - k - l + 1)):
                    unit, power = text[r + d : r + d + l], (L - d) // l
                    if powers.get(unit, 0) < power:
                        powers[unit] = power


def _batches(texts: list[str], sentinel: str, bound: int):
    """Consecutive non-empty texts joined by sentinel, no join longer than
    bound letters unless one text is, each with its longest text's length.

    Empties texts, and holds no text once it is joined, so the batches take
    the place of the texts in memory rather than adding to them.
    """
    stack = [text for text in reversed(texts) if text]
    texts.clear()
    while stack:
        group = [stack.pop()]
        size = len(group[0])
        while stack and size + 1 + len(stack[-1]) <= bound:
            group.append(stack.pop())
            size += 1 + len(group[-1])
        batch, longest = sentinel.join(group), max(map(len, group))
        del group
        yield batch, longest


def _undominated(texts: list[str]) -> list[str]:
    """texts without each one that is a prefix or a suffix of the next."""
    return [
        text for text, after in zip(texts, texts[1:]) if not (after.startswith(text) or after.endswith(text))
    ] + texts[-1:]


def observed_classes(system: D0LSystem, params: OracleParams = OracleParams()) -> set[Word]:
    """Canonical primitive words whose powers keep growing at desk scale.

    A word qualifies when its maximal power over iterates up to `depth`
    reaches `power_threshold` and strictly exceeds the maximal power seen up
    to depth ceil(depth/2); the growth condition filters bounded high powers.

    An iterate that is a prefix or a suffix of the next one in its half
    (0..ceil(depth/2), or the rest) is not scanned: each of its factors is a
    factor of that next iterate, so it holds no higher power, and the two
    are on the same side of the half-depth snapshot.  Iterates that grow at
    one end, as under a -> a x, are all dropped but the last of each half.

    The iterates left are scanned in batches, iterates 0..ceil(depth/2)
    first and then the rest, so the half-depth powers are a snapshot between
    the two.  A batch joins consecutive non-empty iterates with the sentinel
    chr(|A|), which is no letter id, and is never longer than the longest
    iterate (one iterate alone may fill it), so no scan array is longer than
    that iterate; periods stop at the batch's longest iterate.  Units that
    hold the sentinel are dropped.  Every other unit u keeps its power: a
    maximal l-periodic stretch repeats the letters of any l consecutive
    letters of it, so the stretch of a sentinel-free u holds no sentinel and
    lies inside one iterate, where the per-iterate scan finds the same
    stretch.

    The scans record only powers >= power_threshold (T), at full and at
    half depth, and the verdict is the same as with every power recorded.
    Write P for a unit's full-depth power and H for its half-depth power,
    1 when the unit is missing there.  The unit is reported iff P >= T and
    P > H.  A recorded H is exact.  A missing H is either below 2, where
    counting it as 1 changes nothing, or in [2, T), where P >= T > H gives
    the same verdict as 1.

    Cost: one comparison per letter to find the dominated iterates; the
    scans do O(max_len * n log(T * max_len)) numpy work over the n letters
    of the iterates kept, plus a fixed cost per (batch, period) instead of
    per (iterate, period), and group only the stretches of power >= T; the
    geometrically growing iterates of most systems fit in a few batches.
    Memory: the iterates kept, of which each batch takes the place once
    joined, and the arrays of one scan, none longer than the longest
    iterate.
    """
    texts = _iterate_strings(system, params.depth, params.max_word_len)
    half = -(-params.depth // 2)
    sentinel = chr(len(system.alphabet))
    bound = max(map(len, texts))
    early, late = _undominated(texts[: half + 1]), _undominated(texts[half + 1 :])
    del texts
    threshold = params.power_threshold
    powers: dict[str, int] = {}
    for batch, longest in _batches(early, sentinel, bound):
        _accumulate_run_powers(batch, min(params.max_len, longest), threshold, powers)
    half_powers = dict(powers)
    for batch, longest in _batches(late, sentinel, bound):
        _accumulate_run_powers(batch, min(params.max_len, longest), threshold, powers)

    out: set[Word] = set()
    for unit, power in powers.items():
        if sentinel in unit:
            continue
        word = _str_word(unit)
        if not is_primitive(word):
            continue
        # A unit missing at half depth had power below power_threshold there,
        # which every recorded power exceeds.
        if power > half_powers.get(unit, 1):
            out.add(canonical_rotation(primitive_root(word)))
    return out
