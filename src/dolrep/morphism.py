"""Alphabets, morphisms and D0L-systems.

A morphism maps every letter of its source alphabet to a word over its
target alphabet (images may be empty).  A D0L-system couples an endomorphism
with a non-empty axiom word; its language is the set of iterates of the
axiom.  This module also classifies letters (mortal / bounded / unbounded),
finds the cycles of functional graphs on letters, and decides injectivity
via the Sardinas-Patterson code test.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .words import Word, _word_str


class EngineInvariantError(RuntimeError):
    """An internal structural invariant failed; indicates an engine bug."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct letter symbols; letters are ids into it.

    ``Alphabet("abc")`` and ``Alphabet(["lo", "hi"])`` both work: a plain
    string contributes its characters as symbols.  At most 0x10FFFF =
    1 114 111 symbols are allowed, so that every letter id, and the id
    |A| that the oracle uses as a sentinel, is a ``chr`` code point.
    """

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(self.symbols) > 0x10FFFF:
            raise ValueError(f"alphabet has {len(self.symbols)} symbols; at most 1114111 (0x10FFFF) are allowed")
        for s in self.symbols:
            if not s or any(c.isspace() for c in s):
                raise ValueError(f"bad symbol {s!r}: must be non-empty without whitespace")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def letter(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def word(self, symbols: Iterable[str]) -> Word:
        """Build a word from symbols; a plain string is read character-wise."""
        return tuple(self.letter(s) for s in symbols)

    def text(self, word: Sequence[int]) -> str:
        """Human-readable rendering; space-separated when symbols are not all single chars."""
        sep = "" if all(len(s) == 1 for s in self.symbols) else " "
        return sep.join(self.symbols[a] for a in word)


@dataclass(frozen=True)
class Morphism:
    """Per-letter image table from a source alphabet into a target alphabet."""

    source: Alphabet
    target: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(tuple(img) for img in self.images))
        if len(self.images) != len(self.source):
            raise ValueError("exactly one image per source letter required")
        n = len(self.target)
        for a, img in enumerate(self.images):
            for b in img:
                if not 0 <= b < n:
                    raise ValueError(f"image of {self.source.symbols[a]!r} uses letter id {b} outside the target alphabet")

    @classmethod
    def from_rules(cls, source: Alphabet, target: Alphabet, rules: Mapping[str, Iterable[str] | str]) -> "Morphism":
        """Build from symbol-level rules, e.g. {"a": "ab", "b": ""}."""
        missing = [s for s in source.symbols if s not in rules]
        if missing:
            raise ValueError(f"missing rules for {missing}")
        extra = [s for s in rules if s not in source._index]
        if extra:
            raise ValueError(f"rules for undeclared letters {extra}")
        return cls(source, target, tuple(target.word(rules[s]) for s in source.symbols))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Morphism":
        return cls(alphabet, alphabet, tuple((a,) for a in range(len(alphabet))))

    def image(self, a: int) -> Word:
        return self.images[a]

    def apply(self, word: Sequence[int]) -> Word:
        """Concatenation of letter images; apply(eps) = eps."""
        out: list[int] = []
        n = len(self.images)
        for a in word:
            if not 0 <= a < n:
                raise ValueError(f"letter id {a} outside the source alphabet")
            out.extend(self.images[a])
        return tuple(out)

    __call__ = apply

    def iterate(self, word: Sequence[int], n: int) -> Word:
        """n-fold application; requires an endomorphism.  iterate(w, 0) = w."""
        if n < 0:
            raise ValueError("iteration count must be non-negative")
        if not self.is_endomorphism():
            raise ValueError("iterate requires source alphabet = target alphabet")
        w = tuple(word)
        for _ in range(n):
            w = self.apply(w)
        return w

    def first_letter(self, a: int) -> int:
        img = self.images[a]
        if not img:
            raise ValueError(f"letter {self.source.symbols[a]!r} has an empty image")
        return img[0]

    def is_endomorphism(self) -> bool:
        return self.source == self.target

    def is_erasing(self) -> bool:
        return any(not img for img in self.images)

    @cached_property
    def classification(self) -> "LetterClassification":
        """``classify_letters(self)``, computed once per morphism object."""
        return classify_letters(self)

    def __repr__(self) -> str:
        rules = ", ".join(
            f"{self.source.symbols[a]}->{self.target.text(img)}" for a, img in enumerate(self.images)
        )
        return f"Morphism({rules})"


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The morphism a -> outer(inner(a)); inner's target must be outer's source."""
    if inner.target != outer.source:
        raise ValueError("alphabet mismatch: inner target differs from outer source")
    images = tuple(outer(inner.image(a)) for a in range(len(inner.source)))
    return Morphism(inner.source, outer.target, images)


@dataclass(frozen=True)
class D0LSystem:
    """An endomorphism together with a non-empty axiom word over its alphabet."""

    morphism: Morphism
    axiom: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "axiom", tuple(self.axiom))
        if not self.morphism.is_endomorphism():
            raise ValueError("a D0L-system needs an endomorphism")
        if not self.axiom:
            raise ValueError("axiom must be non-empty")
        n = len(self.alphabet)
        for a in self.axiom:
            if not 0 <= a < n:
                raise ValueError(f"axiom letter id {a} outside the alphabet")

    @property
    def alphabet(self) -> Alphabet:
        return self.morphism.source

    def iterate(self, n: int) -> Word:
        return self.morphism.iterate(self.axiom, n)

    def reachable_letters(self) -> frozenset[int]:
        """Letters occurring in some iterate: closure of the axiom under images."""
        seen = set(self.axiom)
        frontier = list(seen)
        while frontier:
            for b in self.morphism.image(frontier.pop()):
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return frozenset(seen)

    def is_reduced(self) -> bool:
        return len(self.reachable_letters()) == len(self.alphabet)

    def reduced(self) -> "D0LSystem":
        """Restriction to the letters that actually occur in the language."""
        keep = sorted(self.reachable_letters())
        if len(keep) == len(self.alphabet):
            return self
        sub = Alphabet(tuple(self.alphabet.symbols[a] for a in keep))
        renum = {a: i for i, a in enumerate(keep)}
        images = tuple(tuple(renum[b] for b in self.morphism.image(a)) for a in keep)
        return D0LSystem(Morphism(sub, sub, images), tuple(renum[a] for a in self.axiom))

    def __repr__(self) -> str:
        return f"D0LSystem({self.morphism!r}, axiom={self.alphabet.text(self.axiom)!r})"


def make_system(rules: Mapping[str, Iterable[str] | str], axiom: Iterable[str] | str) -> D0LSystem:
    """Convenience constructor; alphabet order follows the rule-dict order."""
    alphabet = Alphabet(tuple(rules))
    return D0LSystem(Morphism.from_rules(alphabet, alphabet, rules), alphabet.word(axiom))


@dataclass(frozen=True)
class LetterClassification:
    """The letters of an alphabet by orbit, as ``classify_letters`` finds them.

    mortal: killed by some iterate (phi^k(a) = eps); always a subset of bounded.
    bounded: the orbit {phi^k(a)} is a finite set of words.
    unbounded: the complement of bounded.
    """

    mortal: frozenset[int]
    bounded: frozenset[int]
    unbounded: frozenset[int]


def classify_letters(phi: Morphism) -> LetterClassification:
    """Structural mortal/bounded/unbounded classification.

    On the letter digraph (edge a -> b for each occurrence of b in phi(a)),
    a letter is mortal iff it lies on no cycle and all its successors are
    mortal.  An immortal letter is unbounded iff it reaches a cycle from
    which a branching letter, one with >= 2 immortal letters in its image
    (with multiplicity), is reachable.

    Three peels of the reverse edges, users[b] listing a once per
    occurrence of b in phi(a), each a worklist that enters a letter once:

    1. Mortal: from the letters with empty images, a user whose count of
       immortal image letters, live[a], falls to 0 is mortal.  Afterwards
       live[a] counts the immortal letters of phi(a).
    2. R: the letters that reach a branching letter (live >= 2), in 0 or
       more steps, are the branching letters closed under users.
    3. Unbounded: from R, peel every letter whose image holds no occurrence
       of a letter still in R; the survivors are the unbounded letters.

    Proof of 3.  A survivor has a surviving successor, so it reaches a
    cycle of survivors, which lies in R and so reaches a branching letter.
    Conversely, let a reach a cyclic c that reaches a branching d.  Every
    letter on the path from a and on the cycle reaches d, so all of them
    lie in R.  A letter is peeled only after every R letter in its image,
    and each of these letters has in its image the next one along the path
    or the cycle, so none of them can be the first of them peeled: the
    cycle and the path survive.

    Each peel is O(|A| + sum |phi(a)|).
    """
    if not phi.is_endomorphism():
        raise ValueError("letter classification is defined for endomorphisms only")
    images = phi.images
    n = len(images)
    users: list[list[int]] = [[] for _ in range(n)]
    for a, img in enumerate(images):
        for b in img:
            users[b].append(a)
    live = [len(img) for img in images]
    mortal = [a for a in range(n) if not live[a]]
    for b in mortal:  # each list grows while it is walked
        for a in users[b]:
            live[a] -= 1
            if not live[a]:
                mortal.append(a)
    in_r = [count >= 2 for count in live]
    reach = [a for a in range(n) if in_r[a]]
    for b in reach:
        for a in users[b]:
            if not in_r[a]:
                in_r[a] = True
                reach.append(a)
    held = [sum(in_r[b] for b in img) for img in images]
    peeled = [a for a in reach if not held[a]]
    for b in peeled:
        for a in users[b]:
            held[a] -= 1
            if not held[a]:
                peeled.append(a)
    unbounded = frozenset(reach).difference(peeled)
    return LetterClassification(frozenset(mortal), frozenset(range(n)) - unbounded, unbounded)


def functional_cycles(vertices: Iterable[int], target: Callable[[int], int]) -> list[tuple[int, ...]]:
    """Cycles of the functional graph v -> target(v) on the given vertices.

    Each cycle starts at its least vertex and follows target; the list is
    ordered by that vertex.  One coloured walk: a vertex is "on the current
    path" until the walk through it ends, then "done", so every vertex is
    entered once.  O(#vertices).
    """
    done: dict[int, bool] = {}  # False while on the current path
    out: list[tuple[int, ...]] = []
    for v in vertices:
        path = []
        while v not in done:
            done[v] = False
            path.append(v)
            v = target(v)
        if not done[v]:
            cycle = path[path.index(v) :]
            i = cycle.index(min(cycle))
            out.append(tuple(cycle[i:] + cycle[:i]))
        for u in path:
            done[u] = True
    out.sort()
    return out


class CodewordIndex:
    """A set of codewords as sorted lists of strings, edited in place.

    Words get increasing indices as they are inserted and are held as
    strings of one character per letter, so they slice, compare and hash
    in C.  The live words are also kept in a dict to their indices and by
    first letter: per letter, the sorted list of the live words that start
    with it and the sorted list of their distinct lengths.  Every proper
    prefix and extension of a word s starts with s's first letter, so
    queries look in that letter's lists only.  Deleting a word drops it
    from these, and drops its length when no word left in the letter's
    list has it; a later insertion of the same word gets a new index.

    The codewords that extend s, s included, are the run of its letter's
    list that starts where s would go, so one bisection finds them.  The
    codewords that are proper prefixes of s are bounded by its left
    neighbour: every codeword p that is a proper prefix of s is a prefix of
    x, the greatest codeword below s.  Proof: p < s, so p <= x < s.  If x
    did not start with p, then, as x >= p, x would not be a proper prefix
    of p either, so it would first differ from p at some k < |p| with
    x[k] > p[k] = s[k], and x > s.  So the distinct lengths n of the
    letter, tried in increasing order, stop at the first n with n >= |s| or
    s[:n] not a prefix of x: no longer prefix of s is a prefix of x.  Each
    n tried costs one slice and one hash of s[:n].

    The pairs (i, j) of live codewords with i a proper prefix of j, the
    initial overhangs of ``relations``, are kept in a set: an insertion or
    deletion adds or drops the pairs of the word, found by that query, so
    a search does not rescan every codeword.  An edit costs the query, one
    bisection and the shift of a list; a deletion also scans its letter's
    list for the length.  ``relations`` is the
    Sardinas-Patterson search on the index, ``factorization`` the product
    test.
    """

    def __init__(self, codewords: Iterable[Word]) -> None:
        self.words: list[Word] = []  # every word inserted, by index
        self.texts: list[str] = []  # the same words as strings
        self._index: dict[str, int] = {}  # each live text to its index
        self._keys: dict[str, list[str]] = {}  # per first letter, the live texts, sorted
        self._lengths: dict[str, list[int]] = {}  # per first letter, the distinct live lengths, sorted
        self._pairs: set[tuple[int, int]] = set()  # (i, j) with texts[i] a proper prefix of texts[j]
        for y in codewords:
            self.insert(y)

    def insert(self, word: Word) -> int:
        """Add a non-empty word that is not in the set; return its index."""
        j, y = len(self.texts), _word_str(word)
        c, n = y[0], len(y)
        self.words.append(word)
        self.texts.append(y)
        for k in self._matches(y):
            self._pairs.add((k, j) if len(self.texts[k]) < n else (j, k))
        self._index[y] = j
        insort(self._keys.setdefault(c, []), y)
        if n not in (lengths := self._lengths.setdefault(c, [])):
            insort(lengths, n)
        return j

    def delete(self, j: int) -> None:
        """Remove the codeword with index j from the set."""
        y = self.texts[j]
        c, n = y[0], len(y)
        del self._index[y]
        keys = self._keys[c]
        del keys[bisect_left(keys, y)]
        if n not in map(len, keys):
            self._lengths[c].remove(n)
        for k in self._matches(y):
            self._pairs.discard((k, j) if len(self.texts[k]) < n else (j, k))

    def is_live(self, j: int) -> bool:
        """Whether the word with index j is in the set."""
        return self._index.get(self.texts[j]) == j

    def _matches(self, s: str) -> list[int]:
        """Indices of the codewords that are prefixes or extensions of s, s included."""
        keys = self._keys.get(s[0])
        if not keys:
            return []
        index = self._index
        i = k = bisect_left(keys, s)
        out = []
        while k < len(keys) and keys[k].startswith(s):
            out.append(index[keys[k]])
            k += 1
        if i:
            x = keys[i - 1]
            for n in self._lengths[s[0]]:
                if n >= len(s) or not x.startswith(p := s[:n]):
                    break
                if p in index:
                    out.append(index[p])
        return out

    def factorization(self, word: Word) -> list[int] | None:
        """Indices of codewords whose product is word, or None if there are none.

        From each position that a product of codewords reaches, one lookup
        per live length of the codewords that start with the letter there,
        shortest first, marks the positions that one more codeword reaches.
        The product found is the unique one when the set is a code.
        """
        get, lengths = self._index.get, self._lengths
        y = _word_str(word)
        n = len(y)
        last = [-1] * (n + 1)  # a codeword ending a product at each reached position
        for i in range(n):
            if i and last[i] < 0:
                continue
            for m in lengths.get(y[i], ()):
                d = i + m
                if d > n:
                    break
                if last[d] < 0:
                    last[d] = get(y[i:d], -1)
            if last[n] >= 0:
                break
        if last[n] < 0:
            return None
        out: list[int] = []
        while n:
            out.append(last[n])
            n -= len(self.texts[last[n]])
        return out[::-1]

    def relations(self) -> Iterator[tuple[tuple, int]]:
        """Breadth-first Sardinas-Patterson search for relations between codewords.

        States are dangling suffixes s with concat(ahead) = concat(behind) s
        for two codeword sequences that start with different codewords.  An
        initial state is an overhang y = x s, x a proper prefix of the
        codeword y, with ahead = [y] and behind = [x]; a state whose s is a
        codeword completes a relation.  A suffix already met is not met
        again.  The codewords that are proper prefixes or extensions of s
        are taken in increasing index, as a scan of every codeword would
        meet them.

        A state holds its suffix, its parent state and the codeword that
        extended the parent, so its size does not grow with its depth;
        ``relation_heads`` and ``_witness`` read the rest off the parent
        pointers.  There is at most one state per distinct suffix of a
        codeword.

        Yields each completed relation as (state, index of the codeword
        equal to its suffix), in breadth-first order, and stops at the end
        of the first level that completes one; the states left in that
        level are only tested for completion.  The set must not change
        while the search runs.
        """
        texts, index = self.texts, self._index
        seen: set[str] = set()
        # state: (suffix s, parent, codeword appended to behind, whether ahead
        # and behind then swap); an initial state is (s, None, y, x).
        level: list[tuple] = []
        for i, j in sorted(self._pairs):
            s = texts[j][len(texts[i]) :]
            if s not in seen:
                seen.add(s)
                level.append((s, None, j, i))
        found = False
        while level and not found:
            deeper: list[tuple] = []
            for state in level:
                s = state[0]
                if s in index:
                    found = True
                    yield state, index[s]
                    continue
                if found:
                    continue
                for j in sorted(self._matches(s)):
                    y = texts[j]
                    if len(y) > len(s):
                        t = y[len(s) :]
                        if t not in seen:
                            seen.add(t)
                            deeper.append((t, state, j, True))
                    else:
                        t = s[len(y) :]
                        if t not in seen:
                            seen.add(t)
                            deeper.append((t, state, j, False))
            level = deeper


def relation_heads(relation: tuple[tuple, int]) -> tuple[int, int]:
    """Indices (u, v) of the head codewords of a relation from
    ``CodewordIndex.relations``: u is a proper prefix of v."""
    state = relation[0]
    while state[1] is not None:
        state = state[1]
    return state[3], state[2]


def _witness(relation: tuple[tuple, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two codeword index sequences of a relation, rebuilt from its state's ancestors."""
    state, last = relation
    steps = []
    while state[1] is not None:
        steps.append(state[2:])
        state = state[1]
    ahead, behind = [state[2]], [state[3]]
    for j, swap in reversed(steps):
        behind.append(j)
        if swap:
            ahead, behind = behind, ahead
    return tuple(ahead), tuple(behind + [last])


def code_witness(codewords: Sequence[Word]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Sardinas-Patterson test with certificate.

    Given pairwise-distinct non-empty words, return None when they form a
    uniquely decodable code; otherwise return two distinct index sequences
    whose concatenations coincide.  This is the first relation of
    ``CodewordIndex.relations`` on the words, indexed in the given order,
    with its two sequences rebuilt from the parent pointers.  A
    breadth-first search finds a shortest (fewest-codewords) witness, and
    taking the matching codewords in increasing index makes it the one a
    search that scans every codeword for each state finds.

    The two sequences start with different codewords, and the shorter of
    those two heads is a proper prefix of the longer: every state descends
    from an initial overhang y = x s with x a proper prefix of y.

    Building the index costs one query per word.  Each state costs one
    query of its suffix s: a bisection in the list of s's first letter,
    one slice and hash of s[:n] for each length n of that list up to the
    first whose prefix leaves s's left neighbour, plus the codewords that
    match it.
    """
    words = [tuple(w) for w in codewords]
    if any(not w for w in words):
        raise ValueError("codewords must be non-empty")
    if len(set(words)) != len(words):
        raise ValueError("codewords must be pairwise distinct")
    relation = next(CodewordIndex(words).relations(), None)
    return None if relation is None else _witness(relation)


def injectivity_witness(phi: Morphism) -> tuple[Word, Word] | None:
    """None when phi is injective on words, else a pair u != v with phi(u) = phi(v).

    Erasing letters and duplicated images are reported directly; otherwise the
    image set is handed to the Sardinas-Patterson test (a set of distinct
    non-empty images is decodable iff the morphism is injective).
    """
    letters = range(len(phi.source))
    for a in letters:
        if not phi.image(a):
            return ((a,), ())
    by_image: dict[Word, int] = {}
    for a in letters:
        img = phi.image(a)
        if img in by_image:
            return ((by_image[img],), (a,))
        by_image[img] = a
    witness = code_witness([phi.image(a) for a in letters])
    if witness is None:
        return None
    u_idx, v_idx = witness
    return tuple(u_idx), tuple(v_idx)


def is_injective(phi: Morphism) -> bool:
    return injectivity_witness(phi) is None
