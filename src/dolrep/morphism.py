"""Alphabets, morphisms and D0L-systems.

A morphism maps every letter of its source alphabet to a word over its
target alphabet (images may be empty).  A D0L-system couples an endomorphism
with a non-empty axiom word; its language is the set of iterates of the
axiom.  This module also classifies letters (mortal / bounded / unbounded),
finds the cycles of functional graphs on letters, and decides injectivity
via the Sardinas-Patterson code test.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .words import Word


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct letter symbols; letters are ids into it.

    ``Alphabet("abc")`` and ``Alphabet(["lo", "hi"])`` both work: a plain
    string contributes its characters as symbols.
    """

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
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


def translate_word(word: Sequence[int], src: Alphabet, dst: Alphabet) -> Word:
    """Re-express a word over src in dst's letter ids, matching by symbol."""
    return tuple(dst.letter(src.symbols[a]) for a in word)


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
    """Partition of an alphabet into bounded and unbounded letters.

    mortal: killed by some iterate (phi^k(a) = eps); always a subset of bounded.
    bounded: the orbit {phi^k(a)} is a finite set of words.
    unbounded: the complement of bounded.
    """

    mortal: frozenset[int]
    bounded: frozenset[int]
    unbounded: frozenset[int]


def mortal_letters(phi: Morphism) -> frozenset[int]:
    """Least fixed point: a is mortal iff every letter of phi(a) is mortal.

    Worklist over reverse edges: pending[a] counts the letters of phi(a),
    with multiplicity, not yet known to be mortal, and a letter is mortal
    once its count reaches zero.  O(|A| + sum |phi(a)|).
    """
    if not phi.is_endomorphism():
        raise ValueError("mortality is defined for endomorphisms only")
    images = phi.images
    pending = [len(img) for img in images]
    work = [a for a, p in enumerate(pending) if not p]
    if not work:
        return frozenset()
    users: list[list[int]] = [[] for _ in images]
    for a, img in enumerate(images):
        for b in img:
            users[b].append(a)
    while work:
        for a in users[work.pop()]:
            pending[a] -= 1
            if not pending[a]:
                work.append(a)
    return frozenset(a for a, p in enumerate(pending) if not p)


def classify_letters(phi: Morphism) -> LetterClassification:
    """Structural bounded/unbounded classification.

    On the digraph of immortal letters (edge a -> b iff b occurs in phi(a)),
    an immortal letter is unbounded iff it reaches a letter on a cycle from
    which some letter with >= 2 immortal letters in its image (counted with
    multiplicity) is reachable.  Mortal letters are always bounded.

    One iterative Tarjan pass over that digraph, with plain lists indexed by
    letter, closes the strongly connected components sinks first.  A
    component is unbounded when it points to an unbounded component, or
    holds a cycle (an edge inside it) and a branching letter.  Reaching a
    branching letter needs no flag of its own: in a component with a cycle
    and no branching letter every letter has exactly one immortal successor,
    inside the component, so no edge leaves it.  O(|A| + sum |phi(a)|).
    """
    if not phi.is_endomorphism():
        raise ValueError("letter classification is defined for endomorphisms only")
    mortal = mortal_letters(phi)
    n = len(phi.images)
    succ = [[b for b in img if b not in mortal] for img in phi.images]
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # component of a closed letter; -1 while unvisited or on the stack
    unbounded_comp: list[bool] = []  # per component, in closing order
    stack: list[int] = []
    count = 0
    for root in range(n):
        if index[root] >= 0 or root in mortal:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            a, edges = work[-1]
            for b in edges:
                if index[b] < 0:
                    index[b] = low[b] = count
                    count += 1
                    stack.append(b)
                    work.append((b, iter(succ[b])))
                    break
                if comp[b] < 0 and index[b] < low[a]:
                    low[a] = index[b]
            else:
                work.pop()
                if work and low[a] < low[work[-1][0]]:
                    low[work[-1][0]] = low[a]
                if low[a] == index[a]:
                    c = len(unbounded_comp)
                    members = []
                    b = -1
                    while b != a:
                        b = stack.pop()
                        comp[b] = c
                        members.append(b)
                    cyclic = branching = grows = False
                    for b in members:
                        if len(succ[b]) >= 2:
                            branching = True
                        for d in succ[b]:
                            if comp[d] == c:
                                cyclic = True
                            elif unbounded_comp[comp[d]]:
                                grows = True
                    unbounded_comp.append(grows or (cyclic and branching))
    unbounded = frozenset(a for a in range(n) if comp[a] >= 0 and unbounded_comp[comp[a]])
    bounded = frozenset(a for a in range(n) if a not in unbounded)
    return LetterClassification(mortal=mortal, bounded=bounded, unbounded=unbounded)


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


def _common_prefix_end(x: Word, y: Word, lo: int, hi: int) -> int:
    """The largest p <= hi with x[lo:p] == y[lo:p].

    A binary search over slice equality, so the letters are compared in C.
    """
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if x[lo:mid] == y[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def code_witness(codewords: Sequence[Word]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Sardinas-Patterson test with certificate.

    Given pairwise-distinct non-empty words, return None when they form a
    uniquely decodable code; otherwise return two distinct index sequences
    whose concatenations coincide.  States are dangling suffixes; each state
    remembers the two codeword sequences that produced it, so the first
    completed state yields a shortest (fewest-codewords) witness.

    The two sequences start with different codewords, and the shorter of
    those two heads is a proper prefix of the longer: every state descends
    from an initial overhang y = x s with x a proper prefix of y.

    The codewords are indexed once by a trie over their letters in which
    each chain of single-child nodes is one edge, labelled by a slice of a
    codeword, so n codewords give at most 2n + 1 nodes.  Each node holds the
    index of the codeword ending there and the increasing indices of the
    codewords through it; these lists total at most the summed codeword
    length.  One walk of an overhang s finds the codeword equal to s, the
    codewords that are proper prefixes of s and those that properly extend
    it.  They are taken in increasing index, as a scan of every codeword
    meets them, so the queue and the witness are those of that scan.  A walk
    takes one Python step per node on its path and compares O(|s|) letters
    by slicing; codewords off that path cost a state nothing.
    """
    words = [tuple(w) for w in codewords]
    if any(not w for w in words):
        raise ValueError("codewords must be non-empty")
    if len(set(words)) != len(words):
        raise ValueError("codewords must be pairwise distinct")

    # Node 0 is the root.  A node at depth p whose parent is at depth d is
    # reached by the edge words[w][d:p], where labels[node] = (w, p).
    children: list[dict[int, int]] = [{}]
    labels = [(0, 0)]
    ends = [-1]  # index of the codeword ending at each node, or -1
    for j, y in enumerate(words):
        node = d = 0
        while d < len(y):
            child = children[node].get(y[d])
            if child is None:
                child = children[node][y[d]] = len(ends)
                children.append({})
                labels.append((j, len(y)))
                ends.append(-1)
                node, d = child, len(y)
                continue
            w, depth = labels[child]
            p = _common_prefix_end(words[w], y, d + 1, min(depth, len(y)))
            if p < depth:  # split the edge at depth p
                children.append({words[w][p]: child})
                child = children[node][y[d]] = len(ends)
                labels.append((w, p))
                ends.append(-1)
            node, d = child, p
        ends[node] = j
    through: list[list[int]] = [[] for _ in ends]
    word_node = []
    for j, y in enumerate(words):
        node = 0
        while labels[node][1] < len(y):
            node = children[node][y[labels[node][1]]]
            through[node].append(j)
        word_node.append(node)

    # state: (overhang s, ahead, behind) with concat(ahead) = concat(behind) + s
    queue: deque[tuple[Word, list[int], list[int]]] = deque()
    seen: set[Word] = set()
    for i, x in enumerate(words):
        for j in through[word_node[i]]:
            if j != i:
                s = words[j][len(x) :]
                if s not in seen:
                    seen.add(s)
                    queue.append((s, [j], [i]))
    while queue:
        s, ahead, behind = queue.popleft()
        matches: list[int] = []  # codewords that are proper prefixes or extensions of s
        node = d = 0
        while d < len(s):
            child = children[node].get(s[d])
            if child is None:
                break
            w, depth = labels[child]
            # the first letter of the edge matched as the key of child
            if depth > len(s):  # s ends inside this edge
                if s[d + 1 :] == words[w][d + 1 : len(s)]:
                    matches.extend(through[child])
                break
            if depth > d + 1 and s[d + 1 : depth] != words[w][d + 1 : depth]:
                break
            node, d = child, depth
            if d < len(s) and ends[node] >= 0:
                matches.append(ends[node])
        else:
            if ends[node] >= 0:
                return tuple(ahead), tuple(behind + [ends[node]])
            matches.extend(through[node])
        for j in sorted(matches):
            y = words[j]
            if len(y) > len(s):
                t = y[len(s) :]
                if t not in seen:
                    seen.add(t)
                    queue.append((t, behind + [j], ahead))
            else:
                t = s[len(y) :]
                if t not in seen:
                    seen.add(t)
                    queue.append((t, ahead, behind + [j]))
    return None


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
