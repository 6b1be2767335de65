"""Alphabets, morphisms and D0L-systems.

A morphism maps every letter of its source alphabet to a word over its
target alphabet (images may be empty).  A D0L-system couples an endomorphism
with a non-empty axiom word; its language is the set of iterates of the
axiom.  This module also classifies letters (mortal / bounded / unbounded),
finds the cycles of functional graphs on letters, and decides injectivity
via the Sardinas-Patterson code test.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .words import Word, _word_str


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
    """The letters of an alphabet by orbit, all from one ``classify_letters`` pass.

    mortal: killed by some iterate (phi^k(a) = eps); always a subset of bounded.
    bounded: the orbit {phi^k(a)} is a finite set of words.
    unbounded: the complement of bounded.
    """

    mortal: frozenset[int]
    bounded: frozenset[int]
    unbounded: frozenset[int]


def classify_letters(phi: Morphism) -> LetterClassification:
    """Structural mortal/bounded/unbounded classification.

    On the letter digraph (edge a -> b iff b occurs in phi(a)), a letter is
    mortal iff it lies on no cycle and all its successors are mortal.  An
    immortal letter is unbounded iff it reaches a cycle from which a letter
    with >= 2 immortal letters in its image (with multiplicity) is reachable.

    One iterative Tarjan pass, with plain lists indexed by letter, closes
    the strongly connected components sinks first.  When a component
    closes, each member counts its immortal successors: those inside it
    (then it is cyclic) and those in immortal closed components.  It is
    mortal when every count is 0, and unbounded when it points to an
    unbounded component or is cyclic with a count >= 2: in a cyclic
    component without one, no edge leaves for an immortal letter, so
    reaching a branching letter needs no flag.  O(|A| + sum |phi(a)|).
    """
    if not phi.is_endomorphism():
        raise ValueError("letter classification is defined for endomorphisms only")
    images = phi.images
    n = len(images)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # component of a closed letter; -1 while unvisited or on the stack
    mortal_comp: list[bool] = []  # per component, in closing order
    unbounded_comp: list[bool] = []
    stack: list[int] = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(images[root]))]
        while work:
            a, edges = work[-1]
            for b in edges:
                if index[b] < 0:
                    index[b] = low[b] = count
                    count += 1
                    stack.append(b)
                    work.append((b, iter(images[b])))
                    break
                if comp[b] < 0 and index[b] < low[a]:
                    low[a] = index[b]
            else:
                work.pop()
                if work and low[a] < low[work[-1][0]]:
                    low[work[-1][0]] = low[a]
                if low[a] == index[a]:
                    c = len(mortal_comp)
                    members = []
                    b = -1
                    while b != a:
                        b = stack.pop()
                        comp[b] = c
                        members.append(b)
                    cyclic = grows = False
                    most = 0  # most immortal successors of a member, with multiplicity
                    for b in members:
                        live = 0
                        for d in images[b]:
                            if comp[d] == c:
                                cyclic = True
                                live += 1
                            elif not mortal_comp[comp[d]]:
                                live += 1
                                grows = grows or unbounded_comp[comp[d]]
                        most = max(most, live)
                    mortal_comp.append(not most)
                    unbounded_comp.append(grows or (cyclic and most >= 2))
    mortal = frozenset(a for a in range(n) if mortal_comp[comp[a]])
    unbounded = frozenset(a for a in range(n) if unbounded_comp[comp[a]])
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


class CodewordIndex:
    """A set of codewords as a compressed trie, edited in place.

    Each chain of single-child nodes of the trie is one edge, labelled by a
    factor of a codeword, and inserting a word adds a leaf and splits at
    most one edge, so n insertions make at most 2n + 1 nodes.  Words get
    increasing indices as they are inserted.  Each node holds the index of
    the codeword ending there and the increasing indices of the codewords
    through it; these lists total at most the summed codeword length.
    Deleting a word clears its end mark and its entries in those lists, and
    unlinks the highest node on its path that no codeword passes through
    any more, so walks never enter a branch without codewords.  A later
    insertion of the same word gets a new index.

    Words are held as strings of one character per letter, so a walk of a
    word takes one Python step per node on its path and compares each edge
    with ``str.startswith``, in C and without a copy; codewords off that
    path cost it nothing.  ``relations`` is the Sardinas-Patterson search
    on the index, ``factorization`` the product test.
    """

    def __init__(self, codewords: Iterable[Word]) -> None:
        self.words: list[Word] = []  # every word inserted, by index
        self.texts: list[str] = []  # the same words as strings
        # Node 0 is the root.  edges[node] labels the edge into the node, and
        # children maps the first character of an edge to the node it enters.
        self.children: list[dict[str, int]] = [{}]
        self.edges = [""]
        self.ends = [-1]  # index of the codeword ending at each node, or -1
        self.through: list[list[int]] = [[]]
        self.node_of: list[int] = []  # node at which each inserted word ends
        for y in codewords:
            self.insert(y)

    def insert(self, word: Word) -> int:
        """Add a non-empty word that is not in the set; return its index."""
        children, edges, ends, through = self.children, self.edges, self.ends, self.through
        j, n = len(self.texts), len(word)
        y = _word_str(word)
        self.words.append(word)
        self.texts.append(y)
        node = d = 0
        while d < n:
            child = children[node].get(y[d])
            if child is None:
                children[node][y[d]] = node = len(ends)
                children.append({})
                edges.append(y[d:])
                ends.append(-1)
                through.append([j])
                break
            edge = edges[child]
            if not y.startswith(edge, d):  # split the edge after its common prefix with y
                lo, hi = 1, min(len(edge), n - d)
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if y.startswith(edge[:mid], d):
                        lo = mid
                    else:
                        hi = mid - 1
                children.append({edge[lo]: child})
                edges.append(edge[:lo])
                edges[child] = edge[lo:]
                ends.append(-1)
                through.append(through[child][:])
                child = children[node][y[d]] = len(ends) - 1
                edge = edges[child]
            node, d = child, d + len(edge)
            through[node].append(j)
        ends[node] = j
        self.node_of.append(node)
        return j

    def delete(self, j: int) -> None:
        """Remove the codeword with index j from the set."""
        y, children, edges, through = self.texts[j], self.children, self.edges, self.through
        node = d = 0
        while d < len(y):
            parent, key = node, y[d]
            node = children[parent][key]
            d += len(edges[node])
            through[node].remove(j)
            if not through[node]:  # no codeword is left at or below the node
                del children[parent][key]
                break
        self.ends[self.node_of[j]] = -1

    def is_live(self, j: int) -> bool:
        """Whether the word with index j is in the set."""
        return self.ends[self.node_of[j]] == j

    def factorization(self, word: Word) -> list[int] | None:
        """Indices of codewords whose product is word, or None if there are none.

        A walk from each position that a product of codewords reaches marks
        the positions that one more codeword reaches, so the cost is one
        walk per reached position.  The product found is the unique one when
        the set is a code.
        """
        children, edges, ends = self.children, self.edges, self.ends
        y = _word_str(word)
        n = len(y)
        last = [-1] * (n + 1)  # a codeword ending a product at each reached position
        for i in range(n):
            if i and last[i] < 0:
                continue
            node, d = children[0].get(y[i]), i
            while node is not None and y.startswith(edges[node], d):
                d += len(edges[node])
                if ends[node] >= 0 and last[d] < 0:
                    last[d] = ends[node]
                if d == n:
                    break
                node = children[node].get(y[d])
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
        again.  One walk of s finds the codeword equal to s, the codewords
        that are proper prefixes of s and those that properly extend it.
        They are taken in increasing index, as a scan of every codeword
        would meet them.

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
        texts, children, edges, ends, through = (
            self.texts, self.children, self.edges, self.ends, self.through
        )
        seen: set[str] = set()
        # state: (suffix s, parent, codeword appended to behind, whether ahead
        # and behind then swap); an initial state is (s, None, y, x).
        level: list[tuple] = []
        for i, x in enumerate(texts):
            node = self.node_of[i]
            if ends[node] != i:
                continue
            for j in through[node]:
                if j != i:
                    s = texts[j][len(x) :]
                    if s not in seen:
                        seen.add(s)
                        level.append((s, None, j, i))
        found = False
        while level and not found:
            deeper: list[tuple] = []
            for state in level:
                s = state[0]
                matches: list[int] = []  # codewords that are proper prefixes or extensions of s
                node = d = 0
                while d < len(s):
                    child = children[node].get(s[d])
                    if child is None:
                        break
                    edge = edges[child]
                    if not s.startswith(edge, d):
                        if d + len(edge) > len(s) and edge.startswith(s[d:]):  # s ends inside it
                            matches.extend(through[child])
                        break
                    node, d = child, d + len(edge)
                    if d < len(s) and ends[node] >= 0:
                        matches.append(ends[node])
                else:
                    if ends[node] >= 0:
                        found = True
                        yield state, ends[node]
                        continue
                    matches.extend(through[node])
                if found:
                    continue
                for j in sorted(matches):
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

    Building the index costs one trie walk per word.  Each state costs one
    walk of its suffix, one Python step per trie node on the path, plus the
    codewords that match it.
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
