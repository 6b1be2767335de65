"""Simplification of D0L-systems down to an injective one.

A single simplification of an endomorphism f on A is a pair of morphisms
h: A* -> B*, k: B* -> A* with #B < #A and k o h = f; the simplified
endomorphism is g = h o k on B.  Three constructions cover every
non-injective case, applied in priority order until the morphism is
injective: delete every erasing letter at once (so the erasing steps
number the mortality depth, not the mortal letters), merge letters with
identical images, and replace the image set by the base of its free hull.
A period of the final system comes back through each k as a primitive root.

``_step`` builds and checks (k o h = f, #B < #A) every step.  Erasing
elimination and the merge are letter quotients, ``_quotient``: h sends each
letter to its representative, or to the empty word where f erases it.

The free hull of a set X of words is the smallest free submonoid containing
it, and its base is a code Y with X in Y*.  When X is not a code, the defect
theorem gives #Y < #X, so code reduction shrinks the alphabet
(Berstel, Perrin & Reutenauer, *Codes and Automata*, ch. 1).

Code reduction, ``_reduce_to_code``, holds Y in one ``CodewordIndex`` of
``morphism.py``, built once per step from X and edited in place by the
relations of one breadth-first Sardinas-Patterson search per round.  When
a search finds none, Y is the base, and Y and h are read off the index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .morphism import (
    Alphabet,
    CodewordIndex,
    D0LSystem,
    Morphism,
    compose,
    relation_heads,
)
from .words import Word, _str_word, _word_str, primitive_root


class SimplificationError(RuntimeError):
    """A simplification step could not be carried out."""


@dataclass(frozen=True)
class SimplificationStep:
    """One simplification: h maps the old alphabet onto the new, k maps back."""

    kind: str
    h: Morphism
    k: Morphism

    def simplified(self) -> Morphism:
        """The reduced endomorphism g = h o k on the smaller alphabet."""
        return compose(self.h, self.k)


def _step(
    kind: str, f: Morphism, symbols: list[str], h_images: list[Word], k_images: list[Word]
) -> SimplificationStep:
    """The step (h, k) of f onto letters named by symbols, h and k given by
    their images; raises SimplificationError unless k o h = f and #B < #A."""
    target = Alphabet(symbols)
    h = Morphism(f.source, target, h_images)
    k = Morphism(target, f.source, k_images)
    # Hard postcondition of every step, never skipped.  h.source and
    # k.target are f.source, which every caller's endomorphism f has as its
    # target too, so k o h = f holds exactly when it holds on every image.
    if tuple(map(k, h.images)) != f.images:
        raise SimplificationError(f"{kind}: k o h does not reproduce the input morphism")
    if len(target) >= len(f.source):
        raise SimplificationError(f"{kind}: alphabet did not shrink")
    return SimplificationStep(kind, h, k)


def _quotient(kind: str, f: Morphism, rep: list[int | None]) -> SimplificationStep:
    """The step onto the letters a with rep[a] == a, under their symbols: h
    sends a to rep[a], or erases it where rep[a] is None, and k sends r to f(r)."""
    reps = [a for a, r in enumerate(rep) if r == a]
    new = {a: (i,) for i, a in enumerate(reps)}
    symbols = [f.source.symbols[a] for a in reps]
    return _step(kind, f, symbols, [new.get(r, ()) for r in rep], [f.images[a] for a in reps])


def eliminate_erasing(f: Morphism) -> SimplificationStep:
    """Delete every letter with an empty image in one step.

    h sends the erasing letters to the empty word and every other letter to
    itself, k keeps the other images verbatim, so k o h = f holds exactly
    and g = h o k drops the erasing letters from all images.
    """
    if not f.is_endomorphism():
        raise ValueError("simplification applies to endomorphisms")
    rep = [a if image else None for a, image in enumerate(f.images)]
    if None not in rep:
        raise ValueError("no erasing letter to eliminate")
    if rep.count(None) == len(rep):
        raise SimplificationError("cannot eliminate every letter: the language is finite")
    return _quotient("erasing-elimination", f, rep)


def merge_duplicate_images(f: Morphism) -> SimplificationStep:
    """Quotient the alphabet by image equality (non-erasing f required).

    Each class keeps its lowest-id letter as representative; h sends a letter
    to its representative, k sends a representative to the shared image.
    """
    if not f.is_endomorphism():
        raise ValueError("simplification applies to endomorphisms")
    if f.is_erasing():
        raise ValueError("merge requires a non-erasing morphism")
    rep_of_image: dict[Word, int] = {}
    rep = [rep_of_image.setdefault(image, a) for a, image in enumerate(f.images)]
    if len(rep_of_image) == len(f.source):
        raise ValueError("no two letters share an image")
    return _quotient("duplicate-merge", f, rep)


def _reduce_to_code(images: tuple[Word, ...]) -> tuple[list[Word], list[Word]] | None:
    """The step of code reduction as (members, h_images), or None when the
    image set X is a code: members lists the base Y of X's free hull by
    length, then letter ids, and h_images[a] spells image a over Y as
    positions in members.

    The free hull is the smallest free submonoid F of A* containing X; its
    base Y is the unique code with Y* = F.  Start from Y = X, held in one
    ``CodewordIndex`` of strings for the whole step.  Each round runs one
    search, ``CodewordIndex.relations``, and applies the relations it yields
    in order.  A relation's head codewords u and v satisfy v = u t with t
    non-empty.  If v is no longer in Y, an earlier relation of the round
    removed it and the relation is skipped.  Otherwise v is dropped when it
    factorizes over Y - {v}, and replaced by t when it does not.  The loop
    ends at the first search that finds no relation.

    Applying several relations per search is exact.  A relation found over
    any Y inside F gives u, ut, ts, s in F for some s, and a free submonoid
    is stable, so t lies in F, even after earlier relations of the same
    round changed Y.  u was in Y when the search ran and Y* only grows, so
    u lies in the current Y*; it is shorter than v, so its factorization
    avoids v, and v = u t lies in (Y - {v} + {t})*.  So Y stays inside F,
    Y* only grows and X stays in Y*.  Each applied relation lowers the
    total length of Y, so the loop ends, with Y a code, Y inside F and X in
    Y*, hence Y* = F.  By the defect theorem #Y < #X whenever X is not a
    code.

    The search stops at the first BFS level that completes a relation:
    it tests the whole level for completion before extending any of its
    states, and extends none of them then.  Searching on would yield more
    relations per search, but its states are suffixes of the long images.
    On family A of ``test_code_reduce_drops_generated_words`` at k = 16,
    whose images reach 2^15 letters, searching to exhaustion took 1.7 s and
    546 MB on 2 vCPUs, against 0.17 s and 31 MB with the cut.

    Y is the index's live words, whose strings sort as the words do, since
    ``chr`` keeps letter ids in order.  Each image is spelled once, at the
    end, by its factorization over Y, which is unique since Y is a code.
    Every member of Y occurs in some spelling, since without it the images
    would lie in a smaller free submonoid.

    Cost: the index is built once, with one prefix query and one insertion
    into a sorted list per word.  A round costs one search, plus, for each
    applied relation, a deletion, a factorization of v (one dict lookup
    per live length of the codewords that start with the letter there, at
    each position of v that products of Y reach) and at most one
    insertion.  The index takes space linear in the summed length of the
    words ever inserted, as a word has fewer codewords as proper prefixes
    than it has letters; a search holds one state per distinct dangling
    suffix, each a copy of that suffix at one character per letter.

    This loop is also the injectivity test of a non-erasing morphism with
    distinct images: its first search finds no relation exactly when the
    morphism is injective.
    """
    index = CodewordIndex(map(_word_str, images))
    relations = list(index.relations())
    if not relations:
        return None
    texts = index.texts
    while relations:
        for relation in relations:
            u, v = relation_heads(relation)
            if index.is_live(v):
                index.delete(v)
                if index.factorization(texts[v]) is None:
                    index.insert(texts[v][len(texts[u]) :])
        relations = list(index.relations())
    # The images took indices 0, 1, ... in order; one still in Y spells itself.
    members = sorted((j for j in range(len(texts)) if index.is_live(j)), key=lambda j: (len(texts[j]), texts[j]))
    rank = {j: i for i, j in enumerate(members)}
    h_images = [
        (rank[i],) if i in rank else tuple(rank[j] for j in index.factorization(texts[i])) for i in range(len(images))
    ]
    return [_str_word(texts[j]) for j in members], h_images


def _code_step(f: Morphism) -> SimplificationStep | None:
    """Code reduction of f, or None when f's distinct non-empty images
    form a code, that is, when f is injective."""
    reduced = _reduce_to_code(f.images)
    if reduced is None:
        return None
    members, h_images = reduced
    return _step("code-reduction", f, [f"x{i}" for i in range(len(members))], h_images, members)


def code_reduce(f: Morphism) -> SimplificationStep:
    """Shrink a non-erasing, duplicate-free, non-injective morphism via a code.

    The image set X is replaced by the base Y of its free hull, the code
    with Y* the smallest free submonoid containing X; #Y < #X.  Fresh
    letters x0, x1, ... name Y's members (ordered by length, then letter ids);
    k maps a fresh letter to its word and h(a) spells f(a) over Y, as the
    free-hull loop leaves it, which forces k o h = f.
    """
    if not f.is_endomorphism():
        raise ValueError("simplification applies to endomorphisms")
    if f.is_erasing():
        raise ValueError("code reduction requires a non-erasing morphism")
    if len(set(f.images)) != len(f.images):
        raise ValueError("code reduction requires pairwise distinct images")
    if (step := _code_step(f)) is None:
        raise ValueError("image set is already a code; nothing to reduce")
    return step


@dataclass(frozen=True)
class SimplificationChain:
    """Sequence of simplification steps ending in an injective system.

    systems[0] is the (reduced) input; systems[i+1] is the system
    (g, h(axiom)) obtained from step i, with g = h o k.  It is reduced as
    it stands: g^n(h(w)) = h(f^n(w)), and every letter of the new alphabet
    occurs in some h(a) (each kept letter for erasing elimination, each
    representative for a merge, each member of the code for code
    reduction), so every new letter is reachable when every old one is.
    Each step's target alphabet is therefore the next system's alphabet, and
    ``map_back`` carries a word of the final system back to the input's
    alphabet through each step's k in reverse order.
    """

    steps: tuple[SimplificationStep, ...]
    systems: tuple[D0LSystem, ...]

    @property
    def final_system(self) -> D0LSystem:
        return self.systems[-1]

    def map_back(self, word: Word) -> Word:
        """The primitive root of k_1(k_2(... k_n(word))), over systems[0]'s alphabet.

        The root is taken after each k, which is exact as every k is
        non-erasing and k(r^m) = k(r)^m.  So each word carried back is the
        root of a repetition of one of the chain's systems, never a power.
        """
        out = primitive_root(word)
        for step in reversed(self.steps):
            out = primitive_root(step.k(out))
        return out


def injective_simplification(system: D0LSystem) -> SimplificationChain:
    """Simplify until the morphism is injective.

    Steps are chosen in priority order: erasing elimination, duplicate merge,
    code reduction.  Each shrinks the alphabet, so at most #A steps occur.
    A non-erasing morphism with distinct images is injective exactly when
    its images form a code, so the free-hull loop of code reduction is also
    the injectivity test: the chain ends when it finds no relation.  An
    already-injective system yields an empty chain.  Every system of the
    chain is reduced as built (see ``SimplificationChain``), and h(axiom) is
    never empty: only erasing elimination's h erases, and a reduced system
    whose axiom holds only erasing letters has no other letter, which
    ``eliminate_erasing`` refuses.
    """
    if not system.is_reduced():
        raise ValueError("injective_simplification expects a reduced system")
    systems = [system]
    steps: list[SimplificationStep] = []
    while True:
        f = systems[-1].morphism
        if f.is_erasing():
            step = eliminate_erasing(f)
        elif len(set(f.images)) != len(f.images):
            step = merge_duplicate_images(f)
        elif (step := _code_step(f)) is None:
            break
        steps.append(step)
        systems.append(D0LSystem(step.simplified(), step.h(systems[-1].axiom)))
    return SimplificationChain(tuple(steps), tuple(systems))
