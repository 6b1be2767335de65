"""Simplification of D0L-systems down to an injective one.

A single simplification of an endomorphism f on A is a pair of morphisms
h: A* -> B*, k: B* -> A* with #B < #A and k o h = f; the simplified
endomorphism is g = h o k on B.  Three constructions cover every
non-injective case, applied in priority order until the morphism is
injective: delete an erasing letter, merge letters with identical images,
and replace the image set by the base of its free hull.

The free hull of a set X of words is the smallest free submonoid containing
it, and its base is a code Y with X in Y*.  When X is not a code, the defect
theorem gives #Y < #X, so code reduction shrinks the alphabet
(Berstel, Perrin & Reutenauer, *Codes and Automata*, ch. 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .morphism import (
    Alphabet,
    D0LSystem,
    Morphism,
    code_witness,
    compose,
    translate_word,
)
from .words import Word

STEP_KINDS = ("erasing-elimination", "duplicate-merge", "code-reduction")


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


def _checked_step(kind: str, f: Morphism, h: Morphism, k: Morphism) -> SimplificationStep:
    # Hard postcondition of every construction below, never skipped.
    if compose(k, h) != f:
        raise SimplificationError(f"{kind}: k o h does not reproduce the input morphism")
    if len(h.target) >= len(h.source):
        raise SimplificationError(f"{kind}: alphabet did not shrink")
    return SimplificationStep(kind, h, k)


def eliminate_erasing(f: Morphism) -> SimplificationStep:
    """Delete the lowest-id letter with an empty image.

    h projects the letter away, k keeps the remaining images verbatim, so
    k o h = f holds exactly and g = h o k drops the letter from all images.
    """
    if not f.is_endomorphism():
        raise ValueError("simplification applies to endomorphisms")
    erasing = [a for a in range(len(f.source)) if not f.image(a)]
    if not erasing:
        raise ValueError("no erasing letter to eliminate")
    if len(f.source) == 1:
        raise SimplificationError(
            "cannot eliminate the only letter: the system's language is finite"
        )
    z = erasing[0]
    keep = [a for a in range(len(f.source)) if a != z]
    sub = Alphabet(tuple(f.source.symbols[a] for a in keep))
    renum = {a: i for i, a in enumerate(keep)}
    h = Morphism(f.source, sub, tuple(() if a == z else (renum[a],) for a in range(len(f.source))))
    k = Morphism(sub, f.source, tuple(f.image(a) for a in keep))
    return _checked_step("erasing-elimination", f, h, k)


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
    for a in range(len(f.source)):
        rep_of_image.setdefault(f.image(a), a)
    if len(rep_of_image) == len(f.source):
        raise ValueError("no two letters share an image")
    reps = sorted(rep_of_image.values())
    sub = Alphabet(tuple(f.source.symbols[a] for a in reps))
    renum = {a: i for i, a in enumerate(reps)}
    h = Morphism(
        f.source, sub, tuple((renum[rep_of_image[f.image(a)]],) for a in range(len(f.source)))
    )
    k = Morphism(sub, f.source, tuple(f.image(a) for a in reps))
    return _checked_step("duplicate-merge", f, h, k)


def _sorted_words(words) -> list[Word]:
    return sorted(words, key=lambda w: (len(w), w))


def _factorization(word: Word, pieces) -> list[Word] | None:
    """One factorization of word over pieces, as a list of pieces, or None."""
    n = len(word)
    start: list[int | None] = [0] + [None] * n  # where a last piece ending here starts
    for i in range(n):
        if start[i] is None:
            continue
        for p in pieces:
            j = i + len(p)
            if j <= n and start[j] is None and word[i:j] == p:
                start[j] = i
    if start[n] is None:
        return None
    out: list[Word] = []
    while n:
        out.append(word[start[n] : n])
        n = start[n]
    return out[::-1]


def _reduce_to_code(images: tuple[Word, ...]) -> list[list[Word]] | None:
    """Factorizations of the images over the base of their free hull, or
    None when the image set X is already a code.

    The free hull is the smallest free submonoid F of A* containing X; its
    base Y is the unique code with Y* = F.  Start from Y = X, each image
    spelled by itself.  While Y is not a code, take a relation from
    ``code_witness``: its head codewords u and v satisfy v = u t with t
    non-empty.  If v factorizes over Y - {v}, drop it; Y* does not change.
    Otherwise replace v by t: the relation gives u, ut, ts, s in F for some
    s, and a free submonoid is stable, so t lies in F.  In the images'
    spellings v becomes its factorization over Y - {v}, or u t.  Either way
    Y stays inside F with X in Y*, and the total length of Y falls, so the
    loop ends, with Y a code, Y* = F and, by the defect theorem, #Y < #X
    whenever X is not a code.  Every member of Y occurs in some spelling,
    since without it the images would lie in a smaller free submonoid.

    This loop is also the injectivity test of a non-erasing morphism with
    distinct images: its first ``code_witness`` call finds no relation
    exactly when the morphism is injective.
    """
    Y = set(images)
    spelled = [[x] for x in images]
    while (relation := code_witness(members := _sorted_words(Y))) is not None:
        u, v = sorted((members[relation[0][0]], members[relation[1][0]]), key=len)
        Y.discard(v)
        replacement = _factorization(v, Y) or [u, v[len(u) :]]
        Y.update(replacement)
        spelled = [[w for y in s for w in (replacement if y == v else [y])] for s in spelled]
    # Every round shortens Y, so Y is still X only if the first test found no relation.
    return None if Y == set(images) else spelled


def _code_step(f: Morphism) -> SimplificationStep | None:
    """Code reduction of f, or None when f's distinct non-empty images
    form a code, that is, when f is injective."""
    spelled = _reduce_to_code(f.images)
    if spelled is None:
        return None
    ordered = _sorted_words({y for spelling in spelled for y in spelling})
    index = {y: i for i, y in enumerate(ordered)}
    fresh = Alphabet(tuple(f"x{i}" for i in range(len(ordered))))
    k = Morphism(fresh, f.source, tuple(ordered))
    h = Morphism(f.source, fresh, tuple(tuple(index[y] for y in spelling) for spelling in spelled))
    return _checked_step("code-reduction", f, h, k)


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

    systems[0] is the (reduced) input; systems[i+1] is the re-reduced system
    obtained from step i.  ``map_back`` undoes the chain on words by applying
    each step's k in reverse order.
    """

    steps: tuple[SimplificationStep, ...]
    systems: tuple[D0LSystem, ...]

    @property
    def final_system(self) -> D0LSystem:
        return self.systems[-1]

    def map_back(self, word: Word) -> Word:
        """Map a word over the final alphabet back to the original alphabet."""
        alphabet = self.final_system.alphabet
        out = tuple(word)
        for step in reversed(self.steps):
            # Re-reduction after a step may have shrunk the alphabet, so embed
            # into the step's own target alphabet first (symbols are preserved).
            out = step.k(translate_word(out, alphabet, step.k.source))
            alphabet = step.k.target
        return out


def injective_simplification(system: D0LSystem) -> SimplificationChain:
    """Simplify until the morphism is injective, re-reducing after each step.

    Steps are chosen in priority order: erasing elimination, duplicate merge,
    code reduction.  Each shrinks the alphabet, so at most #A steps occur.
    A non-erasing morphism with distinct images is injective exactly when
    its images form a code, so the free-hull loop of code reduction is also
    the injectivity test: the chain ends when it finds no relation.  An
    already-injective system yields an empty chain.
    """
    if not system.is_reduced():
        raise ValueError("injective_simplification expects a reduced system")
    systems = [system]
    steps: list[SimplificationStep] = []
    current = system
    while True:
        f = current.morphism
        if f.is_erasing():
            step = eliminate_erasing(f)
        elif len(set(f.images)) != len(f.images):
            step = merge_duplicate_images(f)
        elif (step := _code_step(f)) is None:
            break
        new_axiom = step.h(current.axiom)
        if not new_axiom:
            raise SimplificationError(
                "axiom erased during simplification: the system's language is finite"
            )
        current = D0LSystem(step.simplified(), new_axiom).reduced()
        steps.append(step)
        systems.append(current)
    return SimplificationChain(tuple(steps), tuple(systems))
