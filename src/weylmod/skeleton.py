"""Skeleton algebras of an orbit block and their normal-form arithmetic.

Characteristic zero gives a finite-dimensional category on the 0/1 vectors
supported on the break set, with raising/lowering generators a_i, b_i whose
only rewrite rule is a_i b_i = b_i a_i = 0 (morphisms are stored index-sorted,
so the commuting squares hold definitionally).  Positive characteristic gives
a one-object algebra with generators a_i, b_i over the break set, invertible
c_j elsewhere, and coefficients twisted by the residue-field automorphisms.

Each algebra is stated once, as a quiver with relations: the
characteristic-zero one as :func:`skeleton_quiver`, read by
``build_skeleton`` and the quivers q1 and q2 of ``indecomp``; the
characteristic-p one as the one-vertex :func:`skeleton_loops`, read by
``build_skeleton``.  One module class, ``weightmod.SkeletonModule``, holds
data over either: a matrix per arrow, keyed as in the generator map of
``build_skeleton``, checked with :func:`relation_holds` once, when the data
is built.  The generator map says which path of a weight module realizes
each arrow, and ``weightmod.to_skeleton_module`` reads the matrices along
it.  The letters of a :class:`SkelMorphismA` are those of
:func:`hom_space_A`, and the one coefficient twist, in :func:`compose_B` as
in ``weightmod``, is ``OrbitInfo.sigma_twist``.

Skeleton objects are represented by ShiftVector values with 0/1 entries, the
same coordinates used for orbit regions.
"""

from __future__ import annotations

import functools
import itertools
from typing import Tuple

from .errors import FieldMismatch, ObjectMismatch
from .fields import FieldDesc, FieldElem
from .orbits import ZERO_SHIFT, OrbitInfo, ShiftVector, zero_one_vectors

SkelObjectA = ShiftVector  # 0/1-supported vector over the break index set


def _validate_object(alpha: ShiftVector):
    if any(v not in (0, 1) for _, v in alpha.entries):
        raise ValueError(f"{alpha!r} is not a 0/1 vector")


class SkelMorphismA:
    """Normal-form morphism of the characteristic-zero skeleton algebra.

    A scalar multiple of the unique letter monomial between two objects:
    ``letters`` maps an index to 'a' (bit rises 0 -> 1) or 'b' (falls).  The
    zero morphism has coefficient zero and no letters.
    """

    __slots__ = ("source", "target", "coeff", "letters")

    def __init__(self, source, target, coeff: FieldElem, letters=()):
        letters = tuple(sorted((int(i), l) for i, l in letters))
        joining = hom_space_A(source, target)["letters"]  # checks both objects
        if not coeff.is_zero() and letters != joining:
            raise ValueError(f"letters {letters} do not join {source!r} to {target!r}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "letters", letters if not coeff.is_zero() else ())

    def __setattr__(self, *args):
        raise AttributeError("SkelMorphismA is immutable")

    @classmethod
    def identity(cls, field: FieldDesc, alpha: ShiftVector) -> "SkelMorphismA":
        return cls(alpha, alpha, field.one())

    @classmethod
    def zero(cls, field: FieldDesc, source, target) -> "SkelMorphismA":
        return cls(source, target, field.zero())

    @classmethod
    def gen_a(cls, field: FieldDesc, alpha: ShiftVector, i: int) -> "SkelMorphismA":
        if alpha.get(i) != 0:
            raise ValueError(f"a-generator needs bit 0 at {i}")
        return cls(alpha, alpha.step(i, 1), field.one(), ((i, "a"),))

    @classmethod
    def gen_b(cls, field: FieldDesc, alpha: ShiftVector, i: int) -> "SkelMorphismA":
        if alpha.get(i) != 0:
            raise ValueError(f"b-generator is indexed by the lower object")
        return cls(alpha.step(i, 1), alpha, field.one(), ((i, "b"),))

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def scale(self, c: FieldElem) -> "SkelMorphismA":
        return SkelMorphismA(self.source, self.target, self.coeff * c, self.letters)

    def __eq__(self, other):
        if not isinstance(other, SkelMorphismA):
            return NotImplemented
        if self.coeff.is_zero() and other.coeff.is_zero():
            return self.source == other.source and self.target == other.target
        return (
            self.source == other.source
            and self.target == other.target
            and self.coeff == other.coeff
            and self.letters == other.letters
        )

    def __hash__(self):
        if self.coeff.is_zero():
            return hash((self.source, self.target, "zero"))
        return hash((self.source, self.target, self.coeff, self.letters))

    def __repr__(self):
        if self.is_zero():
            return f"0:{self.source!r}->{self.target!r}"
        word = "*".join(f"{l}_{i}" for i, l in self.letters) or "1"
        return f"({self.coeff!r})*{word}:{self.source!r}->{self.target!r}"


def compose_A(u: SkelMorphismA, v: SkelMorphismA) -> SkelMorphismA:
    """The composite u after v.  Zero when a letter index is used twice."""
    if u.coeff.field != v.coeff.field:
        raise FieldMismatch("morphisms over different fields")
    if v.target != u.source:
        raise ObjectMismatch(f"cannot compose through {v.target!r} vs {u.source!r}")
    if u.is_zero() or v.is_zero():
        return SkelMorphismA.zero(u.coeff.field, v.source, u.target)
    used_u = {i for i, _ in u.letters}
    used_v = {i for i, _ in v.letters}
    if used_u & used_v:
        return SkelMorphismA.zero(u.coeff.field, v.source, u.target)
    return SkelMorphismA(
        v.source, u.target, u.coeff * v.coeff, u.letters + v.letters
    )


def hom_space_A(alpha: ShiftVector, beta: ShiftVector) -> dict:
    """Basis description of the (at most one-dimensional) hom space."""
    _validate_object(alpha)
    _validate_object(beta)
    letters = []
    for i in sorted(set(alpha.support) | set(beta.support)):
        s, t = alpha.get(i), beta.get(i)
        if s == t:
            continue
        letters.append((i, "a" if t > s else "b"))
    return {
        "dim": 1,
        "identity": not letters,
        "letters": tuple(letters),
    }


def algebra_dim_A(break_count: int) -> int:
    """Total dimension of the characteristic-zero skeleton algebra."""
    return 4 ** break_count


class SkelMorphismB:
    """Normal-form monomial of the one-object positive-characteristic algebra.

    coefficient on the left, then per index a single signed-power token:
    a^k or b^k (k >= 1) on break indices, c^m (m != 0) elsewhere.
    """

    __slots__ = ("coeff", "word")

    def __init__(self, coeff: FieldElem, word=()):
        word = tuple(sorted((int(i), l, int(e)) for i, l, e in word if int(e) != 0))
        for i, l, e in word:
            if l in ("a", "b") and e < 1:
                raise ValueError("a/b powers must be positive")
            if l not in ("a", "b", "c"):
                raise ValueError(f"unknown letter {l!r}")
        seen = set()
        for i, _, _ in word:
            if i in seen:
                raise ValueError(f"two tokens at index {i}")
            seen.add(i)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "word", word if not coeff.is_zero() else ())

    def __setattr__(self, *args):
        raise AttributeError("SkelMorphismB is immutable")

    @classmethod
    def identity(cls, field: FieldDesc) -> "SkelMorphismB":
        return cls(field.one())

    @classmethod
    def zero(cls, field: FieldDesc) -> "SkelMorphismB":
        return cls(field.zero())

    @classmethod
    def gen(cls, field: FieldDesc, letter: str, i: int, exp: int = 1) -> "SkelMorphismB":
        return cls(field.one(), ((i, letter, exp),))

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SkelMorphismB):
            return NotImplemented
        return self.coeff == other.coeff and self.word == other.word

    def __hash__(self):
        return hash((self.coeff, self.word))

    def __repr__(self):
        if self.is_zero():
            return "0"
        toks = [f"{l}_{i}^{e}" for i, l, e in self.word] or ["1"]
        return f"({self.coeff!r})*" + "*".join(toks)


def compose_B(u: SkelMorphismB, v: SkelMorphismB, info: OrbitInfo) -> SkelMorphismB:
    """Product u * v with v's coefficient moved to the left across u's word,
    through ``info.sigma_twist``: b lowers, a and c raise."""
    field = u.coeff.field
    if u.is_zero() or v.is_zero():
        return SkelMorphismB.zero(field)
    coeff = u.coeff * info.sigma_twist(v.coeff, {i: -e if l == "b" else e for i, l, e in u.word})
    merged = {i: (l, e) for i, l, e in u.word}
    for i, l, e in v.word:
        if i not in merged:
            merged[i] = (l, e)
            continue
        l0, e0 = merged[i]
        if l0 == l:
            total = e0 + e
            if total == 0:
                del merged[i]
            else:
                merged[i] = (l, total)
        elif {l0, l} == {"a", "b"}:
            return SkelMorphismB.zero(field)
        else:
            raise ValueError(f"letters {l0}/{l} cannot share index {i}")
    word = tuple((i, l, e) for i, (l, e) in merged.items())
    return SkelMorphismB(coeff, word)


@functools.lru_cache(maxsize=None)
def skeleton_quiver(break_set: Tuple[int, ...]):
    """The characteristic-zero skeleton algebra of a break set, as a quiver:
    (vertices, arrows, relations).

    The vertices are the 0/1 vectors on the break set, in ``sort_key`` order.
    ``arrows`` maps each generator ("a", alpha, i), alpha -> alpha + e_i, and
    ("b", alpha, i), back, to its (source, target).  ``relations`` are arrow
    words, (x, y) for x.y = 0 and (x, y, u, v) for x.y = u.v, x.y meaning y
    then x: b.a = a.b = 0 at each crossing, and on each square of two break
    indices i < j, from each corner, crossing j then i equals i then j.
    """
    vertices = zero_one_vectors(break_set)

    def cross(gamma, i):  # the arrow leaving gamma across break index i
        return ("a", gamma, i) if gamma.get(i) == 0 else ("b", gamma.step(i, -1), i)

    def flip(gamma, i):
        return gamma.step(i, 1 - 2 * gamma.get(i))

    arrows, relations = {}, []
    for alpha in vertices:
        for i in break_set:
            if alpha.get(i) != 0:
                continue
            up = alpha.step(i, 1)
            arrows[("a", alpha, i)] = (alpha, up)
            arrows[("b", alpha, i)] = (up, alpha)
            relations += [(cross(up, i), cross(alpha, i)), (cross(alpha, i), cross(up, i))]
            relations += [
                (cross(flip(c, j), i), cross(c, j), cross(flip(c, i), j), cross(c, i))
                for j in break_set
                if j > i and alpha.get(j) == 0
                for c in (alpha, alpha.step(j, 1), up, up.step(j, 1))
            ]
    return vertices, arrows, tuple(relations)


@functools.lru_cache(maxsize=None)
def skeleton_loops(break_set: Tuple[int, ...], others: Tuple[int, ...]):
    """The characteristic-p skeleton algebra, as a one-vertex quiver:
    (vertices, arrows, relations), read as in :func:`skeleton_quiver`.

    The one vertex is ZERO_SHIFT.  The arrows are loops there: ("a", i) and
    ("b", i) at each break index i, and ("c", j) at each of the ``others``.
    The relations are (x,) for an invertible x, each c; (x, y) for x.y = 0,
    a.b = b.a = 0 at each break index; and (x, y, y, x) for x.y = y.x, for
    each pair x before y of loops at different indices.  A loop in a
    direction that twists coefficients acts semilinearly, so x.y applies x's
    twist to y (the ``twist`` of :func:`relation_holds`).
    """
    loops = [(l, i) for i in break_set for l in "ab"] + [("c", j) for j in others]
    relations = [rel for i in break_set for rel in ((("a", i), ("b", i)), (("b", i), ("a", i)))]
    relations += [(("c", j),) for j in others]
    relations += [(x, y, y, x) for x, y in itertools.combinations(loops, 2) if x[1] != y[1]]
    return (ZERO_SHIFT,), {x: (ZERO_SHIFT, ZERO_SHIFT) for x in loops}, tuple(relations)


def relation_holds(arrows, rel, twist=None) -> bool:
    """Whether the matrices ``arrows`` satisfy one zero or commuting relation,
    written as in :func:`skeleton_quiver` with x.y the matrix product, y's
    coefficients first moved across x by ``twist(x, mat)`` when it is given."""

    def prod(x, y):
        return arrows[x] * (arrows[y] if twist is None else twist(x, arrows[y]))

    return prod(*rel).is_zero() if len(rel) == 2 else prod(*rel[:2]) == prod(*rel[2:])


class SkeletonAlgebra:
    """Descriptor of the skeleton algebra of one orbit, with the functor data.

    ``gmap`` records, for each algebra generator, the path of raising (X) and
    lowering (Y) steps realizing it on weight modules: a start weight plus a
    step list.  ``weightmod.to_skeleton_module`` reads each generator's matrix
    along its path.
    """

    def __init__(self, kind: str, info: OrbitInfo, objects: Tuple[ShiftVector, ...], gmap: dict):
        self.kind = kind
        self.info = info
        self.field = info.residue.desc
        self.break_set = info.break_set
        self.nonbreak_set = info.nonbreak_set
        self.tau = dict(info.tau)
        self.objects = objects
        self.gmap = gmap
        # coefficient arithmetic is linear exactly when no direction twists
        self.linear = all(v != "sigma" for v in self.tau.values())

    def __repr__(self):
        return (
            f"SkeletonAlgebra(kind={self.kind}, breaks={list(self.break_set)}, "
            f"objects={len(self.objects)})"
        )


def build_skeleton(info: OrbitInfo) -> SkeletonAlgebra:
    """The skeleton algebra of the orbit, with generator realizations.

    Characteristic zero: the finite category on the region representatives,
    generated by one raising and one lowering step at each break index
    (:func:`skeleton_quiver`).  Characteristic p: the one-object algebra
    (:func:`skeleton_loops`) whose generators are realized by full cycles of
    raising (a, c) or lowering (b) steps in their direction.
    """
    if info.char == 0:
        kind, (objects, arrows, _) = "A", skeleton_quiver(info.break_set)
    else:
        kind, (objects, arrows, _) = "B", skeleton_loops(info.break_set, info.nonbreak_set)

    def steps(x):  # a char-0 arrow is one step, a char-p loop a full cycle
        return (("Y" if x[0] == "b" else "X", x[-1]),) * (info.period(x[-1]) or 1)

    gmap = {x: {"start": source, "steps": steps(x)} for x, (source, _) in arrows.items()}
    return SkeletonAlgebra(kind, info, objects, gmap)
