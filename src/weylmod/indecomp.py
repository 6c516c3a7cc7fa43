"""Block representation type, quiver indecomposables, and oracle enumeration.

The tame blocks are governed by two quivers, the skeleton quivers of break
orders one and two (``skeleton.skeleton_quiver``) under the names q1 and q2:
a two-vertex quiver with one raising and one lowering arrow, and a
four-vertex cyclic quiver with commuting-square relations.  Their relabelling
is the only quiver data written here.  This module emits the classification
lists (simples, diamonds, strings, bands), converts quiver representations to
and from skeleton-module data, expands them to weight modules, and provides a
brute-force enumeration oracle over finite fields that recounts the
indecomposable isomorphism classes from scratch.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import (
    EnumerationBudgetExceeded,
    RelationViolation,
    WrongBreakOrder,
)
from .fields import FieldDesc, Poly, is_irreducible, iter_monic_polys
from .linalg import Matrix, OpGraph, companion_matrix, gl_generators, iter_matrices
from .orbits import ZERO_SHIFT, OrbitInfo, ShiftVector, Window
from .simples import build_S_O_p
from .skeleton import relation_holds, skeleton_quiver
from .weightmod import SkeletonModuleA, WeightModule, from_skeleton_module, to_skeleton_module

# The relabelling, by break order: the quiver's name, the vertex numbers of the
# skeleton objects by their break bits, and the arrow names by their vertices,
# in layout order.
_NAMED_QUIVERS = {
    1: ("q1", {(0,): 1, (1,): 2}, {"a": (1, 2), "b": (2, 1)}),
    2: (
        "q2",
        {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3},
        {"a0": (0, 1), "b0": (1, 0), "a1": (1, 2), "b1": (2, 1),
         "a2": (2, 3), "b2": (3, 2), "a3": (3, 0), "b3": (0, 3)},
    ),
}
_LAYOUTS = {
    name: (tuple(number.values()), layout) for name, number, layout in _NAMED_QUIVERS.values()
}


@functools.lru_cache(maxsize=None)
def _relabelling(break_set: Tuple[int, ...]):
    """The named quiver of a break set: its name, the vertex of each skeleton
    object, the arrow name of each generator, and the relations as names."""
    name, number, layout = _NAMED_QUIVERS[len(break_set)]
    vertices, arrows, relations = skeleton_quiver(break_set)
    vertex = {alpha: number[tuple(alpha.get(i) for i in break_set)] for alpha in vertices}
    by_ends = {ends: arrow for arrow, ends in layout.items()}
    names = {key: by_ends[vertex[s], vertex[t]] for key, (s, t) in arrows.items()}
    return name, vertex, names, [tuple(map(names.get, rel)) for rel in relations]


# Relations as arrow names: (x, y) says x.y = 0 and (x, y, u, v) says x.y = u.v.
QUIVER_RELATIONS = {name: rels for name, _, _, rels in map(_relabelling, ((1,), (1, 2)))}


def quiver_layout(quiver: str):
    if quiver not in _LAYOUTS:
        raise ValueError(f"unknown quiver {quiver!r}")
    return _LAYOUTS[quiver]


def _quiver_dims(quiver: str, dims) -> Dict[int, int]:
    """The dimension at every vertex of the quiver, 0 where dims is silent.

    Raises ValueError on a key that is not a vertex or a negative dimension.
    """
    vertices, _ = quiver_layout(quiver)
    for v, d in dims.items():
        if v not in vertices:
            raise ValueError(f"quiver {quiver} has no vertex {v!r}")
        if int(d) < 0:
            raise ValueError(f"negative dimension {d} at vertex {v} of quiver {quiver}")
    return {v: int(dims.get(v, 0)) for v in vertices}


class QuiverRep:
    """A representation of one of the two tame-block quivers."""

    def __init__(self, quiver: str, field: FieldDesc, dims, arrows, label: str = ""):
        _, layout = quiver_layout(quiver)
        self.quiver = quiver
        self.field = field
        self.dims = _quiver_dims(quiver, dims)
        self.label = label
        for name in arrows:
            if name not in layout:
                raise ValueError(f"quiver {quiver} has no arrow {name!r}")
        self.arrows: Dict[str, Matrix] = {}
        for name, (src, tgt) in layout.items():
            mat = arrows.get(name)
            if mat is None:
                mat = Matrix.zeros(field, self.dims[tgt], self.dims[src])
            if mat.nrows != self.dims[tgt] or mat.ncols != self.dims[src]:
                raise RelationViolation(
                    f"arrow {name} has shape {mat.nrows}x{mat.ncols}, "
                    f"expected {self.dims[tgt]}x{self.dims[src]}"
                )
            self.arrows[name] = mat

    def graph(self) -> OpGraph:
        """The arrows as operators between the vertex spaces, in layout order."""
        _, layout = quiver_layout(self.quiver)
        ops = [(src, tgt, self.arrows[name]) for name, (src, tgt) in layout.items()]
        return OpGraph(self.field, self.dims, ops)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> Tuple[int, ...]:
        vertices, _ = quiver_layout(self.quiver)
        return tuple(self.dims[v] for v in vertices)

    def encoding(self) -> tuple:
        return (
            self.dim_vector(),
            tuple(self.arrows[n].encoding() for n in sorted(self.arrows)),
        )

    def __eq__(self, other):
        if not isinstance(other, QuiverRep):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.dims == other.dims
            and self.arrows == other.arrows
        )

    def __repr__(self):
        tag = self.label or self.quiver
        return f"QuiverRep({tag}, dims={self.dim_vector()})"


def check_quiver_relations(rep: QuiverRep) -> bool:
    """Whether the representation satisfies its quiver's relations."""
    return all(relation_holds(rep.arrows, rel) for rel in QUIVER_RELATIONS[rep.quiver])


def validate_quiver_rep(rep: QuiverRep):
    if not check_quiver_relations(rep):
        raise RelationViolation(f"{rep!r} fails the quiver relations")
    return rep


# ---- classification lists ---------------------------------------------------


def q1_indecomposables(field: FieldDesc) -> List[QuiverRep]:
    """The four indecomposables of the two-vertex quiver."""
    one = Matrix.identity(field, 1)
    zero = Matrix.zeros(field, 1, 1)
    return [
        QuiverRep("q1", field, {1: 1, 2: 0}, {}, label="S1"),
        QuiverRep("q1", field, {1: 0, 2: 1}, {}, label="S2"),
        QuiverRep("q1", field, {1: 1, 2: 1}, {"a": one, "b": zero}, label="M_a"),
        QuiverRep("q1", field, {1: 1, 2: 1}, {"a": zero, "b": one}, label="M_b"),
    ]


def diamond_module(field: FieldDesc, i: int) -> QuiverRep:
    """One basis vector per vertex, raising twice from vertex i, lowering twice."""
    one = Matrix.identity(field, 1)
    arrows = {
        f"a{i % 4}": one,
        f"a{(i + 1) % 4}": one,
        f"b{(i - 1) % 4}": one,
        f"b{(i - 2) % 4}": one,
    }
    return QuiverRep("q2", field, dict.fromkeys(quiver_layout("q2")[0], 1), arrows, label=f"M{i}")


def string_module(field: FieldDesc, n: int, j: int, eps: int) -> QuiverRep:
    """The length-n string starting at vertex j with parity variant eps.

    Basis vector k (1-based) sits at vertex j + k - 1 mod 4; between
    consecutive vectors the arrow points forward (raising) when the lower
    vertex matches the parity eps, backward (lowering) otherwise.
    """
    if n < 2:
        raise ValueError("strings need length at least 2")
    vertices, layout = quiver_layout("q2")
    vertex = {k: (j + k - 1) % 4 for k in range(1, n + 1)}
    slots: Dict[int, List[int]] = {v: [] for v in vertices}
    for k in range(1, n + 1):
        slots[vertex[k]].append(k)
    dims = {v: len(slots[v]) for v in vertices}
    pos = {k: slots[vertex[k]].index(k) for k in vertex}
    entries = {
        name: [[field.zero()] * dims[src] for _ in range(dims[tgt])]
        for name, (src, tgt) in layout.items()
    }
    one = field.one()
    for k in range(1, n):
        low = vertex[k]
        if low % 2 == eps % 2:
            entries[f"a{low}"][pos[k + 1]][pos[k]] = one
        else:
            entries[f"b{low}"][pos[k]][pos[k + 1]] = one
    arrows = {
        name: Matrix(field, dims[tgt], dims[src], entries[name])
        for name, (src, tgt) in layout.items()
    }
    return QuiverRep("q2", field, dims, arrows, label=f"M({n},{j},{eps})")


def band_module(field: FieldDesc, f: Poly, variant: int) -> QuiverRep:
    """The band with parameter polynomial f, companion matrix on one corner."""
    e = f.degree
    ident = Matrix.identity(field, e)
    comp = companion_matrix(f)
    if variant == 1:
        arrows = {"a0": ident, "a2": ident, "b1": ident, "b3": comp}
    elif variant == 2:
        arrows = {"b0": ident, "b2": ident, "a1": ident, "a3": comp}
    else:
        raise ValueError("band variant must be 1 or 2")
    label = f"Mband({f!r},{variant})"
    return QuiverRep("q2", field, dict.fromkeys(quiver_layout("q2")[0], e), arrows, label=label)


def _poly_nth_root(f: Poly, n: int) -> Optional[Poly]:
    """Monic g with g**n == f, if one exists."""
    if n == 1:
        return f
    if f.degree % n != 0 or not f.is_monic():
        return None
    field = f.field
    m = f.degree // n
    g = Poly(field, [field.zero()] * m + [field.one()])
    n_elem = field.from_int(n)
    if n_elem.is_zero():
        return None  # inseparable exponent; not needed within the budget range
    for k in range(m - 1, -1, -1):
        diff = f - g ** n
        coeff = diff.coeff((n - 1) * m + k) / n_elem
        g = g + Poly(field, [field.zero()] * k + [coeff])
    return g if g ** n == f else None


RATIONAL_HEIGHT = 2  # the largest |coefficient| of a rational ind0 polynomial


def ind0_polys(field: FieldDesc, max_deg: int) -> List[Poly]:
    """Powers of monic irreducibles other than the variable, up to max_deg.

    Over a finite field the list is complete.  Over the rationals the full
    family is infinite; this emits the members with integer coefficients of
    absolute value at most ``RATIONAL_HEIGHT`` (component degree at most 3, so
    membership stays exactly decidable).
    """
    out = []
    if field.is_finite():
        irreducibles = []
        for d in range(1, max_deg + 1):
            for g in iter_monic_polys(field, d):
                if g == Poly.x(field):
                    continue
                if is_irreducible(g) is True:
                    irreducibles.append(g)
        for g in irreducibles:
            power = g
            while power.degree <= max_deg:
                out.append(power)
                power = power * g
        return sorted(out, key=lambda p: p.sort_key())
    span = range(-RATIONAL_HEIGHT, RATIONAL_HEIGHT + 1)
    for d in range(1, max_deg + 1):
        for tail in itertools.product(span, repeat=d):
            f = Poly(field, list(tail) + [1])
            if _ind0_member_q(f):
                out.append(f)
    return sorted(out, key=lambda p: p.sort_key())


def _ind0_member_q(f: Poly) -> bool:
    d = f.degree
    for n in range(d, 0, -1):
        if d % n != 0:
            continue
        g = _poly_nth_root(f, n)
        if g is None:
            continue
        if g == Poly.x(f.field):
            return False
        if g.degree <= 3 and is_irreducible(g) is True:
            return True
    return False


def q2_indecomposables(
    field: FieldDesc, max_string_len: int = 4, max_poly_deg: int = 1
) -> List[QuiverRep]:
    """The classification list for the four-vertex quiver, within bounds.

    Emits the four simples, the four diamonds, all strings of length 2 to
    max_string_len, and both band variants for every admissible parameter
    polynomial of degree at most max_poly_deg.
    """
    vertices, _ = quiver_layout("q2")
    out = [QuiverRep("q2", field, {i: 1}, {}, label=f"S{i}") for i in vertices]
    out += [diamond_module(field, i) for i in vertices]
    for n in range(2, max_string_len + 1):
        for j in vertices:
            for eps in (0, 1):
                out.append(string_module(field, n, j, eps))
    for f in ind0_polys(field, max_poly_deg):
        out.append(band_module(field, f, 1))
        out.append(band_module(field, f, 2))
    for rep in out:
        validate_quiver_rep(rep)
    return out


# ---- indecomposability -------------------------------------------------------


def is_indecomposable_rep(rep: QuiverRep, *, budget: int = 1 << 16) -> bool:
    """Idempotent search in the endomorphism algebra (finite fields)."""
    return rep.graph().is_indecomposable(budget)


# ---- brute-force enumeration oracle -----------------------------------------


def _iter_satisfying(quiver: str, cands) -> Iterator[Tuple[int, ...]]:
    """Every arrow tuple satisfying the quiver's relations, as index tuples.

    ``cands`` maps each arrow name to its list of candidate matrices; a tuple
    holds one position in those lists per arrow, in ``sorted(layout)`` order.
    Arrows are chosen depth first in layout order (each a_l, then b_l).  Each
    relation is checked as soon as its last arrow is chosen, once per choice
    of its candidates; a partial tuple that breaks one is dropped whole.
    """
    _, layout = quiver_layout(quiver)
    names = list(layout)
    due = [[] for _ in names]  # each relation under its last arrow, with its memo
    for rel in QUIVER_RELATIONS[quiver]:
        due[max(map(names.index, rel))].append((rel, itemgetter(*map(names.index, rel)), {}))
    out = itemgetter(*map(names.index, sorted(names)))

    def holds(picked, rel, at, known):
        key = at(picked)
        if key not in known:
            known[key] = relation_holds({n: cands[n][i] for n, i in zip(rel, key)}, rel)
        return known[key]

    # a loop: a recursive closure would be a reference cycle holding cands
    picked, stack = [], [iter(range(len(cands[names[0]])))]
    while stack:
        depth = len(stack) - 1
        del picked[depth:]
        i = next(stack[-1], None)
        if i is None:  # every candidate for this arrow is tried
            stack.pop()
            continue
        picked.append(i)
        if all(holds(picked, *check) for check in due[depth]):
            if len(stack) == len(names):
                yield out(picked)
            else:
                stack.append(iter(range(len(cands[names[len(stack)]]))))


def brute_force_indecomposables(
    quiver: str, field: FieldDesc, dims, *, budget: int = 1 << 22
) -> dict:
    """Recount indecomposable classes at one dimension vector from scratch.

    An arrow tuple is a tuple of positions, one per arrow in ``sorted(layout)``
    order, in the ``iter_matrices`` list of the arrow's shape.
    ``_iter_satisfying`` enumerates the relation-satisfying tuples, pruning a
    partial tuple once it breaks a relation.  They are partitioned into
    isomorphism classes, the orbits of the base-change group, the product of
    GL(d_v) over the vertices, acting by A -> g_tgt A g_src^-1.  Each orbit is
    grown from one member by the generators of ``gl_generators`` at each vertex
    until nothing new appears; in a finite group the products of generators
    are all of the group, so this closure is the whole orbit.  A generator at v
    moves only the arrows at v, each through a table of positions filled on
    first use.  ``iter_matrices`` lists each shape in ``encoding`` order, so the
    least tuple of a class, its representative, has the least encoding and the
    output is deterministic.  Only the representatives become ``QuiverRep``s,
    for the idempotent search and the output.
    """
    vertices, layout = quiver_layout(quiver)
    dims = _quiver_dims(quiver, dims)
    order = field.order()
    if order is None:
        raise EnumerationBudgetExceeded("the enumeration oracle needs a finite field")
    work = 1
    for name, (src, tgt) in layout.items():
        work *= order ** (dims[src] * dims[tgt])
    if work > budget:
        raise EnumerationBudgetExceeded(
            f"enumeration size {work} exceeds budget {budget}"
        )

    names = sorted(layout)
    cands = {n: list(iter_matrices(field, dims[t], dims[s])) for n, (s, t) in layout.items()}
    index = {}  # arrow -> {rows: position}, shared by the moves of that arrow

    def mover(name, v, g, g_inv):
        """A candidate's position -> its image's under the move (v, g, g_inv)."""
        src, tgt = layout[name]
        mats = cands[name]
        if name not in index:
            index[name] = {mat.rows: i for i, mat in enumerate(mats)}
        where, table = index[name], [None] * len(mats)

        def step(i):
            if table[i] is None:
                mat = mats[i]
                if tgt == v:
                    mat = g * mat
                if src == v:
                    mat = mat * g_inv
                table[i] = where[mat.rows]
            return table[i]

        return step

    # each generator at v as the (position, step) pairs of the arrows at v
    moves = [
        [(k, mover(name, v, g, g_inv)) for k, name in enumerate(names) if v in layout[name]]
        for v in vertices
        for g, g_inv in gl_generators(field, dims[v])
    ]
    seen = set()
    classes = []
    satisfying = 0
    for start in _iter_satisfying(quiver, cands):
        satisfying += 1
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for touched in moves:
                moved = list(current)
                for k, step in touched:
                    moved[k] = step(current[k])
                moved = tuple(moved)
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        seen.update(orbit)
        classes.append(min(orbit))

    indecomposables = []
    for code in classes:
        rep = QuiverRep(quiver, field, dims, {n: cands[n][i] for n, i in zip(names, code)})
        if is_indecomposable_rep(rep, budget=budget):
            indecomposables.append((code, rep))
    indecomposables.sort(key=itemgetter(0))
    return {
        "relation_satisfying": satisfying,
        "classes": len(classes),
        "indecomposable_count": len(indecomposables),
        "representatives": [rep for _, rep in indecomposables],
    }


# ---- block classification ----------------------------------------------------


class RepType:
    """Representation type of one block, with the citation that decides it."""

    def __init__(self, value: str, reason: str):
        self.value = value
        self.reason = reason

    def __repr__(self):
        return f"RepType({self.value}: {self.reason})"

    def __eq__(self, other):
        if not isinstance(other, RepType):
            return NotImplemented
        return self.value == other.value and self.reason == other.reason


def classify_block(info: OrbitInfo) -> RepType:
    """Finite / tame / wild for the block of one orbit."""
    if info.char == 0:
        s = len(info.break_set)
        if s == 0:
            return RepType("finite", "Rem 7.17: nondegenerate orbit")
        if s == 1:
            return RepType("finite", "Rem 7.17: maximal break of order 1")
        if s == 2:
            return RepType("tame", "Thm 7.10(i): maximal break of order 2")
        return RepType("wild", f"Thm 7.10(i): maximal break of order {s}")
    n = info.arity
    if n == 1:
        return RepType("tame", "Thm 7.10(ii): n = 1")
    return RepType("wild", f"Thm 7.10(ii): n = {n}")


# ---- weight modules for the tame blocks --------------------------------------


def _block_relabelling(info: OrbitInfo, quiver: Optional[str] = None):
    """The relabelling of the block's named quiver, which must be ``quiver``
    when one is given; a block in characteristic p, or with a break of
    another order, has none."""
    named = _NAMED_QUIVERS.get(len(info.break_set)) if info.char == 0 else None
    if named is None or quiver not in (None, named[0]):
        block = f"characteristic {info.char}, break order {len(info.break_set)}"
        raise WrongBreakOrder(f"no quiver {quiver or 'q1 or q2'} for the block ({block})")
    return _relabelling(info.break_set)


def rep_to_skeleton_module(rep: QuiverRep, info: OrbitInfo) -> SkeletonModuleA:
    """The skeleton data of a representation of the block's named quiver.

    ``SkeletonModuleA`` checks the relations, so a representation that
    breaks them raises :class:`RelationViolation` here.
    """
    _, vertex, names, _ = _block_relabelling(info, rep.quiver)
    values = {alpha: rep.dims[v] for alpha, v in vertex.items()}
    ab = {"a": {}, "b": {}}
    for (letter, alpha, i), name in names.items():
        ab[letter][alpha, i] = rep.arrows[name]
    return SkeletonModuleA(info.residue.desc, info.break_set, values, ab["a"], ab["b"])


def skeleton_module_to_rep(data: SkeletonModuleA, info: OrbitInfo) -> QuiverRep:
    """The representation of the block's named quiver made of skeleton data."""
    quiver, vertex, names, _ = _block_relabelling(info)
    dims = {v: data.dim(alpha) for alpha, v in vertex.items()}
    return QuiverRep(quiver, data.field, dims, {n: data.arrows[k] for k, n in names.items()})


def rep_to_weight_module(
    rep: QuiverRep, info: OrbitInfo, window: Optional[Window] = None
) -> WeightModule:
    """Expand a quiver representation of the block's quiver to a weight module."""
    return from_skeleton_module(rep_to_skeleton_module(rep, info), info, window)


def weight_module_to_rep(module: WeightModule) -> QuiverRep:
    """Read the quiver representation back off a tame-block weight module."""
    return skeleton_module_to_rep(to_skeleton_module(module), module.info)


def build_order1_modules(
    info: OrbitInfo, window: Optional[Window] = None
) -> List[Tuple[str, WeightModule]]:
    """The four indecomposable weight modules of an order-1 break block.

    The two simples are region modules; the other two glue the regions with
    an identity raising (lowering zeroed on the downward crossing) or an
    identity lowering (raising zeroed on the upward crossing).
    """
    if info.char != 0 or len(info.break_set) != 1:
        raise WrongBreakOrder("needs characteristic zero and an order-1 break")
    (i,) = info.break_set
    out = [
        ("S(base)", build_S_O_p(info, ZERO_SHIFT, window)),
        ("S(raised)", build_S_O_p(info, ShiftVector.e(i), window)),
    ]
    for rep in q1_indecomposables(info.residue.desc)[2:]:
        label = "M(raise)" if rep.label == "M_a" else "M(lower)"
        out.append((label, rep_to_weight_module(rep, info, window)))
    return out


def build_order2_module(
    info: OrbitInfo, rep: QuiverRep, window: Optional[Window] = None
) -> WeightModule:
    """Expand a four-vertex quiver representation over an order-2 break."""
    if rep.quiver != "q2":
        raise WrongBreakOrder("representation is not over the four-vertex quiver")
    return rep_to_weight_module(rep, info, window)
