"""Windowed weight modules with exact relation checks and translation functors.

A weight module is stored as one exact matrix per raising or lowering step
that stays in its window, over the residue field of the orbit's base point;
a step that leaves the window has no matrix.  In positive characteristic a
direction whose shift fixes the base point acts semilinearly; such matrices
carry an implicit coefficient twist, and every composition here routes
through :meth:`WeightModule.compose_op`, which applies it.  Paths are words
of ("X", i) raising and ("Y", i) lowering steps, composed by one walker,
:meth:`WeightModule.walk`: ``evaluate_path`` wraps it, and
:func:`verify_relations` checks each defining relation as a pair of words
walked from the same weight.  Every step from one weight to the next is read
from the window's step table (:meth:`Window.step`); ``OrbitInfo.step`` stays
the independent reference that the tests check the table against.

The two functors between weight modules and skeleton modules are mutually
inverse, and all of the classifying constructions elsewhere in the package
are expansions of skeleton data.  Both read the generators by their keys in
the generator map of ``skeleton.build_skeleton``, in one loop for both
characteristics: :func:`from_skeleton_module` places each one on the steps
across a wall, and :func:`to_skeleton_module` reads it along its path.
Skeleton data (:class:`SkeletonModuleA`, :class:`SkeletonModuleB`) is checked
once, when it is built, against the quiver with relations that states its
algebra (``skeleton.skeleton_quiver``, ``skeleton.skeleton_loops``); that is
the one check of the skeleton relations.  The coefficient twist of a
semilinear product is ``OrbitInfo.sigma_twist``.  Every module class refuses
a negative dimension, or one recorded off its window or objects, and
:class:`WeightModule` a matrix off its window's steps, with ``ValueError``.

The oracles (closures, simplicity, indecomposability) run on the
``linalg.OpGraph`` of a module's :class:`KLinearization`, the shape quiver
representations share, with its one closure loop, Hom solver and search.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .errors import (
    EnumerationBudgetExceeded,
    FieldMismatch,
    InfiniteDimension,
    RelationViolation,
    WindowTooSmall,
)
from .fields import FieldDesc, FieldElem, Poly, kbasis, rational_roots, to_kvec
from .linalg import Matrix, OpGraph, solve_intertwiners
from .orbits import (
    ZERO_SHIFT,
    OrbitInfo,
    ShiftVector,
    Window,
    canonical_skeleton_rep,
    make_window,
)
from .skeleton import build_skeleton, relation_holds, skeleton_loops, skeleton_quiver

def _merge_twists(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    out = dict(a)
    for i, e in b.items():
        out[i] = out.get(i, 0) + e
        if out[i] == 0:
            del out[i]
    return out


def _apply_twist(info: OrbitInfo, mat: Matrix, twist: Dict[int, int]) -> Matrix:
    """``mat`` with the coefficient twist applied to every entry."""
    if not any(twist.values()):
        return mat
    return mat.map_entries(lambda c: info.sigma_twist(c, twist))


def _check_dims(dims, places, where: str):
    """Refuse a negative dimension, or one recorded outside ``places``."""
    for at, d in dims.items():
        if at not in places:
            raise ValueError(f"dimension recorded at {at!r}, outside the {where}")
        if d < 0:
            raise ValueError(f"negative dimension {d} at {at!r}")


class WeightModule:
    """A weight module materialized on a finite window of weights.

    ``spaces`` gives a dimension >= 0 at each window weight, and ``xmat`` and
    ``dmat`` a matrix keyed (index, weight) for each step that stays in the
    window, and nothing else (``ValueError`` otherwise); a missing one or a
    misshapen matrix raises :class:`WindowTooSmall` or :class:`RelationViolation`.
    ``x``/``d`` give None where the step leaves the window.
    """

    def __init__(self, info: OrbitInfo, window: Window, spaces, xmat, dmat):
        self.info = info
        self.window = window
        self.spaces = {g: int(d) for g, d in spaces.items()}
        self.xmat = dict(xmat)
        self.dmat = dict(dmat)
        self.field = info.residue.desc
        self._validate()

    def _validate(self):
        _check_dims(self.spaces, self.window, "window")
        steps = 0
        for gamma in self.window:
            if gamma not in self.spaces:
                raise WindowTooSmall(f"no space recorded at {gamma!r}")
            for i in self.window.indices:
                for store, direction in ((self.xmat, 1), (self.dmat, -1)):
                    target = self.window.step(gamma, i, direction)
                    if target is None:
                        continue
                    steps += 1
                    mat = store.get((i, gamma))
                    if not isinstance(mat, Matrix):
                        raise WindowTooSmall(f"missing matrix for index {i} at {gamma!r}")
                    if mat.nrows != self.spaces[target] or mat.ncols != self.spaces[gamma]:
                        raise RelationViolation(
                            f"shape mismatch at {gamma!r} index {i}: "
                            f"{mat.nrows}x{mat.ncols}"
                        )
        if len(self.xmat) + len(self.dmat) > steps:  # a matrix is off the window's steps
            for store, direction in ((self.xmat, 1), (self.dmat, -1)):
                for i, gamma in store:
                    if self.window.step(gamma, i, direction) is None:
                        raise ValueError(
                            f"matrix recorded at {gamma!r} index {i}, off the window's steps"
                        )

    # ---- access ----------------------------------------------------------

    def dim(self, gamma: ShiftVector) -> int:
        return self.spaces.get(gamma, 0)

    def x(self, i: int, gamma: ShiftVector) -> Optional[Matrix]:
        return self.xmat.get((i, gamma))

    def d(self, i: int, gamma: ShiftVector) -> Optional[Matrix]:
        return self.dmat.get((i, gamma))

    def x_twist(self, i: int) -> Dict[int, int]:
        e = self.info.tau_exponent(i)
        return {i: e} if e else {}

    def d_twist(self, i: int) -> Dict[int, int]:
        e = self.info.tau_exponent(i)
        return {i: -e} if e else {}

    def residue_dim(self) -> int:
        return sum(self.spaces.values())

    def kdim(self) -> int:
        """Total dimension over the coefficient field of the algebra."""
        return self.residue_dim() * self.info.residue.degree_over_base()

    def has_out_tags(self) -> bool:
        """Whether some step leaves the window: the module is then a truncation."""
        w = self.window
        return any(w.step(g, i, s) is None for g in w for i in w.indices for s in (1, -1))

    def compose_op(self, second, first):
        """Compose two (matrix, twist) operators, second after first."""
        mat2, tw2 = second
        mat1, tw1 = first
        return (mat2 * _apply_twist(self.info, mat1, tw2), _merge_twists(tw2, tw1))

    def op_x(self, i: int, gamma: ShiftVector):
        mat = self.xmat.get((i, gamma))
        if mat is None:
            raise WindowTooSmall(f"raising step at {gamma!r} leaves the window")
        return (mat, self.x_twist(i))

    def op_d(self, i: int, gamma: ShiftVector):
        mat = self.dmat.get((i, gamma))
        if mat is None:
            raise WindowTooSmall(f"lowering step at {gamma!r} leaves the window")
        return (mat, self.d_twist(i))

    def walk(self, gamma: ShiftVector, steps) -> Optional[Tuple[Matrix, ShiftVector]]:
        """Compose a nonempty word of ("X", i)/("Y", i) steps from ``gamma``.

        ``gamma`` must be a canonical weight of the window.  Returns (matrix,
        endpoint), the product starting at the first step's operator, or None
        as soon as a step leaves the window.
        """
        acc = None
        for kind, i in steps:
            raising = kind == "X"
            target = self.window.step(gamma, i, 1 if raising else -1)
            if target is None:
                return None
            op = self.op_x(i, gamma) if raising else self.op_d(i, gamma)
            acc = op if acc is None else self.compose_op(op, acc)
            gamma = target
        return acc[0], gamma

    def evaluate_path(self, start: ShiftVector, steps) -> Tuple[Matrix, ShiftVector]:
        """Compose X/Y steps from a start weight; returns (matrix, endpoint).

        The start is canonicalized and must lie in the window; the empty path
        gives the identity there.  Raises :class:`WindowTooSmall` if the start
        or any step of the path leaves the window.
        """
        gamma = self.info.canon_gamma(start)
        if gamma not in self.window:
            raise WindowTooSmall(f"start weight {gamma!r} outside the window")
        if not steps:
            return Matrix.identity(self.field, self.dim(gamma)), gamma
        walked = self.walk(gamma, steps)
        if walked is None:
            raise WindowTooSmall(f"path from {gamma!r} leaves the window")
        return walked

    def __eq__(self, other):
        if not isinstance(other, WeightModule):
            return NotImplemented
        return (
            self.window == other.window
            and self.spaces == other.spaces
            and self.xmat == other.xmat
            and self.dmat == other.dmat
        )


def direct_sum(a: WeightModule, b: WeightModule) -> WeightModule:
    """Blockwise direct sum of two modules on the same window."""
    if a.window != b.window:
        raise WindowTooSmall("direct sum needs a common window")
    if a.field != b.field:
        raise FieldMismatch("direct sum needs a common residue field")
    spaces = {g: a.dim(g) + b.dim(g) for g in a.window}
    zero = a.field.zero()

    def block(ma, mb):
        rows = tuple(r + (zero,) * mb.ncols for r in ma.rows)
        rows += tuple((zero,) * ma.ncols + r for r in mb.rows)
        return Matrix._of(a.field, ma.nrows + mb.nrows, ma.ncols + mb.ncols, rows)

    xmat = {k: block(a.xmat[k], b.xmat[k]) for k in a.xmat}
    dmat = {k: block(a.dmat[k], b.dmat[k]) for k in a.dmat}
    return WeightModule(a.info, a.window, spaces, xmat, dmat)


# ---- relation verification ------------------------------------------------


class RelationReport:
    """Outcome of the defining-relation checks, one entry per relation kind."""

    RELATIONS = (
        "weight_condition",
        "same_index_commutator",
        "raising_commute",
        "lowering_commute",
        "mixed_commutator",
    )

    def __init__(self):
        self.entries = {
            name: {"ok": True, "checked": 0, "first_failure": None}
            for name in self.RELATIONS
        }

    def record(self, name: str, ok: bool, location):
        entry = self.entries[name]
        entry["checked"] += 1
        if not ok and entry["ok"]:
            entry["ok"] = False
            entry["first_failure"] = location

    @property
    def ok(self) -> bool:
        return all(e["ok"] for e in self.entries.values())

    def failures(self) -> List[str]:
        return [n for n, e in self.entries.items() if not e["ok"]]

    def __repr__(self):
        status = "pass" if self.ok else f"fail({','.join(self.failures())})"
        return f"RelationReport({status})"


def _relation_rows(indices, gamma: ShiftVector):
    """The relations at one weight as (name, location, word, other word).

    Each word is a path of steps, first step first.  The weight condition has
    no other word; every other relation compares the two words' operators.
    """
    for i in indices:
        at = {"index": i, "gamma": gamma}
        xy, yx = (("X", i), ("Y", i)), (("Y", i), ("X", i))
        yield "weight_condition", at, xy, None
        yield "same_index_commutator", at, xy, yx
    for a, b in itertools.combinations(indices, 2):
        at = {"indices": (a, b), "gamma": gamma}
        yield "raising_commute", at, (("X", b), ("X", a)), (("X", a), ("X", b))
        yield "lowering_commute", at, (("Y", b), ("Y", a)), (("Y", a), ("Y", b))
        for i, j in ((a, b), (b, a)):
            at = {"indices": (i, j), "gamma": gamma}
            yield "mixed_commutator", at, (("X", j), ("Y", i)), (("Y", i), ("X", j))


def verify_relations(module: WeightModule) -> RelationReport:
    """Check the defining relations at every window point where they close.

    Each relation is a pair of step words (paths, first step first) walked by
    :meth:`WeightModule.walk` from a window weight, and is checked wherever
    every step of both words stays in the window:

    - weight_condition: (X i, Y i) alone, the t_i action, is killed by that
      weight's generator polynomial;
    - same_index_commutator: (X i, Y i) minus (Y i, X i) is the identity;
    - raising_commute: (X j, X i) equals (X i, X j), for i < j;
    - lowering_commute: (Y j, Y i) equals (Y i, Y j), for i < j;
    - mixed_commutator: (X j, Y i) equals (Y i, X j), for i != j.
    """
    report = RelationReport()
    info = module.info
    for gamma in module.window:
        ident = Matrix.identity(module.field, module.dim(gamma))
        walked = {}  # (X i, Y i) opens two relations; walk it once
        for name, location, word, other in _relation_rows(module.window.indices, gamma):
            if word not in walked:
                walked[word] = module.walk(gamma, word)
            lhs = walked[word]
            if lhs is None:
                continue
            if other is None:
                gen = info.residue.embed_poly(info.generator_at(gamma, location["index"]))
                report.record(name, lhs[0].poly_eval(gen).is_zero(), location)
                continue
            rhs = module.walk(gamma, other)
            if rhs is None:
                continue
            if name == "same_index_commutator":
                ok = lhs[0] - rhs[0] == ident
            else:
                ok = lhs[0] == rhs[0]
            report.record(name, ok, location)
    return report


# ---- skeleton module data --------------------------------------------------


def _failure(rel) -> str:
    """The message for a skeleton relation that fails, each generator written
    letter_index, followed in characteristic 0 by its key object in brackets."""
    names = [f"{x[0]}_{x[-1]}" + "".join(f"[{o!r}]" for o in x[1:-1]) for x in rel]
    return f"relation {names[0]}.{names[1]} = {'.'.join(names[2:]) or '0'} fails"


class SkeletonModuleA:
    """A module over the characteristic-zero skeleton algebra, checked when built.

    values: dict skeleton object -> dimension; a/b: dict (object, index) ->
    matrix, keyed by the object whose bit at the index is 0.  There must be
    one matrix per arrow of ``skeleton_quiver(break_set)``, of the arrow's
    shape, and together they must satisfy its relations; otherwise
    :class:`RelationViolation` is raised.  A value that is negative or not at
    a skeleton object raises ``ValueError``.
    """

    def __init__(self, field: FieldDesc, break_set, values, a, b):
        self.field = field
        self.break_set = tuple(sorted(break_set))
        self.values = dict(values)
        self.a = dict(a)
        self.b = dict(b)
        objects, arrows, relations = skeleton_quiver(self.break_set)
        _check_dims(self.values, objects, "skeleton objects")
        given = len(self.a) + len(self.b)
        if given != len(arrows):
            raise RelationViolation(f"{given} matrices for {len(arrows)} arrows")
        self.arrows = {}  # the matrices by skeleton generator
        for (letter, alpha, i), (src, tgt) in arrows.items():
            mat = (self.a if letter == "a" else self.b).get((alpha, i))
            if mat is None or (mat.nrows, mat.ncols) != (self.dim(tgt), self.dim(src)):
                raise RelationViolation(f"{letter}-matrix shape at ({alpha!r},{i})")
            self.arrows[letter, alpha, i] = mat
        for rel in relations:
            if not relation_holds(self.arrows, rel):
                raise RelationViolation(_failure(rel))

    def dim(self, alpha: ShiftVector) -> int:
        return self.values.get(alpha, 0)


class SkeletonModuleB:
    """A module over the one-object characteristic-p skeleton algebra, checked when built.

    dim: the dimension of the one object; a/b: dict break index -> matrix; c:
    dict other index -> matrix.  There must be one dim x dim matrix per loop
    of ``skeleton_loops``, each c invertible, and together they must satisfy
    its relations, each product twisted as its loops act; otherwise
    :class:`RelationViolation` is raised.  ``c_inverse`` holds the matrix of
    each c's inverse operator: its inverse, twisted back where c twists.  A
    negative dim raises ``ValueError``.
    """

    def __init__(self, info: OrbitInfo, dim: int, a, b, c):
        self.info = info
        self.field = info.residue.desc
        self.dimension = d = int(dim)
        self.a, self.b, self.c = dict(a), dict(b), dict(c)
        objects, loops, relations = skeleton_loops(info.break_set, info.nonbreak_set)
        _check_dims({ZERO_SHIFT: d}, objects, "skeleton object")
        given = len(self.a) + len(self.b) + len(self.c)
        if given != len(loops):
            raise RelationViolation(f"{given} matrices for {len(loops)} loops")
        self.arrows, twists = {}, {}  # the matrices and twists by loop
        for letter, i in loops:
            mat = getattr(self, letter).get(i)  # self.a, self.b or self.c
            if mat is None or (mat.nrows, mat.ncols) != (d, d):
                raise RelationViolation(f"skeleton generator {letter}_{i} needs a {d}x{d} matrix")
            self.arrows[letter, i] = mat
            e = info.tau_exponent(i)
            twists[letter, i] = {i: -e if letter == "b" else e}
        self.c_inverse = {}
        for rel in relations:
            if len(rel) == 1:  # c is invertible: keep its inverse operator
                j = rel[0][1]
                inv = self.c[j].inverse()
                if inv is None:
                    raise RelationViolation(f"loop generator at {j} is not invertible")
                self.c_inverse[j] = _apply_twist(info, inv, {j: -info.tau_exponent(j)})
            elif not relation_holds(
                self.arrows, rel, lambda x, mat: _apply_twist(info, mat, twists[x])
            ):
                raise RelationViolation(_failure(rel))


# ---- the expansion functor (skeleton module -> weight module) --------------


def from_skeleton_module(data, info: OrbitInfo, window: Optional[Window] = None):
    """Expand skeleton-module data to a windowed weight module.

    A wall is the raising step from coordinate 0 at a break index, or in
    characteristic p the raising step from coordinate period - 1 at any other
    index.  Raising across a wall is the skeleton generator a (at a break) or
    c, keyed as in ``build_skeleton(info).gmap``; lowering back across it is
    b, or c's inverse operator times the edge scalar.  Every other raising
    step is the identity, and every other lowering step the edge scalar.  In
    characteristic p the window is the whole orbit, whatever is passed.
    """
    if isinstance(data, SkeletonModuleA):
        if info.char != 0:
            raise RelationViolation("two-sided skeleton data needs characteristic zero")
        if data.break_set != info.break_set:
            raise RelationViolation("skeleton data built for a different break set")
        if window is None:
            window = make_window(info)
        # what a generator's key holds between its letter and its index: the
        # region the raising step starts from, or nothing in characteristic p
        region = {gamma: (canonical_skeleton_rep(info, gamma),) for gamma in window}
        spaces = {gamma: data.dim(*region[gamma]) for gamma in window}
        arrows = data.arrows
    elif isinstance(data, SkeletonModuleB):
        if info.char == 0:
            raise RelationViolation("one-object skeleton data needs characteristic p")
        window = make_window(info)
        region, spaces = dict.fromkeys(window, ()), dict.fromkeys(window, data.dimension)
        # A break index has period p, and the other lowering scalars of its
        # cycle, 1, 2, ..., p-2 and -1, multiply to (p-2)!(-1) = -1 by Wilson's
        # theorem; so the cycle of lowerings multiplies to b when the step
        # back across the wall is -b.
        arrows = {x: -m if x[0] == "b" else m for x, m in data.arrows.items()}
    else:
        raise TypeError(f"not skeleton-module data: {data!r}")

    walls = {i: (0, "a") for i in info.break_set}  # index -> (wall's start coordinate, letter)
    if info.char:  # and a loop c at every other index
        walls.update((i, (info.period(i) - 1, "c")) for i in info.nonbreak_set)
    field = info.residue.desc
    ident = {d: Matrix.identity(field, d) for d in set(spaces.values())}
    xmat, dmat = {}, {}
    for gamma in window:  # each in-window pair: raising from down to gamma, lowering back
        for i in window.indices:
            down = window.step(gamma, i, -1)
            if down is None:
                continue
            at, letter = walls.get(i, (None, None))
            if down.get(i) != at:
                xmat[i, down] = ident[spaces[down]]
                dmat[i, gamma] = Matrix.scalar(field, spaces[gamma], info.edge_scalar(down, i))
                continue
            xmat[i, down] = arrows[(letter, *region[down], i)]
            if letter == "a":
                dmat[i, gamma] = arrows[("b", *region[down], i)]
            else:
                dmat[i, gamma] = data.c_inverse[i].scale(info.edge_scalar(down, i))
    return WeightModule(info, window, spaces, xmat, dmat)


# ---- the compression functor (weight module -> skeleton module) ------------


def to_skeleton_module(module: WeightModule):
    """Read skeleton-module data off a weight module.

    Each generator's matrix is the product along its path in the generator
    map of ``build_skeleton``: a crossing of one break index from a region
    representative in characteristic zero, a full raising or lowering cycle
    through the base point in characteristic p.  The window must contain the
    skeleton objects and the paths; the data is checked when it is built.
    """
    info = module.info
    alg = build_skeleton(info)
    for delta in alg.objects:
        if delta not in module.window:
            raise WindowTooSmall(f"window misses skeleton object {delta!r}")
    mats = {"a": {}, "b": {}, "c": {}}  # by letter, then (object, index) or index
    for x, path in alg.gmap.items():
        mat, _ = module.evaluate_path(path["start"], path["steps"])
        mats[x[0]][x[1:] if alg.kind == "A" else x[1]] = mat
    if alg.kind == "A":
        values = {delta: module.dim(delta) for delta in alg.objects}
        return SkeletonModuleA(module.field, info.break_set, values, mats["a"], mats["b"])
    return SkeletonModuleB(info, module.dim(ZERO_SHIFT), mats["a"], mats["b"], mats["c"])


# ---- base-field linearization ----------------------------------------------


class KLinearization:
    """All module operators as plain matrices over the algebra's base field.

    The residue field is flattened to coordinates over K; semilinear twists
    become honest K-linear blocks, and multiplication by the residue tower
    generators is included so that K-subspaces closed under these operators
    are exactly the weight components of submodules.  ``graph`` holds the
    result: the window weights with their K-dimensions, and the operators.
    """

    def __init__(self, module: WeightModule):
        info = module.info
        self.module = module
        self.kfield = info.base.field
        self.residue = info.residue
        self.basis = kbasis(self.residue.desc, self.kfield)
        self.ext = len(self.basis)
        self.kdims = {g: module.dim(g) * self.ext for g in module.window}
        self._blocks: Dict[tuple, tuple] = {}  # (entry, twist) -> block rows
        step = module.window.step
        ops = []
        for gamma in module.window:
            for i in module.window.indices:
                for mat, sign, twist in (
                    (module.x(i, gamma), 1, module.x_twist(i)),
                    (module.d(i, gamma), -1, module.d_twist(i)),
                ):
                    target = step(gamma, i, sign)
                    if target is not None:
                        ops.append((gamma, target, self.kblock(mat, twist)))
            for gen in self._tower_gens():
                mult = Matrix.scalar(self.residue.desc, module.dim(gamma), gen)
                ops.append((gamma, gamma, self.kblock(mult, {})))
        self.graph = OpGraph(self.kfield, self.kdims, ops)

    def _tower_gens(self):
        gens = []
        desc = self.residue.desc
        while desc != self.kfield:
            gens.append(self.residue.desc.embed(desc.gen()))
            desc = desc.base
        return gens

    def _elem_block(self, elem: FieldElem, twist: Dict[int, int]) -> Matrix:
        cols = []
        for bvec in self.basis:
            img = self.module.info.sigma_twist(bvec, twist)
            cols.append(to_kvec(elem * img, self.kfield))
        return Matrix._of(self.kfield, self.ext, self.ext, tuple(zip(*cols)))

    def kblock(self, mat: Matrix, twist: Dict[int, int]) -> Matrix:
        """Each entry of ``mat`` as its ext x ext block over K; each distinct
        (entry, twist) block is computed once per linearization."""
        ext, blocks, tw = self.ext, self._blocks, tuple(sorted(twist.items()))
        rows = []
        for row in mat.rows:
            row_blocks = []
            for entry in row:
                key = (entry, tw)
                if key not in blocks:
                    blocks[key] = self._elem_block(entry, twist).rows
                row_blocks.append(blocks[key])
            for br in range(ext):
                rows.append(tuple(itertools.chain.from_iterable(b[br] for b in row_blocks)))
        return Matrix._of(self.kfield, mat.nrows * ext, mat.ncols * ext, tuple(rows))

    def kvec(self, residue_vec) -> tuple:
        return tuple(itertools.chain.from_iterable(to_kvec(e, self.kfield) for e in residue_vec))


def submodule_closure(module: WeightModule, seeds) -> dict:
    """Smallest in-window action-stable subspace containing the seed vectors.

    Seeds are (weight, residue-coordinate vector) pairs.  Returns the
    per-weight residue dimensions of the closure and its total K-dimension.
    """
    lin = KLinearization(module)
    kseeds = []
    for gamma, vec in seeds:
        vec = tuple(vec)
        if len(vec) != module.dim(gamma):
            raise ValueError(f"seed length mismatch at {gamma!r}")
        kseeds.append((gamma, lin.kvec(vec)))
    spaces = lin.graph.spin(kseeds)
    return {
        "profile": {g: spaces[g].dim // lin.ext for g in module.window},
        "kdim": sum(s.dim for s in spaces.values()),
        "total_kdim": sum(lin.kdims.values()),
        "full": all(spaces[g].dim == lin.kdims[g] for g in module.window),
    }


def _iter_lines(lin: KLinearization, gamma: ShiftVector):
    """One K-vector per residue line of the weight space at gamma (first
    nonzero residue coordinate 1); the ops include the residue scalars."""
    residue = lin.residue.desc
    elems = list(residue.enumerate_elements())
    zero, one = residue.zero(), residue.one()
    dim = lin.module.dim(gamma)
    for lead in range(dim):
        for rest in itertools.product(elems, repeat=dim - lead - 1):
            yield lin.kvec((zero,) * lead + (one,) + rest)


def _iter_unit_seeds(kfield: FieldDesc, kdims, weights):
    """One seed list per standard basis vector of each weight space."""
    zero, one = kfield.zero(), kfield.one()
    for g in weights:
        for s in range(kdims[g]):
            yield [(g, tuple(one if t == s else zero for t in range(kdims[g])))]


def is_simple_finite(module: WeightModule, *, max_vectors: int = 1 << 16) -> bool:
    """Norton's simplicity test, theta being the projection onto one weight space.

    With g0 the first weight of smallest nonzero K-dimension d0, M is simple
    iff every line of M_g0 and one nonzero vector of M*_g0 (the dual module:
    transposed ops) spin to everything, since a proper submodule either meets
    M_g0 or has an annihilator containing M*_g0.  ``max_vectors`` bounds the
    q**d0 vectors of M_g0.  Otherwise the basis vectors of M are spun: a
    proper closure returns False, else :class:`EnumerationBudgetExceeded`
    (finite M) or :class:`InfiniteDimension` (a window truncation, or an
    infinite field) is raised.
    """
    lin = KLinearization(module)
    kdims = lin.kdims
    weights = [g for g in module.window if kdims[g] > 0]
    if not weights:
        return False
    kfield = lin.kfield

    def full(seeds, dual=False):
        spaces = lin.graph.spin(seeds, dual)
        return all(spaces[g].dim == kdims[g] for g in weights)

    g0 = min(weights, key=kdims.__getitem__)
    d0 = kdims[g0]
    order = kfield.order()
    finite = not module.has_out_tags() and order is not None
    if finite and order ** d0 <= max_vectors:
        if not all(full([(g0, vec)]) for vec in _iter_lines(lin, g0)):
            return False
        return full([(g0, next(_iter_lines(lin, g0)))], dual=True)
    # refutation only: any proper closure disproves simplicity
    if not all(full(seeds) for seeds in _iter_unit_seeds(kfield, kdims, weights)):
        return False
    if finite:
        raise EnumerationBudgetExceeded(
            f"Norton's test needs the {order}**{d0} vectors of the smallest weight "
            f"space, over the budget of {max_vectors}; no proper closure found"
        )
    raise InfiniteDimension(
        "cannot certify simplicity beyond the window; no proper closure found"
    )


def _matrix_minpoly(field, endo) -> Poly:
    """The minimal polynomial of an endomorphism given by its blocks, one
    square matrix per weight: the least monic polynomial killing every block."""
    powers = [{g: Matrix.identity(field, mat.nrows) for g, mat in endo.items()}]
    while True:
        flat_rows = tuple(
            tuple(p[g].entry(r, c) for p in powers)
            for g, mat in endo.items()
            for r in range(mat.nrows)
            for c in range(mat.nrows)
        )
        kernel = Matrix._of(field, len(flat_rows), len(powers), flat_rows).nullspace()
        if kernel:
            coeffs = min(kernel, key=lambda v: sum(1 for x in v if not x.is_zero()))
            return Poly(field, coeffs).monic()
        powers.append({g: powers[-1][g] * mat for g, mat in endo.items()})


def is_indecomposable_finite(
    module: WeightModule, *, max_endo: int = 1 << 16
) -> bool:
    """Decide indecomposability via idempotents of the endomorphism algebra.

    Over finite fields the endomorphism algebra is enumerated exhaustively
    within the budget (:meth:`OpGraph.is_indecomposable`).  Over infinite
    fields: a one-dimensional-over-residue endomorphism algebra certifies
    indecomposability, and a rational eigenvalue split of some endomorphism
    certifies decomposability.  A characteristic-zero window that misses a
    skeleton object sees only part of the module, so there
    :class:`InfiniteDimension` is raised instead of an answer.
    """
    info = module.info
    if info.char == 0 and any(delta not in module.window for delta in info.skeleton):
        raise InfiniteDimension("the window misses a region of the orbit")
    lin = KLinearization(module)
    kfield = lin.kfield
    if kfield.order() is not None:
        return lin.graph.is_indecomposable(max_endo)
    basis = solve_intertwiners(lin.graph, lin.graph)
    if not basis:
        return False  # the zero module
    if not module.info.tau or all(v == "one" for v in module.info.tau.values()):
        if len(basis) == lin.ext:
            return True
    for sol in basis + [
        {g: a[g] + b[g] for g in a}
        for a, b in itertools.combinations(basis, 2)
    ]:
        mp = _matrix_minpoly(kfield, sol)
        for root in rational_roots(mp) or ():
            linear = Poly(kfield, (-root, kfield.one()))
            quotient = mp
            while (quotient % linear).is_zero():
                quotient = quotient // linear
            if quotient.degree >= 1:
                return False  # coprime factor split gives a nontrivial idempotent
    raise EnumerationBudgetExceeded(
        "cannot decide indecomposability over an infinite field here"
    )
