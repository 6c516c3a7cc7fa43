"""Dense exact linear algebra over a FieldDesc.

Matrices are immutable, may have zero rows or columns (needed for maps in and
out of zero weight spaces), and all arithmetic is exact.  ``EchelonSpace`` is
the one elimination kernel: ``Matrix.rref`` (and through it ``rank``,
``nullspace`` and ``inverse``) inserts rows into one, as do the closures.

Over a prime field GF(p) the kernel computes on plain int residues: an
``EchelonSpace`` keeps its rows as int lists, and products, sums, scalings and
``mul_vec`` unbox their operands once and box each result entry once, through
the field's table of elements.  Q and extension fields compute on boxed
``FieldElem`` entries.  Both give the same elements: the reduced echelon form
of a row space is unique.

``OpGraph`` (a field, a dimension per vertex, (source, target, Matrix) ops)
is the shape weight modules and quiver representations share, and the home
of the one closure loop, Hom solver and exhaustive idempotent search.

Only the public constructor ``Matrix(...)`` coerces entries and checks the
shape; arithmetic, ``transpose``, ``rref``, ``inverse``, ``zeros``,
``identity``, ``scalar``, ``iter_matrices`` and the Hom solver build their
results with the trusted ``Matrix._of`` from entries already in the field.
"""

from __future__ import annotations

import bisect
import itertools
from operator import attrgetter, mul
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .errors import EnumerationBudgetExceeded, FieldMismatch
from .fields import FieldDesc, FieldElem, Poly

_value = attrgetter("value")  # an element's residue, over GF(p)


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldDesc, nrows: int, ncols: int, rows):
        rows = tuple(tuple(field.elem(x) for x in row) for row in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(f"shape mismatch: expected {nrows}x{ncols}")
        _set_field(self, field)
        _set_nrows(self, nrows)
        _set_ncols(self, ncols)
        _set_rows(self, rows)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    # ---- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, field: FieldDesc, nrows: int, ncols: int, rows) -> "Matrix":
        """Trusted constructor: rows is a tuple of tuples of field elements."""
        mat = object.__new__(cls)
        _set_field(mat, field)
        _set_nrows(mat, nrows)
        _set_ncols(mat, ncols)
        _set_rows(mat, rows)
        return mat

    @classmethod
    def zeros(cls, field, nrows, ncols) -> "Matrix":
        return cls._of(field, nrows, ncols, ((field.zero(),) * ncols,) * nrows)

    @classmethod
    def identity(cls, field, n) -> "Matrix":
        zero, one = field.zero(), field.one()
        rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls._of(field, n, n, rows)

    @classmethod
    def scalar(cls, field, n, c) -> "Matrix":
        c = field.elem(c)
        zero = field.zero()
        rows = tuple(tuple(c if i == j else zero for j in range(n)) for i in range(n))
        return cls._of(field, n, n, rows)

    # ---- basic ops ------------------------------------------------------

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other):
        if self.field is not other.field:
            self._check(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in addition")
        pairs = zip(self.rows, other.rows)
        p = self.field.p
        if p:
            box = self.field._elems
            rows = tuple(
                tuple([box[(a.value + b.value) % p] for a, b in zip(ra, rb)])
                for ra, rb in pairs
            )
        else:
            rows = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in pairs)
        return Matrix._of(self.field, self.nrows, self.ncols, rows)

    def __neg__(self):
        rows = tuple(tuple(-a for a in r) for r in self.rows)
        return Matrix._of(self.field, self.nrows, self.ncols, rows)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return self.scale(other)
        if self.field is not other.field:
            self._check(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} times "
                f"{other.nrows}x{other.ncols}"
            )
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        p = self.field.p
        if p:
            box = self.field._elems
            cols = [list(map(_value, col)) for col in cols]
            out = []
            for row in self.rows:
                vals = list(map(_value, row))
                out.append(tuple([box[sum(map(mul, vals, col)) % p] for col in cols]))
            return Matrix._of(self.field, self.nrows, other.ncols, tuple(out))
        zero = self.field.zero()
        out = []
        for row in self.rows:
            new_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                new_row.append(acc)
            out.append(tuple(new_row))
        return Matrix._of(self.field, self.nrows, other.ncols, tuple(out))

    def scale(self, c) -> "Matrix":
        c = self.field.elem(c)
        p = self.field.p
        if p:
            box, cv = self.field._elems, c.value
            rows = tuple(tuple([box[a.value * cv % p] for a in r]) for r in self.rows)
        else:
            rows = tuple(tuple(a * c for a in r) for r in self.rows)
        return Matrix._of(self.field, self.nrows, self.ncols, rows)

    def map_entries(self, fn: Callable[[FieldElem], FieldElem]) -> "Matrix":
        return Matrix(
            self.field, self.nrows, self.ncols, [[fn(a) for a in r] for r in self.rows]
        )

    def transpose(self) -> "Matrix":
        if self.nrows == 0 or self.ncols == 0:
            return Matrix.zeros(self.field, self.ncols, self.nrows)
        return Matrix._of(self.field, self.ncols, self.nrows, tuple(zip(*self.rows)))

    def entry(self, i, j) -> FieldElem:
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return self == Matrix.identity(self.field, self.nrows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.nrows}x{self.ncols})"
        body = "; ".join(",".join(repr(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"

    def mul_vec(self, vec: Sequence[FieldElem]) -> Tuple[FieldElem, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        vec = _entries(self.field, vec)
        p = self.field.p
        if p:
            box = self.field._elems
            return tuple(
                [box[sum(map(mul, map(_value, row), vec)) % p] for row in self.rows]
            )
        zero = self.field.zero()
        out = []
        for row in self.rows:
            acc = zero
            for a, b in zip(row, vec):
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    # ---- elimination ----------------------------------------------------

    def _row_space(self) -> "EchelonSpace":
        space = EchelonSpace(self.field, self.ncols)
        for row in self.rows:
            space._put(list(map(_value, row)) if space._p else row)
        return space

    def rref(self) -> Tuple["Matrix", List[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        space = self._row_space()
        zero = (self.field.zero(),) * self.ncols
        rows = tuple(space.rows) + (zero,) * (self.nrows - space.dim)
        return Matrix._of(self.field, self.nrows, self.ncols, rows), space.pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> Optional["Matrix"]:
        """Exact inverse, or None when singular."""
        if self.nrows != self.ncols:
            return None
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        rows = tuple(a + b for a, b in zip(self.rows, ident.rows))
        red, pivots = Matrix._of(self.field, n, 2 * n, rows).rref()
        if pivots[:n] != list(range(n)):
            return None
        return Matrix._of(self.field, n, n, tuple(row[n:] for row in red.rows))

    def nullspace(self) -> List[Tuple[FieldElem, ...]]:
        """Basis of the right kernel as row vectors."""
        return self._row_space()._kernel()

    def poly_eval(self, f: Poly) -> "Matrix":
        """Evaluate a polynomial (over the same field) at this square matrix."""
        if self.nrows != self.ncols:
            raise ValueError("polynomial evaluation needs a square matrix")
        acc = Matrix.zeros(self.field, self.nrows, self.nrows)
        for c in reversed(f.coeffs):
            acc = acc * self + Matrix.scalar(self.field, self.nrows, c)
        return acc

    def encoding(self) -> tuple:
        """Deterministic sort key for matrices of equal shape."""
        return tuple(a.sort_key() for r in self.rows for a in r)


# slot setters that bypass the refusing __setattr__, twice as fast as object's
_set_field, _set_nrows, _set_ncols, _set_rows = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__
)


def iter_matrices(field: FieldDesc, nrows: int, ncols: int) -> Iterator[Matrix]:
    """All matrices of a given shape over a finite field, fixed order."""
    elems = list(field.enumerate_elements())
    for flat in itertools.product(elems, repeat=nrows * ncols):
        rows = tuple(flat[i * ncols : (i + 1) * ncols] for i in range(nrows))
        yield Matrix._of(field, nrows, ncols, rows)


def gl_generators(field: FieldDesc, n: int) -> List[Tuple[Matrix, Matrix]]:
    """(g, g inverse) pairs that generate GL_n over a finite field.

    The transvections I + E(i, i+1) and I + E(i+1, i) generate SL_n over the
    prime field; conjugating them by diag(c, 1, ..., 1), c not 0 or 1, gives
    every entry of the field, and those diagonal elements every determinant.
    """
    def elementary(i, j, c):
        rows = [list(r) for r in Matrix.identity(field, n).rows]
        rows[i][j] = c
        return Matrix._of(field, n, n, tuple(map(tuple, rows)))

    one = field.one()
    gens = [
        (elementary(0, 0, c), elementary(0, 0, c.inverse()))
        for c in field.enumerate_elements()
        if n > 0 and not c.is_zero() and c != one
    ]
    gens += [
        (elementary(i, j, one), elementary(i, j, -one))
        for k in range(n - 1)
        for i, j in ((k, k + 1), (k + 1, k))
    ]
    return gens


def companion_matrix(f: Poly) -> Matrix:
    """Multiplication by the variable on the quotient by a monic polynomial."""
    if not f.is_monic() or f.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    field = f.field
    e = f.degree
    zero, one = field.zero(), field.one()
    rows = [[zero] * e for _ in range(e)]
    for k in range(e - 1):
        rows[k + 1][k] = one
    for k in range(e):
        rows[k][e - 1] = -f.coeff(k)
    return Matrix._of(field, e, e, tuple(map(tuple, rows)))


def iter_span(field: FieldDesc, basis: List[dict]) -> Iterator[dict]:
    """Every linear combination of a basis of vertexwise maps, fixed order.

    ``basis`` is a non-empty list of dicts vertex -> Matrix over a finite
    field, all with the same shapes.  Yields the dict vertex -> sum c_i
    basis[i][vertex] for every coefficient tuple c, in ``itertools.product``
    order over ``field.enumerate_elements()``, so the zero map comes first.
    """
    elems = list(field.enumerate_elements())
    shapes = {v: (m.nrows, m.ncols) for v, m in basis[0].items()}
    for combo in itertools.product(elems, repeat=len(basis)):
        cand = {}
        for v, (nrows, ncols) in shapes.items():
            acc = Matrix.zeros(field, nrows, ncols)
            for c, sol in zip(combo, basis):
                if not c.is_zero():
                    acc = acc + sol[v].scale(c)
            cand[v] = acc
        yield cand


def has_proper_idempotent(field: FieldDesc, basis: List[dict]) -> bool:
    """Whether the span of an endomorphism basis holds an idempotent other
    than 0 and 1, by exhaustive search over a finite field (see iter_span)."""
    ident = {v: Matrix.identity(field, m.nrows) for v, m in basis[0].items()}
    for cand in iter_span(field, basis):
        if all(m.is_zero() for m in cand.values()):
            continue
        if all(cand[v] == ident[v] for v in cand):
            continue
        if all(m * m == m for m in cand.values()):
            return True
    return False


class EchelonSpace:
    """A growing subspace kept in reduced echelon form, rows sorted by pivot.

    This is the one elimination kernel: closures grow one, and
    ``Matrix.rref`` inserts its rows into one.  Every vector passed in must
    have the ambient length and entries over ``field``.  Over GF(p) the rows
    are kept as lists of int residues: ``add``, ``reduce`` and ``contains``
    unbox their argument once, and ``rows`` and the vectors returned are boxed
    on the way out.  Over Q and extension fields the rows are tuples of
    elements.  ``_raw`` and ``_put`` are the unboxed entry points for callers
    that stay in residues, such as the closure loop ``OpGraph.spin``.
    """

    def __init__(self, field: FieldDesc, ambient_dim: int):
        self.field = field
        self.ambient = ambient_dim
        self._p = field.p  # nonzero exactly over a prime field
        self._rows: list = []
        self.pivots: List[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> List[Tuple[FieldElem, ...]]:
        return [self._box(r) for r in self._rows] if self._p else self._rows

    def _box(self, raw) -> Tuple[FieldElem, ...]:
        return tuple(map(self.field._elems.__getitem__, raw))

    def _raw(self, vec: Sequence[FieldElem]):
        """A checked vector as the rows hold it: int residues over GF(p)."""
        if len(vec) != self.ambient:
            raise ValueError("vector length mismatch")
        return _entries(self.field, vec)

    def _reduce(self, vec):
        p = self._p
        if p:
            for row, piv in zip(self._rows, self.pivots):
                c = vec[piv]
                if c:
                    vec = [(a - c * b) % p for a, b in zip(vec, row)]
            return vec
        vec = list(vec)
        for row, piv in zip(self._rows, self.pivots):
            c = vec[piv]
            if not c.is_zero():
                vec = [a if b.is_zero() else a - c * b for a, b in zip(vec, row)]
        return tuple(vec)

    def _put(self, vec):
        """Insert a vector given as ``_raw`` returns it; returns the reduced
        new basis vector in the same form, or None."""
        red = self._reduce(vec)
        p = self._p
        if p:
            pivot = next(itertools.compress(itertools.count(), red), None)  # first nonzero
            if pivot is None:
                return None
            inv = pow(red[pivot], p - 2, p)
            red = [a * inv % p for a in red]
            for i, row in enumerate(self._rows):
                c = row[pivot]
                if c:
                    self._rows[i] = [(a - c * b) % p for a, b in zip(row, red)]
        else:
            pivot = next((i for i, a in enumerate(red) if not a.is_zero()), None)
            if pivot is None:
                return None
            inv = red[pivot].inverse()
            red = tuple(a * inv for a in red)
            for i, row in enumerate(self._rows):
                c = row[pivot]
                if not c.is_zero():
                    self._rows[i] = tuple(
                        a if b.is_zero() else a - c * b for a, b in zip(row, red)
                    )
        at = bisect.bisect(self.pivots, pivot)
        self._rows.insert(at, red)
        self.pivots.insert(at, pivot)
        return red

    def reduce(self, vec: Sequence[FieldElem]) -> Tuple[FieldElem, ...]:
        red = self._reduce(self._raw(vec))
        return self._box(red) if self._p else red

    def add(self, vec: Sequence[FieldElem]) -> Optional[Tuple[FieldElem, ...]]:
        """Insert a vector; returns the reduced new basis vector, or None."""
        new = self._put(self._raw(vec))
        return self._box(new) if self._p and new is not None else new

    def contains(self, vec: Sequence[FieldElem]) -> bool:
        red = self._reduce(self._raw(vec))
        return not any(red) if self._p else all(a.is_zero() for a in red)

    def _kernel(self) -> List[Tuple[FieldElem, ...]]:
        """Basis of the vectors orthogonal to every row, one per free column."""
        p = self._p
        zero, one = (0, 1) if p else (self.field.zero(), self.field.one())
        pivots = set(self.pivots)
        basis = []
        for fc in (c for c in range(self.ambient) if c not in pivots):
            vec = [zero] * self.ambient
            vec[fc] = one
            for row, pc in zip(self._rows, self.pivots):
                vec[pc] = -row[fc] % p if p else -row[fc]
            basis.append(self._box(vec) if p else tuple(vec))
        return basis


def _residues(mat: Matrix) -> List[List[int]]:
    """The rows of a matrix over GF(p) as lists of int residues."""
    return [list(map(_value, row)) for row in mat.rows]


def _entries(field: FieldDesc, vec: Sequence[FieldElem]):
    """The entries of a vector over ``field``: int residues over GF(p), else
    the elements themselves.  An entry over another field is a FieldMismatch."""
    if not all(a.field is field for a in vec) and any(a.field != field for a in vec):
        raise FieldMismatch(f"vector entries outside {field}")
    return list(map(_value, vec)) if field.p else vec


class OpGraph:
    """A field, a dimension per vertex and a list of (source, target, Matrix)
    ops, each mapping the source's space to the target's; stored as given."""

    def __init__(self, field: FieldDesc, dims: dict, ops: list):
        self.field = field
        self.dims = dims
        self.ops = ops
        self._adjacency = {}  # dual -> {source: [(target, op)]}, built on first use

    def spin(self, seeds, dual: bool = False) -> dict:
        """Smallest family of subspaces (vertex -> EchelonSpace) containing
        the (vertex, vector) seeds and stable under the ops, or with ``dual``
        under their transposes (the dual module).  Over GF(p) it stays in int
        residues: the ops are unboxed once per direction, each seed once."""
        p = self.field.p
        adj = self._adjacency.get(dual)
        if adj is None:
            adj = self._adjacency[dual] = {v: [] for v in self.dims}
            for src, tgt, mat in self.ops:
                if dual:
                    src, tgt, mat = tgt, src, mat.transpose()
                adj[src].append((tgt, _residues(mat) if p else mat))
        spaces = {v: EchelonSpace(self.field, d) for v, d in self.dims.items()}
        queue = []
        for v, vec in seeds:
            new = spaces[v]._put(spaces[v]._raw(vec))
            if new is not None:
                queue.append((v, new))
        while queue:
            v, vec = queue.pop()
            for tgt, mat in adj[v]:
                if p:
                    new = spaces[tgt]._put([sum(map(mul, row, vec)) % p for row in mat])
                else:
                    new = spaces[tgt]._put(mat.mul_vec(vec))
                if new is not None:
                    queue.append((tgt, new))
        return spaces

    def is_indecomposable(self, budget: int) -> bool:
        """Whether End holds no idempotent but 0 and 1, searched exhaustively;
        the zero module is not indecomposable.  Raises
        :class:`EnumerationBudgetExceeded` over an infinite field or when End
        has more than ``budget`` elements."""
        basis = solve_intertwiners(self, self)
        if not basis:
            return False  # the zero module
        order = self.field.order()
        if order is None:
            raise EnumerationBudgetExceeded("exhaustive idempotent search needs a finite field")
        if order ** len(basis) > budget:
            raise EnumerationBudgetExceeded(
                f"endomorphism algebra of size {order}**{len(basis)} exceeds budget"
            )
        return not has_proper_idempotent(self.field, basis)


def solve_intertwiners(dom: OpGraph, cod: OpGraph) -> List[dict]:
    """Basis of the vertexwise maps Phi_v: dom_v -> cod_v with Phi_tgt A =
    B Phi_src for each aligned pair of ops (src, tgt, A) of dom and (src,
    tgt, B) of cod, each solution a dict vertex -> Matrix; End(g) is
    ``solve_intertwiners(g, g)``.  The unknowns are the entries of each
    cod.dims[v] x dom.dims[v] matrix, vertices sorted by repr, row-major.
    Raises FieldMismatch when the fields differ, ValueError when the
    vertex sets or the (source, target) sequences of the ops differ.
    """
    field, dom_dims, cod_dims = dom.field, dom.dims, cod.dims
    if dom is not cod:
        if cod.field != field:
            raise FieldMismatch(f"Hom between graphs over {field} and {cod.field}")
        if dom_dims.keys() != cod_dims.keys():
            raise ValueError("Hom between graphs with different vertices")
        if [op[:2] for op in dom.ops] != [op[:2] for op in cod.ops]:
            raise ValueError("Hom between graphs whose ops join different vertices")
    keys = sorted(dom_dims, key=repr)
    offsets = {}
    total = 0
    for k in keys:
        offsets[k] = total
        total += cod_dims[k] * dom_dims[k]
    if total == 0:
        return []
    # the equations go into one EchelonSpace; over GF(p) as int residues
    p = field.p
    zero = 0 if p else field.zero()
    space = EchelonSpace(field, total)
    for (src, tgt, a_dom), (_, _, a_cod) in zip(dom.ops, cod.ops):
        dom_rows = _residues(a_dom) if p else a_dom.rows
        cod_rows = dom_rows if a_cod is a_dom else _residues(a_cod) if p else a_cod.rows
        # result shape: cod[tgt] x dom[src]
        for i in range(cod_dims[tgt]):
            for j in range(dom_dims[src]):
                row = [zero] * total
                # (Phi_tgt * A_dom)[i][j] = sum_k Phi_tgt[i][k] A_dom[k][j]
                for k in range(dom_dims[tgt]):
                    coef = dom_rows[k][j]
                    if (coef if p else not coef.is_zero()):
                        idx = offsets[tgt] + i * dom_dims[tgt] + k
                        row[idx] = row[idx] + coef
                # -(A_cod * Phi_src)[i][j] = -sum_k A_cod[i][k] Phi_src[k][j]
                for k in range(cod_dims[src]):
                    coef = cod_rows[i][k]
                    if (coef if p else not coef.is_zero()):
                        idx = offsets[src] + k * dom_dims[src] + j
                        row[idx] = row[idx] - coef
                space._put([a % p for a in row] if p else tuple(row))
    basis = space._kernel()
    out = []
    for vec in basis:
        sol = {}
        for k in keys:
            dc, dd = cod_dims[k], dom_dims[k]
            start = offsets[k]
            rows = tuple(vec[start + i * dd : start + (i + 1) * dd] for i in range(dc))
            sol[k] = Matrix._of(field, dc, dd, rows)
        out.append(sol)
    return out
