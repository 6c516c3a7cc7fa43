import itertools
import random
from fractions import Fraction

import pytest
from test_indecomp import _iter_invertible
from weylmod.errors import FieldMismatch
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.linalg import (
    EchelonSpace,
    Matrix,
    OpGraph,
    companion_matrix,
    gl_generators,
    iter_matrices,
    iter_span,
    solve_intertwiners,
)

F2 = GF(2)
F5 = GF(5)
F4 = extend(F2, Poly(F2, [1, 1, 1]))


def random_matrix(rng, field, r, c):
    if field.is_finite():
        elems = list(field.enumerate_elements())
        return Matrix(field, r, c, [[rng.choice(elems) for _ in range(c)] for _ in range(r)])
    return Matrix(
        field,
        r,
        c,
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)],
    )


def test_inverse_identity():
    rng = random.Random(8)
    for field in (QQ, F5):
        found = 0
        while found < 15:
            m = random_matrix(rng, field, 3, 3)
            inv = m.inverse()
            if inv is None:
                continue
            found += 1
            assert (m * inv).is_identity()
            assert (inv * m).is_identity()


def test_rank_nullity_and_kernel():
    rng = random.Random(9)
    for field in (QQ, F2, F5):
        for _ in range(20):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, field, r, c)
            kernel = m.nullspace()
            assert m.rank() + len(kernel) == c
            for vec in kernel:
                assert all(x.is_zero() for x in m.mul_vec(vec))


def test_zero_dimensional_shapes():
    a = Matrix.zeros(QQ, 0, 3)
    b = Matrix.zeros(QQ, 3, 0)
    prod = a * b
    assert (prod.nrows, prod.ncols) == (0, 0)
    back = b * a
    assert (back.nrows, back.ncols) == (3, 3) and back.is_zero()
    assert Matrix.zeros(QQ, 0, 0).inverse() is not None
    assert a.transpose().nrows == 3


def test_poly_eval_cayley_hamilton_style():
    # each companion-style matrix is killed by its defining polynomial
    f = Poly(F5, [2, 3, 1])
    from weylmod.indecomp import companion_matrix

    mat = companion_matrix(f)
    assert mat.poly_eval(f).is_zero()
    assert not mat.poly_eval(Poly(F5, [1, 1])).is_zero()


def test_companion_matrix_has_one_builder():
    import weylmod
    from weylmod import indecomp, linalg

    assert weylmod.companion_matrix is linalg.companion_matrix
    assert indecomp.companion_matrix is linalg.companion_matrix


def test_iter_span_runs_in_product_order():
    a = {0: Matrix(F2, 1, 2, [[1, 0]]), 1: Matrix.identity(F2, 1)}
    b = {0: Matrix(F2, 1, 2, [[0, 1]]), 1: Matrix.zeros(F2, 1, 1)}
    span = list(iter_span(F2, [a, b]))
    assert [s[0].rows for s in span] == [
        Matrix(F2, 1, 2, rows).rows for rows in ([[0, 0]], [[0, 1]], [[1, 0]], [[1, 1]])
    ]
    assert [s[1].is_zero() for s in span] == [True, True, False, False]
    # over GF(5) the span of one map is its five multiples, zero first
    c = {0: Matrix.identity(F5, 2)}
    assert [s[0] for s in iter_span(F5, [c])] == [c[0].scale(k) for k in range(5)]


def test_echelon_space():
    rng = random.Random(10)
    space = EchelonSpace(F5, 4)
    vectors = [tuple(random_matrix(rng, F5, 1, 4).rows[0]) for _ in range(10)]
    for v in vectors:
        space.add(v)
    assert space.dim <= 4
    for v in vectors:
        assert space.contains(v)
    # membership of a random combination
    combo = [F5.zero()] * 4
    for v in vectors[:3]:
        c = F5.from_int(rng.randint(0, 4))
        combo = [a + c * b for a, b in zip(combo, v)]
    assert space.contains(tuple(combo))


def _reference_rref(m):
    """The column-sweep Gauss-Jordan loop ``Matrix.rref`` used before it ran on
    ``EchelonSpace``; kept as an independent reference."""
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot = None
        for i in range(r, m.nrows):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(m.nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Matrix(m.field, m.nrows, m.ncols, rows), pivots


def _reference_nullspace(m):
    red, pivots = _reference_rref(m)
    zero, one = m.field.zero(), m.field.one()
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        vec = [zero] * m.ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red.rows[r][fc]
        basis.append(tuple(vec))
    return basis


def _reference_inverse(m):
    n = m.nrows
    ident = Matrix.identity(m.field, n)
    aug = Matrix(m.field, n, 2 * n, [m.rows[i] + ident.rows[i] for i in range(n)])
    red, pivots = _reference_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return Matrix(m.field, n, n, [row[n:] for row in red.rows])


def _sparse_matrix(rng, field, r, c):
    """A random matrix with about 40% zero entries."""
    if field.p > 1000:  # too many elements to list
        draw = lambda: rng.randrange(1, field.p)
    elif field.is_finite():
        nonzero = [a for a in field.enumerate_elements() if not a.is_zero()]
        draw = lambda: rng.choice(nonzero)
    else:
        draw = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
    return Matrix(
        field, r, c, [[0 if rng.random() < 0.4 else draw() for _ in range(c)] for _ in range(r)]
    )


def test_rref_kernel_matches_column_sweep_reference():
    # Q and GF(4) run on boxed elements, the prime fields on int residues
    rng = random.Random(11)
    for field in (QQ, F2, F5, F4) + tuple(GF(p) for p in (3, 7, 101, 2**31 - 1)):
        for r in range(7):
            for c in range(7):
                for _ in range(3):
                    m = _sparse_matrix(rng, field, r, c)
                    red, pivots = m.rref()
                    ref_red, ref_pivots = _reference_rref(m)
                    assert red.rows == ref_red.rows and pivots == ref_pivots
                    assert m.rank() == len(ref_pivots)
                    assert m.nullspace() == _reference_nullspace(m)
                    _assert_same_as_public(red)
                    if r == c:
                        assert m.inverse() == _reference_inverse(m)


def test_echelon_pivots_stay_strictly_increasing():
    rng = random.Random(12)
    for field in (QQ, F2, F5, F4):
        space = EchelonSpace(field, 6)
        for _ in range(10):
            space.add(_sparse_matrix(rng, field, 1, 6).rows[0])
            assert all(a < b for a, b in zip(space.pivots, space.pivots[1:]))
            assert all(row[p] == field.one() for row, p in zip(space.rows, space.pivots))


def test_iter_invertible_pairs_each_matrix_with_its_inverse():
    for field, n in ((F2, 2), (GF(3), 2), (F2, 0)):
        for g, g_inv in _iter_invertible(field, n):
            assert (g * g_inv).is_identity() and (g_inv * g).is_identity()


def test_enumeration_sizes():
    assert len(list(iter_matrices(F2, 2, 1))) == 4
    assert len(list(_iter_invertible(F2, 2))) == 6
    assert len(list(_iter_invertible(F2, 0))) == 1


def test_gl_generators_generate_gl():
    cases = [(field, n) for field in (F2, GF(3), F5, F4) for n in range(3)]
    cases += [(F2, 3), (GF(3), 3)]
    for field, n in cases:
        gens = gl_generators(field, n)
        for g, g_inv in gens:
            assert (g * g_inv).is_identity()
        ident = Matrix.identity(field, n)
        group = {ident}
        frontier = [ident]
        while frontier:
            m = frontier.pop()
            for g, _ in gens:
                h = m * g
                if h not in group:
                    group.add(h)
                    frontier.append(h)
        q = field.order()
        expected = 1
        for k in range(n):
            expected *= q**n - q**k
        assert len(group) == expected, (field, n)


def _assert_same_as_public(m):
    """m equals, and hashes like, its entries passed through Matrix(...)."""
    public = Matrix(m.field, m.nrows, m.ncols, [list(r) for r in m.rows])
    assert m == public and hash(m) == hash(public)
    assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
    assert len(m.rows) == m.nrows and all(len(r) == m.ncols for r in m.rows)
    assert all(a.field == m.field for r in m.rows for a in r)


def test_computed_matrices_match_public_construction():
    rng = random.Random(13)
    shapes = [(0, 0), (0, 2), (2, 0), (1, 1), (2, 3), (3, 3)]
    for field in (QQ, F2, F5, F4):
        for r, c in shapes:
            a, b = random_matrix(rng, field, r, c), random_matrix(rng, field, r, c)
            right = random_matrix(rng, field, c, 2)
            s = random_matrix(rng, field, 1, 1).rows[0][0]
            results = [a + b, a - b, -a, a * right, a.scale(s), a * s, a.transpose()]
            results += [a.rref()[0], Matrix.zeros(field, r, c), Matrix.identity(field, r)]
            results.append(Matrix.scalar(field, r, s))
            inverses = [m.inverse() for m in (a, b) if r == c]
            if field.is_finite():
                for g, g_inv in gl_generators(field, r):
                    inverses += [g, g_inv, g.inverse()]
            results += [m for m in inverses if m is not None]
            if r >= 1:
                results.append(companion_matrix(Poly(field, [s] * r + [1])))
            for m in results:
                _assert_same_as_public(m)
    for field, r, c in ((F2, 2, 2), (F4, 1, 2), (GF(3), 0, 2), (F5, 2, 0)):
        for m in iter_matrices(field, r, c):
            _assert_same_as_public(m)


def test_matrices_are_immutable():
    # both constructors set the slots past __setattr__, which still refuses
    for m in (Matrix(F2, 1, 1, [[1]]), Matrix.identity(F2, 1), Matrix.identity(F2, 1).scale(1)):
        for name in Matrix.__slots__:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(m, name, None)
        assert m.rows == ((F2.one(),),) and (m.nrows, m.ncols) == (1, 1)


def test_public_constructor_coerces_and_checks_shape():
    m = Matrix(QQ, 1, 3, [[2, Fraction(1, 2), QQ.from_int(-1)]])
    assert m.rows == ((QQ.from_int(2), QQ.from_fraction(Fraction(1, 2)), QQ.from_int(-1)),)
    t = Matrix(F4, 1, 2, [[F2.one(), 1]])
    assert all(a.field == F4 for a in t.rows[0]) and t.rows[0] == (F4.one(), F4.one())
    for nrows, ncols, rows in ((2, 2, [[1, 2], [3]]), (2, 2, [[1, 2]]), (1, 2, [[1, 2, 3]])):
        with pytest.raises(ValueError, match="shape mismatch"):
            Matrix(F5, nrows, ncols, rows)


def test_intertwiner_solver_rectangular():
    # maps F^2 -> F intertwining fixed endomorphisms: force the kernel shape
    two = Matrix(QQ, 2, 2, [[1, 1], [0, 1]])
    one = Matrix(QQ, 1, 1, [[1]])
    sols = solve_intertwiners(
        OpGraph(QQ, {"v": 2}, [("v", "v", two)]), OpGraph(QQ, {"v": 1}, [("v", "v", one)])
    )
    # Phi * two = one * Phi forces the first coordinate to vanish
    assert len(sols) == 1
    phi = sols[0]["v"]
    assert phi.entry(0, 0).is_zero()
    assert not phi.entry(0, 1).is_zero()
    assert phi * two == one * phi


# ---- the int-coded GF(p) kernel ---------------------------------------------

PRIMES = (2, 3, 5, 7, 101, 2**31 - 1)


def _residue_rows(rng, p, r, c):
    """Random int residues, about 40% of them zero."""
    draw = lambda: 0 if rng.random() < 0.4 else rng.randrange(1, p)
    return [[draw() for _ in range(c)] for _ in range(r)]


def _int_product(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_prime_field_products_match_plain_ints():
    rng = random.Random(22)
    for p in PRIMES:
        field = GF(p)
        for r, k, c in itertools.product(range(4), repeat=3):
            a, b = _residue_rows(rng, p, r, k), _residue_rows(rng, p, k, c)
            a2 = _residue_rows(rng, p, r, k)
            vec = [rng.randrange(p) for _ in range(k)]
            ma, mb, ma2 = Matrix(field, r, k, a), Matrix(field, k, c, b), Matrix(field, r, k, a2)
            s = rng.randrange(p)
            total = [[(x + y) % p for x, y in zip(u, v)] for u, v in zip(a, a2)]
            expected = {
                "product": Matrix(field, r, c, _int_product(a, b, p) if k else [[0] * c] * r),
                "sum": Matrix(field, r, k, total),
                "scale": Matrix(field, r, k, [[x * s % p for x in u] for u in a]),
            }
            got = {"product": ma * mb, "sum": ma + ma2, "scale": ma.scale(s)}
            for name, m in got.items():
                assert m == expected[name], (p, r, k, c, name)
                _assert_same_as_public(m)
            image = ma.mul_vec(tuple(field.from_int(x) for x in vec))
            assert image == tuple(field.from_int(sum(x * y for x, y in zip(u, vec))) for u in a)


def test_prime_field_echelon_space_agrees_with_boxed_elimination():
    rng = random.Random(23)
    for p in PRIMES:
        field = GF(p)
        space = EchelonSpace(field, 5)
        kept = []
        for row in _residue_rows(rng, p, 8, 5):
            vec = tuple(field.from_int(x) for x in row)
            was_in = space.contains(vec)
            new = space.add(vec)
            assert (new is None) == was_in
            if new is not None:
                kept.append(vec)
                assert all(a.field is field for a in new) and new in space.rows
            assert space.contains(vec) and not any(not a.is_zero() for a in space.reduce(vec))
            ref_red, ref_pivots = _reference_rref(Matrix(field, len(kept), 5, kept))
            assert space.rows == list(ref_red.rows) and space.pivots == ref_pivots


def test_echelon_space_refuses_vectors_of_the_wrong_length():
    for field in (GF(5), QQ, F4):
        space = EchelonSpace(field, 3)
        for vec in ((field.one(), field.zero()), (field.one(),) * 4):
            for method in (space.add, space.reduce, space.contains):
                with pytest.raises(ValueError, match="vector length mismatch"):
                    method(vec)
        assert space.dim == 0
    with pytest.raises(ValueError, match="vector length mismatch"):
        EchelonSpace(GF(5), 3).add((1, 2))


def test_vectors_over_another_field_are_refused():
    f7 = GF(7)
    space = EchelonSpace(F5, 2)
    with pytest.raises(FieldMismatch):
        space.add((f7.one(), f7.zero()))
    with pytest.raises(FieldMismatch):
        space.contains((f7.zero(), f7.zero()))
    with pytest.raises(FieldMismatch):
        space.reduce((F5.one(), f7.zero()))
    assert space.dim == 0
    with pytest.raises(FieldMismatch):
        Matrix(F5, 1, 2, [[1, 0]]).mul_vec((F5.one(), f7.from_int(3)))
    # the boxed path checks too, also an element of a lower tower level
    for field, stranger in ((QQ, F5.one()), (F4, F2.one()), (F4, F5.zero())):
        with pytest.raises(FieldMismatch):
            EchelonSpace(field, 2).add((field.one(), stranger))
        with pytest.raises(FieldMismatch):
            Matrix.identity(field, 2).mul_vec((stranger, field.zero()))


def test_prime_fields_are_interned():
    from weylmod import fields
    from weylmod.jsonio import field_from_json, field_to_json

    assert GF(5) is GF(5) and GF(5) is F5 and GF(7) is not GF(5)
    assert GF(5) == GF(5) and hash(GF(5)) == hash(GF(5)) and GF(5) != GF(7)
    assert field_from_json(field_to_json(GF(5))) is GF(5)
    assert field_from_json({"kind": "GF", "p": 101}) is GF(101)
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(TypeError):
        GF(5.0)
    # elements come from one table per field, which holds only the residues
    # boxed so far and stops growing at a fixed size
    assert F5.from_int(7) is F5.from_int(2) and (F5.one() + F5.one()) is F5.from_int(2)
    big = GF(1_000_003)
    assert len(big._elems) == 0
    assert big.from_int(-1).value == 1_000_002 and len(big._elems) == 1
    boxed = [big.from_int(n) for n in range(2 * fields._ELEMS_KEPT)]
    assert [e.value for e in boxed] == list(range(2 * fields._ELEMS_KEPT))
    assert len(big._elems) == fields._ELEMS_KEPT
