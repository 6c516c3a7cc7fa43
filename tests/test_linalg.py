import random
from fractions import Fraction

import pytest
from test_indecomp import _iter_invertible
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.linalg import (
    EchelonSpace,
    Matrix,
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
    if field.is_finite():
        nonzero = [a for a in field.enumerate_elements() if not a.is_zero()]
        draw = lambda: rng.choice(nonzero)
    else:
        draw = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
    return Matrix(
        field, r, c, [[0 if rng.random() < 0.4 else draw() for _ in range(c)] for _ in range(r)]
    )


def test_rref_kernel_matches_column_sweep_reference():
    rng = random.Random(11)
    for field in (QQ, F2, F5, F4):
        for r in range(7):
            for c in range(7):
                for _ in range(3):
                    m = _sparse_matrix(rng, field, r, c)
                    red, pivots = m.rref()
                    ref_red, ref_pivots = _reference_rref(m)
                    assert red.rows == ref_red.rows and pivots == ref_pivots
                    assert m.rank() == len(ref_pivots)
                    assert m.nullspace() == _reference_nullspace(m)
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
                inverses += [g.inverse() for g, _ in gl_generators(field, r)]
            results += [m for m in inverses if m is not None]
            for m in results:
                _assert_same_as_public(m)
    for field, r, c in ((F2, 2, 2), (F4, 1, 2), (GF(3), 0, 2), (F5, 2, 0)):
        for m in iter_matrices(field, r, c):
            _assert_same_as_public(m)


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
        QQ, {"v": 2}, [("v", "v", two, one)], {"v": 1}
    )
    # Phi * two = one * Phi forces the first coordinate to vanish
    assert len(sols) == 1
    phi = sols[0]["v"]
    assert phi.entry(0, 0).is_zero()
    assert not phi.entry(0, 1).is_zero()
    assert phi * two == one * phi