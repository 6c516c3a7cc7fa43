import itertools
import random
import time
from fractions import Fraction

import pytest

from weylmod.errors import DivisionByZeroPoly, EnumerationBudgetExceeded, FieldMismatch
from weylmod.fields import (
    GF,
    QQ,
    FieldElem,
    Poly,
    extend,
    from_kvec,
    is_irreducible,
    is_prime,
    iter_monic_polys,
    kbasis,
    poly_shift,
    rational_roots,
    to_kvec,
)

F2 = GF(2)
F3 = GF(3)
F4 = extend(F2, Poly(F2, [1, 1, 1]))
F8 = extend(F2, Poly(F2, [1, 1, 0, 1]))
F9 = extend(F3, Poly(F3, [1, 0, 1]))
F25 = extend(GF(5), Poly(GF(5), [-2, 0, 1]))


def random_poly(rng, field, max_deg):
    if field.is_finite():
        elems = list(field.enumerate_elements())
        coeffs = [rng.choice(elems) for _ in range(rng.randint(0, max_deg) + 1)]
    else:
        coeffs = [
            field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(rng.randint(0, max_deg) + 1)
        ]
    return Poly(field, coeffs)


def test_prime_check():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(ValueError):
        GF(6)


def test_divmod_example_f2():
    f = Poly(F2, [1, 1, 1])
    g = Poly(F2, [1, 1])
    q, r = divmod(f, g)
    assert q == Poly(F2, [0, 1])
    assert r == Poly(F2, [1])


def test_gcd_with_zero_is_monic():
    f = Poly(QQ, [2, 4])  # 2(t + 1/2) scaled
    assert f.gcd(Poly.zero(QQ)) == f.monic()
    assert Poly.zero(F3).gcd(Poly(F3, [2, 2])) == Poly(F3, [1, 1])


def test_eval_example_f2():
    f = Poly(F2, [1, 1, 1])
    assert f.eval(F2.one()) == F2.one()


def test_division_by_zero_poly():
    with pytest.raises(DivisionByZeroPoly):
        divmod(Poly(F2, [1, 1]), Poly.zero(F2))


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Poly(F2, [1]) + Poly(F3, [1])


def test_shift_examples():
    assert poly_shift(Poly(QQ, [-3, 1]), 3) == Poly.x(QQ)
    f = Poly(F2, [1, 1, 1])
    assert poly_shift(f, 1) == f  # shift-stable generator
    assert poly_shift(f, 0) == f


def test_shift_composition_law():
    rng = random.Random(0)
    for field in (QQ, F2, F9):
        for _ in range(25):
            f = random_poly(rng, field, 4)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            assert poly_shift(poly_shift(f, a), b) == poly_shift(f, a + b)


def test_shift_by_char_is_identity():
    rng = random.Random(1)
    for field in (F2, F3, F25):
        p = field.char
        for _ in range(20):
            f = random_poly(rng, field, 5)
            assert poly_shift(f, p) == f


@pytest.mark.parametrize("field", [F4, F8, F9, F25])
def test_field_axioms_exhaustive(field):
    elems = list(field.enumerate_elements())
    assert len(elems) == field.order()
    one = field.one()
    for x in elems:
        if not x.is_zero():
            assert (x * x.inverse()) == one
    for x, y, z in itertools.product(elems, repeat=3):
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("field", [QQ, F2, GF(5), F9])
def test_divmod_identity_random(field):
    rng = random.Random(2)
    for _ in range(200):
        f = random_poly(rng, field, 6)
        g = random_poly(rng, field, 4)
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_irreducibility_examples():
    assert is_irreducible(Poly(F2, [1, 1, 1])) is True
    assert is_irreducible(Poly(QQ, [0, 0, 1])) is False
    assert is_irreducible(Poly(QQ, [-2, 0, 1])) is True
    assert is_irreducible(Poly(QQ, [1, 1])) is True


def test_irreducibility_unknown_and_budget():
    # degree 4 over Q with no rational roots is undecided here
    assert is_irreducible(Poly(QQ, [1, 0, 0, 0, 1])) == "unknown"
    # rational root still refutes at high degree
    assert is_irreducible(Poly(QQ, [-1, 0, 0, 0, 1])) is False
    with pytest.raises(EnumerationBudgetExceeded):
        is_irreducible(Poly(F2, [1] * 12))


def _count_by_necklace(q, d):
    # number of monic irreducibles of degree d over GF(q)
    def mobius(n):
        out, left = 1, n
        p = 2
        while p * p <= left:
            if left % p == 0:
                left //= p
                if left % p == 0:
                    return 0
                out = -out
            p += 1
        if left > 1:
            out = -out
        return out

    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * q ** (d // e)
    return total // d


@pytest.mark.parametrize("field", [F2, F3, F4, GF(5), GF(7), F8, F9])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_irreducible_counts_match_necklace_formula(field, degree):
    q = field.order()
    if q ** degree > 3000:
        pytest.skip("kept small; larger fields covered at lower degree")
    found = sum(
        1 for f in iter_monic_polys(field, degree) if is_irreducible(f) is True
    )
    assert found == _count_by_necklace(q, degree)


def test_irreducible_agrees_with_pairwise_product_oracle():
    # independent oracle: reducible iff equal to a product of two monic factors
    for field, degree in ((F2, 4), (F3, 3), (F4, 2)):
        products = set()
        for d1 in range(1, degree):
            d2 = degree - d1
            if d1 > d2:
                continue
            for g in iter_monic_polys(field, d1):
                for h in iter_monic_polys(field, d2):
                    products.add(g * h)
        for f in iter_monic_polys(field, degree):
            assert is_irreducible(f) is (f not in products)


def test_extension_tower_and_coordinates():
    F16 = extend(F4, Poly(F4, [F4.gen(), F2.one(), F4.one()]))
    assert F16.order() == 16
    assert F16.ext_degree() == 4
    rng = random.Random(3)
    elems = list(F16.enumerate_elements())
    basis = kbasis(F16)
    assert len(basis) == 4
    for _ in range(30):
        e = rng.choice(elems)
        assert from_kvec(F16, to_kvec(e)) == e
    sub_basis = kbasis(F16, F4)
    assert len(sub_basis) == 2
    for _ in range(10):
        e = rng.choice(elems)
        assert from_kvec(F16, to_kvec(e, F4), F4) == e


def test_uncertified_extension_requires_assertion():
    from weylmod.errors import NotMaximalIdeal, UncertifiedIrreducibility

    quartic = Poly(QQ, [1, 0, 0, 0, 1])
    with pytest.raises(UncertifiedIrreducibility):
        extend(QQ, quartic)
    desc = extend(QQ, quartic, assume_irreducible=True)
    assert desc.certified is False
    with pytest.raises(NotMaximalIdeal):
        extend(QQ, Poly(QQ, [0, 0, 1]))


def test_canonical_forms():
    half = QQ.from_fraction(Fraction(2, 4))
    assert half.value == Fraction(1, 2)
    x = F9.elem(3)
    assert x.is_zero()
    # extension canonical form strips trailing zeros
    e = FieldElem(F9, (F3.one(),))
    assert e == F9.one()


F16 = extend(F4, Poly(F4, [F4.gen(), F2.one(), F4.one()]))  # two-level tower


@pytest.mark.parametrize(
    "field, non_ones",
    [
        (QQ, [QQ.zero(), QQ.from_int(2), QQ.from_int(-1), QQ.from_fraction(Fraction(1, 2))]),
        (GF(5), [GF(5).zero(), GF(5).from_int(2), GF(5).from_int(-1)]),
        (F4, [F4.zero(), F4.gen(), F4.gen() + F4.one()]),
        (F16, [F16.zero(), F16.gen(), F16.embed(F4.gen()), F16.gen() + F16.one()]),
    ],
    ids=["Q", "GF5", "GF4", "GF16-over-GF4"],
)
def test_is_one(field, non_ones):
    assert field.one().is_one()
    assert field.from_int(1 + field.char).is_one()
    for elem in non_ones:
        assert not elem.is_one()
        if not elem.is_zero():
            assert (elem * elem.inverse()).is_one()


# ---- the polynomial kernel against the loops it replaced ---------------------


def _reference_strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def _reference_tup_mul(base, a, b):
    """The schoolbook loop extension elements multiplied with before the kernel."""
    if not a or not b:
        return ()
    out = [base.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _reference_strip(out)


def _reference_tup_mod(base, a, m):
    """Reduction modulo the monic m, as extension elements did it before the kernel."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if not lead.is_zero():
            for i in range(dm):
                a[shift + i] = a[shift + i] - lead * m[i]
        a.pop()
    return _reference_strip(a)


def _reference_poly_invmod(field, a):
    """Extended Euclid with its own nested division, as extension inverses ran
    before the kernel; kept as an independent reference."""
    base = field.base
    m = field.modulus.coeffs

    def degree(t):
        return len(t) - 1

    def scale(t, c):
        return _reference_strip(tuple(x * c for x in t))

    def sub(t, u):
        n = max(len(t), len(u))
        zero = base.zero()
        return _reference_strip(
            tuple(
                (t[i] if i < len(t) else zero) - (u[i] if i < len(u) else zero)
                for i in range(n)
            )
        )

    def shift_mul(t, k, c):
        return tuple([base.zero()] * k) + scale(t, c)

    r0, r1 = m, a
    s0, s1 = (), (base.one(),)
    while r1:
        q_acc = ()
        rem = r0
        inv_lead = r1[-1].inverse()
        while rem and degree(rem) >= degree(r1):
            k = degree(rem) - degree(r1)
            c = rem[-1] * inv_lead
            q_acc = sub(q_acc, scale(shift_mul((base.one(),), k, base.one()), -c))
            rem = sub(rem, shift_mul(r1, k, c))
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, _reference_tup_mul(base, q_acc, s1))
    if degree(r0) != 0:
        raise ZeroDivisionError("element not invertible; modulus is reducible")
    c = r0[0].inverse()
    return _reference_tup_mod(base, scale(s0, c), m)


def _reference_divmod(f, g):
    """The long-division loop ``Poly.__divmod__`` ran before the kernel."""
    field = f.field
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return Poly.zero(field), f
    inv_lead = g.leading().inverse()
    quot = [field.zero()] * (dq + 1)
    for k in range(dq, -1, -1):
        if len(rem) - 1 < k + g.degree:
            continue
        c = rem[k + g.degree] * inv_lead
        if c.is_zero():
            continue
        quot[k] = c
        for i, b in enumerate(g.coeffs):
            rem[k + i] = rem[k + i] - c * b
    return Poly(field, quot), Poly(field, rem)


S2 = extend(QQ, Poly(QQ, [-2, 0, 1]))
S2S3 = extend(S2, Poly(S2, [-3, 0, 1]), assume_irreducible=True)
KERNEL_FIELDS = [QQ, F2, GF(5), F4, F9, S2, S2S3]
KERNEL_IDS = ["QQ", "GF2", "GF5", "F4", "F9", "Q(sqrt2)", "Q(sqrt2)(sqrt3)"]


def _random_elem(rng, field):
    root = field.root_field()
    if root.is_finite():
        coords = [root.from_int(rng.randrange(root.p)) for _ in range(field.ext_degree())]
    else:
        coords = [
            QQ.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(field.ext_degree())
        ]
    return from_kvec(field, coords)


def _random_kernel_poly(rng, field, max_deg):
    return Poly(field, [_random_elem(rng, field) for _ in range(rng.randint(0, max_deg) + 1)])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_kernel_agrees_with_reference(field):
    rng = random.Random(10)
    cases = 6 if field is S2S3 else 20
    for _ in range(cases):
        f = _random_kernel_poly(rng, field, 5)
        g = _random_kernel_poly(rng, field, 3)
        assert (f * g).coeffs == _reference_tup_mul(field, f.coeffs, g.coeffs)
        if not g.is_zero():
            assert divmod(f, g) == _reference_divmod(f, g)
        if field.kind != "Ext":
            continue
        x, y = _random_elem(rng, field), _random_elem(rng, field)
        product = _reference_tup_mul(field.base, x.value, y.value)
        assert (x * y).value == _reference_tup_mod(field.base, product, field.modulus.coeffs)
        if not x.is_zero():
            assert x.inverse().value == _reference_poly_invmod(field, x.value)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_computed_polys_match_public_construction(field):
    rng = random.Random(11)
    for _ in range(6):
        f = _random_kernel_poly(rng, field, 4)
        g = _random_kernel_poly(rng, field, 2)
        c = _random_elem(rng, field)
        results = [f + g, f - g, f - f, f * g, f.scale(c), f.monic(), f.shift(rng.randint(-3, 3))]
        if not g.is_zero():
            results.extend(divmod(f, g))
        for r in results:
            public = Poly(field, r.coeffs)
            assert type(r.coeffs) is tuple
            assert r == public and hash(r) == hash(public)


def test_rational_roots_finds_every_root():
    f = Poly(QQ, [0, -1, 0, 1])  # t^3 - t
    assert rational_roots(f) == [QQ.from_int(-1), QQ.zero(), QQ.one()]
    g = Poly(QQ, [Fraction(-1, 4), 0, 1]) * Poly(QQ, [0, 0, 1])  # (t^2 - 1/4) t^2
    assert rational_roots(g) == [QQ.from_fraction(Fraction(s, 2)) for s in (-1, 0, 1)]
    assert rational_roots(Poly(S2, [S2.gen(), 1])) is None  # coefficient sqrt2


def test_rational_root_test_is_bounded():
    from weylmod.errors import UncertifiedIrreducibility

    start = time.perf_counter()
    huge = Poly(QQ, [1000000000000000003, 0, 1])
    assert rational_roots(huge) is None
    assert is_irreducible(huge) == "unknown"
    with pytest.raises(UncertifiedIrreducibility):
        extend(QQ, huge)
    assert extend(QQ, huge, assume_irreducible=True).certified is False
    assert time.perf_counter() - start < 1.0
    # within the bound the test still decides
    assert is_irreducible(Poly(QQ, [-1000003 * 999983, 0, 1])) is True
    assert is_irreducible(Poly(QQ, [-(999983**2), 0, 1])) is False
