"""Exact arithmetic for the base fields and their univariate polynomials.

Supported fields are the rationals, prime fields GF(p), and finite towers of
simple extensions K[x]/(f) over either.  Elements are kept in a unique
canonical form (reduced fraction, least residue, or reduced coefficient tuple
with trailing zeros stripped) so equality is representational equality.
There is no floating point anywhere; every identity checked by this package
holds exactly or not at all.

Polynomial arithmetic, on extension elements and on ``Poly`` alike, runs on one
kernel over stripped coefficient tuples: ``_tup_add``, ``_tup_mul``,
``_tup_divmod`` and ``_tup_invmod``.  Only the public ``Poly(...)`` coerces its
coefficients; computed polynomials are built with the trusted ``Poly._of``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import (
    DivisionByZeroPoly,
    EnumerationBudgetExceeded,
    FieldMismatch,
    NotMaximalIdeal,
    UncertifiedIrreducibility,
)

IrreducibilityAnswer = Union[bool, str]  # True, False, or "unknown"

_RATIONALS = "Q"
_PRIME = "GF"
_EXTENSION = "Ext"


def is_prime(n: int) -> bool:
    """Primality by trial division (the only primality proof used here)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldDesc:
    """Descriptor of a base field: Q, GF(p), or an extension K[x]/(f).

    Immutable and hashable.  ``certified`` records whether the extension
    modulus passed an irreducibility check or was merely asserted by the
    caller; the flag propagates to everything built on top of the field.
    A prime field keeps its elements in ``_elems``, residue -> element, which
    fills as residues are boxed.
    """

    __slots__ = ("kind", "p", "base", "modulus", "certified", "_hash", "_elems")

    def __init__(self, kind, p=0, base=None, modulus=None, certified=True):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "certified", certified)
        key = (kind, p, base, None if modulus is None else modulus.coeffs, certified)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_elems", _Elems(self) if kind == _PRIME else None)

    def __setattr__(self, *args):
        raise AttributeError("FieldDesc is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldDesc):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.p == other.p
            and self.base == other.base
            and (self.modulus.coeffs if self.modulus else None)
            == (other.modulus.coeffs if other.modulus else None)
            and self.certified == other.certified
        )

    def __hash__(self):
        return self._hash

    # ---- structure ----------------------------------------------------

    @property
    def char(self) -> int:
        if self.kind == _RATIONALS:
            return 0
        if self.kind == _PRIME:
            return self.p
        return self.base.char

    def order(self) -> Optional[int]:
        """Number of elements, or None when infinite."""
        if self.kind == _RATIONALS:
            return None
        if self.kind == _PRIME:
            return self.p
        base_order = self.base.order()
        if base_order is None:
            return None
        return base_order ** self.modulus.degree

    def is_finite(self) -> bool:
        return self.order() is not None

    def root_field(self) -> "FieldDesc":
        """The bottom of the extension chain (Q or GF(p))."""
        d = self
        while d.kind == _EXTENSION:
            d = d.base
        return d

    def tower(self) -> list:
        """Extension chain from the root field up to this descriptor."""
        chain = []
        d = self
        while d.kind == _EXTENSION:
            chain.append(d)
            d = d.base
        chain.append(d)
        chain.reverse()
        return chain

    def ext_degree(self) -> int:
        """Degree of this field over its root field."""
        deg = 1
        d = self
        while d.kind == _EXTENSION:
            deg *= d.modulus.degree
            d = d.base
        return deg

    def degree_over(self, sub: "FieldDesc") -> int:
        deg = 1
        d = self
        while d != sub:
            if d.kind != _EXTENSION:
                raise FieldMismatch(f"{sub} is not below {self}")
            deg *= d.modulus.degree
            d = d.base
        return deg

    # ---- element constructors ------------------------------------------

    def zero(self) -> "FieldElem":
        if self.kind == _RATIONALS:
            return FieldElem(self, Fraction(0))
        if self.kind == _PRIME:
            return self._elems[0]
        return FieldElem(self, ())

    def one(self) -> "FieldElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElem":
        if self.kind == _RATIONALS:
            return FieldElem(self, Fraction(n))
        if self.kind == _PRIME:
            return self._elems[n % self.p]
        return self.embed(self.base.from_int(n))

    def from_fraction(self, q: Fraction) -> "FieldElem":
        if self.kind == _RATIONALS:
            return FieldElem(self, Fraction(q))
        if self.kind == _PRIME:
            den = q.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {q} vanishes mod {self.p}")
            return self._elems[(q.numerator * pow(den, self.p - 2, self.p)) % self.p]
        return self.embed(self.base.from_fraction(q))

    def embed(self, e: "FieldElem") -> "FieldElem":
        """Embed an element of a lower tower level into this field."""
        if e.field == self:
            return e
        if self.kind != _EXTENSION:
            raise FieldMismatch(f"cannot embed element of {e.field} into {self}")
        below = self.base.embed(e)
        if below.is_zero():
            return FieldElem(self, ())
        return FieldElem(self, (below,))

    def elem(self, value) -> "FieldElem":
        """Coerce ints, Fractions, and lower-level elements into this field."""
        if isinstance(value, FieldElem):
            if value.field == self:
                return value
            return self.embed(value)
        if isinstance(value, bool):
            raise TypeError("bool is not a field element")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def gen(self) -> "FieldElem":
        """The adjoined root of the modulus (extension fields only)."""
        if self.kind != _EXTENSION:
            raise FieldMismatch("only extension fields have a generator")
        return FieldElem(self, (self.base.zero(), self.base.one()))

    def enumerate_elements(self) -> Iterator["FieldElem"]:
        """All elements of a finite field in a fixed deterministic order."""
        if self.kind == _RATIONALS:
            raise EnumerationBudgetExceeded("cannot enumerate an infinite field")
        if self.kind == _PRIME:
            for v in range(self.p):
                yield self._elems[v]
            return
        base_elems = list(self.base.enumerate_elements())
        deg = self.modulus.degree
        for coeffs in itertools.product(base_elems, repeat=deg):
            yield FieldElem(self, _strip(tuple(coeffs)))

    def __repr__(self):
        if self.kind == _RATIONALS:
            return "QQ"
        if self.kind == _PRIME:
            return f"GF({self.p})"
        mod = ",".join(repr(c) for c in self.modulus.coeffs)
        tag = "" if self.certified else ",uncertified"
        return f"{self.base!r}[x]/({mod}{tag})"


class _Elems(dict):
    """Residue -> element of one prime field, built on first use and kept for
    the first ``_ELEMS_KEPT`` residues seen, so a large p allocates nothing up
    front."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def __missing__(self, value):
        elem = FieldElem(self.field, value)
        if len(self) < _ELEMS_KEPT:
            self[value] = elem
        return elem


_ELEMS_KEPT = 1 << 12
QQ = FieldDesc(_RATIONALS)
_GF_DESCS: dict = {}


def GF(p: int) -> FieldDesc:
    """The prime field of order p; equal p give the same descriptor."""
    p = operator.index(p)
    desc = _GF_DESCS.get(p)
    if desc is None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        desc = _GF_DESCS[p] = FieldDesc(_PRIME, p=p)
    return desc


def _strip(coeffs: tuple) -> tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero():
        n -= 1
    return coeffs[:n]


class FieldElem:
    """An element of a FieldDesc in canonical form."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDesc, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *args):
        raise AttributeError("FieldElem is immutable")

    def is_zero(self) -> bool:
        k = self.field.kind
        if k == _EXTENSION:
            return len(self.value) == 0
        return self.value == 0

    def is_one(self) -> bool:
        if self.field.kind == _EXTENSION:
            return len(self.value) == 1 and self.value[0].is_one()
        return self.value == 1

    def _check(self, other: "FieldElem"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        k = self.field.kind
        if k == _EXTENSION:
            return FieldElem(self.field, _tup_add(self.value, other.value))
        if k == _PRIME:
            return self.field._elems[(self.value + other.value) % self.field.p]
        return FieldElem(self.field, self.value + other.value)

    def __neg__(self):
        k = self.field.kind
        if k == _EXTENSION:
            return FieldElem(self.field, tuple(-c for c in self.value))
        if k == _PRIME:
            return self.field._elems[(-self.value) % self.field.p]
        return FieldElem(self.field, -self.value)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        k = self.field.kind
        if k == _EXTENSION:
            product = _tup_mul(self.value, other.value)
            return FieldElem(self.field, _tup_divmod(product, self.field.modulus.coeffs)[1])
        if k == _PRIME:
            return self.field._elems[(self.value * other.value) % self.field.p]
        return FieldElem(self.field, self.value * other.value)

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        k = self.field.kind
        if k == _RATIONALS:
            return FieldElem(self.field, 1 / self.value)
        if k == _PRIME:
            return self.field._elems[pow(self.value, self.field.p - 2, self.field.p)]
        return FieldElem(self.field, _tup_invmod(self.value, self.field.modulus.coeffs))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def sort_key(self):
        """Total order on elements of one field, for deterministic output."""
        k = self.field.kind
        if k == _RATIONALS:
            return (self.value.numerator, self.value.denominator)
        if k == _PRIME:
            return (self.value,)
        deg = self.field.modulus.degree
        zero = self.field.base.zero()
        padded = tuple(self.value[i] if i < len(self.value) else zero for i in range(deg))
        return tuple(c.sort_key() for c in padded)

    def as_fraction(self) -> Optional[Fraction]:
        """The rational this element represents, or None if it is not rational."""
        k = self.field.kind
        if k == _RATIONALS:
            return self.value
        if k == _PRIME:
            return None
        if len(self.value) == 0:
            return Fraction(0)
        if len(self.value) == 1:
            return self.value[0].as_fraction()
        return None

    def is_prime_field_int(self) -> bool:
        """Whether this element is an integer of the prime field."""
        if self.field.char > 0:
            k = self.field.kind
            if k == _PRIME:
                return True
            return len(self.value) <= 1 and (
                len(self.value) == 0 or self.value[0].is_prime_field_int()
            )
        q = self.as_fraction()
        return q is not None and q.denominator == 1

    def prime_field_int(self) -> int:
        """The integer this element represents (requires is_prime_field_int)."""
        k = self.field.kind
        if k == _RATIONALS:
            return self.value.numerator
        if k == _PRIME:
            return self.value
        if len(self.value) == 0:
            return 0
        return self.value[0].prime_field_int()

    def __repr__(self):
        k = self.field.kind
        if k == _RATIONALS:
            return str(self.value)
        if k == _PRIME:
            return str(self.value)
        return "[" + ",".join(repr(c) for c in self.value) + "]"


# ---- the polynomial kernel -------------------------------------------------
#
# A polynomial is the tuple of its ascending coefficients, all elements of one
# field, with no trailing zero; ``()`` is the zero polynomial.


def _tup_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _strip(tuple(x + y for x, y in zip(a, b)) + a[len(b) :])


def _tup_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = []
    for k in range(len(a) + len(b) - 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        acc = a[lo] * b[k - lo]
        for i in range(lo + 1, hi + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return _strip(tuple(out))


def _tup_divmod(a: tuple, m: tuple) -> tuple:
    """Quotient and remainder of a by the nonzero m."""
    dm = len(m) - 1
    dq = len(a) - 1 - dm
    if dq < 0:
        return (), a
    # extension moduli are monic, and a monic divisor needs no inverse
    inv_lead = None if m[-1].is_one() else m[-1].inverse()
    rem = list(a)
    quot = [None] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + dm] if inv_lead is None else rem[k + dm] * inv_lead
        quot[k] = c
        if not c.is_zero():
            for i in range(dm):
                rem[k + i] = rem[k + i] - c * m[i]
    return _strip(tuple(quot)), _strip(tuple(rem[:dm]))


def _tup_invmod(a: tuple, m: tuple) -> tuple:
    """The inverse of the nonzero a modulo m, by extended Euclid.

    The Bezout coefficient has degree below deg(m), so it needs no reduction.
    """
    r0, r1 = m, a
    s0, s1 = (), (a[0].field.one(),)
    while r1:
        q, r = _tup_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _tup_add(s0, tuple(-c for c in _tup_mul(q, s1)))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible; modulus is reducible")
    return _tup_mul(s0, (r0[0].inverse(),))


class Poly:
    """Univariate polynomial over a FieldDesc, ascending coefficients.

    The zero polynomial is the empty coefficient tuple; its degree is the
    sentinel -1.  Leading coefficients are always nonzero.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDesc, coeffs):
        elems = tuple(field.elem(c) for c in coeffs)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _strip(elems))

    @classmethod
    def _of(cls, field: FieldDesc, coeffs: tuple) -> "Poly":
        """Trusted constructor: coeffs is a kernel tuple over field."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "field", field)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, field):
        return cls._of(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def leading(self) -> FieldElem:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> FieldElem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        return Poly._of(self.field, _tup_add(self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly._of(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return self.scale(other)
        self._check(other)
        return Poly._of(self.field, _tup_mul(self.coeffs, other.coeffs))

    def scale(self, c: FieldElem) -> "Poly":
        return Poly._of(self.field, _strip(tuple(a * c for a in self.coeffs)))

    def __pow__(self, n: int) -> "Poly":
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroPoly("division by the zero polynomial")
        quot, rem = _tup_divmod(self.coeffs, other.coeffs)
        return Poly._of(self.field, quot), Poly._of(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval(self, point) -> FieldElem:
        pt = self.field.elem(point)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * pt + c
        return acc

    def shift(self, k: int) -> "Poly":
        """The polynomial t |-> f(t + k), computed by exact expansion."""
        c = self.field.from_int(k)
        if c.is_zero():
            return self
        acc = Poly.zero(self.field)
        lin = Poly(self.field, (c, 1))
        for a in reversed(self.coeffs):
            acc = acc * lin + Poly.constant(self.field, a)
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        return (self.degree, tuple(c.sort_key() for c in self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(repr(c))
            elif i == 1:
                terms.append(f"{c!r}*t")
            else:
                terms.append(f"{c!r}*t^{i}")
        return " + ".join(terms)


def poly_shift(f: Poly, k: int) -> Poly:
    return f.shift(k)


def iter_monic_polys(field: FieldDesc, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the given degree over a finite field."""
    elems = list(field.enumerate_elements())
    one = field.one()
    for lower in itertools.product(elems, repeat=degree):
        yield Poly._of(field, tuple(lower) + (one,))


# The rational root test divides by trial up to this bound; a polynomial whose
# integer-cleared end coefficients reach past its square is left undecided, so
# that a huge constant term cannot stall the test.
_MAX_TRIAL_DIVISOR = 10**6


def _divisors(n: int) -> list:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def rational_roots(f: Poly) -> Optional[list]:
    """The rational roots of the nonzero f, ascending, as elements of f.field.

    None when the rational root test cannot decide: a coefficient is not
    rational, or an end coefficient lies beyond the trial bound.
    """
    coeffs = [c.as_fraction() for c in f.coeffs]
    if any(c is None for c in coeffs):
        return None
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    low = next(i for i, a in enumerate(ints) if a)  # f = t^low * g, g(0) != 0
    a0, an = abs(ints[low]), abs(ints[-1])
    if max(a0, an) > _MAX_TRIAL_DIVISOR**2:
        return None
    denominators = _divisors(an)
    cands = {Fraction(0)} if low else set()
    for p in _divisors(a0):
        for q in denominators:
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    roots = (f.field.from_fraction(r) for r in sorted(cands))
    return [r for r in roots if f.eval(r).is_zero()]


def is_irreducible(
    f: Poly,
    *,
    max_trial_degree: int = 8,
    max_field_order: int = 81,
) -> IrreducibilityAnswer:
    """Decide irreducibility of a monic polynomial where an exact method exists.

    Finite fields: exact, by trial division against all monic polynomials of
    degree at most deg(f)/2, guarded by the degree and field-order budgets.
    Rationals: exact up to degree 3 via the rational root test, within its
    trial bound on the end coefficients (beyond it, "unknown").  Extension
    towers over the rationals: degree 1 is exact; otherwise a rational root
    witnesses reducibility, and absent one the answer is "unknown" (the caller
    may assert irreducibility, which marks the result uncertified).
    """
    if not f.is_monic():
        raise ValueError("irreducibility is only tested for monic polynomials")
    if f.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if f.degree == 1:
        return True
    field = f.field
    order = field.order()
    if order is not None:
        if f.degree > max_trial_degree or order > max_field_order:
            raise EnumerationBudgetExceeded(
                f"trial division budget: degree {f.degree} over field of order {order}"
            )
        for d in range(1, f.degree // 2 + 1):
            for g in iter_monic_polys(field, d):
                if (f % g).is_zero():
                    return False
        return True
    # characteristic zero
    roots = rational_roots(f)
    if roots:
        return False
    if field.kind == _EXTENSION:
        # probe the adjoined generators: catches repeated moduli exactly
        for level in field.tower():
            if level.kind != _EXTENSION:
                continue
            gen = field.embed(level.gen())
            for cand in (gen, -gen):
                if f.eval(cand).is_zero():
                    return False
    if field.kind == _RATIONALS and f.degree <= 3 and roots is not None:
        return True
    return "unknown"


def extend(
    base: FieldDesc, modulus: Poly, *, assume_irreducible: bool = False
) -> FieldDesc:
    """Build the extension field base[x]/(modulus).

    The modulus must be monic of degree >= 2 over the base.  Its
    irreducibility is checked when an exact method applies; otherwise the
    caller must assert it, and the resulting descriptor is marked
    uncertified.
    """
    if modulus.field != base:
        raise FieldMismatch("modulus must be a polynomial over the base field")
    if not modulus.is_monic() or modulus.degree < 2:
        raise ValueError("extension modulus must be monic of degree >= 2")
    verdict = is_irreducible(modulus)
    if verdict is False:
        raise NotMaximalIdeal(f"modulus {modulus!r} is reducible")
    if verdict == "unknown":
        if not assume_irreducible:
            raise UncertifiedIrreducibility(
                f"cannot certify irreducibility of {modulus!r}; "
                "pass assume_irreducible=True to assert it"
            )
        return FieldDesc(_EXTENSION, base=base, modulus=modulus, certified=False)
    return FieldDesc(_EXTENSION, base=base, modulus=modulus, certified=True)


def kbasis(desc: FieldDesc, sub: Optional[FieldDesc] = None) -> list:
    """Power basis of desc over a subfield of its tower (root by default).

    Ordered so that coordinates of an element are the concatenation of the
    coordinates of its coefficient tuple (low degree first).
    """
    if sub is None:
        sub = desc.root_field()
    if desc == sub:
        return [desc.one()]
    if desc.kind != _EXTENSION:
        raise FieldMismatch(f"{sub} is not below {desc}")
    below = kbasis(desc.base, sub)
    gen = desc.gen()
    out = []
    power = desc.one()
    for _ in range(desc.modulus.degree):
        for b in below:
            out.append(power * desc.embed(b))
        power = power * gen
    return out


def to_kvec(e: FieldElem, sub: Optional[FieldDesc] = None) -> tuple:
    """Coordinates of e over the subfield, matching the kbasis order."""
    desc = e.field
    if sub is None:
        sub = desc.root_field()
    if desc == sub:
        return (e,)
    if desc.kind != _EXTENSION:
        raise FieldMismatch(f"{sub} is not below {desc}")
    deg = desc.modulus.degree
    zero = desc.base.zero()
    out = []
    for i in range(deg):
        c = e.value[i] if i < len(e.value) else zero
        out.extend(to_kvec(c, sub))
    return tuple(out)


def from_kvec(desc: FieldDesc, vec, sub: Optional[FieldDesc] = None) -> FieldElem:
    vec = tuple(vec)
    if sub is None:
        sub = desc.root_field()
    if desc == sub:
        if len(vec) != 1:
            raise ValueError("wrong coordinate length")
        return vec[0]
    if desc.kind != _EXTENSION:
        raise FieldMismatch(f"{sub} is not below {desc}")
    width = desc.base.degree_over(sub)
    deg = desc.modulus.degree
    if len(vec) != width * deg:
        raise ValueError("wrong coordinate length")
    coeffs = tuple(
        from_kvec(desc.base, vec[i * width : (i + 1) * width], sub)
        for i in range(deg)
    )
    return FieldElem(desc, _strip(coeffs))
