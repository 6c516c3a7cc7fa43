"""Maximal ideals of K[t_1,...,t_n], the shift action, breaks, and regions.

An ideal here is always "separable": generated by one monic univariate
polynomial per coordinate.  The shift group acts coordinatewise by
t_i |-> t_i - 1; orbits are described relative to a normalized base point
(the maximal break when the orbit is degenerate), so that all region and
skeleton bookkeeping is purely sign-based on coordinates.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import (
    IndexOutOfArity,
    InfiniteCharPOrbit,
    InvalidIdeal,
    NotASkeletonObject,
    NotMaximalIdeal,
    UncertifiedIrreducibility,
)
from .fields import FieldDesc, FieldElem, Poly, extend

UNBOUNDED = "inf"


def _coordinate(x) -> int:
    """An exact integer index or value; floats, strings and bools are refused."""
    if isinstance(x, bool):
        raise TypeError(f"shift coordinate {x!r} is a bool, not an integer")
    return operator.index(x)


class ShiftVector:
    """Finitely-supported integer vector indexing a point of an orbit."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries=()):
        items = entries.items() if isinstance(entries, dict) else entries
        pairs = ((_coordinate(i), _coordinate(v)) for i, v in items)
        cleaned = tuple(sorted((i, v) for i, v in pairs if v != 0))
        seen = set()
        for i, _ in cleaned:  # sorted, so an index below 1 is met first
            if i < 1:
                raise ValueError("indices are 1-based")
            if i in seen:
                raise ValueError(f"duplicate index {i}")
            seen.add(i)
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_hash", hash(cleaned))

    def __setattr__(self, *args):
        raise AttributeError("ShiftVector is immutable")

    @classmethod
    def e(cls, i: int, v: int = 1) -> "ShiftVector":
        return cls(((i, v),))

    def get(self, i: int) -> int:
        for j, v in self.entries:
            if j == i:
                return v
        return 0

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other: "ShiftVector") -> "ShiftVector":
        acc = dict(self.entries)
        for i, v in other.entries:
            acc[i] = acc.get(i, 0) + v
        return ShiftVector(acc)

    def neg(self) -> "ShiftVector":
        return ShiftVector(tuple((i, -v) for i, v in self.entries))

    def step(self, i: int, s: int = 1) -> "ShiftVector":
        return self.add(ShiftVector.e(i, s))

    def __eq__(self, other):
        if not isinstance(other, ShiftVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self.entries

    def __repr__(self):
        if not self.entries:
            return "0"
        return ",".join(f"{i}:{v}" for i, v in self.entries)


ZERO_SHIFT = ShiftVector()


class SepMaxIdeal:
    """A maximal ideal (f_1(t_1), ..., f_n(t_n)) given by univariate generators.

    ``arity`` is a positive integer or the string "inf"; in the unbounded
    case a degree-one default generator applies to every index without an
    explicit one.  Construction certifies maximality by checking each
    generator's irreducibility over the tower built from the earlier ones;
    checks that cannot be decided exactly must be asserted by the caller and
    leave the ideal (and everything built from it) marked uncertified.
    ``levels`` keeps that tower: index -> the field after adjoining the
    generator there, for each generator of degree >= 2, in index order.
    """

    __slots__ = ("field", "arity", "generators", "default_generator", "certified", "levels")

    def __init__(
        self,
        field: FieldDesc,
        arity,
        generators: Dict[int, Poly],
        default_generator: Optional[Poly] = None,
        *,
        assume_irreducible: bool = False,
    ):
        if arity != UNBOUNDED:
            arity = int(arity)
            if arity < 1:
                raise InvalidIdeal("arity must be positive or 'inf'")
        gens = {}
        for i, f in generators.items():
            i = int(i)
            if i < 1 or (arity != UNBOUNDED and i > arity):
                raise IndexOutOfArity(f"generator index {i} outside arity {arity}")
            if f.field != field:
                raise InvalidIdeal("generator over the wrong field")
            if not f.is_monic() or f.degree < 1:
                raise InvalidIdeal(f"generator at index {i} must be monic of degree >= 1")
            gens[i] = f
        default = None
        if arity == UNBOUNDED:
            if default_generator is None:
                raise InvalidIdeal("unbounded arity requires a default generator")
            default = default_generator
            if default.field != field:
                raise InvalidIdeal("default generator over the wrong field")
            if not default.is_monic() or default.degree < 1:
                raise InvalidIdeal("default generator must be monic of degree >= 1")
            if default.degree != 1:
                raise InvalidIdeal(
                    "unbounded arity needs a degree-one default generator "
                    "(the residue field must stay a finite tower)"
                )
            if _integer_shift_to_t(default) is not None:
                raise InvalidIdeal(
                    "default generator is an integer shift of t: the orbit "
                    "would be degenerate in infinitely many directions and "
                    "have no maximal break"
                )
            gens = {i: f for i, f in gens.items() if f != default}
        elif default_generator is not None:
            raise InvalidIdeal("default generator only applies to unbounded arity")

        tower, levels = field, {}
        for i in sorted(gens):
            f = gens[i]
            if f.degree == 1:
                continue
            lifted = Poly(tower, tuple(tower.embed(c) for c in f.coeffs))
            try:  # extend tests irreducibility, once per generator
                tower = extend(tower, lifted, assume_irreducible=assume_irreducible)
            except NotMaximalIdeal:
                raise NotMaximalIdeal(
                    f"generator at index {i} is reducible over the residue tower"
                ) from None
            except UncertifiedIrreducibility:
                raise UncertifiedIrreducibility(
                    f"cannot certify the generator at index {i}; pass "
                    "assume_irreducible=True to assert it"
                ) from None
            levels[i] = tower

        object.__setattr__(self, "field", field)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "generators", dict(gens))
        object.__setattr__(self, "default_generator", default)
        object.__setattr__(self, "certified", all(l.certified for l in levels.values()))
        object.__setattr__(self, "levels", levels)

    def __setattr__(self, *args):
        raise AttributeError("SepMaxIdeal is immutable")

    def generator(self, i: int) -> Poly:
        if self.arity != UNBOUNDED and not 1 <= i <= self.arity:
            raise IndexOutOfArity(f"index {i} outside arity {self.arity}")
        if i in self.generators:
            return self.generators[i]
        if self.arity == UNBOUNDED:
            return self.default_generator
        raise InvalidIdeal(f"finite ideal is missing a generator at index {i}")

    def explicit_indices(self) -> Tuple[int, ...]:
        if self.arity == UNBOUNDED:
            return tuple(sorted(self.generators))
        return tuple(range(1, self.arity + 1))

    def __eq__(self, other):
        if not isinstance(other, SepMaxIdeal):
            return NotImplemented
        return (
            self.field == other.field
            and self.arity == other.arity
            and self.generators == other.generators
            and self.default_generator == other.default_generator
        )

    def __hash__(self):
        return hash(
            (
                self.field,
                self.arity,
                tuple(sorted(self.generators.items(), key=lambda kv: kv[0])),
                self.default_generator,
            )
        )

    def __repr__(self):
        parts = [f"{i}->({f!r})" for i, f in sorted(self.generators.items())]
        if self.arity == UNBOUNDED:
            parts.append(f"default->({self.default_generator!r})")
        return f"SepMaxIdeal[{'; '.join(parts)}]"


def _integer_shift_to_t(f: Poly) -> Optional[int]:
    """If f(t + k) = t for an integer k of the prime field, return k."""
    if f.degree != 1:
        return None
    c = -f.coeff(0)
    if not c.is_prime_field_int():
        return None
    return c.prime_field_int()


def sigma_apply(m: SepMaxIdeal, gamma: ShiftVector) -> SepMaxIdeal:
    """Apply the shift group element indexed by gamma to the ideal.

    The generator at index i becomes f_i(t - gamma_i), so positive steps move
    the ideal in the raising direction.
    """
    gens = dict(m.generators)
    for i, v in gamma.entries:
        if m.arity != UNBOUNDED and not 1 <= i <= m.arity:
            raise IndexOutOfArity(f"shift index {i} outside arity {m.arity}")
        gens[i] = m.generator(i).shift(-v)
    return SepMaxIdeal(
        m.field,
        m.arity,
        gens,
        m.default_generator,
        assume_irreducible=not m.certified,
    )


class ResidueField:
    """The residue field of a normalized base ideal, with the t_i images.

    The field is the tower over K obtained by adjoining the degree >= 2
    generators in index order.  ``tbar(i)`` is the image of t_i; for a
    degree-one generator t - c it is the embedded constant c, and for higher
    degree it is the adjoined root at that index's tower level.
    """

    def __init__(self, ideal: SepMaxIdeal):
        level_of = ideal.levels  # the tower the ideal built when it was checked
        self.base_field = ideal.field
        self.desc = level_of[max(level_of)] if level_of else ideal.field
        self._level_of = level_of
        self._tbar: Dict[int, FieldElem] = {}
        for i in sorted(ideal.generators):
            f = ideal.generators[i]
            if f.degree < 2:
                self._tbar[i] = self.desc.embed(-f.coeff(0))
            else:
                self._tbar[i] = self.desc.embed(level_of[i].gen())
        self._default_tbar = None
        if ideal.default_generator is not None:
            self._default_tbar = self.desc.embed(-ideal.default_generator.coeff(0))

    def degree_over_base(self) -> int:
        return self.desc.degree_over(self.base_field)

    def tbar(self, i: int) -> FieldElem:
        if i in self._tbar:
            return self._tbar[i]
        if self._default_tbar is not None:
            return self._default_tbar
        raise IndexOutOfArity(f"no residue data for index {i}")

    def sigma_pow(self, elem: FieldElem, i: int, e: int) -> FieldElem:
        """Apply sigma_i^e on the residue field: tbar_i |-> tbar_i - e.

        Only meaningful when sigma_i fixes the base ideal, which forces the
        generator at i to have degree >= 2 (a dedicated tower level).
        """
        if e == 0:
            return elem
        level = self._level_of.get(i)
        if level is None:
            raise InvalidIdeal(
                f"sigma_{i} does not act on the residue field (degree-one generator)"
            )
        return _substitute_at_level(elem, level, -e)

    def embed_poly(self, f: Poly) -> Poly:
        return Poly(self.desc, tuple(self.desc.embed(c) for c in f.coeffs))


def _substitute_at_level(elem: FieldElem, level: FieldDesc, delta: int) -> FieldElem:
    """Replace the generator u of ``level`` by u + delta inside elem."""
    desc = elem.field
    if desc == level:
        rep = Poly(desc.base, elem.value)
        shifted = rep.shift(delta)
        return FieldElem(desc, shifted.coeffs)
    if desc.kind != "Ext":
        return elem
    new_coeffs = tuple(_substitute_at_level(c, level, delta) for c in elem.value)
    return FieldElem(desc, new_coeffs)


class OrbitInfo:
    """Everything the rest of the package needs to know about one orbit."""

    def __init__(
        self,
        base: SepMaxIdeal,
        kind: str,
        break_set: Tuple[int, ...],
        periods: Dict[int, int],
        tau: Dict[int, str],
        skeleton: Tuple[ShiftVector, ...],
        residue: ResidueField,
        input_gamma: ShiftVector,
    ):
        self.base = base
        self.kind = kind
        self.break_set = break_set
        self.nonbreak_set = tuple(i for i in base.explicit_indices() if i not in break_set)
        self.degenerate = bool(break_set)
        self.periods = periods
        self.tau = tau
        self.skeleton = skeleton
        self.residue = residue
        self.input_gamma = input_gamma
        self.certified = base.certified

    @property
    def char(self) -> int:
        return self.base.field.char

    @property
    def arity(self):
        return self.base.arity

    def indices(self) -> Tuple[int, ...]:
        return self.base.explicit_indices()

    def is_break_index(self, i: int) -> bool:
        return i in self.break_set

    def period(self, i: int) -> Optional[int]:
        """Orbit period in direction i (char p only; None in char 0)."""
        if self.char == 0:
            return None
        return self.periods[i]

    def tau_exponent(self, i: int) -> int:
        """1 when raising in direction i twists residue coefficients."""
        return 1 if self.tau.get(i) == "sigma" else 0

    def sigma_twist(self, elem: FieldElem, twist: Dict[int, int]) -> FieldElem:
        """elem under sigma_i^e for each (i, e) of ``twist`` whose direction twists."""
        for i, e in twist.items():
            if e and self.tau_exponent(i):
                elem = self.residue.sigma_pow(elem, i, e)
        return elem

    def canon_gamma(self, gamma: ShiftVector) -> ShiftVector:
        if self.char == 0:
            return gamma
        return ShiftVector(
            {i: v % self.periods[i] for i, v in gamma.entries if i in self.periods}
        )

    def step(self, gamma: ShiftVector, i: int, s: int) -> ShiftVector:
        return self.canon_gamma(gamma.step(i, s))

    def tbar(self, i: int) -> FieldElem:
        if self.is_break_index(i):
            return self.residue.desc.zero()
        return self.residue.tbar(i)

    def edge_scalar(self, gamma: ShiftVector, i: int) -> FieldElem:
        """The scalar of the raising/lowering pair between gamma and gamma+e_i.

        This is the image of t_i at the weight gamma, expressed in base-point
        coordinates: tbar_i + gamma_i.
        """
        return self.tbar(i) + self.residue.desc.from_int(gamma.get(i))

    def generator_at(self, gamma: ShiftVector, i: int) -> Poly:
        """Generator polynomial of the weight sigma^gamma(base) at index i."""
        return self.base.generator(i).shift(-gamma.get(i))

    def orbit_weights(self) -> List[ShiftVector]:
        """All points of a finite (char p) orbit in lexicographic order."""
        if self.char == 0:
            raise InvalidIdeal("characteristic-zero orbits are infinite")
        idx = self.indices()
        ranges = [range(self.periods[i]) for i in idx]
        out = [
            ShiftVector({i: v for i, v in zip(idx, combo)})
            for combo in itertools.product(*ranges)
        ]
        return sorted(out, key=lambda g: g.sort_key())

    def orbit_size(self) -> int:
        size = 1
        for i in self.indices():
            size *= self.periods[i]
        return size

    def __repr__(self):
        return (
            f"OrbitInfo(kind={self.kind}, breaks={list(self.break_set)}, "
            f"base={self.base!r})"
        )


def zero_one_vectors(indices) -> Tuple[ShiftVector, ...]:
    """The 0/1 vectors on the indices in ``sort_key`` order: over a break set,
    the characteristic-zero skeleton objects."""
    bits = itertools.product((0, 1), repeat=len(indices))
    vectors = (ShiftVector(dict(zip(indices, b))) for b in bits)
    return tuple(sorted(vectors, key=ShiftVector.sort_key))


def orbit_info(m: SepMaxIdeal) -> OrbitInfo:
    """Analyze the orbit of an ideal: breaks, periods, regions, residue data.

    The returned info is expressed relative to the normalized base point: the
    maximal break when the orbit is degenerate (every breaking coordinate
    shifted so its generator is exactly t), the input ideal otherwise.
    """
    char = m.field.char
    if char > 0 and m.arity == UNBOUNDED:
        raise InfiniteCharPOrbit(
            "unbounded arity in positive characteristic is not supported"
        )

    breaks: List[int] = []
    periods: Dict[int, int] = {}
    tau: Dict[int, str] = {}
    normalized: Dict[int, Poly] = {}
    input_shift: Dict[int, int] = {}

    for i in sorted(m.generators):
        f = m.generators[i]
        if char == 0:
            k = _integer_shift_to_t(f)
            if k is not None:
                breaks.append(i)
                normalized[i] = Poly.x(m.field)
                input_shift[i] = k
            else:
                normalized[i] = f
            tau[i] = "one"
        else:
            r = 1 if f.shift(1) == f else char
            periods[i] = r
            tau[i] = "sigma" if r == 1 else "one"
            k = _integer_shift_to_t(f)
            if k is not None:
                breaks.append(i)
                normalized[i] = Poly.x(m.field)
                input_shift[i] = k % char
            else:
                normalized[i] = f

    # only degree-one generators were replaced, so m's residue tower still holds
    base = object.__new__(SepMaxIdeal)
    for name in SepMaxIdeal.__slots__:
        object.__setattr__(base, name, normalized if name == "generators" else getattr(m, name))
    residue = ResidueField(base)
    break_set = tuple(sorted(breaks))
    kind = "linear" if char == 0 else "cyclic"

    skeleton = zero_one_vectors(break_set) if kind == "linear" else (ZERO_SHIFT,)

    return OrbitInfo(
        base=base,
        kind=kind,
        break_set=break_set,
        periods=periods,
        tau=tau,
        skeleton=skeleton,
        residue=residue,
        input_gamma=ShiftVector(input_shift),
    )


def canonical_skeleton_rep(info: OrbitInfo, gamma: ShiftVector) -> ShiftVector:
    """The skeleton object whose region contains sigma^gamma(base).

    In a linear degenerate orbit this is the 0/1 vector with a 1 exactly at
    break indices where gamma is >= 1; nondegenerate and cyclic orbits have a
    single skeleton object.
    """
    if info.kind != "linear" or not info.degenerate:
        return ZERO_SHIFT
    return ShiftVector({i: 1 for i in info.break_set if gamma.get(i) >= 1})


def region_of(info: OrbitInfo, gamma: ShiftVector) -> ShiftVector:
    """Find the region containing gamma by scanning the skeleton.

    The region of a skeleton object delta consists of the points whose
    coordinate at each break index lies weakly on delta's side: >= 1 when
    delta has a 1 there, <= 0 otherwise (0 counts as reachable: the region of
    an object must contain the object itself).  Agrees with
    canonical_skeleton_rep; the two are computed by independent rules.
    """
    if info.kind != "linear" or not info.degenerate:
        return ZERO_SHIFT
    for delta in info.skeleton:
        ok = True
        for i in info.break_set:
            g, d = gamma.get(i), delta.get(i)
            offset = g - d
            if d == 1 and offset < 0:
                ok = False
                break
            if d == 0 and offset > 0:
                ok = False
                break
        if ok:
            return delta
    raise NotASkeletonObject(f"no region contains {gamma!r}")  # pragma: no cover


class Window:
    """A finite set of weights on which a module is materialized.

    Characteristic zero: a coordinate box of the given radius around 0 over
    the listed indices.  Characteristic p: the whole (finite) orbit; steps
    wrap around coordinatewise, modulo each index's period, which is one more
    than the largest coordinate there.

    The steps are computed once, when the window is built: :meth:`step` reads
    a table from (weight, index, +1 or -1) to the neighbouring window weight,
    or None when the step leaves the window.  Every step of a module goes
    through it; ``OrbitInfo.step`` and a membership test are the reference.
    """

    def __init__(self, kind: str, indices: Tuple[int, ...], radius: int, weights):
        self.kind = kind
        self.indices = indices
        self.radius = radius
        self.weights = tuple(sorted(weights, key=lambda g: g.sort_key()))
        self._set = frozenset(self.weights)
        self._steps = self._step_table()

    def _step_table(self) -> Dict[Tuple[ShiftVector, int, int], Optional[ShiftVector]]:
        by_entries = {g.entries: g for g in self.weights}
        periods = {}
        if self.kind == "orbit":
            periods = {i: 1 + max((g.get(i) for g in self.weights), default=0)
                       for i in self.indices}
            if len(self._set) != math.prod(periods.values()) or any(
                v < 0 for g in self.weights for _, v in g.entries
            ):
                raise ValueError("an orbit window holds exactly the points of one orbit")
        table = {}
        for g in self.weights:
            for i in self.indices:
                for s in (1, -1):
                    moved = dict(g.entries)
                    moved[i] = moved.get(i, 0) + s
                    if i in periods:
                        moved[i] %= periods[i]
                    key = tuple(sorted((j, v) for j, v in moved.items() if v))
                    table[(g, i, s)] = by_entries.get(key)
        return table

    def step(self, gamma: ShiftVector, i: int, s: int) -> Optional[ShiftVector]:
        """The window weight one step from gamma in direction i, or None."""
        return self._steps.get((gamma, i, s))

    def __contains__(self, gamma: ShiftVector) -> bool:
        return gamma in self._set

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __eq__(self, other):
        if not isinstance(other, Window):
            return NotImplemented
        return self.weights == other.weights and self.indices == other.indices

    def __repr__(self):
        return f"Window({self.kind}, indices={self.indices}, size={len(self)})"


def make_window(
    info: OrbitInfo, radius: int = 3, indices: Optional[Iterable[int]] = None
) -> Window:
    """The default window: radius box (char 0) or the full orbit (char p).
    A negative radius, which leaves no weight, raises ValueError."""
    if radius < 0:
        raise ValueError(f"window radius must be >= 0, got {radius}")
    if info.char > 0:
        return Window("orbit", info.indices(), 0, info.orbit_weights())
    if indices is None:
        if info.arity == UNBOUNDED:
            raise InvalidIdeal("unbounded arity needs an explicit index set")
        idx = tuple(range(1, info.arity + 1))
    else:
        idx = tuple(sorted(set(int(i) for i in indices)))
        for i in idx:
            if info.arity != UNBOUNDED and not 1 <= i <= info.arity:
                raise IndexOutOfArity(f"window index {i} outside arity {info.arity}")
    span = range(-radius, radius + 1)
    weights = [
        ShiftVector({i: v for i, v in zip(idx, combo)})
        for combo in itertools.product(span, repeat=len(idx))
    ]
    return Window("box", idx, radius, weights)
