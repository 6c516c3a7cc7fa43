"""Classification and explicit construction of the simple weight modules.

Characteristic zero: one simple per orbit when nondegenerate, one per region
otherwise; both are expansions of one-dimensional skeleton data.  Positive
characteristic: families indexed by a subset of the break set, a raising or
lowering choice on it, and a maximal ideal of a (skew) polynomial algebra over
the residue field.  Explicit matrices are produced when that algebra is a
quotient by a principal ideal with finite-dimensional quotient (at most one
free variable, arity at most two); everything else stays a symbolic
descriptor.  Maximality of the parametrizing ideal is checked after the fact
by the simplicity oracle, Norton's test on the smallest weight space, which
certifies within the enumeration budget and beyond it refutes or raises
(see :func:`weylmod.weightmod.is_simple_finite`).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from .errors import (
    DegenerateOrbit,
    NotASkeletonObject,
    NotMaximal,
    NotPrincipal,
    QuotientNotFiniteDimensional,
    UnsupportedConstruction,
    WrongCharacteristic,
)
from .fields import Poly
from .linalg import Matrix, companion_matrix
from .orbits import ZERO_SHIFT, OrbitInfo, ShiftVector, Window, region_of
from .weightmod import (
    SkeletonModuleA,
    SkeletonModuleB,
    WeightModule,
    from_skeleton_module,
    is_simple_finite,
)


class SimpleDescriptor:
    """One entry of the classification list for a fixed orbit.

    kind "whole_orbit": the unique simple of a nondegenerate char-0 orbit.
    kind "region": the char-0 simple supported on one region.
    kind "family": a char-p family; ``gamma_set`` is the chosen subset of the
    break set, ``xi`` the raising/lowering choice on it, ``variables`` the
    free generators of the parametrizing algebra, and the maximal-ideal slot
    stays symbolic until a build is requested.
    """

    def __init__(self, kind, region=None, gamma_set=(), xi=None, info=None):
        self.kind = kind
        self.region = region
        self.gamma_set = tuple(sorted(gamma_set))
        self.xi = dict(xi or {})
        self.info = info

    @property
    def variables(self) -> Tuple[Tuple[str, int], ...]:
        if self.kind != "family":
            return ()
        out = [("d", i) for i in self.gamma_set]
        for j in self.info.indices():
            if j not in self.info.break_set:
                out.append(("c", j))
        return tuple(out)

    def presentation(self) -> dict:
        """Generators of the parametrizing algebra, for display."""
        gens = []
        for i in self.gamma_set:
            letter = "a" if self.xi[i] == 0 else "b"
            gens.append({"name": f"d{i}", "letter": letter, "index": i})
        for kind, j in self.variables:
            if kind == "c":
                gens.append(
                    {
                        "name": f"c{j}",
                        "letter": "c",
                        "index": j,
                        "invertible": True,
                        "twist": self.info.tau.get(j, "one"),
                    }
                )
        return {"coefficients": "residue field", "generators": gens, "ideal": "symbolic"}

    def __repr__(self):
        if self.kind == "whole_orbit":
            return "Simple(whole orbit)"
        if self.kind == "region":
            return f"Simple(region {self.region!r})"
        xi = ",".join(f"{i}:{v}" for i, v in sorted(self.xi.items()))
        return f"SimpleFamily(gamma={list(self.gamma_set)}, xi=[{xi}])"


def classify_simples(info: OrbitInfo) -> List[SimpleDescriptor]:
    """The complete list of simple-module descriptors for one orbit."""
    if info.char == 0:
        if not info.degenerate:
            return [SimpleDescriptor("whole_orbit", info=info)]
        return [
            SimpleDescriptor("region", region=delta, info=info)
            for delta in info.skeleton
        ]
    out = []
    breaks = info.break_set
    for size in range(len(breaks) + 1):
        for gamma_set in itertools.combinations(breaks, size):
            for bits in itertools.product((0, 1), repeat=size):
                xi = {i: b for i, b in zip(gamma_set, bits)}
                out.append(
                    SimpleDescriptor("family", gamma_set=gamma_set, xi=xi, info=info)
                )
    return out


def build_S_O(info: OrbitInfo, window: Optional[Window] = None) -> WeightModule:
    """The simple module of a nondegenerate characteristic-zero orbit.

    Every weight space is the residue field; raising acts as the identity and
    lowering by the edge scalar.
    """
    if info.char != 0:
        raise WrongCharacteristic("this construction needs characteristic zero")
    if info.degenerate:
        raise DegenerateOrbit("orbit has breaks; build the region simples instead")
    data = SkeletonModuleA(info.residue.desc, (), {ZERO_SHIFT: 1}, {}, {})
    return from_skeleton_module(data, info, window)


def build_S_O_p(
    info: OrbitInfo, region: ShiftVector, window: Optional[Window] = None
) -> WeightModule:
    """The char-0 simple supported on one region of a degenerate orbit.

    Transitions that would leave the region are zero (their target space is
    zero); inside the region the module looks like the nondegenerate one.
    """
    if info.char != 0:
        raise WrongCharacteristic("this construction needs characteristic zero")
    if not info.degenerate:
        raise DegenerateOrbit("nondegenerate orbit: use the whole-orbit simple")
    if region not in info.skeleton:
        raise NotASkeletonObject(f"{region!r} is not a region representative")
    field = info.residue.desc
    values = {delta: (1 if delta == region else 0) for delta in info.skeleton}
    a, b = {}, {}
    for delta in info.skeleton:
        for i in info.break_set:
            if delta.get(i) != 0:
                continue
            up = delta.step(i, 1)
            a[(delta, i)] = Matrix.zeros(field, values[up], values[delta])
            b[(delta, i)] = Matrix.zeros(field, values[delta], values[up])
    data = SkeletonModuleA(field, info.break_set, values, a, b)
    return from_skeleton_module(data, info, window)


def _single_variable_quotient(info: OrbitInfo, desc: SimpleDescriptor, gen: Poly):
    """Companion-matrix data for the quotient by one principal generator."""
    field = info.residue.desc
    if gen.field != field:
        raise NotPrincipal("generator must be a polynomial over the residue field")
    (kind, index) = desc.variables[0]
    if gen.is_zero():
        raise QuotientNotFiniteDimensional("zero generator gives the whole algebra")
    coeffs = list(gen.coeffs)
    if kind == "c":
        # Laurent normalization: strip powers of the invertible variable
        low = 0
        while coeffs[low].is_zero():
            low += 1
        coeffs = coeffs[low:]
    gen = Poly(field, coeffs).monic()
    if gen.degree < 1:
        raise QuotientNotFiniteDimensional("unit generator gives the zero quotient")
    if kind == "c" and gen.coeff(0).is_zero():
        raise NotPrincipal("generator needs a nonzero constant term")
    return kind, index, gen.degree, companion_matrix(gen)


def build_S_char_p(
    info: OrbitInfo,
    desc: SimpleDescriptor,
    n_generator: Optional[Poly] = None,
    *,
    check_simple: bool = True,
    max_vectors: int = 1 << 16,
) -> WeightModule:
    """Explicit matrices for a char-p simple family member.

    Supported range: arity at most 2 and a parametrizing algebra with at most
    one free variable, the maximal ideal given by one principal generator (a
    polynomial in the d-variable, or a Laurent polynomial with invertible
    ends in the c-variable).  Unless ``check_simple`` is disabled the result
    is checked by :func:`is_simple_finite`: a proper submodule raises
    :class:`NotMaximal`, and :class:`EnumerationBudgetExceeded` is raised
    when none is found but the smallest weight space exceeds ``max_vectors``.
    """
    if info.char == 0:
        raise WrongCharacteristic("this construction needs characteristic p")
    if desc.kind != "family":
        raise UnsupportedConstruction("need a char-p family descriptor")
    if info.arity != "inf" and info.arity > 2:
        raise UnsupportedConstruction(
            "explicit matrices are limited to arity <= 2; the descriptor stays symbolic"
        )
    field = info.residue.desc
    variables = desc.variables
    if len(variables) == 0:
        if n_generator is not None and not n_generator.is_zero():
            raise NotPrincipal("the parametrizing algebra is the residue field; "
                               "only the zero ideal is proper")
        dim = 1
        amat = {i: Matrix.zeros(field, 1, 1) for i in info.break_set}
        bmat = {i: Matrix.zeros(field, 1, 1) for i in info.break_set}
        cmat = {}
    elif len(variables) == 1:
        if n_generator is None:
            raise NotPrincipal("a principal generator for the maximal ideal is required")
        kind, index, dim, companion = _single_variable_quotient(info, desc, n_generator)
        amat = {i: Matrix.zeros(field, dim, dim) for i in info.break_set}
        bmat = {i: Matrix.zeros(field, dim, dim) for i in info.break_set}
        cmat = {}
        if kind == "d":
            if desc.xi[index] == 0:
                amat[index] = companion
            else:
                bmat[index] = companion
        else:
            cmat[index] = companion
    else:
        raise QuotientNotFiniteDimensional(
            "a principal ideal in two or more variables never has a "
            "finite-dimensional quotient"
        )
    for j in info.indices():
        if j not in info.break_set and j not in cmat:
            raise QuotientNotFiniteDimensional(
                "invertible variables without a generator keep the quotient infinite"
            )
    data = SkeletonModuleB(info, dim, amat, bmat, cmat)
    module = from_skeleton_module(data, info)
    if check_simple and not is_simple_finite(module, max_vectors=max_vectors):
        raise NotMaximal("the parametrizing ideal is not maximal: quotient is not simple")
    return module


def structural_simplicity_certificate(module: WeightModule) -> bool:
    """Char-0 certificate: one-dimensional weight spaces in one region, all
    interior maps invertible.

    A module whose nonzero weight spaces are all one-dimensional over the
    residue field and lie in a single region, with every in-window
    transition between two nonzero spaces invertible, has no proper
    in-window-stable subspace but the zero one.  Without the dimension
    condition a direct sum S + S would pass.
    """
    info = module.info
    support = [g for g in module.window if module.dim(g) > 0]
    if not support or any(module.dim(g) != 1 for g in support):
        return False
    regions = {region_of(info, g) for g in support}
    if len(regions) > 1:
        return False
    for gamma in support:
        for i in module.window.indices:
            for mat, s in ((module.x(i, gamma), 1), (module.d(i, gamma), -1)):
                target = module.window.step(gamma, i, s)
                if target is None or module.dim(target) == 0:
                    continue
                if mat.nrows != mat.ncols or mat.inverse() is None:
                    return False
    return True
