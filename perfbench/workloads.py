"""Seeded request lists for the three benchmark workloads, with their answer checks.

Every request is a closed-loop call into weylmod whose answer is known
independently of the code under test:

* reducible parameters are products this file builds itself;
* irreducible parameters over GF(p) are confirmed by the plain-int trial
  division below, never by ``weylmod.fields.is_irreducible``;
* the twisted GF(4)[c; sigma] and GF(9) cases use the hand-written tables
  further down (derived by hand from skew/commutative factorisations);
* quiver counts come from the classification lists;
* S (+) S is decomposable, and its structural certificate must be False;
* README commands must print the same bytes every time they run.

Two defects of the parent code are known and left visible (see README.md):
``bug1`` (the budget fallback of ``is_simple_finite`` certifies a reducible
parameter as simple) and ``bug2`` (``structural_simplicity_certificate``
accepts a direct sum).  A wrong answer at a request tagged with one of them
is a known wrong verdict, counted apart; any other wrong answer is a failure
and makes the run incorrect.

Requests call weylmod through module attributes at call time, so the tracer
in tracing.py sees every call after it rebinds those attributes.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

from weylmod import cli, fields, heisenberg, indecomp, jsonio, orbits, simples, weightmod

UNDECIDED = ("EnumerationBudgetExceeded", "InfiniteDimension")
EXHAUSTIVE_BUDGET = 1 << 16  # library default of is_simple_finite / build_S_char_p


@dataclass
class Request:
    """One closed-loop request and the answer it must give.

    ``want`` is a predicate on the returned value (a bool, or one of the
    statuses of :func:`judge`), or the name of the error the call must
    raise.  ``known`` names the documented defect that explains a wrong
    answer here, if any.
    """

    label: str
    run: Callable[[], object]
    want: object
    known: Optional[str] = None


def judge(req: Request, value, error) -> str:
    """Classify one outcome as ok, undecided or wrong."""
    if error is not None:
        name = type(error).__name__
        if name == req.want:
            return "ok"
        if name in UNDECIDED:
            return "undecided"
        return "wrong"
    if isinstance(req.want, str):
        return "wrong"
    verdict = req.want(value)
    if isinstance(verdict, str):
        return verdict
    return "ok" if verdict else "wrong"


# ---- plain-int polynomials over GF(p), independent of weylmod.fields ---------


def pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def pmod(a, m, p):
    """Remainder of a by the monic m, ascending coefficient lists."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        lead = a.pop()
        shift = len(a) - dm
        for i in range(dm):
            a[shift + i] = (a[shift + i] - lead * m[i]) % p
    return a


def is_irreducible_gfp(f, p) -> bool:
    """Trial division of the monic f by every monic of degree <= deg f / 2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not any(pmod(f, list(low) + [1], p)):
                return False
    return True


def random_monic(rng, p, d):
    return [rng.randrange(p) for _ in range(d)] + [1]


def draw_irreducible(rng, p, d):
    while True:
        f = random_monic(rng, p, d)
        if is_irreducible_gfp(f, p):
            return f


def draw_reducible(rng, p, d):
    k = rng.randrange(1, d)
    return pmul(random_monic(rng, p, k), random_monic(rng, p, d - k), p)


# ---- hand-written tables for the residue towers -------------------------------
# GF(4) = GF(2)[w]/(w^2+w+1) and GF(9) = GF(3)[i]/(i^2+1); an element (a, b)
# is a + b*w (resp. a + b*i).  Polynomials list coefficients low degree first,
# without the leading 1.

# GF(4)[c; sigma], sigma the Frobenius (the shift t -> t-1 on the residue of
# t^2+t+1).  (c+u)(c+v) = c^2 + (sigma(v)+u)c + uv, so c^2+bc+a factors iff
# b = v^2(1+a) for some v != 0: reducible iff (a = 1 and b = 0) or
# (a != 1 and b != 0).
TWISTED_DEG2 = {
    (a, b): (a == (1, 0)) == (b != (0, 0))
    for a in ((1, 0), (0, 1), (1, 1))
    for b in ((0, 0), (1, 0), (0, 1), (1, 1))
}
TWISTED_DEG3 = {
    ((1, 0), (1, 0), (0, 0)): True,  # c^3+c+1: no linear left or right factor
    ((0, 1), (0, 0), (0, 1)): True,  # c^3+w c^2+w: no linear left or right factor
    ((0, 1), (1, 1), (1, 0)): False,  # (c+1)(c^2+w)
    ((1, 0), (1, 0), (1, 0)): False,  # (c+1)(c^2+1)
    ((1, 0), (0, 1), (1, 1)): False,  # (c+1)(c^2+w^2 c+1)
}
GF4_UNITS = ((1, 0), (0, 1), (1, 1))
# GF(9)^* is cyclic of order 8, generated by 1+i; its non-squares are the odd
# powers 1+i, 1+2i, 2+2i, 2+i, so c^2 - g is irreducible exactly for those g.
GF9_NONSQUARES = ((1, 1), (1, 2), (2, 2), (2, 1))
GF9_UNITS = tuple((a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0))


def gf9_mul(x, y):
    return ((x[0] * y[0] - x[1] * y[1]) % 3, (x[0] * y[1] + x[1] * y[0]) % 3)


def tower_elem(desc, pair):
    gen = desc.gen()
    return desc.from_int(pair[0]) + desc.from_int(pair[1]) * gen


def tower_poly(desc, coeffs):
    """Monic polynomial with the given lower coefficients over a tower."""
    return fields.Poly(desc, [tower_elem(desc, c) for c in coeffs] + [desc.one()])


# ---- charp_certify --------------------------------------------------------------


class CharP:
    """One char-p orbit family and how to draw its parameters."""

    def __init__(self, kind, p, rng):
        self.kind = kind
        if kind == "lin":
            field = fields.GF(p)
            c = rng.randrange(p)
            ideal = orbits.SepMaxIdeal(field, 1, {1: fields.Poly(field, [-c, 1])})
            self.q, self.scale = p, p  # kdim = p * deg N
        elif kind == "twisted":
            f2 = fields.GF(2)
            ideal = orbits.SepMaxIdeal(f2, 1, {1: fields.Poly(f2, [1, 1, 1])})
            self.q, self.scale = 2, 2
        elif kind == "gf9":
            f3 = fields.GF(3)
            ideal = orbits.SepMaxIdeal(f3, 1, {1: fields.Poly(f3, [1, 0, 1])})
            self.q, self.scale = 3, 6
        else:  # the arity-2 mixed ideal: a twisted loop next to a break
            f2 = fields.GF(2)
            ideal = orbits.SepMaxIdeal(
                f2, 2, {1: fields.Poly(f2, [1, 1, 1]), 2: fields.Poly.x(f2)}
            )
            self.q, self.scale = 2, 4
        self.p = p
        self.info = orbits.orbit_info(ideal)
        descs = simples.classify_simples(self.info)
        # the two one-variable families (raising / lowering) of a linear break
        self.which = 1 + rng.randrange(2) if kind == "lin" else 0
        self.desc = descs[self.which]
        self.residue = self.info.residue.desc

    def beyond_budget(self, deg) -> bool:
        return self.q ** (self.scale * deg) > EXHAUSTIVE_BUDGET

    def param(self, rng, deg, shape):
        """(N, simple?, indecomposable?) drawn by shape."""
        if self.kind == "lin":
            p = self.p
            if shape == "irr":
                f = draw_irreducible(rng, p, deg)
                return fields.Poly(self.residue, f), True, True
            if shape == "red":
                return fields.Poly(self.residue, draw_reducible(rng, p, deg)), False, None
            if shape == "coprime":  # f*g with f != g monic irreducible: decomposable
                f = draw_irreducible(rng, p, deg // 2)
                g = f
                while g == f:
                    g = draw_irreducible(rng, p, deg - deg // 2)
                return fields.Poly(self.residue, pmul(f, g, p)), False, False
            f = draw_irreducible(rng, p, deg // 2)  # "square": local quotient
            return fields.Poly(self.residue, pmul(f, f, p)), False, True
        if self.kind in ("twisted", "mixed"):
            if deg == 1:
                return tower_poly(self.residue, [rng.choice(GF4_UNITS)]), True, True
            table = TWISTED_DEG2 if deg == 2 else TWISTED_DEG3
            keys = sorted(k for k, simple in table.items() if simple == (shape == "irr"))
            key = rng.choice(keys)
            return tower_poly(self.residue, list(key)), table[key], True if table[key] else None
        # gf9: commutative GF(9)[c, 1/c]
        if deg == 1:
            return tower_poly(self.residue, [rng.choice(GF9_UNITS)]), True, True
        if shape == "irr":
            g = rng.choice(GF9_NONSQUARES)
            return tower_poly(self.residue, [((-g[0]) % 3, (-g[1]) % 3), (0, 0)]), True, True
        u, v = rng.choice(GF9_UNITS), rng.choice(GF9_UNITS)
        low = gf9_mul(u, v)
        mid = ((-u[0] - v[0]) % 3, (-u[1] - v[1]) % 3)  # (c-u)(c-v)
        return tower_poly(self.residue, [low, mid]), False, u == v


# (family, p, degree, shape, call); call is build, S or SS
CHARP_SLOTS = [
    ("lin", 2, 2, "irr", "build"),
    ("lin", 2, 3, "irr", "build"),
    ("lin", 2, 4, "irr", "build"),
    ("lin", 2, 3, "red", "build"),
    ("lin", 2, 4, "red", "build"),
    ("lin", 3, 1, "irr", "build"),
    ("lin", 3, 2, "irr", "build"),
    ("lin", 3, 2, "red", "build"),
    ("lin", 3, 4, "irr", "build"),
    ("lin", 3, 4, "red", "build"),
    ("lin", 3, 4, "red", "build"),
    ("lin", 5, 1, "irr", "build"),
    ("lin", 5, 2, "irr", "build"),
    ("lin", 5, 2, "red", "build"),
    ("lin", 5, 3, "irr", "build"),
    ("lin", 5, 3, "red", "build"),
    ("lin", 7, 1, "irr", "build"),
    ("lin", 7, 2, "irr", "build"),
    ("lin", 7, 2, "red", "build"),
    ("lin", 7, 3, "red", "build"),
    ("twisted", None, 1, "irr", "build"),
    ("twisted", None, 2, "irr", "build"),
    ("twisted", None, 2, "red", "build"),
    ("twisted", None, 3, "irr", "build"),
    ("twisted", None, 3, "red", "build"),
    ("gf9", None, 1, "irr", "build"),
    ("gf9", None, 2, "irr", "build"),
    ("gf9", None, 2, "red", "build"),
    ("mixed", None, 1, "irr", "build"),
    ("mixed", None, 2, "irr", "build"),
    ("mixed", None, 2, "red", "build"),
    ("lin", 2, 3, "irr", "S"),
    ("lin", 3, 2, "coprime", "S"),
    ("lin", 5, 2, "square", "S"),
    ("lin", 7, 2, "irr", "S"),
    ("lin", 3, 4, "irr", "S"),
    ("twisted", None, 2, "irr", "S"),
    ("gf9", None, 1, "irr", "S"),
    ("mixed", None, 2, "irr", "S"),
    ("lin", 2, 2, "irr", "SS"),
    ("lin", 2, 3, "irr", "SS"),
    ("lin", 3, 2, "irr", "SS"),
    ("lin", 3, 3, "irr", "SS"),
    ("lin", 5, 1, "irr", "SS"),
    ("lin", 5, 2, "irr", "SS"),
    ("lin", 7, 1, "irr", "SS"),
    ("twisted", None, 2, "irr", "SS"),
    ("gf9", None, 1, "irr", "SS"),
    ("mixed", None, 1, "irr", "SS"),
]
CHARP_SMOKE_SLOTS = [
    ("lin", 3, 2, "irr", "build"),
    ("lin", 5, 2, "red", "build"),
    ("twisted", None, 2, "irr", "S"),
    ("lin", 3, 3, "irr", "SS"),
]


def _build_and_verify(info, which, n_gen):
    desc = simples.classify_simples(info)[which]
    module = simples.build_S_char_p(info, desc, n_gen)
    return weightmod.verify_relations(module).ok


def _charp_request(rng, slot) -> Request:
    kind, p, deg, shape, call = slot
    fam = CharP(kind, p, rng)
    n_gen, simple, indec = fam.param(rng, deg, shape)
    label = f"{call}:{kind}{p or ''}:d{deg}:{shape}"
    if call == "build":
        run = lambda: _build_and_verify(fam.info, fam.which, n_gen)  # noqa: E731
        if simple:
            return Request(label, run, lambda ok: ok is True)
        known = "bug1" if fam.beyond_budget(deg) else None
        return Request(label, run, "NotMaximal", known)
    module = simples.build_S_char_p(fam.info, fam.desc, n_gen, check_simple=False)
    if call == "SS":
        module = weightmod.direct_sum(module, module)
        indec = False
    return Request(
        label, lambda: weightmod.is_indecomposable_finite(module), lambda v: v is indec
    )


def charp_cycles(seed, smoke, ncycles):
    rng = random.Random(seed)
    slots = CHARP_SMOKE_SLOTS if smoke else CHARP_SLOTS
    cycles = []
    for _ in range(ncycles):
        cycle = [_charp_request(rng, s) for s in slots]
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


# ---- quiver_oracle ----------------------------------------------------------------

# Vectors whose single call takes 0.4 s to 0.9 s, several times the rest of the
# pool (2 GHz Xeon); with them a cycle took 9 s and a run held two or three.
SLOW_VECTORS = {
    ("q1", 2, (3, 2)), ("q1", 2, (2, 3)),
    ("q2", 3, (1, 0, 1, 2)), ("q2", 3, (2, 1, 0, 1)), ("q2", 3, (1, 2, 1, 0)),
    ("q2", 3, (0, 1, 2, 1)), ("q2", 3, (1, 1, 1, 1)),
}


def quiver_pool(smoke=False):
    """Dimension vectors of the oracle requests.

    Left out because one call takes 1.2 s to minutes: over GF(3), q1 (2,2)
    and anything with a 3, and q2 of total 4 shaped (2,2,0,0) or with a 3;
    over GF(2), q1 (3,3) and q2 with a 4.  SLOW_VECTORS are left out too.
    What stays spans 0.2 ms to 0.3 s a call, about 4 s a cycle.
    """
    too_costly = {2: (3, 3), 3: (2, 2)}
    pool = [
        ("q1", p, d)
        for p, cap in ((2, 3), (3, 2))
        for d in itertools.product(range(cap + 1), repeat=2)
        if d != (0, 0) and d != too_costly[p]
    ]
    pool += [
        ("q2", p, d)
        for p, cap in ((2, 3), (3, 2))
        for d in itertools.product(range(cap + 1), repeat=4)
        if 1 <= sum(d) <= 3 or (sum(d) == 4 and (p == 2 or sorted(d) != [0, 0, 2, 2]))
    ]
    pool = [entry for entry in pool if entry not in SLOW_VECTORS]
    if smoke:
        return [entry for entry in pool if sum(entry[2]) <= 2][:8]
    return pool


def _quiver_expected(quiver, p):
    field = fields.GF(p)
    if quiver == "q1":
        reps = indecomp.q1_indecomposables(field)
    else:  # complete for total dimension <= 4: strings up to 4, bands of degree 1
        reps = indecomp.q2_indecomposables(field, max_string_len=4, max_poly_deg=1)
    counts = {}
    for rep in reps:
        counts[rep.dim_vector()] = counts.get(rep.dim_vector(), 0) + 1
    return counts


def quiver_cycles(seed, smoke, ncycles):
    """Every vector of the pool once per cycle, in an order drawn from the seed.

    The oracle's cost differs by up to 100x between neighbouring vectors, so
    drawing a subset would make the mix, and with it every percentile,
    depend on the seed.
    """
    rng = random.Random(seed)
    expected = {(q, p): _quiver_expected(q, p) for q in ("q1", "q2") for p in (2, 3)}
    cycles = []
    for _ in range(ncycles):
        cycle = []
        for quiver, p, dims in quiver_pool(smoke):
            want = expected[(quiver, p)].get(dims, 0)
            vertices, _ = indecomp.quiver_layout(quiver)
            run = (
                lambda q=quiver, f=fields.GF(p), d=dict(zip(vertices, dims)):
                indecomp.brute_force_indecomposables(q, f, d)["indecomposable_count"]
            )
            cycle.append(Request(f"oracle:{quiver}:gf{p}:{dims}", run, lambda v, w=want: v == w))
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


# ---- char0_tame ---------------------------------------------------------------------


class Char0:
    """Orbits over Q and Q(sqrt 2) and the classification lists on them."""

    def __init__(self):
        q = fields.QQ
        x = fields.Poly.x(q)
        half = fields.Poly(q, [Fraction(-1, 2), 1])
        self.sqrt2 = fields.extend(q, fields.Poly(q, [-2, 0, 1]))
        s2 = self.sqrt2
        root2 = fields.Poly(s2, [-s2.gen(), s2.one()])
        self.order2 = orbits.orbit_info(orbits.SepMaxIdeal(q, 2, {1: x, 2: x}))
        self.order1 = {
            "q": orbits.orbit_info(orbits.SepMaxIdeal(q, 1, {1: x})),
            "q-arity2": orbits.orbit_info(orbits.SepMaxIdeal(q, 2, {1: x, 2: half})),
            "sqrt2": orbits.orbit_info(
                orbits.SepMaxIdeal(s2, 2, {1: fields.Poly.x(s2), 2: root2})
            ),
        }
        self.nondeg = {
            "q": orbits.orbit_info(orbits.SepMaxIdeal(q, 1, {1: half})),
            "sqrt2": orbits.orbit_info(orbits.SepMaxIdeal(s2, 1, {1: root2})),
        }
        self.q2_list = indecomp.q2_indecomposables(q, max_string_len=4, max_poly_deg=1)
        # bands of degree 2 include irreducible quadratics, whose endomorphism
        # algebra is a quadratic field: the Q oracle leaves those undecided.
        self.q2_bands2 = [
            rep
            for rep in indecomp.q2_indecomposables(q, max_string_len=2, max_poly_deg=2)
            if rep.dims[0] == 2
        ]
        self.q1_lists = {
            key: indecomp.q1_indecomposables(info.residue.desc) for key, info in self.order1.items()
        }


def _roundtrip(module):
    data = weightmod.to_skeleton_module(module)
    back = weightmod.from_skeleton_module(data, module.info, module.window)
    return back == module


def _char0_request(ctx: Char0, slot) -> Request:
    builder, target, check = slot
    rep = None
    if builder == "order2":
        rep = target
        info = ctx.order2
        build = lambda: indecomp.build_order2_module(  # noqa: E731
            info, rep, orbits.make_window(info, radius=1)
        )
    elif builder == "order1":
        key, which = target
        info = ctx.order1[key]
        radius = 3 if info.arity == 1 else 1
        build = lambda: indecomp.build_order1_modules(  # noqa: E731
            info, orbits.make_window(info, radius=radius)
        )[which][1]
        if which >= 2:
            rep = ctx.q1_lists[key][which]
    elif builder == "S_O":
        info = ctx.nondeg[target]
        build = lambda: simples.build_S_O(info, orbits.make_window(info, radius=3))  # noqa: E731
    else:  # S_O_p on a region of the order-2 break
        info = ctx.order2
        build = lambda: simples.build_S_O_p(  # noqa: E731
            info, target, orbits.make_window(info, radius=2)
        )

    label = f"{builder}:{check}"
    if check == "verify":
        return Request(label, lambda: weightmod.verify_relations(build()).ok, lambda v: v is True)
    if check == "roundtrip":
        return Request(label, lambda: _roundtrip(build()), lambda v: v is True)
    if check == "to_rep":
        def run():
            back = indecomp.weight_module_to_rep(build())
            return back.dims == rep.dims and back.arrows == rep.arrows

        return Request(label, run, lambda v: v is True)
    if check == "indec":
        return Request(
            label, lambda: weightmod.is_indecomposable_finite(build()), lambda v: v is True
        )
    if check == "indec-sum":
        def run():
            s = build()
            return weightmod.is_indecomposable_finite(weightmod.direct_sum(s, s))

        return Request(label, run, lambda v: v is False)
    if check == "closure":
        # M(raise) is generated by its base weight, M(lower) by the raised
        # one; the other weight generates a proper submodule
        glued, proper = (orbits.ZERO_SHIFT, orbits.ShiftVector.e(1))
        if which == 3:
            glued, proper = proper, glued

        def run():
            module = build()
            one = (module.field.one(),)
            return (
                weightmod.submodule_closure(module, [(glued, one)])["full"],
                weightmod.submodule_closure(module, [(proper, one)])["full"],
            )

        return Request(label, run, lambda v: v == (True, False))
    if check == "struct":
        return Request(
            label, lambda: simples.structural_simplicity_certificate(build()), lambda v: v is True
        )
    # struct-sum: S (+) S is never simple
    def run():
        s = build()
        return simples.structural_simplicity_certificate(weightmod.direct_sum(s, s))

    return Request(label, run, lambda v: v is False, "bug2")


def _heisenberg_request(radius, max_index) -> Request:
    def run():
        report = heisenberg.heisenberg_action_check(radius=radius, max_index=max_index)
        return report["ok"] and report["brackets_checked"] > 0

    return Request(f"heisenberg:r{radius}:i{max_index}", run, lambda v: v is True)


def _graded_request(degree, length, bound) -> Request:
    span = range(-bound, bound + 1)
    want = sum(
        1
        for tup in itertools.product(span, repeat=length)
        if sum((k + 1) * v for k, v in enumerate(tup)) == degree
    )
    return Request(
        f"graded:{degree}:{length}:{bound}",
        lambda: heisenberg.graded_count(degree, length, bound),
        lambda v: v == want,
    )


# checks per module kind: every module, the glued order-1 ones, the simples
ONE = ("verify", "roundtrip", "indec")
GLUED = ("to_rep", "closure")
SIMPLE_CHECKS = ("verify", "indec", "struct", "struct-sum")
HEISENBERG_SIZES = [(1, 2), (1, 3), (2, 2)]  # (radius, max index); r=2, i=4 takes 2.4 s


def _char0_slots(ctx: Char0, rng, smoke):
    """(builder, target, check): every classification module with its checks.

    Only two degree-2 bands are drawn per cycle: their oracle call is the
    slowest here and ends undecided.
    """
    bands = [("order2", rep, "indec") for rep in rng.sample(ctx.q2_bands2, 2)]
    order1 = [
        ("order1", (key, which), check)
        for key in sorted(ctx.order1)
        for which, checks in ((0, ONE), (1, ONE), (2, ONE + GLUED), (3, ONE + GLUED))
        for check in checks
    ]
    if smoke:
        return [("order2", ctx.q2_list[0], "verify"), bands[0], order1[-1],
                ("S_O", "q", "struct-sum")]
    return (
        [("order2", rep, c) for rep in ctx.q2_list for c in ONE + ("to_rep",)]
        + bands
        + order1
        + [
            ("S_O", key, c)
            for key in sorted(ctx.nondeg)
            for c in SIMPLE_CHECKS + ("roundtrip", "indec-sum")
        ]
        + [("S_O_p", region, c) for region in ctx.order2.skeleton for c in SIMPLE_CHECKS]
    )


def char0_cycles(seed, smoke, ncycles):
    rng = random.Random(seed)
    ctx = Char0()
    cycles = []
    for _ in range(ncycles):
        cycle = [_char0_request(ctx, slot) for slot in _char0_slots(ctx, rng, smoke)]
        for radius, max_index in HEISENBERG_SIZES[: 1 if smoke else 3]:
            cycle.append(_heisenberg_request(radius, max_index))
            cycle.append(
                _graded_request(rng.randrange(-3, 4), rng.randrange(3, 5), rng.randrange(1, 3))
            )
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


# ---- README commands, run in process by the traced pass ------------------------------


class CliRuns:
    """Writes the seeded JSON inputs and runs README commands through ``cli.main``."""

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.workdir = root / "perfbench" / ".work" / f"{os.getpid()}-{seed}"
        self.first_stdout = {}
        self.commands = self._commands(random.Random(seed), smoke)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass

    def _write(self, name, payload) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / name
        path.write_text(jsonio.dumps(payload), encoding="utf-8")
        return str(path)

    def _module_file(self, name, module) -> str:
        return self._write(name, jsonio.module_to_json(module))

    def _commands(self, rng, smoke):
        """(argv, verdict check on the parsed stdout, known defect) triples."""
        q = fields.QQ
        f2 = fields.GF(2)
        p_lin = 3
        fp = fields.GF(p_lin)
        twisted = orbits.SepMaxIdeal(f2, 1, {1: fields.Poly(f2, [1, 1, 1])})
        linear = orbits.SepMaxIdeal(fp, 1, {1: fields.Poly(fp, [-rng.randrange(p_lin), 1])})
        break2 = orbits.SepMaxIdeal(q, 2, {1: fields.Poly.x(q), 2: fields.Poly.x(q)})
        ideals = {
            "twisted": self._write("twisted.json", jsonio.ideal_to_json(twisted)),
            "linear": self._write("linear.json", jsonio.ideal_to_json(linear)),
            "break2": self._write("break2.json", jsonio.ideal_to_json(break2)),
        }
        cmds = []

        def add(argv, check, known=None):
            cmds.append((tuple(argv), check, known))

        # simples list: 3^|breaks| families in char p, one simple per region in char 0
        add(["simples", "list", ideals["linear"]], lambda o: o["count"] == 3)
        add(["simples", "list", ideals["break2"]], lambda o: o["count"] == 4)
        # simples build: twisted cubic from the hand table, linear degree 1
        key = rng.choice([k for k, s in TWISTED_DEG3.items() if s])
        n_tw = json.dumps([list(c) for c in key] + [[1]])
        add(
            ["simples", "build", ideals["twisted"], "--which", "0", "--N", n_tw],
            lambda o: sum(o["spaces"].values()) * 2 == 6,
        )
        root = rng.randrange(p_lin)
        add(
            ["simples", "build", ideals["linear"], "--which", "1",
             "--N", json.dumps([(-root) % p_lin, 1])],
            lambda o: sum(o["spaces"].values()) == p_lin,
        )
        # modules: a simple, a reducible quotient (exhaustive refutation), and
        # over GF(5) a reducible quadratic beyond the CLI budget (bug 1)
        lin3 = CharP("lin", 3, rng)
        irr = fields.Poly(lin3.residue, draw_irreducible(rng, 3, 2))
        red = fields.Poly(lin3.residue, draw_reducible(rng, 3, 2))
        s_irr = simples.build_S_char_p(lin3.info, lin3.desc, irr, check_simple=False)
        s_red = simples.build_S_char_p(lin3.info, lin3.desc, red, check_simple=False)
        lin5 = CharP("lin", 5, rng)
        red5 = fields.Poly(lin5.residue, draw_reducible(rng, 5, 2))
        s_red5 = simples.build_S_char_p(lin5.info, lin5.desc, red5, check_simple=False)
        mods = {
            "irr": self._module_file("irr.json", s_irr),
            "red": self._module_file("red.json", s_red),
            "red5": self._module_file("red5.json", s_red5),
            "sum": self._module_file("sum.json", weightmod.direct_sum(s_irr, s_irr)),
        }
        for name in ("irr", "red", "sum"):
            add(["module", "verify", mods[name]], lambda o: o["ok"] is True)
        add(["module", "simple-check", mods["irr"]], lambda o: o["simple"] is True)
        add(["module", "simple-check", mods["red"]], lambda o: o["simple"] is False)
        # 5**10 exceeds the command's default budget of 2**22: fallback path
        add(["module", "simple-check", mods["red5"]], lambda o: o["simple"] is False, "bug1")
        add(["module", "indec-check", mods["irr"]], lambda o: o["indecomposable"] is True)
        add(["module", "indec-check", mods["sum"]], lambda o: o["indecomposable"] is False)
        # skeleton, indecomposables, oracle
        add(["skeleton", "show", ideals["twisted"]], lambda o: o["kind"] == "B")
        add(["skeleton", "show", ideals["break2"]], lambda o: o["kind"] == "A")
        max_string = rng.randrange(2, 5)
        add(
            ["indecomp", "list", ideals["break2"],
             "--max-string", str(max_string), "--max-poly-deg", "1"],
            lambda o, n=max_string: len(o["indecomposables"]) == 8 + 8 * (n - 1) + 2 * 4,
        )
        rep = rng.choice(indecomp.q2_indecomposables(q, max_string_len=3, max_poly_deg=1))
        rep_file = self._write("rep.json", jsonio.rep_to_json(rep))
        add(
            ["indecomp", "build", ideals["break2"], "--rep", rep_file, "--window", "2"],
            lambda o: o["type"] == "module",
        )
        dims = rng.choice([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)])
        want = _quiver_expected("q2", 2).get(dims, 0)
        add(
            ["oracle", "enumerate", "--quiver", "q2", "--field", "gf2",
             "--dims", ",".join(map(str, dims))],
            lambda o, w=want: o["indecomposable_count"] == w,
        )
        if smoke:
            cmds = cmds[:2] + cmds[9:10]
        return cmds

    def run_inprocess(self, argv) -> bytes:
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(list(argv))
        return buf.getvalue().encode("utf-8")

    def checker(self, argv, check):
        """Stdout must repeat byte for byte and hold the independent verdict."""

        def want(out: bytes) -> bool:
            if out != self.first_stdout.setdefault(argv, out):
                return False
            parsed = json.loads(out)
            if "error" in parsed:
                return "undecided" if parsed["error"]["name"] in UNDECIDED else False
            return check(parsed)

        return want

    def requests(self) -> List[Request]:
        return [
            Request(" ".join(argv[:2]), lambda a=argv: self.run_inprocess(a),
                    self.checker(argv, check), known)
            for argv, check, known in self.commands
        ]


def build(name: str, seed: int, smoke: bool):
    """The workload's cycles of requests."""
    if name == "charp_certify":
        return charp_cycles(seed, smoke, 1 if smoke else 8)
    if name == "quiver_oracle":
        return quiver_cycles(seed, smoke, 1 if smoke else 8)
    if name == "char0_tame":
        return char0_cycles(seed, smoke, 1 if smoke else 16)
    raise SystemExit(f"unknown workload {name!r}")
