import itertools
from fractions import Fraction

import pytest

from weylmod.errors import ObjectMismatch, RelationViolation
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.linalg import Matrix
from weylmod.orbits import SepMaxIdeal, ShiftVector, make_window, orbit_info
from weylmod.skeleton import (
    SkelMorphismA,
    SkelMorphismB,
    algebra_dim_A,
    build_skeleton,
    compose_A,
    compose_B,
    hom_space_A,
    skeleton_loops,
    skeleton_quiver,
)
from weylmod.weightmod import (
    SkeletonModule,
    WeightModule,
    from_skeleton_module,
    to_skeleton_module,
)

F2 = GF(2)
ZERO = ShiftVector()
E1 = ShiftVector.e(1)


def test_ab_composites_vanish():
    a = SkelMorphismA.gen_a(QQ, ZERO, 1)
    b = SkelMorphismA.gen_b(QQ, ZERO, 1)
    assert compose_A(b, a).is_zero()
    assert compose_A(a, b).is_zero()


def test_object_mismatch():
    a1 = SkelMorphismA.gen_a(QQ, ZERO, 1)
    with pytest.raises(ObjectMismatch):
        compose_A(a1, a1)


def test_letters_must_be_those_of_the_hom_space():
    one = QQ.one()
    E2 = ShiftVector.e(2)
    for source, target, letters in [
        (ZERO, E1, ((1, "b"),)),  # wrong direction
        (ZERO, E1, ()),  # the bits differ with no letter
        (ZERO, ZERO, ((1, "z"),)),  # an unknown letter on equal bits
        (ZERO, E1, ((1, "a"), (2, "a"))),  # a letter where the bits agree
        (E1, E2, ((1, "b"),)),  # one of two letters missing
    ]:
        with pytest.raises(ValueError):
            SkelMorphismA(source, target, one, letters)
    with pytest.raises(ValueError):
        SkelMorphismA(ShiftVector.e(1, 2), E1, QQ.zero())  # not a 0/1 object
    assert SkelMorphismA(E1, E2, one, ((2, "a"), (1, "b"))).letters == ((1, "b"), (2, "a"))


def test_commuting_square_normal_form():
    # raising at 1 then at 2 equals raising at 2 then at 1
    a1 = SkelMorphismA.gen_a(QQ, ZERO, 1)
    a2_after = SkelMorphismA.gen_a(QQ, E1, 2)
    a2 = SkelMorphismA.gen_a(QQ, ZERO, 2)
    a1_after = SkelMorphismA.gen_a(QQ, ShiftVector.e(2), 1)
    assert compose_A(a2_after, a1) == compose_A(a1_after, a2)


def _basis_morphisms(field, break_set):
    objects = [
        ShiftVector({i: b for i, b in zip(break_set, bits)})
        for bits in itertools.product((0, 1), repeat=len(break_set))
    ]
    out = []
    for alpha in objects:
        for beta in objects:
            desc = hom_space_A(alpha, beta)
            out.append(
                SkelMorphismA(alpha, beta, field.one(), desc["letters"])
            )
    return out


@pytest.mark.parametrize("break_set", [(1,), (1, 2), (1, 2, 3)])
def test_algebra_dimension_and_associativity(break_set):
    basis = _basis_morphisms(QQ, break_set)
    assert len(basis) == algebra_dim_A(len(break_set))
    for u in basis:
        for v in basis:
            if v.target != u.source:
                continue
            for w in basis:
                if w.target != v.source:
                    continue
                lhs = compose_A(compose_A(u, v), w)
                rhs = compose_A(u, compose_A(v, w))
                assert lhs == rhs


def _rank_mod3(rows):
    """Rank over GF(3) of sparse rows {column: coefficient}."""
    pivots = {}
    for row in rows:
        row = {k: c % 3 for k, c in row.items() if c % 3}
        while row and min(row) in pivots:
            pivot = pivots[min(row)]
            f = row[min(row)] * pivot[min(row)]  # x * x = 1 for each nonzero x mod 3
            for k, c in pivot.items():
                row[k] = (row.get(k, 0) - f * c) % 3
                if row[k] == 0:
                    del row[k]
        if row:
            pivots[min(row)] = row
    return len(pivots)


def _quotient_dims_mod3(break_set):
    """Dimension by path length of the path algebra of ``skeleton_quiver``
    modulo its relations over GF(3), for lengths 0 to s + 1: the paths of
    each length modulo the span of all p.r.q of that length."""
    vertices, arrows, quiver_relations = skeleton_quiver(break_set)
    vertex = {v: n for n, v in enumerate(vertices)}
    ends = [(vertex[s], vertex[t]) for s, t in arrows.values()]
    number = {k: n for n, k in enumerate(arrows)}

    def target(path):  # a path is (start, arrow numbers), first arrow first
        return ends[path[1][-1]][1] if path[1] else path[0]

    paths = [[(v, ()) for v in range(len(vertex))]]
    for _ in range(len(break_set) + 1):
        paths.append([])
        for p in paths[-2]:
            paths[-1] += [(p[0], p[1] + (n,)) for n, e in enumerate(ends) if e[0] == target(p)]
    # each relation as {path: coefficient}; x.y is the path y then x
    relations = []
    for rel in quiver_relations:
        sides = [rel[k : k + 2] for k in range(0, len(rel), 2)]
        terms = zip((1, -1), sides)
        relations.append({(ends[number[y]][0], (number[y], number[x])): c for c, (x, y) in terms})
    dims = []
    for length, level in enumerate(paths):
        rows = [
            {(q[0], q[1] + r[1] + p[1]): c for r, c in rel.items()}
            for rel in relations
            for before in range(length - 1)
            for q in paths[before]
            if target(q) == next(iter(rel))[0]
            for p in paths[length - 2 - before]
            if p[0] == target(next(iter(rel)))
        ]
        dims.append(len(level) - _rank_mod3(rows))
    return dims


@pytest.mark.parametrize("s", [1, 2, 3])
def test_skeleton_quiver_path_algebra_dimension(s):
    # computed, not assumed: nothing survives at length s + 1, so nothing
    # longer does, and the quotient has the algebra's dimension 4**s
    dims = _quotient_dims_mod3(tuple(range(1, s + 1)))
    assert dims[-1] == 0
    assert sum(dims) == algebra_dim_A(s) == 4 ** s


def test_hom_space_description():
    assert hom_space_A(ZERO, ZERO) == {"dim": 1, "identity": True, "letters": ()}
    both = hom_space_A(E1, ShiftVector.e(2))
    assert both["letters"] == ((1, "b"), (2, "a"))


def _stable_info():
    return orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))


def test_one_object_monomials_twist():
    info = _stable_info()
    field = info.residue.desc
    u = field.gen()
    c = SkelMorphismB.gen(field, "c", 1)
    cinv = SkelMorphismB.gen(field, "c", 1, -1)
    assert compose_B(c, cinv, info) == SkelMorphismB.identity(field)
    # moving a coefficient across c applies the shift, and back undoes it
    lam = SkelMorphismB(u)
    moved = compose_B(c, lam, info)
    assert moved.coeff == info.residue.sigma_pow(u, 1, 1)
    assert compose_B(cinv, compose_B(c, lam, info), info) == lam


def test_tau_roundtrip_on_samples():
    # tau then its inverse is the identity on every element of small towers
    F8 = extend(F2, Poly(F2, [1, 1, 0, 1]))
    info = _stable_info()
    for e in info.residue.desc.enumerate_elements():
        shifted = info.residue.sigma_pow(e, 1, 1)
        assert info.residue.sigma_pow(shifted, 1, -1) == e
    # order of the twist divides the field degree
    e = info.residue.desc.gen()
    assert info.residue.sigma_pow(info.residue.sigma_pow(e, 1, 1), 1, 1) == e


def test_ab_zero_in_one_object_algebra():
    info = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [0, 1])}))
    field = info.residue.desc
    a = SkelMorphismB.gen(field, "a", 1)
    b = SkelMorphismB.gen(field, "b", 1)
    assert compose_B(a, b, info).is_zero()
    assert compose_B(b, a, info).is_zero()
    assert compose_B(a, a, info).word == ((1, "a", 2),)


def test_build_skeleton_shapes():
    # nondegenerate characteristic zero: one object, no generators
    info = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [Fraction(-1, 2), 1])}))
    alg = build_skeleton(info)
    assert alg.kind == "A" and alg.objects == (ZERO,) and not alg.gmap
    assert alg.linear

    info2 = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    alg2 = build_skeleton(info2)
    assert alg2.kind == "A" and len(alg2.objects) == 4
    assert len([k for k in alg2.gmap if k[0] == "a"]) == 4

    info3 = _stable_info()
    alg3 = build_skeleton(info3)
    assert alg3.kind == "B"
    assert not alg3.linear
    path = alg3.gmap[("c", 1)]
    assert path["steps"] == (("X", 1),)


def test_skeleton_loops_statement():
    vertices, arrows, relations = skeleton_loops((2,), (1, 3))
    assert vertices == (ZERO,)
    assert list(arrows) == [("a", 2), ("b", 2), ("c", 1), ("c", 3)]
    assert set(arrows.values()) == {(ZERO, ZERO)}
    a, b, c1, c3 = arrows
    assert relations == (
        (a, b), (b, a), (c1,), (c3,),
        (a, c1, c1, a), (a, c3, c3, a), (b, c1, c1, b), (b, c3, c3, b), (c1, c3, c3, c1),
    )
    assert skeleton_loops((2,), (1, 3)) is skeleton_loops((2,), (1, 3))


def _reference_charp_relations(info):
    """The hand-written char-p relations build_skeleton listed before it read
    them off skeleton_loops: zeros, invertibles, then every generator pair."""
    def path(steps):
        return {"start": ZERO, "steps": tuple(steps)}

    gmap, relations = {}, []
    for i in info.break_set:
        r = info.period(i)
        gmap[("a", i)], gmap[("b", i)] = path([("X", i)] * r), path([("Y", i)] * r)
        relations.append(("zero", path([("Y", i)] * r + [("X", i)] * r)))
        relations.append(("zero", path([("X", i)] * r + [("Y", i)] * r)))
    for j in info.indices():
        if j not in info.break_set:
            gmap[("c", j)] = path([("X", j)] * info.period(j))
            relations.append(("invertible", gmap[("c", j)]))
    for (ks, ps), (kt, pt) in itertools.combinations(gmap.items(), 2):
        relations.append(("equal", path(pt["steps"] + ps["steps"]), path(ps["steps"] + pt["steps"])))
    return gmap, relations


@pytest.mark.parametrize(
    "field,gens",
    [
        (F2, {1: [1, 1, 1]}),
        (F2, {1: [1, 1, 1], 2: [0, 1]}),
        (GF(3), {1: [0, 1], 2: [1, 0, 1]}),
        (GF(5), {1: [2, 1]}),
        (GF(3), {1: [1, 1], 2: [2, 1]}),
    ],
)
def test_charp_relations_are_read_off_the_loops(field, gens):
    info = orbit_info(SepMaxIdeal(field, len(gens), {i: Poly(field, c) for i, c in gens.items()}))
    alg = build_skeleton(info)
    gmap, relations = _reference_charp_relations(info)
    assert alg.kind == "B" and alg.objects == (ZERO,) and alg.gmap == gmap
    # each relation of skeleton_loops, as paths through the generator map
    paths = [
        ("equal", _gmap_path(alg, rel[:2]), _gmap_path(alg, rel[2:])) if len(rel) == 4
        else ("zero" if len(rel) == 2 else "invertible", _gmap_path(alg, rel))
        for rel in skeleton_loops(info.break_set, info.nonbreak_set)[2]
    ]
    # the same relations, less the same-index equalities that a.b = b.a = 0 imply
    def same_index(rel):
        return rel[0] == "equal" and len({i for _, i in rel[1]["steps"]}) == 1

    assert paths == [rel for rel in relations if not same_index(rel)]
    assert len(relations) - len(paths) == len(info.break_set)


def _gmap_path(alg, word):
    """The weight-module path of an arrow word: x.y runs y's path, then x's."""
    steps = sum((alg.gmap[x]["steps"] for x in reversed(word)), ())
    return {"start": alg.gmap[word[-1]]["start"], "steps": steps}


def _counting_relation_checks(monkeypatch):
    import weylmod.weightmod as wm

    counts, holds = [], wm.relation_holds
    monkeypatch.setattr(wm, "relation_holds", lambda *args: counts.append(1) or holds(*args))
    return counts


def test_functor_words_satisfy_relations_char0(monkeypatch):
    from weylmod.indecomp import build_order1_modules, build_order2_module, q2_indecomposables

    checked = _counting_relation_checks(monkeypatch)
    info = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly.x(QQ)}))
    for _, module in build_order1_modules(info, make_window(info, radius=2)):
        del checked[:]
        to_skeleton_module(module)  # the skeleton data checks its relations when built
        assert len(checked) == len(skeleton_quiver(info.break_set)[2])
    info2 = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    window = make_window(info2, radius=2)
    for rep in q2_indecomposables(QQ, 2, 1):
        to_skeleton_module(build_order2_module(info2, rep, window))


def test_functor_words_satisfy_relations_charp(monkeypatch):
    from weylmod.simples import build_S_char_p, classify_simples

    checked = _counting_relation_checks(monkeypatch)
    info = _stable_info()
    field = info.residue.desc
    n_gen = Poly(field, [field.one(), field.one(), field.zero(), field.one()])
    module = build_S_char_p(info, classify_simples(info)[0], n_gen)
    del checked[:]
    to_skeleton_module(module)
    assert checked == []  # one loop c_1 and no pair: its inverse is the check

    mixed = orbit_info(SepMaxIdeal(F2, 2, {1: Poly(F2, [1, 1, 1]), 2: Poly.x(F2)}))
    mfield = mixed.residue.desc
    mmod = build_S_char_p(
        mixed,
        classify_simples(mixed)[0],
        Poly(mfield, [mfield.one(), mfield.one(), mfield.zero(), mfield.one()]),
    )
    del checked[:]
    to_skeleton_module(mmod)
    assert len(checked) == 4  # a.b = b.a = 0 at 2, and a_2, b_2 each commute with c_1


def test_a_module_breaking_a_skeleton_relation_is_refused_when_read():
    from weylmod.indecomp import build_order1_modules

    # char 0: M(raise) has a = 1 and b = 0 at its crossing; b = 1 makes a.b != 0
    info = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly.x(QQ)}))
    module = dict(build_order1_modules(info, make_window(info, radius=1)))["M(raise)"]
    dmat = dict(module.dmat)
    dmat[1, E1] = Matrix.identity(QQ, 1)
    broken = WeightModule(info, module.window, module.spaces, module.xmat, dmat)
    with pytest.raises(RelationViolation, match="relation"):
        to_skeleton_module(broken)
    # char p: a break with a = 1, b = 0; a nonzero lowering at 1 makes a.b != 0
    F3 = GF(3)
    pinfo = orbit_info(SepMaxIdeal(F3, 1, {1: Poly.x(F3)}))
    one, zero = Matrix.identity(F3, 1), Matrix.zeros(F3, 1, 1)
    data = SkeletonModule(pinfo, {ZERO: 1}, {("a", 1): one, ("b", 1): zero})
    module = from_skeleton_module(data, pinfo)
    dmat = dict(module.dmat)
    dmat[1, E1] = one
    broken = WeightModule(pinfo, module.window, module.spaces, module.xmat, dmat)
    with pytest.raises(RelationViolation, match="relation"):
        to_skeleton_module(broken)


def test_order_three_twist():
    # a cubic fixed by the shift gives a residue twist of order three
    F3 = GF(3)
    cubic = Poly(F3, [-1, -1, 0, 1])
    assert cubic.shift(1) == cubic
    info = orbit_info(SepMaxIdeal(F3, 1, {1: cubic}))
    assert info.periods == {1: 1} and info.tau == {1: "sigma"}
    residue = info.residue
    for e in residue.desc.enumerate_elements():
        once = residue.sigma_pow(e, 1, 1)
        assert residue.sigma_pow(once, 1, -1) == e
        thrice = residue.sigma_pow(residue.sigma_pow(once, 1, 1), 1, 1)
        assert thrice == e  # the twist has order three

    from weylmod.simples import build_S_char_p, classify_simples
    from weylmod.weightmod import verify_relations

    desc = classify_simples(info)[0]
    tbar = residue.tbar(1)
    gen = Poly(residue.desc, [-tbar, residue.desc.one()])  # c - tbar
    module = build_S_char_p(info, desc, gen)
    assert module.kdim() == 3
    assert verify_relations(module).ok
