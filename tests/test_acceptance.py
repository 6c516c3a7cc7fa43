"""Acceptance suite: one test per criterion, one printed line per criterion.

Every equality is exact (tolerance zero); runtime bounds are asserted where
the criterion states one.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from test_indecomp import rep_fingerprint
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.heisenberg import graded_count, heisenberg_action_check
from weylmod.indecomp import (
    brute_force_indecomposables,
    build_order1_modules,
    build_order2_module,
    classify_block,
    q1_indecomposables,
    q2_indecomposables,
    rep_to_weight_module,
    weight_module_to_rep,
)
from weylmod.orbits import SepMaxIdeal, ShiftVector, make_window, orbit_info
from weylmod.simples import (
    build_S_O,
    build_S_O_p,
    build_S_char_p,
    classify_simples,
    structural_simplicity_certificate,
)
from weylmod.weightmod import (
    from_skeleton_module,
    is_simple_finite,
    submodule_closure,
    to_skeleton_module,
    verify_relations,
)

F2 = GF(2)
F3 = GF(3)
ZERO = ShiftVector()


@contextmanager
def criterion(number, description, time_limit=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    if time_limit is not None:
        assert elapsed < time_limit, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number}: PASS  {description}  ({elapsed:.2f}s)")


def x_gen(field):
    return Poly.x(field)


def t_minus(field, c):
    return Poly(field, [field.elem(c) * field.from_int(-1), field.one()])


def test_criterion_1_dimension_six_over_z2():
    with criterion(1, "GF(2) stable quadratic with cubic parameter: simple of K-dimension 6", 1.0):
        info = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
        desc = classify_simples(info)[0]
        field = info.residue.desc
        n_gen = Poly(field, [field.one(), field.one(), field.zero(), field.one()])
        module = build_S_char_p(info, desc, n_gen, check_simple=False)
        assert module.kdim() == 6
        assert is_simple_finite(module)


def test_criterion_2_dimension_p():
    with criterion(2, "linear ideals over GF(p): every 1-dim-parameter simple has K-dimension p", 5.0):
        for p in (2, 3, 5):
            field = GF(p)
            info = orbit_info(SepMaxIdeal(field, 1, {1: t_minus(field, 1)}))
            residue = info.residue.desc
            built = []
            for desc in classify_simples(info):
                if not desc.variables:
                    built.append(build_S_char_p(info, desc, None))
                    continue
                for nu in range(min(p, 3)):
                    gen = Poly(residue, [residue.from_int(-nu), residue.one()])
                    built.append(build_S_char_p(info, desc, gen))
            assert built
            assert all(m.kdim() == p for m in built)


def test_criterion_3_representation_type_table():
    with criterion(3, "representation-type table: six fixed inputs, exact reason strings"):
        half = t_minus(QQ, Fraction(1, 2))
        x = x_gen(QQ)
        expected = [
            (SepMaxIdeal(QQ, 1, {1: half}), "finite", "Rem 7.17: nondegenerate orbit"),
            (SepMaxIdeal(QQ, 1, {1: x}), "finite", "Rem 7.17: maximal break of order 1"),
            (
                SepMaxIdeal(QQ, 2, {1: x, 2: x}),
                "tame",
                "Thm 7.10(i): maximal break of order 2",
            ),
            (
                SepMaxIdeal(QQ, 3, {1: x, 2: x, 3: x}),
                "wild",
                "Thm 7.10(i): maximal break of order 3",
            ),
            (SepMaxIdeal(F2, 1, {1: x_gen(F2)}), "tame", "Thm 7.10(ii): n = 1"),
            (
                SepMaxIdeal(F2, 2, {1: x_gen(F2), 2: x_gen(F2)}),
                "wild",
                "Thm 7.10(ii): n = 2",
            ),
        ]
        for ideal, value, reason in expected:
            rep_type = classify_block(orbit_info(ideal))
            assert rep_type.value == value
            assert rep_type.reason == reason


def test_criterion_4_q1_oracle_equivalence():
    with criterion(4, "two-vertex quiver: oracle counts match the classification for entries <= 2", 10.0):
        listed = q1_indecomposables(F2)
        by_dims = {}
        for rep in listed:
            by_dims[rep.dim_vector()] = by_dims.get(rep.dim_vector(), 0) + 1
        for d1 in range(3):
            for d2 in range(3):
                if d1 == d2 == 0:
                    continue
                res = brute_force_indecomposables("q1", F2, {1: d1, 2: d2})
                assert res["indecomposable_count"] == by_dims.get((d1, d2), 0)
        assert brute_force_indecomposables("q1", F2, {1: 1, 2: 1})["indecomposable_count"] == 2


def test_criterion_5_q2_oracle_equivalence():
    with criterion(5, "four-vertex quiver: oracle counts match the classification for total <= 4", 600.0):
        listed = q2_indecomposables(F2, max_string_len=4, max_poly_deg=1)
        by_dims = {}
        for rep in listed:
            by_dims[rep.dim_vector()] = by_dims.get(rep.dim_vector(), 0) + 1
        for total in range(1, 5):
            for dims in itertools.product(range(total + 1), repeat=4):
                if sum(dims) != total:
                    continue
                res = brute_force_indecomposables("q2", F2, dict(zip((0, 1, 2, 3), dims)))
                assert res["indecomposable_count"] == by_dims.get(dims, 0), dims


def _relation_suite_modules():
    modules = []

    def add(module):
        modules.append(module)

    # rationals, arity 1
    nondeg = orbit_info(SepMaxIdeal(QQ, 1, {1: t_minus(QQ, Fraction(1, 2))}))
    add(build_S_O(nondeg, make_window(nondeg, radius=4)))
    a1_break = orbit_info(SepMaxIdeal(QQ, 1, {1: x_gen(QQ)}))
    for _, module in build_order1_modules(a1_break, make_window(a1_break, radius=4)):
        add(module)
    # rationals, arity 2, order-2 break: the whole classification list
    a2 = orbit_info(SepMaxIdeal(QQ, 2, {1: x_gen(QQ), 2: x_gen(QQ)}))
    window2 = make_window(a2, radius=2)
    for rep in q2_indecomposables(QQ, max_string_len=3, max_poly_deg=1):
        add(build_order2_module(a2, rep, window2))
    # rationals, arity 2, order-1 break
    a2_one = orbit_info(
        SepMaxIdeal(QQ, 2, {1: x_gen(QQ), 2: t_minus(QQ, Fraction(1, 2))})
    )
    for _, module in build_order1_modules(a2_one, make_window(a2_one, radius=2)):
        add(module)
    # rationals, arity 3, order-2 break plus a free direction
    a3 = orbit_info(
        SepMaxIdeal(
            QQ, 3, {1: x_gen(QQ), 2: x_gen(QQ), 3: t_minus(QQ, Fraction(1, 3))}
        )
    )
    window3 = make_window(a3, radius=1)
    for rep in q2_indecomposables(QQ, max_string_len=2, max_poly_deg=1)[:8]:
        add(build_order2_module(a3, rep, window3))
    # GF(2)
    stable = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
    sdesc = classify_simples(stable)[0]
    sfield = stable.residue.desc
    add(
        build_S_char_p(
            stable, sdesc, Poly(sfield, [sfield.one(), sfield.one(), sfield.zero(), sfield.one()])
        )
    )
    f2_break = orbit_info(SepMaxIdeal(F2, 1, {1: x_gen(F2)}))
    for desc in classify_simples(f2_break):
        if not desc.variables:
            add(build_S_char_p(f2_break, desc, None))
        else:
            rfield = f2_break.residue.desc
            for nu in (0, 1):
                add(
                    build_S_char_p(
                        f2_break, desc, Poly(rfield, [rfield.from_int(-nu), rfield.one()])
                    )
                )
    # GF(3)
    f3_break = orbit_info(SepMaxIdeal(F3, 1, {1: t_minus(F3, 1)}))
    for desc in classify_simples(f3_break):
        if not desc.variables:
            add(build_S_char_p(f3_break, desc, None))
        else:
            rfield = f3_break.residue.desc
            for nu in (0, 1, 2):
                add(
                    build_S_char_p(
                        f3_break, desc, Poly(rfield, [rfield.from_int(-nu), rfield.one()])
                    )
                )
    f3_nondeg = orbit_info(SepMaxIdeal(F3, 1, {1: Poly(F3, [1, 0, 1])}))
    ndesc = classify_simples(f3_nondeg)[0]
    nfield = f3_nondeg.residue.desc
    for const in (1, 2):
        add(
            build_S_char_p(
                f3_nondeg, ndesc, Poly(nfield, [nfield.from_int(const), nfield.one()])
            )
        )
    # GF(2) arity 2: a twisted loop direction next to a break direction
    mixed = orbit_info(SepMaxIdeal(F2, 2, {1: Poly(F2, [1, 1, 1]), 2: x_gen(F2)}))
    mdesc = classify_simples(mixed)[0]
    mfield = mixed.residue.desc
    add(
        build_S_char_p(
            mixed, mdesc, Poly(mfield, [mfield.one(), mfield.one(), mfield.zero(), mfield.one()])
        )
    )
    # tower extension as the base field
    sqrt2 = extend(QQ, Poly(QQ, [-2, 0, 1]))
    tower_nondeg = orbit_info(
        SepMaxIdeal(sqrt2, 1, {1: t_minus(sqrt2, sqrt2.gen())})
    )
    add(build_S_O(tower_nondeg, make_window(tower_nondeg, radius=3)))
    tower_break = orbit_info(
        SepMaxIdeal(sqrt2, 2, {1: x_gen(sqrt2), 2: t_minus(sqrt2, sqrt2.gen())})
    )
    for _, module in build_order1_modules(tower_break, make_window(tower_break, radius=2)):
        add(module)
    return modules


def test_criterion_6_relation_suite():
    with criterion(6, "relation suite: every generated module passes all defining relations"):
        modules = _relation_suite_modules()
        assert len(modules) >= 60
        for module in modules:
            report = verify_relations(module)
            assert report.ok, report.failures()


def test_criterion_7_functor_round_trips():
    with criterion(7, "translation functors are mutually inverse on all classification modules"):
        total = 0
        # order-1 block
        a1 = orbit_info(SepMaxIdeal(QQ, 1, {1: x_gen(QQ)}))
        w1 = make_window(a1, radius=3)
        for rep in q1_indecomposables(a1.residue.desc):
            module = rep_to_weight_module(rep, a1, w1)
            back = weight_module_to_rep(module)
            assert back.dims == rep.dims and back.arrows == rep.arrows
            data = to_skeleton_module(module)
            assert from_skeleton_module(data, a1, w1) == module
            total += 1
        # order-2 block
        a2 = orbit_info(SepMaxIdeal(QQ, 2, {1: x_gen(QQ), 2: x_gen(QQ)}))
        w2 = make_window(a2, radius=2)
        for rep in q2_indecomposables(QQ, max_string_len=3, max_poly_deg=1):
            module = build_order2_module(a2, rep, w2)
            back = weight_module_to_rep(module)
            assert back.dims == rep.dims and back.arrows == rep.arrows
            data = to_skeleton_module(module)
            assert from_skeleton_module(data, a2, w2) == module
            total += 1
        # whole-orbit and region simples
        nondeg = orbit_info(SepMaxIdeal(QQ, 1, {1: t_minus(QQ, Fraction(1, 2))}))
        wn = make_window(nondeg, radius=3)
        module = build_S_O(nondeg, wn)
        assert from_skeleton_module(to_skeleton_module(module), nondeg, wn) == module
        total += 1
        for region in a2.skeleton:
            module = build_S_O_p(a2, region, w2)
            assert from_skeleton_module(to_skeleton_module(module), a2, w2) == module
            total += 1
        # positive characteristic
        stable = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
        sfield = stable.residue.desc
        module = build_S_char_p(
            stable,
            classify_simples(stable)[0],
            Poly(sfield, [sfield.one(), sfield.one(), sfield.zero(), sfield.one()]),
        )
        assert from_skeleton_module(to_skeleton_module(module), stable) == module
        total += 1
        assert total == 4 + 32 + 1 + 4 + 1  # every case round-tripped


def test_criterion_8_order1_block_contents():
    with criterion(8, "order-1 break: exactly four pairwise distinct indecomposables, two non-simple"):
        info = orbit_info(SepMaxIdeal(QQ, 1, {1: x_gen(QQ)}))
        window = make_window(info, radius=3)
        mods = build_order1_modules(info, window)
        assert len(mods) == 4
        reps = [weight_module_to_rep(m) for _, m in mods]
        prints = [rep_fingerprint(r) for r in reps]
        assert len(set(prints)) == 4  # pairwise non-isomorphic
        by_label = dict(mods)
        one = info.residue.desc.one()
        glued = [
            (by_label["M(raise)"], ZERO, ShiftVector.e(1)),
            (by_label["M(lower)"], ShiftVector.e(1), ZERO),
        ]
        for module, cyclic_from, proper_from in glued:
            assert submodule_closure(module, [(cyclic_from, (one,))])["full"]
            assert not submodule_closure(module, [(proper_from, (one,))])["full"]
            assert not is_simple_finite(module)
        for label in ("S(base)", "S(raised)"):
            assert structural_simplicity_certificate(by_label[label])


def test_criterion_9_order2_corner_simple():
    with criterion(9, "order-2 break: the corner simple lives on the base quadrant, raisings kill the corner"):
        info = orbit_info(SepMaxIdeal(QQ, 2, {1: x_gen(QQ), 2: x_gen(QQ)}))
        window = make_window(info, radius=3)
        s0 = q2_indecomposables(QQ, max_string_len=2, max_poly_deg=1)[0]
        assert s0.label == "S0"
        module = build_order2_module(info, s0, window)
        support = {g for g in window if module.dim(g) > 0}
        quadrant = {g for g in window if g.get(1) <= 0 and g.get(2) <= 0}
        assert support == quadrant
        assert module.x(1, ZERO).is_zero()
        assert module.x(2, ZERO).is_zero()


def _bucketed_counts(max_len, bound):
    counts = {}
    span = range(-bound, bound + 1)
    for tup in itertools.product(span, repeat=max_len):
        key = sum((k + 1) * v for k, v in enumerate(tup))
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_criterion_10_graded_growth_and_oracle():
    with criterion(10, "graded counts: strict growth in the bound and exact oracle agreement", 1.0):
        oracle = {bound: _bucketed_counts(4, bound) for bound in range(0, 8)}
        for i in range(-3, 4):
            for bound in range(abs(i), 7):
                assert graded_count(i, 4, bound) == oracle[bound].get(i, 0)
                assert graded_count(i, 4, bound + 1) > graded_count(i, 4, bound)


def test_criterion_11_heisenberg_brackets():
    with criterion(11, "graded generator brackets vanish exactly except the pairing, charge 1"):
        report = heisenberg_action_check(radius=2, max_index=4)
        assert report["ok"]
        assert report["bracket_failures"] == []
        assert report["grading_failures"] == []
        assert report["central_charge"] == 1
        assert report["brackets_checked"] == 25200
        assert report["grading_checked"] == 4000
