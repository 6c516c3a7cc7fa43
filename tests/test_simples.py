from fractions import Fraction

import pytest

from weylmod.errors import (
    DegenerateOrbit,
    InfiniteDimension,
    NotASkeletonObject,
    NotMaximal,
    NotPrincipal,
    QuotientNotFiniteDimensional,
    UnsupportedConstruction,
    WrongCharacteristic,
)
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.indecomp import QuiverRep, build_order2_module, string_module
from weylmod.orbits import SepMaxIdeal, ShiftVector, make_window, orbit_info
from weylmod.simples import (
    build_S_O,
    build_S_O_p,
    build_S_char_p,
    classify_simples,
    structural_simplicity_certificate,
)
from weylmod.weightmod import direct_sum, submodule_closure, verify_relations

F2 = GF(2)
F3 = GF(3)
ZERO = ShiftVector()


def test_classification_counts():
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    assert len(classify_simples(info)) == 4

    nondeg = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [Fraction(-1, 2), 1])}))
    descs = classify_simples(nondeg)
    assert len(descs) == 1 and descs[0].kind == "whole_orbit"

    charp = orbit_info(SepMaxIdeal(F3, 2, {1: Poly.x(F3), 2: Poly(F3, [-1, 1])}))
    fams = classify_simples(charp)
    assert len(fams) == 9
    sizes = sorted(len(d.gamma_set) for d in fams)
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2]


def test_classification_counts_order_three():
    char0 = orbit_info(
        SepMaxIdeal(QQ, 3, {1: Poly.x(QQ), 2: Poly.x(QQ), 3: Poly.x(QQ)})
    )
    assert len(classify_simples(char0)) == 8
    charp = orbit_info(
        SepMaxIdeal(F2, 3, {1: Poly.x(F2), 2: Poly.x(F2), 3: Poly.x(F2)})
    )
    assert len(classify_simples(charp)) == 27  # sum over subsets of 2^|subset|


def test_pairwise_distinct_within_classification():
    # characteristic zero: the region simples have pairwise distinct supports
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    window = make_window(info, radius=2)
    supports = []
    for desc in classify_simples(info):
        module = build_S_O_p(info, desc.region, window)
        supports.append(frozenset(g for g in window if module.dim(g) > 0))
    assert len(set(supports)) == len(supports)
    # characteristic p: the (subset, choice, parameter) fingerprints differ
    charp = orbit_info(SepMaxIdeal(F3, 1, {1: Poly(F3, [-1, 1])}))
    fingerprints = {(d.gamma_set, tuple(sorted(d.xi.items()))) for d in classify_simples(charp)}
    assert len(fingerprints) == 3


def test_whole_orbit_simple_scalars():
    info = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [Fraction(-1, 2), 1])}))
    window = make_window(info, radius=4)
    module = build_S_O(info, window)
    assert verify_relations(module).ok
    desc = info.residue.desc
    for g in window:
        k = g.get(1)
        # the t-action at each weight is the scalar 1/2 + k, never zero
        t_op, _ = (
            module.compose_op(module.op_d(1, info.step(g, 1, 1)), module.op_x(1, g))
            if info.step(g, 1, 1) in window
            else (None, None)
        )
        if t_op is not None:
            assert t_op == module.x(1, g).scale(desc.from_fraction(Fraction(1, 2) + k))
    # generated by the vector at the base point
    one = desc.one()
    assert submodule_closure(module, [(ZERO, (one,))])["full"]
    assert structural_simplicity_certificate(module)


def test_structural_certificate_rejects_direct_sum():
    info = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [Fraction(-1, 2), 1])}))
    module = build_S_O(info)
    assert structural_simplicity_certificate(module)
    assert not structural_simplicity_certificate(direct_sum(module, module))


def test_structural_certificate_refuses_a_window_that_misses_a_region():
    # over index 1 alone the order-2 window misses the regions of S1 and S2:
    # S0 + S1 and the string M(2,0,0) would look simple there
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    pair = QuiverRep("q2", QQ, {0: 1, 1: 1}, {})
    assert not structural_simplicity_certificate(build_order2_module(info, pair))
    partial = make_window(info, 2, indices=[1])
    for rep in (pair, string_module(QQ, 2, 0, 0)):
        with pytest.raises(InfiniteDimension):
            structural_simplicity_certificate(build_order2_module(info, rep, partial))


def test_region_simples_a1():
    info = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly.x(QQ)}))
    window = make_window(info, radius=3)
    raised = build_S_O_p(info, ShiftVector.e(1), window)
    support = [g for g in window if raised.dim(g) > 0]
    assert support == [g for g in window if g.get(1) >= 1]
    assert verify_relations(raised).ok
    assert structural_simplicity_certificate(raised)

    base = build_S_O_p(info, ZERO, window)
    assert [g for g in window if base.dim(g) > 0] == [
        g for g in window if g.get(1) <= 0
    ]


def test_region_simple_a2_quadrant():
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    window = make_window(info, radius=2)
    module = build_S_O_p(info, ZERO, window)
    support = {g for g in window if module.dim(g) > 0}
    assert support == {g for g in window if g.get(1) <= 0 and g.get(2) <= 0}
    assert verify_relations(module).ok
    assert structural_simplicity_certificate(module)


def test_char0_guards():
    info = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly.x(QQ)}))
    with pytest.raises(DegenerateOrbit):
        build_S_O(info)
    nondeg = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [Fraction(-1, 2), 1])}))
    with pytest.raises(DegenerateOrbit):
        build_S_O_p(nondeg, ZERO)
    with pytest.raises(NotASkeletonObject):
        build_S_O_p(info, ShiftVector.e(1, 2))
    charp = orbit_info(SepMaxIdeal(F2, 1, {1: Poly.x(F2)}))
    with pytest.raises(WrongCharacteristic):
        build_S_O(charp)
    with pytest.raises(WrongCharacteristic):
        build_S_char_p(nondeg, classify_simples(nondeg)[0], None)


def test_dimension_six_example():
    info = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
    descs = classify_simples(info)
    assert len(descs) == 1 and descs[0].variables == (("c", 1),)
    field = info.residue.desc
    n_gen = Poly(field, [field.one(), field.one(), field.zero(), field.one()])
    module = build_S_char_p(info, descs[0], n_gen)
    assert module.kdim() == 6
    assert verify_relations(module).ok


def test_not_maximal_is_detected():
    info = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
    field = info.residue.desc
    # c^2 + 1 = (c + 1)^2: proper quotient, not simple
    square = Poly(field, [field.one(), field.zero(), field.one()])
    with pytest.raises(NotMaximal):
        build_S_char_p(info, classify_simples(info)[0], square)


def test_principality_and_finiteness_guards():
    info = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
    desc = classify_simples(info)[0]
    field = info.residue.desc
    with pytest.raises(NotPrincipal):
        build_S_char_p(info, desc, None)
    with pytest.raises(QuotientNotFiniteDimensional):
        build_S_char_p(info, desc, Poly.zero(field))
    # pure power of c generates the unit ideal once normalized
    with pytest.raises(QuotientNotFiniteDimensional):
        build_S_char_p(info, desc, Poly(field, [field.zero(), field.one()]))

    # two invertible variables: no principal maximal ideal has finite quotient
    two_c = orbit_info(
        SepMaxIdeal(F3, 2, {1: Poly(F3, [1, 0, 1]), 2: Poly(F3, [1, -1, 0, 1])})
    )
    fam = classify_simples(two_c)[0]
    with pytest.raises(QuotientNotFiniteDimensional):
        build_S_char_p(two_c, fam, Poly(two_c.residue.desc, [1, 1]))

    # arity beyond two stays symbolic
    wide = orbit_info(
        SepMaxIdeal(F2, 3, {1: Poly.x(F2), 2: Poly.x(F2), 3: Poly.x(F2)})
    )
    with pytest.raises(UnsupportedConstruction):
        build_S_char_p(wide, classify_simples(wide)[0], None)


def test_unique_simple_for_trivial_family():
    info = orbit_info(SepMaxIdeal(F2, 1, {1: Poly.x(F2)}))
    descs = classify_simples(info)
    trivial = [d for d in descs if not d.gamma_set][0]
    module = build_S_char_p(info, trivial, None)
    assert module.kdim() == 2
    assert verify_relations(module).ok


def test_charp_gamma_choice_changes_action():
    info = orbit_info(SepMaxIdeal(F3, 1, {1: Poly(F3, [-1, 1])}))
    descs = classify_simples(info)
    field = info.residue.desc
    raising = [d for d in descs if d.gamma_set == (1,) and d.xi[1] == 0][0]
    lowering = [d for d in descs if d.gamma_set == (1,) and d.xi[1] == 1][0]
    gen = Poly(field, [field.from_int(-1), field.one()])
    mod_r = build_S_char_p(info, raising, gen)
    mod_l = build_S_char_p(info, lowering, gen)
    # raising family: the full raising cycle acts invertibly, lowering kills
    cyc_r, _ = mod_r.evaluate_path(ZERO, [("X", 1)] * 3)
    cyc_l, _ = mod_l.evaluate_path(ZERO, [("Y", 1)] * 3)
    assert cyc_r.inverse() is not None
    assert cyc_l.inverse() is not None
    down_r, _ = mod_r.evaluate_path(ZERO, [("Y", 1)] * 3)
    assert down_r.is_zero()


def test_tower_base_field_supported():
    sqrt2 = extend(QQ, Poly(QQ, [-2, 0, 1]))
    gen = Poly(sqrt2, [-sqrt2.gen(), sqrt2.one()])
    info = orbit_info(SepMaxIdeal(sqrt2, 1, {1: gen}))
    assert not info.degenerate
    module = build_S_O(info, make_window(info, radius=3))
    assert verify_relations(module).ok
    assert module.kdim() == 7
