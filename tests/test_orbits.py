import random
from fractions import Fraction

import pytest

from weylmod.errors import (
    IndexOutOfArity,
    InfiniteCharPOrbit,
    InvalidIdeal,
    NotMaximalIdeal,
)
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.heisenberg import default_heisenberg_orbit
from weylmod.orbits import (
    SepMaxIdeal,
    ShiftVector,
    Window,
    canonical_skeleton_rep,
    make_window,
    orbit_info,
    region_of,
    sigma_apply,
)

F2 = GF(2)
F3 = GF(3)


def t_minus(field, c):
    return Poly(field, [field.elem(c) * field.from_int(-1), field.one()])


def test_shift_vector_canonical_form():
    sv = ShiftVector({1: 3, 4: -2, 2: 0})
    assert sv.entries == ((1, 3), (4, -2))
    assert sv.get(2) == 0
    assert sv.add(sv.neg()).is_zero()
    with pytest.raises(ValueError):
        ShiftVector({0: 1})


@pytest.mark.parametrize(
    "entries",
    [{1: 1.5}, {1.9: 2}, {True: 1}, {1: False}, {"1": 1}, [(1, 2.0)]],
    ids=["float-value", "float-index", "bool-index", "bool-value", "str-index", "float-pair"],
)
def test_shift_vector_rejects_non_integers(entries):
    with pytest.raises((TypeError, ValueError)):
        ShiftVector(entries)


def test_equal_shift_vectors_hash_alike():
    built = [
        ShiftVector({3: -1, 1: 2}),
        ShiftVector([(1, 2), (3, -1), (2, 0)]),
        ShiftVector({1: 2}).add(ShiftVector({3: -1})),
        ShiftVector.e(3, -1).step(1, 2),
    ]
    assert all(sv == built[0] and hash(sv) == hash(built[0]) for sv in built)
    assert len(set(built)) == 1
    with pytest.raises(AttributeError):
        built[0].entries = ()


def test_sigma_apply_examples():
    m = SepMaxIdeal(QQ, 1, {1: t_minus(QQ, 3)})
    moved = sigma_apply(m, ShiftVector({1: -3}))
    assert moved.generator(1) == Poly.x(QQ)
    assert sigma_apply(m, ShiftVector()) == m
    stable = SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])})
    assert sigma_apply(stable, ShiftVector({1: 1})) == stable
    with pytest.raises(IndexOutOfArity):
        sigma_apply(m, ShiftVector({2: 1}))


def test_sigma_apply_group_law():
    rng = random.Random(4)
    m = SepMaxIdeal(
        QQ, 2, {1: t_minus(QQ, Fraction(1, 2)), 2: Poly(QQ, [-2, 0, 1])}
    )
    for _ in range(20):
        a = ShiftVector({1: rng.randint(-4, 4), 2: rng.randint(-4, 4)})
        b = ShiftVector({1: rng.randint(-4, 4), 2: rng.randint(-4, 4)})
        assert sigma_apply(sigma_apply(m, a), b) == sigma_apply(m, a.add(b))


def test_orbit_info_half_shift_break():
    m = SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: t_minus(QQ, Fraction(1, 2))})
    info = orbit_info(m)
    assert info.kind == "linear"
    assert info.break_set == (1,)
    assert info.degenerate
    assert len(info.skeleton) == 2
    assert info.tbar(1).is_zero()
    assert info.tbar(2) == info.residue.desc.from_fraction(Fraction(1, 2))


def test_orbit_info_full_break_a2():
    m = SepMaxIdeal(QQ, 2, {1: t_minus(QQ, 5), 2: Poly.x(QQ)})
    info = orbit_info(m)
    assert info.break_set == (1, 2)
    assert len(info.skeleton) == 4
    assert info.base.generator(1) == Poly.x(QQ)
    assert info.input_gamma == ShiftVector({1: 5})


def test_orbit_info_char_p_stable():
    m = SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])})
    info = orbit_info(m)
    assert info.kind == "cyclic"
    assert not info.degenerate
    assert info.periods == {1: 1}
    assert info.tau == {1: "sigma"}
    assert info.orbit_size() == 1


def test_orbit_info_char_p_linear_is_degenerate():
    info = orbit_info(SepMaxIdeal(F3, 1, {1: t_minus(F3, 1)}))
    assert info.degenerate and info.break_set == (1,)
    assert info.periods == {1: 3}
    assert info.base.generator(1) == Poly.x(F3)


def test_maximality_certificate():
    from weylmod.errors import UncertifiedIrreducibility

    with pytest.raises(NotMaximalIdeal):
        SepMaxIdeal(QQ, 1, {1: Poly(QQ, [0, 0, 1])})
    # t^2 - 2 at both indices: the second factor splits in the tower
    with pytest.raises(NotMaximalIdeal):
        SepMaxIdeal(QQ, 2, {1: Poly(QQ, [-2, 0, 1]), 2: Poly(QQ, [-2, 0, 1])})
    # t^2 - 3 over the tower of t^2 - 2 is outside the exact range: the
    # caller must assert it, and the uncertified flag propagates
    gens = {1: Poly(QQ, [-2, 0, 1]), 2: Poly(QQ, [-3, 0, 1])}
    with pytest.raises(UncertifiedIrreducibility):
        SepMaxIdeal(QQ, 2, gens)
    asserted = SepMaxIdeal(QQ, 2, gens, assume_irreducible=True)
    info = orbit_info(asserted)
    assert not info.certified
    assert info.residue.degree_over_base() == 4
    # over a finite field the two-level certificate is fully exact: a
    # quadratic splits over its own tower, an odd-degree one does not
    with pytest.raises(NotMaximalIdeal):
        SepMaxIdeal(F2, 2, {1: Poly(F2, [1, 1, 1]), 2: Poly(F2, [1, 1, 1])})
    mixed = SepMaxIdeal(F2, 2, {1: Poly(F2, [1, 1, 1]), 2: Poly(F2, [1, 1, 0, 1])})
    info2 = orbit_info(mixed)
    assert info2.certified
    assert info2.residue.degree_over_base() == 6


def test_each_residue_tower_is_built_once(monkeypatch):
    import weylmod.fields as fields_module
    import weylmod.orbits as orbits_module
    from weylmod.orbits import ResidueField

    tested = []
    is_irreducible = fields_module.is_irreducible

    def counting(f, **kwargs):
        tested.append(f)
        return is_irreducible(f, **kwargs)

    monkeypatch.setattr(fields_module, "is_irreducible", counting)
    monkeypatch.setattr(orbits_module, "is_irreducible", counting, raising=False)
    # two generators of degree >= 2 and one of degree one
    gens = {1: Poly(F2, [1, 1, 1]), 2: Poly(F2, [1, 1, 0, 1]), 3: Poly.x(F2)}
    ideal = SepMaxIdeal(F2, 3, gens)
    assert len(tested) == 2
    residue = ResidueField(ideal)
    assert len(tested) == 2
    assert residue.desc is ideal.levels[2] and residue.desc.base is ideal.levels[1]
    assert residue.degree_over_base() == 6
    info = orbit_info(ideal)  # the normalized base ideal reuses the tower
    assert len(tested) == 2
    assert info.residue.desc is ideal.levels[2] and info.base.levels == ideal.levels


def test_canonical_rep_rule():
    m = SepMaxIdeal(
        QQ, 3, {1: Poly.x(QQ), 2: Poly.x(QQ), 3: t_minus(QQ, Fraction(1, 2))}
    )
    info = orbit_info(m)
    assert info.break_set == (1, 2)
    gamma = ShiftVector({1: 3, 2: -2, 3: 5})
    delta = canonical_skeleton_rep(info, gamma)
    assert delta == ShiftVector({1: 1})
    assert region_of(info, gamma) == delta
    # skeleton objects are their own representatives
    for obj in info.skeleton:
        assert canonical_skeleton_rep(info, obj) == obj
        assert region_of(info, obj) == obj


def test_region_agreement_random():
    m = SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)})
    info = orbit_info(m)
    rng = random.Random(5)
    for _ in range(500):
        gamma = ShiftVector({1: rng.randint(-6, 6), 2: rng.randint(-6, 6)})
        assert canonical_skeleton_rep(info, gamma) == region_of(info, gamma)


def test_regions_partition_window():
    m = SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)})
    info = orbit_info(m)
    window = make_window(info, radius=4)
    for delta in info.skeleton:
        members = [g for g in window if region_of(info, g) == delta]
        assert members  # every region meets the window
    assert sum(
        1 for g in window for d in info.skeleton if region_of(info, g) == d
    ) == len(window)


def test_nondegenerate_direction_never_breaks():
    info = orbit_info(
        SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: t_minus(QQ, Fraction(1, 2))})
    )
    f = info.base.generator(2)
    for k in range(-10, 11):
        assert f.shift(k) != Poly.x(QQ)
    g = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [-2, 0, 1])})).base.generator(1)
    assert g.degree >= 2


@pytest.mark.parametrize(
    "field,gens",
    [
        (F2, {1: Poly(GF(2), [1, 1, 1])}),
        (F3, {1: t_minus(GF(3), 1)}),
        (F3, {1: t_minus(GF(3), 0), 2: Poly(GF(3), [1, 0, 1])}),
        (GF(5), {1: t_minus(GF(5), 2)}),
        (F2, {1: Poly(GF(2), [1, 1, 1]), 2: t_minus(GF(2), 1)}),
        (F2, {1: t_minus(GF(2), 0), 2: Poly(GF(2), [1, 1, 1]), 3: t_minus(GF(2), 1)}),
        (F3, {1: t_minus(GF(3), 1), 2: Poly(GF(3), [1, 0, 1]), 3: t_minus(GF(3), 2)}),
    ],
)
def test_char_p_orbit_size_by_enumeration(field, gens):
    info = orbit_info(SepMaxIdeal(field, max(gens), gens))
    base = info.base
    seen = {base}
    frontier = [base]
    while frontier:
        cur = frontier.pop()
        for i in base.explicit_indices():
            for s in (1, -1):
                nxt = sigma_apply(cur, ShiftVector({i: s}))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert len(seen) == info.orbit_size()


def test_unbounded_arity_rules():
    half = t_minus(QQ, Fraction(1, 2))
    ideal = SepMaxIdeal(QQ, "inf", {3: Poly.x(QQ)}, half)
    info = orbit_info(ideal)
    assert info.break_set == (3,)
    assert info.tbar(17) == QQ.from_fraction(Fraction(1, 2))
    with pytest.raises(InvalidIdeal):
        SepMaxIdeal(QQ, "inf", {}, t_minus(QQ, 5))
    with pytest.raises(InvalidIdeal):
        SepMaxIdeal(QQ, "inf", {}, Poly(QQ, [-2, 0, 1]))
    with pytest.raises(InvalidIdeal):
        SepMaxIdeal(QQ, "inf", {})
    F4 = extend(F2, Poly(F2, [1, 1, 1]))
    with pytest.raises(InfiniteCharPOrbit):
        orbit_info(SepMaxIdeal(F4, "inf", {}, t_minus(F4, F4.gen())))


def test_window_shapes():
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    w = make_window(info, radius=2)
    assert len(w) == 25
    info_p = orbit_info(SepMaxIdeal(F3, 2, {1: t_minus(F3, 0), 2: t_minus(F3, 1)}))
    wp = make_window(info_p)
    assert len(wp) == 9
    assert info_p.step(ShiftVector({1: 2}), 1, 1) == ShiftVector()


def test_edge_scalars():
    m = SepMaxIdeal(QQ, 1, {1: t_minus(QQ, Fraction(1, 2))})
    info = orbit_info(m)
    desc = info.residue.desc
    for gamma in range(-3, 4):
        val = info.edge_scalar(ShiftVector({1: gamma}), 1)
        assert val == desc.from_fraction(Fraction(1, 2) + gamma)
    mb = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly.x(QQ)}))
    assert mb.edge_scalar(ShiftVector(), 1).is_zero()


def _reference_step(info, window, gamma, i, s):
    target = info.step(gamma, i, s)
    return target if target in window else None


def _assert_steps_match(info, window, indices):
    for gamma in window:
        for i in indices:
            for s in (1, -1):
                assert window.step(gamma, i, s) == _reference_step(info, window, gamma, i, s)


QQ_IDEALS = {
    1: {1: Poly.x(QQ)},
    2: {1: t_minus(QQ, Fraction(1, 2)), 2: t_minus(QQ, -3)},
    4: {1: Poly.x(QQ), 2: t_minus(QQ, Fraction(1, 2)), 3: Poly(QQ, [-2, 0, 1]), 4: t_minus(QQ, 1)},
}


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("arity", sorted(QQ_IDEALS))
def test_window_step_matches_orbit_step_on_boxes(arity, radius):
    info = orbit_info(SepMaxIdeal(QQ, arity, QQ_IDEALS[arity]))
    window = make_window(info, radius=radius)
    _assert_steps_match(info, window, range(1, arity + 2))


def test_window_step_leaves_a_box_that_omits_a_break_index():
    info = orbit_info(SepMaxIdeal(QQ, 2, QQ_IDEALS[2]))
    assert info.break_set == (2,)
    window = make_window(info, radius=2, indices=[1])
    _assert_steps_match(info, window, (1, 2))
    assert all(window.step(g, 2, s) is None for g in window for s in (1, -1))


def test_window_step_on_the_unbounded_heisenberg_orbit():
    info = default_heisenberg_orbit()
    window = make_window(info, radius=1, indices=range(1, 5))
    _assert_steps_match(info, window, range(1, 7))


@pytest.mark.parametrize(
    "field, gens",
    [
        (F2, {1: Poly(F2, [1, 1, 1])}),
        (F3, {1: t_minus(F3, 0), 2: t_minus(F3, 1)}),
        (F2, {1: Poly(F2, [1, 1, 1]), 2: Poly.x(F2)}),
    ],
    ids=["period-1", "period-p", "mixed"],
)
def test_window_step_wraps_char_p_orbits(field, gens):
    info = orbit_info(SepMaxIdeal(field, len(gens), gens))
    window = make_window(info)
    _assert_steps_match(info, window, info.indices())
    if info.periods[1] == 1:
        assert all(window.step(g, 1, s) == g for g in window for s in (1, -1))


def test_hand_built_windows_step_like_the_orbit():
    info = orbit_info(SepMaxIdeal(QQ, 2, QQ_IDEALS[2]))
    ell = [ShiftVector({1: a, 2: b}) for a, b in [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (-1, 1)]]
    window = Window("box", (1, 2), 2, ell)
    _assert_steps_match(info, window, (1, 2, 3))
    assert window.step(ShiftVector({1: 1}), 2, 1) is None
    info_p = orbit_info(SepMaxIdeal(F3, 2, {1: t_minus(F3, 0), 2: t_minus(F3, 1)}))
    shuffled = list(reversed(info_p.orbit_weights()))
    window_p = Window("orbit", (1, 2), 0, shuffled)
    assert window_p == make_window(info_p)
    _assert_steps_match(info_p, window_p, (1, 2))
    with pytest.raises(ValueError):
        Window("orbit", (1, 2), 0, shuffled[1:])


def test_a_negative_window_radius_is_refused():
    info = orbit_info(SepMaxIdeal(QQ, 1, {1: t_minus(QQ, Fraction(1, 2))}))
    assert len(make_window(info, radius=0)) == 1
    with pytest.raises(ValueError):
        make_window(info, radius=-1)
