import itertools
from fractions import Fraction

import pytest

from weylmod.errors import (
    EnumerationBudgetExceeded,
    InfiniteDimension,
    NotMaximal,
    RelationViolation,
    WindowTooSmall,
)
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.linalg import Matrix, companion_matrix, solve_intertwiners
from weylmod.indecomp import (
    build_order2_module,
    q1_indecomposables,
    q2_indecomposables,
    rep_to_skeleton_module,
)
from weylmod.orbits import (
    SepMaxIdeal,
    ShiftVector,
    canonical_skeleton_rep,
    make_window,
    orbit_info,
)
from weylmod.simples import build_S_O, build_S_O_p, build_S_char_p, classify_simples
from weylmod.skeleton import skeleton_quiver
from weylmod.weightmod import (
    KLinearization,
    RelationReport,
    SkeletonModule,
    WeightModule,
    direct_sum,
    from_skeleton_module,
    is_indecomposable_finite,
    is_simple_finite,
    submodule_closure,
    to_skeleton_module,
    verify_relations,
)

F2 = GF(2)
F3 = GF(3)
ZERO = ShiftVector()


def half_shift_info(n=1):
    gens = {i: Poly(QQ, [Fraction(-1, 2) - i + 1, 1]) for i in range(1, n + 1)}
    return orbit_info(SepMaxIdeal(QQ, n, gens))


def break_info():
    return orbit_info(SepMaxIdeal(QQ, 1, {1: Poly.x(QQ)}))


def stable_charp_info():
    return orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))


def test_verify_relations_passes_on_construction():
    info = half_shift_info(2)
    module = build_S_O(info, make_window(info, radius=3))
    report = verify_relations(module)
    assert report.ok
    assert report.entries["weight_condition"]["checked"] > 0
    assert report.entries["raising_commute"]["checked"] > 0


def test_injected_fault_is_located():
    info = half_shift_info(1)
    module = build_S_O(info, make_window(info, radius=2))
    bad_x = dict(module.xmat)
    bad_x[(1, ZERO)] = Matrix.zeros(module.field, 1, 1)
    broken = WeightModule(info, module.window, module.spaces, bad_x, module.dmat)
    report = verify_relations(broken)
    assert not report.ok
    failure = report.entries["same_index_commutator"]["first_failure"]
    assert failure is not None and failure["index"] == 1


def _readme_module():
    info = stable_charp_info()
    field = info.residue.desc
    cubic = Poly(field, [field.one(), field.one(), field.zero(), field.one()])
    return build_S_char_p(info, classify_simples(info)[0], cubic)


def _order2_module(label):
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    rep = next(r for r in q2_indecomposables(QQ, 2, 1) if r.label == label)
    return build_order2_module(info, rep, make_window(info, radius=1))


def _checked(report):
    return {name: entry["checked"] for name, entry in report.entries.items()}


README_CHECKED = {
    "weight_condition": 1,
    "same_index_commutator": 1,
    "raising_commute": 0,
    "lowering_commute": 0,
    "mixed_commutator": 0,
}
HALF_CHECKED = dict(README_CHECKED, weight_condition=4, same_index_commutator=3)
ORDER2_CHECKED = {
    "weight_condition": 12,
    "same_index_commutator": 6,
    "raising_commute": 4,
    "lowering_commute": 4,
    "mixed_commutator": 8,
}


def _recorded_walks(monkeypatch):
    walks = []
    walk = WeightModule.walk

    def recording(self, gamma, steps):
        walks.append((gamma, tuple(steps)))
        return walk(self, gamma, steps)

    monkeypatch.setattr(WeightModule, "walk", recording)
    return walks


def test_verify_relations_walks_each_word_once(monkeypatch):
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    rep = next(r for r in q2_indecomposables(QQ, 2, 1) if r.label == "M0")
    module = build_order2_module(info, rep, make_window(info, radius=2))
    walks = _recorded_walks(monkeypatch)
    assert verify_relations(module).ok
    assert len(walks) == len(set(walks)) == 254


def test_readme_module_checked_counts():
    report = verify_relations(_readme_module())
    assert report.ok
    assert _checked(report) == README_CHECKED


# (module, store, index, source weight, entry) of a fault that adds one to a
# single matrix entry, the relation kinds it breaks, and where each first fails.
# The weight condition and the same-index commutator both walk (X i, Y i) from
# the same weight, so no single-transition fault breaks the former alone.
FAULTS = {
    "weight_condition": (
        lambda: build_S_O(half_shift_info(1), make_window(half_shift_info(1), radius=2)),
        "xmat", 1, {1: -2}, (0, 0), HALF_CHECKED,
        {
            "weight_condition": {"index": 1, "gamma": ShiftVector({1: -2})},
            "same_index_commutator": {"index": 1, "gamma": ShiftVector({1: -1})},
        },
    ),
    "same_index_commutator": (
        _readme_module, "dmat", 1, {}, (0, 1), README_CHECKED,
        {"same_index_commutator": {"index": 1, "gamma": ZERO}},
    ),
    "raising_commute": (
        lambda: _order2_module("M0"), "xmat", 1, {2: 1}, (0, 0), ORDER2_CHECKED,
        {"raising_commute": {"indices": (1, 2), "gamma": ZERO}},
    ),
    "lowering_commute": (
        lambda: _order2_module("M2"), "dmat", 1, {1: 1, 2: 1}, (0, 0), ORDER2_CHECKED,
        {"lowering_commute": {"indices": (1, 2), "gamma": ShiftVector({1: 1, 2: 1})}},
    ),
    "mixed_commutator": (
        lambda: _order2_module("M1"), "xmat", 1, {2: 1}, (0, 0), ORDER2_CHECKED,
        {"mixed_commutator": {"indices": (2, 1), "gamma": ShiftVector({2: 1})}},
    ),
}


@pytest.mark.parametrize("kind", list(FAULTS))
def test_fault_fails_only_its_relations(kind):
    build, store, index, source, (r, c), checked, failing = FAULTS[kind]
    module = build()
    assert verify_relations(module).ok
    key = (index, ShiftVector(source))
    mats = {"xmat": dict(module.xmat), "dmat": dict(module.dmat)}
    rows = [list(row) for row in mats[store][key].rows]
    rows[r][c] = rows[r][c] + module.field.one()
    mats[store][key] = Matrix(module.field, len(rows), len(rows[0]), rows)
    broken = WeightModule(module.info, module.window, module.spaces, **mats)
    report = verify_relations(broken)
    assert kind in failing
    assert report.failures() == [n for n in RelationReport.RELATIONS if n in failing]
    for name, location in failing.items():
        assert report.entries[name]["first_failure"] == location
    assert _checked(report) == checked


def test_walk_returns_none_off_the_window():
    info = half_shift_info(1)
    module = build_S_O(info, make_window(info, radius=1))
    top = ShiftVector.e(1)
    assert module.walk(top, [("X", 1)]) is None
    assert module.walk(ZERO, [("X", 1), ("X", 1)]) is None
    assert module.walk(ZERO, [("X", 1), ("Y", 1), ("X", 1), ("X", 1)]) is None
    mat, end = module.walk(ZERO, [("X", 1), ("Y", 1)])
    assert end == ZERO
    assert mat == module.compose_op(module.op_d(1, top), module.op_x(1, ZERO))[0]
    assert module.walk(ZERO, [("X", 1)]) == (module.x(1, ZERO), top)
    assert module.evaluate_path(ZERO, [("X", 1), ("Y", 1)]) == (mat, ZERO)
    assert module.evaluate_path(ZERO, []) == (Matrix.identity(module.field, 1), ZERO)
    with pytest.raises(WindowTooSmall):
        module.evaluate_path(ZERO, [("X", 1), ("X", 1)])
    with pytest.raises(WindowTooSmall):
        module.evaluate_path(ShiftVector.e(1, 2), [])


def test_zero_module_passes_vacuously():
    info = half_shift_info(1)
    window = make_window(info, radius=1)
    spaces = {g: 0 for g in window}
    empty = Matrix.zeros(info.residue.desc, 0, 0)
    xmat = {(1, g): empty for g in window if info.step(g, 1, 1) in window}
    dmat = {(1, g): empty for g in window if info.step(g, 1, -1) in window}
    module = WeightModule(info, window, spaces, xmat, dmat)
    assert verify_relations(module).ok
    assert module.kdim() == 0


def test_negative_or_off_window_dimensions_are_refused():
    info = half_shift_info(1)
    window = make_window(info, radius=0)
    for spaces in ({ZERO: -3}, {ZERO: 1, ShiftVector.e(1, 5): 0}):
        with pytest.raises(ValueError):  # every step leaves a radius-0 window
            WeightModule(info, window, spaces, {}, {})
    with pytest.raises(ValueError):
        SkeletonModule(info, {ZERO: -2}, {})
    with pytest.raises(ValueError):  # a break set (1,) has no object e_2
        SkeletonModule(break_info(), {ShiftVector.e(2): 1}, {})
    binfo = orbit_info(SepMaxIdeal(F3, 1, {1: Poly.x(F3)}))
    with pytest.raises(ValueError):
        SkeletonModule(binfo, {ZERO: -1}, {})


def test_matrices_off_the_window_steps_are_refused():
    # a matrix at a weight off the window, at an index the window lacks, or on
    # a step that leaves the window would be kept and break ==
    info = half_shift_info(1)
    module = build_S_O(info, make_window(info, radius=1))
    one, top = Matrix.identity(module.field, 1), ShiftVector.e(1)
    for store, edge in (("xmat", top), ("dmat", ShiftVector.e(1, -1))):
        for key in ((1, ShiftVector.e(1, 9)), (7, ZERO), (1, edge)):
            mats = {"xmat": dict(module.xmat), "dmat": dict(module.dmat)}
            mats[store][key] = one
            with pytest.raises(ValueError):
                WeightModule(info, module.window, module.spaces, **mats)
    tagged = {**module.xmat, (1, ZERO): "out"}
    with pytest.raises(WindowTooSmall):  # a tag is no matrix
        WeightModule(info, module.window, module.spaces, tagged, module.dmat)
    assert (1, top) not in module.xmat and module.x(1, top) is None
    assert module.has_out_tags() and not _readme_module().has_out_tags()
    with pytest.raises(WindowTooSmall):
        module.op_x(1, top)


def test_weight_condition_is_generator_annihilation():
    info = stable_charp_info()
    descs = classify_simples(info)
    field = info.residue.desc
    module = build_S_char_p(
        info, descs[0], Poly(field, [field.one(), field.one(), field.zero(), field.one()])
    )
    t_op, _ = module.compose_op(module.op_d(1, ZERO), module.op_x(1, ZERO))
    gen = info.residue.embed_poly(info.generator_at(ZERO, 1))
    assert t_op.poly_eval(gen).is_zero()
    assert not t_op.is_zero()  # the action itself is nontrivial


def test_functor_round_trip_on_simples():
    info = half_shift_info(1)
    module = build_S_O(info, make_window(info, radius=3))
    data = to_skeleton_module(module)
    assert from_skeleton_module(data, info, module.window) == module

    binfo = break_info()
    for region in binfo.skeleton:
        mod = build_S_O_p(binfo, region, make_window(binfo, radius=3))
        data = to_skeleton_module(mod)
        assert from_skeleton_module(data, binfo, mod.window) == mod


def test_functor_round_trip_charp():
    info = stable_charp_info()
    field = info.residue.desc
    module = build_S_char_p(
        info,
        classify_simples(info)[0],
        Poly(field, [field.one(), field.one(), field.zero(), field.one()]),
    )
    data = to_skeleton_module(module)
    assert from_skeleton_module(data, info) == module


def test_window_too_small_for_readback():
    binfo = break_info()
    window = make_window(binfo, radius=0)
    mod = build_S_O_p(binfo, ZERO, window)
    with pytest.raises(WindowTooSmall):
        to_skeleton_module(mod)


def _matrix(field, rows):
    return Matrix(field, len(rows), len(rows[0]) if rows else 0, rows)


def test_skeleton_data_with_a_wrong_shape_or_nonzero_ab_is_refused():
    info = break_info()
    field = info.residue.desc
    up = ShiftVector.e(1)
    cases = [
        ((1, 1), [[1, 0]], [[0]]),  # a is 1x2, not 1x1
        ((1, 1), [[0]], [[0], [0]]),  # b is 2x1, not 1x1
        ((1, 2), [[1], [0]], [[0, 1]]),  # a.b != 0, b.a = 0
        ((2, 1), [[0, 1]], [[1], [0]]),  # b.a != 0, a.b = 0
    ]
    for (low, high), a, b in cases:
        with pytest.raises(RelationViolation):
            data = SkeletonModule(
                info,
                {ZERO: low, up: high},
                {("a", ZERO, 1): _matrix(field, a), ("b", ZERO, 1): _matrix(field, b)},
            )
            from_skeleton_module(data, info)


def _corner_paths_data(info, start):
    """Order-2 data, dimension 1 everywhere: the identity along both two-step
    paths from ``start`` to the opposite corner and zero elsewhere, so every
    relation holds.  Also returns the generator key of the second arrow of
    the path that crosses the first break index first."""
    field = info.residue.desc
    one, zero = Matrix.identity(field, 1), Matrix.zeros(field, 1, 1)
    arrows = {
        (x, d, i): zero for d in info.skeleton for i in info.break_set if d.get(i) == 0
        for x in "ab"
    }
    for order in itertools.permutations(info.break_set):
        corner = start
        for i in order:
            if corner.get(i) == 0:
                key = ("a", corner, i)
                corner = corner.step(i, 1)
            else:
                corner = corner.step(i, -1)
                key = ("b", corner, i)
            arrows[key] = one
        if order == info.break_set:
            last = key
    return {d: 1 for d in info.skeleton}, arrows, last


def test_skeleton_data_breaking_one_commuting_square_is_refused():
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    field = info.residue.desc
    for start in info.skeleton:
        dims, arrows, key = _corner_paths_data(info, start)
        data = SkeletonModule(info, dims, arrows)
        assert verify_relations(from_skeleton_module(data, info)).ok
        # one entry changed: only the square from this corner breaks
        arrows[key] = Matrix.zeros(field, 1, 1)
        with pytest.raises(RelationViolation):
            data = SkeletonModule(info, dims, arrows)
            from_skeleton_module(data, info)


def mixed_charp_info():
    # GF(2), arity 2: a loop c_1 that twists (t^2+t+1 is shift-stable, so the
    # residue field GF(4) is shifted by sigma_1) and a break at index 2
    return orbit_info(SepMaxIdeal(F2, 2, {1: Poly(F2, [1, 1, 1]), 2: Poly.x(F2)}))


def _loops_data(info, rows):
    """Skeleton data on ``mixed_charp_info``: a_2, b_2 and c_1 from their rows
    over GF(4), the entry u standing for the root tbar_1."""
    field = info.residue.desc
    u = info.residue.tbar(1)
    elem = {0: field.zero(), 1: field.one(), "u": u}
    mats = {k: _matrix(field, [[elem[x] for x in row] for row in v]) for k, v in rows.items()}
    arrows = {("a", 2): mats["a"], ("b", 2): mats["b"], ("c", 1): mats["c"]}
    return SkeletonModule(info, {ZERO: mats["a"].ncols}, arrows)


CHARP_BAD_DATA = {
    "wrong shape": {"a": [[0, 0], [0, 0]], "b": [[0]], "c": [[1]]},
    "a.b != 0": {"a": [[1, 0], [0, 0]], "b": [[0, 1], [0, 0]], "c": [[1, 0], [0, 1]]},
    "b.a != 0": {"a": [[0, 1], [0, 0]], "b": [[1, 0], [0, 0]], "c": [[1, 0], [0, 1]]},
    "singular c": {"a": [[0]], "b": [[0]], "c": [[0]]},
    # u.1 = u, but 1.sigma_1(u) = u + 1: a 1x1 pair fails only by the twist
    "twisted pair": {"a": [["u"]], "b": [[0]], "c": [[1]]},
}


@pytest.mark.parametrize("case", sorted(CHARP_BAD_DATA))
def test_charp_skeleton_data_breaking_a_relation_is_refused(case):
    info = mixed_charp_info()
    with pytest.raises(RelationViolation):
        from_skeleton_module(_loops_data(info, CHARP_BAD_DATA[case]), info)


def test_charp_skeleton_data_with_twisted_commuting_loops_is_accepted():
    info = mixed_charp_info()
    for a in ([[1]], [[0]]):
        data = _loops_data(info, {"a": a, "b": [[0]], "c": [["u"]]})
        assert verify_relations(from_skeleton_module(data, info)).ok


def test_skeleton_data_of_another_orbit_kind_is_refused():
    q1, q2 = break_info(), orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    pinfo = mixed_charp_info()
    one, zero = Matrix.identity(pinfo.residue.desc, 1), Matrix.zeros(pinfo.residue.desc, 1, 1)
    charp = SkeletonModule(pinfo, {ZERO: 1}, {("a", 2): zero, ("b", 2): zero, ("c", 1): one})
    char0 = to_skeleton_module(build_S_O_p(q1, ZERO, make_window(q1, radius=1)))
    gf3, gf5 = (orbit_info(SepMaxIdeal(GF(p), 1, {1: Poly.x(GF(p))})) for p in (3, 5))
    zero3 = Matrix.zeros(gf3.residue.desc, 1, 1)
    char3 = SkeletonModule(gf3, {ZERO: 1}, {("a", 1): zero3, ("b", 1): zero3})
    for data, info, message in (
        (charp, q1, "one-object skeleton data needs characteristic p"),
        (char0, pinfo, "two-sided skeleton data needs characteristic zero"),
        (char3, gf5, "skeleton data of characteristic 3, not 5"),
        (char0, q2, "different break set"),
    ):
        with pytest.raises(RelationViolation, match=message):
            from_skeleton_module(data, info)


def test_charp_skeleton_data_needs_one_matrix_per_loop():
    info = mixed_charp_info()
    field = info.residue.desc
    one, zero = Matrix.identity(field, 1), Matrix.zeros(field, 1, 1)
    full = {("a", 2): zero, ("b", 2): zero, ("c", 1): one}
    for arrows in (
        {("a", 2): zero, ("b", 2): zero},  # c_1 missing
        {("b", 2): zero, ("c", 1): one},  # a_2 missing
        {**full, ("c", 2): one},  # c_2 at a break index
        {**full, ("a", 1): zero},  # a_1 at a loop index
        {("a", 2): zero, ("b", 2): zero, ("a", 1): zero},  # a_1 in place of c_1
    ):
        with pytest.raises(RelationViolation):
            from_skeleton_module(SkeletonModule(info, {ZERO: 1}, arrows), info)


@pytest.mark.parametrize("p", [3, 5])
def test_charp_break_families_round_trip(p):
    # the families at a break: xi = 0 puts the parameter on a, xi = 1 on b; a
    # wrong sign on the lowering step at the break would read back -b
    field = GF(p)
    info = orbit_info(SepMaxIdeal(field, 1, {1: Poly.x(field)}))
    assert sorted(d.xi.get(1) for d in classify_simples(info)[1:]) == [0, 1]
    quadratic = next(
        Poly(field, [c, 0, 1]) for c in range(1, p) if all((x * x + c) % p for x in range(p))
    )
    for n_gen in [Poly(field, [-nu, 1]) for nu in range(1, p)] + [quadratic]:
        loop = companion_matrix(n_gen)
        zero = Matrix.zeros(field, loop.nrows, loop.nrows)
        for xi in (0, 1):
            a, b = (loop, zero) if xi == 0 else (zero, loop)
            data = SkeletonModule(info, {ZERO: loop.nrows}, {("a", 1): a, ("b", 1): b})
            module = from_skeleton_module(data, info)
            back = to_skeleton_module(module)
            assert back.arrows == data.arrows
            assert from_skeleton_module(back, info) == module


def test_charp_skeleton_data_is_checked_once(monkeypatch):
    import weylmod.weightmod as wm

    info = mixed_charp_info()
    field = info.residue.desc
    counts = {"relations": 0, "inverses": 0}
    holds, inverse = wm.relation_holds, Matrix.inverse

    def counting_holds(*args):
        counts["relations"] += 1
        return holds(*args)

    def counting_inverse(mat):
        counts["inverses"] += 1
        return inverse(mat)

    monkeypatch.setattr(wm, "relation_holds", counting_holds)
    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    one, zero = Matrix.identity(field, 1), Matrix.zeros(field, 1, 1)
    # a.b = b.a = 0 at 2 and the pairs (a_2, c_1), (b_2, c_1): four relations
    data = SkeletonModule(info, {ZERO: 1}, {("a", 2): zero, ("b", 2): one, ("c", 1): one})
    assert counts == {"relations": 4, "inverses": 1}
    module = from_skeleton_module(data, info)
    assert counts == {"relations": 4, "inverses": 1}
    back = to_skeleton_module(module)
    assert counts == {"relations": 8, "inverses": 2}
    assert from_skeleton_module(back, info) == module
    assert counts == {"relations": 8, "inverses": 2}


def test_direct_sum_is_blockwise():
    binfo = break_info()
    window = make_window(binfo, radius=2)
    s0 = build_S_O_p(binfo, ZERO, window)
    s1 = build_S_O_p(binfo, ShiftVector.e(1), window)
    both = direct_sum(s0, s1)
    assert both.kdim() == s0.kdim() + s1.kdim()
    for store in ("xmat", "dmat"):
        assert getattr(both, store).keys() == getattr(s0, store).keys()
        for key, mat in getattr(both, store).items():
            a, b = getattr(s0, store)[key], getattr(s1, store)[key]
            assert (mat.nrows, mat.ncols) == (a.nrows + b.nrows, a.ncols + b.ncols)
            for r, c in itertools.product(range(mat.nrows), range(mat.ncols)):
                if r < a.nrows and c < a.ncols:
                    assert mat.entry(r, c) == a.entry(r, c)
                elif r >= a.nrows and c >= a.ncols:
                    assert mat.entry(r, c) == b.entry(r - a.nrows, c - a.ncols)
                else:
                    assert mat.entry(r, c).is_zero()
    assert verify_relations(both).ok
    data = to_skeleton_module(both)
    assert data.dim(ZERO) == 1 and data.dim(ShiftVector.e(1)) == 1


def test_direct_sum_needs_a_common_orbit():
    # t - 1/2 and t - 1/3 lie in different orbits: each module is sound, but
    # their sum would break the weight condition on one summand
    info_half = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [Fraction(-1, 2), 1])}))
    info_third = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [Fraction(-1, 3), 1])}))
    half = build_S_O(info_half, make_window(info_half, radius=1))
    third = build_S_O(info_third, make_window(info_third, radius=1))
    assert verify_relations(half).ok and verify_relations(third).ok
    assert half.window == third.window
    with pytest.raises(RelationViolation, match="common orbit"):
        direct_sum(half, third)
    assert verify_relations(direct_sum(half, half)).ok


def test_order3_skeleton_data_round_trips():
    # breaks at 1, 2, 3: 8 objects, 24 arrows and 48 relations
    info = orbit_info(SepMaxIdeal(QQ, 3, {i: Poly.x(QQ) for i in (1, 2, 3)}))
    objects, quiver, relations = skeleton_quiver(info.break_set)
    assert (len(objects), len(quiver), len(relations)) == (8, 24, 48)
    window = make_window(info, radius=1)
    one, zero = Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1)
    arrows = {x: one if x[0] == "a" else zero for x in quiver}
    data = SkeletonModule(info, dict.fromkeys(objects, 1), arrows)
    module = from_skeleton_module(data, info, window)
    assert verify_relations(module).ok
    back = to_skeleton_module(module)
    assert back.dims == data.dims and back.arrows == data.arrows
    for region in info.skeleton:
        simple = build_S_O_p(info, region, window)
        data = to_skeleton_module(simple)
        assert data.dims == {delta: int(delta == region) for delta in objects}
        assert from_skeleton_module(data, info, window) == simple


def test_closure_monotone_idempotent_full():
    info = stable_charp_info()
    field = info.residue.desc
    module = build_S_char_p(
        info,
        classify_simples(info)[0],
        Poly(field, [field.one(), field.one(), field.zero(), field.one()]),
    )
    one = field.one()
    zero = field.zero()
    seed = [(ZERO, (one, zero, zero))]
    res1 = submodule_closure(module, seed)
    assert res1["full"] and res1["kdim"] == 6
    spanning = [
        (ZERO, (one, zero, zero)),
        (ZERO, (zero, one, zero)),
        (ZERO, (zero, zero, one)),
    ]
    res2 = submodule_closure(module, spanning)
    assert res2["kdim"] >= res1["kdim"]  # monotone in the seed set
    assert res2["full"]


def test_simplicity_and_indecomposability_oracles():
    info = stable_charp_info()
    field = info.residue.desc
    module = build_S_char_p(
        info,
        classify_simples(info)[0],
        Poly(field, [field.one(), field.one(), field.zero(), field.one()]),
        check_simple=False,
    )
    assert is_simple_finite(module)
    assert is_indecomposable_finite(module)
    doubled = direct_sum(module, module)
    assert not is_simple_finite(doubled)
    assert not is_indecomposable_finite(doubled)


def _dimension_six_simple():
    info = stable_charp_info()
    field = info.residue.desc
    return build_S_char_p(
        info,
        classify_simples(info)[0],
        Poly(field, [field.one(), field.one(), field.zero(), field.one()]),
        check_simple=False,
    )


def test_simplicity_beyond_budget_raises_unless_refuted():
    # 2**d0 vectors of the smallest weight space exceed a budget of 1: only the
    # refutation by the basis vectors of M runs, and it refutes the direct sum
    module = _dimension_six_simple()
    assert module.kdim() == 6
    with pytest.raises(EnumerationBudgetExceeded, match=r"2\*\*6"):
        is_simple_finite(module, max_vectors=1)
    assert not is_simple_finite(direct_sum(module, module), max_vectors=1)


def _bug1_module():
    """GF(5), ideal (t - 1), N = (d - 1)**2: reducible, K-dimension 10."""
    f5 = GF(5)
    info = orbit_info(SepMaxIdeal(f5, 1, {1: Poly(f5, [-1, 1])}))
    desc = classify_simples(info)[1]
    n_gen = Poly(info.residue.desc, [1, -2, 1])
    return build_S_char_p(info, desc, n_gen, check_simple=False)


def test_bug1_module_has_a_proper_submodule():
    module = _bug1_module()
    field = module.field
    closure = submodule_closure(module, [(ZERO, (field.one(), field.from_int(4)))])
    assert (module.kdim(), closure["kdim"], closure["full"]) == (10, 5, False)


def test_bug1_simplicity_beyond_budget_refutes_reducible_module():
    module = _bug1_module()
    assert 5 ** module.kdim() > 1 << 16
    assert not is_simple_finite(module)


def test_bug1_build_raises_not_maximal():
    f5 = GF(5)
    info = orbit_info(SepMaxIdeal(f5, 1, {1: Poly(f5, [-1, 1])}))
    n_gen = Poly(info.residue.desc, [1, -2, 1])
    with pytest.raises(NotMaximal):
        build_S_char_p(info, classify_simples(info)[1], n_gen)


def test_truncated_simplicity_raises_when_undecidable():
    info = half_shift_info(1)
    module = build_S_O(info, make_window(info, radius=2))
    with pytest.raises(InfiniteDimension):
        is_simple_finite(module)


def _conjugated_skeleton_A(data, rng, field):
    """Random base change of two-sided skeleton data (same module up to iso)."""

    def random_gl(n):
        while True:
            mat = Matrix(
                field, n, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            if mat.inverse() is not None:
                return mat

    g = {alpha: random_gl(d) for alpha, d in data.dims.items()}
    ginv = {alpha: g[alpha].inverse() for alpha in g}
    arrows = {}
    for (letter, alpha, i), mat in data.arrows.items():
        src, tgt = (alpha, alpha.step(i, 1)) if letter == "a" else (alpha.step(i, 1), alpha)
        arrows[letter, alpha, i] = g[tgt] * mat * ginv[src]
    return SkeletonModule(data.info, data.dims, arrows)


def test_base_changed_data_still_expands_and_round_trips():
    import random

    from weylmod.indecomp import band_module, diamond_module, rep_to_weight_module

    rng = random.Random(6)
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    window = make_window(info, radius=2)
    band = band_module(QQ, Poly(QQ, [1, -3, 1]), 1)
    for rep in (diamond_module(QQ, 0), band):
        reference = rep_to_weight_module(rep, info, window)
        data = to_skeleton_module(reference)
        for _ in range(3):
            moved = _conjugated_skeleton_A(data, rng, info.residue.desc)
            module = from_skeleton_module(moved, info, window)
            assert verify_relations(module).ok
            back = to_skeleton_module(module)
            assert back.arrows == moved.arrows


def test_base_changed_charp_data():
    import random

    rng = random.Random(7)
    info = stable_charp_info()
    field = info.residue.desc
    module = build_S_char_p(
        info,
        classify_simples(info)[0],
        Poly(field, [field.one(), field.one(), field.zero(), field.one()]),
    )
    data = to_skeleton_module(module)
    elems = list(field.enumerate_elements())

    def random_gl(n):
        while True:
            mat = Matrix(field, n, n, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
            if mat.inverse() is not None:
                return mat

    twist = info.residue.sigma_pow
    for _ in range(3):
        g = random_gl(data.dim())
        ginv = g.inverse()
        # the loop generator is twisted, so conjugation twists one side
        c_new = g * data.arrows["c", 1] * ginv.map_entries(lambda x: twist(x, 1, 1))
        moved = SkeletonModule(info, data.dims, {**data.arrows, ("c", 1): c_new})
        expanded = from_skeleton_module(moved, info)
        assert verify_relations(expanded).ok
        back = to_skeleton_module(expanded)
        assert back.arrows == moved.arrows


def test_order1_block_with_quadratic_residue_field():
    # the free direction carries a degree-two residue extension of Q
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly(QQ, [-2, 0, 1])}))
    assert info.break_set == (1,)
    assert info.residue.degree_over_base() == 2
    from weylmod.indecomp import build_order1_modules

    mods = dict(build_order1_modules(info, make_window(info, radius=2)))
    for module in mods.values():
        assert verify_relations(module).ok
    glued = mods["M(raise)"]
    assert glued.kdim() == glued.residue_dim() * 2
    assert is_indecomposable_finite(glued)
    one = glued.field.one()
    assert submodule_closure(glued, [(ZERO, (one,))])["full"]
    assert not submodule_closure(glued, [(ShiftVector.e(1), (one,))])["full"]
    assert not is_indecomposable_finite(direct_sum(mods["S(base)"], mods["S(raised)"]))


def test_charp_degenerate_module_shapes():
    info = orbit_info(SepMaxIdeal(F3, 1, {1: Poly(F3, [-1, 1])}))
    descs = classify_simples(info)
    assert [d.gamma_set for d in descs] == [(), (1,), (1,)]
    trivial = build_S_char_p(info, descs[0], None)
    assert trivial.kdim() == 3
    assert verify_relations(trivial).ok
    field = info.residue.desc
    for desc in descs[1:]:
        for nu in (0, 1, 2):
            mod = build_S_char_p(info, desc, Poly(field, [field.from_int(-nu), field.one()]))
            assert mod.kdim() == 3
            assert verify_relations(mod).ok


def _reference_is_simple(module):
    """Exhaustive reference oracle: spin one vector per scalar line of all of M.

    Costs (q**kdim - 1)/(q - 1) spins, so only small modules are checked.
    """
    lin = KLinearization(module)
    kdims = lin.kdims
    weights = [g for g in module.window if kdims[g] > 0]
    if not weights:
        return False
    kfield = lin.kfield
    elems = list(kfield.enumerate_elements())
    zero, one = kfield.zero(), kfield.one()
    total = sum(kdims[g] for g in weights)
    for lead in range(total):
        for rest in itertools.product(elems, repeat=total - lead - 1):
            vec = (zero,) * lead + (one,) + rest
            seeds, pos = [], 0
            for g in weights:
                chunk = vec[pos : pos + kdims[g]]
                pos += kdims[g]
                if any(not c.is_zero() for c in chunk):
                    seeds.append((g, chunk))
            spaces = lin.graph.spin(seeds)
            if any(spaces[g].dim < kdims[g] for g in weights):
                return False
    return True


def _monic_polys(field, degree, unit_constant):
    elems = list(field.enumerate_elements())
    for low in itertools.product(elems, repeat=degree):
        if not (unit_constant and low[0].is_zero()):
            yield Poly(field, list(low) + [field.one()])


def _simplicity_reference_modules():
    """Every S(desc, N) for monic N up to the given degree, irreducible and
    reducible alike, for each one-variable family; at most 5**5 vectors."""
    f5 = GF(5)
    twisted = Poly(F2, [1, 1, 1])
    cases = [
        (SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1])}), 3),
        (SepMaxIdeal(F3, 1, {1: Poly(F3, [-1, 1])}), 2),
        (SepMaxIdeal(f5, 1, {1: Poly(f5, [-1, 1])}), 1),
        (SepMaxIdeal(F2, 1, {1: twisted}), 2),
        (SepMaxIdeal(F2, 2, {1: twisted, 2: Poly.x(F2)}), 1),
    ]
    for ideal, max_degree in cases:
        info = orbit_info(ideal)
        residue = info.residue.desc
        for desc in classify_simples(info):
            if not desc.variables:
                params = [None]
            elif len(desc.variables) == 1:
                unit_constant = desc.variables[0][0] == "c"
                params = [
                    n_gen
                    for degree in range(1, max_degree + 1)
                    for n_gen in _monic_polys(residue, degree, unit_constant)
                ]
            else:
                continue
            for n_gen in params:
                yield build_S_char_p(info, desc, n_gen, check_simple=False)


def test_simplicity_agrees_with_exhaustive_reference():
    verdicts = []
    for module in _simplicity_reference_modules():
        expected = _reference_is_simple(module)
        assert is_simple_finite(module) == expected
        doubled = direct_sum(module, module)
        assert not _reference_is_simple(doubled)
        assert not is_simple_finite(doubled)
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def _reference_spin(kfield, kdims, by_source, seeds):
    """Closure in boxed arithmetic: keep every image that raises the
    column-sweep rank of the vectors kept at its weight; returns, per weight,
    the reduced echelon rows of their span."""
    from test_linalg import _reference_rref

    kept = {g: [] for g in kdims}

    def echelon(g, vecs):
        red, pivots = _reference_rref(Matrix(kfield, len(vecs), kdims[g], vecs))
        return list(red.rows[: len(pivots)])

    queue = []
    for g, vec in seeds:
        if len(echelon(g, kept[g] + [vec])) > len(kept[g]):
            kept[g].append(vec)
            queue.append((g, vec))
    while queue:
        g, vec = queue.pop()
        for tgt, mat in by_source[g]:
            image = []
            for row in mat.rows:
                acc = kfield.zero()
                for a, b in zip(row, vec):
                    acc = acc + a * b
                image.append(acc)
            image = tuple(image)
            if len(echelon(tgt, kept[tgt] + [image])) > len(kept[tgt]):
                kept[tgt].append(image)
                queue.append((tgt, image))
    return {g: echelon(g, vecs) if vecs else [] for g, vecs in kept.items()}


def test_spin_matches_boxed_reference_closure():
    # the int-coded closure over GF(p) gives the same subspaces as boxed
    # elimination, from each unit seed and from a mixed seed, on M and M*
    closure_dims = set()
    for module in _simplicity_reference_modules():
        lin = KLinearization(module)
        kfield, kdims = lin.kfield, lin.kdims
        weights = [g for g in module.window if kdims[g]]
        one = kfield.one()
        seed_lists = [
            [(g, tuple(one if t == s else kfield.zero() for t in range(kdims[g])))]
            for g in weights
            for s in range(kdims[g])
        ]
        seed_lists.append([(g, (one,) * kdims[g]) for g in weights])
        for dual in (False, True):
            by_source = {g: [] for g in kdims}
            for src, tgt, mat in lin.graph.ops:
                if dual:
                    src, tgt, mat = tgt, src, mat.transpose()
                by_source[src].append((tgt, mat))
            for seeds in seed_lists:
                spaces = lin.graph.spin(seeds, dual)
                expected = _reference_spin(kfield, kdims, by_source, seeds)
                assert {g: spaces[g].rows for g in kdims} == expected
                closure_dims.add(sum(s.dim for s in spaces.values()))
    assert len(closure_dims) > 3


def test_kblock_matches_block_by_block_build():
    # the GF(2) t^2+t+1 tower: residue GF(4), ext 2, twisted raising and lowering
    info = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
    residue = info.residue.desc
    cubic = Poly(residue, [residue.one(), residue.one(), residue.zero(), residue.one()])
    module = build_S_char_p(info, classify_simples(info)[0], cubic)
    calls = []

    class Counting(KLinearization):
        def _elem_block(self, elem, twist):
            calls.append((elem, tuple(sorted(twist.items()))))
            return super()._elem_block(elem, twist)

    lin = Counting(module)
    assert lin.ext == 2 and module.x_twist(1)
    assert len(calls) == len(set(calls))  # each distinct block computed once
    kfield, ext = lin.kfield, lin.ext

    def reference(mat, twist):
        rows = [[kfield.zero()] * (mat.ncols * ext) for _ in range(mat.nrows * ext)]
        for r, c in itertools.product(range(mat.nrows), range(mat.ncols)):
            if not mat.entry(r, c).is_zero():
                block = lin._elem_block(mat.entry(r, c), twist)
                for br, bc in itertools.product(range(ext), repeat=2):
                    rows[r * ext + br][c * ext + bc] = block.entry(br, bc)
        return Matrix(kfield, mat.nrows * ext, mat.ncols * ext, rows)

    expected = []
    window = module.window
    for gamma in window:
        for i in window.indices:
            for mat, sign, twist in (
                (module.x(i, gamma), 1, module.x_twist(i)),
                (module.d(i, gamma), -1, module.d_twist(i)),
            ):
                expected.append((gamma, window.step(gamma, i, sign), reference(mat, twist)))
        gen = Matrix.scalar(residue, module.dim(gamma), residue.gen())
        expected.append((gamma, gamma, reference(gen, {})))
    assert lin.graph.ops == expected


# ---- the expansion against the two hand-written loops it replaced ----------


def _reference_expand_A(data, info, window):
    """Characteristic zero: raising is a at a break from coordinate 0, else
    the identity; lowering is b at a break from coordinate 1, else the edge
    scalar.  A step that leaves the window gets no matrix."""
    field = info.residue.desc
    region = {gamma: canonical_skeleton_rep(info, gamma) for gamma in window}
    spaces = {gamma: data.dim(region[gamma]) for gamma in window}
    xmat, dmat = {}, {}
    for gamma in window:
        for i in window.indices:
            if window.step(gamma, i, 1) is None:
                pass
            elif info.is_break_index(i) and gamma.get(i) == 0:
                xmat[(i, gamma)] = data.arrows["a", region[gamma], i]
            else:
                xmat[(i, gamma)] = Matrix.identity(field, spaces[gamma])
            down = window.step(gamma, i, -1)
            if down is None:
                continue
            if info.is_break_index(i) and gamma.get(i) == 1:
                dmat[(i, gamma)] = data.arrows["b", region[down], i]
            else:
                dmat[(i, gamma)] = Matrix.scalar(field, spaces[gamma], info.edge_scalar(down, i))
    return WeightModule(info, window, spaces, xmat, dmat)


def _reference_expand_B(data, info):
    """Characteristic p, on the whole orbit: at a break, raising is a from 0
    and lowering -b from 1; at a loop of period 1, raising is c and lowering
    c's inverse operator times tbar; at a longer loop, raising is c from
    period - 1 and lowering c's inverse operator times the edge scalar from 0;
    every other step is the identity or the edge scalar."""
    window = make_window(info)
    field = info.residue.desc
    d = data.dim()
    spaces = {gamma: d for gamma in window}
    ident = Matrix.identity(field, d)
    xmat, dmat = {}, {}
    for gamma in window:
        for i in window.indices:
            r, gi = info.period(i), gamma.get(i)
            scalar = info.edge_scalar(window.step(gamma, i, -1), i)
            if i in info.break_set:
                xmat[(i, gamma)] = data.arrows["a", i] if gi == 0 else ident
                lower = -data.arrows["b", i] if gi == 1 else Matrix.scalar(field, d, scalar)
                dmat[(i, gamma)] = lower
            elif r == 1:
                xmat[(i, gamma)] = data.arrows["c", i]
                dmat[(i, gamma)] = data.c_inverse[i].scale(info.tbar(i))
            else:
                xmat[(i, gamma)] = data.arrows["c", i] if gi == r - 1 else ident
                if gi == 0:
                    dmat[(i, gamma)] = data.c_inverse[i].scale(scalar)
                else:
                    dmat[(i, gamma)] = Matrix.scalar(field, d, scalar)
    return WeightModule(info, window, spaces, xmat, dmat)


SQRT2 = extend(QQ, Poly(QQ, [-2, 0, 1]))


def _region_data(info, region):
    """The skeleton data of ``build_S_O_p`` on one region (of ``build_S_O``
    when there is no break): dimension 1 there and 0 elsewhere, zero a and b."""
    field = info.residue.desc
    dims = {delta: int(delta == region) for delta in info.skeleton}
    arrows = {}
    for delta in info.skeleton:
        for i in info.break_set:
            if delta.get(i) == 0:
                up = dims[delta.step(i, 1)]
                arrows["a", delta, i] = Matrix.zeros(field, up, dims[delta])
                arrows["b", delta, i] = Matrix.zeros(field, dims[delta], up)
    return SkeletonModule(info, dims, arrows)


def _char0_skeleton_data():
    """(data, info, window): the q1 and q2 lists over Q and Q(sqrt 2) and
    the simples of a nondegenerate orbit and of each region, radius 1 and 2."""
    for field in (QQ, SQRT2):
        x = Poly.x(field)
        root = Poly(field, [-field.gen(), field.one()]) if field is SQRT2 else Poly(
            QQ, [Fraction(-1, 2), 1]
        )
        order1 = orbit_info(SepMaxIdeal(field, 2, {1: x, 2: root}))
        order2 = orbit_info(SepMaxIdeal(field, 2, {1: x, 2: x}))
        nondeg = orbit_info(SepMaxIdeal(field, 1, {1: root}))
        for radius in (1, 2):
            for info, reps in (
                (order1, q1_indecomposables(order1.residue.desc)),
                (order2, q2_indecomposables(field, max_string_len=3, max_poly_deg=1)),
                (nondeg, []),
            ):
                window = make_window(info, radius=radius)
                for rep in reps:
                    yield rep_to_skeleton_module(rep, info), info, window
                for region in info.skeleton:
                    yield _region_data(info, region), info, window


def test_char0_expansion_matches_the_reference_loop():
    count = 0
    for data, info, window in _char0_skeleton_data():
        assert from_skeleton_module(data, info, window) == _reference_expand_A(data, info, window)
        count += 1
    assert count == 2 * 2 * (4 + 2 + 32 + 4 + 1)


def _charp_skeleton_data():
    """Loop data on GF(2) t^2+t+1 (alone and beside a break), GF(3) t, GF(3)
    t^2+1 and GF(5) t+2: breaks, and loops of period 1 and 3.  Each a, b or
    c is the identity, zero, or the companion matrix of a monic polynomial
    of degree 1 or 2; every such choice that satisfies the relations."""
    f5 = GF(5)
    twisted = Poly(F2, [1, 1, 1])
    for ideal in (
        SepMaxIdeal(F2, 1, {1: twisted}),
        SepMaxIdeal(F2, 2, {1: twisted, 2: Poly.x(F2)}),
        SepMaxIdeal(F3, 1, {1: Poly.x(F3)}),
        SepMaxIdeal(F3, 1, {1: Poly(F3, [1, 0, 1])}),
        SepMaxIdeal(f5, 1, {1: Poly(f5, [2, 1])}),
    ):
        info = orbit_info(ideal)
        residue = info.residue.desc
        elems = list(residue.enumerate_elements())
        for degree in (1, 2):
            for low in itertools.product(elems, repeat=degree):
                comp = companion_matrix(Poly(residue, list(low) + [residue.one()]))
                one, zero = Matrix.identity(residue, degree), Matrix.zeros(residue, degree, degree)
                pairs = [(comp, zero), (zero, comp), (zero, zero)]
                for ab in itertools.product(pairs, repeat=len(info.break_set)):
                    for c in itertools.product((comp, one), repeat=len(info.nonbreak_set)):
                        arrows = {("c", j): m for j, m in zip(info.nonbreak_set, c)}
                        for i, pair in zip(info.break_set, ab):
                            arrows.update(zip((("a", i), ("b", i)), pair))
                        try:
                            data = SkeletonModule(info, {ZERO: degree}, arrows)
                        except RelationViolation:  # a singular c, or a failed twist
                            continue
                        yield data, info


def test_charp_expansion_matches_the_reference_loop():
    dims = []
    for data, info in _charp_skeleton_data():
        assert from_skeleton_module(data, info) == _reference_expand_B(data, info)
        dims.append(data.dim())
    assert (dims.count(1), dims.count(2)) == (61, 323)


def _reference_block_minpoly(field, endo):
    """The minimal polynomial of the block-diagonal matrix assembled from the
    blocks of ``endo``, one power of the whole matrix at a time."""
    weights = list(endo)
    total = sum(endo[g].nrows for g in weights)
    rows = [[field.zero()] * total for _ in range(total)]
    pos = 0
    for g in weights:
        for r, c in itertools.product(range(endo[g].nrows), repeat=2):
            rows[pos + r][pos + c] = endo[g].entry(r, c)
        pos += endo[g].nrows
    big = Matrix(field, total, total, rows)
    powers = [Matrix.identity(field, total)]
    while True:
        flat = [[p.entry(r, c) for p in powers] for r in range(total) for c in range(total)]
        kernel = Matrix(field, len(flat), len(powers), flat).nullspace()
        if kernel:
            return Poly(field, kernel[0]).monic()
        powers.append(powers[-1] * big)


def test_blockwise_minpoly_matches_the_assembled_block_diagonal():
    # End bases of the q2 list, with the pairwise sums the Q oracle tries, and
    # of bands whose End is a quadratic field and of a sum S + S
    from weylmod.weightmod import _matrix_minpoly

    degrees = set()
    for field in (QQ, SQRT2):
        info = orbit_info(SepMaxIdeal(field, 2, {1: Poly.x(field), 2: Poly.x(field)}))
        window = make_window(info, radius=1)
        reps = q2_indecomposables(field, max_string_len=3, max_poly_deg=1)
        modules = [build_order2_module(info, rep, window) for rep in reps]
        bands = [
            rep
            for rep in q2_indecomposables(field, max_string_len=2, max_poly_deg=2)
            if rep.dims[0] == 2
        ]
        modules += [build_order2_module(info, rep, window) for rep in bands[:4]]
        modules.append(direct_sum(modules[0], modules[0]))
        for module in modules:
            lin = KLinearization(module)
            basis = solve_intertwiners(lin.graph, lin.graph)
            sums = [{g: a[g] + b[g] for g in a} for a, b in itertools.combinations(basis, 2)]
            for endo in basis + sums:
                mp = _matrix_minpoly(lin.kfield, endo)
                assert mp == _reference_block_minpoly(lin.kfield, endo)
                degrees.add(mp.degree)
    assert degrees == {1, 2}
