import itertools
from fractions import Fraction

import pytest

from weylmod.errors import (
    EnumerationBudgetExceeded,
    FieldMismatch,
    InfiniteDimension,
    RelationViolation,
    WrongBreakOrder,
)
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.indecomp import (
    QUIVER_RELATIONS,
    QuiverRep,
    _iter_satisfying,
    _relabelling,
    band_module,
    brute_force_indecomposables,
    build_order1_modules,
    build_order2_module,
    check_quiver_relations,
    classify_block,
    companion_matrix,
    ind0_polys,
    is_indecomposable_rep,
    q1_indecomposables,
    q2_indecomposables,
    quiver_layout,
    rep_to_weight_module,
    string_module,
    validate_quiver_rep,
    weight_module_to_rep,
)
from weylmod.linalg import Matrix, OpGraph, iter_matrices, iter_span, solve_intertwiners
from weylmod.orbits import SepMaxIdeal, ShiftVector, make_window, orbit_info
from weylmod.simples import structural_simplicity_certificate
from weylmod.skeleton import build_skeleton, relation_holds
from weylmod.weightmod import (
    is_indecomposable_finite,
    is_simple_finite,
    submodule_closure,
    verify_relations,
)

F2 = GF(2)
F3 = GF(3)
F4 = extend(F2, Poly(F2, [1, 1, 1]))
ZERO = ShiftVector()


def order1_info():
    return orbit_info(SepMaxIdeal(QQ, 1, {1: Poly.x(QQ)}))


def order2_info():
    return orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))


# ---- Hom, isomorphism and fingerprints (test-only) ---------------------------


def hom_basis(rep1: QuiverRep, rep2: QuiverRep):
    """Basis of intertwiners rep1 -> rep2."""
    return solve_intertwiners(rep1.graph(), rep2.graph())


def hom_dim(rep1: QuiverRep, rep2: QuiverRep) -> int:
    return len(hom_basis(rep1, rep2))


def are_isomorphic(rep1: QuiverRep, rep2: QuiverRep, *, budget: int = 1 << 16) -> bool:
    """Exhaustive invertible-intertwiner search over a finite field."""
    if rep1.dim_vector() != rep2.dim_vector():
        return False
    basis = hom_basis(rep1, rep2)
    if not basis:
        return rep1.total_dim() == 0
    field = rep1.field
    order = field.order()
    if order is None or order ** len(basis) > budget:
        raise EnumerationBudgetExceeded(
            f"{order}**{len(basis)} intertwiners exceed the budget"
        )
    return any(
        all(cand[v].inverse() is not None for v in cand if rep1.dims[v] > 0)
        for cand in iter_span(field, basis)
    )


def rep_fingerprint(rep: QuiverRep) -> tuple:
    """Isomorphism-invariant data: dimension vector plus arrow ranks."""
    return (
        rep.dim_vector(),
        tuple((name, rep.arrows[name].rank()) for name in sorted(rep.arrows)),
    )


def _linearly_independent(field, basis):
    flat = [
        [a for v in sorted(sol, key=repr) for row in sol[v].rows for a in row] for sol in basis
    ]
    return not flat or Matrix(field, len(flat), len(flat[0]), flat).rank() == len(flat)


def test_hom_solver_is_sound():
    # every returned map intertwines every op pair, and the maps are independent
    lists = [q2_indecomposables(F3, 3)] + [q1_indecomposables(f) for f in (F2, F3, QQ)]
    for reps in lists:
        for rep1, rep2 in itertools.product(reps, repeat=2):
            dom, cod = rep1.graph(), rep2.graph()
            basis = solve_intertwiners(dom, cod)
            for sol in basis:
                for (src, tgt, a), (_, _, b) in zip(dom.ops, cod.ops):
                    assert sol[tgt] * a == b * sol[src], (rep1, rep2)
            assert _linearly_independent(rep1.field, basis), (rep1, rep2)


def test_hom_across_fields_is_refused():
    # the solver once read the GF(3) arrows mod 2: Hom dimension 1, "isomorphic"
    m2, m3 = q1_indecomposables(F2)[2], q1_indecomposables(F3)[2]
    with pytest.raises(FieldMismatch):
        solve_intertwiners(m2.graph(), m3.graph())
    with pytest.raises(FieldMismatch):
        are_isomorphic(m2, m3)


def test_hom_across_quivers_is_refused():
    # a q1 rep against a q2 rep once raised a bare KeyError
    q1, q2 = q1_indecomposables(F2)[2], q2_indecomposables(F2, 2)[4]
    with pytest.raises(ValueError, match="different vertices"):
        solve_intertwiners(q1.graph(), q2.graph())
    with pytest.raises(ValueError, match="different vertices"):
        solve_intertwiners(q2.graph(), q1.graph())
    # same vertices, but the ops run between other vertices
    loop = QuiverRep("q1", F2, {1: 1, 2: 1}, {}).graph()
    swapped = OpGraph(F2, loop.dims, [(t, s, m) for s, t, m in loop.ops])
    with pytest.raises(ValueError, match="ops join different vertices"):
        solve_intertwiners(loop, swapped)


def test_block_classification_table():
    half = Poly(QQ, [Fraction(-1, 2), 1])
    cases = [
        ({1: half}, "finite", "Rem 7.17: nondegenerate orbit"),
        ({1: Poly.x(QQ)}, "finite", "Rem 7.17: maximal break of order 1"),
        (
            {1: Poly.x(QQ), 2: Poly.x(QQ)},
            "tame",
            "Thm 7.10(i): maximal break of order 2",
        ),
        (
            {1: Poly.x(QQ), 2: Poly.x(QQ), 3: Poly.x(QQ)},
            "wild",
            "Thm 7.10(i): maximal break of order 3",
        ),
    ]
    for gens, value, reason in cases:
        rep_type = classify_block(orbit_info(SepMaxIdeal(QQ, max(gens), gens)))
        assert (rep_type.value, rep_type.reason) == (value, reason)
    p_tame = classify_block(orbit_info(SepMaxIdeal(F2, 1, {1: Poly.x(F2)})))
    assert (p_tame.value, p_tame.reason) == ("tame", "Thm 7.10(ii): n = 1")
    p_wild = classify_block(
        orbit_info(SepMaxIdeal(F2, 2, {1: Poly.x(F2), 2: Poly.x(F2)}))
    )
    assert (p_wild.value, p_wild.reason) == ("wild", "Thm 7.10(ii): n = 2")


def test_q1_list():
    reps = q1_indecomposables(F2)
    assert [r.label for r in reps] == ["S1", "S2", "M_a", "M_b"]
    for rep in reps:
        validate_quiver_rep(rep)
    m_a = reps[2]
    assert (m_a.arrows["a"] * m_a.arrows["b"]).is_zero()
    assert hom_dim(m_a, reps[0]) == 1
    assert hom_dim(reps[0], m_a) == 0
    for r1, r2 in itertools.combinations(reps, 2):
        assert not are_isomorphic(r1, r2)


def test_companion_matrix_examples():
    f = Poly(QQ, [-2, 1])
    assert companion_matrix(f).rows == ((QQ.from_int(2),),)
    g = Poly(QQ, [1, -3, 1])
    mat = companion_matrix(g)
    assert mat.rows == (
        (QQ.from_int(0), QQ.from_int(-1)),
        (QQ.from_int(1), QQ.from_int(3)),
    )
    # the companion matrix is killed by its own polynomial
    assert mat.poly_eval(g).is_zero()


def test_ind0_enumeration():
    polys = ind0_polys(F2, 2)
    # x excluded; x+1 and its square, plus the irreducible quadratic
    assert Poly(F2, [1, 1]) in polys
    assert Poly(F2, [1, 0, 1]) in polys  # (x+1)^2
    assert Poly(F2, [1, 1, 1]) in polys
    assert Poly.x(F2) not in polys
    assert Poly(F2, [0, 1, 1]) not in polys  # divisible by x
    rational = ind0_polys(QQ, 2)
    assert Poly(QQ, [-2, 1]) in rational
    assert Poly(QQ, [1, 2, 1]) in rational  # (x+1)^2
    assert Poly(QQ, [0, 0, 1]) not in rational
    assert all(p.coeff(0) != QQ.zero() or p.degree == 0 for p in rational)


def test_q2_list_shapes():
    reps = q2_indecomposables(F2, max_string_len=4, max_poly_deg=1)
    labels = [r.label for r in reps]
    assert labels[:8] == ["S0", "S1", "S2", "S3", "M0", "M1", "M2", "M3"]
    assert sum(1 for l in labels if l.startswith("M(")) == 24
    assert sum(1 for l in labels if l.startswith("Mband")) == 2
    at_full = [r for r in reps if r.dim_vector() == (1, 1, 1, 1)]
    assert len(at_full) == 14
    for rep in reps:
        assert check_quiver_relations(rep)


def test_string_structure():
    rep = string_module(F2, 3, 0, 0)
    assert rep.dim_vector() == (1, 1, 1, 0)
    assert rep.arrows["a0"].rows == ((F2.one(),),)
    assert rep.arrows["b1"].rows == ((F2.one(),),)
    assert rep.arrows["a1"].is_zero()
    rep2 = string_module(F2, 2, 1, 0)
    assert rep2.arrows["b1"].rows == ((F2.one(),),)
    rep3 = string_module(F2, 2, 1, 1)
    assert rep3.arrows["a1"].rows == ((F2.one(),),)


def test_band_structure():
    f = Poly(QQ, [-2, 1])
    rep = band_module(QQ, f, 1)
    assert rep.arrows["b3"].rows == ((QQ.from_int(2),),)
    assert rep.arrows["a0"].is_identity()
    rep2 = band_module(QQ, f, 2)
    assert rep2.arrows["a3"].rows == ((QQ.from_int(2),),)


def test_pairwise_distinct_over_finite_field():
    reps = q2_indecomposables(F2, max_string_len=3, max_poly_deg=1)
    for r1, r2 in itertools.combinations(reps, 2):
        if r1.dim_vector() != r2.dim_vector():
            continue
        assert not are_isomorphic(r1, r2), (r1.label, r2.label)


def test_one_parameter_family_over_f4():
    # three distinct degree-one parameters give pairwise non-isomorphic bands
    polys = [f for f in ind0_polys(F4, 1)][:3]
    assert len(polys) == 3
    bands = [band_module(F4, f, 1) for f in polys]
    for b1, b2 in itertools.combinations(bands, 2):
        assert b1.dim_vector() == b2.dim_vector()
        assert not are_isomorphic(b1, b2)


def test_rational_fingerprints_distinguish_q1():
    reps = q1_indecomposables(QQ)
    prints = [rep_fingerprint(r) for r in reps]
    assert len(set(prints)) == 4


def test_oracle_q1_small():
    res = brute_force_indecomposables("q1", F2, {1: 1, 2: 1})
    assert res["relation_satisfying"] == 3
    assert res["indecomposable_count"] == 2
    assert brute_force_indecomposables("q1", F2, {1: 1, 2: 0})["indecomposable_count"] == 1
    assert brute_force_indecomposables("q1", F2, {1: 2, 2: 1})["indecomposable_count"] == 0
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_indecomposables("q1", F2, {1: 3, 2: 3}, budget=100)
    # 64 arrow tuples fit the budget; |GL(3) x GL(1)| = 168 and the zero
    # representation's End, 2**10, do not
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_indecomposables("q1", F2, {1: 3, 2: 1}, budget=100)
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_indecomposables("q1", QQ, {1: 1, 2: 1})


def test_unknown_vertex_or_negative_dimension_is_rejected():
    cases = [
        ("q1", {0: 1}, "no vertex 0"),
        ("q1", {1: 1, 2: 1, 3: 5}, "no vertex 3"),
        ("q1", {1: -1, 2: 1}, "negative dimension -1 at vertex 1"),
        ("q2", {0: 1, 3: -2}, "negative dimension -2 at vertex 3"),
    ]
    for quiver, dims, message in cases:
        with pytest.raises(ValueError, match=message):
            brute_force_indecomposables(quiver, F2, dims)
        with pytest.raises(ValueError, match=message):
            QuiverRep(quiver, F2, dims, {})


def test_unknown_arrow_name_is_rejected():
    with pytest.raises(ValueError, match="quiver q1 has no arrow 'A'"):
        QuiverRep("q1", F2, {1: 1, 2: 1}, {"A": Matrix.identity(F2, 1)})
    with pytest.raises(ValueError, match="quiver q2 has no arrow 'a4'"):
        QuiverRep("q2", F2, {0: 1, 1: 1}, {"a0": Matrix.identity(F2, 1), "a4": None})


def _reference_check_relations(rep):
    """The relations of q1 and q2 written out by hand: the reference for the
    table-driven check_quiver_relations."""
    A = rep.arrows
    if rep.quiver == "q1":
        return (A["a"] * A["b"]).is_zero() and (A["b"] * A["a"]).is_zero()
    for l in range(4):
        if not (A[f"a{l}"] * A[f"b{l}"]).is_zero():
            return False
        if not (A[f"b{l}"] * A[f"a{l}"]).is_zero():
            return False
    for l in range(4):
        lhs = A[f"a{(l + 1) % 4}"] * A[f"a{l}"]
        rhs = A[f"b{(l + 2) % 4}"] * A[f"b{(l + 3) % 4}"]
        if lhs != rhs:
            return False
    return True


# The q2 quiver data written out by hand: the references for the derived
# relations and the relabelling.
_reference_q2_relations = [(f"{x}{l}", f"{y}{l}") for l in range(4) for x, y in ("ab", "ba")]
_reference_q2_relations += [
    (f"a{(l + 1) % 4}", f"a{l}", f"b{(l + 2) % 4}", f"b{(l + 3) % 4}") for l in range(4)
]


# vertex labels of the four regions: base 0, raise i -> 3, raise j -> 1, both -> 2
def _reference_q2_vertex(delta, i, j):
    return {(0, 0): 0, (1, 0): 3, (0, 1): 1, (1, 1): 2}[(delta.get(i), delta.get(j))]


_reference_q2_arrow_of_crossing = {
    # (kind, bit at the other break index) -> arrow name, for break pair (i, j)
    ("a_i", 0): "b3",
    ("a_i", 1): "a1",
    ("b_i", 0): "a3",
    ("b_i", 1): "b1",
    ("a_j", 0): "a0",
    ("a_j", 1): "b2",
    ("b_j", 0): "b0",
    ("b_j", 1): "a2",
}


def _relation_set(relations):
    """Relations up to their order and the order of a square's two sides."""
    return {rel if len(rel) == 2 else frozenset((rel[:2], rel[2:])) for rel in relations}


def test_named_relations_are_the_reference_relations():
    assert len(QUIVER_RELATIONS["q1"]) == 2 and len(QUIVER_RELATIONS["q2"]) == 12
    assert _relation_set(QUIVER_RELATIONS["q1"]) == {("a", "b"), ("b", "a")}
    assert _relation_set(QUIVER_RELATIONS["q2"]) == _relation_set(_reference_q2_relations)


def test_relabelling_is_the_reference_relabelling():
    for i in (1, 3):
        assert _relabelling((i,))[:3] == (
            "q1",
            {ZERO: 1, ShiftVector.e(i): 2},
            {("a", ZERO, i): "a", ("b", ZERO, i): "b"},
        )
    for i, j in ((1, 2), (1, 3), (2, 5)):
        quiver, vertex, names, _ = _relabelling((i, j))
        assert quiver == "q2"
        assert len(vertex) == 4 and len(names) == 8
        for delta, v in vertex.items():
            assert v == _reference_q2_vertex(delta, i, j)
        for (letter, alpha, k), name in names.items():
            other = j if k == i else i
            kind = f"{letter}_{'i' if k == i else 'j'}"
            assert name == _reference_q2_arrow_of_crossing[(kind, alpha.get(other))]


def test_build_skeleton_relations_read_as_named_words():
    # each relation path, read one step at a time through the generator map
    half = Poly(QQ, [Fraction(-1, 2), 1])
    x = Poly.x(QQ)
    for gens, quiver in [
        ({1: x}, "q1"),
        ({1: half, 2: x}, "q1"),
        ({1: x, 2: x}, "q2"),
        ({1: x, 2: half, 3: x}, "q2"),
    ]:
        info = orbit_info(SepMaxIdeal(QQ, max(gens), gens))
        alg = build_skeleton(info)
        names = _relabelling(info.break_set)[2]
        by_step = {(p["start"], p["steps"]): names[key] for key, p in alg.gmap.items()}

        def word(path):
            out, gamma = (), path["start"]
            for kind, i in path["steps"]:
                out = (by_step[gamma, ((kind, i),)],) + out
                gamma = gamma.step(i, 1 if kind == "X" else -1)
            return out

        words = [sum((word(path) for path in rel[1:]), ()) for rel in alg.relations]
        assert _relation_set(words) == _relation_set(QUIVER_RELATIONS[quiver])


def _all_arrow_tuples(quiver, field, dims):
    _, layout = quiver_layout(quiver)
    names = sorted(layout)
    candidate_lists = [
        list(iter_matrices(field, dims[layout[n][1]], dims[layout[n][0]]))
        for n in names
    ]
    for combo in itertools.product(*candidate_lists):
        yield QuiverRep(quiver, field, dims, dict(zip(names, combo)))


def test_relation_table_agrees_with_reference():
    for quiver, field, dims in [
        ("q1", F2, {1: 2, 2: 1}),
        ("q1", F3, {1: 1, 2: 1}),
        ("q2", F2, {0: 1, 1: 1, 2: 1, 3: 1}),
        ("q2", F3, {0: 1, 1: 1, 2: 1, 3: 0}),
    ]:
        verdicts = set()
        for rep in _all_arrow_tuples(quiver, field, dims):
            verdict = _reference_check_relations(rep)
            assert check_quiver_relations(rep) == verdict, rep.encoding()
            verdicts.add(verdict)
        assert verdicts == {True, False}
    # the pruned enumeration counts exactly the tuples a plain product keeps
    for quiver, field, dims in [
        ("q1", F2, {1: 3, 2: 2}),
        ("q2", F3, {0: 1, 1: 1, 2: 1, 3: 1}),
    ]:
        plain = sum(
            _reference_check_relations(rep)
            for rep in _all_arrow_tuples(quiver, field, dims)
        )
        res = brute_force_indecomposables(quiver, field, dims)
        assert res["relation_satisfying"] == plain


def _iter_invertible(field, n):
    """Every invertible n x n matrix over a finite field with its inverse."""
    for m in iter_matrices(field, n, n):
        inv = m.inverse()
        if inv is not None:
            yield m, inv


def _reference_classes(quiver, field, dims):
    """Relation-satisfying count and class representatives, found by applying
    every element of the base-change group to each new representation: the
    exhaustive reference for the oracle's generator orbits."""
    vertices, layout = quiver_layout(quiver)
    names = sorted(layout)
    candidate_lists = [
        list(iter_matrices(field, dims[layout[n][1]], dims[layout[n][0]]))
        for n in names
    ]
    satisfying = []
    for combo in itertools.product(*candidate_lists):
        rep = QuiverRep(quiver, field, dims, dict(zip(names, combo)))
        if check_quiver_relations(rep):
            satisfying.append(rep)
    gl_lists = None
    seen = set()
    classes = []
    for rep in satisfying:
        if rep.encoding() in seen:
            continue
        if all(m.is_zero() for m in rep.arrows.values()):
            seen.add(rep.encoding())
            classes.append(rep)
            continue
        if gl_lists is None:
            gl_lists = [list(_iter_invertible(field, dims[v])) for v in vertices]
        orbit = set()
        best = None
        for combo in itertools.product(*gl_lists):
            g = dict(zip(vertices, combo))
            moved = {
                n: g[layout[n][1]][0] * rep.arrows[n] * g[layout[n][0]][1]
                for n in names
            }
            twisted = QuiverRep(quiver, field, dims, moved)
            code = twisted.encoding()
            orbit.add(code)
            if best is None or code < best[0]:
                best = (code, twisted)
        seen.update(orbit)
        classes.append(best[1])
    return len(satisfying), classes


def _oracle_vectors():
    """The 93 dimension vectors on which the oracle is checked against the
    exhaustive references."""
    vectors = [
        (quiver, field, dict(zip(vertices, d)))
        for quiver in ("q1", "q2")
        for vertices in [quiver_layout(quiver)[0]]
        for field in (F2, F3)
        for d in itertools.product(range(4), repeat=len(vertices))
        if sum(d) <= 3
    ]
    vectors += [
        ("q2", F3, {0: 1, 1: 0, 2: 2, 3: 1}),
        ("q2", F2, {0: 0, 1: 0, 2: 1, 3: 3}),
        ("q1", F2, {1: 2, 2: 2}),
    ]
    return vectors


def _assert_oracle_matches_reference(quiver, field, dims):
    res = brute_force_indecomposables(quiver, field, dims)
    satisfying, classes = _reference_classes(quiver, field, dims)
    indecomposables = sorted(
        rep.encoding() for rep in classes if is_indecomposable_rep(rep)
    )
    assert res["relation_satisfying"] == satisfying
    assert res["classes"] == len(classes)
    assert res["indecomposable_count"] == len(indecomposables)
    assert [r.encoding() for r in res["representatives"]] == indecomposables


def test_oracle_orbits_agree_with_gl_enumeration():
    vectors = _oracle_vectors()
    assert len(vectors) == 93
    for quiver, field, dims in vectors:
        _assert_oracle_matches_reference(quiver, field, dims)


def test_oracle_agrees_with_gl_enumeration_over_tower():
    # GF(4) has a diagonal generator (c = x, x + 1), which GF(2) lacks, and a
    # tower's elements are not interned, so positions are looked up by value
    for quiver, dims in [
        ("q1", (1, 1)),
        ("q1", (2, 1)),
        ("q2", (1, 1, 0, 0)),
        ("q2", (1, 1, 1, 0)),
        ("q2", (1, 0, 1, 0)),
    ]:
        vertices, _ = quiver_layout(quiver)
        _assert_oracle_matches_reference(quiver, F4, dict(zip(vertices, dims)))


def _reference_iter_satisfying(quiver, field, dims):
    """Every relation-satisfying arrow tuple as name -> Matrix: the filter the
    index-coded enumeration replaced, kept as its reference.  Arrows are chosen
    depth first in layout order, and a partial tuple is dropped as soon as a
    relation among its chosen arrows fails."""
    _, layout = quiver_layout(quiver)
    names = list(layout)
    due = {name: [] for name in names}  # each relation under its last arrow
    for rel in QUIVER_RELATIONS[quiver]:
        due[max(rel, key=names.index)].append(rel)
    cands = {n: list(iter_matrices(field, dims[t], dims[s])) for n, (s, t) in layout.items()}
    chosen, stack = {}, [iter(cands[names[0]])]
    while stack:
        name = names[len(stack) - 1]
        chosen[name] = next(stack[-1], None)
        if chosen[name] is None:
            stack.pop()
        elif all(relation_holds(chosen, rel) for rel in due[name]):
            if len(stack) == len(names):
                yield dict(chosen)
            else:
                stack.append(iter(cands[names[len(stack)]]))


def test_index_enumeration_matches_reference_filter():
    for quiver, field, dims in _oracle_vectors():
        _, layout = quiver_layout(quiver)
        names = sorted(layout)
        cands = {
            n: list(iter_matrices(field, dims[t], dims[s])) for n, (s, t) in layout.items()
        }
        decoded = [
            tuple(cands[n][i] for n, i in zip(names, code))
            for code in _iter_satisfying(quiver, cands)
        ]
        expected = {
            tuple(arrows[n] for n in names)
            for arrows in _reference_iter_satisfying(quiver, field, dims)
        }
        assert len(decoded) == len(set(decoded))
        assert set(decoded) == expected, (quiver, field, dims)


def test_iter_matrices_lists_in_encoding_order():
    # the oracle's least index tuple is its least encoding because of this
    for field in (F2, F3, F4):
        for nrows, ncols in itertools.product(range(3), repeat=2):
            codes = [m.encoding() for m in iter_matrices(field, nrows, ncols)]
            assert len(codes) == field.order() ** (nrows * ncols)
            assert codes == sorted(set(codes))


def test_oracle_q2_spotcheck():
    # at (1,1,0,0) the only indecomposables are the two length-2 strings
    res = brute_force_indecomposables("q2", F2, {0: 1, 1: 1, 2: 0, 3: 0})
    assert res["relation_satisfying"] == 3
    assert res["indecomposable_count"] == 2
    listed = [
        r
        for r in q2_indecomposables(F2, 4, 1)
        if r.dim_vector() == (1, 1, 0, 0)
    ]
    assert len(listed) == 2


def test_indecomposability_of_listed_reps():
    for rep in q1_indecomposables(F2):
        assert is_indecomposable_rep(rep)
    s0 = q2_indecomposables(F2, 2, 1)[0]
    assert is_indecomposable_rep(s0)
    # a decomposable: S1 + S2 as one representation
    pair = QuiverRep("q1", F2, {1: 1, 2: 1}, {})
    assert not is_indecomposable_rep(pair)


def test_order1_modules():
    info = order1_info()
    window = make_window(info, radius=3)
    mods = build_order1_modules(info, window)
    assert [label for label, _ in mods] == [
        "S(base)",
        "S(raised)",
        "M(raise)",
        "M(lower)",
    ]
    for _, module in mods:
        assert verify_relations(module).ok
    raise_mod = dict(mods)["M(raise)"]
    lower_mod = dict(mods)["M(lower)"]
    one = raise_mod.field.one()
    # both glued modules are generated from one weight, and are not simple
    assert submodule_closure(raise_mod, [(ZERO, (one,))])["full"]
    assert not submodule_closure(raise_mod, [(ShiftVector.e(1), (one,))])["full"]
    assert not is_simple_finite(raise_mod)
    assert is_indecomposable_finite(raise_mod)
    assert submodule_closure(lower_mod, [(ShiftVector.e(1), (one,))])["full"]
    assert not is_simple_finite(lower_mod)
    # quiver readback identifies the glued modules
    assert weight_module_to_rep(raise_mod).arrows["a"].is_identity()
    assert weight_module_to_rep(raise_mod).arrows["b"].is_zero()
    assert weight_module_to_rep(lower_mod).arrows["a"].is_zero()
    assert weight_module_to_rep(lower_mod).arrows["b"].is_identity()
    with pytest.raises(WrongBreakOrder):
        build_order1_modules(order2_info())


def test_order2_modules_and_roundtrip():
    info = order2_info()
    window = make_window(info, radius=2)
    reps = q2_indecomposables(QQ, max_string_len=3, max_poly_deg=1)
    for rep in reps:
        module = build_order2_module(info, rep, window)
        assert verify_relations(module).ok
        back = weight_module_to_rep(module)
        assert back.dims == rep.dims and back.arrows == rep.arrows
    with pytest.raises(WrongBreakOrder):
        build_order2_module(order1_info(), reps[0], window)


def test_order2_simple_matches_region():
    info = order2_info()
    window = make_window(info, radius=2)
    s0 = [r for r in q2_indecomposables(QQ, 2, 1) if r.label == "S0"][0]
    module = build_order2_module(info, s0, window)
    support = {g for g in window if module.dim(g) > 0}
    assert support == {g for g in window if g.get(1) <= 0 and g.get(2) <= 0}
    assert module.x(1, ZERO).is_zero() and module.x(2, ZERO).is_zero()
    assert structural_simplicity_certificate(module)


def test_indecomposability_refuses_a_window_that_misses_a_region():
    # S0 + S1 with zero arrows is decomposable; a window over index 1 alone
    # misses the region of S1 and sees an indecomposable part
    info = order2_info()
    pair = QuiverRep("q2", QQ, {0: 1, 1: 1}, {})
    assert not is_indecomposable_finite(build_order2_module(info, pair))
    partial = build_order2_module(info, pair, make_window(info, 2, indices=[1]))
    with pytest.raises(InfiniteDimension):
        is_indecomposable_finite(partial)
    for index in (1, 2):
        window = make_window(info, 1, indices=[index])
        for rep in q2_indecomposables(QQ, 3)[::5]:
            with pytest.raises(InfiniteDimension):
                is_indecomposable_finite(build_order2_module(info, rep, window))


def test_oracle_q1_over_f3():
    res = brute_force_indecomposables("q1", F3, {1: 1, 2: 1})
    assert res["relation_satisfying"] == 5
    assert res["indecomposable_count"] == 2


def test_relation_violation_rejected():
    bad = QuiverRep(
        "q1",
        F2,
        {1: 1, 2: 1},
        {"a": Matrix.identity(F2, 1), "b": Matrix.identity(F2, 1)},
    )
    with pytest.raises(RelationViolation):
        rep_to_weight_module(bad, order1_info(), make_window(order1_info(), radius=2))
