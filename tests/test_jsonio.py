import json
from fractions import Fraction

import pytest

from weylmod import jsonio
from weylmod.errors import SchemaError
from weylmod.fields import GF, QQ, Poly, extend
from weylmod.indecomp import q1_indecomposables, q2_indecomposables
from weylmod.orbits import SepMaxIdeal, ShiftVector, make_window, orbit_info
from weylmod.simples import build_S_O_p, build_S_char_p, classify_simples

F2 = GF(2)
F4 = extend(F2, Poly(F2, [1, 1, 1]))


def test_field_round_trip():
    for desc in (QQ, F2, GF(7), F4, extend(F4, Poly(F4, [F4.gen(), F4.one(), F4.one()]))):
        encoded = jsonio.field_to_json(desc)
        assert jsonio.field_from_json(json.loads(jsonio.dumps(encoded))) == desc


def test_elem_round_trip():
    cases = [
        QQ.from_fraction(Fraction(-3, 7)),
        GF(5).from_int(3),
        F4.gen(),
        F4.zero(),
    ]
    for e in cases:
        assert jsonio.elem_from_json(e.field, jsonio.elem_to_json(e)) == e
    assert jsonio.elem_to_json(QQ.from_int(3)) == "3/1"


def test_shift_vector_keys():
    sv = ShiftVector({1: 3, 4: -2})
    assert jsonio.shift_key(sv) == "1:3,4:-2"
    assert jsonio.shift_from_key("1:3,4:-2") == sv
    assert jsonio.shift_from_key("") == ShiftVector()
    assert jsonio.shift_from_json(jsonio.shift_to_json(sv)) == sv


def test_ideal_round_trip():
    ideal = SepMaxIdeal(
        QQ, "inf", {2: Poly.x(QQ)}, Poly(QQ, [Fraction(-1, 2), 1])
    )
    again = jsonio.ideal_from_json(json.loads(jsonio.dumps(jsonio.ideal_to_json(ideal))))
    assert again == ideal


def test_module_round_trip_char0():
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    module = build_S_O_p(info, ShiftVector({1: 1}), make_window(info, radius=2))
    encoded = json.loads(jsonio.dumps(jsonio.module_to_json(module)))
    again = jsonio.module_from_json(encoded)
    assert again == module


def test_module_round_trip_charp():
    info = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
    field = info.residue.desc
    module = build_S_char_p(
        info,
        classify_simples(info)[0],
        Poly(field, [field.one(), field.one(), field.zero(), field.one()]),
    )
    again = jsonio.module_from_json(json.loads(jsonio.dumps(jsonio.module_to_json(module))))
    assert again == module


def test_rep_round_trip():
    for rep in q1_indecomposables(F2) + q2_indecomposables(F2, 3, 1):
        again = jsonio.rep_from_json(json.loads(jsonio.dumps(jsonio.rep_to_json(rep))))
        assert again == rep


def test_schema_errors():
    with pytest.raises(SchemaError):
        jsonio.field_from_json({"kind": "R"})
    with pytest.raises(SchemaError):
        jsonio.ideal_from_json({"field": {"kind": "Q"}})
    with pytest.raises(SchemaError):
        jsonio.shift_from_key("oops")
    with pytest.raises(SchemaError):
        jsonio.poly_from_json(QQ, "nope")


def _module_json_char0():
    info = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
    module = build_S_O_p(info, ShiftVector({1: 1}), make_window(info, radius=1))
    return json.loads(jsonio.dumps(jsonio.module_to_json(module)))


def _with(data, path, value):
    data = json.loads(json.dumps(data))
    cell = data
    for key in path[:-1]:
        cell = cell[key]
    assert path[-1] in cell
    cell[path[-1]] = value
    return data


REP = jsonio.rep_to_json(q1_indecomposables(F2)[0])
IDEAL = {"field": {"kind": "Q"}, "arity": 1, "generators": {"1": ["-1/2", "1/1"]}}


@pytest.mark.parametrize(
    "parse",
    [
        lambda: jsonio.elem_from_json(QQ, 0.5),
        lambda: jsonio.elem_from_json(GF(5), 2.7),
        lambda: jsonio.elem_from_json(GF(5), True),
        lambda: jsonio.elem_from_json(F4, [0, 1.0]),
        lambda: jsonio.shift_from_json({"1": 1.5}),
        lambda: jsonio.rep_from_json(_with(REP, ["dims", "1"], 1.0)),
        lambda: jsonio.field_from_json({"kind": "GF", "p": 2.0}),
        lambda: jsonio.ideal_from_json(_with(IDEAL, ["arity"], True)),
        lambda: jsonio.module_from_json(_with(_module_json_char0(), ["box", "radius"], 1.0)),
        lambda: jsonio.module_from_json(_with(_module_json_char0(), ["spaces", "1:1"], 1.0)),
        lambda: jsonio.module_from_json(_with(_module_json_char0(), ["box", "indices"], [1.9, 2.5])),
        lambda: jsonio.module_from_json(_with(_module_json_char0(), ["box", "indices"], [True, 2])),
        lambda: jsonio.module_from_json(_with(_module_json_char0(), ["box", "indices"], None)),
    ],
    ids=[
        "Q-float", "GF-float", "GF-bool", "Ext-float", "shift-float", "rep-dims-float",
        "field-p-float", "arity-bool", "module-radius-float", "module-spaces-float",
        "module-indices-float", "module-indices-bool", "module-indices-null",
    ],
)
def test_non_integer_numbers_are_schema_errors(parse):
    with pytest.raises(SchemaError):
        parse()


def test_integer_strings_and_inf_arity_still_parse():
    assert jsonio.elem_from_json(GF(5), "3") == GF(5).from_int(3)
    assert jsonio.shift_from_json({"1": "-2"}) == ShiftVector({1: -2})
    ideal = {
        "field": {"kind": "Q"},
        "arity": "inf",
        "generators": {},
        "default": ["-1/2", "1/1"],
    }
    assert jsonio.ideal_from_json(ideal).arity == "inf"


def test_oversized_extension_element_is_a_schema_error():
    assert jsonio.elem_from_json(F4, [1, 1]) == F4.gen() + F4.one()
    assert jsonio.elem_from_json(F4, [1, 0]) == F4.one()
    with pytest.raises(SchemaError):
        jsonio.elem_from_json(F4, [0, 0, 1])
