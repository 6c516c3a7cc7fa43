import json
import time

import pytest

from weylmod.cli import main

IDEAL_BREAK2 = {
    "schema": "weylmod/1",
    "type": "ideal",
    "field": {"kind": "Q"},
    "arity": 2,
    "generators": {"1": ["0/1", "1/1"], "2": ["0/1", "1/1"]},
}

IDEAL_STABLE_F2 = {
    "schema": "weylmod/1",
    "type": "ideal",
    "field": {"kind": "GF", "p": 2},
    "arity": 1,
    "generators": {"1": [1, 1, 1]},
}

IDEAL_NONDEG = {
    "schema": "weylmod/1",
    "type": "ideal",
    "field": {"kind": "Q"},
    "arity": 1,
    "generators": {"1": ["-1/2", "1/1"]},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_block_classify_exact_output(tmp_path, capsys):
    path = write(tmp_path, "ideal.json", IDEAL_BREAK2)
    code, out = run(capsys, "block", "classify", path)
    assert code == 0
    assert (
        out
        == '{"reason":"Thm 7.10(i): maximal break of order 2","schema":"weylmod/1","type":"tame"}\n'
    )


def test_orbit_info_output(tmp_path, capsys):
    path = write(tmp_path, "ideal.json", IDEAL_NONDEG)
    code, out = run(capsys, "orbit", "info", path)
    assert code == 0
    data = json.loads(out)
    assert data["degenerate"] is False
    assert data["skeleton"] == [{}]
    assert data["kind"] == "linear"


def test_determinism(tmp_path, capsys):
    path = write(tmp_path, "ideal.json", IDEAL_BREAK2)
    _, out1 = run(capsys, "orbit", "info", path)
    _, out2 = run(capsys, "orbit", "info", path)
    assert out1 == out2


def test_simples_build_dimension_six(tmp_path, capsys):
    path = write(tmp_path, "ideal.json", IDEAL_STABLE_F2)
    code, out = run(
        capsys, "simples", "build", path, "--which", "0", "--N", "[[1],[1],[],[1]]"
    )
    assert code == 0
    module = json.loads(out)
    assert module["type"] == "module"
    assert sum(module["spaces"].values()) * 2 == 6  # residue degree 2 over GF(2)


def test_module_verify_roundtrip(tmp_path, capsys):
    ideal = write(tmp_path, "ideal.json", IDEAL_STABLE_F2)
    code, out = run(
        capsys, "simples", "build", ideal, "--which", "0", "--N", "[[1],[1],[],[1]]"
    )
    assert code == 0
    module_path = tmp_path / "module.json"
    module_path.write_text(out)
    code, out = run(capsys, "module", "verify", str(module_path))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    code, out = run(capsys, "module", "simple-check", str(module_path))
    assert code == 0
    assert json.loads(out) == {"kdim": 6, "schema": "weylmod/1", "simple": True}
    code, out = run(capsys, "module", "indec-check", str(module_path))
    assert code == 0
    assert json.loads(out)["indecomposable"] is True


def test_module_json_reparse_equal(tmp_path, capsys):
    from weylmod import jsonio

    ideal = write(tmp_path, "ideal.json", IDEAL_BREAK2)
    code, out = run(capsys, "indecomp", "list", ideal, "--max-string", "2", "--max-poly-deg", "1")
    assert code == 0
    data = json.loads(out)
    rep = jsonio.rep_from_json(data["indecomposables"][4])
    assert jsonio.dumps(jsonio.rep_to_json(rep)) == jsonio.dumps(data["indecomposables"][4])


def test_indecomp_build(tmp_path, capsys):
    ideal = write(tmp_path, "ideal.json", IDEAL_BREAK2)
    code, out = run(capsys, "indecomp", "list", ideal, "--max-string", "2", "--max-poly-deg", "1")
    data = json.loads(out)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(data["indecomposables"][0]))
    code, out = run(capsys, "indecomp", "build", ideal, "--rep", str(rep_path), "--window", "2")
    assert code == 0
    module = json.loads(out)
    module_path = tmp_path / "module.json"
    module_path.write_text(out)
    code, out = run(capsys, "module", "verify", str(module_path))
    assert json.loads(out)["ok"] is True


IDEAL_BREAK1 = {
    "schema": "weylmod/1",
    "type": "ideal",
    "field": {"kind": "Q"},
    "arity": 1,
    "generators": {"1": ["0/1", "1/1"]},
}

# the exact stdout of `indecomp build` for the q1 module M_a and for the q2
# band of parameter t + 2 (variant 2), on radius-1 windows
INDECOMP_BUILD_Q1_M_A = (
    '{"box":{"indices":[1],"kind":"box","radius":1},"d":{"1":{"":[["-1/1"]],'
    '"1:-1":"out","1:1":[["0/1"]]}},"orbit":{"arity":1,"field":{"kind":"Q"},'
    '"generators":{"1":["0/1","1/1"]},"schema":"weylmod/1","type":"ideal"},'
    '"schema":"weylmod/1","spaces":{"":1,"1:-1":1,"1:1":1},"type":"module",'
    '"window":["","1:-1","1:1"],"x":{"1":{"":[["1/1"]],"1:-1":[["1/1"]],'
    '"1:1":"out"}}}\n'
)
INDECOMP_BUILD_Q2_BAND = (
    '{"box":{"indices":[1,2],"kind":"box","radius":1},"d":{"1":{"":[["-1/1"]],'
    '"1:-1":"out","1:-1,2:-1":"out","1:-1,2:1":"out","1:1":[["-2/1"]],"1:1,'
    '2:-1":[["-2/1"]],"1:1,2:1":[["0/1"]],"2:-1":[["-1/1"]],"2:1":[["-1/1"]]},'
    '"2":{"":[["-1/1"]],"1:-1":[["-1/1"]],"1:-1,2:-1":"out","1:-1,2:1":[["1/1"]],'
    '"1:1":[["-1/1"]],"1:1,2:-1":"out","1:1,2:1":[["0/1"]],"2:-1":"out",'
    '"2:1":[["1/1"]]}},"orbit":{"arity":2,"field":{"kind":"Q"},'
    '"generators":{"1":["0/1","1/1"],"2":["0/1","1/1"]},"schema":"weylmod/1",'
    '"type":"ideal"},"schema":"weylmod/1","spaces":{"":1,"1:-1":1,"1:-1,2:-1":1,'
    '"1:-1,2:1":1,"1:1":1,"1:1,2:-1":1,"1:1,2:1":1,"2:-1":1,"2:1":1},'
    '"type":"module","window":["","1:-1","1:-1,2:-1","1:-1,2:1","1:1","1:1,2:-1",'
    '"1:1,2:1","2:-1","2:1"],"x":{"1":{"":[["0/1"]],"1:-1":[["1/1"]],"1:-1,'
    '2:-1":[["1/1"]],"1:-1,2:1":[["1/1"]],"1:1":"out","1:1,2:-1":"out","1:1,'
    '2:1":"out","2:-1":[["0/1"]],"2:1":[["1/1"]]},"2":{"":[["0/1"]],'
    '"1:-1":[["0/1"]],"1:-1,2:-1":[["1/1"]],"1:-1,2:1":"out","1:1":[["1/1"]],'
    '"1:1,2:-1":[["1/1"]],"1:1,2:1":"out","2:-1":[["1/1"]],"2:1":"out"}}}\n'
)


@pytest.mark.parametrize(
    "ideal,list_args,pick,expected",
    [
        (IDEAL_BREAK1, (), 2, INDECOMP_BUILD_Q1_M_A),
        (IDEAL_BREAK2, ("--max-string", "2", "--max-poly-deg", "1"), -1, INDECOMP_BUILD_Q2_BAND),
    ],
)
def test_indecomp_build_exact_output(tmp_path, capsys, ideal, list_args, pick, expected):
    path = write(tmp_path, "ideal.json", ideal)
    code, out = run(capsys, "indecomp", "list", path, *list_args)
    rep_path = write(tmp_path, "rep.json", json.loads(out)["indecomposables"][pick])
    code, out = run(capsys, "indecomp", "build", path, "--rep", rep_path, "--window", "1")
    assert code == 0
    assert out == expected


def test_unknown_arrow_in_rep_is_a_schema_error(tmp_path, capsys):
    ideal = write(tmp_path, "ideal.json", IDEAL_BREAK2)
    code, out = run(capsys, "indecomp", "list", ideal, "--max-string", "2", "--max-poly-deg", "1")
    rep = json.loads(out)["indecomposables"][4]
    rep["arrows"]["A"] = rep["arrows"].pop("a0")
    rep_path = write(tmp_path, "rep.json", rep)
    code, out = run(capsys, "indecomp", "build", ideal, "--rep", rep_path, "--window", "2")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["name"] == "SchemaError"
    assert "no arrow 'A'" in error["message"]


def test_oracle_enumerate(capsys):
    code, out = run(
        capsys, "oracle", "enumerate", "--quiver", "q1", "--field", "gf2", "--dims", "1,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["indecomposable_count"] == 2
    assert len(data["representatives"]) == 2


# the exact stdout of `oracle enumerate` on two vectors; a faster oracle must
# print the same bytes
ENUMERATE_Q2_GF2_1111 = (
    '{"classes":39,"dims":[1,1,1,1],"indecomposable_count":14,"quiver":"q2",'
    '"relation_satisfying":39,"representatives":['
    '{"arrows":{"a0":[[0]],"a1":[[0]],"a2":[[0]],"a3":[[1]],"b0":[[1]],"b1":[[0]],'
    '"b2":[[1]],"b3":[[0]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[0]],"a1":[[0]],"a2":[[1]],"a3":[[0]],"b0":[[0]],"b1":[[1]],'
    '"b2":[[0]],"b3":[[1]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[0]],"a1":[[0]],"a2":[[1]],"a3":[[1]],"b0":[[1]],"b1":[[1]],'
    '"b2":[[0]],"b3":[[0]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[0]],"a1":[[1]],"a2":[[0]],"a3":[[0]],"b0":[[1]],"b1":[[0]],'
    '"b2":[[1]],"b3":[[0]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[0]],"a1":[[1]],"a2":[[0]],"a3":[[1]],"b0":[[0]],"b1":[[0]],'
    '"b2":[[1]],"b3":[[0]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[0]],"a1":[[1]],"a2":[[0]],"a3":[[1]],"b0":[[1]],"b1":[[0]],'
    '"b2":[[0]],"b3":[[0]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[0]],"a1":[[1]],"a2":[[0]],"a3":[[1]],"b0":[[1]],"b1":[[0]],'
    '"b2":[[1]],"b3":[[0]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[0]],"a1":[[1]],"a2":[[1]],"a3":[[0]],"b0":[[1]],"b1":[[0]],'
    '"b2":[[0]],"b3":[[1]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[1]],"a1":[[0]],"a2":[[0]],"a3":[[0]],"b0":[[0]],"b1":[[1]],'
    '"b2":[[0]],"b3":[[1]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[1]],"a1":[[0]],"a2":[[0]],"a3":[[1]],"b0":[[0]],"b1":[[1]],'
    '"b2":[[1]],"b3":[[0]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[1]],"a1":[[0]],"a2":[[1]],"a3":[[0]],"b0":[[0]],"b1":[[0]],'
    '"b2":[[0]],"b3":[[1]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[1]],"a1":[[0]],"a2":[[1]],"a3":[[0]],"b0":[[0]],"b1":[[1]],'
    '"b2":[[0]],"b3":[[0]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[1]],"a1":[[0]],"a2":[[1]],"a3":[[0]],"b0":[[0]],"b1":[[1]],'
    '"b2":[[0]],"b3":[[1]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"},'
    '{"arrows":{"a0":[[1]],"a1":[[1]],"a2":[[0]],"a3":[[0]],"b0":[[0]],"b1":[[0]],'
    '"b2":[[1]],"b3":[[1]]},"dims":{"0":1,"1":1,"2":1,"3":1},"field":{"kind":"GF",'
    '"p":2},"label":"","quiver":"q2","schema":"weylmod/1","type":"quiver_rep"}],'
    '"schema":"weylmod/1"}\n'
)
ENUMERATE_Q1_GF3_21 = (
    '{"classes":3,"dims":[2,1],"indecomposable_count":0,"quiver":"q1",'
    '"relation_satisfying":17,"representatives":[],"schema":"weylmod/1"}\n'
)


@pytest.mark.parametrize(
    "quiver,field,dims,expected",
    [
        ("q2", "gf2", "1,1,1,1", ENUMERATE_Q2_GF2_1111),
        ("q1", "gf3", "2,1", ENUMERATE_Q1_GF3_21),
    ],
)
def test_oracle_enumerate_exact_output(capsys, quiver, field, dims, expected):
    code, out = run(
        capsys, "oracle", "enumerate", "--quiver", quiver, "--field", field, "--dims", dims
    )
    assert code == 0
    assert out == expected


IDEAL_WILD_F2 = {
    "field": {"kind": "GF", "p": 2},
    "arity": 2,
    "generators": {"1": [1, 1, 1], "2": [1, 1]},
}
IDEAL_BREAK3 = {
    "field": {"kind": "Q"},
    "arity": 3,
    "generators": {str(i): ["0/1", "1/1"] for i in (1, 2, 3)},
}


@pytest.mark.parametrize(
    "ideal,expected",
    [
        (
            IDEAL_STABLE_F2,
            '{"block":"tame","indecomposables":"deferred: tame in characteristic p, '
            'no list is emitted","reason":"Thm 7.10(ii): n = 1","schema":"weylmod/1"}\n',
        ),
        (
            IDEAL_WILD_F2,
            '{"block":"wild","indecomposables":"wild: no list is emitted",'
            '"reason":"Thm 7.10(ii): n = 2","schema":"weylmod/1"}\n',
        ),
        (
            IDEAL_BREAK3,
            '{"block":"wild","indecomposables":"wild: no list is emitted",'
            '"reason":"Thm 7.10(i): maximal break of order 3","schema":"weylmod/1"}\n',
        ),
    ],
)
def test_indecomp_list_without_a_list_says_why(tmp_path, capsys, ideal, expected):
    # the text agrees with the block type: a tame block in characteristic p is
    # deferred, a wild block is wild
    code, out = run(capsys, "indecomp", "list", write(tmp_path, "ideal.json", ideal))
    assert code == 0
    assert out == expected


def test_skeleton_show(tmp_path, capsys):
    path = write(tmp_path, "ideal.json", IDEAL_STABLE_F2)
    code, out = run(capsys, "skeleton", "show", path)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "B"
    assert data["tau"] == {"1": "sigma"}
    assert data["generator_map"][0]["steps"] == [["X", 1]]


# the exact stdout of `skeleton show` on the order-2 ideal over Q
SKELETON_SHOW_BREAK2 = (
    '{"break_set":[1,2],"field":{"kind":"Q"},"generator_map":[{"generator":"a",'
    '"index":1,"object":{},"start":{},"steps":[["X",1]]},{"generator":"a",'
    '"index":2,"object":{},"start":{},"steps":[["X",2]]},{"generator":"a",'
    '"index":2,"object":{"1":1},"start":{"1":1},"steps":[["X",2]]},'
    '{"generator":"a","index":1,"object":{"2":1},"start":{"2":1},"steps":[["X",'
    '1]]},{"generator":"b","index":1,"object":{},"start":{"1":1},"steps":[["Y",'
    '1]]},{"generator":"b","index":2,"object":{},"start":{"2":1},"steps":[["Y",'
    '2]]},{"generator":"b","index":2,"object":{"1":1},"start":{"1":1,"2":1},'
    '"steps":[["Y",2]]},{"generator":"b","index":1,"object":{"2":1},'
    '"start":{"1":1,"2":1},"steps":[["Y",1]]}],"kind":"A","linear":true,'
    '"nonbreak_set":[],"objects":[{},{"1":1},{"1":1,"2":1},{"2":1}],'
    '"schema":"weylmod/1","tau":{"1":"one","2":"one"}}\n'
)


def test_skeleton_show_exact_output_char0(tmp_path, capsys):
    code, out = run(capsys, "skeleton", "show", write(tmp_path, "ideal.json", IDEAL_BREAK2))
    assert code == 0
    assert out == SKELETON_SHOW_BREAK2


def test_indec_check_refuses_a_window_that_misses_a_region(tmp_path, capsys):
    from weylmod import jsonio
    from weylmod.indecomp import QuiverRep, build_order2_module
    from weylmod.orbits import make_window, orbit_info

    info = orbit_info(jsonio.ideal_from_json(IDEAL_BREAK2))
    pair = QuiverRep("q2", info.residue.desc, {0: 1, 1: 1}, {})  # S0 + S1
    module = build_order2_module(info, pair, make_window(info, 2, indices=[1]))
    path = write(tmp_path, "module.json", jsonio.module_to_json(module))
    code, out = run(capsys, "module", "indec-check", path)
    assert code == 1
    assert json.loads(out)["error"]["name"] == "InfiniteDimension"


def _radius0_module_json():
    from weylmod import jsonio
    from weylmod.orbits import make_window, orbit_info
    from weylmod.simples import build_S_O

    info = orbit_info(jsonio.ideal_from_json(IDEAL_NONDEG))
    return jsonio.module_to_json(build_S_O(info, make_window(info, radius=0)))


@pytest.mark.parametrize(
    "spaces,command",
    [
        ({"": -3}, "simple-check"),
        ({"": -3}, "verify"),
        ({"": 1, "1:5": 7}, "indec-check"),  # a space outside the radius-0 window
    ],
)
def test_negative_or_off_window_space_is_a_schema_error(tmp_path, capsys, spaces, command):
    module = _radius0_module_json()
    assert module["spaces"] == {"": 1}
    module["spaces"] = spaces
    code, out = run(capsys, "module", command, write(tmp_path, "module.json", module))
    assert code == 2
    assert json.loads(out)["error"]["name"] == "SchemaError"


@pytest.mark.parametrize(
    "key,cell,code,name,message",
    [
        ("", "out", 1, "RelationViolation", "in-window transition at 0 index 1 tagged out"),
        ("1:1", [[1]], 2, "SchemaError", "matrix shape 1x1 does not match expected 0x1"),
        (
            "1:1", [], 1, "RelationViolation",
            "transition at 1:1 index 1 should be tagged out-of-window",
        ),
    ],
)
def test_a_misplaced_out_tag_is_refused(tmp_path, capsys, key, cell, code, name, message):
    # "out" marks exactly the steps that leave the window: here the raising
    # step from 1:1, the top of the radius-1 window of the q1 module M_a
    module = json.loads(INDECOMP_BUILD_Q1_M_A)
    module["x"]["1"][key] = cell
    path = write(tmp_path, "module.json", module)
    expected = json.dumps(
        {"error": {"message": message, "name": name}}, separators=(",", ":")
    ) + "\n"
    for command in ("verify", "simple-check", "indec-check"):
        assert run(capsys, "module", command, path) == (code, expected)


def test_heisenberg_commands(capsys):
    code, out = run(
        capsys, "heisenberg", "graded-dim", "--degree", "0", "--len", "2", "--bound", "2"
    )
    assert code == 0
    assert json.loads(out)["count"] == 3
    code, out = run(capsys, "heisenberg", "check", "--radius", "1", "--indices", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_domain_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "ideal.json", IDEAL_STABLE_F2)
    # (c+1)^2 is not maximal: domain error, exit 1
    code, out = run(
        capsys, "simples", "build", path, "--which", "0", "--N", "[[1],[],[1]]"
    )
    assert code == 1
    assert json.loads(out)["error"]["name"] == "NotMaximal"


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "orbit", "info", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["name"] == "SchemaError"
    missing = tmp_path / "missing.json"
    code, out = run(capsys, "orbit", "info", str(missing))
    assert code == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for path in (binary, tmp_path):
        code, out = run(capsys, "orbit", "info", str(path))
        assert code == 2
        assert json.loads(out)["error"]["name"] == "SchemaError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit"])
    assert exc.value.code == 2


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WEYLMOD_MAX_ENUM", "3")
    code, out = run(
        capsys, "oracle", "enumerate", "--quiver", "q1", "--field", "gf2", "--dims", "1,1"
    )
    assert code == 1
    assert json.loads(out)["error"]["name"] == "EnumerationBudgetExceeded"
    monkeypatch.delenv("WEYLMOD_MAX_ENUM")
    code, _ = run(
        capsys, "oracle", "enumerate", "--quiver", "q1", "--field", "gf2", "--dims", "1,1"
    )
    assert code == 0


ENUMERATE_Q1 = ("oracle", "enumerate", "--quiver", "q1")


@pytest.mark.parametrize(
    "argv, env",
    [
        (ENUMERATE_Q1 + ("--field", "gf4", "--dims", "1,1"), None),
        (ENUMERATE_Q1 + ("--field", "gfx", "--dims", "1,1"), None),
        (ENUMERATE_Q1 + ("--field", "gf2", "--dims", "1,a"), None),
        (ENUMERATE_Q1 + ("--field", "gf2", "--dims", "1,-1"), None),
        (ENUMERATE_Q1 + ("--field", "gf2", "--dims", "1,1", "--budget", "0"), None),
        (ENUMERATE_Q1 + ("--field", "gf2", "--dims", "1,1"), "abc"),
        (ENUMERATE_Q1 + ("--field", "gf2", "--dims", "1,1"), "0"),
        (("simples", "build", "IDEAL", "--which", "0", "--N", "[1,"), None),
    ],
    ids=[
        "field-gf4", "field-gfx", "dims-letter", "dims-negative", "budget-0",
        "env-abc", "env-0", "N-truncated",
    ],
)
def test_malformed_input_is_a_schema_error(tmp_path, capsys, monkeypatch, argv, env):
    path = write(tmp_path, "ideal.json", IDEAL_STABLE_F2)
    if env is not None:
        monkeypatch.setenv("WEYLMOD_MAX_ENUM", env)
    code, out = run(capsys, *(path if a == "IDEAL" else a for a in argv))
    assert code == 2
    assert json.loads(out)["error"]["name"] == "SchemaError"


def test_simples_build_char0_region(tmp_path, capsys):
    path = write(tmp_path, "ideal.json", IDEAL_BREAK2)
    code, out = run(capsys, "simples", "list", path)
    assert code == 0
    assert json.loads(out)["count"] == 4
    code, out = run(capsys, "simples", "build", path, "--which", "0", "--window", "2")
    assert code == 0
    module = json.loads(out)
    # the corner simple occupies one quadrant of the 5x5 window
    assert sum(module["spaces"].values()) == 9
    module_path = tmp_path / "module.json"
    module_path.write_text(out)
    code, out = run(capsys, "module", "verify", str(module_path))
    assert json.loads(out)["ok"] is True


def test_simples_list_charp(tmp_path, capsys):
    path = write(tmp_path, "ideal.json", IDEAL_STABLE_F2)
    code, out = run(capsys, "simples", "list", path)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    entry = data["simples"][0]
    assert entry["kind"] == "family" and entry["N"] == "symbolic"
    assert entry["presentation"]["generators"][0]["twist"] == "sigma"


def test_float_coefficient_is_a_schema_error(tmp_path, capsys):
    # -0.5 used to be truncated to 0, so the generator read t (a degenerate orbit)
    ideal = {"field": {"kind": "Q"}, "arity": 1, "generators": {"1": [-0.5, 1]}}
    code, out = run(capsys, "orbit", "info", write(tmp_path, "ideal.json", ideal))
    assert code == 2
    assert json.loads(out)["error"]["name"] == "SchemaError"


def test_huge_constant_is_uncertified_not_a_hang(tmp_path, capsys):
    ideal = {"field": {"kind": "Q"}, "arity": 1, "generators": {"1": [1000000000000000003, 0, 1]}}
    path = write(tmp_path, "ideal.json", ideal)
    start = time.perf_counter()
    code, out = run(capsys, "orbit", "info", path)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(out)["error"]["name"] == "UncertifiedIrreducibility"
    ideal["certified"] = False
    code, out = run(capsys, "orbit", "info", write(tmp_path, "asserted.json", ideal))
    assert code == 0
    assert json.loads(out)["certified"] is False


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--window", ("simples", "build", "{ideal}", "--which", "0", "--window", "-1")),
        ("--window", ("indecomp", "build", "{ideal}", "--rep", "{rep}", "--window", "-1")),
        ("--radius", ("heisenberg", "check", "--radius", "-1")),
        ("--indices", ("heisenberg", "check", "--indices", "0")),
        ("--len", ("heisenberg", "graded-dim", "--degree", "0", "--len", "-1", "--bound", "3")),
        ("--bound", ("heisenberg", "graded-dim", "--degree", "0", "--len", "4", "--bound", "-1")),
    ],
)
def test_a_vacuous_window_or_range_is_a_schema_error(tmp_path, capsys, flag, argv):
    # each used to print an empty window, or a count or "ok" over nothing, and exit 0
    ideal = write(tmp_path, "ideal.json", IDEAL_BREAK1)
    code, out = run(capsys, "indecomp", "list", ideal)
    rep = write(tmp_path, "rep.json", json.loads(out)["indecomposables"][0])
    code, out = run(capsys, *(a.format(ideal=ideal, rep=rep) for a in argv))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["name"] == "SchemaError" and flag in error["message"]
