"""Command-line front end: JSON in, deterministic JSON out.

Exit codes: 0 on success, 1 on a domain error (reported as a machine-readable
error object naming the exception), 2 on usage or schema errors.  All
enumeration budgets accept a WEYLMOD_MAX_ENUM environment override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import heisenberg as hb
from . import indecomp as ind
from . import jsonio
from . import simples as sm
from .errors import SchemaError, WeylmodError
from .fields import GF, QQ
from .jsonio import dumps
from .orbits import make_window, orbit_info
from .skeleton import build_skeleton
from .weightmod import (
    is_indecomposable_finite,
    is_simple_finite,
    verify_relations,
)

DEFAULT_BUDGET = 1 << 22


def _int(text, what: str, least: int) -> int:
    """An integer of at least ``least`` from user input, or SchemaError."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        raise SchemaError(f"{what} must be an integer >= {least}, got {text!r}")
    return value


def _budget(args) -> int:
    env = os.environ.get("WEYLMOD_MAX_ENUM")
    if env is not None:
        return _int(env, "WEYLMOD_MAX_ENUM", 1)
    budget = getattr(args, "budget", None)
    return DEFAULT_BUDGET if budget is None else _int(budget, "--budget", 1)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load_ideal(path: str):
    return jsonio.ideal_from_json(_load(path))


def _emit(obj):
    sys.stdout.write(dumps(obj))


def cmd_orbit_info(args):
    info = orbit_info(_load_ideal(args.ideal))
    _emit(jsonio.orbit_info_to_json(info))


def cmd_block_classify(args):
    rep_type = ind.classify_block(orbit_info(_load_ideal(args.ideal)))
    _emit({"schema": jsonio.SCHEMA, "type": rep_type.value, "reason": rep_type.reason})


def _descriptor_json(k, desc):
    out = {"index": k, "kind": desc.kind}
    if desc.kind == "region":
        out["region"] = jsonio.shift_to_json(desc.region)
    if desc.kind == "family":
        out["gamma_set"] = list(desc.gamma_set)
        out["xi"] = {str(i): v for i, v in sorted(desc.xi.items())}
        out["presentation"] = desc.presentation()
        out["N"] = "symbolic"
    return out


def cmd_simples_list(args):
    info = orbit_info(_load_ideal(args.ideal))
    descs = sm.classify_simples(info)
    _emit(
        {
            "schema": jsonio.SCHEMA,
            "count": len(descs),
            "simples": [_descriptor_json(k, d) for k, d in enumerate(descs)],
        }
    )


def cmd_simples_build(args):
    radius = _int(args.window, "--window", 0)
    info = orbit_info(_load_ideal(args.ideal))
    descs = sm.classify_simples(info)
    if not 0 <= args.which < len(descs):
        raise SchemaError(f"--which must be in 0..{len(descs) - 1}")
    desc = descs[args.which]
    if desc.kind == "whole_orbit":
        module = sm.build_S_O(info, make_window(info, radius=radius))
    elif desc.kind == "region":
        module = sm.build_S_O_p(info, desc.region, make_window(info, radius=radius))
    else:
        n_gen = None
        if args.N is not None:
            raw = args.N
            if raw.lstrip().startswith("["):
                try:
                    data = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"--N is not valid JSON: {exc}") from exc
            else:
                data = _load(raw)
            n_gen = jsonio.poly_from_json(info.residue.desc, data)
        module = sm.build_S_char_p(info, desc, n_gen, max_vectors=_budget(args))
    _emit(jsonio.module_to_json(module))


def cmd_indecomp_list(args):
    info = orbit_info(_load_ideal(args.ideal))
    block = ind.classify_block(info)
    out = {"schema": jsonio.SCHEMA, "block": block.value, "reason": block.reason}
    if info.char == 0 and len(info.break_set) == 0:
        out["indecomposables"] = ["S(orbit)"]
    elif info.char == 0 and len(info.break_set) == 1:
        reps = ind.q1_indecomposables(info.residue.desc)
        out["indecomposables"] = [jsonio.rep_to_json(r) for r in reps]
    elif info.char == 0 and len(info.break_set) == 2:
        reps = ind.q2_indecomposables(
            info.residue.desc, args.max_string, args.max_poly_deg
        )
        out["indecomposables"] = [jsonio.rep_to_json(r) for r in reps]
    elif block.value == "wild":
        out["indecomposables"] = "wild: no list is emitted"
    else:  # tame in characteristic p
        out["indecomposables"] = "deferred: tame in characteristic p, no list is emitted"
    _emit(out)


def cmd_indecomp_build(args):
    radius = _int(args.window, "--window", 0)
    info = orbit_info(_load_ideal(args.ideal))
    rep = jsonio.rep_from_json(_load(args.rep))
    module = ind.rep_to_weight_module(rep, info, make_window(info, radius=radius))
    _emit(jsonio.module_to_json(module))


def cmd_module_verify(args):
    module = jsonio.module_from_json(_load(args.module))
    report = verify_relations(module)
    _emit(
        {
            "schema": jsonio.SCHEMA,
            "ok": report.ok,
            "relations": {
                name: {
                    "ok": entry["ok"],
                    "checked": entry["checked"],
                    "first_failure": None
                    if entry["first_failure"] is None
                    else {
                        k: (jsonio.shift_key(v) if k == "gamma" else list(v) if isinstance(v, tuple) else v)
                        for k, v in entry["first_failure"].items()
                    },
                }
                for name, entry in report.entries.items()
            },
        }
    )


def cmd_module_simple_check(args):
    module = jsonio.module_from_json(_load(args.module))
    verdict = is_simple_finite(module, max_vectors=_budget(args))
    _emit({"schema": jsonio.SCHEMA, "simple": verdict, "kdim": module.kdim()})


def cmd_module_indec_check(args):
    module = jsonio.module_from_json(_load(args.module))
    verdict = is_indecomposable_finite(module, max_endo=_budget(args))
    _emit({"schema": jsonio.SCHEMA, "indecomposable": verdict, "kdim": module.kdim()})


def _parse_field(text: str):
    text = text.strip().lower()
    if text in ("q", "qq"):
        return QQ
    if text.startswith("gf"):
        try:
            return GF(int(text[2:]))
        except ValueError:
            pass
    raise SchemaError(f"unknown field {text!r} (use q or gf<p> with p prime)")


def cmd_oracle_enumerate(args):
    field = _parse_field(args.field)
    dims_list = [_int(x, "each --dims entry", 0) for x in args.dims.split(",")]
    vertices, _ = ind.quiver_layout(args.quiver)
    if len(dims_list) != len(vertices):
        raise SchemaError(
            f"--dims needs {len(vertices)} entries for quiver {args.quiver}"
        )
    dims = dict(zip(vertices, dims_list))
    result = ind.brute_force_indecomposables(
        args.quiver, field, dims, budget=_budget(args)
    )
    _emit(
        {
            "schema": jsonio.SCHEMA,
            "quiver": args.quiver,
            "dims": dims_list,
            "relation_satisfying": result["relation_satisfying"],
            "classes": result["classes"],
            "indecomposable_count": result["indecomposable_count"],
            "representatives": [
                jsonio.rep_to_json(r) for r in result["representatives"]
            ],
        }
    )


def cmd_skeleton_show(args):
    info = orbit_info(_load_ideal(args.ideal))
    alg = build_skeleton(info)
    gmap = []
    for key in sorted(alg.gmap, key=repr):
        path = alg.gmap[key]
        entry = {
            "generator": key[0],
            "index": key[-1],
            "start": jsonio.shift_to_json(path["start"]),
            "steps": [[k, i] for k, i in path["steps"]],
        }
        if alg.kind == "A":
            entry["object"] = jsonio.shift_to_json(key[1])
        gmap.append(entry)
    _emit(
        {
            "schema": jsonio.SCHEMA,
            "kind": alg.kind,
            "field": jsonio.field_to_json(alg.field),
            "break_set": list(alg.break_set),
            "nonbreak_set": list(alg.nonbreak_set),
            "tau": {str(i): t for i, t in sorted(alg.tau.items())},
            "linear": alg.linear,
            "objects": [jsonio.shift_to_json(o) for o in alg.objects],
            "generator_map": gmap,
        }
    )


def cmd_heisenberg_graded_dim(args):
    max_len, bound = _int(args.len, "--len", 0), _int(args.bound, "--bound", 0)
    count = hb.graded_count(args.degree, max_len, bound)
    _emit(
        {
            "schema": jsonio.SCHEMA,
            "degree": args.degree,
            "len": max_len,
            "bound": bound,
            "count": count,
        }
    )


def cmd_heisenberg_check(args):
    report = hb.heisenberg_action_check(
        radius=_int(args.radius, "--radius", 0), max_index=_int(args.indices, "--indices", 1)
    )
    report["schema"] = jsonio.SCHEMA
    for key in ("bracket_failures", "grading_failures"):
        report[key] = [
            {k: (jsonio.shift_key(v) if k == "gamma" else v) for k, v in f.items()}
            for f in report[key]
        ]
    _emit(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylmod",
        description="Exact classification and construction of weight modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    orbit = sub.add_parser("orbit").add_subparsers(dest="sub", required=True)
    p = orbit.add_parser("info")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_orbit_info)

    block = sub.add_parser("block").add_subparsers(dest="sub", required=True)
    p = block.add_parser("classify")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_block_classify)

    simples = sub.add_parser("simples").add_subparsers(dest="sub", required=True)
    p = simples.add_parser("list")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_simples_list)
    p = simples.add_parser("build")
    p.add_argument("ideal")
    p.add_argument("--which", type=int, required=True)
    p.add_argument("--N", default=None, help="principal generator (JSON file or inline array)")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_simples_build)

    indecomp = sub.add_parser("indecomp").add_subparsers(dest="sub", required=True)
    p = indecomp.add_parser("list")
    p.add_argument("ideal")
    p.add_argument("--max-string", type=int, default=6)
    p.add_argument("--max-poly-deg", type=int, default=3)
    p.set_defaults(func=cmd_indecomp_list)
    p = indecomp.add_parser("build")
    p.add_argument("ideal")
    p.add_argument("--rep", required=True)
    p.add_argument("--window", type=int, default=3)
    p.set_defaults(func=cmd_indecomp_build)

    module = sub.add_parser("module").add_subparsers(dest="sub", required=True)
    p = module.add_parser("verify")
    p.add_argument("module")
    p.set_defaults(func=cmd_module_verify)
    p = module.add_parser("simple-check")
    p.add_argument("module")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_module_simple_check)
    p = module.add_parser("indec-check")
    p.add_argument("module")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_module_indec_check)

    oracle = sub.add_parser("oracle").add_subparsers(dest="sub", required=True)
    p = oracle.add_parser("enumerate")
    p.add_argument("--quiver", choices=("q1", "q2"), required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_oracle_enumerate)

    skeleton = sub.add_parser("skeleton").add_subparsers(dest="sub", required=True)
    p = skeleton.add_parser("show")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_skeleton_show)

    heis = sub.add_parser("heisenberg").add_subparsers(dest="sub", required=True)
    p = heis.add_parser("graded-dim")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=cmd_heisenberg_graded_dim)
    p = heis.add_parser("check")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--indices", type=int, default=4)
    p.set_defaults(func=cmd_heisenberg_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SchemaError as exc:
        sys.stdout.write(dumps({"error": {"name": exc.name, "message": str(exc)}}))
        return 2
    except WeylmodError as exc:
        sys.stdout.write(dumps({"error": {"name": exc.name, "message": str(exc)}}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
