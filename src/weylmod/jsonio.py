"""JSON encodings for every value the CLI reads or writes (schema weylmod/1).

Field elements: rationals as "num/den" strings, prime-field elements as least
residues, extension elements as ascending coefficient arrays.  Polynomials
are ascending coefficient arrays; matrices are row-major.  Weight maps are
keyed by the canonical string form of a shift vector ("1:3,4:-2"; "" for the
zero vector).  A module file holds ``spaces``, then ``x`` and ``d`` by index
and weight key, with the string "out" (``OUT``) exactly where the step leaves
the window.  Every encoder sorts keys, so output is byte-deterministic.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import RelationViolation, SchemaError
from .fields import QQ, FieldDesc, FieldElem, GF, Poly, extend
from .indecomp import QuiverRep, quiver_layout
from .linalg import Matrix
from .orbits import (
    UNBOUNDED,
    OrbitInfo,
    SepMaxIdeal,
    ShiftVector,
    Window,
    make_window,
    orbit_info,
)
from .weightmod import WeightModule

SCHEMA = "weylmod/1"
OUT = "out"  # a module's x or d cell where the step leaves the window


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _int(value) -> int:
    """A JSON integer (or integer string) as an int; floats and booleans are
    rejected, not truncated.  Callers turn the TypeError into a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


# ---- fields -----------------------------------------------------------------


def field_to_json(desc: FieldDesc):
    if desc.kind == "Q":
        return {"kind": "Q"}
    if desc.kind == "GF":
        return {"kind": "GF", "p": desc.p}
    return {
        "kind": "Ext",
        "base": field_to_json(desc.base),
        "modulus": poly_to_json(desc.modulus),
        "certified": desc.certified,
    }


def field_from_json(data) -> FieldDesc:
    try:
        kind = data["kind"]
        if kind == "Q":
            return QQ
        if kind == "GF":
            return GF(_int(data["p"]))
        if kind == "Ext":
            base = field_from_json(data["base"])
            modulus = poly_from_json(base, data["modulus"])
            return extend(
                base, modulus, assume_irreducible=not data.get("certified", True)
            )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad field descriptor: {exc}") from exc
    raise SchemaError(f"unknown field kind {data!r}")


def elem_to_json(e: FieldElem):
    kind = e.field.kind
    if kind == "Q":
        return f"{e.value.numerator}/{e.value.denominator}"
    if kind == "GF":
        return e.value
    return [elem_to_json(c) for c in e.value]


def elem_from_json(desc: FieldDesc, data) -> FieldElem:
    kind = desc.kind
    try:
        if kind == "Q":
            if isinstance(data, str):
                num, _, den = data.partition("/")
                return desc.from_fraction(Fraction(int(num), int(den or "1")))
            return desc.from_int(_int(data))
        if kind == "GF":
            return desc.from_int(_int(data))
        if isinstance(data, list):
            if len(data) > desc.modulus.degree:
                raise ValueError(f"more than {desc.modulus.degree} coefficients")
            coeffs = tuple(elem_from_json(desc.base, c) for c in data)
            return FieldElem(desc, Poly(desc.base, coeffs).coeffs)
        return desc.elem(elem_from_json(desc.base, data))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad element {data!r}: {exc}") from exc


def poly_to_json(f: Poly):
    return [elem_to_json(c) for c in f.coeffs]


def poly_from_json(desc: FieldDesc, data) -> Poly:
    if not isinstance(data, list):
        raise SchemaError(f"polynomial must be a coefficient array, got {data!r}")
    return Poly(desc, tuple(elem_from_json(desc, c) for c in data))


# ---- shift vectors and ideals -------------------------------------------------


def shift_to_json(sv: ShiftVector):
    return {str(i): v for i, v in sv.entries}


def shift_from_json(data) -> ShiftVector:
    try:
        return ShiftVector({int(i): _int(v) for i, v in data.items()})
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad shift vector {data!r}: {exc}") from exc


def shift_key(sv: ShiftVector) -> str:
    return repr(sv) if not sv.is_zero() else ""


def shift_from_key(key: str) -> ShiftVector:
    if not key:
        return ShiftVector()
    try:
        pairs = [part.split(":") for part in key.split(",")]
        return ShiftVector({int(i): int(v) for i, v in pairs})
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad weight key {key!r}: {exc}") from exc


def ideal_to_json(m: SepMaxIdeal):
    out = {
        "schema": SCHEMA,
        "type": "ideal",
        "field": field_to_json(m.field),
        "arity": m.arity,
        "generators": {str(i): poly_to_json(f) for i, f in m.generators.items()},
    }
    if m.default_generator is not None:
        out["default"] = poly_to_json(m.default_generator)
    if not m.certified:
        out["certified"] = False
    return out


def ideal_from_json(data) -> SepMaxIdeal:
    try:
        field = field_from_json(data["field"])
        arity = data["arity"] if data["arity"] == UNBOUNDED else _int(data["arity"])
        gens = {
            int(i): poly_from_json(field, coeffs)
            for i, coeffs in data.get("generators", {}).items()
        }
        default = None
        if "default" in data:
            default = poly_from_json(field, data["default"])
        assume = not data.get("certified", True)
        return SepMaxIdeal(field, arity, gens, default, assume_irreducible=assume)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad ideal: {exc}") from exc


# ---- matrices and modules -----------------------------------------------------


def matrix_to_json(mat: Matrix):
    return [[elem_to_json(x) for x in row] for row in mat.rows]


def matrix_from_json(desc: FieldDesc, data, nrows: int, ncols: int) -> Matrix:
    if not isinstance(data, list):
        raise SchemaError("matrix must be an array of rows")
    rows = [[elem_from_json(desc, x) for x in row] for row in data]
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise SchemaError(
            f"matrix shape {len(rows)}x{'?' if not rows else len(rows[0])} "
            f"does not match expected {nrows}x{ncols}"
        )
    return Matrix(desc, nrows, ncols, rows)


def window_to_json(window: Window):
    return {
        "kind": window.kind,
        "radius": window.radius,
        "indices": list(window.indices),
    }


def module_to_json(module: WeightModule):
    info = module.info
    out = {
        "schema": SCHEMA,
        "type": "module",
        "orbit": ideal_to_json(info.base),
        "box": window_to_json(module.window),
        "window": [shift_key(g) for g in module.window],
        "spaces": {shift_key(g): module.dim(g) for g in module.window},
        "x": {},
        "d": {},
    }
    for i in module.window.indices:
        for letter, op, direction in (("x", module.x, 1), ("d", module.d, -1)):
            out[letter][str(i)] = {
                shift_key(g): OUT if module.window.step(g, i, direction) is None
                else matrix_to_json(op(i, g))
                for g in module.window
            }
    return out


def module_from_json(data) -> WeightModule:
    try:
        base = ideal_from_json(data["orbit"])
        info = orbit_info(base)
        wdata = data["box"]
        if wdata["kind"] == "orbit":
            window = make_window(info)
        else:
            window = make_window(
                info,
                radius=_int(wdata["radius"]),
                indices=[_int(i) for i in wdata["indices"]],
            )
        recorded = [shift_from_key(k) for k in data["window"]]
        if sorted(recorded, key=lambda g: g.sort_key()) != list(window.weights):
            raise SchemaError("window weights do not match the window description")
        spaces = {
            shift_from_key(k): _int(v) for k, v in data["spaces"].items()
        }
        desc = info.residue.desc
        xmat, dmat = {}, {}
        for i in window.indices:
            for g in window:
                for store, letter, direction in ((xmat, "x", 1), (dmat, "d", -1)):
                    cell = data[letter][str(i)][shift_key(g)]
                    target = window.step(g, i, direction)
                    if cell == OUT:
                        if target is not None:
                            raise RelationViolation(
                                f"in-window transition at {g!r} index {i} tagged out"
                            )
                        continue
                    store[(i, g)] = matrix_from_json(
                        desc, cell, spaces.get(target, 0), spaces.get(g, 0)
                    )
                    if target is None:
                        raise RelationViolation(
                            f"transition at {g!r} index {i} should be tagged out-of-window"
                        )
        return WeightModule(info, window, spaces, xmat, dmat)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad module: {exc}") from exc


# ---- quiver representations ----------------------------------------------------


def rep_to_json(rep: QuiverRep):
    return {
        "schema": SCHEMA,
        "type": "quiver_rep",
        "quiver": rep.quiver,
        "field": field_to_json(rep.field),
        "dims": {str(v): d for v, d in rep.dims.items()},
        "arrows": {name: matrix_to_json(mat) for name, mat in rep.arrows.items()},
        "label": rep.label,
    }


def rep_from_json(data) -> QuiverRep:
    try:
        quiver = data["quiver"]
        field = field_from_json(data["field"])
        _, layout = quiver_layout(quiver)
        dims = {int(v): _int(d) for v, d in data["dims"].items()}
        arrows = {}
        for name, raw in data.get("arrows", {}).items():
            # an arrow the quiver lacks is passed on for QuiverRep to reject
            if name in layout and raw is not None:
                src, tgt = layout[name]
                raw = matrix_from_json(field, raw, dims.get(tgt, 0), dims.get(src, 0))
            arrows[name] = raw
        return QuiverRep(quiver, field, dims, arrows, label=data.get("label", ""))
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad quiver representation: {exc}") from exc


# ---- orbit info -----------------------------------------------------------------


def orbit_info_to_json(info: OrbitInfo):
    out = {
        "schema": SCHEMA,
        "type": "orbit_info",
        "kind": info.kind,
        "degenerate": info.degenerate,
        "break_set": list(info.break_set),
        "base": ideal_to_json(info.base),
        "input_gamma": shift_to_json(info.input_gamma),
        "skeleton": [shift_to_json(d) for d in info.skeleton],
        "residue_field": field_to_json(info.residue.desc),
        "residue_degree": info.residue.degree_over_base(),
        "certified": info.certified,
    }
    if info.char > 0:
        out["periods"] = {str(i): r for i, r in info.periods.items()}
        out["tau"] = {str(i): t for i, t in info.tau.items()}
        out["orbit_size"] = info.orbit_size()
    return out
