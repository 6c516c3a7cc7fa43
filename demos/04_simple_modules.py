"""Classifying and building the simple weight modules, both characteristics.

Every build is verified on the spot: the defining relations are checked at
every window point, and finite modules are certified simple by Norton's
test: every line of the smallest weight space, and one vector of the dual,
must generate the whole module.
"""

from fractions import Fraction

from weylmod import (
    GF,
    QQ,
    Poly,
    SepMaxIdeal,
    ShiftVector,
    build_S_O,
    build_S_O_p,
    build_S_char_p,
    classify_simples,
    is_simple_finite,
    make_window,
    orbit_info,
    structural_simplicity_certificate,
    submodule_closure,
    verify_relations,
)

print("== characteristic zero, nondegenerate: one simple per orbit ==")
info = orbit_info(SepMaxIdeal(QQ, 1, {1: Poly(QQ, [Fraction(-1, 2), 1])}))
print("descriptors:", classify_simples(info))
module = build_S_O(info, make_window(info, radius=4))
print("relations:", verify_relations(module).ok,
      "| structural simplicity:", structural_simplicity_certificate(module))
one = module.field.one()
print("generated by the base-point vector:",
      submodule_closure(module, [(ShiftVector(), (one,))])["full"])

print()
print("== characteristic zero, degenerate: one simple per region ==")
binfo = orbit_info(SepMaxIdeal(QQ, 2, {1: Poly.x(QQ), 2: Poly.x(QQ)}))
print("descriptors:", classify_simples(binfo))
window = make_window(binfo, radius=2)
corner = build_S_O_p(binfo, ShiftVector(), window)
support = sorted((g for g in window if corner.dim(g) > 0), key=lambda g: g.sort_key())
print("corner simple support (a quadrant):", [repr(g) for g in support[:4]], "...")
print("relations:", verify_relations(corner).ok)

print()
print("== positive characteristic: families over the residue field ==")
F2 = GF(2)
stable = orbit_info(SepMaxIdeal(F2, 1, {1: Poly(F2, [1, 1, 1])}))
desc = classify_simples(stable)[0]
print("family:", desc, "| free variables:", desc.variables)
field = stable.residue.desc
cubic = Poly(field, [field.one(), field.one(), field.zero(), field.one()])
module = build_S_char_p(stable, desc, cubic)
print("cubic parameter over GF(4): K-dimension", module.kdim(),
      "| simple:", is_simple_finite(module))

print()
print("== dimension p for linear ideals over GF(p) ==")
for p in (2, 3, 5):
    Fp = GF(p)
    dinfo = orbit_info(SepMaxIdeal(Fp, 1, {1: Poly(Fp, [-1, 1])}))
    dims = []
    for d in classify_simples(dinfo):
        if not d.variables:
            dims.append(build_S_char_p(dinfo, d, None).kdim())
        else:
            rf = dinfo.residue.desc
            dims.append(
                build_S_char_p(dinfo, d, Poly(rf, [rf.from_int(-1), rf.one()])).kdim()
            )
    print(f"p = {p}: K-dimensions {dims}")
