"""In-memory spans around weylmod's public functions and methods.

The tracer rebinds, from the benchmark side only, every public function and
method of the weylmod modules to a wrapper that records a span (name, start,
end, parent).  Spans live in four flat arrays and are folded into per-name
self time (a span's duration minus the durations of its child spans) after
the traced pass.  Constructors of the hot value types only bump counters:
a span per FieldElem would cost more than the arithmetic it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = (
    "fields",
    "linalg",
    "orbits",
    "skeleton",
    "weightmod",
    "simples",
    "indecomp",
    "heisenberg",
    "jsonio",
    "cli",
)
# Field arithmetic is far too fine-grained for a span per call; its time is
# part of the calling layer's self time.  Constructors are counted instead.
UNSPANNED_CLASSES = {("fields", "FieldElem"), ("fields", "Poly"), ("fields", "FieldDesc")}
COUNTED_INITS = {
    ("fields", "FieldElem"): "fields.elems_built",
    ("linalg", "Matrix"): "linalg.matrix_built",
    ("orbits", "ShiftVector"): "orbits.shift_vectors_built",
    ("indecomp", "QuiverRep"): "indecomp.reps_enumerated",
}
SPANNED_DUNDERS = {"__mul__", "__add__", "__sub__", "__neg__"}
# Accessors that only index a tuple or dict; a span would dwarf them.
UNSPANNED = {"linalg.Matrix.entry", "orbits.ShiftVector.get", "weightmod.WeightModule.dim"}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("I")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name, fn):
        nid = self._id(name)
        names, parents, stack = self.name, self.parent, self.stack
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- installing and removing the wrappers --------------------------------

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import weylmod

        modules = [weylmod] + [sys.modules[f"weylmod.{layer}"] for layer in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"weylmod.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and self._traceable(name, obj):
                    full = f"{layer}.{name}"
                    if full not in UNSPANNED:
                        self._rebind(modules, obj, self.spanned(full, self._extra(full, obj)))
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)

    @staticmethod
    def _traceable(name, fn):
        public = not name.startswith("_") or name in SPANNED_DUNDERS
        return public and not inspect.isgeneratorfunction(fn)

    def _install_class(self, layer, cls):
        key = (layer, cls.__name__)
        if key in COUNTED_INITS:
            self._set(cls, "__init__", self.counted(COUNTED_INITS[key], cls.__dict__["__init__"]))
        if key in UNSPANNED_CLASSES:
            return
        for attr, raw in list(vars(cls).items()):
            full = f"{layer}.{cls.__name__}.{attr}"
            if full in UNSPANNED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if self._traceable(attr, fn):
                    self._set(cls, attr, type(raw)(self.spanned(full, fn)))
            elif inspect.isfunction(raw) and self._traceable(attr, raw):
                self._set(cls, attr, self.spanned(full, self._extra(full, raw)))

    def _extra(self, full, fn):
        """Counters that need the return value."""
        counts = self.counts
        if full == "linalg.EchelonSpace.add":

            def add(*args, **kwargs):
                new = fn(*args, **kwargs)
                if new is not None:
                    counts["linalg.echelon_add.useful"] += 1
                return new

            return functools.wraps(fn)(add)
        if full == "indecomp.brute_force_indecomposables":

            def brute(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["indecomp.classes"] += result["classes"]
                return result

            return functools.wraps(fn)(brute)
        return fn

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ---- folding spans -------------------------------------------------------

    def self_times(self):
        """Per-name (self seconds, calls) over every recorded span."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        self_s = defaultdict(float)
        calls = Counter()
        for i, nid in enumerate(self.name):
            self_s[nid] += dur[i] - child[i]
            calls[nid] += 1
        return (
            {self.names[k]: v for k, v in self_s.items()},
            {self.names[k]: v for k, v in calls.items()},
        )


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts

    def layer_self(prefix):
        return sum((v for k, v in self_s.items() if k.startswith(prefix + ".")), 0.0)

    out = {
        "fields.elems_built": (counts["fields.elems_built"], "count"),
        "fields.is_irreducible.self_s": (self_s.get("fields.is_irreducible", 0.0), "s"),
        "linalg.self_s": (layer_self("linalg"), "s"),
        "linalg.matrix_built": (counts["linalg.matrix_built"], "count"),
        "linalg.matmul.calls": (calls.get("linalg.Matrix.__mul__", 0), "count"),
        "linalg.mul_vec.calls": (calls.get("linalg.Matrix.mul_vec", 0), "count"),
        "linalg.rref.calls": (calls.get("linalg.Matrix.rref", 0), "count"),
        "linalg.inverse.calls": (calls.get("linalg.Matrix.inverse", 0), "count"),
        "linalg.echelon_add.calls": (calls.get("linalg.EchelonSpace.add", 0), "count"),
        "linalg.solve_intertwiners.self_s": (self_s.get("linalg.solve_intertwiners", 0.0), "s"),
        "orbits.self_s": (layer_self("orbits"), "s"),
        "orbits.shift_vectors_built": (counts["orbits.shift_vectors_built"], "count"),
        "skeleton.build_skeleton.self_s": (self_s.get("skeleton.build_skeleton", 0.0), "s"),
        "simples.build_S_char_p.self_s": (self_s.get("simples.build_S_char_p", 0.0), "s"),
        "simples.classify_simples.self_s": (self_s.get("simples.classify_simples", 0.0), "s"),
        "indecomp.brute_force_indecomposables.self_s": (
            self_s.get("indecomp.brute_force_indecomposables", 0.0),
            "s",
        ),
        "indecomp.is_indecomposable_rep.self_s": (
            self_s.get("indecomp.is_indecomposable_rep", 0.0),
            "s",
        ),
        "indecomp.reps_enumerated": (counts["indecomp.reps_enumerated"], "count"),
        "indecomp.classes": (counts["indecomp.classes"], "count"),
        "heisenberg.action_check.self_s": (
            self_s.get("heisenberg.heisenberg_action_check", 0.0),
            "s",
        ),
        "cli.main.self_s": (self_s.get("cli.main", 0.0), "s"),
        "jsonio.self_s": (layer_self("jsonio"), "s"),
    }
    adds = out["linalg.echelon_add.calls"][0]
    useful = counts["linalg.echelon_add.useful"] / adds if adds else 0.0
    out["linalg.echelon_add.useful_ratio"] = (useful, "ratio")
    for fn in (
        "verify_relations",
        "is_simple_finite",
        "is_indecomposable_finite",
        "submodule_closure",
        "from_skeleton_module",
        "to_skeleton_module",
    ):
        out[f"weightmod.{fn}.self_s"] = (self_s.get(f"weightmod.{fn}", 0.0), "s")
        out[f"weightmod.{fn}.calls"] = (calls.get(f"weightmod.{fn}", 0), "count")
    return out
