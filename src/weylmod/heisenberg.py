"""Graded view of the unbounded-arity simple module as a Heisenberg module.

Identifying the lowering generator at index i with e_i and the raising one
with e_{-i} turns the whole-orbit simple of a nondegenerate unbounded orbit
into a Z-graded module with central charge 1; the degree of a weight is the
negative of its index-weighted coordinate sum.  Homogeneous components are
infinite-dimensional, which is reported here as unbounded truncated growth,
never asserted as a computed fact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Optional

from .errors import DegenerateOrbit, InvalidIdeal
from .fields import QQ, Poly
from .linalg import Matrix
from .orbits import OrbitInfo, SepMaxIdeal, ShiftVector, make_window, orbit_info
from .simples import build_S_O


def default_heisenberg_orbit(shift: Fraction = Fraction(1, 2)) -> OrbitInfo:
    """A nondegenerate unbounded-arity orbit: every generator is t - shift."""
    if shift.denominator == 1:
        raise InvalidIdeal("the default shift must not be an integer")
    ideal = SepMaxIdeal(QQ, "inf", {}, Poly(QQ, [-shift, 1]))
    return orbit_info(ideal)


def weight_degree(gamma: ShiftVector) -> int:
    """Grading degree of the weight: minus the index-weighted coordinate sum."""
    return -sum(i * v for i, v in gamma.entries)


def graded_count(degree: int, max_len: int, bound: int,
                 info: Optional[OrbitInfo] = None) -> int:
    """Truncated dimension of one homogeneous component.

    Counts the weights with support in indices 1..max_len, entries bounded by
    ``bound`` in absolute value, and index-weighted coordinate sum equal to
    ``degree`` (these weights sit in grading degree -degree; the empty weight
    contributes exactly when degree is 0).  Dynamic programming over the
    indices; exact integer answer.
    """
    if info is not None and info.degenerate:
        raise DegenerateOrbit("the graded demo needs a nondegenerate orbit")
    target = degree
    counts: Dict[int, int] = {0: 1}
    for k in range(1, max_len + 1):
        new: Dict[int, int] = {}
        for total, ways in counts.items():
            for v in range(-bound, bound + 1):
                key = total + k * v
                new[key] = new.get(key, 0) + ways
        counts = new
    return counts.get(target, 0)


def graded_count_bruteforce(degree: int, max_len: int, bound: int) -> int:
    """Independent generate-and-filter enumerator over last-nonzero tuples."""
    total = 1 if degree == 0 else 0  # the empty tuple
    span = range(-bound, bound + 1)
    for length in range(1, max_len + 1):
        for tup in itertools.product(span, repeat=length):
            if tup[-1] == 0:
                continue
            if sum((k + 1) * v for k, v in enumerate(tup)) == degree:
                total += 1
    return total


def heisenberg_action_check(
    info: Optional[OrbitInfo] = None, *, radius: int = 2, max_index: int = 4
) -> dict:
    """Verify the bracket and grading laws on a finite window.

    Builds the whole-orbit simple on a box over indices 1..max_index and
    checks, wherever both composites stay in the window, that the commutator
    of a lowering at i and a raising at j is the Kronecker delta (central
    charge 1), that like generators commute, and that each generator moves
    homogeneous degrees by its own index.  A negative radius or a
    ``max_index`` below 1 would check nothing and is refused (ValueError).
    """
    if max_index < 1:
        raise ValueError(f"the check needs max_index >= 1, got {max_index}")
    if info is None:
        info = default_heisenberg_orbit()
    if info.degenerate:
        raise DegenerateOrbit("the graded demo needs a nondegenerate orbit")
    indices = tuple(range(1, max_index + 1))
    window = make_window(info, radius=radius, indices=indices)
    module = build_S_O(info, window)
    field = module.field

    # signed labels: positive s is the lowering e_s, negative the raising e_{-|s|}
    labels = [s for i in indices for s in (i, -i)]
    step = {s: ("Y", s) if s > 0 else ("X", -s) for s in labels}

    bracket_checked = 0
    bracket_failures = []
    grading_checked = 0
    grading_failures = []
    for gamma in window:
        n = module.dim(gamma)
        zero, ident = Matrix.zeros(field, n, n), Matrix.identity(field, n)
        minus_ident = ident.scale(field.from_int(-1))
        # each word once: the second word of (s, t) is the first of (t, s)
        walked = {(s, t): module.walk(gamma, (step[s], step[t])) for s in labels for t in labels}
        for s in labels:
            for t in labels:
                first, second = walked[(t, s)], walked[(s, t)]
                if first is None or second is None:
                    continue
                bracket_checked += 1
                expected = zero if s != -t else ident if s > 0 else minus_ident
                if first[0] - second[0] != expected:
                    bracket_failures.append({"pair": (s, t), "gamma": gamma})
        for s in labels:
            moved = module.walk(gamma, (step[s],))
            if moved is None:
                continue
            grading_checked += 1
            if weight_degree(moved[1]) != weight_degree(gamma) + s:
                grading_failures.append({"label": s, "gamma": gamma})

    return {
        "ok": not bracket_failures and not grading_failures,
        "central_charge": 1,
        "brackets_checked": bracket_checked,
        "bracket_failures": bracket_failures[:3],
        "grading_checked": grading_checked,
        "grading_failures": grading_failures[:3],
        "window_size": len(window),
    }
