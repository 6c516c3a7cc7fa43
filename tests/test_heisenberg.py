from fractions import Fraction

import pytest

from weylmod.errors import DegenerateOrbit, InvalidIdeal
from weylmod.heisenberg import (
    default_heisenberg_orbit,
    graded_count,
    graded_count_bruteforce,
    heisenberg_action_check,
    weight_degree,
)
from weylmod.orbits import ShiftVector
from weylmod.weightmod import WeightModule


def test_count_examples():
    assert graded_count(0, 2, 1) == 1
    assert graded_count(0, 2, 2) == 3
    assert graded_count(1, 1, 1) == 1
    assert graded_count(5, 1, 1) == 0


def test_count_matches_bruteforce():
    for i in range(-4, 5):
        for L in range(0, 5):
            for B in range(0, 5):
                assert graded_count(i, L, B) == graded_count_bruteforce(i, L, B)


def test_monotone_in_both_bounds():
    for i in range(-3, 4):
        for L in range(1, 5):
            assert graded_count(i, L, 3) <= graded_count(i, L + 1, 3)
        for B in range(0, 6):
            assert graded_count(i, 4, B) <= graded_count(i, 4, B + 1)


def test_strict_growth_past_the_degree():
    for i in range(-3, 4):
        for B in range(abs(i), 6):
            assert graded_count(i, 4, B + 1) > graded_count(i, 4, B)


def test_weight_degree_convention():
    gamma = ShiftVector({1: 2, 3: -1})
    assert weight_degree(gamma) == 1
    assert weight_degree(ShiftVector()) == 0


def test_default_orbit_guards():
    info = default_heisenberg_orbit()
    assert not info.degenerate and info.arity == "inf"
    with pytest.raises(InvalidIdeal):
        default_heisenberg_orbit(Fraction(2))


def test_action_check_passes():
    report = heisenberg_action_check(radius=2, max_index=3)
    assert report["ok"]
    assert report["central_charge"] == 1
    assert report["brackets_checked"] > 0
    assert report["grading_checked"] > 0
    assert report["bracket_failures"] == []
    assert report["grading_failures"] == []


def test_action_check_composes_each_product_once(monkeypatch):
    walks = []
    walk = WeightModule.walk

    def recording(self, gamma, steps):
        walks.append((gamma, tuple(steps)))
        return walk(self, gamma, steps)

    monkeypatch.setattr(WeightModule, "walk", recording)
    report = heisenberg_action_check(radius=1, max_index=4)
    assert report["ok"] and report["window_size"] == 81
    # 81 weights x 8 x 8 two-step words, and 81 x 8 one-step words
    assert len(walks) == len(set(walks)) == 81 * 64 + 81 * 8


def test_action_check_rejects_degenerate():
    from weylmod.fields import QQ, Poly
    from weylmod.orbits import SepMaxIdeal, orbit_info

    info = orbit_info(
        SepMaxIdeal(QQ, "inf", {1: Poly.x(QQ)}, Poly(QQ, [Fraction(-1, 2), 1]))
    )
    with pytest.raises(DegenerateOrbit):
        heisenberg_action_check(info, radius=1, max_index=2)


def test_action_check_refuses_an_empty_check():
    for kwargs in ({"radius": -1}, {"max_index": 0}):
        with pytest.raises(ValueError):
            heisenberg_action_check(**kwargs)
