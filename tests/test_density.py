import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pdextremal.density import (
    PeriodicSet,
    _conflicts,
    _packing_set,
    auud_finite,
    auud_periodic,
    covers,
    density_bounds_check,
    integer_shadow,
    max_density_search,
    packing_type,
    packs_strict,
    shift_counts,
    tiles_strict,
)
from pdextremal.groups import SymSet, make_group


def test_packs_strict_examples():
    g = make_group([6], "probability")
    assert packs_strict(g, [0, 1], [0, 2, 4])
    assert not packs_strict(g, [0, 1, 2], [0, 2, 4])
    # singleton H packs with any set of distinct translates
    assert packs_strict(g, [0], [0, 1, 2, 3, 4, 5])


def test_covers_and_tiles():
    g = make_group([6], "probability")
    assert covers(g, [0, 1], [0, 2, 4])
    assert tiles_strict(g, [0, 1], [0, 2, 4])
    assert not covers(g, [0, 1], [0, 3])
    assert tiles_strict(g, list(range(6)), [0])


def test_packing_type_examples():
    g = make_group([6], "probability")
    assert packing_type(SymSet.from_elements(g, [5, 0, 1]), [0, 2, 4], group=g)
    assert not packing_type(SymSet.from_elements(g, [0, 2, 4]), [0, 2, 4], group=g)
    assert packing_type(SymSet.from_elements(g, [0]), [0, 1, 3], group=g)


def test_packs_strict_equals_count_criterion():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 65))
        g = make_group([n], "probability")
        h = sorted(set(rng.integers(0, n, size=rng.integers(1, max(2, n // 2))).tolist()))
        lam = sorted(set(rng.integers(0, n, size=rng.integers(1, max(2, n // 2))).tolist()))
        by_diff = packs_strict(g, h, lam)
        by_count = bool(np.max(shift_counts(g, h, lam)) <= 1)
        assert by_diff == by_count


def test_tiles_implies_exact_division():
    rng = np.random.default_rng(21)
    found = 0
    for _ in range(200):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        if n % k:
            continue
        g = make_group([n], "probability")
        h = list(range(k))
        lam = list(range(0, n, k))
        assert tiles_strict(g, h, lam)
        assert len(h) * len(lam) == n
        found += 1
    assert found > 20


def test_auud_finite():
    g = make_group([6], "probability")
    assert auud_finite(g, [0, 2, 4]) == 3
    assert auud_finite(g, []) == 0
    assert auud_finite(g, list(range(6))) == 6
    with pytest.raises(ValueError):
        auud_finite(make_group([6], "counting"), [0])


def test_auud_periodic():
    assert auud_periodic(PeriodicSet(5, frozenset([0, 2]))) == Fraction(2, 5)
    assert auud_periodic(PeriodicSet(1, frozenset([0]))) == 1
    assert auud_periodic(PeriodicSet(4, frozenset())) == 0


def test_integer_shadow_example():
    assert integer_shadow([[-5, -3], [-2, 2], [3, 5]]) == [1, 4]
    assert integer_shadow([[3, 5]], closed=True) == [3, 4, 5]
    assert integer_shadow([]) == []
    with pytest.raises(ValueError):
        integer_shadow([[2, 1]])


def test_integer_shadow_matches_scan():
    rng = np.random.default_rng(5)
    ends = np.concatenate([np.arange(-6.0, 7.0), rng.uniform(-6.0, 6.0, 12)])
    for lo in ends:
        for hi in ends[ends >= lo]:
            for closed in (False, True):
                want = sorted({abs(k) for k in range(-8, 9) if k
                               and ((lo <= k <= hi) if closed else (lo < k < hi))})
                assert integer_shadow([[lo, hi]], closed=closed) == want


def test_integer_shadow_limits_interval_size():
    assert len(integer_shadow([[0, 1_000_001]])) == 1_000_000
    with pytest.raises(ValueError, match="more than 1000000 integers"):
        integer_shadow([[0, 1_000_000]], closed=True)
    for bad in ([0, math.inf], [math.nan, 1]):
        with pytest.raises(ValueError, match="finite"):
            integer_shadow([bad])


def test_max_density_search_examples():
    r = max_density_search([1, 4], 10)
    assert r["density"] == Fraction(2, 5)
    assert r["witness"] == PeriodicSet(5, frozenset([0, 2]))

    r = max_density_search([1], 4)
    assert r["density"] == Fraction(1, 2)
    assert r["witness"] == PeriodicSet(2, frozenset([0]))

    r = max_density_search([], 10)
    assert r["density"] == 1
    assert r["witness"].density() == 1


def test_max_density_search_monotone_in_forbidden_set():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f1 = sorted(set(rng.integers(1, 12, size=rng.integers(1, 4)).tolist()))
        extra = sorted(set(f1 + rng.integers(1, 12, size=2).tolist()))
        d1 = max_density_search(f1, 12)["density"]
        d2 = max_density_search(extra, 12)["density"]
        assert d2 <= d1


def test_max_density_search_witness_is_valid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        forbidden = sorted(set(rng.integers(1, 15, size=rng.integers(1, 5)).tolist()))
        r = max_density_search(forbidden, 14)
        w = r["witness"]
        if not w.residues:
            continue
        res = sorted(w.residues)
        for f in forbidden:
            assert all((a - b - f) % w.period != 0 for a in res for b in res)


def test_density_bounds_check_examples():
    g6 = make_group([6], "probability")
    rep = density_bounds_check(g6, [0, 1], [0, 2, 4])
    assert rep["pass"] and rep["tiles_strict"]
    assert rep["auud"] == 3 and rep["inv_mass"] == pytest.approx(3.0)

    g8 = make_group([8], "probability")
    rep = density_bounds_check(g8, [0, 1], [0, 4])
    assert rep["pass"] and rep["packs_strict"] and not rep["covers"]

    g4 = make_group([4], "probability")
    rep = density_bounds_check(g4, [0, 1, 2], [0, 2])
    assert rep["pass"] and rep["covers"] and not rep["packs_strict"]


def test_density_bounds_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(80):
        n = int(rng.integers(2, 41))
        g = make_group([n], "probability")
        h = sorted(set(rng.integers(0, n, size=rng.integers(1, n + 1)).tolist()))
        lam = sorted(set(rng.integers(0, n, size=rng.integers(1, n + 1)).tolist()))
        assert density_bounds_check(g, h, lam)["pass"]


def test_search_rejects_bad_input():
    with pytest.raises(ValueError):
        max_density_search([0], 10)
    with pytest.raises(ValueError):
        max_density_search([1], 25)


def _symmetric_masks(rng, group, count):
    """count random 0-symmetric masks on group that contain 0."""
    for _ in range(count):
        mask = rng.random(group.size) < rng.uniform(0.2, 0.8)
        mask[0] = True
        yield mask & mask[group.neg]


@pytest.mark.parametrize("orders", [[1], [2], [7], [12], [40], [600], [2, 3], [4, 4], [3, 5]])
def test_conflict_rows_match_the_element_by_element_construction(orders):
    g, rng = make_group(orders), np.random.default_rng(len(orders) * 1000 + orders[-1])
    idx = np.arange(g.size)
    for allowed in _symmetric_masks(rng, g, 3):  # [600] takes two blocks of differences
        expect = [int.from_bytes(np.packbits(~allowed[g.sub_index(x, idx)],
                                             bitorder="little").tobytes(), "little")
                  for x in range(g.size)]
        assert _conflicts(g, allowed) == expect


@pytest.mark.parametrize("orders", [[5], [8], [11], [12], [2, 4], [3, 3], [2, 5]])
def test_packing_set_is_the_least_largest_set(orders):
    g, rng = make_group(orders), np.random.default_rng(orders[-1] * 10 + len(orders))
    for allowed in _symmetric_masks(rng, g, 4):
        fits = [a for k in range(g.size + 1) for a in itertools.combinations(range(g.size), k)
                if all(allowed[g.sub_index(x, y)] for x in a for y in a)]
        size = max(len(a) for a in fits)
        assert _packing_set(g, allowed) == list(min(a for a in fits if len(a) == size))
