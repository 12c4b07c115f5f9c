import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdextremal import groups
from pdextremal.groups import (
    Group,
    GroupFunction,
    SymSet,
    dft,
    difference_counts,
    difference_mask,
    difference_set,
    make_group,
)


def inverse_dft(group, spectrum):
    """Oracle inverse of dft: f(x) = (1 / (N * weight)) * sum_k F[k] * chi_k(x), complex."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    return np.fft.ifftn(spectrum.reshape(group.orders)).ravel() / group.weight


def test_make_group_examples():
    g = make_group([6], "probability")
    assert g.size == 6 and abs(g.weight - 1 / 6) < 1e-15
    g = make_group([2, 3], "counting")
    assert g.size == 6 and g.weight == 1.0
    g = make_group([1], "probability")
    assert g.size == 1 and g.weight == 1.0


def test_make_group_rejects_bad_input():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([4, 0])
    with pytest.raises(ValueError):
        make_group([4], {"weight": -2.0})
    for weight in (float("inf"), float("nan"), 10**400):
        with pytest.raises(ValueError, match="positive and finite"):
            make_group([4], weight)
    # the total mass N * w must lie in [1e-2, 1e12]
    for orders, weight in (([6], 1e-11), ([6], 1e-3), ([4], 1e300), ([10], 2e11)):
        with pytest.raises(ValueError, match="total mass"):
            make_group(orders, {"weight": weight})
    assert make_group([4], 0.0025).total_mass == 0.01
    assert make_group([10], 1e11).total_mass == 1e12


def test_dft_delta_is_constant():
    g = make_group([4], "counting")
    f = GroupFunction(g, [1, 0, 0, 0])
    assert np.allclose(dft(f), np.ones(4), atol=1e-12)


def test_dft_constant_is_delta():
    g = make_group([4], "counting")
    f = GroupFunction(g, np.ones(4))
    assert np.allclose(dft(f), [4, 0, 0, 0], atol=1e-12)


def test_dft_cosine_line():
    # f(x) = cos(pi x / 2) is the real part of the order-4 character
    g = make_group([4], "counting")
    f = GroupFunction(g, [1, 0, -1, 0])
    assert np.allclose(dft(f), [0, 2, 0, 2], atol=1e-12)


def test_inverse_roundtrip_random_spectra():
    rng = np.random.default_rng(11)
    for orders in ([7], [3, 5], [2, 2, 4], [1, 6]):
        g = make_group(orders, "probability")
        for _ in range(20):
            spec = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
            f = inverse_dft(g, spec)
            back = dft_complex(g, f)
            assert np.max(np.abs(back - spec)) < 1e-12 * max(1.0, np.max(np.abs(spec)))
            real = GroupFunction(g, f.real)
            assert np.max(np.abs(dft(real) - dft_complex(g, real.values))) < 1e-12 * max(
                1.0, np.max(np.abs(f.real)))


def dft_complex(group, values):
    """Reference transform for complex-valued inputs (test helper)."""
    values = np.asarray(values, dtype=np.complex128)
    return group.weight * (np.conj(group.char_values(np.arange(group.size))) @ values)


def test_function_roundtrip_through_spectrum():
    rng = np.random.default_rng(23)
    for orders in ([9], [4, 4], [2, 3, 4]):
        g = make_group(orders, "probability")
        f = GroupFunction(g, rng.normal(size=g.size))
        back = inverse_dft(g, dft(f))
        assert np.max(np.abs(back.imag)) < 1e-13
        assert np.max(np.abs(back.real - f.values)) < 1e-12 * max(1.0, np.max(np.abs(f.values)))


def test_parseval_100_random_functions():
    rng = np.random.default_rng(5)
    for trial in range(100):
        orders = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))]
        g = make_group(orders, float(rng.uniform(0.1, 3.0)))
        f = GroupFunction(g, rng.normal(size=g.size))
        lhs = g.weight * np.sum(f.values**2)
        rhs = np.sum(np.abs(dft(f)) ** 2) / (g.size * g.weight)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_symmetric_real_function_has_real_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = make_group([int(rng.integers(2, 12))], "counting")
        v = rng.normal(size=g.size)
        v = v + v[g.neg]
        f = GroupFunction(g, v)
        spec = dft(f)
        assert np.max(np.abs(spec.imag)) < 1e-12 * max(1.0, np.max(np.abs(spec)))


def test_difference_set_examples():
    g6 = make_group([6])
    d = difference_set([0, 1], [0, 1], group=g6)
    assert sorted(d.elements()) == [0, 1, 5]

    assert len(difference_set([], [], group=g6)) == 0

    # oracle-derived: exhaustive pair subtraction on Z_5 for H = {0, 2}
    g5 = make_group([5])
    oracle = sorted({(a - b) % 5 for a in (0, 2) for b in (0, 2)})
    d = difference_set([0, 2], [0, 2], group=g5)
    assert sorted(d.elements()) == oracle == [0, 2, 3]


def test_difference_set_group_mismatch():
    a = SymSet.from_elements(make_group([6]), [0, 1])
    b = SymSet.from_elements(make_group([5]), [0, 1])
    with pytest.raises(ValueError):
        difference_set(a, b, group=make_group([6]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    elems=st.sets(st.integers(min_value=0, max_value=19), max_size=8),
)
def test_difference_set_symmetric_and_contains_zero(n, elems):
    g = make_group([n])
    elems = {e % n for e in elems}
    d = difference_set(sorted(elems), sorted(elems), group=g)
    assert np.array_equal(d.mask, d.mask[g.neg])
    if elems:
        assert d.mask[0]
    else:
        assert len(d) == 0


def test_difference_mask_matches_bruteforce(monkeypatch):
    rng = np.random.default_rng(3)
    empty = np.zeros(0, dtype=np.int64)
    cases = []
    for _ in range(30):
        orders = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3)))]
        g = make_group(orders)
        a = rng.permutation(g.size)[: int(rng.integers(0, g.size + 1))]
        b = rng.permutation(g.size)[: int(rng.integers(0, g.size + 1))]
        for a, b in ((a, b), (a, empty), (empty, b), (np.concatenate([a, a]), b)):
            brute = np.zeros(g.size, dtype=np.int64)
            for x in a:
                for y in b:
                    brute[int(g.sub_index(int(x), int(y)))] += 1
            cases.append((g, a, b, brute))
    for chunk in (groups._CHUNK, 1, 3, 7):  # small blocks split a x b into many
        monkeypatch.setattr(groups, "_CHUNK", chunk)
        for g, a, b, brute in cases:
            counts = difference_counts(g, a, b)
            assert counts.dtype == np.int64 and np.array_equal(counts, brute)
            assert np.array_equal(difference_mask(g, a, b), brute > 0)


@pytest.mark.parametrize("rows, columns, chunk", [
    (10, 3, 7), (10, 0, 4), (0, 5, 8), (5, 9, 4), (6, 2, 12), (7, 1, 1 << 18),
])
def test_row_blocks_cover_the_rows_in_blocks_of_at_most_chunk_entries(monkeypatch, rows,
                                                                       columns, chunk):
    monkeypatch.setattr(groups, "_CHUNK", chunk)
    blocks = list(groups._row_blocks(np.arange(rows), columns))
    assert np.array_equal(np.concatenate([np.arange(0), *blocks]), np.arange(rows))
    # a block holds at most chunk entries, or a single row longer than chunk
    assert all(len(b) * columns <= chunk or len(b) == 1 for b in blocks)
    assert all(len(b) > 0 for b in blocks)


def test_symset_autosymmetrizes_with_flag():
    g = make_group([6])
    s = SymSet.from_elements(g, [0, 1])  # -1 = 5 missing
    assert s.symmetrized
    assert s.elements() == [0]
    t = SymSet.from_elements(g, [0, 1, 5])
    assert not t.symmetrized
    assert t.elements() == [0, 1, 5]
    with pytest.raises(TypeError):  # set by the constructor, not passed to it
        SymSet(g, t.mask, True)


def test_group_json_roundtrip():
    for norm in ("probability", "counting", {"weight": 0.5}):
        g = make_group([4, 3], norm)
        j = json.loads(json.dumps(g.to_json()))
        g2 = Group.from_json(j)
        assert g2.orders == g.orders and abs(g2.weight - g.weight) < 1e-15


def test_element_indexing_is_lexicographic():
    g = make_group([2, 3])
    coords = [tuple(c) for c in g.coords]
    assert coords == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert g.element_index((1, 2)) == 5


def test_equal_orders_share_one_read_only_layout():
    g, h = make_group([4, 6], "probability"), make_group([4, 6], "counting")
    assert g.weight != h.weight and g.neg is h.neg and g.coords is h.coords
    assert np.array_equal(g.neg, g.index_of(-g.coords))
    for array in (g.neg, g.coords):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert make_group([6, 4]).neg is not g.neg
    mask = np.zeros(24, dtype=bool)
    mask[[0, g.element_index((0, 1))]] = True  # (0, 5) = -(0, 1) missing
    s = SymSet(h, mask)
    assert s.symmetrized and s.elements() == [(0, 0)]


@settings(max_examples=80, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3),
    index=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=12),
)
def test_coords_of_is_the_division_formula(orders, index):
    g = make_group(orders)
    index = np.asarray(index + [0, g.size - 1, g.size, -1, -g.size], dtype=np.int64)
    strides = np.asarray([int(np.prod(orders[j + 1:])) for j in range(len(orders))])
    expect = (index[..., None] // strides) % np.asarray(orders)  # each coordinate from its stride
    assert np.array_equal(g.coords_of(index), expect)
    assert np.array_equal(g.coords_of(index.reshape(-1, 1)), expect.reshape(-1, 1, len(orders)))
    assert g.coords_of(int(index[0])).tolist() == expect[0].tolist()


def test_plain_int_lists_take_one_conversion_with_element_index_results():
    g = make_group([7])
    for elements in ([], [0, 3, -1, 13, 3], [2**70, -(2**70) - 1], [True, 2]):
        expect = [g.element_index(e) for e in elements]
        assert groups._as_indices(g, elements).tolist() == expect
    assert groups._as_indices(g, [2**70]).dtype == np.int64


@pytest.mark.parametrize("orders, elements, match", [
    ([6], [1.5], r"element 1\.5 does not match rank 1"),
    ([6], [1, (1, 2)], r"element \(1, 2\) does not match rank 1"),
    ([2, 3], [1], "bare integer element only valid for a single cyclic factor"),
    ([2, 3], [(0, 1), 4], "bare integer element only valid for a single cyclic factor"),
    ([2, 3], [(0, 1, 2)], r"element \(0, 1, 2\) does not match rank 2"),
])
def test_other_element_lists_keep_their_errors(orders, elements, match):
    with pytest.raises(ValueError, match=match):
        groups._as_indices(make_group(orders), elements)
