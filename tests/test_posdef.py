import numpy as np
import pytest

from pdextremal.groups import GroupFunction, dft, make_group
from pdextremal.posdef import autocorrelation, is_posdef


def random_symmetric(group, rng, scale=1.0):
    v = rng.normal(size=group.size) * scale
    return GroupFunction(group, v + v[group.neg])


def random_posdef(group, rng, floor=1e-3):
    """Real symmetric posdef function via a nonnegative conjugation-symmetric spectrum."""
    spec = rng.uniform(floor, 1.0, size=group.size)
    spec = (spec + spec[group.neg]) / 2.0
    # the inverse of dft: f(x) = (1 / (N * weight)) * sum_k spec[k] * chi_k(x)
    values = np.fft.ifftn(spec.reshape(group.orders)).ravel() / group.weight
    return GroupFunction(group, values.real)


def test_is_posdef_examples():
    g4 = make_group([4])
    assert is_posdef(GroupFunction(g4, [1, 0, -1, 0]))
    assert is_posdef(GroupFunction(g4, [1, -1, 1, -1]))
    g3 = make_group([3])
    f = GroupFunction(g3, [1, -1, -1])
    assert dft(f).real.min() < -0.9  # fhat(chi_0) = -1
    assert not is_posdef(f)


def test_character_spectrum_concentrated():
    g4 = make_group([4])
    spec = dft(GroupFunction(g4, [1, -1, 1, -1])).real
    assert spec[2] == pytest.approx(4.0)
    assert np.allclose(np.delete(spec, 2), 0.0, atol=1e-12)


def test_eigenvalue_oracle_agreement():
    # acceptance criterion 7 runs 500 cases; keep a quick slice here
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(2, 17))
        g = make_group([n], "counting")
        f = random_symmetric(g, rng)
        mat = f.values[g.sub_index(np.arange(n)[:, None], np.arange(n)[None, :])]
        eig_ok = np.linalg.eigvalsh(mat).min() >= -1e-9
        assert is_posdef(f, tol=1e-9) == eig_ok


def test_posdef_bounded_by_value_at_zero():
    rng = np.random.default_rng(1)
    for _ in range(60):
        g = make_group([int(rng.integers(2, 14))], "counting")
        f = random_posdef(g, rng)
        assert is_posdef(f)
        assert f.values.max() <= f.values[0] + 1e-9


def test_autocorrelation_examples():
    g4 = make_group([4], "counting")
    f = autocorrelation([0, 1], g4)
    assert np.allclose(f.values, [2, 1, 0, 1])

    g = make_group([5], 0.25)
    f = autocorrelation([0], g)
    expect = np.zeros(5)
    expect[0] = 0.25
    assert np.allclose(f.values, expect)

    g6 = make_group([6], "probability")
    f = autocorrelation([0, 3], g6)
    assert f.values[0] == pytest.approx(2 / 6)
    assert f.values[3] == pytest.approx(2 / 6)
    assert np.allclose(f.values[[1, 2, 4, 5]], 0.0)


def test_autocorrelation_invariants():
    rng = np.random.default_rng(9)
    for _ in range(40):
        orders = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))]
        g = make_group(orders, float(rng.uniform(0.2, 2.0)))
        size = int(rng.integers(1, g.size + 1))
        a = sorted(int(i) for i in rng.permutation(g.size)[:size])
        a_idx = np.asarray(a)
        f = autocorrelation(a_idx, g)
        assert is_posdef(f, tol=1e-12)
        assert f.values[0] == pytest.approx(g.weight * len(a))
        assert g.weight * f.values.sum() == pytest.approx((g.weight * len(a)) ** 2)
        # direct set-intersection count oracle
        aset = set(a)
        for x in range(g.size):
            shifted = {int(g.index_of(g.coords[e] + g.coords[x])) for e in a}
            assert f.values[x] == pytest.approx(g.weight * len(aset & shifted))


def test_autocorrelation_empty_rejected():
    with pytest.raises(ValueError):
        autocorrelation([], make_group([4]))


# Schur's product theorem: a pointwise product of positive definite functions
# is positive definite

def test_schur_product_characters():
    g = make_group([8], "counting")
    x = np.arange(8)
    f = np.cos(2 * np.pi * x / 8)
    h = np.cos(2 * np.pi * 3 * x / 8)
    assert is_posdef(GroupFunction(g, f * h), tol=1e-12)


def test_schur_closure_200_random_pairs():
    rng = np.random.default_rng(77)
    for _ in range(200):
        g = make_group([int(rng.integers(2, 17))], "counting")
        f, h = random_posdef(g, rng), random_posdef(g, rng)
        assert is_posdef(f, tol=0.0) and is_posdef(h, tol=0.0)
        assert is_posdef(GroupFunction(g, f.values * h.values), tol=1e-9)
