import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from pdextremal.trinomial import (
    Z_MAX,
    Trinomial,
    _golden_max,
    _objective,
    construction_spectrum,
    critical_coeffs,
    example51_comparison,
    example51_lower_bound,
    is_nonneg,
    optimize_trinomial,
)


def test_z_zero_limit():
    t = critical_coeffs(0.0)
    assert t.a == pytest.approx(16 / 15, abs=1e-15)
    assert t.b == pytest.approx(1 / 15, abs=1e-15)
    assert t.value_at_zero() == pytest.approx(2 + 2 / 15, abs=1e-12)


def test_z_quarter_pi_endpoint():
    t = critical_coeffs(math.pi / 4)
    assert t.a == pytest.approx(0.0, abs=1e-12)
    assert t.b == pytest.approx(1.0, abs=1e-12)
    assert is_nonneg(t)["pass"]


def test_coeffs_at_truncated_z():
    # evaluating the family at the rounded parameter 0.628 gives the commonly
    # quoted approximate pair
    t = critical_coeffs(0.628)
    assert t.a == pytest.approx(0.989286995, abs=1e-9)
    assert t.b == pytest.approx(0.246780732, abs=1e-9)


def test_domain_and_singularity_guards():
    with pytest.raises(ValueError):
        critical_coeffs(-0.1)
    with pytest.raises(ValueError):
        critical_coeffs(1.0)
    # d(z) = 15 z + O(z^3) stays positive on (0, pi/4]; no singular point exists
    zs = np.linspace(1e-9, math.pi / 4, 10000)
    d = 4 * np.cos(zs) * np.sin(4 * zs) - np.cos(4 * zs) * np.sin(zs)
    assert np.min(d) > 1e-12


@pytest.mark.parametrize("z", [6e-14, 1e-20, 1e-300, 5e-324])
def test_tiny_z_gives_the_limit_coefficients(z):
    # d(z) is about 15 z near 0, so the quotients keep their digits down to
    # the smallest subnormal
    t = critical_coeffs(z)
    assert t.a == 16 / 15 and t.b == 1 / 15


def test_is_nonneg_examples():
    assert is_nonneg(Trinomial(0.0, 0.0))["min_value"] == pytest.approx(1.0)
    assert is_nonneg(critical_coeffs(0.0))["pass"]
    rep = is_nonneg(Trinomial(2.0, 0.0))
    assert not rep["pass"]
    assert rep["min_value"] == pytest.approx(-1.0, abs=1e-12)
    assert rep["argmin"] == pytest.approx(math.pi, abs=1e-6)
    # |a| > 16|b|: the derivative has no root on [-1, 1], and a/b would overflow
    assert is_nonneg(Trinomial(1.0, 5e-324)) == {"pass": True, "min_value": 5e-324,
                                                 "argmin": math.pi}


def test_is_nonneg_is_exact_at_the_optimum():
    # the optimizer's trinomial touches 0 near t = 4 pi / 5; mpmath finds the
    # root of its derivative for the coefficients as computed
    mpmath = pytest.importorskip("mpmath")
    tri = optimize_trinomial()["coeffs"]
    rep = is_nonneg(tri)
    with mpmath.workdps(40):
        a, b = mpmath.mpf(tri.a), mpmath.mpf(tri.b)
        root = mpmath.findroot(lambda t: a * mpmath.sin(t) + 4 * b * mpmath.sin(4 * t),
                               4 * mpmath.pi / 5)
        assert abs(rep["argmin"] - root) <= 1e-15
    assert abs(rep["min_value"]) <= 1e-15


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_is_nonneg_is_the_minimum(a, b):
    tri = Trinomial(a, b)
    rep = is_nonneg(tri)
    assert 0.0 <= rep["argmin"] <= math.pi
    assert rep["min_value"] == tri(rep["argmin"])
    assert np.min(tri(np.linspace(0.0, math.pi, 4097))) >= rep["min_value"] - 1e-12
    assert rep["pass"] == (rep["min_value"] >= -1e-9)


def test_optimize_value_and_z():
    opt = optimize_trinomial()
    assert opt["value"] == pytest.approx(2.2361, abs=5e-4)
    assert opt["z_star"] == pytest.approx(0.628, abs=5e-3)
    assert opt["value"] == pytest.approx(math.sqrt(5.0), abs=1e-10)
    assert opt["value"] > 2 + 2 / 15
    assert is_nonneg(opt["coeffs"])["pass"]


def test_optimizer_beats_endpoints():
    opt = optimize_trinomial()
    assert opt["value"] >= critical_coeffs(0.0).value_at_zero()
    assert opt["value"] >= critical_coeffs(math.pi / 4).value_at_zero()


def test_family_touches_zero_along_grid():
    for z in np.linspace(0.0, math.pi / 4, 250):
        rep = is_nonneg(critical_coeffs(float(z)))
        assert -1e-9 <= rep["min_value"] <= 1e-6


def test_example51_lower_bound():
    rep = example51_lower_bound()
    assert rep["bound"] == pytest.approx(2.2361, abs=5e-4)
    assert all(rep["checks"].values())
    xs, phi = rep["grid"], rep["profile"]
    i4 = np.argmin(np.abs(xs - 4.0))
    assert phi[i4] == pytest.approx(rep["coeffs"].b / 2, abs=1e-14)
    assert phi[np.argmin(np.abs(xs - 2.5))] == 0.0
    assert phi[np.argmin(np.abs(xs + 2.5))] == 0.0


def test_profile_transform_matches_closed_form():
    # quadrature transform of the grid profile against the closed-form product
    rep = example51_lower_bound()
    xs, phi = rep["grid"], rep["profile"]
    for t in np.linspace(0.0, 20.0, 41):
        numeric = np.trapezoid(phi * np.cos(t * xs), xs)
        closed = construction_spectrum(rep["coeffs"], np.asarray([t]))[0]
        assert numeric == pytest.approx(closed, abs=1e-4)


def test_spectrum_nonnegative_on_long_range():
    tri = optimize_trinomial()["coeffs"]
    ts = np.linspace(0.0, 100.0, 40001)
    assert np.min(construction_spectrum(tri, ts)) >= -1e-9


def test_example51_comparison():
    rep = example51_comparison()
    assert rep["pass"]
    for entry in rep["w_constant_values"]:
        assert entry["value"] == pytest.approx(2.0, abs=1e-8)
    assert rep["q_lower_bound"] > 2.0
    assert float(rep["q_density"]) == pytest.approx(0.4)
    assert rep["density_strictly_smaller"]
    assert rep["density_witness"] == {"period": 5, "residues": [0, 2]}


@pytest.mark.parametrize("f, bracket", [
    (_objective, "grid"),
    (lambda x: -abs(x - 0.3), (-0.2, 0.5, 0.8)),  # the initial split on the left
    (math.sin, (1.0, 1.4, 2.5)),                  # and on the right
])
def test_golden_max_is_scipy_golden_bit_for_bit(f, bracket):
    if bracket == "grid":  # the bracket optimize_trinomial refines
        zs = np.linspace(0.0, Z_MAX, 2001)
        i = int(np.argmax([_objective(z) for z in zs]))
        bracket = (zs[i - 1], zs[i], zs[i + 1])
    expected = minimize_scalar(lambda x: -f(x), bracket=bracket, method="golden",
                               options={"xtol": 1e-12}).x
    assert _golden_max(f, bracket, xtol=1e-12) == expected


def test_optimum_keeps_its_bits():
    assert optimize_trinomial()["z_star"] == 0.6283185199079513
