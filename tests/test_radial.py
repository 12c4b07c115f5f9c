import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

import pdextremal.radial as radial
from pdextremal.radial import (
    bessel_first_zero,
    bessel_j,
    ball_char_transform,
    gorbachev_H_grid,
    gorbachev_H_report,
    gorbachev_tail_model,
    hankel_grid,
    TAIL_START,
    TailModel,
    yudin_Y,
    yudin_hat_grid,
    yudin_sign_check,
    yudin_tail_model,
)


# -- independent oracles -----------------------------------------------------

def j0_series(t: float) -> float:
    """Ascending power series of J_0 (test oracle, independent of scipy)."""
    term, total, k = 1.0, 1.0, 0
    while abs(term) > 1e-18:
        k += 1
        term *= -(t * t) / (4.0 * k * k)
        total += term
    return total


def j0_first_zero_bisect() -> float:
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if j0_series(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- normalized Bessel functions ---------------------------------------------

def test_half_integer_closed_forms():
    ts = np.linspace(0.01, 20, 200)
    assert np.allclose(bessel_j(0.5, ts), np.sin(ts) / ts, atol=1e-13)
    assert np.allclose(bessel_j(-0.5, ts), np.cos(ts), atol=1e-13)
    assert bessel_j(0.5, math.pi) == pytest.approx(0.0, abs=1e-14)
    assert bessel_j(-0.5, 0.0) == 1.0


def test_value_at_zero_is_one():
    for alpha in (-0.5, 0.0, 0.5, 1.0, 2.5):
        assert bessel_j(alpha, 0.0) == 1.0


def test_j0_against_series_oracle():
    for t in (0.3, 1.0, 2.0, 5.0, 9.0):
        assert bessel_j(0.0, t) == pytest.approx(j0_series(t), abs=1e-12)


def test_first_zeros():
    assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-10)
    assert bessel_first_zero(-0.5) == pytest.approx(math.pi / 2, abs=1e-10)
    assert bessel_first_zero(0.0) == pytest.approx(j0_first_zero_bisect(), abs=1e-9)
    assert bessel_first_zero(0.0) == pytest.approx(2.404825557695773, abs=1e-9)
    assert bessel_j(0.0, 2.404825557695773) == pytest.approx(0.0, abs=1e-10)


def test_first_zero_is_scipy_brentq_bit_for_bit(monkeypatch):
    # bessel_first_zero calls brentq's compiled entry point; it must return
    # the bits of scipy.optimize.brentq(..., xtol=1e-13) on the same bracket
    # for every dimension the CLI accepts
    zeros = radial._zeros
    brackets = []

    def _brentq(f, a, b, *rest):
        brackets.append((a, b))
        return zeros._brentq(f, a, b, *rest)

    monkeypatch.setattr(radial, "_zeros", SimpleNamespace(_brentq=_brentq))
    for d in range(1, 65):
        alpha = d / 2 - 1
        brackets.clear()
        q = bessel_first_zero.__wrapped__(alpha)  # past the cache, so the call is made
        [(a, b)] = brackets
        assert q == brentq(lambda x: bessel_j(alpha, x), a, b, xtol=1e-13), d
        assert q == bessel_first_zero(alpha)


def test_zeros_increase_with_order():
    qs = [bessel_first_zero(a) for a in (-0.5, 0.0, 0.5, 1.0, 1.5)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_order_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-0.6, 1.0)
    with pytest.raises(ValueError):
        bessel_first_zero(-0.75)


def test_nonfinite_orders_rejected():
    # NaN went through jv without a word, and at inf the first-zero scan had no end
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="is not finite"):
            bessel_j(alpha, 1.0)
        with pytest.raises(ValueError, match="is not finite"):
            bessel_first_zero(alpha)


def test_nonfinite_arguments_rejected():
    for alpha in (-0.5, 0.0, 0.5):
        for bad in (math.nan, math.inf, -math.inf, [1.0, math.nan], [math.inf, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="argument must be finite and nonnegative"):
                    bessel_j(alpha, bad)


# every argument the tables use (s * u <= 3 * 600), on both sides of X0(alpha)
# for every order below
ORACLE_POINTS = np.concatenate([np.geomspace(1e-6, 2000.0, 200), np.linspace(0.5, 2000.0, 200)])


def j_mpmath(alpha: float, t: float) -> float:
    """Gamma(alpha+1) (2/t)^alpha J_alpha(t) at 40 digits (test oracle)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        return float(mpmath.gamma(alpha + 1) * (2 / t) ** alpha * mpmath.besselj(alpha, t))


def j_scipy_jv(alpha: float, t):
    """Gamma(alpha+1) (2/t)^alpha jv(alpha, t), the jv formula of bessel_j."""
    return math.gamma(alpha + 1) * (2 / t) ** alpha * jv(alpha, t)


@pytest.mark.parametrize("alpha, bound", [
    (-0.5, 2.5e-16),  # closed forms: about one ulp of 1
    (0.5, 2.5e-16),
    (0.0, 2.5e-16),   # jv below X0, at the level it reaches with scipy 1.17.1
    (1.5, 5e-15),
    # jv below X0 and Hankel's expansion from X0 on: bounded by jv's own error
    (1.0, None),
    (2.5, None),
    (5.0, None),
    (9.0, None),
    (31.0, None),
])
def test_bessel_j_against_mpmath(alpha, bound):
    want = np.array([j_mpmath(alpha, t) for t in ORACLE_POINTS])
    err = np.abs(bessel_j(alpha, ORACLE_POINTS) - want)
    if alpha in (-0.5, 0.5):  # jv's j_{1/2}(1e17) is -8.9e-18, not -4.6e-18
        far = j_mpmath(alpha, 1e17)
        assert abs(bessel_j(alpha, 1e17) - far) <= 1e-15 * abs(far)
    else:
        jv_err = np.abs(j_scipy_jv(alpha, ORACLE_POINTS) - want)
        if bound is None:
            bound = np.max(jv_err)
        # from X0 on, in units of the envelope A t^(-alpha-1/2) that the oscillation
        # fills, no larger than jv's error at the same points
        x0 = radial._hankel_expansion(alpha)[0]
        hankel = ORACLE_POINTS >= x0
        assert 100 <= np.count_nonzero(hankel) <= 300
        envelope = radial._asym_constants(alpha)[0] * ORACLE_POINTS[hankel] ** (-alpha - 0.5)
        assert np.max(err[hankel] / envelope) <= np.max(jv_err[hankel] / envelope)
    assert np.max(err) <= bound


def test_jv_never_called_from_x0_on(monkeypatch):
    # every order but -1/2 and 1/2 takes Hankel's expansion for t >= X0(alpha);
    # below X0, order 1 takes j1, order 0 takes j0 from t = 2 on and jv below
    calls = []

    def stub_jv(alpha, t):
        x0 = radial._hankel_expansion(alpha)[0]
        assert np.all(np.asarray(t) < x0), f"jv called at order {alpha} with t >= X0 = {x0}"
        assert alpha != 1.0, "jv called at order 1"
        if alpha == 0.0:
            assert np.all(np.asarray(t) < 2.0), "jv called at order 0 with t >= 2"
        calls.append(alpha)
        return scipy_jv(alpha, t)

    def stub_j0(t):
        x0 = radial._hankel_expansion(0.0)[0]
        assert np.all((np.asarray(t) >= 2.0) & (np.asarray(t) < x0)), "j0 outside [2, X0(0))"
        calls.append("j0")
        return scipy_j0(t)

    def stub_j1(t):
        x0 = radial._hankel_expansion(1.0)[0]
        assert np.all(np.asarray(t) < x0), "j1 called with t >= X0(1)"
        calls.append("j1")
        return scipy_j1(t)

    scipy_jv, scipy_j0, scipy_j1 = radial.jv, radial.j0, radial.j1
    monkeypatch.setattr(radial, "jv", stub_jv)
    monkeypatch.setattr(radial, "j0", stub_j0)
    monkeypatch.setattr(radial, "j1", stub_j1)
    orders = (0.0, 1.0, 1.5, 2.5, 5.0, 9.0, 31.0, 32.0)
    for alpha in orders:
        assert np.all(np.isfinite(bessel_j(alpha, ORACLE_POINTS)))
    grid = np.linspace(0.0, 3.0, 7)
    assert np.all(np.isfinite(yudin_hat_grid(2, grid)))
    assert np.all(np.isfinite(yudin_Y(2, np.linspace(0.0, 30.0, 301))))
    values, _ = gorbachev_H_grid(2, np.linspace(4.0, 8.0, 5))
    assert np.all(np.isfinite(values))
    assert np.all(np.isfinite(ball_char_transform(2, np.linspace(0.0, 30.0, 301))))
    # the stubs saw each order below its X0: jv every order but 1, which j1 serves
    assert set(calls) == set(orders) - {1.0} | {"j0", "j1"}


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 1.5, 5.0, 31.0])
def test_a_point_gets_its_bits_whatever_the_other_points(alpha):
    # a call inside one interval runs its kernel on the whole array, a sorted
    # call across intervals runs each kernel on a slice, and any other call is
    # sorted first; each gives every point the bits of a call on that point alone
    starts = radial._j_intervals(alpha)[0]
    expansion = radial._hankel_expansion(alpha)
    assert starts[:2] == (0.0, 1e-6)
    assert (radial._J0_FROM in starts) == (alpha == 0.0)
    if alpha in (-0.5, 0.5):
        assert len(starts) == 2
    else:
        # Hankel's stages: X0 starts the first, the starts increase strictly,
        # and each stage keeps ceil(n / 2) of the n pairs before it, down to 1
        stages = expansion[5]
        assert stages[0] == (expansion[0], len(expansion[1]))
        assert starts[-len(stages):] == tuple(start for start, _ in stages)
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert [n for _, n in stages[1:]] == [(n + 1) // 2 for _, n in stages[:-1]]
        assert stages[-1][1] == 1
    rng = np.random.default_rng(30)
    edges = [*starts, 2.0 * starts[-1] + 10.0]
    inside = [np.concatenate([[lo, lo], rng.uniform(lo, hi, 300), [lo]])
              for lo, hi in zip(edges, edges[1:])]
    ordered = np.sort(np.concatenate(inside))
    spanning = rng.permutation(ordered)
    for t in [*inside, ordered, spanning, spanning[:300].reshape(20, 15)]:
        want = np.array([bessel_j(alpha, x) for x in t.ravel()]).reshape(t.shape)
        assert np.array_equal(bessel_j(alpha, t).view(np.int64), want.view(np.int64))
    assert bessel_j(alpha, np.empty(0)).shape == (0,)
    assert bessel_j(alpha, np.empty((0, 3))).shape == (0, 3)
    zero_d = bessel_j(alpha, np.array(starts[-1]))
    assert type(zero_d) is float and zero_d == bessel_j(alpha, [starts[-1]])[0]


def test_hankel_stages_halve_at_every_order_the_commands_use():
    # j_(d/2-1), j_(d/2) and j_(d/2+1) for d = 1..64: every stage start lies
    # beyond the one before, and each stage keeps ceil(n / 2) of n pairs
    for alpha in sorted({d / 2 + k for d in range(1, 65) for k in (-1, 0, 1)} - {-0.5, 0.5}):
        stages = radial._hankel_expansion(alpha)[5]
        assert all(a < b for (a, _), (b, _) in zip(stages, stages[1:])), alpha
        assert [n for _, n in stages[1:]] == [(n + 1) // 2 for _, n in stages[:-1]], alpha
        assert stages[-1][1] == 1, alpha


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 5.0, 31.0])
def test_each_hankel_stage_no_worse_than_all_pairs(alpha):
    # 400 points on each stage's interval, up to t = 1e4: the stage's worst
    # error against mpmath, in units of the envelope A t^(-alpha-1/2), is at
    # most that of the expansion with all n0 pairs on the same points plus one
    # ulp of the envelope
    expansion = radial._hankel_expansion(alpha)
    stages = expansion[5]
    ends = [start for start, _ in stages[1:]] + [math.inf]
    amp = radial._asym_constants(alpha)[0]
    checked = 0
    for (lo, pairs), hi in zip(stages, ends):
        if lo >= 1e4:
            break
        t = np.linspace(lo, min(hi, 1e4), 401)[:-1]
        want = np.array([j_mpmath(alpha, x) for x in t])
        envelope = amp * t ** (-alpha - 0.5)
        stage = radial._hankel_j(alpha, t, expansion, pairs)
        assert np.array_equal(stage, bessel_j(alpha, t))
        full = radial._hankel_j(alpha, t, expansion, len(expansion[1]))
        worst = np.max(np.abs(stage - want) / envelope)
        assert worst <= np.max(np.abs(full - want) / envelope) + 2.0**-52, (lo, pairs)
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 5.0, 31.0])
def test_first_zero_is_the_scalar_scan_bit_for_bit(alpha):
    # the scan t += 0.1 one point a call, then brentq on its first sign change
    step = 0.1
    t_prev = step
    limit = alpha + 20.0 + 2.0 * max(alpha, 0.0) ** (1.0 / 3.0)
    f_prev = bessel_j(alpha, t_prev)
    t = t_prev
    while t < limit:
        t += step
        f = bessel_j(alpha, t)
        if f_prev > 0 >= f:
            break
        t_prev, f_prev = t, f
    want = brentq(lambda x: bessel_j(alpha, x), t_prev, t, xtol=1e-13)
    assert bessel_first_zero.__wrapped__(alpha) == want


# bands of t below X0 (18.40 at order 0, 18.42 at order 1)
DENSE_BANDS = (1e-6, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0)


@pytest.mark.parametrize("alpha, start", [(0.0, 2.0), (1.0, 1e-6)])
def test_order_specific_kernels_no_worse_than_jv(alpha, start):
    # j0 (order 0, from t = 2) and j1 (order 1) against mpmath, 2,000 points a
    # band: in each band, bessel_j's worst error is at most the jv formula's
    x0 = radial._hankel_expansion(alpha)[0]
    edges = [e for e in DENSE_BANDS if e >= start] + [x0]
    for lo, hi in zip(edges, edges[1:]):
        t = (np.geomspace if lo < 0.1 else np.linspace)(lo, hi, 2001)[:-1]
        want = np.array([j_mpmath(alpha, x) for x in t])
        err = np.max(np.abs(bessel_j(alpha, t) - want))
        assert err <= np.max(np.abs(j_scipy_jv(alpha, t) - want)), f"band [{lo}, {hi})"


def test_closed_form_orders_never_reach_jv(monkeypatch):
    # orders -1/2 and 1/2 are cos t and sin t / t; the stub passes any other
    # order on to scipy
    scipy_jv = radial.jv

    def jv(alpha, t):
        assert alpha not in (-0.5, 0.5), f"jv called at order {alpha}"
        return scipy_jv(alpha, t)

    monkeypatch.setattr(radial, "jv", jv)
    grid = np.linspace(0.0, 3.0, 7)
    for d in (1, 3):
        assert np.all(np.isfinite(yudin_hat_grid(d, grid)))
    assert np.all(np.isfinite(yudin_Y(3, grid)))
    values, _ = gorbachev_H_grid(1, np.linspace(4.0, 8.0, 5))
    assert np.all(np.isfinite(values))
    assert np.all(np.isfinite(ball_char_transform(1, grid)))


def test_derivative_identity_finite_differences():
    # d/du (u^{2a} j_a(su)) = 2a u^{2a-1} j_{a-1}(su)
    rng = np.random.default_rng(12)
    h = 1e-5
    for _ in range(50):
        alpha = float(rng.uniform(0.6, 3.5))
        s = float(rng.uniform(0.2, 4.0))
        u = float(rng.uniform(0.3, 8.0))

        def lhs_fn(x):
            return x ** (2 * alpha) * float(bessel_j(alpha, s * x))

        num = (lhs_fn(u + h) - lhs_fn(u - h)) / (2 * h)
        exact = 2 * alpha * u ** (2 * alpha - 1) * float(bessel_j(alpha - 1, s * u))
        assert num == pytest.approx(exact, rel=1e-6, abs=1e-10)


# -- Yudin bump ----------------------------------------------------------------

def test_yudin_values():
    assert yudin_Y(3, 0.0) == pytest.approx(1.0, abs=1e-14)
    q = bessel_first_zero(1 / 2 - 1)  # d = 1
    assert yudin_Y(1, q) == pytest.approx(0.0, abs=1e-14)
    assert yudin_Y(1, math.pi) == pytest.approx(-1 / 3, rel=1e-12)


def test_yudin_removable_singularity_patch():
    # the first-order patch is value-continuous across the seam and exact at q
    for d in (1, 2, 3):
        q = bessel_first_zero(d / 2 - 1)
        assert yudin_Y(d, q) == pytest.approx(0.0, abs=1e-14)
        seam = 1e-4 * q
        for sgn in (-1.0, 1.0):
            t = q + sgn * 0.99 * seam  # inside the patched window
            patched = float(yudin_Y(d, t))
            direct = float(bessel_j(d / 2 - 1, t)) ** 2 / (1.0 - (t / q) ** 2)
            # first-order patch: O(seam) relative, O(1e-8) absolute near the zero
            assert patched == pytest.approx(direct, rel=5e-4, abs=2e-8)
            assert np.sign(patched) == -sgn  # positive before q, negative after
        ts = q + np.linspace(-3e-4, 3e-4, 41)
        vals = np.atleast_1d(yudin_Y(d, ts))
        assert np.all(np.diff(vals) < 0)  # strictly decreasing through the zero


def test_yudin_sign_property():
    grid = np.arange(0.0, 30.0001, 0.01)
    for d in (1, 2, 3):
        rep = yudin_sign_check(d, grid)
        assert rep["pass"], rep
    assert yudin_sign_check(2, np.asarray([0.0]))["pass"]


# -- the ball transform ---------------------------------------------------------

def test_ball_transform_values():
    assert ball_char_transform(1, 1e-13) == pytest.approx(2.0, abs=1e-12)
    assert ball_char_transform(2, 0.0) == pytest.approx(math.pi, abs=1e-14)
    assert ball_char_transform(1, math.pi) == pytest.approx(0.0, abs=1e-14)


def direct_ball_ft_1d(s: float) -> float:
    x, w = np.polynomial.legendre.leggauss(80)
    return float(w @ np.cos(s * x))  # integral over [-1,1] of e^{-isx}, real part


def direct_ball_ft_2d(s: float) -> float:
    # polar tensor rule: smooth in r, periodic in theta
    r_nodes, r_w = np.polynomial.legendre.leggauss(60)
    r = 0.5 * (r_nodes + 1.0)
    theta = np.linspace(0.0, 2 * math.pi, 257)[:-1]
    vals = np.cos(s * np.outer(r, np.cos(theta)))
    inner = vals.mean(axis=1) * 2 * math.pi
    return float((0.5 * r_w) @ (inner * r))


def test_ball_transform_matches_direct_integration():
    for s in np.linspace(0.0, 10.0, 21):
        assert ball_char_transform(1, s) == pytest.approx(direct_ball_ft_1d(s), abs=1e-8)
        assert ball_char_transform(2, s) == pytest.approx(direct_ball_ft_2d(s), abs=1e-8)


# -- Hankel transform -------------------------------------------------------------

NO_TAIL = TailModel(TAIL_START, ())  # no terms: the profile is cut at T_MAX

def test_hankel_ball_indicator():
    # radial Fourier connection: fhat(s) = (2 pi)^{d/2} (H_{d/2-1} chi_[0,1])(s)
    for d in (1, 2):
        alpha = d / 2 - 1
        for s in (0.5, 1.0, 3.0, 7.0):
            got = (2 * math.pi) ** (d / 2) * hankel_grid(
                lambda u: (u <= 1.0).astype(float), alpha, [s], NO_TAIL)[0][0]
            assert got == pytest.approx(float(ball_char_transform(d, s)), abs=1e-7)


def test_hankel_zero_profile():
    assert hankel_grid(lambda u: np.zeros_like(u), 0.5, [1.3], NO_TAIL)[0][0] == 0.0


def test_hankel_reports_refinement_difference():
    values, info = hankel_grid(lambda u: np.exp(-u), 0.0, [1.0], NO_TAIL)
    assert list(info) == ["max_refinement_diff"] and info["max_refinement_diff"] >= 0.0
    assert values[0] == pytest.approx((1 + 1.0**2) ** -1.5, abs=1e-9)  # known transform


def test_hankel_rejects_unresolvable_integrand():
    from pdextremal.radial import QuadratureError

    # phase ~ u^3 oscillates far below any fixed panel resolution near T_MAX
    with pytest.raises(QuadratureError):
        hankel_grid(lambda u: np.sin(u**3), 0.0, [1.0], NO_TAIL)


_RADIAL_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import pdextremal.radial
print(json.dumps([m for m in ("pdextremal.lp", "scipy.optimize._highspy._core")
                  if m in sys.modules]))
"""


def test_radial_loads_no_lp_and_no_highs():
    # a fresh interpreter, so nothing an earlier test imported counts; cli
    # maps QuadratureError to exit 3 as the ArithmeticError it is
    src = os.path.dirname(os.path.dirname(radial.__file__))
    done = subprocess.run([sys.executable, "-c", _RADIAL_IMPORT_PROBE, src],
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
    assert issubclass(radial.QuadratureError, ArithmeticError)


def test_transforms_reject_nonpositive_dimension():
    for d in (0, -1):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            yudin_hat_grid(d, [0.5])
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            gorbachev_H_grid(d, [5.0])


# s = 0 (closed form), s * 30 < 1 (geometric panels of the constant-term tail
# integral), the CLI's hankel grid, and s * 30 >= 400 (asymptotics only)
MIXED_GRID = np.concatenate([[0.0, 0.01, 0.02], np.arange(0.0, 3.0 + 0.025, 0.05), [14.0, 20.0]])

# (d, s, value) from the per-s tail integration that preceded the shared panel set
YUDIN_HAT_PINS = (
    (1, 0.01, 0.015461508646220477),
    (1, 20.0, 4.8251770860821456e-11),
    (2, 0.0, 1.6973921886098697e-08),
    (2, 1.5, 0.44065497464651104),
    (3, 0.02, 0.06182829607292422),
    (3, 14.0, -2.8716417078795983e-11),
)


def assert_close(got, want):
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)


def test_yudin_hat_grid_matches_pointwise():
    for d in (1, 2, 3):
        vals = yudin_hat_grid(d, MIXED_GRID)
        for s, v in zip(MIXED_GRID, vals):
            assert_close(v, yudin_hat_grid(d, [s])[0])
        for pin_d, s, want in YUDIN_HAT_PINS:
            if pin_d == d:
                assert_close(vals[int(np.argmin(np.abs(MIXED_GRID - s)))], want)


def test_hankel_grid_gorbachev_tail_matches_pointwise():
    # every constant term of the H model has exponent q = 2 alpha + 1 - p <= -2
    d = 1
    model = gorbachev_tail_model(d)
    assert all(2 * (d / 2 - 1) + 1 - t.power <= -2 for t in model.terms if t.kind == "const")

    def h_profile(u):
        return gorbachev_H_grid(d, u)[0]

    s_grid = [0.0, 0.01, 0.7, 14.0]
    vals, _ = hankel_grid(h_profile, d / 2 - 1, s_grid, tail=model)
    for s, v in zip(s_grid, vals):
        assert_close(v, hankel_grid(h_profile, d / 2 - 1, [s], tail=model)[0][0])
    assert_close(vals[2], 1.4214240562851137)
    assert_close(vals[3], -4.434181762450629e-09)


def test_yudin_hat_properties():
    s_grid = np.linspace(0.0, 3.0, 61)
    for d in (1, 2, 3):
        vals = yudin_hat_grid(d, s_grid)
        assert np.min(vals) >= -1e-5
        assert abs(vals[0]) <= 1e-5
        beyond = s_grid > 2.05
        assert np.max(np.abs(vals[beyond])) <= 1e-4


def test_hy_connection():
    s_grid = np.linspace(0.0, 3.0, 31)
    for d in (1, 2):
        def h_profile(u, d=d):
            vals, _ = gorbachev_H_grid(d, u)
            return vals

        lhs, _ = hankel_grid(h_profile, d / 2 - 1, s_grid,
                             tail=gorbachev_tail_model(d))
        rhs, _ = hankel_grid(lambda u: np.atleast_1d(yudin_Y(d + 2, u)), d / 2,
                             s_grid, tail=yudin_tail_model(d + 2))
        assert np.max(np.abs(lhs - rhs)) <= 1e-5


# -- Gorbachev H --------------------------------------------------------------

def test_gorbachev_H_properties():
    for d in (1, 2, 3):
        rep = gorbachev_H_report(d)
        assert rep["negative_beyond_first_zero"], rep
        assert rep["nondecreasing"], rep
        assert rep["scaled_bounded_below"], rep


def test_gorbachev_H_matches_direct_quadrature():
    # independent check on a narrow window: integrate t Y_3(t) on [t, 2000]
    d = 1
    for t in (2.0, 5.0, 12.0):
        xs = np.linspace(t, 2000.0, 400001)
        direct = np.trapezoid(xs * np.atleast_1d(yudin_Y(d + 2, xs)), xs)
        assert gorbachev_H_grid(d, [t])[0][0] == pytest.approx(float(direct), abs=5e-4)


def test_gorbachev_H_derivative_is_minus_tY():
    d = 2
    h = 1e-4
    for t in (3.0, 6.0, 9.5):
        num = (gorbachev_H_grid(d, [t + h])[0][0] - gorbachev_H_grid(d, [t - h])[0][0]) / (2 * h)
        assert num == pytest.approx(-t * float(yudin_Y(d + 2, t)), abs=1e-6)
