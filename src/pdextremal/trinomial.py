"""Extremal nonnegative cosine trinomials 1 + a cos t + b cos 4t.

The one-parameter critical family h_z, its 1-D maximization, and the
triangle-times-atomic-measure construction that turns the optimal trinomial
into a lower bound for the two-set constant of
Q = (-5,-3) u (-2,2) u (3,5) on the real line.

Convention: the triangle (1-|t|)_+ equals the self-convolution of the
indicator of [-1/2, 1/2]; under the e^{-ist} transform its spectrum is
(sin(t/2)/(t/2))^2.  Only nonnegativity and self-consistency of that product
form are asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z_MAX = math.pi / 4


class ConstructionError(RuntimeError):
    """A verification step of the lower-bound construction failed."""


@dataclass(frozen=True)
class Trinomial:
    a: float
    b: float

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        return 1.0 + self.a * np.cos(t) + self.b * np.cos(4.0 * t)

    def value_at_zero(self) -> float:
        return 1.0 + self.a + self.b

    def to_json(self) -> dict:
        return {"a": float(self.a), "b": float(self.b)}


def _denominator(z: float) -> float:
    return 4.0 * math.cos(z) * math.sin(4.0 * z) - math.cos(4.0 * z) * math.sin(z)


def critical_coeffs(z: float) -> Trinomial:
    """Coefficients a(z) = 4 sin(4z)/d(z), b(z) = sin(z)/d(z) of the critical family.

    At z = 0 the coefficients are taken by their limits 16/15 and 1/15.
    """
    if not (0.0 <= z <= Z_MAX + 1e-15):
        raise ValueError(f"z = {z} outside [0, pi/4]")
    if z == 0.0:
        return Trinomial(16.0 / 15.0, 1.0 / 15.0)
    d = _denominator(z)  # at least 0.9 z on (0, pi/4]: about 15 z near 0, sqrt(2)/2 at pi/4
    return Trinomial(4.0 * math.sin(4.0 * z) / d, math.sin(z) / d)


def is_nonneg(tri: Trinomial) -> dict:
    """Grid minimum of the trinomial on [0, pi] (4096 points), refined by ternary search."""
    ts = np.linspace(0.0, math.pi, 4096)
    vals = tri(ts)
    i = int(np.argmin(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if tri(m1) < tri(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-14:
            break
    t_star = 0.5 * (lo + hi)
    min_value = float(min(vals[i], tri(t_star)))
    argmin = float(t_star if tri(t_star) <= vals[i] else ts[i])
    return {"pass": bool(min_value >= -1e-9), "min_value": min_value, "argmin": argmin}


def _golden_max(f, bracket, xtol: float) -> float:
    """Golden-section search for a maximum of f inside bracket = (xa, xb, xc).

    Step for step the golden method of scipy's ``minimize_scalar`` on -f, with
    its ratio 0.61803399, initial split and update order, so the result keeps
    its bits; scipy's routine is plain Python in scipy/optimize/_optimize.py,
    which cannot be imported without scipy/optimize/__init__.py.
    """
    g_r = 0.61803399
    g_c = 1.0 - g_r
    x0, xb, x3 = bracket
    if abs(x3 - xb) > abs(xb - x0):
        x1, x2 = xb, xb + g_c * (x3 - xb)
    else:
        x1, x2 = xb - g_c * (xb - x0), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1, x2 = x1, x2, g_r * x2 + g_c * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, g_r * x1 + g_c * x0
            f2, f1 = f1, f(x1)
    return x1 if f1 > f2 else x2


def _objective(z: float) -> float:
    return critical_coeffs(min(max(z, 0.0), Z_MAX)).value_at_zero()


def optimize_trinomial() -> dict:
    """Maximize 1 + a(z) + b(z) over the critical family on [0, pi/4].

    Grid scan seeds a golden-section refinement; the winner must be a
    nonnegative trinomial.
    """
    zs = np.linspace(0.0, Z_MAX, 2001)
    vals = np.array([_objective(z) for z in zs])
    i = int(np.argmax(vals))
    if 0 < i < len(zs) - 1:
        z = _golden_max(_objective, (zs[i - 1], zs[i], zs[i + 1]), xtol=1e-12)
        z_star = float(min(max(z, 0.0), Z_MAX))
    else:
        z_star = float(zs[i])
    coeffs = critical_coeffs(z_star)
    check = is_nonneg(coeffs)
    if not check["pass"]:
        raise AssertionError(
            f"optimizer produced a trinomial with minimum {check['min_value']:.3e} < -1e-9"
        )
    return {"z_star": z_star, "value": coeffs.value_at_zero(), "coeffs": coeffs,
            "nonneg_check": check}


def triangle(u):
    return np.maximum(1.0 - np.abs(u), 0.0)


def _atoms(tri: Trinomial) -> list[tuple[float, float]]:
    return [(0.0, 1.0), (1.0, tri.a / 2), (-1.0, tri.a / 2),
            (4.0, tri.b / 2), (-4.0, tri.b / 2)]


def construction_profile(tri: Trinomial, xs: np.ndarray) -> np.ndarray:
    """Phi = triangle convolved with the atomic measure, sampled on xs."""
    phi = np.zeros_like(xs)
    for center, weight in _atoms(tri):
        phi += weight * triangle(xs - center)
    return phi


def construction_spectrum(tri: Trinomial, ts: np.ndarray) -> np.ndarray:
    """Closed-form transform T(t) * (sin(t/2)/(t/2))^2 under e^{-ist}."""
    ts = np.asarray(ts, dtype=np.float64)
    kernel = np.sinc(ts / (2.0 * math.pi)) ** 2
    return tri(ts) * kernel


def example51_lower_bound() -> dict:
    """Lower bound 1 + a + b for C(Q, empty) via Phi = triangle * measure.

    Samples Phi on [-6, 6] with step 1e-3 and verifies Phi(0) = 1,
    nonnegativity, support inside the closed difference set, nonnegative
    closed-form spectrum on [0, 100], and the exact integral.
    """
    opt = optimize_trinomial()
    tri: Trinomial = opt["coeffs"]
    a, b = tri.a, tri.b
    xs = np.linspace(-6.0, 6.0, 12001)
    phi = construction_profile(tri, xs)
    checks = {}

    checks["phi_at_zero_is_one"] = phi[np.argmin(np.abs(xs))] == 1.0
    checks["phi_nonnegative"] = bool(np.min(phi) >= 0.0)

    absx = np.abs(xs)
    outside = ((absx > 2.0 + 1e-9) & (absx < 3.0 - 1e-9)) | (absx > 5.0 + 1e-9)
    checks["phi_vanishes_outside_support"] = bool(np.max(np.abs(phi[outside]), initial=0.0) == 0.0)

    ts = np.linspace(0.0, 100.0, 20001)
    checks["spectrum_nonnegative"] = bool(np.min(construction_spectrum(tri, ts)) >= -1e-9)

    integral = tri.value_at_zero()  # exact: (1 + a + b) * integral of the triangle
    trap = float(np.trapezoid(phi, xs))  # exact for the piecewise-linear grid profile
    checks["integral_consistent"] = abs(trap - integral) <= 1e-9 * integral

    checks["phi_at_4_is_b_half"] = abs(phi[np.argmin(np.abs(xs - 4.0))] - b / 2) <= 1e-15
    i25 = np.argmin(np.abs(xs - 2.5))
    checks["phi_at_pm_2_5_is_zero"] = phi[i25] == 0.0 and phi[-1 - i25] == 0.0

    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise ConstructionError(f"construction checks failed: {', '.join(failed)}")
    return {"bound": integral, "coeffs": tri, "z_star": opt["z_star"], "checks": checks,
            "grid": xs, "profile": phi}


def example51_comparison(lower_bound: dict | None = None) -> dict:
    """D(W) = 2 by the discretized tile route, against the trinomial bound for Q.

    W = (-2, 2) is the difference set of the interval tile (-1, 1); on Z_n with
    weight h it discretizes to H - H for H = {0, ..., m-1}, m * h = 2.
    lower_bound is example51_lower_bound()'s result, computed here if not given.
    """
    from fractions import Fraction

    from .density import max_density_search, tiles_strict
    from .extremal import delsarte
    from .groups import difference_set, make_group

    tile_values = []
    for h, n in ((0.5, 8), (0.5, 16), (0.25, 16), (0.25, 32)):
        m = int(round(2.0 / h))
        group = make_group([n], h)
        h_set = list(range(m))
        lam = list(range(0, n, m))
        if not tiles_strict(group, h_set, lam):
            raise ConstructionError(f"discretization H with m={m} does not tile Z_{n}")
        w_set = difference_set(h_set, h_set, group=group)
        value = delsarte(group, w_set).value
        tile_values.append({"h": h, "n": n, "value": value,
                            "pass": bool(abs(value - 2.0) <= 1e-8)})

    lb = example51_lower_bound() if lower_bound is None else lower_bound
    search = max_density_search([1, 4], max_period=10)
    report = {
        "w_constant_values": tile_values,
        "q_lower_bound": lb["bound"],
        "bound_exceeds_two": bool(lb["bound"] > 2.0),
        "q_density": search["density"],
        "w_density": Fraction(1, 2),
        "density_strictly_smaller": bool(search["density"] < Fraction(1, 2)),
        "density_witness": search["witness"].to_json(),
    }
    report["pass"] = bool(
        all(t["pass"] for t in tile_values)
        and report["bound_exceeds_two"]
        and report["density_strictly_smaller"]
    )
    return report
