"""Acceptance criteria, one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

Criterion 1's coefficient clause is implemented exactly as stated and is
expected to FAIL: the stated reference pair is the coefficient formula
evaluated at the 3-digit-truncated parameter 0.628, not at the true optimum
z* = pi/5; the optimal coefficients
(0.988854, 0.247214) differ from the stated pair by ~4.4e-4 > 1e-4, while the
optimal value sqrt(5) and z* match the stated tolerances.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from pdextremal.density import max_density_search
from pdextremal.extremal import verify_tile_theorem
from pdextremal.fuzz import SUITES
from pdextremal.groups import GroupFunction, SymSet, make_group
from pdextremal.posdef import is_posdef
from pdextremal.radial import (
    bessel_first_zero,
    bessel_j,
    gorbachev_H_grid,
    gorbachev_H_report,
    gorbachev_tail_model,
    hankel_grid,
    yudin_Y,
    yudin_hat_grid,
    yudin_sign_check,
    yudin_tail_model,
    ball_char_transform,
)
from pdextremal.trinomial import (
    critical_coeffs,
    example51_comparison,
    example51_lower_bound,
    optimize_trinomial,
)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {tag}{suffix}")
    return ok


def test_criterion_1_trinomial_optimum_value_and_z():
    t0 = time.perf_counter()
    opt = optimize_trinomial()
    elapsed = time.perf_counter() - t0
    ok_value = abs(opt["value"] - 2.2361) <= 5e-4
    ok_z = abs(opt["z_star"] - 0.628) <= 5e-3
    ok_time = elapsed < 1.0
    ok = ok_value and ok_z and ok_time
    report("1 (value, z_star, runtime)", ok,
           f"value={opt['value']:.6f} z={opt['z_star']:.6f} {elapsed:.2f}s")
    assert ok


def test_criterion_1_coefficients_as_stated():
    # stated: coefficients (0.98929, 0.24678) +- 1e-4; the faithful optimizer
    # returns the true optimum (0.988854, 0.247214) instead.  Expected RED.
    opt = optimize_trinomial()
    a, b = opt["coeffs"].a, opt["coeffs"].b
    ok = abs(a - 0.98929) <= 1e-4 and abs(b - 0.24678) <= 1e-4
    report("1 (coefficients as stated)", ok,
           f"a={a:.6f} b={b:.6f}; stated pair equals critical_coeffs(0.628), "
           "the optimum is at z*=pi/5")
    assert ok, (
        "The stated coefficient pair (0.98929, 0.24678) is the coefficient formula "
        "evaluated at z = 0.628 (3 digits), not the maximizer. The true optimum is "
        f"z* = pi/5 with (a, b) = ({a:.9f}, {b:.9f}) and value sqrt(5); asserting the "
        "stated pair at tolerance 1e-4 is unattainable by a correct maximization."
    )


def test_criterion_2_endpoint_value():
    t = critical_coeffs(0.0)
    val = 1.0 + t.a + t.b
    ok = abs(val - (2.0 + 2.0 / 15.0)) <= 1e-12
    report("2 (endpoint 1+a(0)+b(0))", ok, f"value={val!r}")
    assert ok


def test_criterion_3_example51_chain():
    t0 = time.perf_counter()
    lb = example51_lower_bound()
    comp = example51_comparison()
    search = max_density_search([1, 4], 10)
    elapsed = time.perf_counter() - t0
    ok_bound = abs(lb["bound"] - 2.2361) <= 5e-4 and all(lb["checks"].values())
    ok_tile = all(abs(e["value"] - 2.0) <= 1e-8 for e in comp["w_constant_values"])
    ok_density = (search["density"].numerator, search["density"].denominator) == (2, 5) \
        and sorted(search["witness"].residues) == [0, 2] and search["witness"].period == 5
    ok_time = elapsed < 10.0
    ok = ok_bound and ok_tile and ok_density and ok_time
    report("3 (example 5.1 chain)", ok,
           f"bound={lb['bound']:.6f} D(W)={comp['w_constant_values'][0]['value']:.9f} "
           f"density={search['density']} {elapsed:.2f}s")
    assert ok


def test_criterion_4_tile_theorem_equality():
    t0 = time.perf_counter()
    ok = True
    for n, k in [(6, 2), (6, 3), (8, 2), (8, 4), (12, 4)]:
        g = make_group([n], "probability")
        h = list(range(k))
        lam = list(range(0, n, k))
        for omega_minus in (SymSet.empty(g), SymSet.full(g)):
            rep = verify_tile_theorem(g, h, lam, omega_minus)
            ok &= abs(rep["lhs"] - k / n) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report("4 (tile-theorem equality)", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_5_main_theorem_fuzz():
    t0 = time.perf_counter()
    rep = SUITES["main"](200, seed=7, max_n=40)
    elapsed = time.perf_counter() - t0
    ok = rep["failures"] == 0 and rep["tight_instances"] >= 1 and elapsed < 60.0
    report("5 (main-theorem fuzz 200)", ok,
           f"failures={rep['failures']} tight={rep['tight_instances']} {elapsed:.2f}s")
    assert ok


def test_criterion_6_inequality_suites():
    t0 = time.perf_counter()
    results = {}
    for name in ("ineq", "hom", "product", "auto"):
        results[name] = SUITES[name](50, seed=11)
    elapsed = time.perf_counter() - t0
    failures = {k: v["failures"] for k, v in results.items()}
    ok = all(v == 0 for v in failures.values()) and elapsed < 120.0
    report("6 (inequality suites x50)", ok, f"failures={failures} {elapsed:.2f}s")
    assert ok


def test_criterion_7_posdef_oracle_500():
    rng = np.random.default_rng(2718)
    agree = 0
    for _ in range(500):
        n = int(rng.integers(2, 17))
        g = make_group([n], "counting")
        v = rng.normal(size=n)
        f = GroupFunction(g, v + v[g.neg])
        mat = f.values[g.sub_index(np.arange(n)[:, None], np.arange(n)[None, :])]
        oracle = bool(np.linalg.eigvalsh(mat).min() >= -1e-9)
        agree += is_posdef(f, tol=1e-9) == oracle
    ok = agree == 500
    report("7 (posdef oracle 500)", ok, f"agreement={agree}/500")
    assert ok


def test_criterion_8_radial():
    t0 = time.perf_counter()
    checks = {}

    checks["q0"] = abs(bessel_first_zero(0.0) - 2.404825558) <= 1e-8

    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.6, 3.5))
        s = float(rng.uniform(0.2, 4.0))
        u = float(rng.uniform(0.3, 8.0))
        h = 1e-5
        num = ((u + h) ** (2 * alpha) * float(bessel_j(alpha, s * (u + h)))
               - (u - h) ** (2 * alpha) * float(bessel_j(alpha, s * (u - h)))) / (2 * h)
        exact = 2 * alpha * u ** (2 * alpha - 1) * float(bessel_j(alpha - 1, s * u))
        worst = max(worst, abs(num - exact) / max(1e-12, abs(exact)))
    checks["j_derivative"] = worst <= 1e-6

    def direct_1d(s):
        x, w = np.polynomial.legendre.leggauss(80)
        return float(w @ np.cos(s * x))

    def direct_2d(s):
        r_nodes, r_w = np.polynomial.legendre.leggauss(60)
        r = 0.5 * (r_nodes + 1.0)
        theta = np.linspace(0.0, 2 * math.pi, 257)[:-1]
        vals = np.cos(s * np.outer(r, np.cos(theta)))
        return float((0.5 * r_w) @ (vals.mean(axis=1) * 2 * math.pi * r))

    ss = np.linspace(0.0, 10.0, 21)
    err_ball = max(
        max(abs(float(ball_char_transform(1, s)) - direct_1d(s)) for s in ss),
        max(abs(float(ball_char_transform(2, s)) - direct_2d(s)) for s in ss),
    )
    checks["ball_transform"] = err_ball <= 1e-8

    grid = np.arange(0.0, 30.0001, 0.01)
    checks["yudin_sign"] = all(
        yudin_sign_check(d, grid)["max_violation"] <= 1e-9 for d in (1, 2, 3)
    )

    s_grid = np.linspace(0.0, 3.0, 61)
    ok_hat = True
    for d in (1, 2, 3):
        vals = yudin_hat_grid(d, s_grid)
        ok_hat &= bool(np.min(vals) >= -1e-5)
        ok_hat &= bool(np.max(np.abs(vals[s_grid > 2.05])) <= 1e-4)
        ok_hat &= bool(abs(vals[0]) <= 1e-5)
    checks["yudin_hat"] = ok_hat

    ok_hy = True
    s_hy = np.linspace(0.0, 3.0, 31)
    for d in (1, 2):
        def h_profile(u, d=d):
            vals, _ = gorbachev_H_grid(d, u)
            return vals

        lhs, _ = hankel_grid(h_profile, d / 2 - 1, s_hy, tail=gorbachev_tail_model(d))
        rhs, _ = hankel_grid(lambda u: np.atleast_1d(yudin_Y(d + 2, u)), d / 2,
                             s_hy, tail=yudin_tail_model(d + 2))
        ok_hy &= bool(np.max(np.abs(lhs - rhs)) <= 1e-5)
    checks["hy_connection"] = ok_hy

    checks["gorbachev_H"] = all(
        gorbachev_H_report(d)["pass"] for d in (1, 2, 3)
    )

    elapsed = time.perf_counter() - t0
    checks["runtime"] = elapsed < 60.0
    ok = all(checks.values())
    report("8 (bessel/radial)", ok,
           f"{ {k: bool(v) for k, v in checks.items()} } {elapsed:.2f}s")
    assert ok


def test_criterion_9_out_of_scope_constants_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = ("0.0625" in text or "2^-4" in text or "2**-4" in text) and "0.015854" in text
    report("9 (referenced constants documented)", ok)
    assert ok
