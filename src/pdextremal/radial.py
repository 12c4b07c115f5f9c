"""Radial Euclidean machinery: normalized Bessel functions, the Yudin bump
Y_d with nonnegative compactly supported spectrum, the Gorbachev tail
function H, Hankel (Fourier-Bessel) transforms, and the Fourier transform
of the unit ball.

The normalized Bessel function j_alpha(t) splits [0, inf) into intervals
with one kernel each (``_j_intervals``): the two-term series below
t = 1e-6; the closed forms cos t and sin t / t at alpha = -1/2 and 1/2;
Hankel's large-argument expansion from X0(alpha) on, where its omitted terms
are below 2^-56 (``_hankel_expansion``); in between, scipy's order-specific
j0 and j1 at alpha = 0 (from t = 2) and alpha = 1, and its general-order jv
otherwise.  A call whose points lie in one interval runs one kernel on the
whole array, with no mask and no copy.

The Hankel integrands built from Y_d decay only like u^(-2), so plain
truncation cannot reach the advertised tolerances.  Transforms therefore
accept an analytic tail model (a sum of c * u^(-p) * {1, cos, sin}(w*u + phi)
terms valid beyond a start radius): the model is subtracted from the numeric
integrand and its own transform is evaluated semi-analytically via
incomplete oscillatory power integrals and integration by parts.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._scipy import extension
from .lp import QuadratureError

# brentq, and jv, j0 and j1, compiled, without scipy's, scipy.optimize's or
# scipy.special's __init__.py; on a 2-CPU Xeon VM the order-specific j0 and
# j1 (Cephes) take 20-45 ns a point, the general-order jv (Amos) 520-610 ns
_zeros = extension("scipy.optimize._zeros")
_bessel = extension("scipy.special._special_ufuncs")
jv, j0, j1 = _bessel.jv, _bessel.j0, _bessel.j1

TWO_PI = 2.0 * math.pi

# Fixed quadrature settings; no caller chooses any of them.
GL_ORDER = 16         # Gauss-Legendre nodes per panel; the refinement check adds 8
PANEL_WIDTH = 0.5
QUAD_TOL = 1e-9
MODEL_RANGE = 600.0   # numeric range for analytic tail-model terms
TAIL_START = 30.0     # radius from which the large-argument tail models hold
T_MAX = 60.0          # truncation radius, in [TAIL_START, MODEL_RANGE]


# --------------------------------------------------------------------------
# normalized Bessel functions
# --------------------------------------------------------------------------

def _check_order(alpha: float) -> None:
    if not math.isfinite(alpha):
        raise ValueError(f"order alpha = {alpha} is not finite")
    if alpha < -0.5:
        raise ValueError(f"order alpha = {alpha} below -1/2")


def bessel_j(alpha: float, t) -> np.ndarray | float:
    """j_alpha(t) = Gamma(alpha+1) (2/t)^alpha J_alpha(t), with j_alpha(0) = 1.

    Each order splits [0, inf) into intervals with one kernel each
    (``_j_intervals``), in ascending order:

    - [0, 1e-6): the series 1 - t^2 / (4 (alpha + 1)), whose next term is O(t^4);
    - alpha = -1/2 and 1/2 (d = 1 and d = 3), from 1e-6 on: the elementary
      forms (DLMF 10.16.1) j_{-1/2}(t) = cos t and j_{1/2}(t) = sin t / t, to
      about one ulp of 1 at every finite t, where scipy's jv is off by up to
      2e-15 at alpha = 1/2 and loses the value near t = 1e17;
    - alpha = 0: J_0(t) with scipy's jv below ``_J0_FROM`` and its j0 from
      there on; alpha = 1: 2 J_1(t) / t with scipy's j1; each order-specific
      kernel at under a tenth of the cost of jv, with no larger worst error in
      any band measured (``_J0_FROM``);
    - every other order: Gamma(alpha+1) (2/t)^alpha jv(alpha, t), with scipy's
      general-order jv;
    - from X0(alpha) on, every order but -1/2 and 1/2: Hankel's expansion
      (DLMF 10.17.3), at under a third of the cost of jv (``_hankel_j``).

    A call whose points all fall in one interval runs that kernel on the
    array as passed; only a call that spans intervals is split by masks.
    Either way each point gets the same kernel on the same float, so the
    value of a point does not depend on the other points of the call.

    alpha must be finite and at least -1/2, t finite and nonnegative.
    """
    _check_order(alpha)
    t_arr = np.asarray(t, dtype=np.float64)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if t_arr.size == 0:
        return np.empty_like(t_arr)
    lo, hi = t_arr.min(), t_arr.max()
    if not (lo >= 0 and hi < np.inf):
        raise ValueError("argument must be finite and nonnegative")
    starts, kernels = _j_intervals(alpha)
    first, last = bisect.bisect_right(starts, lo) - 1, bisect.bisect_right(starts, hi) - 1
    if first == last:
        out = kernels[first](t_arr)
    else:
        out = np.empty_like(t_arr)
        which = np.searchsorted(starts, t_arr, side="right") - 1
        for k in range(first, last + 1):
            inside = which == k
            out[inside] = kernels[k](t_arr[inside])
    return float(out[0]) if scalar else out


# j0 serves alpha = 0 from here on, jv below.  Worst and mean absolute error
# of each against mpmath at 40 digits, 2,000 points a band:
#   band          j0 worst, mean      jv worst, mean
#   [1e-6, 0.1)   4.4e-16  8.4e-17    2.2e-16  1.9e-17
#   [0.1, 0.5)    4.4e-16  9.7e-17    2.2e-16  5.6e-17
#   [0.5, 1)      4.4e-16  9.2e-17    3.3e-16  6.7e-17
#   [1, 2)        3.3e-16  6.6e-17    3.3e-16  5.8e-17
#   [2, 4)        2.2e-16  5.1e-17    2.5e-16  5.7e-17
#   [4, 8)        1.7e-16  3.0e-17    3.1e-16  6.9e-17
#   [8, 12)       2.6e-16  1.2e-16    3.9e-16  7.7e-17
#   [12, 18.4)    2.5e-16  1.2e-16    4.5e-16  9.4e-17
_J0_FROM = 2.0


@lru_cache(maxsize=None)
def _j_intervals(alpha: float):
    """(starts, kernels) of j_alpha: kernels[k](t) serves starts[k] <= t < starts[k+1].

    The kernels look jv, j0 and j1 up when they run, not when they are made.
    """
    starts, kernels = [0.0, 1e-6], [lambda t: 1.0 - t * t / (4.0 * (alpha + 1.0))]
    if alpha == -0.5:
        return tuple(starts), (*kernels, np.cos)
    if alpha == 0.5:
        return tuple(starts), (*kernels, lambda t: np.sin(t) / t)
    if alpha == 0.0:
        kernels += [lambda t: jv(0.0, t), lambda t: j0(t)]
        starts.append(_J0_FROM)
    elif alpha == 1.0:
        kernels.append(lambda t: 2.0 * j1(t) / t)
    else:
        gamma = math.gamma(alpha + 1.0)
        kernels.append(lambda t: gamma * (2.0 / t) ** alpha * jv(alpha, t))
    expansion = _hankel_expansion(alpha)
    if expansion:
        starts.append(expansion[0])
        kernels.append(lambda t: _hankel_j(alpha, t, expansion))
    return tuple(starts), tuple(kernels)


# Hankel's expansion is used where its first omitted term is below this
_HANKEL_TAIL = 2.0 ** -56


@lru_cache(maxsize=None)
def _hankel_expansion(alpha: float):
    """(X0, P coefficients, Q coefficients, A cos beta, A sin beta) of Hankel's
    expansion of j_alpha, or None where the order keeps jv.

    j_alpha(t) = A t^(-alpha-1/2) [P cos(t - beta) - Q sin(t - beta)] with
    P = sum_k (-1)^k a_2k t^(-2k), Q = sum_k (-1)^k a_(2k+1) t^(-2k-1) and
    a_k = a_(k-1) (4 alpha^2 - (2k-1)^2) / (8k) (DLMF 10.17.1-3); A and beta
    are ``_asym_constants(alpha)``.  The coefficients are highest power
    first, for Horner's rule in 1/t^2.

    With n >= max(|alpha|/2 - 1/4, 1) terms in each of P and Q (DLMF
    10.17(iii); P and Q depend on alpha^2 only) each sum is off by at most
    its first omitted term, a_2n t^(-2n) and a_(2n+1) t^(-2n-1).  X0 is the
    least t at which both are below 2^-56 and no kept term a_k t^(-k)
    exceeds the leading 1, so that Horner's rounding stays at an ulp of the
    envelope A t^(-alpha-1/2), where jv is off by a few.  n is the count
    with the least X0: 18 at alpha = 0, where X0 = 18.4.  An order whose
    coefficients overflow keeps jv.
    """
    mu = 4.0 * alpha * alpha
    a = [1.0]
    pairs = max(1, math.ceil(abs(alpha) / 2.0 - 0.25))
    best = None
    while True:
        while len(a) < 2 * pairs + 2:
            k = len(a)
            a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8 * k))
        if not math.isfinite(a[-1]):  # once a coefficient overflows, so do the rest
            return None
        x0 = max([abs(a[k]) ** (1.0 / k) for k in range(1, 2 * pairs)]
                 + [(abs(a[k]) / _HANKEL_TAIL) ** (1.0 / k) for k in (2 * pairs, 2 * pairs + 1)])
        if best is not None and x0 >= best[0]:
            break
        best = (x0, pairs)
        pairs += 1
    x0, pairs = best
    amp, _, _ = _asym_constants(alpha)
    cos_beta, sin_beta = _cos_sin_beta(alpha)
    return (x0, tuple((-1) ** k * a[2 * k] for k in reversed(range(pairs))),
            tuple((-1) ** k * a[2 * k + 1] for k in reversed(range(pairs))),
            amp * cos_beta, amp * sin_beta)


def _cos_sin_beta(alpha: float) -> tuple[float, float]:
    """cos and sin of beta = alpha pi / 2 + pi / 4, the phase of _asym_constants.

    They are taken of the phase in units of pi, (2 alpha + 1) / 4 mod 2, which
    is exact for half-integer alpha, reduced to |r| <= pi / 4 and turned by
    quarter turns: the float beta carries the rounding of alpha pi / 2, and
    the cosine of it is off by 8e-16 at alpha = 5 and 4.5e-15 at alpha = 31.
    """
    turns = math.fmod(alpha / 2.0 + 0.25, 2.0)
    quarters = round(2.0 * turns)
    r = math.pi * (turns - quarters / 2.0)
    c, s = math.cos(r), math.sin(r)
    for _ in range(quarters % 4):
        c, s = -s, c
    return c, s


def _hankel_j(alpha: float, t: np.ndarray, expansion) -> np.ndarray:
    """j_alpha(t) by Hankel's expansion, for t >= X0(alpha) of ``_hankel_expansion``.

    A cos(t - beta) and A sin(t - beta) come by angle addition from cos t and
    sin t: rounding t - beta first would put up to ulp(t) / 2 into the phase,
    1.1e-13 at t = 2000, where it is 2e-15 of j_0.
    """
    _, p_coef, q_coef, a_cos, a_sin = expansion
    x = 1.0 / (t * t)
    p = np.full_like(t, p_coef[0])
    for c in p_coef[1:]:
        p *= x
        p += c
    q = np.full_like(t, q_coef[0])
    for c in q_coef[1:]:
        q *= x
        q += c
    q /= t
    cos_t, sin_t = np.cos(t), np.sin(t)
    p *= cos_t * a_cos + sin_t * a_sin
    q *= sin_t * a_cos - cos_t * a_sin
    p -= q
    return p * t ** (-alpha - 0.5)


@lru_cache(maxsize=None)
def bessel_first_zero(alpha: float) -> float:
    """First positive zero q_alpha of j_alpha, to 1e-10 absolute."""
    _check_order(alpha)
    step = 0.1
    t_prev = step
    limit = alpha + 20.0 + 2.0 * max(alpha, 0.0) ** (1.0 / 3.0)
    f_prev = bessel_j(alpha, t_prev)
    t = t_prev
    while t < limit:
        t += step
        f = bessel_j(alpha, t)
        if f_prev > 0 >= f:
            # brentq(..., xtol=1e-13) at its compiled entry point,
            # scipy.optimize._zeros._brentq, with brentq's defaults rtol = 4 eps
            # and maxiter 100; brentq only adds a NaN guard, and j_alpha is
            # finite on this bracket
            return float(_zeros._brentq(lambda x: bessel_j(alpha, x), t_prev, t, 1e-13,
                                        4 * np.finfo(float).eps, 100, (), False, True))
        t_prev, f_prev = t, f
    raise RuntimeError(f"no sign change found for alpha = {alpha}")


def bessel_j_deriv(alpha: float, t):
    """j_alpha'(t) = -t j_{alpha+1}(t) / (2 (alpha + 1))."""
    t_arr = np.asarray(t, dtype=np.float64)
    return -t_arr * bessel_j(alpha + 1.0, t_arr) / (2.0 * (alpha + 1.0))


# --------------------------------------------------------------------------
# Yudin bump and sign check
# --------------------------------------------------------------------------

def yudin_Y(d: int, t) -> np.ndarray | float:
    """Y_d(t) = j_{d/2-1}(t)^2 / (1 - t^2 / q^2), q the first zero of j_{d/2-1}.

    The singularity at t = q is removable (double zero over simple zero);
    near q the factored first-order form avoids the 0/0 cancellation.
    """
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    alpha = d / 2.0 - 1.0
    q = bessel_first_zero(alpha)
    t_arr = np.asarray(t, dtype=np.float64)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = np.empty_like(t_arr)
    near = np.abs(t_arr - q) < 1e-4 * q
    far = ~near
    out[far] = bessel_j(alpha, t_arr[far])**2 / (1.0 - (t_arr[far] / q) ** 2)
    if np.any(near):
        slope = bessel_j_deriv(alpha, q)
        out[near] = -(q**2) * slope**2 * (t_arr[near] - q) / (t_arr[near] + q)
    return float(out[0]) if scalar else out


def yudin_sign_check(d: int, grid, values=None) -> dict:
    """Y_d >= 0 up to the first Bessel zero and <= 0 beyond; max violation on grid.

    values are Y_d on grid, evaluated here if not given.
    """
    grid = np.asarray(grid, dtype=np.float64)
    q = bessel_first_zero(d / 2.0 - 1.0)
    vals = np.atleast_1d(yudin_Y(d, grid) if values is None else values)
    before = grid <= q
    violation = max(0.0, float(np.max(-vals[before], initial=0.0)),
                    float(np.max(vals[~before], initial=0.0)))
    return {"d": d, "first_zero": q, "max_violation": violation,
            "pass": bool(violation <= 1e-9)}


# --------------------------------------------------------------------------
# Gauss-Legendre panel quadrature
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(edges: np.ndarray, order: int):
    """Nodes and weights for composite GL over consecutive [edges] panels."""
    x, w = _gl_nodes(order)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * x[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w[None, :]
    return nodes.ravel(), weights.ravel()


# np.unique and np.median load numpy.ma (through np.ma.is_masked and
# _median_nancheck); these two do the same float operations without it

def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """np.unique of a finite array: sorted, each value once."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _median(x: np.ndarray) -> float:
    """np.median of a nonempty finite array."""
    x = np.sort(x, axis=None)
    h = x.size // 2
    return float(x[h]) if x.size % 2 else float((x[h - 1] + x[h]) / 2.0)


def _linear_edges(a: float, b: float, width: float) -> np.ndarray:
    n = max(1, int(math.ceil((b - a) / width)))
    return np.linspace(a, b, n + 1)


def _geometric_edges(a: float, b: float, width: float) -> np.ndarray:
    """Panel edges geometric below 1 (for integrable power blow-ups), linear above."""
    if a <= 0:
        raise ValueError("geometric panels need a positive left endpoint")
    knee = min(1.0, b)
    if a >= knee:
        return _linear_edges(a, b, width)
    edges = [a]
    while edges[-1] < knee:
        edges.append(min(knee, edges[-1] * 2.0))
    if b > knee:
        edges = edges[:-1] + list(_linear_edges(knee, b, width))
    return np.asarray(edges)


# --------------------------------------------------------------------------
# incomplete oscillatory power integrals
# --------------------------------------------------------------------------

def _osc_power_tail(rho: float, nu: float, phase: float, t0: float) -> float:
    """integral_{t0}^inf u^(-rho) cos(nu*u + phase) du, any nu >= 0, rho > 1."""
    if rho <= 1.0:
        raise QuadratureError(f"divergent oscillatory tail, rho = {rho}")
    if nu < 1e-12:
        return math.cos(phase) * t0 ** (1.0 - rho) / (rho - 1.0)
    t1 = max(t0, 30.0 / max(nu, 3.0e-4))
    total = 0.0
    if t1 > t0:
        edges = _linear_edges(t0, t1, min(1.0, TWO_PI / (6.0 * nu) if nu > 1 else 1.0))
        nodes, weights = _panel_nodes(edges, 16)
        total += float(weights @ (nodes ** (-rho) * np.cos(nu * nodes + phase)))
    # two-term integration by parts beyond t1 (nu * t1 >= 30 or capped)
    s1, c1 = math.sin(nu * t1 + phase), math.cos(nu * t1 + phase)
    total += -s1 / (nu * t1**rho) + rho * c1 / (nu**2 * t1 ** (rho + 1.0))
    return total


# --------------------------------------------------------------------------
# analytic tail models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TailTerm:
    coef: float
    power: float           # F-term ~ coef * u^(-power) ...
    kind: str = "const"    # const | cos | sin
    freq: float = 0.0
    phase: float = 0.0

    def eval(self, u: np.ndarray) -> np.ndarray:
        base = self.coef * u ** (-self.power)
        if self.kind == "const":
            return base
        if self.kind == "cos":
            return base * np.cos(self.freq * u + self.phase)
        if self.kind == "sin":
            return base * np.sin(self.freq * u + self.phase)
        raise ValueError(f"unknown tail term kind {self.kind!r}")


@dataclass(frozen=True)
class TailModel:
    start: float
    terms: tuple[TailTerm, ...]

    def eval(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        out = np.zeros_like(u)
        live = u >= self.start
        if np.any(live):
            ub = u[live]
            acc = np.zeros_like(ub)
            for term in self.terms:
                acc += term.eval(ub)
            out[live] = acc
        return out


def _asym_constants(nu: float) -> tuple[float, float, float]:
    """(A, beta, mu) of j_nu(t) ~ A t^(-nu-1/2) cos(t - beta), mu = 4 nu^2."""
    a = 2.0 ** (nu + 0.5) * math.gamma(nu + 1.0) / math.sqrt(math.pi)
    return a, nu * math.pi / 2.0 + math.pi / 4.0, 4.0 * nu * nu


def yudin_tail_model(m: int) -> TailModel:
    """Large-argument model of Y_m: envelope -A^2 q^2 u^(-(m+1)) with its
    second-order corrections and the cos/sin(2u - 2 beta) oscillations."""
    nu = m / 2.0 - 1.0
    a, beta, mu = _asym_constants(nu)
    q = bessel_first_zero(nu)
    lead = a * a * q * q
    c2 = q * q + (mu - 1.0) / 8.0
    terms = (
        TailTerm(-lead / 2.0, m + 1.0),
        TailTerm(-lead / 2.0 * c2, m + 3.0),
        TailTerm(-lead / 2.0, m + 1.0, "cos", 2.0, -2.0 * beta),
        TailTerm(-lead * (q * q / 2.0 - (mu - 1.0) * (mu - 5.0) / 64.0), m + 3.0,
                 "cos", 2.0, -2.0 * beta),
        TailTerm(lead * (mu - 1.0) / 8.0, m + 2.0, "sin", 2.0, -2.0 * beta),
    )
    return TailModel(TAIL_START, tuple(t for t in terms if t.coef != 0.0))


def gorbachev_tail_model(d: int, start: float = TAIL_START) -> TailModel:
    """Large-argument model of H(t) = integral_t^inf s Y_{d+2}(s) ds."""
    nu = d / 2.0
    a, beta, mu = _asym_constants(nu)
    q = bessel_first_zero(nu)
    lead = a * a * q * q
    c2 = q * q + (mu - 1.0) / 8.0
    terms = (
        TailTerm(-lead / 2.0 / (d + 1.0), d + 1.0),
        TailTerm(-lead / 2.0 * c2 / (d + 3.0), d + 3.0),
        TailTerm(lead / 4.0, d + 2.0, "sin", 2.0, -2.0 * beta),
        TailTerm(-lead * (d + 2.0) / 8.0 + lead * (mu - 1.0) / 16.0, d + 3.0,
                 "cos", 2.0, -2.0 * beta),
    )
    return TailModel(start, tuple(t for t in terms if t.coef != 0.0))


# --------------------------------------------------------------------------
# Hankel transform
# --------------------------------------------------------------------------

_W_NUMERIC_END = 400.0  # W is integrated numerically below this, asymptotically beyond


def _bessel_power_tails(alpha: float, q_exps, xs: np.ndarray) -> np.ndarray:
    """W_q(x) = integral_x^inf v^q j_alpha(v) dv for each q in q_exps (all <= -2)
    and each x in xs (all > 0); shape (len(q_exps), len(xs)).

    Below 400 one composite GL panel set serves every x and every q: its knots
    are geometric below 1 and 0.5 apart above, with every x inserted, so W(x)
    is a suffix sum of per-panel integrals.  Beyond max(400, x) the two-term
    asymptotics of j_alpha are integrated semi-analytically.
    """
    out = np.zeros((len(q_exps), xs.size))
    inside = xs < _W_NUMERIC_END
    if np.any(inside):
        knots = _sorted_distinct(np.concatenate([
            _geometric_edges(float(np.min(xs[inside])), _W_NUMERIC_END, 0.5), xs[inside]]))
        nodes, weights = _panel_nodes(knots, 16)
        jvals = bessel_j(alpha, nodes)
        pos = np.searchsorted(knots, xs[inside])
        for k, q_exp in enumerate(q_exps):
            per_panel = (weights * nodes**q_exp * jvals).reshape(len(knots) - 1, 16).sum(axis=1)
            suffix = np.concatenate([np.cumsum(per_panel[::-1])[::-1], [0.0]])
            out[k, inside] = suffix[pos]
    a, beta, mu = _asym_constants(alpha)
    for k, q_exp in enumerate(q_exps):
        rho = alpha + 0.5 - q_exp
        for i, x in enumerate(xs):
            v1 = max(_W_NUMERIC_END, float(x))
            out[k, i] += a * _osc_power_tail(rho, 1.0, -beta, v1)
            out[k, i] -= a * (mu - 1.0) / 8.0 * _osc_power_tail(rho + 1.0, 1.0,
                                                                 -beta - math.pi / 2.0, v1)
    return out


def _const_terms_tail(terms, alpha: float, s_values: np.ndarray, u0: float) -> np.ndarray:
    """Per s: sum over terms of integral_{u0}^inf coef u^(-p) j_alpha(s u) u^(2 alpha + 1) du."""
    q_exps = [2.0 * alpha + 1.0 - t.power for t in terms]
    if any(q_exp >= -1.0 for q_exp in q_exps):
        raise QuadratureError("tail model power too weak for convergence")
    total = np.zeros_like(s_values)
    if not terms:
        return total
    moving = s_values >= 1e-12
    s = s_values[moving]
    w_tails = _bessel_power_tails(alpha, q_exps, s * u0)
    for term, q_exp, w in zip(terms, q_exps, w_tails):
        part = np.full_like(s_values, term.coef * u0 ** (q_exp + 1.0) / (-q_exp - 1.0))
        part[moving] = term.coef * s ** (-q_exp - 1.0) * w
        total += part
    return total


def _osc_term_tail_asym(term: TailTerm, alpha: float, s: float, t2: float) -> float:
    """Beyond t2 with s*t2 large: product-to-sum against the j asymptotics."""
    a, beta, mu = _asym_constants(alpha)
    rho = term.power - alpha - 0.5
    amp = term.coef * a * s ** (-alpha - 0.5)
    w, ph = term.freq, term.phase
    total = 0.0

    def cospart(nu, psi, scale, r):
        if nu < 0:
            nu, psi = -nu, -psi
        return scale * _osc_power_tail(r, nu, psi, t2)

    def sinpart(nu, psi, scale, r):
        if nu < 0:
            nu, psi = -nu, -psi
            scale = -scale
        return scale * _osc_power_tail(r, nu, psi - math.pi / 2.0, t2)

    if term.kind == "cos":
        total += cospart(w - s, ph + beta, amp / 2.0, rho)
        total += cospart(w + s, ph - beta, amp / 2.0, rho)
        corr = amp * (mu - 1.0) / (8.0 * s)
        total -= sinpart(s + w, ph - beta, corr / 2.0, rho + 1.0)
        total -= sinpart(s - w, -ph - beta, corr / 2.0, rho + 1.0)
    else:  # sin
        total += sinpart(w + s, ph - beta, amp / 2.0, rho)
        total += sinpart(w - s, ph + beta, amp / 2.0, rho)
        corr = amp * (mu - 1.0) / (8.0 * s)
        total -= cospart(w - s, ph + beta, corr / 2.0, rho + 1.0)
        total += cospart(w + s, ph - beta, corr / 2.0, rho + 1.0)
    return total


def _osc_term_tail_slow(term: TailTerm, alpha: float, s: float, t2: float) -> float:
    """Beyond t2 with s*t2 small: j(su) varies slowly, integrate by parts in the
    fast w*u phase (two terms)."""
    w, ph = term.freq, term.phase
    p_net = term.power - 2.0 * alpha - 1.0

    def g(u):
        return term.coef * u ** (-p_net) * float(bessel_j(alpha, s * u))

    def gprime(u):
        jval = float(bessel_j(alpha, s * u))
        jder = float(bessel_j_deriv(alpha, s * u)) * s
        return term.coef * (-p_net * u ** (-p_net - 1.0) * jval + u ** (-p_net) * jder)

    sw, cw = math.sin(w * t2 + ph), math.cos(w * t2 + ph)
    if term.kind == "cos":
        return -g(t2) * sw / w - gprime(t2) * cw / (w * w)
    return g(t2) * cw / w - gprime(t2) * sw / (w * w)


def _tail_grid(model: TailModel, alpha: float, s_values: np.ndarray) -> np.ndarray:
    """Transform of the tail model over [model.start, inf) at each s, unnormalized."""
    u0 = model.start
    t2 = max(MODEL_RANGE, u0)
    const_terms = [t for t in model.terms if t.kind == "const"]
    osc_terms = [t for t in model.terms if t.kind != "const"]
    totals = _const_terms_tail(const_terms, alpha, s_values, u0)
    if not osc_terms:
        return totals

    nodes, weights = _panel_nodes(_linear_edges(u0, t2, 1.0), 16)
    osc_vals = np.zeros_like(nodes)
    for t in osc_terms:
        osc_vals += t.eval(nodes)
    power = nodes ** (2.0 * alpha + 1.0)
    for i, s in enumerate(s_values):
        s = float(s)
        total = float(totals[i])
        kernel = np.atleast_1d(bessel_j(alpha, s * nodes)) * power
        total += float(weights @ (osc_vals * kernel))
        for t in osc_terms:
            if s * t2 >= 30.0:
                total += _osc_term_tail_asym(t, alpha, s, t2)
            else:
                total += _osc_term_tail_slow(t, alpha, s, t2)
        totals[i] = total
    return totals


def hankel_grid(profile: Callable, alpha: float, s_values,
                tail: TailModel) -> tuple[np.ndarray, dict]:
    """(H_alpha F)(s) = (1 / (2^alpha Gamma(alpha+1))) * integral_0^inf F(u) j_alpha(su) u^(2 alpha + 1) du
    for profile F on a grid of s values, with {"max_refinement_diff": ...}.

    The numeric part integrates F minus the tail model on [0, T_MAX] with two
    GL orders, whose largest disagreement is the error estimate reported; the
    model's own transform beyond its start radius is added analytically (a
    model with no terms leaves F truncated at T_MAX).
    """
    _check_order(alpha)
    s_values = np.atleast_1d(np.asarray(s_values, dtype=np.float64))
    edges = _linear_edges(0.0, T_MAX, PANEL_WIDTH)
    results = np.zeros_like(s_values)
    errors = np.zeros_like(s_values)
    norm = 1.0 / (2.0**alpha * math.gamma(alpha + 1.0))
    tail_vals = _tail_grid(tail, alpha, s_values)

    orders = (GL_ORDER, GL_ORDER + 8)
    node_sets = [_panel_nodes(edges, o) for o in orders]
    f_vals = []
    for nodes, _ in node_sets:
        fv = np.asarray(profile(nodes), dtype=np.float64) - tail.eval(nodes)
        f_vals.append(fv * nodes ** (2.0 * alpha + 1.0))

    for i, s in enumerate(s_values):
        pair = []
        for (nodes, weights), fv in zip(node_sets, f_vals):
            kernel = np.atleast_1d(bessel_j(alpha, s * nodes))
            pair.append(float(weights @ (fv * kernel)))
        err = abs(pair[1] - pair[0])
        results[i] = norm * (pair[1] + tail_vals[i])
        errors[i] = norm * err
        scale = 1.0 + abs(results[i])
        if err * norm > max(QUAD_TOL, 1e-12 * scale) * scale * 10:
            raise QuadratureError(
                f"quadrature refinement disagreement {err * norm:.3e} at s = {s}"
            )

    return results, {"max_refinement_diff": float(np.max(errors, initial=0.0))}


def yudin_hat_grid(d: int, s_values) -> np.ndarray:
    """Spectrum of the Yudin bump: (H_{d/2-1} Y_d)(s), tail-corrected."""
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    values, _ = hankel_grid(lambda u: np.atleast_1d(yudin_Y(d, u)), d / 2.0 - 1.0,
                            s_values, tail=yudin_tail_model(d))
    return values


# --------------------------------------------------------------------------
# the ball transform
# --------------------------------------------------------------------------

def ball_char_transform(d: int, x) -> np.ndarray | float:
    """Fourier transform of the unit-ball indicator:
    (pi^(d/2) / Gamma(d/2 + 1)) j_{d/2}(|x|)."""
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * bessel_j(d / 2.0, x)


# --------------------------------------------------------------------------
# the Gorbachev tail function H
# --------------------------------------------------------------------------

def gorbachev_H_grid(d: int, ts) -> tuple[np.ndarray, dict]:
    """H(t) = integral_t^inf s Y_{d+2}(s) ds on a grid: panels up to T_MAX and
    the analytic tail model beyond; the model residual scale is reported."""
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    if not np.all(ts >= 0):
        raise ValueError("arguments must be nonnegative")
    edges = _linear_edges(0.0, T_MAX, PANEL_WIDTH)
    model = gorbachev_tail_model(d, start=T_MAX)
    tail_at_tmax = float(model.eval(np.asarray([T_MAX]))[0])
    beyond = ts > T_MAX
    # the edges end at T_MAX exactly, so the knots do too
    knots = _sorted_distinct(np.concatenate([ts[~beyond], edges]))

    def integrand(u):
        return u * np.atleast_1d(yudin_Y(d + 2, u))

    panel_vals = []
    for order in (GL_ORDER, GL_ORDER + 8):
        nodes, weights = _panel_nodes(knots, order)
        fv = integrand(nodes)
        per_panel = (weights * fv).reshape(len(knots) - 1, order).sum(axis=1)
        panel_vals.append(per_panel)
    err = float(np.max(np.abs(panel_vals[1] - panel_vals[0]), initial=0.0))
    if err > QUAD_TOL * 10:
        raise QuadratureError(f"panel refinement disagreement {err:.3e} in H")
    suffix = np.concatenate([np.cumsum(panel_vals[1][::-1])[::-1], [0.0]])
    out = np.empty_like(ts)
    pos = np.searchsorted(knots, ts[~beyond])
    out[~beyond] = suffix[pos] + tail_at_tmax
    out[beyond] = model.eval(ts[beyond])

    nu = d / 2.0
    a, _, _ = _asym_constants(nu)
    est = (a * bessel_first_zero(nu)) ** 2 * T_MAX ** (-(d + 4.0))
    return out, {"tail_at_tmax": tail_at_tmax, "model_residual_scale": est,
                 "refinement_diff": err}


def gorbachev_H_report(d: int, ts=None, grid=None) -> dict:
    """Sign/monotonicity of H beyond q_{d/2} and boundedness of H(t) t^(d+1).

    ``grid`` is the (values, info) pair of ``gorbachev_H_grid(d, ts)`` when
    the caller has computed it already.
    """
    q = bessel_first_zero(d / 2.0)
    if ts is None:
        ts = np.linspace(q, 50.0, 400)
    ts = np.asarray(ts, dtype=np.float64)
    values, info = gorbachev_H_grid(d, ts) if grid is None else grid
    negative = bool(np.max(values) < 0.0)
    nondecreasing = bool(np.all(np.diff(values) >= -1e-12))
    window = (ts >= 20.0) & (ts <= 50.0)
    scaled = values[window] * ts[window] ** (d + 1.0)
    bounded = bool(scaled.size and np.max(scaled) < 0.0)
    return {
        "d": d,
        "first_zero": q,
        "negative_beyond_first_zero": negative,
        "nondecreasing": nondecreasing,
        "scaled_bounded_below": bounded,
        "fitted_tail_constant": _median(scaled) if scaled.size else None,
        "pass": negative and nondecreasing and bounded,
        "quadrature": info,
    }
