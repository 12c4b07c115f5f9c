"""Output checks: every call's stdout is parsed and checked from outside.

- ``constant``: the witness f is checked directly (f(0) = 1, f <= tol outside
  Omega+, f >= -tol outside Omega-, symmetry, a nonnegative spectrum computed
  here by FFT, Haar integral equal to ``value``), and ``value`` is compared with
  a reference LP.  The witness bytes are not compared: the optimizer is "a
  witness, not a canonical object" (docs/schema.md).
- ``verify``: the suite passes, and every per-instance value matches a
  reference.  Instances whose sets the report omits are replayed with the
  package's own SplitMix64 generator.
- ``radial``, ``trinomial``, ``density search``: the whole result is compared
  with ``reference.json`` (written by make_reference.py at the commit that
  defined the benchmark), numbers within the package's tolerances.

Reference LP values come from HiGHS (scipy) on the element-side LP: one
variable per {x, -x} orbit, f(0) = 1, the sign conditions as bounds, and one
row per character for a nonnegative spectrum.  This is a different solver on
a different formulation from the package's spectral-side simplex.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
from scipy.optimize import linprog

from pdextremal.fuzz import SplitMix64, symmetric_mask
from pdextremal.groups import make_group

# the package's TOLERANCES (pdextremal.cli) when the benchmark was defined,
# fixed here so a change to the package cannot loosen its own check
VALUE_TOL = 1e-8
POSDEF_TOL = 1e-9
QUADRATURE_TOL = 1e-9

HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class CheckError(AssertionError):
    pass


def _require(ok, message: str):
    if not ok:
        raise CheckError(message)


def _near(value, ref, tol: float, what: str):
    _require(isinstance(value, (int, float)) and abs(value - ref) <= tol * max(1.0, abs(ref)),
             f"{what}: {value!r} differs from reference {ref!r} by more than {tol:g}")


# --------------------------------------------------------------------------
# groups seen from outside: index order, negation, real characters
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _coords(orders: tuple[int, ...]) -> np.ndarray:
    return np.indices(orders).reshape(len(orders), -1).T


def _index(orders, coords) -> np.ndarray:
    return np.ravel_multi_index(tuple(np.asarray(coords).T % np.array(orders)[:, None]), orders)


@functools.lru_cache(maxsize=64)
def _neg(orders: tuple[int, ...]) -> np.ndarray:
    return _index(orders, -_coords(orders))


@functools.lru_cache(maxsize=16)
def _cos_table(orders: tuple[int, ...]) -> np.ndarray:
    c = _coords(orders)
    phase = (c[:, None, :] * c[None, :, :] / np.array(orders)).sum(axis=-1)
    return np.cos(2.0 * np.pi * phase)


def _mask(orders, elements) -> np.ndarray:
    mask = np.zeros(math.prod(orders), dtype=bool)
    if elements:
        coords = [[e] if isinstance(e, int) else e for e in elements]
        mask[_index(orders, coords)] = True
    return mask


def _elements(orders, mask) -> list:
    coords = _coords(orders)[np.flatnonzero(mask)]
    return [int(c[0]) for c in coords] if len(orders) == 1 else [list(map(int, c)) for c in coords]


def reference_constant(orders, weight: float, plus: np.ndarray, minus: np.ndarray) -> float:
    """C(Omega+, Omega-) by HiGHS on the element-side LP."""
    return _reference_constant(tuple(orders), float(weight), plus.tobytes(), minus.tobytes())


@functools.lru_cache(maxsize=4096)
def _reference_constant(orders, weight, plus_bytes, minus_bytes) -> float:
    plus = np.frombuffer(plus_bytes, dtype=bool)
    minus = np.frombuffer(minus_bytes, dtype=bool)
    if not plus[0]:
        return 0.0  # f(0) = 1 is impossible when f <= 0 at 0
    n = plus.shape[0]
    reps, orbit = np.unique(np.minimum(np.arange(n), _neg(orders)), return_inverse=True)
    fold = np.zeros((n, reps.shape[0]))
    fold[np.arange(n), orbit] = 1.0
    rows = _cos_table(orders) @ fold  # spectrum / weight, one row per character
    lower = np.where(minus[reps], -np.inf, 0.0)
    upper = np.where(plus[reps], np.inf, 0.0)
    lower[0] = upper[0] = 1.0
    res = linprog(-weight * fold.sum(axis=0), A_ub=-rows, b_ub=np.zeros(n),
                  bounds=np.column_stack([lower, upper]), method="highs",
                  options=HIGHS_OPTIONS)
    _require(res.status == 0, f"reference LP on {orders} failed: {res.message}")
    return float(-res.fun)


# --------------------------------------------------------------------------
# constant
# --------------------------------------------------------------------------

def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_constant(argv, payload):
    res = payload["result"]
    group = json.loads(_option(argv, "--group"))
    orders = tuple(group["orders"])
    n = math.prod(orders)
    _require(group["normalization"] == "probability", "benchmark groups are probability-normalized")
    weight = 1.0 / n
    kind = _option(argv, "--kind", "two-set")
    plus = _mask(orders, json.loads(_option(argv, "--omega-plus")))
    minus = {"turan": plus, "delsarte": np.ones(n, dtype=bool)}.get(kind)
    if minus is None:
        minus = _mask(orders, json.loads(_option(argv, "--omega-minus")))
    _require(payload["warnings"] == [], f"unexpected warnings {payload['warnings']}")
    _require(res["kind"] == kind and res["group"] == group, "result echoes another problem")
    _require(res["omega_plus"] == _elements(orders, plus), "omega_plus echo differs from input")
    _require(res["status"] == "optimal", f"status {res['status']!r}")

    f = np.asarray(res["optimizer"], dtype=np.float64)
    _require(f.shape == (n,), f"optimizer has {f.shape} values, expected {n}")
    value = res["value"]
    _near(float(f[0]), 1.0, VALUE_TOL, "f(0)")
    _require(np.max(f[~plus], initial=0.0) <= VALUE_TOL, "f > tol outside omega-plus")
    _require(np.min(f[~minus], initial=0.0) >= -VALUE_TOL, "f < -tol outside omega-minus")
    _require(np.max(np.abs(f - f[_neg(orders)])) <= VALUE_TOL, "f is not symmetric")
    spectrum = weight * np.fft.fftn(f.reshape(orders)).ravel()
    _require(spectrum.real.min() >= -POSDEF_TOL, f"spectrum min {spectrum.real.min():.3e} < -tol")
    _near(weight * float(f.sum()), value, VALUE_TOL, "Haar integral of the witness")
    _near(value, reference_constant(orders, weight, plus, minus), VALUE_TOL, "value")


# --------------------------------------------------------------------------
# verify suites
# --------------------------------------------------------------------------

def _cyclic(n: int, weight: float, plus, minus) -> float:
    return reference_constant((n,), weight, plus, minus)


def _interval_mask(n: int, k: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.arange(-(k - 1), k) % n] = True
    return mask


def _tile(inst, rng, max_n):
    n, k = inst["n"], inst["k"]
    _near(inst["rhs"], k / n, VALUE_TOL, "tile rhs")
    ref = _cyclic(n, 1.0 / n, _interval_mask(n, k), _mask((n,), inst["omega_minus"]))
    _near(inst["lhs"], ref, VALUE_TOL, "tile lhs")


def _main(inst, rng, max_n):
    n = inst["n"]
    ref = _cyclic(n, 1.0 / n, _mask((n,), inst["omega_plus"]), np.ones(n, dtype=bool))
    _near(inst["delsarte"], ref, VALUE_TOL, "main delsarte")
    _near(inst["bound"], 1.0 / len(set(inst["lam"])), VALUE_TOL, "main bound")
    _require(inst["tight"] == (abs(ref - inst["bound"]) <= VALUE_TOL), "main tight flag")


def _hom(inst, rng, max_n):
    n, k = inst["n"], inst["k"]
    d = k[1] - k[0]
    _require(k == list(range(0, n, d)), "hom subgroup is not d*Z_n")
    plus, minus = _mask((n,), inst["omega_plus"]), _mask((n,), inst["omega_minus"])
    _near(inst["lhs"], _cyclic(n, 1.0, plus, minus), VALUE_TOL, "hom lhs")
    sub = _cyclic(n // d, 1.0, plus[::d], minus[::d])  # K = d*Z_n, as Z_{n/d}
    quo_plus, quo_minus = np.zeros(d, dtype=bool), np.zeros(d, dtype=bool)
    quo_plus[np.flatnonzero(plus) % d] = True  # G/K = Z_d, image of x is x mod d
    quo_minus[np.flatnonzero(minus) % d] = True
    _near(inst["rhs"], _cyclic(d, 1.0, quo_plus, quo_minus) * sub, VALUE_TOL, "hom rhs")


def _product(inst, rng, max_n):
    n1 = 2 + rng.below(max_n - 1)
    n2 = 2 + rng.below(max_n - 1)
    _require((inst["n1"], inst["n2"]) == (n1, n2), "product replay lost step")
    g1, g2 = make_group([n1], "probability"), make_group([n2], "probability")
    p1, p2 = symmetric_mask(rng, g1, True), symmetric_mask(rng, g2, True)
    m1 = symmetric_mask(rng, g1, include_zero=rng.chance(1, 2))
    m2 = symmetric_mask(rng, g2, include_zero=rng.chance(1, 2))
    lhs = reference_constant((n1, n2), 1.0 / (n1 * n2), np.outer(p1, p2).ravel(),
                             np.outer(m1, m2).ravel())
    _near(inst["lhs"], lhs, VALUE_TOL, "product lhs")
    rhs = _cyclic(n1, 1.0 / n1, p1, m1) * _cyclic(n2, 1.0 / n2, p2, m2)
    _near(inst["rhs"], rhs, VALUE_TOL, "product rhs")


def _auto(inst, rng, max_n):
    n = 3 + rng.below(max_n - 2)
    group = make_group([n], "probability")
    unit = rng.pick([u for u in range(1, n) if math.gcd(u, n) == 1])
    _require((inst["n"], inst["unit"]) == (n, unit), "auto replay lost step")
    plus = symmetric_mask(rng, group, include_zero=True)
    minus = symmetric_mask(rng, group, include_zero=rng.chance(1, 2))
    ref = _cyclic(n, 1.0 / n, plus, minus)
    _near(inst["value"], ref, VALUE_TOL, "auto value")
    _near(inst["mapped_value"], ref, VALUE_TOL, "auto mapped value")


def _density(inst, rng, max_n):
    n, h, lam = inst["n"], set(inst["h"]), set(inst["lam"])
    diffs = lambda s: {(a - b) % n for a in s for b in s}  # noqa: E731
    _require(inst["auud"] == len(lam), "density auud")
    _require(inst["packs_strict"] == (diffs(h) & diffs(lam) == {0}), "density packing flag")
    _require(inst["covers"] == ({(a + b) % n for a in h for b in lam} == set(range(n))),
             "density covering flag")


def _ineq(inst, rng, max_n):
    n = 2 + rng.below(max_n - 1)
    group = make_group([n], "probability")
    plus = symmetric_mask(rng, group, include_zero=True)
    minus = symmetric_mask(rng, group, include_zero=rng.chance(1, 2))
    symmetric_mask(rng, group, include_zero=True)  # the suite's supersets, drawn
    symmetric_mask(rng, group, include_zero=False)  # to keep the replay in step
    _require((inst["n"], inst["omega_plus"]) == (n, _elements((n,), plus)),
             "ineq replay lost step")
    _require(all(inst["checks"].values()), f"ineq checks {inst['checks']}")
    _near(inst["value"], _cyclic(n, 1.0 / n, plus, minus), VALUE_TOL, "ineq value")


INSTANCE_CHECKS = {"tile": _tile, "main": _main, "hom": _hom, "product": _product,
                   "auto": _auto, "density": _density, "ineq": _ineq}


def check_verify(argv, payload):
    suite = argv[1]
    res = payload["result"]
    count, seed = int(_option(argv, "--fuzz")), int(_option(argv, "--seed"))
    _require(payload["command"] == f"verify {suite}" and res["suite"] == suite, "suite echo")
    _require((res["count"], res["seed"]) == (count, seed), "count or seed echo differs")
    _require(res["pass"] is True and res["failures"] == 0, f"suite {suite} did not pass")
    instances = res["instances"]
    _require([i["index"] for i in instances] == list(range(count)), "instance indices")
    rng = SplitMix64(seed)  # replays the suite's draws, for instances whose sets it omits
    for inst in instances:
        _require(inst["pass"] is True, f"{suite} instance {inst['index']} failed")
        try:
            INSTANCE_CHECKS[suite](inst, rng, res["max_n"])
        except CheckError as exc:
            raise CheckError(f"{suite} instance {inst['index']}: {exc}") from None


# --------------------------------------------------------------------------
# stored reference
# --------------------------------------------------------------------------

def _same(out, ref, tol: float, path: str = "result"):
    if isinstance(ref, dict):
        _require(isinstance(out, dict) and sorted(out) == sorted(ref), f"{path}: keys differ")
        for key in ref:
            _same(out[key], ref[key], tol, f"{path}.{key}")
    elif isinstance(ref, list):
        _require(isinstance(out, list) and len(out) == len(ref), f"{path}: length differs")
        for i, (a, b) in enumerate(zip(out, ref)):
            _same(a, b, tol, f"{path}[{i}]")
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        _near(out, ref, tol, path)
    else:
        _require(out == ref, f"{path}: {out!r} != {ref!r}")


def check_stored(argv, payload, reference):
    key = " ".join(argv)
    _require(key in reference, f"no stored reference for {key!r}")
    tol = QUADRATURE_TOL if argv[0] == "radial" else VALUE_TOL
    _same(payload["result"], reference[key], tol)


def check_output(argv, stdout: str, reference) -> None:
    """Raise CheckError if the stdout of ``pdextremal argv`` is not correct."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not one JSON object: {exc}") from None
    if argv[0] == "constant":
        check_constant(argv, payload)
    elif argv[0] == "verify":
        check_verify(argv, payload)
    else:
        check_stored(argv, payload, reference)
