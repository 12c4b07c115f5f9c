"""Randomized verification suites over a documented, replayable PRNG.

The generator is SplitMix64 (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): 64-bit state advanced by the
additive constant 0x9E3779B97F4A7C15, output mixed by xor-shifts with
multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  Bounded draws use
integer scaling (next * n) >> 64.  This pins every fuzz case to its seed in a
way that can be reproduced from the algorithm description alone.
"""

from __future__ import annotations

import math

import numpy as np

from .density import density_bounds_check, packs_strict, shift_counts
from .extremal import (
    delsarte,
    largest_packing_witness,
    turan,
    two_set_constant,
    verify_automorphism_invariance,
    verify_homomorphism_bound,
    verify_main_theorem,
    verify_product_bound,
    verify_tile_theorem,
)
from .groups import Group, SymSet, difference_mask, make_group

_MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from {0, ..., n-1}."""
        return (self.next_u64() * n) >> 64

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num

    def pick(self, items):
        return items[self.below(len(items))]


def _random_orbits(rng: SplitMix64, group: Group, allowed) -> np.ndarray:
    """Random union of the orbits {x, -x}, x != 0, with x in ``allowed``.

    One ``chance(1, 2)`` per orbit, drawn in increasing order of its least
    element x (x <= -x as indices).
    """
    neg, idx = group.neg, np.arange(group.size)
    reps = np.flatnonzero((0 < idx) & (idx <= neg) & allowed)
    picked = reps[np.array([rng.chance(1, 2) for _ in range(reps.size)], dtype=bool)]
    mask = np.zeros(group.size, dtype=bool)
    mask[picked] = mask[neg[picked]] = True
    return mask


def symmetric_mask(rng: SplitMix64, group: Group, include_zero: bool) -> np.ndarray:
    """Random 0-symmetric mask; each {x, -x} orbit kept with probability 1/2."""
    mask = _random_orbits(rng, group, True)
    mask[0] = include_zero
    return mask


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


MAX_GROUP = 2048  # largest group a suite may draw
# most instances a suite may run: at 0.2-2.2 ms and 160-520 bytes of JSON
# each (2,000 instances per suite at the default --max-n, seed 1, one thread
# of a 2-CPU Xeon), at most ~4 minutes and ~50 MB of output; at --max-n 2048
# an auto, main or hom instance takes 3-8 s, so 10**5 of them take 4-9 days
MAX_COUNT = 10**5


def _run_suite(name: str, count: int, seed: int, max_n: int, smallest: int, case,
               factors: int = 1) -> dict:
    """Run ``case(rng, max_n)`` for count instances and report them.

    Each case returns its instance row with a "pass" flag.  The suite's groups
    have between smallest and max_n ** factors elements.
    """
    if not 0 <= count <= MAX_COUNT:
        raise ValueError(f"instance count (--fuzz) must be from 0 to {MAX_COUNT}, got {count}")
    if not 0 <= seed <= _MASK64:  # SplitMix64 would read it modulo 2^64
        raise ValueError(f"seed (--seed) must be from 0 to {_MASK64}, got {seed}")
    if max_n < smallest:
        raise ValueError(f"max_n (--max-n) must be at least {smallest} for this suite, got {max_n}")
    limit = int(MAX_GROUP ** (1.0 / factors))
    if max_n > limit:
        raise ValueError(f"max_n (--max-n) must be at most {limit} for this suite "
                         f"(groups of at most {MAX_GROUP} elements), got {max_n}")
    rng = SplitMix64(seed)
    instances = [{"index": i, **case(rng, max_n)} for i in range(count)]
    failures = sum(not inst["pass"] for inst in instances)
    return {"suite": name, "count": count, "seed": seed, "max_n": max_n,
            "failures": failures, "pass": failures == 0, "instances": instances}


def _tile_case(rng: SplitMix64, max_n: int) -> dict:
    n = 2 + rng.below(max_n - 1)
    k = rng.pick(_divisors(n))
    group = make_group([n], "probability")
    kind = rng.below(3)
    if kind == 0:
        omega_minus = SymSet.empty(group)
    elif kind == 1:
        omega_minus = SymSet.full(group)
    else:
        omega_minus = SymSet(group, symmetric_mask(rng, group, include_zero=True))
    rep = verify_tile_theorem(group, list(range(k)), list(range(0, n, k)), omega_minus)
    return {"n": n, "k": k, "omega_minus": omega_minus.elements(),
            "lhs": rep["lhs"], "rhs": rep["rhs"], "pass": rep["pass"]}


def run_tile_suite(count: int, seed: int, max_n: int = 40) -> dict:
    return _run_suite("tile", count, seed, max_n, 2, _tile_case)


def _main_case(rng: SplitMix64, max_n: int) -> dict:
    n = 4 + rng.below(max_n - 3)
    group = make_group([n], "probability")
    if rng.chance(3, 10):
        # strict-tile construction: tight case D = k/n = 1/#Lambda
        k = rng.pick(_divisors(n))
        lam = list(range(0, n, k))
        mask = np.zeros(n, dtype=bool)
        for j in range(-(k - 1), k):
            mask[j % n] = True
        omega_plus = SymSet(group, mask)
    else:
        lam_size = 2 + rng.below(max(1, n // 3))
        lam = [0]
        pool = list(range(1, n))
        while len(lam) < lam_size and pool:
            lam.append(pool.pop(rng.below(len(pool))))
        lam = sorted(lam)
        dl = difference_mask(group, lam, lam)
        mask = _random_orbits(rng, group, ~dl & ~dl[group.neg])
        mask[0] = True
        omega_plus = SymSet(group, mask)
    rep = verify_main_theorem(group, omega_plus, lam)
    return {"n": n, "omega_plus": omega_plus.elements(), "lam": lam,
            "delsarte": rep["delsarte"], "bound": rep["bound"],
            "pass": rep["pass"], "tight": rep["tight"]}


def run_main_suite(count: int, seed: int, max_n: int = 40) -> dict:
    """D(Omega+) <= 1/#Lambda.  The suite passes only when no instance fails and
    at least one is tight (D = 1/#Lambda within VALUE_TOL, so the bound is seen
    to be sharp): a run without a tight instance, such as count 0, fails."""
    report = _run_suite("main", count, seed, max_n, 4, _main_case)
    tight = sum(inst["tight"] for inst in report["instances"])
    report["tight_instances"] = tight
    report["pass"] = report["pass"] and tight >= 1
    return report


def hom_instance(rng: SplitMix64, max_n: int) -> dict:
    composites = [n for n in range(4, max_n + 1)
                  if any(n % d == 0 for d in range(2, math.isqrt(n) + 1))]
    n = rng.pick(composites)
    d = rng.pick([d for d in _divisors(n) if 1 < d < n])
    group = make_group([n], "counting")
    k_elems = list(range(0, n, d))  # subgroup d*Z_n of size n/d
    omega_plus = SymSet(group, symmetric_mask(rng, group, include_zero=True))
    omega_minus = (SymSet.full(group) if rng.chance(1, 3)
                   else SymSet(group, symmetric_mask(rng, group, include_zero=rng.chance(1, 2))))
    return {"group": group, "k": k_elems, "omega_plus": omega_plus, "omega_minus": omega_minus}


def _hom_case(rng: SplitMix64, max_n: int) -> dict:
    inst = hom_instance(rng, max_n)
    rep = verify_homomorphism_bound(inst["group"], inst["k"], inst["omega_plus"],
                                    inst["omega_minus"])
    return {"n": inst["group"].size, "k": inst["k"], "omega_plus": inst["omega_plus"].elements(),
            "omega_minus": inst["omega_minus"].elements(),
            "lhs": rep["lhs"], "rhs": rep["rhs"], "pass": rep["pass"]}


def run_hom_suite(count: int, seed: int, max_n: int = 24) -> dict:
    return _run_suite("hom", count, seed, max_n, 4, _hom_case)


def _product_case(rng: SplitMix64, max_n: int) -> dict:
    n1 = 2 + rng.below(max_n - 1)
    n2 = 2 + rng.below(max_n - 1)
    g1 = make_group([n1], "probability")
    g2 = make_group([n2], "probability")
    o1p = SymSet(g1, symmetric_mask(rng, g1, include_zero=True))
    o2p = SymSet(g2, symmetric_mask(rng, g2, include_zero=True))
    o1m = SymSet(g1, symmetric_mask(rng, g1, include_zero=rng.chance(1, 2)))
    o2m = SymSet(g2, symmetric_mask(rng, g2, include_zero=rng.chance(1, 2)))
    rep = verify_product_bound(g1, g2, (o1p, o2p), (o1m, o2m))
    return {"n1": n1, "n2": n2, "lhs": rep["lhs"], "rhs": rep["rhs"], "pass": rep["pass"]}


def run_product_suite(count: int, seed: int, max_n: int = 7) -> dict:
    return _run_suite("product", count, seed, max_n, 2, _product_case, factors=2)


def _auto_case(rng: SplitMix64, max_n: int) -> dict:
    n = 3 + rng.below(max_n - 2)
    group = make_group([n], "probability")
    units = [u for u in range(1, n) if np.gcd(u, n) == 1]
    u = rng.pick(units)
    op = SymSet(group, symmetric_mask(rng, group, include_zero=True))
    om = SymSet(group, symmetric_mask(rng, group, include_zero=rng.chance(1, 2)))
    rep = verify_automorphism_invariance(group, u, op, om)
    return {"n": n, "unit": u, "value": rep["value"], "mapped_value": rep["mapped_value"],
            "pass": rep["pass"]}


def run_auto_suite(count: int, seed: int, max_n: int = 30) -> dict:
    return _run_suite("auto", count, seed, max_n, 3, _auto_case)


def _density_case(rng: SplitMix64, max_n: int) -> dict:
    n = 2 + rng.below(max_n - 1)
    group = make_group([n], "probability")
    h_size = 1 + rng.below(max(1, n // 2))
    h = sorted({rng.below(n) for _ in range(h_size)} | {0})
    lam_size = 1 + rng.below(max(1, n // 2))
    lam = sorted({rng.below(n) for _ in range(lam_size)})
    rep = density_bounds_check(group, h, lam)
    # strict packing is equivalent to all cover counts <= 1
    counts_ok = (packs_strict(group, h, lam)
                 == bool(np.max(shift_counts(group, h, lam), initial=0) <= 1))
    return {"n": n, "h": h, "lam": lam, "pass": rep["pass"] and counts_ok,
            "auud": rep["auud"], "packs_strict": rep["packs_strict"], "covers": rep["covers"]}


def run_density_suite(count: int, seed: int, max_n: int = 40) -> dict:
    return _run_suite("density", count, seed, max_n, 2, _density_case)


def _ineq_case(rng: SplitMix64, max_n: int) -> dict:
    n = 2 + rng.below(max_n - 1)
    group = make_group([n], "probability")
    op = SymSet(group, symmetric_mask(rng, group, include_zero=True))
    om = SymSet(group, symmetric_mask(rng, group, include_zero=rng.chance(1, 2)))
    # supersets for monotonicity
    op_big = SymSet(group, op.mask | symmetric_mask(rng, group, include_zero=True))
    om_big = SymSet(group, om.mask | symmetric_mask(rng, group, include_zero=False))

    value = two_set_constant(group, op, om).value
    value_big = two_set_constant(group, op_big, om_big).value
    t = turan(group, op).value
    d = delsarte(group, op).value
    witness = largest_packing_witness(group, op)
    lower = len(witness) * group.weight

    checks = {
        "monotone": value <= value_big + 1e-9,
        "turan_le_delsarte": t <= d + 1e-9,
        "upper_by_mass": value <= op.haar_mass() + 1e-9,
        "autocorr_lower": value >= lower - 1e-9,
    }
    return {"n": n, "omega_plus": op.elements(), "value": value, "checks": checks,
            "pass": all(checks.values())}


def run_ineq_suite(count: int, seed: int, max_n: int = 20) -> dict:
    """Monotonicity, T <= D, value <= m_G(Omega+), autocorrelation lower bound."""
    return _run_suite("ineq", count, seed, max_n, 2, _ineq_case)


SUITES = {
    "tile": run_tile_suite,
    "main": run_main_suite,
    "hom": run_hom_suite,
    "product": run_product_suite,
    "auto": run_auto_suite,
    "density": run_density_suite,
    "ineq": run_ineq_suite,
}
