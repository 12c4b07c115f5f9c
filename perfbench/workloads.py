"""The benchmark's workloads: argv lists for ``pdextremal.cli.main``, made from a seed.

Every draw goes through the package's own SplitMix64, so a workload is fixed
by (name, seed) and can be replayed from the argv lists in a run record.

A run's passes cycle through ``SETS`` argv lists, list j made from sub-seed
``seed * SETS + j``.  The work in one lp-large list varies with its seed:
LP iterations per pass ranged 3,611-4,207 over ten seeds, and the two seeds
with the fewest had the lowest rescaled pass times.  A run's median over
several lists keeps most of that out of the spread between runs.

- ``lp-large``: eleven ``constant`` calls (Delsarte, Turan, two-set) on Z_n with
  n in the low hundreds and on rank-2 and rank-3 products of similar order.
  Each slot fixes the group, the constant and how many {x, -x} orbits its
  sets hold, so the LP has the same size on every seed (66-127 rows, up to
  151 columns); the seed only chooses which orbits.  Eleven mid-sized LPs
  rather than a few large ones, and no slot whose iteration count varies
  much with the seed, keep the seed-to-seed spread of a pass near 4%.
- ``verify-many``: all seven ``verify`` suites (suite seeds drawn from the
  seed) plus the deterministic ``trinomial`` and ``density search`` calls.
  About 1,700 LPs of at most 30 rows, where per-call overhead dominates.
- ``radial-tables``: Hankel, Gorbachev, Yudin and ball-transform tables.  No
  LP; deterministic, the seed is ignored.
"""

from __future__ import annotations

import itertools
import json

from pdextremal.fuzz import SplitMix64

# (orders, kind, orbits in omega-plus besides 0, orbits in omega-minus)
LP_SLOTS = (
    ((180,), "delsarte", 14, None),
    ((210,), "turan", 40, None),
    ((256,), "delsarte", 20, None),
    ((12, 20), "delsarte", 16, None),
    ((6, 6, 6), "turan", 40, None),
    ((5, 6, 7), "two-set", 12, 50),
    ((300,), "delsarte", 24, None),
    ((4, 7, 7), "two-set", 12, 60),
    ((240,), "delsarte", 18, None),
    ((4, 6, 9), "delsarte", 16, None),
    ((220,), "turan", 44, None),
)

# suite -> number of instances; main gets more for a per-instance p90
VERIFY_COUNTS = {"main": 400, "tile": 100, "hom": 100, "product": 100,
                 "auto": 100, "density": 100, "ineq": 100}

RADIAL_ARGVS = (
    [["radial", "hankel", "--d", str(d), "--s-max", "3", "--step", "0.05"] for d in (1, 2, 3)]
    + [["radial", "gorbachev-h", "--d", str(d)] for d in (1, 2, 3)]
    + [["radial", "yudin", "--d", "3", "--step", "0.01"],
       ["radial", "ball-transform", "--d", "3"]]
)

FIXED_VERIFY_TAIL = (
    ["trinomial", "example51"],
    ["trinomial", "optimize"],
    ["density", "search", "--forbidden", "[1,4]", "--max-period", "24"],
)


def elements(orders) -> list[tuple[int, ...]]:
    """All elements in the package's index order (lexicographic, last coordinate fastest)."""
    return list(itertools.product(*(range(n) for n in orders)))


def negate(orders, x) -> tuple[int, ...]:
    return tuple((-c) % n for c, n in zip(x, orders))


def orbit_reps(orders) -> list[tuple[int, ...]]:
    """One representative per {x, -x} orbit, the zero element excluded."""
    zero = tuple(0 for _ in orders)
    return [x for x in elements(orders) if x != zero and x <= negate(orders, x)]


def random_symmetric_set(rng: SplitMix64, orders, k: int) -> list:
    """0 plus k distinct {x, -x} orbits chosen uniformly (partial Fisher-Yates)."""
    reps = orbit_reps(orders)
    for i in range(k):
        j = i + rng.below(len(reps) - i)
        reps[i], reps[j] = reps[j], reps[i]
    chosen = {tuple(0 for _ in orders)}
    for x in reps[:k]:
        chosen.add(x)
        chosen.add(negate(orders, x))
    if len(orders) == 1:
        return sorted(x[0] for x in chosen)
    return [list(x) for x in sorted(chosen)]


def lp_large(seed: int) -> list[list[str]]:
    rng = SplitMix64(seed)
    argvs = []
    for orders, kind, k_plus, k_minus in LP_SLOTS:
        group = json.dumps({"orders": list(orders), "normalization": "probability"})
        argv = ["constant", "--group", group, "--kind", kind,
                "--omega-plus", json.dumps(random_symmetric_set(rng, orders, k_plus))]
        if k_minus is not None:
            argv += ["--omega-minus", json.dumps(random_symmetric_set(rng, orders, k_minus))]
        argvs.append(argv)
    return argvs


def verify_many(seed: int) -> list[list[str]]:
    rng = SplitMix64(seed)
    argvs = [["verify", suite, "--fuzz", str(count), "--seed", str(rng.next_u64() >> 33)]
             for suite, count in VERIFY_COUNTS.items()]
    return argvs + [list(a) for a in FIXED_VERIFY_TAIL]


def radial_tables(seed: int) -> list[list[str]]:
    del seed  # deterministic on purpose: the tables have a stored reference
    return [list(a) for a in RADIAL_ARGVS]


WORKLOADS = {"lp-large": lp_large, "verify-many": verify_many, "radial-tables": radial_tables}
SETS = 4


def argv_sets(workload: str, seed: int) -> list[list[list[str]]]:
    return [WORKLOADS[workload](seed * SETS + j) for j in range(SETS)]


# layers each workload must record spans in when traced
EXPECTED_LAYERS = {
    "lp-large": ("cli", "extremal", "groups", "lp"),
    "verify-many": ("cli", "fuzz", "extremal", "groups", "lp", "density", "trinomial"),
    "radial-tables": ("cli", "radial"),
}
