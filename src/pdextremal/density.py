"""Packing/covering/tiling predicates and asymptotic uniform upper density.

Densities are implemented only where they have a closed form: on a
probability-normalized finite group the a.u.u.d. of a finite set is its
cardinality, and for a periodic integer set it is residues/period (for
periodic sets the lim-sup and inf-sup definitions coincide: every window of
length r*p contains exactly r*#residues points, so the sup over windows and
the limit agree).  The exhaustive search certifies the optimum over periodic
patterns up to the stated period bound only, and reports that bound.

Differences x - y are counted by ``groups.difference_counts`` alone, and one
branch and bound, ``_packing_set``, serves both the periodic search (exact)
and ``extremal.largest_packing_witness`` (under a node budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .groups import (Group, SymSet, _as_indices, _row_blocks, difference_counts,
                     difference_mask, make_group)


@dataclass(frozen=True)
class PeriodicSet:
    """residues + period * Z, a periodic subset of the integers."""

    period: int
    residues: frozenset[int]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period (--period) must be positive, got {self.period}")
        object.__setattr__(self, "residues", frozenset(int(r) % self.period for r in self.residues))

    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.period)

    def to_json(self) -> dict:
        return {"period": self.period, "residues": sorted(self.residues)}


def shift_counts(group: Group, h, lam) -> np.ndarray:
    """counts[x] = number of translates H + l (l in Lambda) covering x."""
    return difference_counts(group, h, group.neg[_as_indices(group, lam)])


def packs_strict(group: Group, h, lam) -> bool:
    """(Lambda - Lambda) intersect (H - H) == {0}."""
    return packing_type(difference_mask(group, h, h), lam, group=group)


def covers(group: Group, h, lam) -> bool:
    return bool(np.all(shift_counts(group, h, lam) >= 1))


def tiles_strict(group: Group, h, lam) -> bool:
    return packs_strict(group, h, lam) and covers(group, h, lam)


def packing_type(w, lam, group: Group) -> bool:
    """Generalized condition (Lambda - Lambda) intersect W subset of {0}; W a SymSet or mask."""
    wmask = w.mask if isinstance(w, SymSet) else np.asarray(w, dtype=bool)
    dl = difference_mask(group, lam, lam)
    both = dl & wmask
    both[0] = False
    return not both.any()


def auud_finite(group: Group, lam) -> int:
    """#Lambda, valid on a probability-normalized group."""
    if abs(group.total_mass - 1.0) > 1e-12:
        raise ValueError("asymptotic density on a finite group needs m_G(G) = 1")
    return int(len(_as_indices(group, lam)))


def auud_periodic(lam: PeriodicSet) -> Fraction:
    return lam.density()


MAX_SHADOW = 10**6  # most integers one interval may hold


def integer_shadow(intervals: Sequence[Sequence[float]], closed: bool = False) -> list[int]:
    """Positive integers inside a union of rational intervals (open by default).

    The helper that turns a real forbidden-difference set into the integer
    forbidden set used by the periodic search.
    """
    out = set()
    for pair in intervals:
        if len(pair) != 2:
            raise ValueError(f"interval must be a [lo, hi] pair, got {pair!r}")
        lo, hi = float(pair[0]), float(pair[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval endpoints must be finite: {pair!r}")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {pair!r}")
        first, last = ((math.ceil(lo), math.floor(hi)) if closed
                       else (math.floor(lo) + 1, math.ceil(hi) - 1))
        if last - first >= MAX_SHADOW:
            raise ValueError(f"interval {pair!r} holds more than {MAX_SHADOW} integers")
        out.update(abs(k) for k in range(first, last + 1) if k)
    return sorted(out)


def _conflicts(group: Group, allowed: np.ndarray) -> list[int]:
    """conflict[x] with bit y set when x - y is outside the mask allowed.

    The differences are taken in blocks of rows (``groups._row_blocks``), one
    block up to N = 512, and each block's rows packed to bits at once.
    """
    idx, conflict = np.arange(group.size), []
    for rows in _row_blocks(idx, group.size):
        diffs = group.sub_index(rows[:, None], idx)
        bits = np.packbits(~allowed[diffs], axis=1, bitorder="little")
        conflict += [int.from_bytes(row.tobytes(), "little") for row in bits]
    return conflict


def _packing_set(group: Group, allowed: np.ndarray, max_nodes: float = math.inf) -> list[int]:
    """Largest A (element indices) with A - A inside the mask allowed.

    Branch and bound over the indices in increasing order with an explicit
    stack, so the depth is not limited by recursion.  Each element is tried
    included before excluded, so among the largest sets the lexicographically
    least is returned.  A node is pruned when its set plus every element from
    its next index on that no chosen element bans cannot beat the best set.
    After max_nodes nodes the search stops and returns the best set found so
    far: a largest one only if the search had finished, and never worse than
    the greedy set, the first one found.
    """
    if not allowed[0]:
        return []
    n, full = group.size, (1 << group.size) - 1
    keep = [full ^ row for row in _conflicts(group, allowed)]
    best, best_size, nodes = 0, 0, 0
    stack = [(0, full, 0, 0)]  # (next element, unbanned mask, chosen mask, chosen count)
    while stack and nodes < max_nodes:
        nodes += 1
        start, free, chosen, size = stack.pop()
        left = free >> start  # the unbanned elements from start on
        if size + left.bit_count() <= best_size:
            continue
        if start == n:
            best, best_size = chosen, size
            continue
        stack.append((start + 1, free, chosen, size))
        if left & 1:
            stack.append((start + 1, free & keep[start], chosen | (1 << start), size + 1))
    return [x for x in range(n) if (best >> x) & 1]


def max_density_search(forbidden_diffs: Iterable[int], max_period: int) -> dict:
    """Best periodic-set density whose integer differences avoid the forbidden set.

    Searches all periods up to max_period exhaustively: per period p, the
    largest packing set in Z_p of the residues allowed as differences.  The
    reported optimum is certified for periodic patterns within that bound only.
    """
    forbidden = sorted({int(f) for f in forbidden_diffs})
    if any(f <= 0 for f in forbidden):
        raise ValueError(f"forbidden differences (--forbidden) must be positive integers, "
                         f"got {forbidden[0]}")
    if max_period < 1 or max_period > 24:
        raise ValueError(f"max_period (--max-period) must be between 1 and 24 "
                         f"(exhaustive search bound), got {max_period}")

    best_density = Fraction(0)
    best_witness = PeriodicSet(1, frozenset())
    for p in range(1, max_period + 1):
        allowed = np.ones(p, dtype=bool)
        allowed[[s * f % p for f in forbidden for s in (1, -1)]] = False
        witness = _packing_set(make_group([p]), allowed)  # empty if p divides some f
        dens = Fraction(len(witness), p)
        if dens > best_density:
            best_density = dens
            best_witness = PeriodicSet(p, frozenset(witness))
    return {"density": best_density, "witness": best_witness, "search_bound": max_period}


def density_bounds_check(group: Group, h, lam) -> dict:
    """Compare the a.u.u.d. of Lambda with 1/m_G(H) per the packing/covering facts."""
    if abs(group.total_mass - 1.0) > 1e-12:
        raise ValueError("density bounds are stated for a probability-normalized group")
    hi = _as_indices(group, h)
    mass = len(hi) * group.weight
    dens = auud_finite(group, lam)
    is_pack = packs_strict(group, h, lam)
    is_cover = covers(group, h, lam)
    report = {
        "auud": dens,
        "inv_mass": (1.0 / mass) if mass > 0 else float("inf"),
        "packs_strict": is_pack,
        "covers": is_cover,
        "tiles_strict": is_pack and is_cover,
        "checks": [],
    }
    ok = True
    if is_pack and mass > 0:
        good = dens <= report["inv_mass"] + 1e-9
        report["checks"].append({"relation": "auud <= 1/m_G(H)", "pass": good})
        ok &= good
    if is_cover and mass > 0:
        good = dens >= report["inv_mass"] - 1e-9
        report["checks"].append({"relation": "auud >= 1/m_G(H)", "pass": good})
        ok &= good
    if is_pack and is_cover and mass > 0:
        good = abs(dens - report["inv_mass"]) <= 1e-9
        report["checks"].append({"relation": "auud == 1/m_G(H)", "pass": good})
        ok &= good
    report["pass"] = bool(ok)
    return report
