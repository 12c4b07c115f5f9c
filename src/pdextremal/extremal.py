"""Extremal constants C(Omega+, Omega-), T(Omega), D(Omega+) as exact LPs.

The LP maximizes the Haar integral of f over real symmetric f with f(0) = 1,
nonnegative spectrum, f <= 0 outside Omega+ and f >= 0 outside Omega-.  It is
solved on the spectral side: one nonnegative variable per conjugate character
pair (symmetry and positive definiteness are imposed structurally, halving
the problem), sign rows for the element orbits outside the supports, and the
trivial character's value as the objective, which equals the Haar integral.
Characters are paired by exact integer arithmetic: the conjugate of chi_k is
chi_{-k}, so the pairing is the group's negation.

The same routine gives both factors of the quotient bound C_G <= C_{G/K} C_K
(counting measure on G, K and G/K), each at its own size, from integer class
labels on the characters and elements of G (Rudin, Fourier Analysis on
Groups, 1962):

* K^ = G^/K^perp, and f on G vanishes off K exactly when its spectrum is
  constant on the classes of K^perp: C_K has one variable per class of
  characters that agree on K, and one row per element of K;
* (G/K)^ is the annihilator K^perp: C_{G/K} keeps those characters and has
  one row per coset of K, a coset meeting Omega+- counting as inside it.

The verification suites draw small random sets, so one process meets the same
LP many times.  ``_solve`` keeps the optimal answers of the process in a memo,
holding at most a fixed number of bytes with the oldest answer dropped first.
Its key is exact: the group's orders and weight, the class labels, and which
element classes meet Omega+ and Omega-, as bytes.  The LP is a function of
that key alone, so a repeat is the identical LP, and it is answered before
anything is assembled, with no re-check: its answer passed ``lp.solve``'s
certificate check when it was first solved.  Failed solves are not remembered.

On a miss, the LP's class tables (the class representatives of characters
and elements, the cosine matrices of the characters on the element classes,
and the number M of character classes) come from a second memo of the same
kind and budget.  They depend only on the group's orders and the class
labels, keyed as bytes, not on the weight or on Omega+-, which only choose
the rows kept and their bounds; so the many LPs of one group and labelling
share one build.  A key's first request records the key alone, charged like
any entry, and its tables are kept from the second request on: a group met
once, as each group of a list of large constants is, keeps no table.  A
table larger than the budget (one of Z_2048 has ~17 MB) is built for its LP
and not kept.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .groups import (Group, GroupFunction, SymSet, _as_indices, _row_blocks, difference_mask,
                     difference_set)
from .lp import LpProblem, solve
from . import density as density_mod

VALUE_TOL = 1e-8

# node budget of the packing-witness search: at the default verify ineq size
# the exact searches ended within 4,068 nodes (6,432 searches: the ineq and
# density lists of verify-many, seeds 0-11, and verify ineq --fuzz 40
# --seed 0..11), and at --max-n 400 three of the five of --seed 1 reach it
WITNESS_NODES = 10**6

# the budget of each memo, charged per entry for its value arrays, the byte
# strings of its key and the tuples, floats and array objects and dict slot
# that hold them (measured with tracemalloc at the smallest entries, on Z_1:
# ~600 bytes per answer, 870-980 per class table with its four arrays): a few
# hundred answers of the largest LPs a suite may draw (N = 2048), or thousands
# of verify-sized ones; the class tables of a verify-sized group take a few KiB
_MEMO_BYTES = 8 * 2**20
_ENTRY_BYTES = 1024


class NotAStrictTiling(ValueError):
    """H does not tile the group in the strict sense with the given translates."""


class ConditionViolated(ValueError):
    """The packing-type precondition of the main estimate fails."""


class _Memo:
    """Entries by key, oldest first, within budget bytes."""

    def __init__(self, budget: int = _MEMO_BYTES):
        self.budget, self.nbytes, self.entries = budget, 0, OrderedDict()

    @staticmethod
    def _size(key: tuple, value: tuple) -> int:
        strings = sum(len(b) for b in key if isinstance(b, bytes))  # labels, Omega+-
        arrays = sum(v.nbytes for v in value if isinstance(v, np.ndarray))
        return strings + arrays + _ENTRY_BYTES

    def put(self, key: tuple, value: tuple) -> None:
        """Keep value under key, newest, in place of an entry the key had."""
        size = self._size(key, value)
        if size > self.budget:
            return
        held = self.entries.pop(key, None)
        if held is not None:
            self.nbytes -= self._size(key, held)
        self.entries[key] = value
        self.nbytes += size
        while self.nbytes > self.budget:
            self.nbytes -= self._size(*self.entries.popitem(last=False))


_solved = _Memo()  # the process's optimal answers of _solve
_built = _Memo()  # the process's class tables of _solve, by group orders and labels


@dataclass
class ExtremalResult:
    value: float
    optimizer: GroupFunction
    spectrum: np.ndarray
    status: str  # optimal | infeasible-zero


def _tables(group: Group, labels: tuple, chars: np.ndarray, elems: np.ndarray) -> tuple:
    """The class tables of _solve: (char_reps, reps, base, rho, M).

    char_reps and reps hold one representative per class pair {C, -C} of
    characters and of elements, base and rho the cosine matrices of the
    character pairs on all element classes, and M the number of character
    classes.  They depend on the group's orders and the class labels alone
    (``labels`` holds the bytes of ``chars`` and ``elems``, None for the
    identity), not on the weight or Omega+-.  A key's first request is
    recorded in the memo, as an empty entry; the tables are kept, read-only,
    from its second request on, so a group met once keeps nothing.
    """
    key = (group.orders, *labels)
    known = _built.entries.get(key)
    if known:
        return known
    idx, neg = np.arange(group.size), group.neg
    # one representative per class pair {C, -C}, for characters and elements alike,
    # selected by a mask: np.flatnonzero's view would keep a second array in the memo
    char_reps = idx[(chars == idx) & (idx <= chars[neg])]
    reps = idx[(elems == idx) & (idx <= elems[neg])]

    # rho_k(x): character pair k summed over the class pair of x; chi_k(-x) has the
    # exact phase (-p) mod L, added as such, not doubled, so values are bit-stable.
    # The cosines are read from one table of the L phases, which holds the same
    # floats as np.cos of the phase matrix
    L = group.char_lcm
    phases = group.char_phases(char_reps, reps)
    mult = 1 + (chars[neg[char_reps]] != char_reps)[:, None]
    cos = np.cos((2 * np.pi / L) * np.arange(L))
    base = cos[phases] * mult
    paired = elems[neg[reps]] != reps
    rho = base + paired * mult * cos[-phases % L]
    for array in (char_reps, reps, base, rho):
        array.flags.writeable = False
    tables = char_reps, reps, base, rho, int(np.count_nonzero(chars == idx))
    _built.put(key, () if known is None else tables)
    return tables


def _solve(group: Group, mask_plus: np.ndarray, mask_minus: np.ndarray,
           chars: np.ndarray | None = None, elems: np.ndarray | None = None):
    """The LP on the group of classes.  Returns (value, f_values, spectrum, status).

    ``chars`` and ``elems`` label each character and element of G by the
    least index of its class, -1 leaving it out; the identity default is G.
    Variables are the spectrum values per conjugate pair of character
    classes, so positive definiteness becomes plain nonnegativity bounds; the
    support conditions become row bounds on f(x) = (1/(M w)) sum_k u_k
    rho_k(x) over the M character classes, f(0) = 1 is a single equality, and
    the objective is the trivial character's value.

    An optimal answer is kept in the memo, its arrays read-only, and a repeat
    of its key is answered from there before any assembly.  The key holds
    every input the LP is built from, so the repeat is the identical LP and
    the answer needs no second certificate check.
    """
    n = group.size
    labels = tuple(None if v is None else np.asarray(v, dtype=np.int64).tobytes()
                   for v in (chars, elems))  # None: the identity labels of G
    if elems is None:  # every element is its own class
        inside_plus = np.array(mask_plus, dtype=bool)  # copies: inside_minus[0] is set below
        inside_minus = np.array(mask_minus, dtype=bool)
    else:
        inside_plus, inside_minus = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        inside_plus[elems[mask_plus & (elems >= 0)]] = True  # a class meets Omega+
        inside_minus[elems[mask_minus & (elems >= 0)]] = True
    if not inside_plus[0]:
        return 0.0, np.zeros(n), np.zeros(n), "infeasible-zero"
    inside_minus[0] = True  # row 0 is f(0) = 1 whether or not 0 is in Omega-
    key = (group.orders, group.weight, *labels, inside_plus.tobytes(), inside_minus.tobytes())
    known = _solved.entries.get(key)
    if known is not None:
        return known

    idx = np.arange(n)
    char_reps, reps, base, rho_all, classes = _tables(
        group, labels, idx if chars is None else chars, idx if elems is None else elems)
    # one row per element class: f(0) = 1 (scaled by M w), then a sign row
    # for every class outside Omega+ (f <= 0) or outside Omega- (f >= 0)
    keep = ~(inside_plus & inside_minus)[reps]
    keep[0] = True
    rows = reps[keep]
    upper = np.where(inside_plus[rows], np.inf, 0.0)
    lower = np.where(inside_minus[rows], -np.inf, 0.0)
    lower[0] = upper[0] = scale = classes * group.weight
    rho = rho_all[:, keep]

    c = np.zeros(char_reps.shape[0])
    c[0] = 1.0  # the trivial-character value is the Haar integral of f
    sol = solve(LpProblem(c, rho.T, lower, upper))

    value = float(sol.objective_value)
    neg = group.neg
    spectrum = np.zeros(n)
    spectrum[char_reps] = sol.x
    spectrum[neg[char_reps]] = sol.x
    f_values = np.zeros(n)
    f_values[reps] = at_reps = sol.x @ base / scale
    f_values[neg[reps]] = at_reps
    f_values.flags.writeable = spectrum.flags.writeable = False
    answer = value, f_values, spectrum, "optimal"
    _solved.put(key, answer)
    return answer


def two_set_constant(group: Group, omega_plus: SymSet, omega_minus: SymSet) -> ExtremalResult:
    """C(Omega+, Omega-): sup of the Haar integral over the admissible class."""
    for s in (omega_plus, omega_minus):
        if s.group != group:
            raise ValueError("sets must live on the given group")
    value, f_values, spectrum, status = _solve(group, omega_plus.mask, omega_minus.mask)
    return ExtremalResult(value, GroupFunction(group, f_values), spectrum, status)


def turan(group: Group, omega: SymSet) -> ExtremalResult:
    """T(Omega) = C(Omega, Omega)."""
    return two_set_constant(group, omega, omega)


def delsarte(group: Group, omega_plus: SymSet) -> ExtremalResult:
    """D(Omega+) = C(Omega+, G)."""
    return two_set_constant(group, omega_plus, SymSet.full(group))


def largest_packing_witness(group: Group, omega_plus: SymSet) -> list[int]:
    """A set A with A - A inside Omega+, from a search of WITNESS_NODES nodes.

    The largest such A (lexicographically least among them) where the branch
    and bound finishes within the budget, else the best found by then.  Any
    such A certifies C(Omega+, .) >= m_G(A): its autocorrelation, normalized
    to 1 at zero, is admissible.
    """
    return density_mod._packing_set(group, omega_plus.mask, WITNESS_NODES)


def verify_tile_theorem(group: Group, h, lam, omega_minus: SymSet) -> dict:
    """C(H - H, Omega-) against m_G(H) for a strict tile H with translates Lambda."""
    if not density_mod.tiles_strict(group, h, lam):
        raise NotAStrictTiling("H does not tile the group in the strict sense with Lambda")
    omega_plus = difference_set(h, h, group=group)
    res = two_set_constant(group, omega_plus, omega_minus)
    rhs = len(_as_indices(group, h)) * group.weight
    return {
        "lhs": res.value,
        "rhs": rhs,
        "pass": bool(abs(res.value - rhs) <= VALUE_TOL),
        "status": res.status,
    }


def verify_main_theorem(group: Group, omega_plus: SymSet, lam) -> dict:
    """D(Omega+) <= 1/#Lambda under the packing-type condition, probability measure."""
    if abs(group.total_mass - 1.0) > 1e-12:
        raise ValueError("the main estimate is verified on a probability-normalized group")
    if not density_mod.packing_type(omega_plus, lam, group=group):
        raise ConditionViolated("Omega+ intersects (Lambda - Lambda) beyond 0")
    count = len(_as_indices(group, lam))
    if count == 0:
        raise ValueError("Lambda must be nonempty")
    res = delsarte(group, omega_plus)
    bound = 1.0 / count
    return {
        "delsarte": res.value,
        "bound": bound,
        "pass": bool(res.value <= bound + VALUE_TOL),
        "tight": bool(abs(res.value - bound) <= VALUE_TOL),
    }


def _is_subgroup(group: Group, k_mask: np.ndarray) -> bool:
    return bool(k_mask[0]) and not (difference_mask(group, k_mask, k_mask) & ~k_mask).any()


def verify_homomorphism_bound(group: Group, k_subgroup, omega_plus: SymSet,
                              omega_minus: SymSet) -> dict:
    """C_G <= C_{G/K} * C_K with counting measure on G, K and G/K."""
    k_mask = np.zeros(group.size, dtype=bool)
    k_mask[_as_indices(group, k_subgroup)] = True
    group = Group(group.orders, 1.0)  # counting measure
    if not _is_subgroup(group, k_mask):
        raise ValueError("K is not a subgroup of G")
    plus, minus = omega_plus.mask, omega_minus.mask
    idx, k = np.arange(group.size), np.flatnonzero(k_mask)

    annihilator = np.concatenate([~group.char_phases(rows, k).any(axis=1)
                                  for rows in _row_blocks(idx, len(k))])  # K^perp, exactly

    def cosets(sub):  # the least index of x + sub = x - (-sub), for every x
        return np.concatenate([group.sub_index(rows[:, None], group.neg[sub]).min(axis=1)
                               for rows in _row_blocks(idx, len(sub))])

    value_g, *_ = _solve(group, plus, minus)
    # K^ = G^/K^perp: characters label their coset of K^perp; elements off K drop out
    value_k, *_ = _solve(group, plus, minus, chars=cosets(np.flatnonzero(annihilator)),
                         elems=np.where(k_mask, idx, -1))
    # (G/K)^ = K^perp: other characters drop out; elements label their coset of K
    value_q, *_ = _solve(group, plus, minus, chars=np.where(annihilator, idx, -1),
                         elems=cosets(k))

    rhs = value_q * value_k
    return {
        "lhs": value_g,
        "quotient_constant": value_q,
        "subgroup_constant": value_k,
        "rhs": rhs,
        "pass": bool(value_g <= rhs + VALUE_TOL * (1.0 + abs(rhs))),
        "measure_convention": "counting on G, K and G/K",
    }


def product_group(g1: Group, g2: Group) -> Group:
    return Group(g1.orders + g2.orders, g1.weight * g2.weight)


def product_set(g1: Group, g2: Group, s1: SymSet, s2: SymSet) -> SymSet:
    prod = product_group(g1, g2)
    mask = np.outer(s1.mask, s2.mask).ravel()  # index = i1 * N2 + i2, lexicographic
    return SymSet(prod, mask)


def verify_product_bound(g1: Group, g2: Group, omega_plus_pair, omega_minus_pair) -> dict:
    """C_{G1 x G2}(product sets) <= C_{G1} * C_{G2}."""
    o1p, o2p = omega_plus_pair
    o1m, o2m = omega_minus_pair
    prod = product_group(g1, g2)
    lhs = two_set_constant(prod, product_set(g1, g2, o1p, o2p),
                           product_set(g1, g2, o1m, o2m)).value
    v1 = two_set_constant(g1, o1p, o1m).value
    v2 = two_set_constant(g2, o2p, o2m).value
    rhs = v1 * v2
    return {
        "lhs": lhs,
        "factors": [v1, v2],
        "rhs": rhs,
        "gap": rhs - lhs,  # recorded, not asserted strict
        "pass": bool(lhs <= rhs + VALUE_TOL * (1.0 + abs(rhs))),
    }


def verify_automorphism_invariance(group: Group, phi: int, omega_plus: SymSet,
                                   omega_minus: SymSet) -> dict:
    """C_G(u Omega+, u Omega-) equals C_G(Omega+, Omega-) for the automorphism x -> u x.

    ``phi`` is the integer multiplier u.  Multiplication by an integer is a
    homomorphism of every abelian group, and a bijection exactly when u is
    prime to the exponent lcm(orders); on a cyclic group every automorphism
    is of this form.
    """
    if not isinstance(phi, (int, np.integer)):
        raise ValueError(f"phi must be an integer multiplier, got {phi!r}")
    if math.gcd(int(phi), group.char_lcm) != 1:
        raise ValueError("phi is not a bijection on the group")
    images = group.index_of(group.coords * (int(phi) % group.char_lcm))

    def push(s: SymSet) -> SymSet:
        mask = np.zeros(group.size, dtype=bool)
        mask[images[s.indices]] = True
        return SymSet(group, mask)

    base = two_set_constant(group, omega_plus, omega_minus).value
    mapped = two_set_constant(group, push(omega_plus), push(omega_minus)).value
    return {
        "value": base,
        "mapped_value": mapped,
        "pass": bool(abs(base - mapped) <= VALUE_TOL),
    }
