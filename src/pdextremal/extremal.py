"""Extremal constants C(Omega+, Omega-), T(Omega), D(Omega+) as exact LPs.

The LP maximizes the Haar integral of f over real symmetric f with f(0) = 1,
nonnegative spectrum, f <= 0 outside Omega+ and f >= 0 outside Omega-.  It is
solved on the spectral side: one nonnegative variable per conjugate character
pair (symmetry and positive definiteness are imposed structurally, halving
the problem), sign rows for the element orbits outside the supports, and the
trivial character's value as the objective, which equals the Haar integral.

The homomorphism/quotient verifier runs the same LP on internal
character-table-backed views of K and G/K: K's characters are the
deduplicated restrictions of the ambient character group, G/K's characters
are the annihilator of K evaluated on coset representatives.  All three
groups carry counting measure, which makes the Weil decomposition
dm_G = dm_K dm_{G/K} exact and the measure factor equal to 1.

Characters are identified and paired by exact integer arithmetic, never by
comparing floats: the conjugate of chi_k is chi_{-k}, so every view takes its
pairing from the group's negation, and restrictions to K are deduplicated by
their integer phase rows (``Group.char_phases``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import Group, GroupFunction, SymSet, _as_indices, difference_set
from .lp import LpProblem, SolverFailure, solve
from . import density as density_mod

VALUE_TOL = 1e-8


class NotAStrictTiling(ValueError):
    """H does not tile the group in the strict sense with the given translates."""


class ConditionViolated(ValueError):
    """The packing-type precondition of the main estimate fails."""


@dataclass
class ExtremalResult:
    value: float
    optimizer: Optional[GroupFunction]
    spectrum: Optional[np.ndarray]
    status: str  # optimal | infeasible-zero


class _SpectralView:
    """What the LP needs from a group: weight, negation, character rows, and
    the conjugate pairing of those rows (table[pair] == conj(table))."""

    def __init__(self, weight: float, neg: np.ndarray, char_table: np.ndarray, pair: np.ndarray):
        self.weight = float(weight)
        self.neg = np.asarray(neg, dtype=np.int64)
        self.table = np.asarray(char_table, dtype=np.complex128)
        self.pair = np.asarray(pair, dtype=np.int64)
        self.size = self.neg.shape[0]
        if self.table.shape != (self.size, self.size):
            raise ValueError("character table must be square")

    @classmethod
    def of_group(cls, group: Group, weight: float | None = None) -> "_SpectralView":
        w = group.weight if weight is None else weight
        # conj(chi_k) = chi_{-k}
        return cls(w, group.neg, group.char_values(np.arange(group.size)), group.neg)


def _orbits(neg: np.ndarray):
    reps = np.minimum(np.arange(neg.shape[0]), neg)
    rep_list = np.unique(reps)
    orbit_of = np.searchsorted(rep_list, reps)
    sizes = np.bincount(orbit_of)
    return rep_list, orbit_of, sizes


def _solve_view(view: _SpectralView, mask_plus: np.ndarray, mask_minus: np.ndarray):
    """Core LP on the spectral side. Returns (value, f_values, spectrum, status).

    Variables are the spectrum values per conjugate character pair, so
    positive definiteness becomes plain nonnegativity bounds; the support
    conditions become sign rows on f(x) = (1/(N w)) sum_k u_k rho_k(x),
    f(0) = 1 is a single equality, and the objective is the trivial
    character's value.  No free variables, and the feasible region is a
    bounded slice of the nonnegative orthant.
    """
    n = view.size
    if not mask_plus[0]:
        return 0.0, np.zeros(n), np.zeros(n), "infeasible-zero"

    rep_list, orbit_of, sizes = _orbits(view.neg)

    pair = view.pair
    char_reps = np.flatnonzero(np.arange(n) <= pair)
    char_orbit_sizes = 1 + (pair[char_reps] != char_reps)
    mchar = char_reps.shape[0]
    assert char_reps[0] == 0

    # rho[k, i] = sum of the k-th conjugate character pair over element orbit i
    fold = np.zeros((n, rep_list.shape[0]))
    fold[np.arange(n), orbit_of] = 1.0
    rho = (view.table[char_reps].real * char_orbit_sizes[:, None]) @ fold

    rows = [rho[:, 0]]  # f(0) = 1, scaled by N w
    rhs = [n * view.weight]
    senses = ["="]
    for i in range(1, rep_list.shape[0]):
        inside_plus = bool(mask_plus[rep_list[i]])
        inside_minus = bool(mask_minus[rep_list[i]])
        if inside_plus and inside_minus:
            continue
        rows.append(rho[:, i])
        rhs.append(0.0)
        if not inside_plus and not inside_minus:
            senses.append("=")
        elif not inside_plus:
            senses.append("<=")
        else:
            senses.append(">=")

    c = np.zeros(mchar)
    c[0] = 1.0  # the trivial-character value is the Haar integral of f
    sol = solve(LpProblem(c, np.asarray(rows), np.asarray(rhs), senses))
    if sol.status != "optimal":
        raise SolverFailure(f"extremal LP ended with status {sol.status}")

    value = float(sol.objective_value)
    spectrum = np.empty(n)
    spectrum[char_reps] = sol.x
    spectrum[pair[char_reps]] = sol.x
    f_values = (view.table.T @ spectrum).real / (n * view.weight)
    return value, f_values, spectrum, "optimal"


def two_set_constant(group: Group, omega_plus: SymSet, omega_minus: SymSet) -> ExtremalResult:
    """C(Omega+, Omega-): sup of the Haar integral over the admissible class."""
    for s in (omega_plus, omega_minus):
        if s.group != group:
            raise ValueError("sets must live on the given group")
    value, f_values, spectrum, status = _solve_view(
        _SpectralView.of_group(group), omega_plus.mask, omega_minus.mask
    )
    return ExtremalResult(value, GroupFunction(group, f_values), spectrum, status)


def turan(group: Group, omega: SymSet) -> ExtremalResult:
    """T(Omega) = C(Omega, Omega)."""
    return two_set_constant(group, omega, omega)


def delsarte(group: Group, omega_plus: SymSet) -> ExtremalResult:
    """D(Omega+) = C(Omega+, G)."""
    return two_set_constant(group, omega_plus, SymSet.full(group))


def largest_packing_witness(group: Group, omega_plus: SymSet) -> list[int]:
    """Largest A with A - A inside Omega+ (exhaustive branch and bound).

    The autocorrelation of A, normalized to 1 at zero, certifies
    C(Omega+, .) >= m_G(A).
    """
    if not omega_plus.mask[0]:
        return []
    n = group.size
    idx = np.arange(n)
    # conflict[x] has bit y set when x - y is outside Omega+
    conflict = [int.from_bytes(np.packbits(~omega_plus.mask[group.sub_index(x, idx)],
                                           bitorder="little").tobytes(), "little")
                for x in range(n)]
    return density_mod._largest_independent_set(n, conflict)


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


def _subgroup_view(group: Group, k_indices: np.ndarray) -> tuple[_SpectralView, np.ndarray]:
    """Counting-measure view of a subgroup, via deduplicated character restrictions."""
    k_indices = np.sort(np.asarray(k_indices, dtype=np.int64))
    neg = np.searchsorted(k_indices, group.neg[k_indices])

    # characters of G agree on K exactly when their integer phase rows on K
    # agree; keep one per class, in first-occurrence order
    phases = group.char_phases(np.arange(group.size), k_indices)
    _, first, inverse = np.unique(phases, axis=0, return_index=True, return_inverse=True)
    if first.shape[0] != k_indices.shape[0]:
        raise ValueError("restriction did not produce #K distinct characters; K is not a subgroup")
    order = np.argsort(first)
    reps = first[order]
    rank = np.argsort(order)  # unique-row id -> position among reps
    pair = rank[inverse[group.neg[reps]]]
    return _SpectralView(1.0, neg, group.char_values(reps, k_indices), pair), k_indices


def _quotient_view(group: Group, k_indices: np.ndarray):
    """Counting-measure view of G/K: cosets as elements, annihilator characters."""
    n = group.size
    k_indices = np.asarray(k_indices, dtype=np.int64)
    rep = group.add_index(np.arange(n)[:, None], k_indices[None, :]).min(axis=1)
    rep_list = np.unique(rep)
    coset_of = np.searchsorted(rep_list, rep)
    neg = coset_of[rep[group.neg[rep_list]]]

    # annihilator membership is an exact integer test on character phases
    phases = group.char_phases(np.arange(n), k_indices)
    ann = np.flatnonzero(np.all(phases % group.char_lcm == 0, axis=1))
    if ann.shape[0] != n // len(k_indices):
        raise ValueError("annihilator size mismatch; K is not a subgroup")
    table = group.char_values(ann, rep_list)
    pair = np.searchsorted(ann, group.neg[ann])
    return _SpectralView(1.0, neg, table, pair), rep_list, coset_of


def _is_subgroup(group: Group, k_indices: np.ndarray) -> bool:
    kset = set(int(x) for x in k_indices)
    if 0 not in kset or len(kset) == 0:
        return False
    arr = np.asarray(sorted(kset), dtype=np.int64)
    diffs = group.sub_index(arr[:, None], arr[None, :])
    return set(int(x) for x in diffs.ravel()) <= kset


def verify_homomorphism_bound(group: Group, k_subgroup, omega_plus: SymSet,
                              omega_minus: SymSet) -> dict:
    """C_G <= C_{G/K} * C_K with counting measure on G, K and G/K."""
    k_indices = _as_indices(group, k_subgroup)
    if not _is_subgroup(group, k_indices):
        raise ValueError("K is not a subgroup of G")

    g_view = _SpectralView.of_group(group, weight=1.0)
    value_g, *_ = _solve_view(g_view, omega_plus.mask, omega_minus.mask)

    k_view, k_sorted = _subgroup_view(group, k_indices)
    mask_plus_k = omega_plus.mask[k_sorted]
    mask_minus_k = omega_minus.mask[k_sorted]
    value_k, *_ = _solve_view(k_view, mask_plus_k, mask_minus_k)

    q_view, rep_list, coset_of = _quotient_view(group, k_sorted)
    mask_plus_q = np.zeros(q_view.size, dtype=bool)
    mask_plus_q[coset_of[omega_plus.indices]] = True
    mask_minus_q = np.zeros(q_view.size, dtype=bool)
    mask_minus_q[coset_of[omega_minus.indices]] = True
    value_q, *_ = _solve_view(q_view, mask_plus_q, mask_minus_q)

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


def _as_permutation(group: Group, phi) -> np.ndarray:
    if isinstance(phi, (int, np.integer)):
        imgs = group.index_of(group.coords * int(phi))
        return np.asarray(imgs, dtype=np.int64)
    perm = np.asarray(phi, dtype=np.int64)
    if perm.shape != (group.size,):
        raise ValueError("permutation must list the image of every element index")
    return perm


def verify_automorphism_invariance(group: Group, phi, omega_plus: SymSet,
                                   omega_minus: SymSet) -> dict:
    """C_G(phi(Omega+), phi(Omega-)) equals C_G(Omega+, Omega-) for automorphisms."""
    perm = _as_permutation(group, phi)
    if sorted(perm.tolist()) != list(range(group.size)):
        raise ValueError("phi is not a bijection on the group")
    idx = np.arange(group.size)
    sums = group.add_index(idx[:, None], idx[None, :])
    if not np.array_equal(perm[sums], group.add_index(perm[idx][:, None], perm[idx][None, :])):
        raise ValueError("phi is not additive")

    def push(s: SymSet) -> SymSet:
        mask = np.zeros(group.size, dtype=bool)
        mask[perm[s.indices]] = True
        return SymSet(group, mask)

    base = two_set_constant(group, omega_plus, omega_minus).value
    mapped = two_set_constant(group, push(omega_plus), push(omega_minus)).value
    return {
        "value": base,
        "mapped_value": mapped,
        "pass": bool(abs(base - mapped) <= VALUE_TOL),
    }
