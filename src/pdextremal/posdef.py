"""Positive-definiteness tests and constructive gadgets.

Positive definiteness is decided via the DFT criterion (nonnegative spectrum);
the quadratic-form eigenvalue formulation exists only as a test oracle.
"""

from __future__ import annotations

import numpy as np

from .groups import Group, GroupFunction, _as_indices, dft, difference_counts

DEFAULT_TOL = 1e-9


def is_posdef(f: GroupFunction, tol: float = DEFAULT_TOL) -> bool:
    """True iff min over characters of Re fhat(chi) >= -tol."""
    return bool(np.min(dft(f).real) >= -tol)


def autocorrelation(a, group: Group) -> GroupFunction:
    """f(x) = weight * #(A intersect (A + x)), the canonical posdef witness on A - A."""
    ai = _as_indices(group, a)
    if len(ai) == 0:
        raise ValueError("autocorrelation of the empty set is undefined")
    return GroupFunction(group, difference_counts(group, ai, ai) * group.weight)


def schur_product(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """Pointwise product; positive definite whenever both factors are."""
    if f.group != g.group:
        raise ValueError("schur_product arguments live on different groups")
    return GroupFunction(f.group, f.values * g.values)


def periodize(f: GroupFunction, lam) -> GroupFunction:
    """Phi(x) = sum over (l, l') in Lambda^2 of f(x + l - l').

    Preserves positive definiteness and satisfies
    integral(Phi) = (#Lambda)^2 * integral(f).
    """
    g = f.group
    li = _as_indices(g, lam)
    if len(li) == 0:
        raise ValueError("periodize needs a nonempty translate set")
    mult = difference_counts(g, li, li)  # multiplicity of each difference l - l'
    shifts = np.flatnonzero(mult)
    out = np.zeros(g.size, dtype=np.float64)
    idx = np.arange(g.size, dtype=np.int64)
    for s in shifts:
        out += mult[s] * f.values[g.add_index(idx, int(s))]
    return GroupFunction(g, out)
