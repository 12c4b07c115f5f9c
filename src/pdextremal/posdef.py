"""The positive-definiteness test and the autocorrelation witness.

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
