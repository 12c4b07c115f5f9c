"""Finite abelian groups Z_n1 x ... x Z_nk: elements, Haar weight, characters, DFT.

Elements are indexed lexicographically over coordinate tuples (last coordinate
fastest), so JSON input/output is bit-stable.  This order is numpy's C order
on an array of shape ``orders``, so the DFT is numpy's n-dimensional FFT.

A group's layout (the strides of that order, every element's coordinates and
the negation x -> -x) depends on ``orders`` alone.  It is built once per
process for each ``orders``, kept in a least-recently-used cache of _LAYOUTS
entries, and shared, read-only, by every group with those orders, whatever
its weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

ElementLike = Union[int, Sequence[int]]

_CHUNK = 1 << 18  # cap on the entries of one block of an index table (_row_blocks)

# largest group read from JSON: the extremal LP is a dense (N/2) x (N/2) real
# block (32 MiB here), and its time grows faster than N^2 (Delsarte with
# Omega+ = {-1, 0, 1}: ~3 s at N = 1024, ~10 s at N = 1536 on a 2-CPU Xeon VM)
MAX_JSON_GROUP = 4096

# accepted total Haar mass N * w: the LP's scaling holds its digits inside
# (checked on 100 random LPs up to N = 512); N * w = 1e-3 gave relative errors
# of 8e-7 on 60 random two-set LPs, and 1e13 already failed once
MASS_RANGE = (1e-2, 1e12)

# layouts kept by _layout: an argv list of the benchmark's verify-many
# workload meets 72-75 distinct orders, and a cyclic group of the suites'
# largest size (2048) has a 32 KiB layout, so 256 of them hold at most 8 MiB
_LAYOUTS = 256


def _resolve_weight(n: int, normalization) -> float:
    if normalization == "probability":
        return 1.0 / n
    if normalization == "counting":
        return 1.0
    if isinstance(normalization, dict) and set(normalization) == {"weight"}:
        normalization = normalization["weight"]
    if isinstance(normalization, (int, float)) and not isinstance(normalization, bool):
        try:
            return float(normalization)
        except OverflowError:  # an int beyond float range
            return math.inf if normalization > 0 else -math.inf
    raise ValueError(f"unknown normalization {normalization!r}")


@lru_cache(maxsize=_LAYOUTS)
def _layout(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strides, coordinates and negation of Z_orders, read-only, shared by equal groups."""
    strides = np.ones(len(orders), dtype=np.int64)
    for j in range(len(orders) - 2, -1, -1):
        strides[j] = strides[j + 1] * orders[j + 1]
    modulus = np.asarray(orders, dtype=np.int64)
    coords = (np.arange(math.prod(orders), dtype=np.int64)[:, None] // strides) % modulus
    neg = ((-coords) % modulus) @ strides
    for array in (strides, coords, neg):
        array.flags.writeable = False
    return strides, coords, neg


@dataclass(frozen=True)
class Group:
    """A product of cyclic groups with a Haar mass per point."""

    orders: tuple[int, ...]
    weight: float

    def __post_init__(self):
        if len(self.orders) == 0:
            raise ValueError("order list must be nonempty")
        if any(int(n) < 1 for n in self.orders):
            raise ValueError(f"all cyclic orders must be >= 1, got {self.orders}")
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        object.__setattr__(self, "weight", float(self.weight))
        if not 0 < self.weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {self.weight}")
        if not MASS_RANGE[0] <= self.total_mass <= MASS_RANGE[1]:
            raise ValueError(f"weight {self.weight!r} gives a total mass of {self.total_mass!r}; "
                             f"it must lie in [{MASS_RANGE[0]:g}, {MASS_RANGE[1]:g}]")

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def total_mass(self) -> float:
        return self.size * self.weight

    @property
    def _strides(self) -> np.ndarray:
        return _layout(self.orders)[0]

    @property
    def coords(self) -> np.ndarray:
        """All element coordinates, shape (N, k), lexicographic order."""
        return _layout(self.orders)[1]

    @property
    def neg(self) -> np.ndarray:
        """Index array mapping x -> -x."""
        return _layout(self.orders)[2]

    def coords_of(self, index) -> np.ndarray:
        """Coordinates of each index, taken mod N, shape index.shape + (k,)."""
        return self.coords[np.asarray(index, dtype=np.int64) % self.size]

    def index_of(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64) % np.asarray(self.orders, dtype=np.int64)
        return coords @ self._strides

    def element_index(self, elem: ElementLike) -> int:
        """Index of a single element given as an int (rank 1) or coordinate tuple."""
        if isinstance(elem, (int, np.integer)):
            if len(self.orders) != 1:
                raise ValueError("bare integer element only valid for a single cyclic factor")
            return int(elem) % self.orders[0]
        coords = np.asarray(elem, dtype=np.int64)
        if coords.shape != (len(self.orders),):
            raise ValueError(f"element {elem!r} does not match rank {len(self.orders)}")
        return int(self.index_of(coords))

    def sub_index(self, a, b) -> np.ndarray:
        ca = self.coords_of(np.asarray(a))
        cb = self.coords_of(np.asarray(b))
        return self.index_of(ca - cb)

    @cached_property
    def char_lcm(self) -> int:
        return math.lcm(*self.orders)

    def char_phases(self, k_index, x_index=None) -> np.ndarray:
        """Integer phase matrix p with chi_k(x) = exp(2*pi*i * p / char_lcm).

        Exact integers, so annihilator membership (p % lcm == 0) is an exact test.
        """
        L = self.char_lcm
        mult = np.asarray([L // n for n in self.orders], dtype=np.int64)
        kc = self.coords_of(np.asarray(k_index)) * mult
        if x_index is None:
            xc = self.coords
        else:
            xc = self.coords_of(np.asarray(x_index))
        return (kc @ xc.T) % L

    def char_values(self, k_index, x_index=None) -> np.ndarray:
        """chi_k(x) as a complex array (rows k, columns x)."""
        L = self.char_lcm
        return np.exp((2j * np.pi / L) * self.char_phases(k_index, x_index))

    def to_json(self) -> dict:
        if self.weight == 1.0:
            norm = "counting"
        elif abs(self.weight * self.size - 1.0) < 1e-15:
            norm = "probability"
        else:
            norm = {"weight": self.weight}
        return {"orders": list(self.orders), "normalization": norm}

    @classmethod
    def from_json(cls, data: dict) -> "Group":
        orders = data.get("orders") if isinstance(data, dict) else None
        if not (isinstance(orders, list) and orders
                and all(isinstance(n, int) and not isinstance(n, bool) for n in orders)):
            raise ValueError("group JSON must carry 'orders', a nonempty list of integers")
        size = math.prod(orders)
        if min(orders) >= 1 and size > MAX_JSON_GROUP:
            raise ValueError(f"'orders' {orders} give a group of {size} elements; "
                             f"at most {MAX_JSON_GROUP} are supported")
        return make_group(orders, data.get("normalization", "counting"))


def make_group(orders: Sequence[int], normalization="counting") -> Group:
    """Build Z_{n1} x ... x Z_{nk} with the given Haar normalization."""
    if orders is None or len(orders) == 0:
        raise ValueError("order list must be nonempty")
    group = Group(tuple(int(n) for n in orders), 1.0)  # checks the orders first
    return Group(group.orders, _resolve_weight(group.size, normalization))


@dataclass
class GroupFunction:
    """A real-valued function on a Group, stored as a dense value vector."""

    group: Group
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.group.size,):
            raise ValueError(f"value vector has shape {v.shape}, expected ({self.group.size},)")
        self.values = v


def dft(f: GroupFunction) -> np.ndarray:
    """Spectrum fhat[k] = weight * sum_x f(x) * conj(chi_k(x)), complex length N."""
    return f.group.weight * np.fft.fftn(f.values.reshape(f.group.orders)).ravel()


@dataclass
class SymSet:
    """A 0-symmetric subset of a Group, held as a boolean mask.

    Non-symmetric input masks are symmetrized by intersecting with their own
    negation; ``symmetrized`` records that this happened.
    """

    group: Group
    mask: np.ndarray
    symmetrized: bool = field(default=False, init=False)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != (self.group.size,):
            raise ValueError(f"mask has shape {m.shape}, expected ({self.group.size},)")
        sym = m & m[self.group.neg]
        if not np.array_equal(sym, m):
            m = sym
            self.symmetrized = True
        self.mask = m

    @classmethod
    def from_elements(cls, group: Group, elements: Iterable[ElementLike]) -> "SymSet":
        return cls(group, element_mask(group, elements))

    @classmethod
    def full(cls, group: Group) -> "SymSet":
        return cls(group, np.ones(group.size, dtype=bool))

    @classmethod
    def empty(cls, group: Group) -> "SymSet":
        return cls(group, np.zeros(group.size, dtype=bool))

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __len__(self) -> int:
        return int(self.mask.sum())

    def haar_mass(self) -> float:
        return len(self) * self.group.weight

    def elements(self) -> list:
        """Sorted coordinate tuples (plain ints for a single cyclic factor)."""
        coords = self.group.coords_of(self.indices)
        if len(self.group.orders) == 1:
            return [int(c[0]) for c in coords]
        return [tuple(int(v) for v in c) for c in coords]


def element_mask(group: Group, elements: Iterable[ElementLike]) -> np.ndarray:
    mask = np.zeros(group.size, dtype=bool)
    for e in elements:
        mask[group.element_index(e)] = True
    return mask


def _as_indices(group: Group, s) -> np.ndarray:
    if isinstance(s, SymSet):
        if s.group is not group and s.group != group:
            raise ValueError("set belongs to a different group")
        return s.indices
    if isinstance(s, np.ndarray):
        if s.dtype == bool:
            return np.flatnonzero(s)
        if np.issubdtype(s.dtype, np.integer) and s.ndim == 1:
            return np.asarray(s, dtype=np.int64) % group.size  # element indices
    if type(s) is list and len(group.orders) == 1 and all(type(e) is int for e in s):
        try:
            return np.asarray(s, dtype=np.int64) % group.size  # plain ints, as element_index
        except OverflowError:
            pass  # beyond int64: reduced one by one below
    return np.asarray([group.element_index(e) for e in s], dtype=np.int64)


def _row_blocks(rows: np.ndarray, columns: int) -> Iterator[np.ndarray]:
    """The rows of a rows x columns index table, in blocks of at most _CHUNK entries or one row."""
    step = max(1, _CHUNK // max(1, columns))
    return (rows[start:start + step] for start in range(0, len(rows), step))


def difference_counts(group: Group, a, b) -> np.ndarray:
    """counts[z] = #{(x, y) in a x b : x - y = z}, exact int64.

    Inputs as SymSet, mask, or element list (repeated elements count again).
    The pairs are enumerated in blocks of at most _CHUNK differences.
    """
    ai = _as_indices(group, a)
    bi = _as_indices(group, b)
    counts = np.zeros(group.size, dtype=np.int64)
    for rows in _row_blocks(ai, len(bi)):
        counts += np.bincount(group.sub_index(rows[:, None], bi).ravel(), minlength=group.size)
    return counts


def difference_mask(group: Group, a, b) -> np.ndarray:
    """Exact mask of {x - y : x in a, y in b}; inputs as for difference_counts."""
    return difference_counts(group, a, b) > 0


def difference_set(a, b, group: Group) -> SymSet:
    """SymSet of {x - y : x in a, y in b}; inputs as for difference_counts.

    For a == b the raw difference set is 0-symmetric already; otherwise the
    SymSet constructor symmetrizes and flags the result.  A SymSet argument
    on another group is rejected.
    """
    return SymSet(group, difference_mask(group, a, b))
