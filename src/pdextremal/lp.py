"""Dense LPs solved by HiGHS, accepted only behind our own certificate check.

Maximizes c @ x subject to row bounds row_lower <= a @ x <= row_upper and
variable bounds lower <= x <= upper, the form HiGHS takes itself: an infinite
bound is absent and equal bounds make an equality row.  The extremal LPs
state the paper's support conditions this way, f <= 0 off Omega+ as an upper
bound 0 and f >= 0 off Omega- as a lower bound 0.  Every LP is solved by the
serial dual simplex of HiGHS (Huangfu and Hall, Math. Prog. Comp. 10, 2018)
that ships inside scipy, single-threaded with a fixed seed so results are
deterministic.  There is one HiGHS object per process: its options are set
once, at the first ``solve``, and each LP replaces the model on it; the
tolerances of the tightened re-solve are restored before ``solve`` returns.
An optimal answer must pass ``check_certificate``, which recomputes the
primal residual, the dual signs, dual feasibility and the duality gap from
the original data.

The verification suites draw small random sets, so one process meets the
same LP many times.  ``solve`` keeps the optimal answers of the process in a
memo keyed by a digest of the LP's arrays, holding at most a fixed number of
bytes with the oldest answer dropped first.  A repeated LP is answered from
the memo with ``iterations`` 0, after its certificate is checked again
against the caller's own data; an answer that fails that check is solved
again.  HiGHS's answer depends only on the model, so a remembered answer is
the one a new solve would give.  Infeasible, unbounded and failed solves are
not remembered.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._scipy import extension

try:  # hashlib loads OpenSSL, ~3 ms of every import; its blake2b is this one
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# HiGHS's compiled pybind11 core, scipy.optimize._highspy._core, loaded from
# its file so that importing it does not run scipy/optimize/__init__.py.  Not
# linprog: linprog builds a new HiGHS object and sets every option on every
# call, which would cost about as much as the thousands of tiny LPs of a
# verification suite (median 4 rows x 6 columns) themselves.  Here there is one
# HiGHS object per process, options set once, the model replaced per LP, and
# the tolerances restored after the tightened re-solve.
highs = extension("scipy.optimize._highspy._core")

_HIGHS_OPTIONS = {"output_flag": False, "solver": "simplex", "simplex_strategy": 1,  # dual
                  "threads": 1, "random_seed": 0,
                  # when presolve cannot tell infeasible from unbounded, HiGHS
                  # re-solves without it instead of reporting the ambiguity
                  "allow_unbounded_or_infeasible": False,
                  # HiGHS's defaults, put back after the tightened re-solve
                  "primal_feasibility_tolerance": 1e-7, "dual_feasibility_tolerance": 1e-7}
_TOLERANCES = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
_highs = None  # the process's HiGHS object, made by the first solve
# the memo's budget, charged per answer for its x and dual arrays and for the
# ~550 bytes of key, dict slot and array objects that hold them: a few
# hundred answers of the largest LPs a suite may draw (N = 2048), or over
# ten thousand verify-sized ones
_MEMO_BYTES = 8 * 2**20
_ENTRY_BYTES = 640
_STATUS = {highs.HighsModelStatus.kInfeasible: ("infeasible", np.nan),
           highs.HighsModelStatus.kUnbounded: ("unbounded", np.inf)}


class SolverFailure(RuntimeError):
    """Numerical breakdown distinct from an infeasible or unbounded model."""


class QuadratureError(RuntimeError):
    """Successive quadrature refinements failed to agree within tolerance."""


def _bounds(lo, hi, size: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi as float arrays of shape (size,), checked to be a bound pair."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if lo.shape != (size,) or hi.shape != (size,):
        raise ValueError(f"{what} bounds have shapes {lo.shape} and {hi.shape}, "
                         f"expected ({size},)")
    bad = np.flatnonzero(~(lo <= hi) | (lo == np.inf) | (hi == -np.inf))  # NaN fails lo <= hi
    if bad.size:
        i = bad[0]
        raise ValueError(f"{what} {i} has bounds [{lo[i]}, {hi[i]}]: need lower <= upper, "
                         "no NaN, lower < inf and upper > -inf")
    return lo, hi


@dataclass
class LpProblem:
    c: np.ndarray
    a: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: Optional[np.ndarray] = None  # default 0
    upper: Optional[np.ndarray] = None  # default inf

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        n = self.c.shape[0]
        self.a = np.asarray(self.a, dtype=np.float64).reshape(-1, n) if n else \
            np.zeros((len(self.row_lower), 0))
        self.row_lower, self.row_upper = _bounds(self.row_lower, self.row_upper, self.nrows, "row")
        self.lower, self.upper = _bounds(
            np.zeros(n) if self.lower is None else self.lower,
            np.full(n, np.inf) if self.upper is None else self.upper, n, "variable")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.c))):
            raise ValueError("matrix and objective entries must be finite")

    @property
    def nvars(self) -> int:
        return self.c.shape[0]

    @property
    def nrows(self) -> int:
        return self.a.shape[0]


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: Optional[np.ndarray]
    objective_value: float
    dual: Optional[np.ndarray]
    dual_objective: float = np.nan
    max_violation: float = np.nan
    iterations: int = 0


def _price(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[float, float]:
    """(violation, value) of the dual prices v on the bound pairs (lo, hi).

    Each price is paid at the bound it pushes toward, hi for v > 0 and lo for
    v < 0.  Where that bound is infinite the price is a violation of |v| and
    is paid at the other bound instead, or at 0 if both are infinite.
    """
    up = v > 0
    toward, other = np.where(up, hi, lo), np.where(up, lo, hi)
    open_ = np.isinf(toward)
    at = np.where(open_, np.where(np.isinf(other), 0.0, other), toward)
    return float(np.max(np.abs(v[open_]), initial=0.0)), float(v @ at)


def check_certificate(problem: LpProblem, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Check that x and row duals y prove each other optimal.

    Row duals follow the maximization convention: y_i > 0 prices row i at
    its upper bound and y_i < 0 at its lower bound, and the reduced costs
    c - a^T y price the variable bounds the same way.  Returns
    (max_violation, dual_objective); raises SolverFailure naming every check
    that fails.
    """
    p = problem
    ax = p.a @ x
    residual = float(np.max([np.max(v, initial=0.0) for v in  # NaN propagates
                             (ax - p.row_upper, p.row_lower - ax, p.lower - x, x - p.upper)]))
    sign_error, row_value = _price(y, p.row_lower, p.row_upper)
    dual_infeasibility, column_value = _price(p.c - p.a.T @ y, p.lower, p.upper)
    dual_objective = row_value + column_value
    objective = float(p.c @ x)
    gap = abs(objective - dual_objective)

    row_bounds = np.concatenate([p.row_lower, p.row_upper])
    scale = float(np.max(np.abs(row_bounds[np.isfinite(row_bounds)]), initial=0.0))
    dual_tol = 1e-9 * (1.0 + float(np.max(np.abs(p.c), initial=0.0)))
    checks = (
        ("residual", residual, 1e-9 * (1.0 + scale)),
        ("dual sign", sign_error, dual_tol),
        ("dual infeasibility", dual_infeasibility, dual_tol),
        ("duality gap", gap, 1e-8 * (1.0 + abs(objective))),
    )
    failed = [f"{name} {value:.3e}" for name, value, tol in checks if not value <= tol]
    if failed:
        raise SolverFailure("optimality certificate failed: " + ", ".join(failed))
    return residual, dual_objective


def _highs_lp(p: LpProblem):
    m, n = p.nrows, p.nvars
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = -p.c  # HiGHS minimizes
    lp.col_lower_, lp.col_upper_ = p.lower, p.upper
    lp.row_lower_, lp.row_upper_ = p.row_lower, p.row_upper
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = n, m
    matrix.start_ = np.arange(m + 1) * n
    matrix.index_ = np.tile(np.arange(n), m)
    matrix.value_ = p.a.ravel()
    return lp


def _solver():
    """The process's HiGHS object, with _HIGHS_OPTIONS set on it once."""
    global _highs
    if _highs is None:
        _highs = highs._Highs()
        for name, value in _HIGHS_OPTIONS.items():
            _highs.setOptionValue(name, value)
    return _highs


class _Memo:
    """Optimal (x, dual) pairs by LP key, oldest first, within budget bytes."""

    def __init__(self, budget: int = _MEMO_BYTES):
        self.budget, self.nbytes, self.entries = budget, 0, OrderedDict()

    @staticmethod
    def _size(x: np.ndarray, y: np.ndarray) -> int:
        return x.nbytes + y.nbytes + _ENTRY_BYTES

    def put(self, key, x: np.ndarray, y: np.ndarray) -> None:
        if key in self.entries:
            self.nbytes -= self._size(*self.entries.pop(key))
        size = self._size(x, y)
        if size > self.budget:
            return
        self.entries[key] = x, y
        self.nbytes += size
        while self.nbytes > self.budget:
            self.nbytes -= self._size(*self.entries.popitem(last=False)[1])


_solved = _Memo()  # the process's certified optimal answers


def _key(p: LpProblem) -> tuple:
    """The shape of a and a digest of the LP's six arrays."""
    digest = blake2b(digest_size=16)
    for v in (p.c, p.a, p.row_lower, p.row_upper, p.lower, p.upper):
        digest.update(np.ascontiguousarray(v))
    return p.a.shape, digest.digest()


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP; optimal solutions carry row duals and a checked certificate.

    HiGHS accepts a primal residual within its own feasibility tolerance
    (1e-7), looser than the certificate's 1e-9.  An answer that fails the
    certificate is therefore re-solved once from its basis with both
    feasibility tolerances at 1e-10 before the failure is reported; they are
    back at 1e-7 when solve returns or raises.  An LP solved before in this
    process is answered from the memo, checked again against problem; the
    arrays x and dual of an optimal answer are read-only.
    """
    key = _key(problem)
    known = _solved.entries.get(key)
    if known is not None:
        try:
            return _optimal(problem, *known, iterations=0)
        except SolverFailure:
            pass  # another LP with the same digest: solve this one
    h = _solver()
    h.clearModel()
    h.passModel(_highs_lp(problem))
    try:
        sol = _run(h, problem)
    finally:
        for name in _TOLERANCES:
            h.setOptionValue(name, _HIGHS_OPTIONS[name])
    if sol.status == "optimal":
        sol.x.flags.writeable = sol.dual.flags.writeable = False
        _solved.put(key, sol.x, sol.dual)
    return sol


def _optimal(problem: LpProblem, x: np.ndarray, y: np.ndarray, iterations: int) -> LpSolution:
    """The optimal answer (x, y) once check_certificate has accepted it."""
    max_violation, dual_objective = check_certificate(problem, x, y)
    return LpSolution("optimal", x, float(problem.c @ x), y, dual_objective=dual_objective,
                      max_violation=max_violation, iterations=iterations)


def _run(h, problem: LpProblem) -> LpSolution:
    iterations = 0
    for tightened in (False, True):
        if tightened:
            for name in _TOLERANCES:
                h.setOptionValue(name, 1e-10)
        h.run()
        status = h.getModelStatus()
        iterations += int(h.getInfo().simplex_iteration_count)
        if status in _STATUS:
            name, value = _STATUS[status]
            return LpSolution(name, None, value, None, iterations=iterations)
        # with no columns HiGHS reports an empty model without reading the rows;
        # the certificate check below still does
        if status not in (highs.HighsModelStatus.kOptimal, highs.HighsModelStatus.kModelEmpty):
            raise SolverFailure(f"HiGHS ended with status {h.modelStatusToString(status)}")

        solution = h.getSolution()
        x = np.asarray(solution.col_value, dtype=np.float64)
        y = -np.asarray(solution.row_dual, dtype=np.float64)  # duals of the minimization
        try:
            return _optimal(problem, x, y, iterations)
        except SolverFailure:
            if tightened:
                raise
