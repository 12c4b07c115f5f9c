"""Dense LPs solved by HiGHS, accepted only behind our own certificate check.

Maximizes c @ x subject to row bounds row_lower <= a @ x <= row_upper and
variable bounds lower <= x <= upper, the form HiGHS takes itself: an infinite
bound is absent and equal bounds make an equality row.  The extremal LPs
state the paper's support conditions this way, f <= 0 off Omega+ as an upper
bound 0 and f >= 0 off Omega- as a lower bound 0.  Every LP is solved by the
serial dual simplex of HiGHS (Huangfu and Hall, Math. Prog. Comp. 10, 2018)
that ships inside scipy, single-threaded with a fixed seed so results are
deterministic, and without presolve: the extremal LPs have a few to a few
hundred rows (median 5 and at most 25 in the verify suites, 66-127 in the
benchmark's large constants), and at those sizes presolve costs more than it
saves.  Replaying the LPs of four benchmark argv lists on a 2-CPU Intel Xeon
VM (best of 3), ``solve`` took 0.50 s with presolve and 0.40 s without on
the 44 large constants, with the same 7,246 pivots and bit-identical
answers, and 1.33 s against 0.92 s on 4,520 verify LPs, with objectives
within 3.6e-15.  There is one HiGHS object per process: its options are set
once, at the first ``solve``, and each LP replaces the model on it; the
tolerances of the tightened re-solve are restored before ``solve`` returns.
An optimal answer must pass ``check_certificate``, which recomputes the
primal residual, the dual signs, dual feasibility and the duality gap from
the original data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._scipy import extension

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
                  # the LPs here have at most a few hundred rows, too few for
                  # presolve to pay: they solve faster without it (see above)
                  "presolve": "off",
                  # when the dual simplex cannot tell infeasible from unbounded,
                  # HiGHS settles which one instead of reporting the ambiguity
                  "allow_unbounded_or_infeasible": False,
                  # HiGHS's defaults, put back after the tightened re-solve
                  "primal_feasibility_tolerance": 1e-7, "dual_feasibility_tolerance": 1e-7}
_TOLERANCES = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
_highs = None  # the process's HiGHS object, made by the first solve
_ROWWISE, _MINIMIZE = int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize)
_STATUS = {highs.HighsModelStatus.kInfeasible: ("infeasible", np.nan),
           highs.HighsModelStatus.kUnbounded: ("unbounded", np.inf)}


class SolverFailure(RuntimeError):
    """Numerical breakdown distinct from an infeasible or unbounded model."""


class QuadratureError(RuntimeError):
    """Successive quadrature refinements failed to agree within tolerance."""


# HiGHS reads a bound or cost of 1e20 or more in magnitude as infinite
# (infinite_bound, infinite_cost) and refuses a matrix entry of 1e15 or more
# (large_matrix_value); LpProblem refuses all of them
_HIGHS_INF, _MAX_ENTRY = 1e20, 1e15

# check_certificate's tolerance on the residual, the dual signs and dual
# feasibility, each relative to the size of the data it prices; the output
# reports it as "lp_pivot"
CERTIFICATE_TOL = 1e-9


def _bounds(lo, hi, size: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi as float arrays of shape (size,), checked to be a bound pair."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if lo.shape != (size,) or hi.shape != (size,):
        raise ValueError(f"{what} bounds have shapes {lo.shape} and {hi.shape}, "
                         f"expected ({size},)")
    # NaN fails every comparison; lower may be -inf and upper inf, nothing else huge
    ok = ((lo <= hi) & ((np.abs(lo) < _HIGHS_INF) | (lo == -np.inf))
          & ((np.abs(hi) < _HIGHS_INF) | (hi == np.inf)))
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        raise ValueError(f"{what} {i} has bounds [{lo[i]}, {hi[i]}]: need lower <= upper, "
                         "no NaN, lower < inf, upper > -inf, and each finite bound below "
                         f"{_HIGHS_INF:g} in magnitude")
    return lo, hi


def _below(values: np.ndarray, limit: float, name: str) -> None:
    """Raise ValueError naming the first entry of values not below limit in magnitude."""
    ok = np.abs(values) < limit  # NaN and inf fail too
    if not ok.all():
        i = tuple(int(k) for k in np.argwhere(~ok)[0])
        raise ValueError(f"{name}{list(i)} = {values[i]}: must be finite and below {limit:g} "
                         "in magnitude")


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
        _below(self.a, _MAX_ENTRY, "a")
        _below(self.c, _HIGHS_INF, "c")

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


def check_certificate(problem: LpProblem, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Check that x and row duals y prove each other optimal.

    Row duals follow the maximization convention: y_i > 0 prices row i at
    its upper bound and y_i < 0 at its lower bound, and the reduced costs
    c - a^T y price the variable bounds the same way.  Where the bound a
    price pushes toward is infinite, the price is a violation of its size and
    is paid at the other bound instead, or at 0 if both are infinite.  Returns
    (max_violation, dual_objective); raises SolverFailure naming every check
    that fails.
    """
    p = problem
    m = p.nrows
    ax = p.a @ x
    residual = float(np.max(np.concatenate(  # NaN propagates
        [ax - p.row_upper, p.row_lower - ax, p.lower - x, x - p.upper]), initial=0.0))
    # rows then columns: the row duals and the reduced costs on their bounds
    v = np.concatenate([y, p.c - p.a.T @ y])
    lo, hi = np.concatenate([p.row_lower, p.lower]), np.concatenate([p.row_upper, p.upper])
    up = v > 0
    toward, other = np.where(up, hi, lo), np.where(up, lo, hi)
    open_ = np.isinf(toward)
    at = np.where(open_, np.where(np.isinf(other), 0.0, other), toward)
    off = np.where(open_, np.abs(v), 0.0)
    sign_error = float(np.max(off[:m], initial=0.0))
    dual_infeasibility = float(np.max(off[m:], initial=0.0))
    dual_objective = float(v[:m] @ at[:m]) + float(v[m:] @ at[m:])
    objective = float(p.c @ x)
    gap = abs(objective - dual_objective)

    row_bounds = np.concatenate([p.row_lower, p.row_upper])
    scale = float(np.max(np.abs(row_bounds[np.isfinite(row_bounds)]), initial=0.0))
    dual_tol = CERTIFICATE_TOL * (1.0 + float(np.max(np.abs(p.c), initial=0.0)))
    checks = (
        ("residual", residual, CERTIFICATE_TOL * (1.0 + scale)),
        ("dual sign", sign_error, dual_tol),
        ("dual infeasibility", dual_infeasibility, dual_tol),
        ("duality gap", gap, 1e-8 * (1.0 + abs(objective))),
    )
    failed = [f"{name} {value:.3e}" for name, value, tol in checks if not value <= tol]
    if failed:
        raise SolverFailure("optimality certificate failed: " + ", ".join(failed))
    return residual, dual_objective


def _pass_model(h, p: LpProblem) -> None:
    """Replace the model on h with p, passed as arrays: the dense matrix row by
    row, the costs negated (HiGHS minimizes) and every column continuous."""
    m, n = p.nrows, p.nvars
    h.clearModel()  # a model HiGHS rejects is not passed: the run then ends "Not Set"
    h.passModel(n, m, m * n, _ROWWISE, _MINIMIZE, 0.0, -p.c, p.lower, p.upper, p.row_lower,
                p.row_upper, np.arange(m, dtype=np.int32) * n,
                np.tile(np.arange(n, dtype=np.int32), m), p.a.ravel(), np.zeros(n, dtype=np.int32))


def _solver():
    """The process's HiGHS object, with _HIGHS_OPTIONS set on it once."""
    global _highs
    if _highs is None:
        _highs = highs._Highs()
        for name, value in _HIGHS_OPTIONS.items():
            _highs.setOptionValue(name, value)
    return _highs


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP; optimal solutions carry row duals and a checked certificate.

    HiGHS accepts a primal residual within its own feasibility tolerance
    (1e-7), looser than the certificate's 1e-9.  An answer that fails the
    certificate is therefore re-solved once from its basis with both
    feasibility tolerances at 1e-10 before the failure is reported; they are
    back at 1e-7 when solve returns or raises.
    """
    h = _solver()
    _pass_model(h, problem)
    first = _answer(h, problem, 0)
    try:
        return _certified(problem, first)
    except SolverFailure:
        pass  # solved again below at tighter tolerances
    for name in _TOLERANCES:
        h.setOptionValue(name, 1e-10)
    try:
        return _certified(problem, _answer(h, problem, first.iterations))
    finally:
        for name in _TOLERANCES:
            h.setOptionValue(name, _HIGHS_OPTIONS[name])


def _answer(h, problem: LpProblem, iterations: int) -> LpSolution:
    """HiGHS's answer after one more run, its certificate not yet checked."""
    h.run()
    status = h.getModelStatus()
    iterations += int(h.getInfoValue("simplex_iteration_count")[1])
    if status in _STATUS:
        name, value = _STATUS[status]
        return LpSolution(name, None, value, None, iterations=iterations)
    # with no columns HiGHS reports an empty model without reading the rows;
    # the certificate check still does
    if status not in (highs.HighsModelStatus.kOptimal, highs.HighsModelStatus.kModelEmpty):
        raise SolverFailure(f"HiGHS ended with status {h.modelStatusToString(status)}")
    solution = h.getSolution()
    x = np.asarray(solution.col_value, dtype=np.float64)
    y = -np.asarray(solution.row_dual, dtype=np.float64)  # duals of the minimization
    return LpSolution("optimal", x, float(problem.c @ x), y, iterations=iterations)


def _certified(problem: LpProblem, sol: LpSolution) -> LpSolution:
    """sol, with its certificate checked and recorded if it is optimal."""
    if sol.status == "optimal":
        sol.max_violation, sol.dual_objective = check_certificate(problem, sol.x, sol.dual)
    return sol
