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
options of ``solve``'s two retries are restored before it returns.
An optimal answer must pass ``check_certificate``, which recomputes the
primal residual, the dual signs, dual feasibility and the duality gap from
the original data.

Where the time of a small LP goes, measured on the 2,463 LPs of two
verify-many argv lists (median 5 rows x 8 columns), replayed in one process
on a 2-CPU Intel Xeon VM.  HiGHS's own run (best of 7 per LP) takes 45 us at
the least and 81 us at the median: that floor is HiGHS's.  The Python around
it (medians of 9 interleaved repeats, before and after the bounds became one
stacked pair checked with few numpy calls): ``LpProblem`` 24.7 -> 20.3 us,
``_pass_model`` 17.4 -> 16.8 us (~13 us of it inside HiGHS's clearModel and
passModel), ``check_certificate`` 42.5 -> 30.0 us; an ``LpProblem`` with its
``solve``, 228 -> 192 us.  What remains is numpy's fixed cost per call on
arrays of a few dozen entries (~0.4 us a ufunc, ~1 us a reduction), not
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._scipy import extension

# HiGHS's compiled pybind11 core, scipy.optimize._highspy._core, loaded from
# its file so that importing it runs neither scipy/__init__.py nor
# scipy/optimize/__init__.py.  Not
# linprog: linprog builds a new HiGHS object and sets every option on every
# call, which would cost about as much as the thousands of tiny LPs of a
# verification suite (median 4 rows x 6 columns) themselves.  Here there is one
# HiGHS object per process, options set once, the model replaced per LP, and
# the options of a retry restored after it.
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
_OPEN = np.array([[-np.inf], [np.inf]])  # the infinite bound each side of a pair may have

# check_certificate's tolerance on the residual, the dual signs and dual
# feasibility, each relative to the size of the data it prices; the output
# reports it as "lp_pivot"
CERTIFICATE_TOL = 1e-9


def _below(values: np.ndarray, limit: float, name: str) -> None:
    """Raise ValueError naming the first entry of values not below limit in magnitude."""
    ok = np.abs(values) < limit  # NaN and inf fail too
    if np.count_nonzero(ok) < ok.size:
        i = tuple(int(k) for k in np.argwhere(~ok)[0])
        raise ValueError(f"{name}{list(i)} = {values[i]}: must be finite and below {limit:g} "
                         "in magnitude")


class LpProblem:
    """max c @ x subject to row_lower <= a @ x <= row_upper and lower <= x <= upper.

    The bounds are kept as one stacked pair, ``lo = [row_lower, lower]`` and
    ``hi = [row_upper, upper]``: the rows of one read-only array ``bounds``,
    checked in one pass and priced in this order by ``check_certificate``.
    ``lower`` defaults to 0 and ``upper`` to inf; the first ``nrows`` entries
    of ``lo`` and ``hi`` bound the rows and the other ``nvars`` the variables.
    """

    def __init__(self, c, a, row_lower, row_upper, lower=None, upper=None):
        self.c = c = np.asarray(c, dtype=np.float64)
        n = c.shape[0]
        self.a = np.asarray(a, dtype=np.float64).reshape(-1, n) if n else \
            np.zeros((len(row_lower), 0))
        m = self.a.shape[0]
        parts = [np.asarray(b, dtype=np.float64) for b in (
            row_lower, row_upper, np.zeros(n) if lower is None else lower,
            np.full(n, np.inf) if upper is None else upper)]
        for what, size, low, high in (("row", m, *parts[:2]), ("variable", n, *parts[2:])):
            if low.shape != (size,) or high.shape != (size,):
                raise ValueError(f"{what} bounds have shapes {low.shape} and {high.shape}, "
                                 f"expected ({size},)")
        self.bounds = bounds = np.empty((2, m + n))
        bounds[0, :m], bounds[1, :m], bounds[0, m:], bounds[1, m:] = parts
        bounds.flags.writeable = False
        self.lo, self.hi = lo, hi = bounds[0], bounds[1]
        # NaN fails every comparison; lower may be -inf and upper inf, nothing else huge
        finite = (np.abs(bounds) < _HIGHS_INF) | (bounds == _OPEN)
        ok = (lo <= hi) & finite[0] & finite[1]
        if np.count_nonzero(ok) < ok.size:
            i = int(np.argmin(ok))  # the first bound pair that fails
            what, j = ("row", i) if i < m else ("variable", i - m)
            raise ValueError(f"{what} {j} has bounds [{lo[i]}, {hi[i]}]: need lower <= upper, "
                             "no NaN, lower < inf, upper > -inf, and each finite bound below "
                             f"{_HIGHS_INF:g} in magnitude")
        _below(self.a, _MAX_ENTRY, "a")
        _below(c, _HIGHS_INF, "c")

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
    p, m = problem, problem.nrows
    lo, hi = p.lo, p.hi
    most = np.maximum.reduce  # np.max without its Python-level wrapper
    ax = np.concatenate((p.a @ x, x))  # what lo and hi bound: the rows, then the columns
    residual = float(most(np.concatenate((ax - hi, lo - ax)), initial=0.0))  # NaN propagates
    # rows then columns: the row duals and the reduced costs on their bounds
    v = np.concatenate((y, p.c - p.a.T @ y))
    up = v > 0
    pair = np.where(up, p.bounds[::-1], p.bounds)  # hi where up, else lo; and the other
    toward, other = pair[0], pair[1]
    open_ = np.isinf(toward)
    at = np.where(open_, np.where(np.isinf(other), 0.0, other), toward)
    off = np.where(open_, np.abs(v), 0.0)
    sign_error = float(most(off[:m], initial=0.0))
    dual_infeasibility = float(most(off[m:], initial=0.0))
    dual_objective = float(v[:m] @ at[:m]) + float(v[m:] @ at[m:])
    objective = float(p.c @ x)
    gap = abs(objective - dual_objective)

    row_bounds = np.abs(p.bounds[:, :m])
    scale = float(most(row_bounds, axis=None, where=row_bounds < np.inf, initial=0.0))
    dual_tol = CERTIFICATE_TOL * (1.0 + float(most(np.abs(p.c), initial=0.0)))
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
    # the dense pattern: row i starts at entry i * n, and entry k lies in column k % n
    starts = np.arange(0, m * n, n, dtype=np.int32) if n else np.zeros(m, dtype=np.int32)
    h.clearModel()  # a model HiGHS rejects is not passed: the run then ends "Not Set"
    h.passModel(n, m, m * n, _ROWWISE, _MINIMIZE, 0.0, -p.c, p.lo[m:], p.hi[m:], p.lo[:m],
                p.hi[:m], starts, np.arange(m * n, dtype=np.int32) % n, p.a.ravel(),
                np.zeros(n, dtype=np.int32))


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
    certificate is therefore re-solved from its basis with both feasibility
    tolerances at 1e-10, then, if it fails again, afresh by the primal simplex
    (the rescue of Delsarte LPs on Z_512 and Z_2048) before the failure is
    reported; the options are back at _HIGHS_OPTIONS when solve ends.
    """
    h = _solver()
    _pass_model(h, problem)
    first = _answer(h, problem, 0)
    try:
        return _certified(problem, first)
    except SolverFailure:
        pass  # solved again below at tighter tolerances
    try:
        for name in _TOLERANCES:
            h.setOptionValue(name, 1e-10)
        tight = _answer(h, problem, first.iterations)
        try:
            return _certified(problem, tight)
        except SolverFailure:
            pass  # solved afresh below by the primal simplex
        for name in _TOLERANCES:
            h.setOptionValue(name, _HIGHS_OPTIONS[name])
        h.clearSolver()  # drop the failed basis
        h.setOptionValue("simplex_strategy", 4)  # primal
        return _certified(problem, _answer(h, problem, tight.iterations))
    finally:
        for name in (*_TOLERANCES, "simplex_strategy"):
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
