"""Dense LPs solved by HiGHS, accepted only behind our own certificate check.

Maximizes c @ x subject to x >= 0 and row bounds row_lower <= a @ x <=
row_upper, where an infinite bound is absent and equal bounds make an
equality row.  This is the one LP the package solves: the variables are the
spectrum of f on a finite group, which is nonnegative exactly when f is
positive definite, and the paper's support conditions bound the rows, f <= 0
off Omega+ as an upper bound 0 and f >= 0 off Omega- as a lower bound 0.
Every LP is solved by the serial dual simplex of HiGHS (Huangfu and Hall,
Math. Prog. Comp. 10, 2018) that ships inside scipy, single-threaded with a
fixed seed so results are deterministic, and without presolve: the extremal
LPs have a few to a few hundred rows (median 5 and at most 25 in the verify
suites, 66-127 in the benchmark's large constants), and at those sizes
presolve costs more than it saves.  Replaying the LPs of four benchmark
argv lists on a 2-CPU Intel Xeon VM (best of 3), ``solve`` took 0.50 s with
presolve and 0.40 s without on the 44 large constants, with the same 7,246
pivots and bit-identical answers, and 1.33 s against 0.92 s on 4,520 verify
LPs, with objectives within 3.6e-15.  There is one HiGHS object per process: its options are set
once, at the first ``solve``, and each LP replaces the model on it; the
options of ``solve``'s two retries are restored before it returns.
``solve`` returns a certified optimum or raises ``SolverFailure``: HiGHS's
answer counts only if HiGHS ends optimal and the answer passes
``check_certificate``, which recomputes the primal residual, the dual signs,
dual feasibility and the duality gap from the original data.  There is no
infeasible or unbounded result, because no extremal LP is either: the point
mass f = 1_{0} is positive definite with f(0) = 1, so it is admissible
whenever 0 is in Omega+ (``extremal._solve`` answers 0 before building an LP
otherwise), and f(0) = 1 bounds the Haar integral of every admissible f.

Where the time of a small LP goes, measured on the LPs of two verify-many
argv lists (median 5 rows x 8 columns), replayed in one process on a 2-CPU
Intel Xeon VM.  HiGHS's own run (best of 7 per LP, 2,463 LPs) takes 45 us at
the least and 81 us at the median: that floor is HiGHS's.  The Python around
it, on the 1,997 LPs these lists build (medians of 9 interleaved repeats,
before and after x >= 0 became the only variable bound): ``LpProblem`` 14.0
-> 10.9 us, ``_pass_model`` 12.6 -> 13.0 us (most of it inside HiGHS's
clearModel and passModel), ``check_certificate`` 26.4 -> 22.4 us; an
``LpProblem`` with its ``solve``, 162 -> 155 us.  What remains is numpy's
fixed cost per call on arrays of a few dozen entries (~0.4 us a ufunc, ~1 us
a reduction), not arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

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
                  # HiGHS's defaults, put back after the tightened re-solve
                  "primal_feasibility_tolerance": 1e-7, "dual_feasibility_tolerance": 1e-7}
_TOLERANCES = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
_highs = None  # the process's HiGHS object, made by the first solve
_ROWWISE, _MINIMIZE = int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize)


class SolverFailure(RuntimeError):
    """HiGHS ended without an optimum, or its answer failed the certificate check."""


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
    """max c @ x subject to x >= 0 and row_lower <= a @ x <= row_upper.

    The row bounds are kept as one read-only (2, nrows) array ``bounds``,
    whose rows ``lo`` and ``hi`` are checked in one pass.
    """

    def __init__(self, c, a, row_lower, row_upper):
        self.c = c = np.asarray(c, dtype=np.float64)
        n = c.shape[0]
        if not n:
            raise ValueError("an LP needs at least one variable")
        self.a = np.asarray(a, dtype=np.float64).reshape(-1, n)
        m = self.a.shape[0]
        low, high = (np.asarray(b, dtype=np.float64) for b in (row_lower, row_upper))
        if low.shape != (m,) or high.shape != (m,):
            raise ValueError(f"row bounds have shapes {low.shape} and {high.shape}, "
                             f"expected ({m},)")
        self.bounds = bounds = np.empty((2, m))
        bounds[0], bounds[1] = low, high
        bounds.flags.writeable = False
        self.lo, self.hi = lo, hi = bounds[0], bounds[1]
        # NaN fails every comparison; lower may be -inf and upper inf, nothing else huge
        finite = (np.abs(bounds) < _HIGHS_INF) | (bounds == _OPEN)
        ok = (lo <= hi) & finite[0] & finite[1]
        if np.count_nonzero(ok) < ok.size:
            i = int(np.argmin(ok))  # the first row that fails
            raise ValueError(f"row {i} has bounds [{lo[i]}, {hi[i]}]: need lower <= upper, "
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
    status: str  # always "optimal", since solve raises otherwise; the benchmark's tracer reads it
    x: np.ndarray
    objective_value: float
    dual: np.ndarray
    dual_objective: float = np.nan
    max_violation: float = np.nan
    iterations: int = 0


def check_certificate(problem: LpProblem, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Check that x and row duals y prove each other optimal.

    Row duals follow the maximization convention: y_i > 0 prices row i at
    its upper bound and y_i < 0 at its lower bound.  Where that bound is
    infinite, the price is a violation of its size and is paid at the other
    bound instead, or at 0 if both are infinite.  A reduced cost c - a^T y
    prices x >= 0: a positive one has no upper bound to be paid at and is a
    violation of its size, and the bound 0 adds nothing to the dual
    objective.  Returns (max_violation, dual_objective); raises
    SolverFailure naming every check that fails.
    """
    p = problem
    most = np.maximum.reduce  # np.max without its Python-level wrapper
    ax = p.a @ x
    residual = float(most(np.concatenate((ax - p.hi, p.lo - ax, -x)), initial=0.0))  # NaN too
    up = y > 0
    toward, other = np.where(up, p.bounds[::-1], p.bounds)  # hi where up, else lo; the other
    open_ = np.isinf(toward)
    at = np.where(open_, np.where(np.isinf(other), 0.0, other), toward)
    sign_error = float(most(np.where(open_, np.abs(y), 0.0), initial=0.0))
    dual_infeasibility = float(most(p.c - p.a.T @ y, initial=0.0))
    dual_objective = float(y @ at)
    objective = float(p.c @ x)
    gap = abs(objective - dual_objective)

    bounds = np.abs(p.bounds)
    scale = float(most(bounds, axis=None, where=bounds < np.inf, initial=0.0))
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
    """Replace the model on h with p, passed as arrays: every column continuous
    in [0, inf), the costs negated (HiGHS minimizes), the row bounds and the
    dense matrix row by row."""
    m, n = p.nrows, p.nvars
    # the dense pattern: row i starts at entry i * n, and entry k lies in column k % n
    starts = np.arange(0, m * n, n, dtype=np.int32)
    h.clearModel()  # a model HiGHS rejects is not passed: the run then ends "Not Set"
    h.passModel(n, m, m * n, _ROWWISE, _MINIMIZE, 0.0, -p.c, np.zeros(n), np.full(n, np.inf),
                p.lo, p.hi, starts, np.arange(m * n, dtype=np.int32) % n, p.a.ravel(),
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
    """The LP's optimum, with row duals and a checked certificate, or SolverFailure.

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
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverFailure(f"HiGHS ended with status {h.modelStatusToString(status)}")
    solution = h.getSolution()
    x = np.asarray(solution.col_value, dtype=np.float64)
    y = -np.asarray(solution.row_dual, dtype=np.float64)  # duals of the minimization
    return LpSolution("optimal", x, float(problem.c @ x), y, iterations=iterations)


def _certified(problem: LpProblem, sol: LpSolution) -> LpSolution:
    """sol, with its certificate checked and recorded."""
    sol.max_violation, sol.dual_objective = check_certificate(problem, sol.x, sol.dual)
    return sol
