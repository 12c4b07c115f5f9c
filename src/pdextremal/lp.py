"""Dense LPs solved by HiGHS, accepted only behind our own certificate check.

Maximizes c @ x subject to rows with senses "<=", "=", ">=" and per-variable
bounds (infinite bounds allowed), using the serial dual simplex of HiGHS
(Huangfu and Hall, Math. Prog. Comp. 10, 2018) that ships inside scipy,
single-threaded with a fixed seed so results are deterministic.  There is one
HiGHS object per process: its options are set once, at the first ``solve``,
and each LP replaces the model on it; the tolerances of the tightened re-solve
are restored before ``solve`` returns.  An optimal answer must pass
``check_certificate``, which recomputes the primal residual, the dual signs,
dual feasibility and the duality gap from the original data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
                  # when presolve cannot tell infeasible from unbounded, HiGHS
                  # re-solves without it instead of reporting the ambiguity
                  "allow_unbounded_or_infeasible": False,
                  # HiGHS's defaults, put back after the tightened re-solve
                  "primal_feasibility_tolerance": 1e-7, "dual_feasibility_tolerance": 1e-7}
_TOLERANCES = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
_highs = None  # the process's HiGHS object, made by the first solve
_STATUS = {highs.HighsModelStatus.kInfeasible: ("infeasible", np.nan),
           highs.HighsModelStatus.kUnbounded: ("unbounded", np.inf)}


class SolverFailure(RuntimeError):
    """Numerical breakdown distinct from an infeasible or unbounded model."""


class QuadratureError(RuntimeError):
    """Successive quadrature refinements failed to agree within tolerance."""


@dataclass
class LpProblem:
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    senses: Sequence[str]
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        n = self.c.shape[0]
        self.a = np.asarray(self.a, dtype=np.float64).reshape(-1, max(n, 0)) if n else \
            np.zeros((len(self.b), 0))
        self.b = np.asarray(self.b, dtype=np.float64)
        m = self.a.shape[0]
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        self.senses = tuple(self.senses)
        if len(self.senses) != m:
            raise ValueError("one sense per row required")
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise ValueError(f"unknown row sense {s!r}")
        self.lower = (
            np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=np.float64)
        )
        self.upper = (
            np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=np.float64)
        )
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.c))):
            raise ValueError("matrix, rhs and objective entries must be finite")

    @property
    def nvars(self) -> int:
        return self.c.shape[0]

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Row activity bounds (lower, upper) encoding the senses."""
        senses = np.asarray(self.senses)
        lo = np.where(senses == "<=", -np.inf, self.b)
        hi = np.where(senses == ">=", np.inf, self.b)
        return lo, hi


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

    Row duals follow the maximization convention: y >= 0 on "<=" rows,
    y <= 0 on ">=" rows, free on "=" rows.  Returns (max_violation,
    dual_objective); raises SolverFailure naming every check that fails.
    """
    p = problem
    row_lo, row_hi = p.row_bounds()
    ax = p.a @ x
    residual = max(0.0, *(float(np.max(v, initial=0.0)) for v in
                          (ax - row_hi, row_lo - ax, p.lower - x, x - p.upper)))
    senses = np.asarray(p.senses)
    sign_error = float(np.max(np.where(senses == "<=", -y, np.where(senses == ">=", y, 0.0)),
                              initial=0.0))
    # each reduced cost is paid at the bound it pushes toward; an infinite
    # such bound makes the dual infeasible by |d_j|
    d = p.c - p.a.T @ y
    bound = np.where(d > 0, p.upper, p.lower)
    finite = np.isfinite(bound)
    dual_infeasibility = float(np.max(np.abs(d[~finite]), initial=0.0))
    dual_objective = float(p.b @ y + d[finite] @ bound[finite])
    objective = float(p.c @ x)
    gap = abs(objective - dual_objective)

    dual_tol = 1e-9 * (1.0 + float(np.max(np.abs(p.c), initial=0.0)))
    checks = (
        ("residual", residual, 1e-9 * (1.0 + float(np.max(np.abs(p.b), initial=0.0)))),
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
    lp.row_lower_, lp.row_upper_ = p.row_bounds()
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


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP; optimal solutions carry row duals and a checked certificate.

    HiGHS accepts a primal residual within its own feasibility tolerance
    (1e-7), looser than the certificate's 1e-9.  An answer that fails the
    certificate is therefore re-solved once from its basis with both
    feasibility tolerances at 1e-10 before the failure is reported; they are
    back at 1e-7 when solve returns or raises.
    """
    h = _solver()
    h.clearModel()
    h.passModel(_highs_lp(problem))
    try:
        return _run(h, problem)
    finally:
        for name in _TOLERANCES:
            h.setOptionValue(name, _HIGHS_OPTIONS[name])


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
            max_violation, dual_objective = check_certificate(problem, x, y)
        except SolverFailure:
            if tightened:
                raise
            continue
        return LpSolution("optimal", x, float(problem.c @ x), y, dual_objective=dual_objective,
                          max_violation=max_violation, iterations=iterations)
