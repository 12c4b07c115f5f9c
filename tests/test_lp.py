import numpy as np
import pytest
from scipy.optimize import linprog

from pdextremal import lp
from pdextremal.lp import LpProblem, SolverFailure, check_certificate, solve


def box(c, a, b, senses, lower=None, upper=None):
    """The LP with rows a @ x <sense> b, as row bounds."""
    b, senses = np.asarray(b, float), np.asarray(senses)
    return LpProblem(np.asarray(c, float), np.asarray(a, float),
                     np.where(senses == "<=", -np.inf, b), np.where(senses == ">=", np.inf, b),
                     lower, upper)


def _linprog(p):
    """scipy's linprog on p: a row with equal bounds is an equality, and each
    finite bound of another row an inequality, in row order."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, lo, hi in zip(p.a, p.row_lower, p.row_upper):
        if lo == hi:
            a_eq.append(row)
            b_eq.append(lo)
            continue
        if hi < np.inf:
            a_ub.append(row)
            b_ub.append(hi)
        if lo > -np.inf:
            a_ub.append(-row)
            b_ub.append(-lo)
    return linprog(
        -p.c,
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=list(zip(p.lower, p.upper)),
        method="highs",
    )


def _rhs_scale(p):
    """The largest finite row bound in absolute value."""
    bounds = np.concatenate([p.row_lower, p.row_upper])
    return np.max(np.abs(bounds[np.isfinite(bounds)]), initial=0.0)


def test_box_maximum():
    p = box([1, 1], [[1, 0], [0, 1]], [1, 1], ["<=", "<="])
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(sol.x, [1, 1], atol=1e-9)


def test_infeasible_bounds():
    p = box([1], [[1]], [-1], ["<="])  # x <= -1, x >= 0
    assert solve(p).status == "infeasible"


def test_unbounded_ray():
    p = box([1], np.zeros((0, 1)), np.zeros(0), [])
    assert solve(p).status == "unbounded"


def test_statuses_exact_where_presolve_is_ambiguous():
    # HiGHS's presolve alone reports both as "unbounded or infeasible"
    assert solve(box([1], [[1]], [2], [">="])).status == "unbounded"
    p = box([1], [[2], [0]], [-2, -1], [">=", "="], lower=[-np.inf], upper=[np.inf])
    assert solve(p).status == "infeasible"


def test_no_columns():
    sol = solve(box(np.zeros(0), np.zeros((1, 0)), [1], ["<="]))
    assert sol.status == "optimal" and sol.objective_value == 0.0
    with pytest.raises(SolverFailure, match="residual"):
        solve(box(np.zeros(0), np.zeros((1, 0)), [-1], ["<="]))


def test_equality_and_free_variables():
    # maximize x - y subject to x + y = 3, x <= 2, y free
    p = box([1, -1], [[1, 1], [1, 0]], [3, 2], ["=", "<="],
            lower=[0, -np.inf], upper=[np.inf, np.inf])
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(sol.x, [2, 1], atol=1e-9)


def test_ge_rows_and_two_sided_bounds():
    # maximize -x subject to x >= 2, 0 <= x <= 5
    p = box([-1], [[1]], [2], [">="], lower=[0], upper=[5])
    sol = solve(p)
    assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)


def test_dual_certificate_simple():
    p = box([1], [[1]], [1], ["<="])
    sol = solve(p)
    assert sol.dual is not None
    assert sol.dual[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(sol.objective_value - sol.dual_objective) <= 1e-8


def _forget(monkeypatch):
    """Empty the memo, so that the next solve of any LP runs HiGHS."""
    monkeypatch.setattr(lp, "_solved", lp._Memo())


def test_determinism_same_bytes(monkeypatch):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 4))
    b = rng.uniform(1, 3, size=6)
    c = rng.normal(size=4)
    p1 = box(c, a, b, ["<="] * 6, upper=[10] * 4)
    p2 = box(c.copy(), a.copy(), b.copy(), ["<="] * 6, upper=[10] * 4)
    _forget(monkeypatch)
    s1 = solve(p1)
    _forget(monkeypatch)
    s2 = solve(p2)
    assert s1.iterations > 0 and s2.iterations > 0
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.objective_value == s2.objective_value


def _random_instance(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 8))
    a = rng.normal(size=(m, n))
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    x0 = rng.uniform(0, 2, size=n)  # feasible anchor
    slack = rng.uniform(0, 1, size=m)
    b = a @ x0
    for i, s in enumerate(senses):
        if s == "<=":
            b[i] += slack[i]
        elif s == ">=":
            b[i] -= slack[i]
    c = rng.normal(size=n)
    lower = np.zeros(n)
    upper = np.full(n, 6.0)
    free = rng.random(n) < 0.25
    lower[free] = -np.inf
    upper[free] = np.inf
    # keep the model bounded: cap free vars via rows
    extra = np.eye(n)[free]
    if extra.size:
        a = np.vstack([a, extra, -extra])
        b = np.concatenate([b, np.full(free.sum(), 8.0), np.full(free.sum(), 8.0)])
        senses += ["<="] * (2 * free.sum())
    return box(c, a, b, senses, lower, upper)


def test_random_instances_match_scipy():
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(60):
        p = _random_instance(rng)
        sol = solve(p)
        ref = _linprog(p)
        if sol.status == "optimal":
            assert ref.status == 0
            assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-6, rel=1e-6)
            assert sol.max_violation <= 1e-9 * (1 + _rhs_scale(p))
            assert abs(sol.objective_value - sol.dual_objective) <= 1e-8 * (1 + abs(sol.objective_value))
            solved += 1
        elif sol.status == "infeasible":
            assert ref.status == 2
        else:
            assert ref.status == 3
    assert solved >= 40  # construction makes most instances feasible/bounded


def test_degenerate_problem_terminates():
    # classic cycling-prone instance (Beale), kept as a degenerate-LP regression test
    c = np.array([0.75, -150, 0.02, -6])
    a = np.array([
        [0.25, -60, -0.04, 9],
        [0.5, -90, -0.02, 3],
        [0, 0, 1, 0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    p = box(c, a, b, ["<="] * 3)  # maximize c over the degenerate vertex fan
    sol = solve(p)
    assert sol.status == "optimal"
    ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * 4, method="highs")
    assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-9)


def _cases():
    yield box([1, 1], [[1, 0], [0, 1]], [1, 1], ["<=", "<="])
    yield box([1, -1], [[1, 1], [1, 0]], [3, 2], ["=", "<="],
              lower=[0, -np.inf], upper=[np.inf, np.inf])
    yield box([-1], [[1]], [2], [">="], lower=[0], upper=[5])
    yield box([1], [[1]], [1], ["<="])
    rng = np.random.default_rng(2024)
    for _ in range(20):
        yield _random_instance(rng)


def test_certificate_accepts_solver_answers():
    for p in _cases():
        sol = solve(p)
        if sol.status != "optimal":
            continue
        violation, dual_objective = check_certificate(p, sol.x, sol.dual)
        assert violation == sol.max_violation
        assert dual_objective == sol.dual_objective


def test_certificate_rejects_perturbed_primal():
    p = box([1, 1], [[1, 0], [0, 1]], [1, 1], ["<=", "<="])
    sol = solve(p)
    with pytest.raises(SolverFailure, match="residual"):
        check_certificate(p, sol.x + np.array([1e-6, 0.0]), sol.dual)


def test_certificate_rejects_wrong_dual_sign():
    # maximize x subject to x <= 1 twice: y = (2, -1) prices x exactly and
    # has no gap, but a "<=" row may not carry a negative dual
    p = box([1], [[1], [1]], [1, 1], ["<=", "<="])
    with pytest.raises(SolverFailure, match="dual sign") as exc:
        check_certificate(p, np.array([1.0]), np.array([2.0, -1.0]))
    assert "gap" not in str(exc.value)


def test_certificate_rejects_positive_reduced_cost_without_upper_bound():
    # maximize x1 subject to x1 <= 1, x2 = 0; y = (1, -1) leaves reduced cost
    # +1 on x2, which has no upper bound, so the dual proves nothing
    p = box([1, 0], [[1, 0], [0, 1]], [1, 0], ["<=", "="])
    with pytest.raises(SolverFailure, match="dual infeasibility") as exc:
        check_certificate(p, np.array([1.0, 0.0]), np.array([1.0, -1.0]))
    assert "gap" not in str(exc.value) and "sign" not in str(exc.value)


# Delsarte's LP on the probability-normalized Z_240 with this Omega+: the
# first HiGHS answer has a primal residual of 5.8e-8, inside HiGHS's own
# feasibility tolerance (1e-7) but not inside the certificate's 1e-9
Z240_OMEGA_PLUS = [0, 1, 18, 21, 30, 31, 40, 52, 57, 58, 72, 76, 83, 85, 88, 101, 102, 106,
                   114, 126, 134, 138, 139, 152, 155, 157, 164, 168, 182, 183, 188, 200, 209,
                   210, 219, 222, 239]


def test_certificate_failure_is_resolved_with_tighter_tolerances(monkeypatch):
    from pdextremal import extremal
    from pdextremal.groups import SymSet, make_group

    problems, solutions = [], []

    def record(p):
        problems.append(p)
        solutions.append(solve(p))
        return solutions[-1]

    monkeypatch.setattr(extremal, "solve", record)
    _forget(monkeypatch)
    g = make_group([240], "probability")
    res = extremal.delsarte(g, SymSet.from_elements(g, Z240_OMEGA_PLUS))
    (problem,), (first_sol,) = problems, solutions

    # HiGHS's answer at its default tolerances fails the certificate ...
    h = lp.highs._Highs()
    for name, value in lp._HIGHS_OPTIONS.items():
        h.setOptionValue(name, value)
    h.passModel(lp._highs_lp(problem))
    h.run()
    first = h.getSolution()
    with pytest.raises(SolverFailure, match="residual"):
        check_certificate(problem, np.asarray(first.col_value), -np.asarray(first.row_dual))

    # ... and solve re-runs it from that basis into a checked optimum, which
    # the memo then answers again
    assert res.status == "optimal" and first_sol.iterations > 0
    sol = solve(problem)
    assert sol.iterations == 0 and sol.x.tobytes() == first_sol.x.tobytes()
    assert sol.max_violation <= 1e-9 * (1 + _rhs_scale(problem))
    assert sol.objective_value == res.value
    ref = _linprog(problem)
    assert ref.status == 0
    assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-7)


def _outcome(problem):
    try:
        sol = solve(problem)
    except SolverFailure as exc:
        return "SolverFailure", str(exc)
    return (sol.status, sol.iterations,
            None if sol.x is None else sol.x.tobytes(),
            None if sol.dual is None else sol.dual.tobytes())


def test_shared_solver_results_do_not_depend_on_call_history(monkeypatch):
    from pdextremal import extremal
    from pdextremal.groups import SymSet, make_group

    problems = []
    with monkeypatch.context() as m:
        m.setattr(extremal, "solve", lambda p: problems.append(p) or solve(p))
        g = make_group([240], "probability")
        extremal.delsarte(g, SymSet.from_elements(g, Z240_OMEGA_PLUS))  # the tightened re-solve
    problems += [box([1], [[1]], [-1], ["<="]),  # infeasible
                 box([1], np.zeros((0, 1)), np.zeros(0), []),  # unbounded
                 box(np.zeros(0), np.zeros((1, 0)), [-1], ["<="]),  # SolverFailure
                 *_cases()]

    shared = lp._solver()
    history = []
    for p in problems:
        _forget(monkeypatch)  # HiGHS, not the memo, answers every LP below
        history.append(_outcome(p))
        assert lp._solver() is shared
        for name in lp._TOLERANCES:
            assert shared.getOptionValue(name)[1] == 1e-7
    assert history[0][0] == "optimal" and history[3][0] == "SolverFailure"
    assert history[0][1] > 0
    assert [o[0] for o in history[1:3]] == ["infeasible", "unbounded"]

    fresh = []
    for p in problems:
        monkeypatch.setattr(lp, "_highs", None)  # the next solve makes a new object
        _forget(monkeypatch)
        fresh.append(_outcome(p))
        assert lp._solver() is not shared
    assert history == fresh


INF = np.inf


@pytest.mark.parametrize("rows, columns", [
    (([np.nan], [1]), ([0], [INF])),  # NaN row bound
    (([-INF], [np.nan]), ([0], [INF])),
    (([2], [1]), ([0], [INF])),  # inverted row bounds
    (([INF], [INF]), ([0], [INF])),  # row lower bound +inf
    (([-INF], [-INF]), ([0], [INF])),  # row upper bound -inf
    (([-INF], [1]), ([np.nan], [INF])),  # NaN variable bound
    (([-INF], [1]), ([0], [np.nan])),
    (([-INF], [1]), ([1], [0])),  # inverted variable bounds
    (([-INF], [1]), ([INF], [INF])),  # variable lower bound +inf
    (([-INF], [1]), ([-INF], [-INF])),  # variable upper bound -inf
    (([-INF, -INF], [1]), ([0], [INF])),  # shapes differ
    (([-INF], [1]), ([0, 0], [INF])),
])
def test_bounds_are_validated(rows, columns):
    with pytest.raises(ValueError, match="bounds"):
        LpProblem([1], [[1]], *rows, *columns)


def test_nan_primal_fails_the_residual():
    p = box([1], [[1]], [1], ["<="])
    with pytest.raises(SolverFailure, match="residual nan"):
        check_certificate(p, np.array([np.nan]), np.array([1.0]))


def _highs_runs(monkeypatch):
    """A list that gets one entry per LP that solve hands to HiGHS."""
    runs = []
    run = lp._run
    monkeypatch.setattr(lp, "_run", lambda h, p: runs.append(p) or run(h, p))
    return runs


def _copy(p, **changes):
    """A new LpProblem with p's data, each array copied, and some replaced."""
    data = {name: getattr(p, name).copy()
            for name in ("c", "a", "row_lower", "row_upper", "lower", "upper")}
    return LpProblem(**{**data, **changes})


def test_repeated_lp_is_answered_from_the_memo(monkeypatch):
    p = _random_instance(np.random.default_rng(7))
    _forget(monkeypatch)
    runs = _highs_runs(monkeypatch)
    first = solve(p)
    again = solve(_copy(p))
    assert first.status == "optimal" and first.iterations > 0
    assert len(runs) == 1 and again.iterations == 0
    _forget(monkeypatch)
    fresh = solve(p)
    assert len(runs) == 2 and fresh.iterations == first.iterations
    for sol in (first, again):
        assert sol.x.tobytes() == fresh.x.tobytes() and sol.dual.tobytes() == fresh.dual.tobytes()
        assert (sol.objective_value, sol.dual_objective, sol.max_violation) == \
            (fresh.objective_value, fresh.dual_objective, fresh.max_violation)


def test_changed_entry_is_a_miss(monkeypatch):
    p = LpProblem([1, 2], [[1, 1], [1, -1]], [-np.inf, -1], [4, 1], upper=[3, 3])
    _forget(monkeypatch)
    runs = _highs_runs(monkeypatch)
    solve(p)

    def nudged(name, index):
        v = getattr(p, name).copy()
        v[index] += 0.5
        return _copy(p, **{name: v})

    variants = [nudged("c", 1), nudged("a", (1, 0)), nudged("row_upper", 0),
                nudged("row_lower", 1), nudged("lower", 0), nudged("upper", 1)]
    for q in variants:
        solve(q)
    assert len(runs) == 7 and all(r is q for r, q in zip(runs, [p, *variants]))
    assert len(lp._solved.entries) == 1 + len(variants)


def test_remembered_arrays_are_read_only(monkeypatch):
    p = box([1, 1], [[1, 0], [0, 1]], [1, 1], ["<=", "<="])
    _forget(monkeypatch)
    for sol in (solve(p), solve(p)):
        assert not sol.x.flags.writeable and not sol.dual.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sol.x[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            sol.dual[0] = 5.0
    assert solve(p).x.tolist() == pytest.approx([1.0, 1.0])


def test_failed_and_nonoptimal_outcomes_are_not_remembered(monkeypatch):
    _forget(monkeypatch)
    runs = _highs_runs(monkeypatch)
    infeasible = box([1], [[1]], [-1], ["<="])
    unbounded = box([1], np.zeros((0, 1)), np.zeros(0), [])
    failing = box(np.zeros(0), np.zeros((1, 0)), [-1], ["<="])
    for _ in range(2):
        assert solve(infeasible).status == "infeasible"
        assert solve(unbounded).status == "unbounded"
        with pytest.raises(SolverFailure, match="residual"):
            solve(failing)
    assert len(runs) == 6
    assert not lp._solved.entries and lp._solved.nbytes == 0


def test_remembered_answer_that_fails_its_check_is_solved_again(monkeypatch):
    p = box([1, 1], [[1, 0], [0, 1]], [1, 1], ["<=", "<="])
    _forget(monkeypatch)
    runs = _highs_runs(monkeypatch)
    lp._solved.put(lp._key(p), np.array([2.0, 2.0]), np.array([1.0, 1.0]))  # infeasible x
    sol = solve(p)
    assert len(runs) == 1
    assert sol.x.tolist() == pytest.approx([1.0, 1.0])
    (x, y), = lp._solved.entries.values()
    assert x is sol.x and y is sol.dual
    assert lp._solved.nbytes == x.nbytes + y.nbytes + lp._ENTRY_BYTES
    assert solve(p).x is sol.x and len(runs) == 1


def test_memo_keeps_within_its_budget_and_drops_the_oldest(monkeypatch):
    assert lp._solved.budget == lp._MEMO_BYTES <= 16 * 2**20
    entry = 2 * 8 + 2 * 8 + lp._ENTRY_BYTES  # two variables, two rows
    memo = lp._Memo(budget=10 * entry + entry // 2)
    monkeypatch.setattr(lp, "_solved", memo)
    problems = [box([1, 1], [[1, 0], [0, 1]], [k, 1], ["<=", "<="]) for k in range(1, 31)]
    for p in problems:
        solve(p)
        assert memo.nbytes <= memo.budget
    assert list(memo.entries) == [lp._key(p) for p in problems[-10:]]
    assert memo.nbytes == 10 * entry

    runs = _highs_runs(monkeypatch)
    assert solve(problems[-1]).iterations == 0 and not runs  # kept
    solve(problems[0])  # dropped, so solved again
    assert len(runs) == 1 and runs[0] is problems[0] and len(memo.entries) == 10
    assert lp._key(problems[1]) not in memo.entries  # the oldest made room for it


def test_answer_larger_than_the_budget_is_not_remembered(monkeypatch):
    memo = lp._Memo(budget=lp._ENTRY_BYTES)
    monkeypatch.setattr(lp, "_solved", memo)
    assert solve(box([1], [[1]], [1], ["<="])).status == "optimal"
    assert not memo.entries and memo.nbytes == 0


def test_memo_budget_bounds_its_memory():
    import tracemalloc

    memo = lp._Memo(budget=2**16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(5000):  # the smallest answers, where the Python objects dominate
            memo.put(((1, 1), k.to_bytes(16, "little")), np.full(1, float(k)), np.zeros(1))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert memo.nbytes <= memo.budget and len(memo.entries) < 5000
    assert held <= memo.budget
