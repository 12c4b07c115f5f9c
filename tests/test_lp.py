import numpy as np
import pytest
from scipy.optimize import linprog

from pdextremal import extremal, lp
from pdextremal.extremal import two_set_constant
from pdextremal.groups import SymSet, make_group
from pdextremal.lp import LpProblem, LpSolution, SolverFailure, check_certificate, solve


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
    m = p.nrows
    for row, lo, hi in zip(p.a, p.lo[:m], p.hi[:m]):
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
        bounds=list(zip(p.lo[m:], p.hi[m:])),
        method="highs",
    )


def _rhs_scale(p):
    """The largest finite row bound in absolute value."""
    bounds = p.bounds[:, :p.nrows]
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
    # with allow_unbounded_or_infeasible on, HiGHS reports both as "unbounded
    # or infeasible", with presolve on or off: the dual simplex itself cannot
    # tell them apart
    assert solve(box([1], [[1]], [2], [">="])).status == "unbounded"
    p = box([1], [[2], [0]], [-2, -1], [">=", "="], lower=[-np.inf], upper=[np.inf])
    assert solve(p).status == "infeasible"


def test_no_columns():
    sol = solve(box(np.zeros(0), np.zeros((1, 0)), [1], ["<="]))
    assert sol.status == "optimal" and sol.objective_value == 0.0
    with pytest.raises(SolverFailure, match="residual"):
        solve(box(np.zeros(0), np.zeros((1, 0)), [-1], ["<="]))


def test_model_highs_rejects_is_a_solver_failure():
    # HiGHS refuses matrix entries of 1e15 and more; LpProblem refuses them
    # too, so this one is put in after the problem is built
    p = box([1], [[1]], [1], ["<="])
    p.a[0, 0] = 1e300
    with pytest.raises(SolverFailure, match="HiGHS ended with status Not Set"):
        solve(p)
    assert solve(box([1], [[1]], [1], ["<="])).objective_value == pytest.approx(1.0, abs=1e-9)


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
    """Empty the extremal memos, so that the next extremal LP is built and reaches solve."""
    monkeypatch.setattr(extremal, "_solved", extremal._Memo())
    monkeypatch.setattr(extremal, "_built", extremal._Memo())


def test_determinism_same_bytes():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 4))
    b = rng.uniform(1, 3, size=6)
    c = rng.normal(size=4)
    p1 = box(c, a, b, ["<="] * 6, upper=[10] * 4)
    p2 = box(c.copy(), a.copy(), b.copy(), ["<="] * 6, upper=[10] * 4)
    s1 = solve(p1)
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
    lp._pass_model(h, problem)
    h.run()
    first = h.getSolution()
    with pytest.raises(SolverFailure, match="residual"):
        check_certificate(problem, np.asarray(first.col_value), -np.asarray(first.row_dual))

    # ... and solve re-runs it from that basis into a checked optimum, which
    # the extremal memo then answers again without solving
    assert res.status == "optimal" and first_sol.iterations > 0
    again = extremal.delsarte(g, SymSet.from_elements(g, Z240_OMEGA_PLUS))
    assert len(problems) == 1
    assert np.float64(again.value).tobytes() == np.float64(res.value).tobytes()
    sol = first_sol
    assert sol.max_violation <= 1e-9 * (1 + _rhs_scale(problem))
    assert sol.objective_value == res.value
    ref = _linprog(problem)
    assert ref.status == 0
    assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-7)


def _z512_delsarte():
    """Delsarte's LP on the probability-normalized Z_512 with Omega+ = {0, 7, -7}.

    HiGHS's dual simplex answer fails the certificate (dual infeasibility
    2.8e-9), and so does its re-solve from that basis at 1e-10; a fresh
    primal simplex passes.
    """
    g = make_group([512], "probability")
    return extremal.delsarte(g, SymSet.from_elements(g, [0, 7, 505]))


def test_failure_after_the_tightened_resolve_is_solved_afresh_by_primal_simplex(monkeypatch):
    runs, answer = [], lp._answer

    def record(h, problem, iterations):  # simplex strategy and tolerance of each run
        runs.append((h.getOptionValue("simplex_strategy")[1],
                     h.getOptionValue("primal_feasibility_tolerance")[1]))
        return answer(h, problem, iterations)

    monkeypatch.setattr(lp, "_answer", record)
    _forget(monkeypatch)
    res = _z512_delsarte()
    assert res.status == "optimal" and abs(res.value - 2 / 512) <= 1e-12
    assert runs == [(1, 1e-7), (1, 1e-10), (4, 1e-7)]  # dual, dual tightened, primal
    _assert_options_as_set(lp._solver())


def _outcome(problem):
    try:
        sol = solve(problem)
    except SolverFailure as exc:
        return "SolverFailure", str(exc)
    return (sol.status, sol.iterations,
            None if sol.x is None else sol.x.tobytes(),
            None if sol.dual is None else sol.dual.tobytes())


def test_shared_solver_results_do_not_depend_on_call_history(monkeypatch):
    problems = []
    _forget(monkeypatch)  # the Z_240 LP reaches solve
    with monkeypatch.context() as m:
        m.setattr(extremal, "solve", lambda p: problems.append(p) or solve(p))
        g = make_group([240], "probability")
        extremal.delsarte(g, SymSet.from_elements(g, Z240_OMEGA_PLUS))  # the tightened re-solve
        _z512_delsarte()  # the primal simplex after the tightened re-solve
    problems += [box([1], [[1]], [-1], ["<="]),  # infeasible
                 box([1], np.zeros((0, 1)), np.zeros(0), []),  # unbounded
                 box(np.zeros(0), np.zeros((1, 0)), [-1], ["<="]),  # SolverFailure
                 *_cases()]

    shared = lp._solver()
    history = []
    for p in problems:
        history.append(_outcome(p))
        assert lp._solver() is shared
        _assert_options_as_set(shared)
    assert history[0][0] == history[1][0] == "optimal" and history[4][0] == "SolverFailure"
    assert history[0][1] > 0 and history[1][1] > 0
    assert [o[0] for o in history[2:4]] == ["infeasible", "unbounded"]

    fresh = []
    for p in problems:
        monkeypatch.setattr(lp, "_highs", None)  # the next solve makes a new object
        fresh.append(_outcome(p))
        assert lp._solver() is not shared
        _assert_options_as_set(lp._solver())
    assert history == fresh


def _assert_options_as_set(h):
    """Every option of _HIGHS_OPTIONS reads back from h as it was set, type included."""
    for name, value in lp._HIGHS_OPTIONS.items():
        got = h.getOptionValue(name)[1]
        assert (type(got), got) == (type(value), value), name


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


def test_bounds_are_read_only_views_of_the_stacked_pair():
    p = LpProblem([1, 2], [[1, 0], [0, 1], [1, 1]], [-INF, 0, 1], [4, INF, 5], [-1, 0], [2, INF])
    assert p.lo.tolist() == [-INF, 0, 1, -1, 0] and p.hi.tolist() == [4, INF, 5, 2, INF]
    assert np.array_equal(p.bounds, [p.lo, p.hi])
    for view in (p.bounds, p.lo, p.hi):
        assert np.shares_memory(view, p.bounds)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 3.0
    default = LpProblem([1], [[1]], [0], [1])
    assert default.lo.tolist() == [0.0, 0.0] and default.hi.tolist() == [1.0, INF]
    assert (default.nrows, default.nvars) == (1, 1)


@pytest.mark.parametrize("rows, columns, match", [
    (([0, 2, 0], [1, 1, 1]), ([0, 0], [INF, INF]), r"^row 1 has bounds \[2\.0, 1\.0\]"),
    (([0, 0, 0], [1, 1, np.nan]), ([0, 0], [INF, INF]), r"^row 2 has bounds \[0\.0, nan\]"),
    (([0, 0, 0], [1, 1, 1]), ([0, INF], [INF, INF]), r"^variable 1 has bounds \[inf, inf\]"),
    (([0, 0, 0], [1, 1, 1]), ([-1e20, 0], [INF, INF]), r"^variable 0 has bounds \[-1e\+20, inf\]"),
    (([0, 0, 1e21], [1, 1, 1]), ([0, 0], [INF, -1]), r"^row 2 has bounds \[1e\+21, 1\.0\]"),
])
def test_a_bad_bound_names_its_row_or_variable(rows, columns, match):
    with pytest.raises(ValueError, match=match):
        LpProblem([1, 1], np.ones((3, 2)), *rows, *columns)


@pytest.mark.parametrize("rows, columns", [
    (([-INF], [1e25]), ([0], [INF])),  # HiGHS would answer this bounded LP "unbounded"
    (([-1e20], [1]), ([0], [INF])),
    (([-INF], [1]), ([0], [1e21])),
    (([-INF], [1]), ([-1e20], [INF])),
])
def test_bound_highs_reads_as_infinite_is_rejected(rows, columns):
    # HiGHS's infinite_bound: a bound of 1e20 or more in magnitude is no bound
    with pytest.raises(ValueError, match=r"0 has bounds .* finite bound below 1e\+20"):
        LpProblem([1], [[1]], *rows, *columns)


@pytest.mark.parametrize("entry", [1e15, -1e15, 1e300, INF, np.nan])
def test_matrix_entry_highs_refuses_is_rejected(entry):
    # HiGHS's large_matrix_value: passModel refuses the model
    with pytest.raises(ValueError, match=r"a\[1, 0\] = .*below 1e\+15"):
        LpProblem([1, 1], [[1, 1], [entry, 1]], [-INF, -INF], [1, 1])


@pytest.mark.parametrize("cost", [1e20, -1e300, INF, np.nan])
def test_cost_highs_reads_as_infinite_is_rejected(cost):
    # HiGHS's infinite_cost: its run would end with status Unknown
    with pytest.raises(ValueError, match=r"c\[0\] = .*below 1e\+20"):
        LpProblem([cost], [[1]], [-INF], [1])


def test_bound_below_the_limit_keeps_its_finite_optimum():
    sol = solve(LpProblem([1], [[1]], [-INF], [1e19]))
    assert sol.status == "optimal" and sol.objective_value == 1e19
    sol = solve(LpProblem([1], np.zeros((0, 1)), [], [], [0], [1e19]))
    assert sol.status == "optimal" and sol.objective_value == 1e19
    assert LpProblem([1e19], [[1e14]], [-INF], [1]).c[0] == 1e19


def test_nan_primal_fails_the_residual():
    p = box([1], [[1]], [1], ["<="])
    with pytest.raises(SolverFailure, match="residual nan"):
        check_certificate(p, np.array([np.nan]), np.array([1.0]))


# The memo of certified answers lives in extremal._solve, above lp.solve: a
# repeated extremal LP is answered before it is built.

def _lp_solves(monkeypatch):
    """A list that gets one entry per LP that extremal hands to lp.solve."""
    calls = []
    monkeypatch.setattr(extremal, "solve", lambda p: calls.append(p) or solve(p))
    return calls


def _z12(normalization="probability", orders=(12,)):
    """Z_12 (or another group of order 12) with the index sets Omega+ = {0, 6}
    and Omega- = {0}: both lie in K = {0, 6}, and both are symmetric in Z_12
    and in Z_2 x Z_6, where index 6 is (1, 0)."""
    return make_group(list(orders), normalization), np.isin(np.arange(12), [0, 6]), \
        np.arange(12) == 0


def _answer_bytes(answer):
    value, f_values, spectrum, status = answer
    return np.float64(value).tobytes(), f_values.tobytes(), spectrum.tobytes(), status


def test_repeated_lp_is_answered_from_the_memo(monkeypatch):
    g = make_group([9], "probability")
    op, om = SymSet.from_elements(g, [0, 1, 8, 4, 5]), SymSet.from_elements(g, [0, 3, 6])
    _forget(monkeypatch)
    calls = _lp_solves(monkeypatch)
    first = two_set_constant(g, op, om)
    h = make_group([9], "probability")  # equal data in new objects
    again = two_set_constant(h, SymSet(h, op.mask.copy()), SymSet(h, om.mask.copy()))
    assert first.status == again.status == "optimal" and len(calls) == 1
    hom = extremal.verify_homomorphism_bound(g, [0, 3, 6], op, om)
    assert len(calls) == 4  # C_G with counting measure, C_K and C_{G/K}
    assert extremal.verify_homomorphism_bound(g, [0, 3, 6], op, om) == hom and len(calls) == 4

    _forget(monkeypatch)
    fresh = two_set_constant(g, op, om)
    assert len(calls) == 5 and extremal.verify_homomorphism_bound(g, [0, 3, 6], op, om) == hom
    assert len(calls) == 8
    for res in (first, again):
        assert np.float64(res.value).tobytes() == np.float64(fresh.value).tobytes()
        assert res.optimizer.values.tobytes() == fresh.optimizer.values.tobytes()
        assert res.spectrum.tobytes() == fresh.spectrum.tobytes()


def test_changed_entry_is_a_miss(monkeypatch):
    g, plus, minus = _z12()
    idx, in_k = np.arange(12), np.isin(np.arange(12), [0, 6])
    annihilator = ~g.char_phases(idx, [6]).any(axis=1)
    chars = g.index_of(g.coords[:, None] + g.coords[annihilator]).min(axis=1)  # x + K^perp
    elems = np.where(in_k, idx, -1)  # Omega+- lie in K, so Omega+- meet the same classes
    _forget(monkeypatch)
    calls = _lp_solves(monkeypatch)
    base = extremal._solve(g, plus, minus)
    variants = [  # each differs from the base, or from the one before it, in one part
        (*_z12(orders=(2, 6)), None, None),
        (*_z12("counting"), None, None),
        (g, plus, minus, None, elems),
        (g, plus, minus, chars, elems),  # C_K
        (g, plus | np.isin(idx, [3, 9]), minus, None, None),
        (g, plus, minus | (idx == 6), None, None),  # Omega- off 0
    ]
    answers = [extremal._solve(*v) for v in variants]
    assert len(calls) == 1 + len(variants)
    assert len(extremal._solved.entries) == 1 + len(variants)
    assert all(a[3] == "optimal" for a in [base, *answers])
    assert extremal._solve(g, plus, minus) is base and len(calls) == 1 + len(variants)
    # class tables by orders and labels alone: Z_12, Z_2 x Z_6, and the two labellings
    assert len(extremal._built.entries) == 4
    for v, answer in zip(variants, answers):  # the same bytes from tables built afresh
        _forget(monkeypatch)
        assert _answer_bytes(extremal._solve(*v)) == _answer_bytes(answer)


def test_omega_minus_with_and_without_zero_share_an_entry(monkeypatch):
    g, plus, minus = _z12()
    _forget(monkeypatch)
    calls = _lp_solves(monkeypatch)
    six = np.arange(12) == 6
    with_zero = extremal._solve(g, plus, minus | six)
    without_zero = extremal._solve(g, plus, six)
    assert without_zero is with_zero and len(calls) == 1
    assert len(extremal._solved.entries) == 1
    _forget(monkeypatch)
    assert _answer_bytes(extremal._solve(g, plus, six)) == _answer_bytes(with_zero)
    assert len(calls) == 2


def test_remembered_arrays_are_read_only(monkeypatch):
    g = make_group([8], "probability")
    op, om = SymSet.from_elements(g, [0, 1, 7]), SymSet.from_elements(g, [0, 4])
    _forget(monkeypatch)
    results = [two_set_constant(g, op, om), two_set_constant(g, op, om)]
    (value, f_values, spectrum, _), = extremal._solved.entries.values()
    for res in results:
        assert res.optimizer.values is f_values and res.spectrum is spectrum
        for array in (f_values, spectrum):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
    _forget(monkeypatch)
    assert two_set_constant(g, op, om).spectrum.tobytes() == spectrum.tobytes()


def test_failed_and_nonoptimal_outcomes_are_not_remembered(monkeypatch):
    g = make_group([8], "probability")
    op, om = SymSet.from_elements(g, [0, 1, 7]), SymSet.from_elements(g, [0, 4])
    _forget(monkeypatch)
    calls = []

    def failing(p):
        calls.append(p)
        if len(calls) % 2:
            raise SolverFailure("optimality certificate failed: residual 1.000e-03")
        return LpSolution("infeasible", None, np.nan, None)

    monkeypatch.setattr(extremal, "solve", failing)
    for _ in range(2):
        for match in ("residual", "status infeasible"):
            with pytest.raises(SolverFailure, match=match):
                two_set_constant(g, op, om)
    assert len(calls) == 4
    assert not extremal._solved.entries and extremal._solved.nbytes == 0
    monkeypatch.setattr(extremal, "solve", solve)
    assert two_set_constant(g, op, om).status == "optimal"
    assert len(extremal._solved.entries) == 1


def _entry_bytes(n):
    """What the memo charges for an answer on Z_n with the identity labels."""
    return 2 * 8 * n + 2 * n + extremal._ENTRY_BYTES  # f_values, spectrum, Omega+-


def _table_bytes(n):
    """What the table memo charges for the class tables of Z_n with the identity labels."""
    m = n // 2 + 1  # class pairs of characters, and of elements
    return 2 * 8 * m + 2 * 8 * m * m + extremal._ENTRY_BYTES  # char_reps, reps, base, rho


def _z12_sets():
    """Omega+ for each nonempty set of the classes {1, 11}, ..., {5, 7}, {6} of Z_12."""
    g = make_group([12], "probability")
    pairs = [[1, 11], [2, 10], [3, 9], [4, 8], [5, 7], [6]]
    return g, [SymSet.from_elements(g, [0] + [x for j, p in enumerate(pairs) if k >> j & 1
                                             for x in p]) for k in range(1, 64)]


# The memo tests run on both memos of extremal: the answers (_solved) and the
# class tables (_built).  The other memo keeps nothing, so that every call
# reaches the memo under test.  A class table is kept from the second request
# of its key on, the first recording the key alone, so the tables case asks
# for each LP twice.
MEMOS = pytest.mark.parametrize("name", ["_solved", "_built"], ids=["answers", "tables"])
_CHARGE = {"_solved": _entry_bytes, "_built": _table_bytes}
_ASKS = {"_solved": 1, "_built": 2}


def _ask(name, lp):
    """two_set_constant on lp, as often as the memo under test needs to keep it."""
    for _ in range(_ASKS[name]):
        result = two_set_constant(*lp)
    return result


def _use_memo(monkeypatch, name, budget):
    memo = extremal._Memo(budget=budget)
    monkeypatch.setattr(extremal, name, memo)
    monkeypatch.setattr(extremal, {"_solved": "_built", "_built": "_solved"}[name],
                        extremal._Memo(budget=0))
    return memo


def _lps(name, count):
    """count LPs of order 12, each with its own entry in the memo, all of one size:
    Omega+ changes from one answer to the next, the group Z_12 x Z_1^k from one
    table to the next."""
    g, sets = _z12_sets()
    if name == "_solved":
        return [(g, op, SymSet.full(g)) for op in sets[:count]]
    groups = [make_group([12] + [1] * k, "probability") for k in range(count)]
    return [(h, SymSet(h, sets[0].mask), SymSet.full(h)) for h in groups]


@MEMOS
def test_memo_keeps_within_its_budget_and_drops_the_oldest(monkeypatch, name):
    assert getattr(extremal, name).budget == extremal._MEMO_BYTES <= 16 * 2**20
    entry = _CHARGE[name](12)
    memo = _use_memo(monkeypatch, name, 10 * entry + entry // 2)
    lps, keys = _lps(name, 30), []
    for lp in lps:
        assert _ask(name, lp).status == "optimal"
        keys.append(next(reversed(memo.entries)))
        assert memo.nbytes <= memo.budget
    assert list(memo.entries) == keys[-10:] and memo.nbytes == 10 * entry
    held = list(memo.entries.values())

    two_set_constant(*lps[29])  # kept, so not built again
    assert all(a is b for a, b in zip(memo.entries.values(), held, strict=True))
    _ask(name, lps[0])  # dropped, so built again, and the oldest goes
    assert list(memo.entries) == keys[21:] + keys[:1] and memo.nbytes == 10 * entry


@MEMOS
def test_entry_larger_than_the_budget_is_not_remembered(monkeypatch, name):
    # room for one entry of Z_12 and, for the tables, the record of another key
    record = {"_solved": 0, "_built": extremal._ENTRY_BYTES}[name]
    memo = _use_memo(monkeypatch, name, _CHARGE[name](12) + record + 100)
    g, sets = _z12_sets()
    _ask(name, (g, sets[0], SymSet.full(g)))
    (kept,) = memo.entries.values()
    h = make_group([24], "probability")  # an entry of _CHARGE[name](24) > budget bytes
    assert _ask(name, (h, SymSet.from_elements(h, [0, 1, 23]), SymSet.full(h))).status == \
        "optimal"
    (held,) = [entry for entry in memo.entries.values() if entry]  # not the records
    assert held is kept and memo.nbytes == _CHARGE[name](12) + record  # nothing dropped


def test_class_table_is_kept_from_the_second_request_of_its_key(monkeypatch):
    memo = _use_memo(monkeypatch, "_built", extremal._MEMO_BYTES)
    g, sets = _z12_sets()
    lp = (g, sets[0], SymSet.full(g))
    first = two_set_constant(*lp)
    assert list(memo.entries.values()) == [()]  # the key alone, charged like any entry
    assert memo.nbytes == extremal._ENTRY_BYTES
    assert _answer_bytes(extremal._solve(g, lp[1].mask, lp[2].mask)) == \
        _answer_bytes((first.value, first.optimizer.values, first.spectrum, first.status))
    (tables,) = memo.entries.values()
    assert len(tables) == 5 and tables[4] == 12 and memo.nbytes == _table_bytes(12)
    two_set_constant(*lp)
    (again,) = memo.entries.values()
    assert again is tables and memo.nbytes == _table_bytes(12)


@MEMOS
def test_memo_budget_bounds_its_memory(monkeypatch, name):
    import tracemalloc

    memo = _use_memo(monkeypatch, name, 2**16)
    g, idx = make_group([1]), np.arange(1)
    extremal._tables(g, (None, None), idx, idx)  # the group's layout and lcm, outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(5000):  # the smallest entries, on Z_1, as extremal makes them
            if name == "_built":  # each under labels of its own, asked twice to be kept
                for _ in range(2):
                    extremal._tables(g, (k.to_bytes(8, "little"), None), idx, idx)
                continue
            orders, weight = tuple([1]), 1.0 + k / 5000  # a new group's own objects
            inside = np.ones(1, dtype=bool)
            f_values, spectrum = np.ones(1), np.ones(1)
            f_values.flags.writeable = spectrum.flags.writeable = False
            memo.put((orders, weight, None, None, inside.tobytes(), inside.tobytes()),
                     (float(k) / 7, f_values, spectrum, "optimal"))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert memo.nbytes <= memo.budget and len(memo.entries) < 5000
    assert held <= memo.budget
