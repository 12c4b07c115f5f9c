import itertools

import numpy as np
import pytest

from pdextremal import extremal
from pdextremal.extremal import (
    ConditionViolated,
    NotAStrictTiling,
    delsarte,
    largest_packing_witness,
    turan,
    two_set_constant,
    verify_automorphism_invariance,
    verify_homomorphism_bound,
    verify_main_theorem,
    verify_product_bound,
    verify_tile_theorem,
)
from pdextremal.fuzz import SplitMix64, hom_instance, symmetric_mask
from pdextremal.groups import SymSet, difference_set, make_group
from pdextremal.posdef import autocorrelation, is_posdef


def sym(group, elems):
    return SymSet.from_elements(group, elems)


def test_full_group_gives_one():
    for n in (2, 5, 8):
        g = make_group([n], "probability")
        res = two_set_constant(g, SymSet.full(g), SymSet.full(g))
        assert res.value == pytest.approx(1.0, abs=1e-9)


def test_singleton_omega_plus_gives_inverse_order():
    for n in (2, 3, 7, 10):
        g = make_group([n], "probability")
        res = two_set_constant(g, sym(g, [0]), SymSet.full(g))
        assert res.value == pytest.approx(1.0 / n, abs=1e-9)


def test_tile_set_on_z6():
    g = make_group([6], "probability")
    res = two_set_constant(g, sym(g, [5, 0, 1]), SymSet.empty(g))
    assert res.value == pytest.approx(1 / 3, abs=1e-9)


def test_infeasible_zero_convention():
    g = make_group([6], "probability")
    res = two_set_constant(g, sym(g, [1, 5]), SymSet.full(g))
    assert res.status == "infeasible-zero"
    assert res.value == 0.0


def test_optimizer_contract():
    g = make_group([8], "probability")
    op = sym(g, [0, 1, 7])
    om = sym(g, [0, 4])
    res = two_set_constant(g, op, om)
    f = res.optimizer.values
    assert f[0] == pytest.approx(1.0, abs=1e-12)
    assert np.min(res.spectrum) >= -1e-9
    assert np.max(f[~op.mask]) <= 1e-9
    assert np.min(f[~om.mask]) >= -1e-9
    assert res.value == pytest.approx(g.weight * f.sum(), abs=1e-10)


def test_optimizer_contract_randomized():
    rng = SplitMix64(555)
    for _ in range(30):
        n = 2 + rng.below(17)
        g = make_group([n], "probability" if rng.chance(1, 2) else "counting")
        op = SymSet(g, symmetric_mask(rng, g, include_zero=True))
        om = SymSet(g, symmetric_mask(rng, g, include_zero=rng.chance(1, 2)))
        res = two_set_constant(g, op, om)
        f = res.optimizer.values
        assert f[0] == pytest.approx(1.0, abs=1e-9)
        assert np.min(res.spectrum) >= -1e-9
        assert np.max(f[~op.mask], initial=0.0) <= 1e-9
        assert np.min(f[~om.mask], initial=0.0) >= -1e-9
        assert res.value == pytest.approx(g.weight * f.sum(), abs=1e-10 * (1 + abs(res.value)))
        assert np.max(np.abs(f - f[g.neg])) <= 1e-12  # symmetric witness


def test_turan_examples():
    g = make_group([9], "probability")
    assert turan(g, sym(g, [0])).value == pytest.approx(1 / 9, abs=1e-9)
    assert turan(g, SymSet.full(g)).value == pytest.approx(1.0, abs=1e-9)
    g12 = make_group([12], "probability")
    assert turan(g12, sym(g12, range(-3, 4))).value == pytest.approx(1 / 3, abs=1e-8)


def test_delsarte_examples():
    g6 = make_group([6], "probability")
    assert delsarte(g6, sym(g6, [5, 0, 1])).value == pytest.approx(1 / 3, abs=1e-8)
    g5 = make_group([5], "probability")
    om = sym(g5, [0, 1, 4])
    assert turan(g5, om).value <= delsarte(g5, om).value + 1e-9


def test_tile_theorem_examples():
    g6 = make_group([6], "probability")
    rep = verify_tile_theorem(g6, [0, 1], [0, 2, 4], SymSet.empty(g6))
    assert rep["pass"] and rep["lhs"] == pytest.approx(1 / 3, abs=1e-8)

    g8 = make_group([8], "probability")
    rep = verify_tile_theorem(g8, [0, 1, 2, 3], [0, 4], SymSet.full(g8))
    assert rep["pass"] and rep["lhs"] == pytest.approx(1 / 2, abs=1e-8)

    with pytest.raises(NotAStrictTiling):
        verify_tile_theorem(g6, [0, 1, 3], [0, 2], SymSet.empty(g6))


def test_main_theorem_examples():
    g6 = make_group([6], "probability")
    rep = verify_main_theorem(g6, sym(g6, [5, 0, 1]), [0, 2, 4])
    assert rep["pass"] and rep["tight"]

    g7 = make_group([7], "probability")
    rep = verify_main_theorem(g7, sym(g7, [0, 1, 6]), [0, 3])
    assert rep["pass"] and rep["delsarte"] <= 0.5 + 1e-8

    with pytest.raises(ConditionViolated):
        verify_main_theorem(g6, sym(g6, [0, 2, 4]), [0, 2, 4])

    counting = make_group([6], "counting")
    with pytest.raises(ValueError):
        verify_main_theorem(counting, sym(counting, [0]), [0, 3])


def test_homomorphism_examples():
    g6 = make_group([6], "counting")
    rep = verify_homomorphism_bound(g6, [0, 3], sym(g6, [5, 0, 1]), SymSet.empty(g6))
    assert rep["pass"]

    # quotient by the whole group: rhs collapses to C_G itself
    g4 = make_group([4], "counting")
    op = sym(g4, [0, 1, 3])
    rep = verify_homomorphism_bound(g4, [0, 1, 2, 3], op, SymSet.full(g4))
    assert rep["pass"]
    assert rep["quotient_constant"] == pytest.approx(1.0, abs=1e-9)
    assert rep["lhs"] == pytest.approx(rep["rhs"], abs=1e-8)

    g22 = make_group([2, 2], "counting")
    op = SymSet.from_elements(g22, [(0, 0), (1, 0), (0, 1)])
    rep = verify_homomorphism_bound(g22, [(0, 0), (1, 0)], op, SymSet.full(g22))
    assert rep["pass"]

    with pytest.raises(ValueError):
        verify_homomorphism_bound(g6, [0, 2, 3], sym(g6, [0]), SymSet.full(g6))


def test_product_examples():
    g2 = make_group([2], "probability")
    g3 = make_group([3], "probability")
    rep = verify_product_bound(g2, g3, (SymSet.full(g2), SymSet.full(g3)),
                               (SymSet.full(g2), SymSet.full(g3)))
    assert rep["pass"] and rep["lhs"] == pytest.approx(1.0, abs=1e-8)

    g4 = make_group([4], "probability")
    op4 = sym(g4, [0, 1, 3])
    rep = verify_product_bound(g4, g4, (op4, op4), (SymSet.full(g4), SymSet.full(g4)))
    assert rep["pass"]

    # strict tiles on both factors: equality with the product of tile masses
    g6 = make_group([6], "probability")
    h_diff = difference_set([0, 1], [0, 1], group=g6)
    rep = verify_product_bound(g6, g6, (h_diff, h_diff), (SymSet.empty(g6), SymSet.empty(g6)))
    assert rep["pass"]
    assert rep["lhs"] == pytest.approx((1 / 3) ** 2, abs=1e-8)
    assert rep["rhs"] == pytest.approx((1 / 3) ** 2, abs=1e-8)


def test_automorphism_examples():
    g5 = make_group([5], "probability")
    rep = verify_automorphism_invariance(g5, 2, sym(g5, [0, 1, 4]), SymSet.full(g5))
    assert rep["pass"]

    rep = verify_automorphism_invariance(g5, 1, sym(g5, [0, 1, 4]), SymSet.empty(g5))
    assert rep["pass"] and rep["value"] == rep["mapped_value"]

    g8 = make_group([8], "probability")
    rep = verify_automorphism_invariance(g8, 3, sym(g8, [0, 1, 7]), sym(g8, [0, 3, 5]))
    assert rep["pass"]

    with pytest.raises(ValueError, match="phi is not a bijection on the group"):
        verify_automorphism_invariance(g8, 2, sym(g8, [0, 1, 7]), SymSet.full(g8))


def test_automorphism_takes_an_integer_multiplier_only():
    g5 = make_group([5], "probability")
    op = sym(g5, [0, 1, 4])
    for phi in ([0, 2, 4, 1, 3], np.array([0, 2, 4, 1, 3]), 2.0, None):
        with pytest.raises(ValueError, match="integer multiplier"):
            verify_automorphism_invariance(g5, phi, op, SymSet.full(g5))
    # a numpy integer, a negative one and one beyond int64 are units mod 5 as well
    for phi in (np.int64(2), -3, 2**70 + 2):
        rep = verify_automorphism_invariance(g5, phi, op, SymSet.full(g5))
        assert rep["pass"]


def test_automorphism_on_a_product_group():
    # Z_4 x Z_6 has exponent 12; u = 5 acts as (a, b) -> (a, -b), and u = 3
    # is not a unit: it sends (0, 2) to 0
    g = make_group([4, 6], "probability")
    op = sym(g, [(0, 0), (1, 1), (3, 5), (0, 2), (0, 4), (2, 3)])
    om = sym(g, [(0, 0), (1, 2), (3, 4), (2, 3)])
    mapped_op = sym(g, [(0, 0), (1, 5), (3, 1), (0, 4), (0, 2), (2, 3)])
    mapped_om = sym(g, [(0, 0), (1, 4), (3, 2), (2, 3)])
    assert not np.array_equal(op.mask, mapped_op.mask)
    rep = verify_automorphism_invariance(g, 5, op, om)
    assert rep["pass"]
    assert rep["value"] == two_set_constant(g, op, om).value
    assert rep["mapped_value"] == two_set_constant(g, mapped_op, mapped_om).value
    assert rep["mapped_value"] == pytest.approx(rep["value"], abs=1e-12)
    with pytest.raises(ValueError, match="phi is not a bijection on the group"):
        verify_automorphism_invariance(g, 3, op, om)


def test_monotonicity_and_upper_bound():
    rng = SplitMix64(99)
    for _ in range(25):
        n = 3 + rng.below(14)
        g = make_group([n], "probability")
        op = SymSet(g, symmetric_mask(rng, g, include_zero=True))
        om = SymSet(g, symmetric_mask(rng, g, include_zero=True))
        op_big = SymSet(g, op.mask | symmetric_mask(rng, g, include_zero=True))
        om_big = SymSet(g, om.mask | symmetric_mask(rng, g, include_zero=False))
        v = two_set_constant(g, op, om).value
        v_big = two_set_constant(g, op_big, om_big).value
        assert v <= v_big + 1e-9
        assert v <= op.haar_mass() + 1e-9


def test_autocorrelation_lower_bound_exhaustive():
    rng = SplitMix64(123)
    for _ in range(20):
        n = 3 + rng.below(15)
        g = make_group([n], "probability")
        op = SymSet(g, symmetric_mask(rng, g, include_zero=True))
        value = two_set_constant(g, op, SymSet.empty(g)).value
        witness = largest_packing_witness(g, op)
        assert value >= len(witness) * g.weight - 1e-9
        if witness:
            # the normalized autocorrelation is an admissible certificate
            f = autocorrelation(np.asarray(witness), g)
            f_norm = f.values / f.values[0]
            assert is_posdef(type(f)(g, f_norm), tol=1e-9)
            assert np.max(f_norm[~op.mask], initial=0.0) <= 1e-12


def test_measure_covariance():
    # scaling the weight scales the value linearly
    base = make_group([10], 1.0)
    scaled = make_group([10], 2.5)
    op_elems = [0, 1, 9]
    v1 = two_set_constant(base, sym(base, op_elems), SymSet.full(base)).value
    v2 = two_set_constant(scaled, sym(scaled, op_elems), SymSet.full(scaled)).value
    assert v2 == pytest.approx(2.5 * v1, rel=1e-10)


def test_two_set_matches_independent_formulation():
    # independent oracle: function-side LP (values on elements as variables,
    # spectrum rows as constraints) solved by scipy, against the package's
    # spectral-side LP solved through pdextremal.lp
    from scipy.optimize import linprog

    rng = SplitMix64(2718)
    for _ in range(40):
        n = 2 + rng.below(13)
        g = make_group([n], "probability")
        op = SymSet(g, symmetric_mask(rng, g, include_zero=True))
        om_kind = rng.below(3)
        if om_kind == 0:
            om = SymSet.empty(g)
        elif om_kind == 1:
            om = SymSet.full(g)
        else:
            om = SymSet(g, symmetric_mask(rng, g, include_zero=rng.chance(1, 2)))

        chars = g.char_values(np.arange(n))
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for k in range(n):
            a_ub.append(-chars[k].real)  # Re fhat(chi_k) >= 0
            b_ub.append(0.0)
        row0 = np.zeros(n)
        row0[0] = 1.0
        a_eq.append(row0)
        b_eq.append(1.0)
        for x in range(1, n):
            ex = np.zeros(n)
            ex[x] = 1.0
            if not op.mask[x]:
                a_ub.append(ex)
                b_ub.append(0.0)
            if not om.mask[x]:
                a_ub.append(-ex)
                b_ub.append(0.0)
        sym_rows = []
        for x in range(1, n):
            if x < int(g.neg[x]):
                row = np.zeros(n)
                row[x] = 1.0
                row[int(g.neg[x])] = -1.0
                sym_rows.append(row)
        if sym_rows:
            a_eq.extend(sym_rows)
            b_eq.extend([0.0] * len(sym_rows))
        ref = linprog(
            -np.full(n, g.weight),
            A_ub=np.asarray(a_ub), b_ub=np.asarray(b_ub),
            A_eq=np.asarray(a_eq), b_eq=np.asarray(b_eq),
            bounds=[(-1.5, 1.5)] * n,  # |f| <= f(0) = 1, slack for the solver
            method="highs",
        )
        assert ref.status == 0
        res = two_set_constant(g, op, om)
        assert res.value == pytest.approx(-ref.fun, abs=1e-7)


def test_product_group_mask_layout():
    g2 = make_group([2], "probability")
    g3 = make_group([3], "probability")
    from pdextremal.extremal import product_group, product_set

    prod = product_group(g2, g3)
    assert prod.orders == (2, 3)
    s = product_set(g2, g3, sym(g2, [0, 1]), sym(g3, [0]))
    assert s.elements() == [(0, 0), (1, 0)]


def test_packing_witness_is_lexicographically_first_maximum():
    rng = SplitMix64(77)
    for _ in range(15):
        n = 2 + rng.below(9)
        g = make_group([n], "probability")
        op = SymSet(g, symmetric_mask(rng, g, include_zero=True))
        expected = next(list(a) for k in range(n, 0, -1)
                        for a in itertools.combinations(range(n), k)
                        if all(op.mask[(x - y) % n] for x in a for y in a))
        assert largest_packing_witness(g, op) == expected


def test_packing_witness_budget_returns_the_incumbent(monkeypatch):
    # n + 1 nodes end the search's first dive, which builds the greedy set
    rng = SplitMix64(5)
    for _ in range(10):
        n = 5 + rng.below(30)
        g = make_group([n], "probability")
        op = SymSet(g, symmetric_mask(rng, g, include_zero=True))
        greedy = []
        for x in range(n):
            if all(op.mask[(x - y) % n] for y in greedy):
                greedy.append(x)
        monkeypatch.setattr(extremal, "WITNESS_NODES", n + 1)
        assert largest_packing_witness(g, op) == greedy


def test_packing_witness_on_a_large_cycle():
    # deeper than Python's recursion limit: the search keeps its own stack
    g = make_group([1200], "probability")
    assert largest_packing_witness(g, sym(g, [-1, 0, 1])) == [0, 1]


def _subgroup(group, factors):
    """Sorted element indices of the product of the given coordinate subsets."""
    return np.sort([group.element_index(c) for c in itertools.product(*factors)])


def _product_case(orders, k_factors):
    """K = prod of d_i Z_{n_i} (d_i = k_factors[i][1], or n_i for {0}) with its
    explicit isomorphisms: K = prod Z_{n_i/d_i} by a -> (d_i a_i), and
    G/K = prod Z_{d_i} by x -> (x_i mod d_i)."""
    steps = [f[1] if len(f) > 1 else n for n, f in zip(orders, k_factors)]
    k_group = make_group([n // d for n, d in zip(orders, steps)], "counting")
    q_group = make_group(steps, "counting")
    embed = [tuple(d * a for d, a in zip(steps, c)) for c in k_group.coords]
    project = [tuple(x % d for x, d in zip(c, steps)) for c in make_group(list(orders)).coords]
    return k_group, q_group, embed, project


def _diagonal_case():
    """K = {(a, a)} in Z_3 x Z_3: K = Z_3 by a -> (a, a), G/K = Z_3 by (a, b) -> a - b."""
    z3 = make_group([3], "counting")
    g = make_group([3, 3])
    return z3, z3, [(a, a) for a in range(3)], [((a - b) % 3,) for a, b in g.coords]


@pytest.mark.parametrize("orders, k_factors", [
    ((4, 6), ([0, 2], [0, 3])),
    ((4, 6), ([0, 1, 2, 3], [0, 2, 4])),
    ((6, 6, 2), ([0, 3], [0, 2, 4], [0, 1])),
    ((6, 6, 2), ([0, 2, 4], [0], [0, 1])),
    ((3, 3), None),
])
def test_homomorphism_constants_match_explicit_groups(orders, k_factors):
    g = make_group(list(orders), "counting")
    if k_factors is None:
        k_group, q_group, embed, project = _diagonal_case()
    else:
        k_group, q_group, embed, project = _product_case(orders, k_factors)
    to_g = np.asarray([g.element_index(x) for x in embed])
    to_q = np.asarray([q_group.element_index(y) for y in project])
    assert len(to_g) * q_group.size == g.size

    def restrict(s):
        return SymSet(k_group, s.mask[to_g])

    def push(s):
        mask = np.zeros(q_group.size, dtype=bool)
        mask[to_q[s.indices]] = True
        return SymSet(q_group, mask)

    rng = SplitMix64(sum(orders))
    for _ in range(8):
        op = SymSet(g, symmetric_mask(rng, g, include_zero=rng.chance(3, 4)))
        om = SymSet(g, symmetric_mask(rng, g, include_zero=rng.chance(1, 2)))
        rep = verify_homomorphism_bound(g, to_g, op, om)
        k_direct = two_set_constant(k_group, restrict(op), restrict(om)).value
        q_direct = two_set_constant(q_group, push(op), push(om)).value
        assert rep["subgroup_constant"] == pytest.approx(k_direct, abs=1e-12)
        assert rep["quotient_constant"] == pytest.approx(q_direct, abs=1e-12)
        assert rep["pass"]


def test_homomorphism_subgroup_constant_matches_direct_lp():
    # K = {0,2} x {0,3} in Z_4 x Z_6 is Z_2 x Z_2 via (2a, 3b) -> (a, b)
    g = make_group([4, 6], "counting")
    k2 = make_group([2, 2], "counting")
    k = _subgroup(g, ([0, 2], [0, 3]))
    to_g = [g.element_index((2 * a, 3 * b)) for a, b in itertools.product(range(2), range(2))]
    rng = SplitMix64(5)
    for _ in range(12):
        op = SymSet(g, symmetric_mask(rng, g, include_zero=True))
        om = SymSet(g, symmetric_mask(rng, g, include_zero=rng.chance(1, 2)))
        rep = verify_homomorphism_bound(g, k, op, om)
        direct = two_set_constant(k2, SymSet(k2, op.mask[to_g]), SymSet(k2, om.mask[to_g]))
        assert rep["subgroup_constant"] == pytest.approx(direct.value, abs=1e-12)
        assert rep["pass"]


def test_homomorphism_constants_at_size_565():
    # the second instance of the hom suite's seed 3 at --max-n 1024:
    # n = 565, K = 113 Z_565 = Z_5 by a -> 113 a
    rng = SplitMix64(3)
    hom_instance(rng, 1024)
    inst = hom_instance(rng, 1024)
    g = inst["group"]
    assert g.size == 565 and inst["k"] == [0, 113, 226, 339, 452]
    rep = verify_homomorphism_bound(g, inst["k"], inst["omega_plus"], inst["omega_minus"])
    z5 = make_group([5], "counting")
    direct = two_set_constant(z5, SymSet(z5, inst["omega_plus"].mask[inst["k"]]),
                              SymSet(z5, inst["omega_minus"].mask[inst["k"]]))
    assert rep["subgroup_constant"] == pytest.approx(direct.value, abs=1e-12)
