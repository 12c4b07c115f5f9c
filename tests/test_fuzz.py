import numpy as np

from pdextremal.fuzz import SUITES, SplitMix64, _random_orbits, symmetric_mask
from pdextremal.groups import make_group


def test_splitmix64_known_answer_vectors():
    # reference outputs of the published algorithm for state 0
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_splitmix64_determinism_and_range():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    seq_a = [a.below(1000) for _ in range(200)]
    seq_b = [b.below(1000) for _ in range(200)]
    assert seq_a == seq_b
    assert all(0 <= x < 1000 for x in seq_a)


def test_suites_pass_on_small_runs():
    for name, runner in SUITES.items():
        rep = runner(8, seed=3)
        assert rep["pass"], (name, rep["failures"])
        assert rep["suite"] == name
        assert len(rep["instances"]) == 8


def test_suites_replay_identically():
    for name, runner in SUITES.items():
        assert runner(5, seed=11) == runner(5, seed=11)


def test_main_suite_reports_tightness():
    rep = SUITES["main"](40, seed=2)
    assert rep["tight_instances"] >= 1


def _orbits_by_loop(rng, group, allowed):
    """The element-by-element reference: one draw per orbit {x, -x}, x != 0, in x order."""
    mask = np.zeros(group.size, dtype=bool)
    for x in range(1, group.size):
        if x <= group.neg[x] and allowed[x] and rng.chance(1, 2):
            mask[x] = mask[group.neg[x]] = True
    return mask


def test_orbit_draws_match_the_loop():
    for orders in ([1], [2], [9], [12], [2, 6], [3, 3, 4]):
        g = make_group(orders)
        for seed in range(5):
            allowed = np.random.default_rng(seed).random(g.size) < 0.7
            for allow in (np.ones(g.size, dtype=bool), allowed):
                a, b = SplitMix64(seed), SplitMix64(seed)
                assert np.array_equal(_random_orbits(a, g, allow), _orbits_by_loop(b, g, allow))
                assert a.state == b.state  # the same number of draws
            a, b = SplitMix64(seed), SplitMix64(seed)
            mask = symmetric_mask(a, g, include_zero=False)
            assert not mask[0] and np.array_equal(mask, _orbits_by_loop(b, g, np.ones(g.size)))
