import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sensealloc import (
    Dataset,
    NoiseModel,
    allocate_adversarial,
    allocate_inverse,
    allocate_inverse_sqrt,
    allocate_quantization,
    allocate_waterfill,
    grid_alloc_search,
    oracle_integer_bits,
    oracle_project_simplex,
    oracle_tabulated_waterfill,
    project_l1_ball,
    project_simplex,
    refine_integer_bits,
    sigma_aggregate,
)
from sensealloc.errors import (
    BudgetTooSmallError,
    DegenerateClassifierError,
    InfeasibleSetError,
    InvalidInputError,
    InvalidNoiseModelError,
    SenseAllocError,
)
from sensealloc import allocation

FAMILIES = ["inverse", "inverse_sqrt", "quantization"]


def test_waterfill_matches_known_solution(inverse_sqrt):
    res = allocate_waterfill(np.array([1.0, 7.0, 1.0]), inverse_sqrt, 9.0)
    np.testing.assert_allclose(res.r.alloc, [1.0, 7.0, 1.0], rtol=1e-10)
    assert res.residual < 1e-9


def test_waterfill_inverse_family(inverse):
    res = allocate_waterfill(np.array([1.0, 8.0]), inverse, 5.0)
    np.testing.assert_allclose(res.r.alloc, [1.0, 4.0], rtol=1e-10)


def test_waterfill_close_to_grid(inverse_sqrt):
    w = np.array([3.0, 4.0, 0.01])
    res = allocate_waterfill(w, inverse_sqrt, 10.0)
    from sensealloc import GridSpec

    grid = grid_alloc_search(w, inverse_sqrt, 10.0,
                             GridSpec(budget=10.0, resolution=1e-3, max_points=1e9))
    gap = sigma_aggregate(w, res.r, inverse_sqrt) - sigma_aggregate(w, grid, inverse_sqrt)
    assert abs(gap) <= 1e-4
    assert gap <= 1e-12  # solver can only improve on the lattice


def test_waterfill_zero_weight_feature_gets_nothing(inverse_sqrt):
    res = allocate_waterfill(np.array([1.0, 0.0, 2.0]), inverse_sqrt, 6.0)
    assert res.r.alloc[1] == 0.0
    np.testing.assert_allclose(res.r.alloc.sum(), 6.0, rtol=1e-12)
    assert set(res.funded) == {0, 2}


def test_waterfill_rejects_degenerate(inverse_sqrt):
    with pytest.raises(DegenerateClassifierError):
        allocate_waterfill(np.zeros(3), inverse_sqrt, 1.0)
    with pytest.raises(InfeasibleSetError):
        allocate_waterfill(np.ones(3), inverse_sqrt, 0.0)


def test_waterfill_rejects_bad_table():
    grid = np.linspace(1.0, 10.0, 30)
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel("tabulated", table=(grid, (11.0 - grid) ** 0.35), floor=1.0)


def test_waterfill_tabulated_tracks_analytic(tabulated, inverse_sqrt):
    w = np.array([1.0, 3.0, 0.7])
    res_tab = allocate_waterfill(w, tabulated, 9.0)
    res_ana = allocate_waterfill(w, inverse_sqrt, 9.0)
    np.testing.assert_allclose(res_tab.r.alloc, res_ana.r.alloc, atol=0.02)


def test_waterfill_tabulated_knot_pinned_known_answer():
    """s has knots at 1, 2, 3, 6 with slopes -1, -0.4, -0.1, so the unit
    marginal jumps from 2 to 0.8 at r = 2.  At R = 4.625, w = [1, 1.5]: the
    level nu = 1.35 falls in feature 0's jump, which stays on its knot, and
    feature 1 solves 2.25 * 0.8 s(r) = 1.35 on its second segment."""
    table = (np.array([1.0, 2.0, 3.0, 6.0]), np.array([2.0, 1.0, 0.6, 0.3]))
    nm = NoiseModel("tabulated", table=table, floor=1.0)
    res = allocate_waterfill(np.array([1.0, 1.5]), nm, 4.625)
    assert res.r.alloc[0] == 2.0
    np.testing.assert_allclose(res.r.alloc, [2.0, 2.625], rtol=1e-12)
    assert abs(res.r.alloc.sum() - 4.625) <= 1e-12 * 4.625
    assert res.residual < 1e-12
    assert list(res.funded) == [0, 1]


def test_waterfill_two_knot_table_is_symmetric():
    nm = NoiseModel("tabulated", table=(np.array([1.0, 4.0]), np.array([2.0, 0.5])), floor=1.0)
    res = allocate_waterfill(np.array([1.0, -1.0]), nm, 5.0)
    np.testing.assert_allclose(res.r.alloc, [2.5, 2.5], rtol=1e-12)
    assert res.residual < 1e-12


def test_waterfill_tabulated_floor_below_table_start(tabulated):
    """sigma is flat below the table start, so a floor there (the default
    1e-9 * R included) is lifted to the start: the solve equals the one with
    floor = start, and d * start >= R is infeasible."""
    unfloored = NoiseModel("tabulated", table=tabulated.table)
    low = NoiseModel("tabulated", table=tabulated.table, floor=1e-4)
    w = np.array([1.0, 2.0, 3.0])
    ref = allocate_waterfill(w, tabulated, 9.0)
    for nm in (unfloored, low):
        assert nm.floor_for(9.0) == 0.01
        res = allocate_waterfill(w, nm, 9.0)
        np.testing.assert_array_equal(res.r.alloc, ref.r.alloc)
        assert (res.lam, res.residual) == (ref.lam, ref.residual)
        np.testing.assert_array_equal(res.funded, ref.funded)
    with pytest.raises(InfeasibleSetError):
        allocate_waterfill(w, unfloored, 0.03)


def test_waterfill_tabulated_never_above_grid(tabulated):
    """On random d=3 instances the exact tabulated water-fill is at least as
    good as the best point of the grid_alloc_search lattice."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        w = rng.uniform(0.05, 4.0, 3) * rng.choice([-1.0, 1.0], 3)
        R = float(rng.uniform(1.0, 12.0))
        res = allocate_waterfill(w, tabulated, R)
        grid = grid_alloc_search(w, tabulated, R)
        gap = sigma_aggregate(w, res.r, tabulated) - sigma_aggregate(w, grid, tabulated)
        assert abs(gap) <= 1e-4
        assert gap <= 1e-12
        assert res.residual < 1e-12


_GEOM = np.geomspace(0.01, 50.0, 400)


@pytest.mark.parametrize("table, floor, w, R", [
    ((_GEOM, 1.0 / np.sqrt(_GEOM)), 0.01, [1.0, 2.0], 120.0),
    ((np.array([1.0, 4.0]), np.array([2.0, 0.5])), 1.0, [1.0, -0.5], 10.0),
    ((_GEOM, 1.0 / np.sqrt(_GEOM)), 50.0, [1.0, 2.0], 130.0),
], ids=["400_knots", "2_knots", "floor_at_cap"])
def test_waterfill_budget_past_every_cap(table, floor, w, R):
    """sigma is flat past the table end, so a budget beyond every cap has
    multiplier 0: lam and the residual are exactly +0 and the leftover is
    spread evenly.  At R = the sum of the caps the residual is +0 or above."""
    nm = NoiseModel("tabulated", table=table, floor=floor)
    cap = float(table[0][-1])
    res = allocate_waterfill(w, nm, R)
    np.testing.assert_allclose(res.r.alloc, [R / 2, R / 2], rtol=1e-15)
    assert (res.lam, res.residual) == (0.0, 0.0)
    assert math.copysign(1.0, res.lam) == math.copysign(1.0, res.residual) == 1.0
    if floor >= cap:
        return
    full = allocate_waterfill(w, nm, 2 * cap)
    np.testing.assert_allclose(full.r.alloc, [cap, cap], rtol=1e-15)
    assert full.residual < 1e-12 and math.copysign(1.0, full.residual) == 1.0


def _check_tabulated_against_reference(w, nm, R):
    """The water-fill spends R with a residual in [+0, 1e-12) and lies
    within 1e-12 R of the bisection reference."""
    res = allocate_waterfill(w, nm, R)
    assert abs(res.r.alloc.sum() - R) <= 1e-12 * R
    assert res.residual < 1e-12 and math.copysign(1.0, res.residual) == 1.0
    np.testing.assert_allclose(res.r.alloc, oracle_tabulated_waterfill(w, nm, R),
                               rtol=0.0, atol=1e-12 * R)
    return res


@pytest.mark.parametrize("d, clustered", [(30, False), (1000, False), (10_000, False),
                                          (10_000, True)],
                         ids=["30", "1000", "10000", "10000_two_clusters"])
def test_tabulated_waterfill_large_d(tabulated, d, clustered):
    """Each feature brings one piece per table segment, but a solve keeps
    only those its level can reach: at d = 10^4 on the 400-knot table it
    stays far below the 640 MiB that sorting every piece's ends takes.  With
    half the weights 1e-3 the features' own levels form two clusters a
    factor 1e6 apart with the level between them, so the bracket must be
    narrowed past two neighbouring own levels, which leave 150-250 pieces a
    feature."""
    w = np.random.default_rng(d).uniform(0.1, 3.0, d)
    if clustered:
        w = np.where(np.arange(d) % 2 == 0, 1.0, 1e-3)
    _check_tabulated_against_reference(w, tabulated, 2.0 * d)
    if d < 10_000:
        return
    tracemalloc.start()
    try:
        allocate_waterfill(w, tabulated, 2.0 * d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


_KNOTS = _GEOM[[100, 250]]


@pytest.mark.parametrize("w, R", [
    ([1.3] * 5, 7.0),  # equal levels: a bracket of width 0
    ([0.4, 1.0, 2.5, 0.9], 4 * _KNOTS[0]),  # R / n on a knot
    ([0.7, 0.7, 0.7], 3 * _KNOTS[1]),  # the level inside that knot's jump
    # the same at another knot, where the solve needs the idle piece that
    # the window keeps below the bracket
    ([0.9923353839511214] * 3, 3 * _GEOM[230]),
    # the slopes of a weight of 1e-150 overflow, so it keeps the floor, and the
    # others share R less those floors
    ([1.0, 1e-150, 2.0, 0.5] + [1e-150] * 9, 60.0),
    ([1.0, 0.0, 2.0, 0.0, 0.5], 5.0),  # zero weights
    ([0.3, 2.0, 1.1], 150.0),  # R / n at the cap
    ([0.3, 2.0, 1.1], 150.0 - 1e-9),  # just below it
    ([0.3, 2.0, 1.1], 149.0),
], ids=["equal", "knot", "jump", "jump_idle_piece", "negligible", "zeros", "at_cap", "below_cap", "near_cap"])
def test_tabulated_waterfill_bracket_edges(tabulated, w, R):
    res = _check_tabulated_against_reference(w, tabulated, R)
    if len(set(w)) == 1:
        assert np.ptp(res.r.alloc) == 0.0
    if 0.0 in w:
        assert np.all(res.r.alloc[np.array(w) == 0.0] == 0.0)


def test_tabulated_waterfill_floor_inside_a_segment(tabulated):
    nm = NoiseModel("tabulated", table=tabulated.table, floor=0.5 * (_GEOM[40] + _GEOM[41]))
    for R in (0.5, 3.0, 40.0):
        res = _check_tabulated_against_reference([2.0, 0.05, 1.0, 0.3], nm, R)
        assert res.r.alloc.min() >= nm.floor_for(R)


@pytest.mark.parametrize("floor", [0.01, 0.5 * (_GEOM[40] + _GEOM[41])],
                         ids=["table-start", "inside-a-segment"])
def test_tabulated_waterfill_a_hair_above_the_floors(tabulated, floor):
    """R an ulp or two above n floor, so that R / n rounds to the floor: at
    the table start the left side of sigma is flat, and taking the bracket's
    high end from it once spent every piece, leaving lam = 0 and a residual
    of 3376 here."""
    nm = NoiseModel("tabulated", table=tabulated.table, floor=floor)
    w = [-1.0, -7.0, 1.0]
    ref = allocate_waterfill(w, nm, 3 * floor * (1 + 1e-9))
    for R in (np.nextafter(3 * floor, 1.0), 3 * floor * (1 + 1e-15)):
        res = allocate_waterfill(w, nm, R)
        np.testing.assert_allclose(res.r.alloc, floor, rtol=1e-12)
        assert res.lam == pytest.approx(ref.lam, rel=1e-8)
        assert 0 <= res.residual < 1e-12 * res.lam


def test_tabulated_waterfill_extreme_tables_warn_nothing():
    """On a table this flat no weight keeps finite slopes, so R is split
    evenly; on a steep one a weight of 1e-148 keeps them, although its level
    ratio theta / u^2 passes the float range, and it keeps the floor."""
    flat = NoiseModel("tabulated", table=(np.array([1.0, 2.0, 4.0]),
                                          np.array([3e-150, 2e-150, 1.5e-150])))
    steep = NoiseModel("tabulated", table=(np.array([1.0, 2.0, 3.0]), np.array([1e9, 1e3, 1.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        even = allocate_waterfill([1.0, 2.0, 0.5], flat, 6.0)
        tiny = allocate_waterfill([1.0, 1e-148], steep, 3.5)
    np.testing.assert_array_equal(even.r.alloc, [2.0, 2.0, 2.0])
    np.testing.assert_allclose(tiny.r.alloc, [2.5, 1.0], rtol=1e-15)
    assert tiny.residual < 1e-12 * tiny.lam


def test_tabulated_waterfill_on_a_plateau(tabulated):
    """Where every feature sits on a knot or at the cap, the budget sum is
    flat in the level, and the float dust of the sum must not push a feature
    across its knot: equal weights with R/n on a knot, and unequal ones at
    R = n cap, keep a residual below 1e-12 and r within 1e-14 R of the knot."""
    gen = np.random.default_rng(5)
    for k in range(3, 399, 11):
        for n in (2, 3, 5, 7):
            knot, u = _GEOM[k], gen.uniform(0.1, 3.0)
            res = allocate_waterfill(np.full(n, u), tabulated, n * knot)
            assert res.residual < 1e-12
            np.testing.assert_allclose(res.r.alloc, knot, rtol=0.0, atol=1e-14 * n * knot)
            w = gen.uniform(0.1, 3.0, n)
            res = allocate_waterfill(w, tabulated, n * 50.0)
            assert res.residual < 1e-12
            np.testing.assert_allclose(res.r.alloc, 50.0, rtol=0.0, atol=1e-14 * n * 50.0)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=1, max_size=6),
       st.floats(min_value=0.0, max_value=1.0))
@example(segments=6, seed=2, wlist=[1.0, 1.0, 1.0], share=1.0)  # R/n a float below the cap
@example(segments=7, seed=1, wlist=[1.0, 2.0, 2.0], share=1.0)
@settings(max_examples=150, deadline=None)
def test_tabulated_waterfill_matches_reference_on_random_tables(segments, seed, wlist, share):
    """Convex tables of 2-8 knots, the floor anywhere below the cap and any
    budget up to the sum of the caps."""
    gen = np.random.default_rng(seed)
    knots = np.cumsum(gen.uniform(0.05, 2.0, segments + 1))
    slopes = -np.cumsum(gen.uniform(0.01, 0.5, segments))[::-1]  # strictly increasing
    sigma = -slopes[0] * (knots[-1] - knots[0]) + gen.uniform(0.01, 1.0) + np.concatenate(
        ([0.0], np.cumsum(slopes * np.diff(knots))))
    floor = float(gen.uniform(knots[0], knots[-1]))
    nm = NoiseModel("tabulated", table=(knots, sigma), floor=floor)
    n = len(wlist)
    R = n * floor + max(share, 1e-3) * n * (knots[-1] - floor)
    _check_tabulated_against_reference(wlist, nm, R)


def test_closed_form_inverse_sqrt_examples():
    np.testing.assert_allclose(allocate_inverse_sqrt(np.array([1.0, 7.0, 1.0]), 9.0).alloc,
                               [1.0, 7.0, 1.0])
    np.testing.assert_allclose(allocate_inverse_sqrt(np.array([1.0, -1.0]), 2.0).alloc,
                               [1.0, 1.0])
    with pytest.raises(DegenerateClassifierError):
        allocate_inverse_sqrt(np.zeros(2), 1.0)


def test_closed_form_inverse_examples():
    np.testing.assert_allclose(allocate_inverse(np.array([1.0, 8.0]), 5.0).alloc, [1.0, 4.0])
    np.testing.assert_allclose(allocate_inverse(np.full(4, 2.5), 6.0).alloc, np.full(4, 1.5))


@given(st.floats(min_value=-4.0, max_value=4.0).filter(lambda c: abs(c) > 1e-3))
@settings(max_examples=50, deadline=None)
def test_closed_form_scale_invariance(c):
    w = np.array([0.5, -2.0, 1.5])
    base = allocate_inverse_sqrt(w, 3.0).alloc
    scaled = allocate_inverse_sqrt(c * w, 3.0).alloc
    np.testing.assert_allclose(base, scaled, rtol=1e-12)


@given(
    st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=2, max_size=4),
    st.sampled_from(FAMILIES),
    st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=80, deadline=None)
def test_budget_saturation(wlist, family, R):
    res = allocate_waterfill(np.array(wlist), NoiseModel(family), R)
    assert abs(res.r.alloc.sum() - R) <= 1e-8 * R


@given(st.sampled_from(FAMILIES))
@settings(max_examples=12, deadline=None)
def test_equal_weights_get_equal_shares(family):
    res = allocate_waterfill(np.array([1.3, 1.3, 1.3]), NoiseModel(family), 4.0)
    assert np.ptp(res.r.alloc) <= 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_more_budget_never_hurts_a_feature(family):
    nm = NoiseModel(family)
    w = np.array([0.4, 1.9, 0.9])
    r1 = allocate_waterfill(w, nm, 5.0).r.alloc
    r2 = allocate_waterfill(w, nm, 6.5).r.alloc
    assert np.all(r2 >= r1 - 1e-9)


@pytest.mark.parametrize("family", FAMILIES + ["tabulated"])
@pytest.mark.parametrize("wlist", [[0.8, -1.5, 2.2], [1.0, 0.0, 0.7]])
def test_vector_scale_matches_rescaled_weights(family, wlist, tabulated):
    """A per-feature scale c acts on the objective exactly as weights w*c."""
    extra = {"table": tabulated.table, "floor": 0.01} if family == "tabulated" else {}
    c = np.array([1.0, 2.0, 0.5])
    w = np.array(wlist)
    got = allocate_waterfill(w, NoiseModel(family, scale=c, **extra), 6.0)
    ref = allocate_waterfill(w * c, NoiseModel(family, **extra), 6.0)
    np.testing.assert_array_equal(got.r.alloc, ref.r.alloc)
    assert got.lam == ref.lam
    assert got.residual == ref.residual
    assert got.residual < 1e-6
    np.testing.assert_array_equal(got.funded, ref.funded)


def test_closed_forms_agree_with_waterfill():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(2, 5)
        w = rng.uniform(0.2, 3.0, d) * rng.choice([-1, 1], d)
        R = float(rng.uniform(0.5, 12.0))
        ref = allocate_inverse_sqrt(w, R).alloc
        out = allocate_waterfill(w, NoiseModel("inverse_sqrt"), R).r.alloc
        np.testing.assert_allclose(out, ref, rtol=1e-8)
        ref2 = allocate_inverse(w, R).alloc
        out2 = allocate_waterfill(w, NoiseModel("inverse"), R).r.alloc
        np.testing.assert_allclose(out2, ref2, rtol=1e-8)


def _sorted_level(top, c, target):
    """The level from the signed-slope sort kernel on the same pieces: a
    reference outside the Newton passes."""
    return allocation._threshold(top, target, c)[0]


@given(st.sampled_from(FAMILIES), st.integers(min_value=1, max_value=10_000),
       st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.0, max_value=12.0),
       st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.999)),  # 0: the default
       st.floats(min_value=0.5, max_value=5.0))
@example(family="inverse", d=10_000, seed=1, decades=12.0, share=0.999, per_feature=2.0)
# an even split of the float dust left the 1e-7 weight a residual of 1.1e-12
@example(family="inverse_sqrt", d=7, seed=7, decades=7.0, share=0.0, per_feature=1.0)
@example(family="quantization", d=10_000, seed=2, decades=12.0, share=0.9, per_feature=3.0)
@settings(max_examples=150, deadline=None)
def test_closed_form_level_matches_the_sort(family, d, seed, decades, share, per_feature):
    """The Newton passes find the level that the sort finds, for weights
    spread over up to 12 decades and floors from the default up to 0.999 R/d,
    which leave features unfunded and take several passes: r within 1e-12 R
    of the sort's, the same funded set, sum R, a residual in
    [+0, 1e-12 max(1, lam)), and permuting the weights permutes r."""
    gen = np.random.default_rng(seed)
    w = 10.0 ** gen.uniform(-decades, 0.0, d) * gen.choice([-1.0, 1.0], d)
    R = per_feature * d
    nm = NoiseModel(family, floor=share * R / d if share > 0 else None)
    res = allocate_waterfill(w, nm, R)
    with mock.patch.object(allocation, "_newton_level", _sorted_level):
        ref = allocate_waterfill(w, nm, R)
    np.testing.assert_allclose(res.r.alloc, ref.r.alloc, rtol=0, atol=1e-12 * R)
    np.testing.assert_array_equal(res.funded, ref.funded)
    assert abs(res.r.alloc.sum() - R) <= 1e-12 * R
    assert 0 <= res.residual < 1e-12 * max(1.0, res.lam)
    assert math.copysign(1.0, res.residual) == 1.0
    perm = gen.permutation(d)
    got = allocate_waterfill(w[perm], nm, R)
    np.testing.assert_allclose(got.r.alloc, res.r.alloc[perm], rtol=0, atol=1e-12 * R)


@given(st.sampled_from(FAMILIES), st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=-3.0, max_value=1.0), st.floats(min_value=-12.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(family="inverse", log_d=3.87, log_floor=-2.6, log_excess=-8.0, seed=2394)
@example(family="inverse_sqrt", log_d=3.8, log_floor=-1.5, log_excess=-6.1, seed=1783)
@settings(max_examples=150, deadline=None)
def test_waterfill_near_the_floor_keeps_its_residual(family, log_d, log_floor, log_excess,
                                                     seed):
    """Budgets just above n floor, d log-uniform up to 10^4, weights over 12
    decades: the float dust of summing the n floors (about eps R log n) once
    all went to the few funded features, whose r lies near the floor, and
    left a residual up to 8.9e-12 max(1, lam)."""
    d = int(round(10.0**log_d))
    floor = 10.0**log_floor
    gen = np.random.default_rng(seed)
    w = 10.0 ** gen.uniform(-12.0, 0.0, d) * gen.choice([-1.0, 1.0], d)
    R = d * floor * (1 + 10.0**log_excess)
    res = allocate_waterfill(w, NoiseModel(family, floor=floor), R)
    assert 0 <= res.residual < 1e-12 * max(1.0, res.lam)


class TestQuantization:
    def test_symmetric(self):
        res = allocate_quantization(np.array([1.0, 1.0]), 4.0)
        np.testing.assert_allclose(res.r.alloc, [2.0, 2.0])

    def test_known_split(self):
        res = allocate_quantization(np.array([1.0, 4.0]), 6.0)
        assert res.lam == pytest.approx(-1.0)
        np.testing.assert_allclose(res.r.alloc, [2.0, 4.0])
        assert set(res.funded) == {0, 1}

    def test_floor_binding(self):
        res = allocate_quantization(np.array([1.0, 1.0]), 2.0)
        np.testing.assert_allclose(res.r.alloc, [1.0, 1.0])

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmallError):
            allocate_quantization(np.ones(3), 2.0)

    @pytest.mark.parametrize("R", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_budget_rejected(self, R):
        # the same error as allocate_waterfill; a NaN budget once reached an
        # empty index and raised numpy's IndexError
        with pytest.raises(InfeasibleSetError):
            allocate_quantization([1.0, 2.0], R)

    def test_no_features_rejected(self):
        # an empty allocation spends none of R, as project_simplex([]) says
        with pytest.raises(InfeasibleSetError):
            allocate_quantization([], 3.0)

    def test_zero_weight_excluded(self):
        res = allocate_quantization(np.array([2.0, 0.0]), 5.0)
        assert res.r.alloc[1] == 1.0
        assert list(res.funded) == [0]
        assert res.r.alloc.sum() == pytest.approx(5.0)

    def test_unfunded_small_weight(self):
        # tiny weight drops to the one-bit floor once the threshold exceeds its log
        res = allocate_quantization(np.array([1e-6, 4.0]), 4.0)
        assert res.r.alloc[0] == 1.0
        assert list(res.funded) == [1]

    def test_budget_equal_to_dimension_gives_one_bit_each(self):
        # (prefix - R + d)/k rounded away from the top log, so no k passed
        w = np.array([2.34231292464806, 1.2298497246347444, 2.7043797679276196,
                      0.8380860036744426, 3.7713467865006662])
        res = allocate_quantization(w, 5.0)
        np.testing.assert_array_equal(res.r.alloc, np.ones(5))

    def test_random_instances_spend_budget_with_one_bit_floor(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            d = int(rng.integers(2, 6))
            w = rng.uniform(0.05, 4.0, d) * rng.choice([-1.0, 1.0], d)
            R = float(d + rng.choice([0.0, rng.uniform(0.0, 3.0 * d)]))
            res = allocate_quantization(w, R)
            assert abs(res.r.alloc.sum() - R) <= 1e-12 * R
            assert np.all(res.r.alloc >= 1.0)


class TestIntegerRefinement:
    def test_integral_input_unchanged(self):
        ar = allocate_quantization(np.array([1.0, 4.0]), 6.0)
        out = refine_integer_bits(ar, np.array([1.0, 4.0]), 6.0)
        np.testing.assert_allclose(out.alloc, [2.0, 4.0])

    def test_fractional_choice(self):
        # relaxed (1.5, 2.5): candidates (1,3) and (2,2) under sum <= 4
        from sensealloc.allocation import AllocationResult
        from sensealloc import ResourceVector

        ar = AllocationResult(ResourceVector(np.array([1.5, 2.5]), 4.0), 0.0,
                              np.array([0, 1]), 0.0)
        w = np.array([1.0, 1.0])
        out = refine_integer_bits(ar, w, 4.0)
        vals = {
            tuple(c): float(np.sum(w**2 * np.exp2(-2.0 * np.asarray(c, dtype=float))))
            for c in [(1, 3), (2, 2)]
        }
        best = min(vals, key=lambda k: (vals[k], k))
        np.testing.assert_allclose(out.alloc, best)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        R = int(rng.integers(d + 1, 9))
        w = rng.uniform(0.3, 6.0, d)
        out = refine_integer_bits(allocate_quantization(w, float(R)), w, float(R))
        ref = oracle_integer_bits(w, R)
        val_out = float(np.sum(w**2 * np.exp2(-2.0 * out.alloc)))
        val_ref = float(np.sum(w**2 * np.exp2(-2.0 * ref)))
        assert val_out == pytest.approx(val_ref, rel=1e-12)

    def test_matches_exhaustive_oracle_on_many_instances(self):
        """Integer and fractional budgets, zero weights and equal weights."""
        rng = np.random.default_rng(11)
        for k in range(2000):
            d = int(rng.integers(2, 5))
            w = rng.uniform(0.05, 6.0, d) * rng.choice([-1.0, 1.0], d)
            if k % 5 == 1:
                w[rng.integers(d)] = 0.0
            elif k % 5 == 2:
                w[:] = w[0]
            R = float(rng.integers(d, 2 * d + 2))
            if k % 2:
                R += float(rng.uniform(0.0, 1.0))
            out = refine_integer_bits(allocate_quantization(w, R), w, R).alloc
            ref = oracle_integer_bits(w, R)
            val_out = float(np.sum(w**2 * np.exp2(-2.0 * out)))
            val_ref = float(np.sum(w**2 * np.exp2(-2.0 * ref)))
            assert np.all(out == np.round(out)) and np.all(out >= 1.0) and out.sum() <= R
            assert val_out == pytest.approx(val_ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("R", [np.nan, np.inf, -1.0])
    def test_bad_budget_rejected(self, R):
        ar = allocate_quantization(np.array([1.0, 2.0]), 5.0)
        with pytest.raises(SenseAllocError):
            refine_integer_bits(ar, np.array([1.0, 2.0]), R)

    def test_weight_length_mismatch_rejected(self):
        ar = allocate_quantization([1.0, 2.0], 4.0)
        with pytest.raises(InvalidInputError, match="3 weights"):
            refine_integer_bits(ar, [1.0, 2.0, 3.0], 4.0)

    @pytest.mark.parametrize("d", [20, 200, 10_000])
    def test_large_dimension_spends_floor_budget_with_no_improving_exchange(self, d):
        """At d = 20, R = 40 the old +-1 enumeration would have visited 3^20
        points.  No bit can move from one feature to another and lower
        sum w_i^2 4^(-r_i)."""
        rng = np.random.default_rng(d)
        w = rng.uniform(0.05, 4.0, d)
        for R in (2.0 * d, 2.0 * d + 0.5, 3.7 * d):
            bits = refine_integer_bits(allocate_quantization(w, R), w, R).alloc
            assert bits.sum() == math.floor(R) and np.all(bits >= 1.0)
            assert np.all(bits == np.round(bits))
            term = w**2 * np.exp2(-2.0 * bits)
            # moving a bit from i to j lowers the objective iff gain_j > loss_i;
            # gain_i < loss_i, so taking the max over every j is exact
            gain, loss = 0.75 * term, 3.0 * term
            assert gain.max() <= loss[bits > 1.0].min() * (1 + 1e-12)


class TestAdversarial:
    def test_single_feature_takes_all(self, inverse_sqrt):
        res = allocate_adversarial(np.array([0.0, 2.0, 0.0]), inverse_sqrt, 5.0)
        np.testing.assert_allclose(res.r.alloc, [0.0, 5.0, 0.0])

    def test_weight_proportional_form(self, inverse_sqrt):
        res = allocate_adversarial(np.array([3.0, 1.0]), inverse_sqrt, 4.0)
        np.testing.assert_allclose(res.r.alloc, [3.0, 1.0], rtol=1e-10)

    def test_stationarity_residual(self, inverse):
        w = np.array([1.0, 2.0, 4.0])
        res = allocate_adversarial(w, inverse, 7.0)
        r = res.r.alloc
        sig = inverse.sigma(r)
        dsig = -1.0 / r**2  # d sigma/dr for sigma = 1/r
        vals = np.abs(w**2 * sig * dsig)
        assert np.ptp(vals) <= 1e-6 * vals.mean()


class TestSimplexProjection:
    def test_uniform_excess(self):
        out = project_simplex(np.array([0.5, 0.9]), 1.0)
        np.testing.assert_allclose(out.alloc, [0.3, 0.7])

    def test_feasible_point_unchanged(self):
        v = np.array([0.25, 0.75])
        out = project_simplex(v, 1.0)
        assert np.array_equal(out.alloc, v)

    def test_floor_respected(self):
        out = project_simplex(np.array([-5.0, 10.0, 0.2]), 3.0, floor=0.1)
        assert np.all(out.alloc >= 0.1 - 1e-15)
        assert out.alloc.sum() == pytest.approx(3.0)

    def test_empty_simplex(self):
        with pytest.raises(InfeasibleSetError):
            project_simplex(np.ones(4), 1.0, floor=0.5)

    def test_empty_point_rejected(self):
        # no coordinates sum to R > 0 (numpy's IndexError came from the kernel)
        with pytest.raises(InfeasibleSetError):
            project_simplex([], 1.0)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            v = rng.normal(0, 3.0, d)
            floor = float(rng.choice([0.0, 0.05]))
            got = project_simplex(v, 2.0, floor).alloc
            ref = oracle_project_simplex(v, 2.0, floor)
            np.testing.assert_allclose(got, ref, atol=1e-9)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=6),
        st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonexpansive(self, a, b):
        d = min(len(a), len(b))
        u = np.array(a[:d])
        v = np.array(b[:d])
        pu = project_simplex(u, 2.0).alloc
        pv = project_simplex(v, 2.0).alloc
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [
    lambda w: allocate_waterfill(w, NoiseModel("inverse_sqrt"), 6.0),
    lambda w: allocate_inverse_sqrt(w, 6.0),
    lambda w: allocate_inverse(w, 6.0),
    lambda w: allocate_quantization(w, 6.0),
], ids=["waterfill", "inverse_sqrt", "inverse", "quantization"])
def test_non_finite_weights_rejected(solve, bad):
    with pytest.raises(InvalidInputError):
        solve([1.0, bad, 2.0])


@pytest.mark.parametrize("R", [np.nan, np.inf])
def test_waterfill_rejects_bad_budget(inverse_sqrt, R):
    with pytest.raises(InfeasibleSetError):
        allocate_waterfill([1.0, 2.0], inverse_sqrt, R)


@pytest.mark.parametrize("family", FAMILIES + ["tabulated"])
def test_waterfill_keeps_a_negligible_weight_at_the_floor(family, tabulated):
    """A nonzero weight whose square underflows still needs the floor, or the
    allocation is infeasible for its own weights."""
    nm = tabulated if family == "tabulated" else NoiseModel(family)
    w = np.array([1e-200, 1.0])
    res = allocate_waterfill(w, nm, 3.0)
    assert res.r.alloc[0] == nm.floor_for(3.0)
    assert sigma_aggregate(w, res.r, nm) > 0


@pytest.mark.parametrize("family, power", [("inverse", 2.0 / 3.0), ("inverse_sqrt", 1.0)])
@pytest.mark.parametrize("R", [3e299, 1e300, 7.7e300])
def test_waterfill_huge_budget_warns_nothing(family, power, R):
    """At R near 1e300 the floor 1e291 lies past the float range of a 1e-200
    weight's piece, and r^2 or r^3 overflow: those weights keep exactly the
    floor, the others split the rest as the closed form does, and nothing
    warns."""
    nm, w = NoiseModel(family), np.array([1.0, 2.0, 3.0, 1e-200, 5e-201])
    floor = nm.floor_for(R)
    with warnings.catch_warnings(), mock.patch.object(
            allocation, "_newton_level", wraps=allocation._newton_level) as newton:
        warnings.simplefilter("error")
        res = allocate_waterfill(w, nm, R)
    newton.assert_called_once()
    np.testing.assert_array_equal(res.r.alloc[3:], floor)
    share = w[:3] ** power / np.sum(w[:3] ** power)
    np.testing.assert_allclose(res.r.alloc[:3], (R - 2 * floor) * share, rtol=1e-12)
    assert list(res.funded) == [0, 1, 2]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k, c", [(1000, 1e10), (-1000, 1e-100)])
def test_waterfill_solves_scaled_weights_past_the_float_range(family, k, c):
    """w*c may overflow or underflow: the allocation of w*2^k is that of w,
    and lam and the residual are 2^k times theirs (inf or 0 past the range)."""
    nm = NoiseModel(family, scale=c)
    w = np.array([0.8, -1.5, 2.2])
    ref = allocate_waterfill(w, nm, 6.0)
    with np.errstate(over="ignore", under="ignore"):
        got = allocate_waterfill(np.ldexp(w, k), nm, 6.0)
        lam, residual = np.ldexp([ref.lam, ref.residual], k)
    np.testing.assert_array_equal(got.r.alloc, ref.r.alloc)
    assert got.lam == lam and got.residual == residual


def test_waterfill_rejects_scale_length_mismatch():
    with pytest.raises(InvalidNoiseModelError):
        allocate_waterfill([1.0, 2.0], NoiseModel("inverse", scale=[1.0, 2.0, 3.0]), 3.0)


class TestProjectionRobustness:
    def test_cancellation_keeps_largest_entry(self):
        # the cumulative sum cancels to 0 and hides every support entry
        out = project_simplex([1e300, -1e300, 2.0], 3.0)
        np.testing.assert_array_equal(out.alloc, [3.0, 0.0, 0.0])

    @pytest.mark.parametrize("v", [[1.0, np.nan, 2.0], [np.inf, 0.0], [-np.inf, 1.0]])
    def test_non_finite_point_rejected(self, v):
        with pytest.raises(InfeasibleSetError):
            project_simplex(v, 3.0)

    @pytest.mark.parametrize("R", [np.nan, np.inf])
    def test_non_finite_budget_rejected(self, R):
        with pytest.raises(InfeasibleSetError):
            project_simplex([1.0, 2.0], R)


_GRID = np.geomspace(0.01, 50.0, 400)
_MODELS = {family: NoiseModel(family) for family in FAMILIES}
_MODELS["tabulated"] = NoiseModel("tabulated", table=(_GRID, 1.0 / np.sqrt(_GRID)), floor=0.01)
_weights = st.lists(st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) >= 0.1),
                    min_size=2, max_size=3).map(np.array)
_exponents = st.floats(min_value=-150.0, max_value=150.0)


def _check_scale_invariance(family, w, exponent):
    """w*c gets the allocation of w and c times its marginal value."""
    c = 10.0**exponent
    R = 6.0
    base = allocate_waterfill(w, _MODELS[family], R)
    got = allocate_waterfill(w * c, _MODELS[family], R)
    np.testing.assert_allclose(got.r.alloc, base.r.alloc, rtol=0, atol=1e-12 * R)
    assert got.lam == pytest.approx(base.lam * c, rel=1e-12)


def _check_permutation_equivariance(family, w, perm):
    R = 6.0
    base = allocate_waterfill(w, _MODELS[family], R)
    got = allocate_waterfill(w[perm], _MODELS[family], R)
    np.testing.assert_allclose(got.r.alloc, base.r.alloc[perm], rtol=0, atol=1e-12 * R)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("exponent", [-160, -150, 150, 160])
def test_waterfill_extreme_weight_scales(family, exponent):
    # beyond 1e+-154 the squared weights underflow or overflow
    _check_scale_invariance(family, np.array([1.0, 7.0, 1.0]), exponent)


@given(st.sampled_from(FAMILIES), _weights, _exponents)
@settings(max_examples=150, deadline=None)
def test_waterfill_scale_invariance(family, w, exponent):
    _check_scale_invariance(family, w, exponent)


@given(st.sampled_from(FAMILIES), _weights, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_waterfill_permutation_equivariance(family, w, rnd):
    _check_permutation_equivariance(family, w, np.array(rnd.sample(range(w.size), w.size)))


@given(_weights, _exponents)
@settings(max_examples=8, deadline=None)
def test_tabulated_waterfill_scale_invariance(w, exponent):
    _check_scale_invariance("tabulated", w, exponent)


@given(_weights, st.randoms(use_true_random=False))
@settings(max_examples=8, deadline=None)
def test_tabulated_waterfill_permutation_equivariance(w, rnd):
    _check_permutation_equivariance("tabulated", w, np.array(rnd.sample(range(w.size), w.size)))


_PROJECTIONS = {
    "simplex": lambda v, R: project_simplex(v, R).alloc,
    "l1": project_l1_ball,
}
_points = st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=6).map(np.array)


@given(st.sampled_from(sorted(_PROJECTIONS)), _points, st.floats(min_value=0.1, max_value=10.0),
       _exponents)
@settings(max_examples=300, deadline=None)
def test_projection_scale_equivariance_and_idempotence(kind, v, R, exponent):
    """project(c v, c R) = c project(v, R), projecting twice changes nothing,
    and the result lies in the ball, for c = 1e-150 ... 1e150."""
    project = _PROJECTIONS[kind]
    c = 10.0**exponent
    tol = 1e-12 * R * c
    got = project(v * c, R * c)
    np.testing.assert_allclose(got, project(v, R) * c, rtol=0, atol=tol)
    np.testing.assert_allclose(project(got, R * c), got, rtol=0, atol=tol)
    assert np.abs(got).sum() <= R * c * (1 + 1e-12)


_ENTRY_POINTS = {
    "project_simplex": lambda v: project_simplex(v, 3.0),
    "project_l1_ball": lambda v: project_l1_ball(v, 1.0),
    "allocate_waterfill": lambda v: allocate_waterfill(v, NoiseModel("inverse_sqrt"), 3.0),
    "NoiseModel.scale": lambda v: NoiseModel("inverse", scale=np.abs(v) + 1.0),
    "Dataset.features": lambda v: Dataset(v.reshape(-1, 1), np.ones(v.size)),
    "Dataset.labels": lambda v: Dataset(np.ones((v.size, 1)), v),
}


@given(st.sampled_from(sorted(_ENTRY_POINTS)),
       st.lists(st.floats(min_value=0.5, max_value=5.0), min_size=1, max_size=4),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(min_value=0))
@settings(max_examples=100, deadline=None)
def test_non_finite_entries_rejected(entry, values, bad, pos):
    v = np.array(values)
    v[pos % v.size] = bad
    with pytest.raises(SenseAllocError):
        _ENTRY_POINTS[entry](v)
