import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    bad = NoiseModel("tabulated", table=(grid, (11.0 - grid) ** 0.35), floor=1.0)
    with pytest.raises(InvalidNoiseModelError):
        allocate_waterfill(np.ones(2), bad, 5.0)


def test_waterfill_tabulated_tracks_analytic(tabulated, inverse_sqrt):
    w = np.array([1.0, 3.0, 0.7])
    res_tab = allocate_waterfill(w, tabulated, 9.0)
    res_ana = allocate_waterfill(w, inverse_sqrt, 9.0)
    np.testing.assert_allclose(res_tab.r.alloc, res_ana.r.alloc, atol=0.02)


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
    np.testing.assert_allclose(got.r.alloc, ref.r.alloc, rtol=1e-9)
    assert got.lam == pytest.approx(ref.lam, rel=1e-9)
    assert got.residual < 1e-6


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
