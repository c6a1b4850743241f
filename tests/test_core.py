import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sensealloc
from sensealloc import (
    Dataset,
    LinearClassifier,
    NoiseModel,
    OnlineConfig,
    ResourceVector,
    RngConfig,
    SampleOracle,
    generate_synthetic,
    inject_noise,
    noise_variance,
    ridge_step,
    robust_hinge_objective,
    run_unknown,
    sigma_aggregate,
    solve_square_alternating,
    square_loss_total,
    synthetic_label,
)
from sensealloc.errors import (
    InfeasibleAllocationError,
    InvalidInputError,
    InvalidNoiseModelError,
)


@pytest.mark.parametrize("d", [0, -1])
def test_uniform_allocation_needs_a_feature(d):
    with pytest.raises(InvalidInputError, match="at least one feature"):
        ResourceVector.uniform(3.0, d)


def test_sigma_aggregate_zero_classifier(inverse_sqrt):
    r = ResourceVector(np.array([1.0, 1.0]), 2.0)
    assert sigma_aggregate(np.zeros(2), r, inverse_sqrt) == 0.0


def test_sigma_aggregate_direct_values(inverse_sqrt):
    r = ResourceVector(np.array([1.0, 1.0]), 2.0)
    assert sigma_aggregate(np.array([1.0, 1.0]), r, inverse_sqrt) == pytest.approx(math.sqrt(2))
    r2 = ResourceVector(np.array([1.0, 7.0, 1.0]), 9.0)
    assert sigma_aggregate(np.array([1.0, 7.0, 1.0]), r2, inverse_sqrt) == pytest.approx(3.0)


def test_sigma_aggregate_below_floor_rejected(inverse_sqrt):
    r = ResourceVector(np.array([0.0, 2.0]), 2.0)
    with pytest.raises(InfeasibleAllocationError):
        sigma_aggregate(np.array([1.0, 1.0]), r, inverse_sqrt)
    # zero weight on the starved feature is fine
    assert sigma_aggregate(np.array([0.0, 1.0]), r, inverse_sqrt) > 0


@given(st.floats(min_value=0.01, max_value=50.0), st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_sigma_positive_homogeneity(weight, idx):
    nm = NoiseModel("inverse_sqrt")
    r = ResourceVector(np.array([0.5, 1.0, 1.5]), 3.0)
    w = np.zeros(3)
    w[idx] = weight
    one = sigma_aggregate(w, r, nm)
    two = sigma_aggregate(2.0 * w, r, nm)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


@pytest.mark.parametrize("family", ["inverse", "inverse_sqrt", "quantization"])
def test_families_decreasing_and_convex(family):
    nm = NoiseModel(family)
    grid = np.linspace(0.1, 20.0, 200)
    vals = nm.sigma(grid)
    assert np.all(np.diff(vals) < 0)
    mids = nm.sigma((grid[:-2] + grid[2:]) / 2.0)
    assert np.all(mids <= (vals[:-2] + vals[2:]) / 2.0 + 1e-12)


def test_tabulated_validate(tabulated):
    """Constructing the model is the check: a bad table never constructs."""
    NoiseModel("tabulated", table=tabulated.table, floor=0.01)


def test_concave_table_rejected():
    grid = np.linspace(1.0, 10.0, 50)
    with pytest.raises(InvalidNoiseModelError, match="knot"):
        # decreasing but concave, and so is sigma^2
        NoiseModel("tabulated", table=(grid, (11.0 - grid) ** 0.35), floor=1.0)


def test_sigma_aggregate_vector_scale_with_zero_weight():
    nm = NoiseModel("inverse_sqrt", scale=[1.0, 2.0, 0.5])
    r = ResourceVector(np.array([1.0, 2.0, 4.0]), 7.0)
    got = sigma_aggregate(np.array([1.0, 0.0, 0.7]), r, nm)
    assert got == pytest.approx(math.sqrt(1.0 + 0.7**2 * 0.5**2 / 4.0), rel=1e-12)


def test_tabulated_vector_scale_validates(tabulated):
    NoiseModel("tabulated", scale=[1.0, 2.0, 0.5], table=tabulated.table, floor=0.01)


_DS3 = generate_synthetic(3.0, 20, rng=RngConfig(1))
_R3 = ResourceVector.uniform(6.0, 3)
_SIGMA_USERS = {
    "noise_variance": lambda nm: noise_variance([1.0, -2.0, 0.5], _R3, nm),
    "inject_noise": lambda nm: inject_noise(_DS3, _R3, nm),
    "ridge_step": lambda nm: ridge_step(_DS3, _R3, nm),
    "run_unknown": lambda nm: run_unknown(
        SampleOracle(lambda gen: (gen.normal(size=3), 1.0), nm, budget=6.0, dim=3),
        OnlineConfig(weight_cap=2.0, budget=6.0, horizon=3)),
    "solve_square_alternating": lambda nm: solve_square_alternating(_DS3, nm, 6.0),
}


@pytest.mark.parametrize("entry", sorted(_SIGMA_USERS))
def test_scale_length_checked_wherever_sigma_is_evaluated(entry):
    """A vector scale needs one constant per feature; one of length 1 or 3
    serves 3 features, one of length 2 is a package error, not a broadcast
    failure."""
    for scale in ([2.0], [1.0, 2.0, 0.5]):
        _SIGMA_USERS[entry](NoiseModel("inverse_sqrt", scale=scale))
    with pytest.raises(InvalidNoiseModelError, match="2 scale constants for 3 features"):
        _SIGMA_USERS[entry](NoiseModel("inverse_sqrt", scale=[1.0, 2.0]))


@pytest.mark.parametrize("family", ["inverse", "inverse_sqrt", "quantization", "tabulated"])
@pytest.mark.parametrize("floor", [None, 0.3])
def test_sigma_at_is_sigma_at_the_floored_allocation(family, floor, tabulated):
    table = tabulated.table if family == "tabulated" else None
    models = [NoiseModel(family, scale=scale, floor=floor, table=table)
              for scale in (1.0, [0.5, 2.0, 1.3])]
    for nm in models + [tabulated]:
        for alloc in ([0.0, 1e-12, 5.0], [2.0, 2.0, 2.0], [0.1, 0.0, 0.2]):
            r = ResourceVector(np.array(alloc), 6.0)
            want = nm.sigma(np.maximum(r.alloc, nm.floor_for(r.budget)))
            np.testing.assert_array_equal(nm.sigma_at(r), want)


def test_sigma_at_finite_where_the_allocation_holds_a_zero(inverse):
    r = ResourceVector(np.array([0.0, 3.0]), 3.0)
    assert np.all(np.isfinite(inverse.sigma_at(r)))
    assert inverse.sigma(r.alloc)[0] == np.inf


def test_sigma_checks_the_scale_against_the_last_axis():
    nm = NoiseModel("inverse", scale=[1.0, 2.0, 0.5])
    np.testing.assert_array_equal(nm.sigma(np.ones((4, 3))), np.tile([1.0, 2.0, 0.5], (4, 1)))
    with pytest.raises(InvalidNoiseModelError, match="3 scale constants for 4 features"):
        nm.sigma(np.ones((3, 4)))


_COUNT_MISMATCHES = {
    "noise_variance": lambda nm: noise_variance([1.0, 2.0], _R3, nm),
    "square_loss_total": lambda nm: square_loss_total(_DS3, [1.0, 2.0], 0.0, _R3, nm),
    "robust_hinge_objective": lambda nm: robust_hinge_objective(_DS3, [1.0, 2.0], 0.0, _R3, nm),
    "inject_noise": lambda nm: inject_noise(_DS3, ResourceVector.uniform(6.0, 2), nm),
    "ridge_step": lambda nm: ridge_step(_DS3, ResourceVector.uniform(6.0, 2), nm),
}


@pytest.mark.parametrize("entry", sorted(_COUNT_MISMATCHES))
def test_feature_count_mismatch_rejected(entry, inverse_sqrt):
    """Weights, allocation and dataset must agree on the number of features."""
    with pytest.raises(InvalidInputError, match="features"):
        _COUNT_MISMATCHES[entry](inverse_sqrt)


@pytest.mark.parametrize("kwargs", [
    {"scale": np.nan}, {"scale": np.inf}, {"scale": [1.0, np.inf]}, {"scale": [np.nan, 1.0]},
    {"floor": np.nan}, {"floor": np.inf}, {"floor": 0.0}, {"floor": -1.0},
])
def test_non_finite_or_non_positive_inputs_rejected(kwargs):
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel("inverse_sqrt", **kwargs)


_GRID = np.geomspace(0.01, 50.0, 400)
_SCALE = np.array([1.0, 2.0, 0.5])
ROUND_TRIP_MODELS = [
    NoiseModel("inverse", scale=_SCALE),
    NoiseModel("inverse_sqrt", scale=_SCALE),
    NoiseModel("quantization", scale=_SCALE),
    NoiseModel("tabulated", scale=_SCALE, table=(_GRID, 1.0 / np.sqrt(_GRID)), floor=0.01),
]


#: theta at which each family's ``level`` is nu
_THETA = {"inverse": lambda nu: -np.cbrt(2.0 / nu), "inverse_sqrt": lambda nu: -nu**-0.5,
          "quantization": lambda nu: math.log(nu / (2.0 * math.log(2.0)), 4.0),
          "tabulated": lambda nu: nu}


def _resource_at(nm, u, nu, floor):
    """The resource that the pieces of ``nm``'s unit curve give features of
    unit weight u at the common marginal nu (read as the water-fill does).
    A table's pieces are those around that level itself, not a budget's."""
    curve, u, theta = nm._curve, np.asarray(u, dtype=float), _THETA[nm.family](nu)
    assert curve.level(theta) == pytest.approx(nu, rel=1e-13)
    if nm.family == "tabulated":
        seg = curve._segments(u, floor)
        spent = curve._spent(seg[0], seg[3], seg[5], theta)
        top, _, c, lo, hi, base = curve._window(seg, spent, spent)
    else:
        top, _, c, lo, hi, base = curve.pieces(u, floor, math.nan)  # no budget needed
    return np.where(top > theta, np.minimum(lo + c * (top - theta), hi), base).max(
        axis=1, initial=floor)


@given(
    st.sampled_from(ROUND_TRIP_MODELS),
    st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=3, max_size=3),
    st.floats(min_value=-4.0, max_value=4.0),
)
@settings(max_examples=120, deadline=None)
def test_pieces_round_trip(nm, wlist, log_nu):
    """The level nu lies in the subdifferential [g(r+), g(r-)] of the
    marginal g = -a ds^2/dr, a = w^2 c^2 on the unit curve s, at the resource
    the pieces give, wherever that lands strictly inside [floor, cap].  For
    the smooth families g(r+) = g(r-) and this is g(r) = nu; a tabulated
    model's g jumps at the knots, where the pieces may leave a feature."""
    u = np.array(wlist) * nm.scale
    a = u**2
    nu = 10.0**log_nu
    floor = nm.floor_for(10.0)
    r = _resource_at(nm, u, nu, floor)
    inside = (r > floor) & (r < nm._curve.cap)
    right, left = nm._curve.dsigma_sq_sides(r)
    assert np.all(-a[inside] * right[inside] <= nu * (1 + 1e-8))
    assert np.all(-a[inside] * left[inside] >= nu * (1 - 1e-8))


def _polyline(knots, slopes, start):
    """sigma table through `knots` starting at `start` with segment slopes."""
    return np.array(knots, dtype=float), start + np.concatenate(
        ([0.0], np.cumsum(np.array(slopes) * np.diff(knots))))


def test_tabulated_pieces_on_a_single_segment():
    # s = 2 - (r - 1)/2 on [1, 4], so the unit marginal -d(s^2)/dr is s itself
    nm = NoiseModel("tabulated", table=_polyline([1.0, 4.0], [-0.5], 2.0), floor=1.0)
    np.testing.assert_array_equal(nm._curve.marginals, [2.0, 0.5])
    curve = nm._curve
    np.testing.assert_allclose(_resource_at(nm, np.sqrt([1.0, 0.8, 1.6]), 1.0, 1.0),
                               [3.0, 2.5, 3.75], rtol=1e-15)
    np.testing.assert_array_equal(curve.dsigma_sq(np.array([0.5, 1.0, 3.0, 4.0, 5.0])),
                                  [0.0, -2.0, -1.0, 0.0, 0.0])
    np.testing.assert_array_equal(curve.dsigma_sq_sides(np.array([1.0, 4.0]))[1], [0.0, -0.5])


def test_tabulated_pieces_beyond_the_table_ends():
    """The floor (here the table start) where even the marginal at the table
    start is at most nu, the table end where the marginal there still is at
    least nu."""
    nm = NoiseModel("tabulated", table=_polyline([1.0, 2.0, 3.0], [-1.0, -0.4], 2.0))
    # marginals: [4, 2] on the first segment, [0.8, 0.48] on the second
    np.testing.assert_allclose(nm._curve.marginals, [4.0, 2.0, 0.8, 0.48], rtol=1e-14)
    u = np.sqrt([1.0, 0.25, 1e-300, 0.0, 10.0, 2.0])
    np.testing.assert_allclose(_resource_at(nm, u, 1.0, 1.0),
                               [2.0, 1.0, 1.0, 1.0, 3.0, 2.9375], rtol=1e-14)
    np.testing.assert_array_equal(_resource_at(nm, [1.0], 4.0, 1.0), [1.0])


def test_tabulated_pieces_leave_the_knot_inside_a_jump():
    nm = NoiseModel("tabulated", table=_polyline([1.0, 2.0, 3.0], [-1.0, -0.4], 2.0))
    nus = np.array([2.0, 1.5, 0.8, 1.999999])
    r = np.array([_resource_at(nm, [1.0], nu, 1.0)[0] for nu in nus])
    np.testing.assert_array_equal(r, 2.0)


@pytest.mark.parametrize("size", [1.0, 1e-9])
def test_tabulated_knot_marginals_validated(size):
    """A concave kink between the sampled points passes the sampled check
    but makes the knot marginal rise, which the exact inverse cannot use;
    the knot check is relative, so it holds for a table of tiny sigma too."""
    r_grid, s_grid = _polyline([1.0, 5.0, 5.01, 5.02, 10.0], [-0.1, -0.05, -0.2, -0.05], 2.0)
    with pytest.raises(InvalidNoiseModelError, match="knot"):
        NoiseModel("tabulated", floor=1.0, table=(r_grid, size * s_grid))


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_table_admissible_exactly_when_knot_marginals_fall(segments, seed):
    """A positive table whose negative slopes increase constructs; raising
    one interior slope above the next (a concave knot) is rejected."""
    gen = np.random.default_rng(seed)
    knots = np.cumsum(gen.uniform(0.05, 2.0, segments + 1))
    slopes = -np.cumsum(gen.uniform(0.01, 0.5, segments))[::-1]  # strictly increasing
    # s stays positive under any order of these slopes
    start = -slopes[0] * (knots[-1] - knots[0]) + gen.uniform(0.01, 1.0)
    NoiseModel("tabulated", table=_polyline(knots, slopes, start))
    if segments >= 2:
        k = int(gen.integers(0, segments - 1))
        kinked = slopes.copy()
        kinked[[k, k + 1]] = slopes[[k + 1, k]]  # the marginal rises at knot k + 1
        with pytest.raises(InvalidNoiseModelError, match="knot"):
            NoiseModel("tabulated", table=_polyline(knots, kinked, start))


@pytest.mark.parametrize("s_grid", [[2.0, 1.0, 1.0], [2.0, 3.0, 1.0], [2.0, 1.0, 0.0],
                                    [2.0, np.nan, 1.0], [np.inf, 1.0, 0.5]])
def test_table_sigma_positive_finite_strictly_decreasing(s_grid):
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel("tabulated", table=(np.array([1.0, 2.0, 3.0]), np.array(s_grid)))


@pytest.mark.parametrize("r_grid", [[1.0, np.nan, 3.0], [np.nan, 2.0, 3.0], [1.0, 2.0, np.inf]])
def test_table_grid_nan_or_inf_rejected(r_grid):
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel("tabulated", table=(np.array(r_grid), np.array([2.0, 1.0, 0.5])))


def test_closed_form_rejects_a_table():
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel("inverse", table=(np.array([1.0, 2.0]), np.array([2.0, 1.0])))


def test_bad_tables_rejected():
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel("tabulated")
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel("tabulated", table=(np.array([2.0, 1.0]), np.array([1.0, 2.0])))
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel("nosuch")


def test_synthetic_label_rule():
    # margin 0.9 - 0.1 - 0.7 = 0.1 > 0
    assert synthetic_label(np.array([[0.1, 0.1, 0.9]]), a=7.0)[0] == 1.0
    # boundary margin exactly zero maps to +1
    assert synthetic_label(np.array([[0.5, 0.5, 1.0]]), a=1.0)[0] == 1.0
    assert synthetic_label(np.array([[0.5, 0.5, 0.99]]), a=1.0)[0] == -1.0


def test_synthetic_class_balance():
    ds = generate_synthetic(7.0, 240000, label_noise_sd=0.0, rng=RngConfig(42))
    frac = float(np.mean(ds.labels == 1.0))
    assert 0.45 <= frac <= 0.55


@pytest.mark.parametrize("seed", [-1, 2.0, 2.5, True, "3", None])
def test_rng_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(InvalidInputError):
        RngConfig(seed)


def test_rng_config_takes_numpy_integers():
    a = RngConfig(np.int64(9)).stream("x").integers(1 << 62)
    assert a == RngConfig(9).stream("x").integers(1 << 62)


def test_synthetic_deterministic():
    a = generate_synthetic(3.0, 500, rng=RngConfig(9))
    b = generate_synthetic(3.0, 500, rng=RngConfig(9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate_synthetic(3.0, 500, rng=RngConfig(10))
    assert not np.array_equal(a.features, c.features)


def test_synthetic_rejects_empty():
    with pytest.raises(ValueError):
        generate_synthetic(7.0, 0)


def test_inject_noise_zero_scale_is_identity(inverse_sqrt):
    ds = generate_synthetic(7.0, 100, rng=RngConfig(0))
    out = inject_noise(ds, ResourceVector.uniform(3.0, 3), inverse_sqrt, scale=0.0)
    assert np.array_equal(out.features, ds.features)


def test_inject_noise_vanishes_at_large_budget(inverse_sqrt):
    ds = generate_synthetic(7.0, 2000, rng=RngConfig(1))
    r = ResourceVector.uniform(3e12, 3)
    out = inject_noise(ds, r, inverse_sqrt, scale=1.0, rng=RngConfig(2))
    assert np.abs(out.features - ds.features).std() < 1e-5


def test_inject_noise_empirical_sd(inverse_sqrt):
    M = 100_000
    ds = Dataset(np.zeros((M, 2)), np.ones(M))
    r = ResourceVector(np.array([1.0, 1.0]), 2.0)
    out = inject_noise(ds, r, inverse_sqrt, scale=1.0, rng=RngConfig(3))
    sds = out.features.std(axis=0)
    assert np.all(np.abs(sds - 1.0) < 0.02)


def test_inject_noise_reproducible(inverse_sqrt):
    ds = generate_synthetic(7.0, 200, rng=RngConfig(4))
    r = ResourceVector.uniform(3.0, 3)
    one = inject_noise(ds, r, inverse_sqrt, rng=RngConfig(5))
    two = inject_noise(ds, r, inverse_sqrt, rng=RngConfig(5))
    assert np.array_equal(one.features, two.features)


def test_inject_noise_variance_mode(inverse_sqrt):
    M = 50_000
    ds = Dataset(np.zeros((M, 1)), np.ones(M))
    r = ResourceVector(np.array([4.0]), 4.0)
    # sigma = 0.5; variance mode: noise variance = scale * sigma = 0.25 -> sd 0.5
    out = inject_noise(ds, r, inverse_sqrt, scale=0.5, rng=RngConfig(6),
                       scale_mode="variance")
    assert out.features.std() == pytest.approx(0.5, rel=0.03)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.ones(2))
    ds = Dataset(np.ones((2, 2)), np.array([1.0, -1.0]))
    assert ds.is_classification()
    assert not Dataset(np.ones((2, 2)), np.array([0.5, 1.0])).is_classification()


@pytest.mark.parametrize("build", [
    lambda: Dataset(np.ones((0, 2)), np.ones(0)),
    lambda: Dataset(np.ones((3, 2)), np.ones(2)),
    lambda: Dataset(np.array([[np.inf, 1.0]]), np.array([1.0])),
    lambda: LinearClassifier(np.array([1.0, np.nan])),
    lambda: LinearClassifier(np.ones(2), bias=np.inf),
    lambda: generate_synthetic(7.0, 0),
    lambda: generate_synthetic(np.nan, 10),
    lambda: generate_synthetic(-np.inf, 10),
    lambda: generate_synthetic(7.0, 10, label_noise_sd=np.nan),
    lambda: generate_synthetic(7.0, 10, label_noise_sd=-1.0),
    lambda: inject_noise(Dataset(np.ones((2, 1)), np.ones(2)), ResourceVector.uniform(1.0, 1),
                         NoiseModel("inverse"), scale_mode="stdev"),
], ids=["empty", "label-count", "non-finite", "weights", "bias", "synthetic-n",
        "synthetic-nan-slope", "synthetic-infinite-slope", "synthetic-nan-label-noise",
        "synthetic-negative-label-noise", "scale-mode"])
def test_core_types_raise_invalid_input(build):
    with pytest.raises(InvalidInputError):
        build()


def test_resource_vector_validation():
    with pytest.raises(InfeasibleAllocationError):
        ResourceVector(np.array([-0.1, 1.0]), 1.0)
    with pytest.raises(InfeasibleAllocationError):
        ResourceVector(np.array([0.6, 0.6]), 1.0)
    with pytest.raises(InfeasibleAllocationError):
        ResourceVector(np.array([0.5]), 0.0)


def test_rng_streams_disjoint():
    cfg = RngConfig(123)
    a = cfg.stream("one").normal(size=8)
    b = cfg.stream("two").normal(size=8)
    a2 = cfg.stream("one").normal(size=8)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("alloc, budget", [
    ([np.nan, 1.0], 2.0),
    ([1.0, 1.0], np.nan),
    ([1.0, 1.0], np.inf),
])
def test_resource_vector_rejects_non_finite(alloc, budget):
    with pytest.raises(InfeasibleAllocationError):
        ResourceVector(np.array(alloc), budget)


def test_import_loads_no_scipy():
    # a fresh interpreter, since this one may have imported scipy already
    src = os.path.dirname(os.path.dirname(sensealloc.__file__))
    code = "import sys, sensealloc; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

