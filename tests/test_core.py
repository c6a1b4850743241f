import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensealloc import (
    Dataset,
    LinearClassifier,
    NoiseModel,
    ResourceVector,
    RngConfig,
    generate_synthetic,
    inject_noise,
    sigma_aggregate,
    synthetic_label,
)
from sensealloc.errors import (
    InfeasibleAllocationError,
    InvalidInputError,
    InvalidNoiseModelError,
)


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
    nm.validate(1e-3, 1e2, n=200)  # raises on violation
    grid = np.linspace(0.1, 20.0, 200)
    vals = nm.sigma(grid)
    assert np.all(np.diff(vals) < 0)
    mids = nm.sigma((grid[:-2] + grid[2:]) / 2.0)
    assert np.all(mids <= (vals[:-2] + vals[2:]) / 2.0 + 1e-12)


def test_tabulated_validate(tabulated):
    tabulated.validate()


def test_concave_table_rejected():
    grid = np.linspace(1.0, 10.0, 50)
    concave = NoiseModel("tabulated", table=(grid, (11.0 - grid) ** 0.35), floor=1.0)
    with pytest.raises(InvalidNoiseModelError):
        concave.validate()  # decreasing but concave, and so is sigma^2


def test_sigma_aggregate_vector_scale_with_zero_weight():
    nm = NoiseModel("inverse_sqrt", scale=[1.0, 2.0, 0.5])
    r = ResourceVector(np.array([1.0, 2.0, 4.0]), 7.0)
    got = sigma_aggregate(np.array([1.0, 0.0, 0.7]), r, nm)
    assert got == pytest.approx(math.sqrt(1.0 + 0.7**2 * 0.5**2 / 4.0), rel=1e-12)


def test_tabulated_vector_scale_validates(tabulated):
    scaled = NoiseModel("tabulated", scale=[1.0, 2.0, 0.5], table=tabulated.table, floor=0.01)
    scaled.validate()


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


@given(
    st.sampled_from(ROUND_TRIP_MODELS),
    st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=3, max_size=3),
    st.floats(min_value=-4.0, max_value=4.0),
)
@settings(max_examples=120, deadline=None)
def test_marginal_inverse_round_trip(nm, wlist, log_nu):
    """-w^2 dsigma^2/dr at the inverted resource gives back the level nu
    wherever the inverse lands strictly inside the solver's bracket."""
    w2 = np.array(wlist) ** 2
    nu = 10.0**log_nu
    r = nm.marginal_inverse(nu, w2)
    floor, cap = nm.bracket(10.0)
    inside = (r > floor) & (r < cap)
    np.testing.assert_allclose(-w2[inside] * nm.dsigma_sq(r)[inside], nu, rtol=1e-8)


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
    lambda: Dataset(np.ones((2, 2)), np.ones(2), feature_names=("x",)),
    lambda: LinearClassifier(np.array([1.0, np.nan])),
    lambda: LinearClassifier(np.ones(2), bias=np.inf),
    lambda: generate_synthetic(7.0, 0),
    lambda: inject_noise(Dataset(np.ones((2, 1)), np.ones(2)), ResourceVector.uniform(1.0, 1),
                         NoiseModel("inverse"), scale_mode="stdev"),
], ids=["empty", "label-count", "non-finite", "names", "weights", "bias", "synthetic-n",
        "scale-mode"])
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
    rv = ResourceVector(np.array([0.25, 0.75]), 1.0)
    assert rv.is_saturated()


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
