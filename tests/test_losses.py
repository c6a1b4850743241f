import math

import numpy as np
import pytest

from sensealloc import (
    Dataset,
    ResourceVector,
    RngConfig,
    allocate_inverse_sqrt,
    expected_hinge_total,
    gaussian_hinge_expected,
    generate_synthetic,
    robust_hinge_objective,
    square_loss_total,
    verify_convexity,
)
from sensealloc.errors import InvalidInputError

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@pytest.fixture
def small_ds():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    y = np.sign(rng.normal(size=20))
    y[y == 0] = 1.0
    return Dataset(X, y)


class TestSquareLoss:
    def test_zero_classifier_on_labels(self, small_ds, inverse_sqrt):
        r = ResourceVector.uniform(3.0, 3)
        lv = square_loss_total(small_ds, np.zeros(3), 0.0, r, inverse_sqrt)
        assert lv.total == pytest.approx(1.0)
        assert lv.noise_term == 0.0

    def test_noise_vanishes_with_budget(self, small_ds, inverse_sqrt):
        w = np.array([1.0, -0.5, 2.0])
        big = square_loss_total(small_ds, w, 0.1, ResourceVector.uniform(3e9, 3), inverse_sqrt)
        assert big.noise_term < 1e-8
        mse = float(np.mean((small_ds.labels - (small_ds.features @ w + 0.1)) ** 2))
        assert big.total == pytest.approx(mse, abs=1e-8)

    def test_weight_proportional_identity(self, small_ds, inverse_sqrt):
        w = np.array([1.0, 7.0, 1.0])
        r = allocate_inverse_sqrt(w, 9.0)
        lv = square_loss_total(small_ds, w, 0.0, r, inverse_sqrt)
        assert lv.noise_term == pytest.approx(81.0 / 9.0, rel=1e-12)

    def test_uniform_identity(self, small_ds, inverse_sqrt):
        w = np.array([0.3, -1.2, 2.2])
        for R in (0.7, 3.0, 11.0):
            lv = square_loss_total(small_ds, w, 0.0, ResourceVector.uniform(R, 3),
                                   inverse_sqrt)
            assert lv.noise_term == pytest.approx((3.0 / R) * float(w @ w), rel=1e-12)

    def test_decomposition_exact(self, small_ds, inverse_sqrt):
        lv = square_loss_total(small_ds, np.array([1.0, 2.0, 3.0]), -0.4,
                               ResourceVector.uniform(5.0, 3), inverse_sqrt)
        assert lv.total - lv.data_term - lv.noise_term == 0.0

    def test_convex_in_allocation(self, small_ds, inverse_sqrt):
        w = np.array([1.0, -2.0, 0.7])

        def loss_fn(r):
            return square_loss_total(small_ds, w, 0.2,
                                     ResourceVector(r, 6.0), inverse_sqrt).total

        def sampler(gen):
            a = gen.uniform(0.05, 1.0, 3)
            b = gen.uniform(0.05, 1.0, 3)
            return 6.0 * a / (a.sum() + 1.0), 6.0 * b / (b.sum() + 1.0)

        report = verify_convexity(loss_fn, sampler, n_checks=2000, rng=RngConfig(1))
        assert report.violations == 0


class TestGaussianHinge:
    def test_zero_sigma_is_plain_hinge(self):
        assert gaussian_hinge_expected(2.0, 0.0) == 0.0
        assert gaussian_hinge_expected(0.25, 0.0) == pytest.approx(0.75)

    def test_known_value_at_unit_sigma(self):
        assert gaussian_hinge_expected(1.0, 1.0) == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_small_sigma_limit_at_zero_margin(self):
        assert gaussian_hinge_expected(0.0, 1e-12) == pytest.approx(1.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            gaussian_hinge_expected(0.0, -1.0)

    def test_convex_and_nonincreasing_in_margin(self):
        ms = np.linspace(-3.0, 4.0, 141)
        vals = gaussian_hinge_expected(ms, 0.8)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals[1:-1] <= (vals[:-2] + vals[2:]) / 2.0 + 1e-12)

    def test_increasing_in_sigma(self):
        sigmas = np.linspace(0.05, 3.0, 60)
        vals = [gaussian_hinge_expected(0.5, s) for s in sigmas]
        assert np.all(np.diff(vals) > 0)

    def test_vectorized_margins(self):
        out = gaussian_hinge_expected(np.array([0.0, 1.0]), 1.0)
        assert out.shape == (2,)

    @pytest.mark.parametrize("sigma", np.geomspace(1e-6, 30.0, 15))
    def test_matches_the_ndtr_form(self, sigma):
        ndtr = pytest.importorskip("scipy.special").ndtr
        margins = 1.0 - sigma * np.linspace(-40.0, 40.0, 1601)
        u = 1.0 - margins
        z = u / sigma
        ref = u * ndtr(z) + sigma * INV_SQRT_2PI * np.exp(-0.5 * z * z)
        got = gaussian_hinge_expected(margins, sigma)
        assert np.all(np.abs(got - ref) <= 1e-15 * (np.abs(u) + sigma))


class TestRobustHinge:
    def test_zero_classifier_counts_every_sample(self, small_ds, inverse_sqrt):
        r = ResourceVector.uniform(3.0, 3)
        val = robust_hinge_objective(small_ds, np.zeros(3), 0.0, r, inverse_sqrt)
        assert val == pytest.approx(small_ds.n_samples)

    def test_zero_slack_leaves_support_only(self, inverse_sqrt):
        X = np.array([[2.0, 0.0], [-2.0, 0.0]])
        y = np.array([1.0, -1.0])
        ds = Dataset(X, y)
        w = np.array([1.0, 0.0])
        r = ResourceVector.uniform(2.0, 2)
        val = robust_hinge_objective(ds, w, 0.0, r, inverse_sqrt)
        support = math.sqrt(float(np.sum(w**2 * inverse_sqrt.sigma_sq(r.alloc))))
        assert val == pytest.approx(support)

    def test_rejects_regression_labels(self, inverse_sqrt):
        ds = Dataset(np.ones((3, 2)), np.array([0.5, 1.0, -1.0]))
        with pytest.raises(InvalidInputError, match="labels"):
            robust_hinge_objective(ds, np.ones(2), 0.0,
                                   ResourceVector.uniform(2.0, 2), inverse_sqrt)

    def test_convex_in_classifier(self, inverse_sqrt):
        ds = generate_synthetic(5.0, 60, rng=RngConfig(2))
        r = ResourceVector.uniform(6.0, 3)

        def loss_fn(z):
            return robust_hinge_objective(ds, z[:3], float(z[3]), r, inverse_sqrt)

        def sampler(gen):
            return gen.normal(0, 2, 4), gen.normal(0, 2, 4)

        report = verify_convexity(loss_fn, sampler, n_checks=1500, rng=RngConfig(3))
        assert report.violations == 0


def test_expected_hinge_total_matches_scalar_form(small_ds, inverse_sqrt):
    w = np.array([0.5, 1.0, -0.2])
    r = ResourceVector.uniform(4.0, 3)
    sigma = math.sqrt(float(np.sum(w**2 * inverse_sqrt.sigma_sq(r.alloc))))
    margins = small_ds.labels * (small_ds.features @ w + 0.1)
    by_hand = float(np.mean([gaussian_hinge_expected(float(m), sigma) for m in margins]))
    assert expected_hinge_total(small_ds, w, 0.1, r, inverse_sqrt) == pytest.approx(by_hand)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_gaussian_hinge_rejects_non_finite_sigma(sigma):
    with pytest.raises(InvalidInputError):
        gaussian_hinge_expected(0.5, sigma)
