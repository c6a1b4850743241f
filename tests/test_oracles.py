import numpy as np
import pytest

from sensealloc import (
    Dataset,
    GridSpec,
    NoiseModel,
    ResourceVector,
    RngConfig,
    finite_diff_grad,
    gaussian_hinge_expected,
    grid_alloc_search,
    mc_ellipsoid_support,
    mc_expected_loss,
    noise_variance,
    oracle_integer_bits,
    oracle_project_l1,
    oracle_project_l2,
    square_loss_total,
)
from sensealloc.errors import GridTooLargeError, InvalidInputError, InvalidNoiseModelError
from sensealloc.oracles import _sigma_sq_feature


class TestGridSearch:
    def test_symmetric_split(self, inverse_sqrt):
        out = grid_alloc_search(np.array([1.0, 1.0]), inverse_sqrt, 2.0)
        np.testing.assert_allclose(out.alloc, [1.0, 1.0], atol=1e-9)

    def test_weight_proportional(self, inverse_sqrt):
        out = grid_alloc_search(np.array([1.0, 7.0]), inverse_sqrt, 8.0)
        np.testing.assert_allclose(out.alloc, [1.0, 7.0], atol=1e-3 + 1e-12)

    def test_single_active_feature(self, inverse_sqrt):
        out = grid_alloc_search(np.array([1.0, 0.0]), inverse_sqrt, 1.0)
        np.testing.assert_allclose(out.alloc, [1.0, 0.0])

    def test_dimension_guard(self, inverse_sqrt):
        with pytest.raises(GridTooLargeError):
            grid_alloc_search(np.ones(5), inverse_sqrt, 1.0)

    def test_evaluation_cap(self, inverse_sqrt):
        with pytest.raises(GridTooLargeError):
            grid_alloc_search(np.ones(3), inverse_sqrt, 1.0,
                              GridSpec(budget=1.0, resolution=1e-5))

    def test_budget_exact_on_lattice(self, quantization):
        out = grid_alloc_search(np.array([2.0, 1.0, 0.5]), quantization, 6.0,
                                GridSpec(budget=6.0, resolution=0.01))
        assert out.alloc.sum() == pytest.approx(6.0)

    @pytest.mark.parametrize("family", ["inverse", "inverse_sqrt", "quantization", "tabulated"])
    def test_one_entry_scale_acts_as_scalar_scale(self, family, request):
        base = request.getfixturevalue(family)
        w = np.array([1.0, 3.0])
        got = [grid_alloc_search(w, NoiseModel(family, scale=scale, floor=base.floor,
                                               table=base.table), 4.0).alloc
               for scale in ([2.0], 2.0)]
        np.testing.assert_array_equal(*got)

    def test_scale_with_too_many_entries_rejected(self):
        with pytest.raises(InvalidNoiseModelError, match="3 scale constants for 2 features"):
            grid_alloc_search([1.0, 3.0], NoiseModel("inverse", scale=[2.0, 1.0, 0.5]), 4.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("family", ["inverse", "inverse_sqrt", "quantization", "tabulated"])
    def test_matches_full_enumeration(self, d, family, request):
        """Every lattice point scored with the search's own costs, summed in
        its order c_0 + (c_1 + (... + c_{d-1})); the first minimizer in
        lexicographic order must be the search's answer."""
        nm = request.getfixturevalue(family)
        rng = np.random.default_rng(d)
        for trial in range(6):
            n = int(rng.integers(36, 45))
            w = rng.uniform(0.3, 3.0, d) * rng.choice([-1.0, 1.0], d)
            if trial == 1:
                w[:] = 1.0  # equal weights: symmetric ties
            if trial == 2:
                w[-1] = 0.0
            R = float(rng.uniform(0.5, 4.0)) * d
            out = grid_alloc_search(w, nm, R, GridSpec(budget=R, resolution=R / n))
            levels = (R / n) * np.arange(n + 1)
            scales = np.broadcast_to(nm.scale, d)
            costs = [np.zeros(n + 1) if w[i] == 0.0
                     else w[i] ** 2 * _sigma_sq_feature(nm, scales[i], levels) for i in range(d)]
            ks = np.stack(np.meshgrid(*[np.arange(n + 1)] * (d - 1), indexing="ij"), -1)
            ks = ks.reshape(-1, d - 1)
            ks = ks[ks.sum(axis=1) <= n]  # lexicographic order is kept
            ks = np.column_stack((ks, n - ks.sum(axis=1)))
            total = costs[d - 1][ks[:, d - 1]]
            for i in range(d - 2, -1, -1):
                total = costs[i][ks[:, i]] + total
            best = ks[int(np.flatnonzero(total == total.min())[0])]
            np.testing.assert_array_equal(out.alloc, levels[best])


class TestMonteCarloLoss:
    def test_square_matches_closed_form(self, inverse_sqrt):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 3))
        y = np.sign(rng.normal(size=15))
        y[y == 0] = 1
        ds = Dataset(X, y)
        w = np.array([0.8, -1.1, 0.4])
        r = ResourceVector.uniform(4.0, 3)
        closed = square_loss_total(ds, w, 0.3, r, inverse_sqrt).total
        mean, se = mc_expected_loss(ds, w, 0.3, r, inverse_sqrt, "square", 40_000,
                                    RngConfig(5))
        assert abs(mean - closed) <= 4 * se
        assert se > 0

    def test_degenerate_noise_is_exact(self, inverse_sqrt):
        ds = Dataset(np.ones((5, 2)), np.ones(5))
        # zero weights silence the only noisy features
        mean, se = mc_expected_loss(ds, np.zeros(2), 0.25, ResourceVector.uniform(2.0, 2),
                                    inverse_sqrt, "square", 2_000, RngConfig(6))
        assert se == 0.0
        assert mean == pytest.approx(0.5625)

    def test_hinge_single_sample_reference(self, inverse_sqrt):
        # one sample at margin 1 with aggregate sigma 1
        ds = Dataset(np.array([[1.0]]), np.array([1.0]))
        w = np.array([1.0])
        r = ResourceVector(np.array([1.0]), 1.0)
        mean, se = mc_expected_loss(ds, w, 0.0, r, inverse_sqrt, "hinge",
                                    1_000_000, RngConfig(7))
        assert mean == pytest.approx(0.39894, abs=1e-3)
        closed = gaussian_hinge_expected(1.0, 1.0)
        assert abs(mean - closed) <= 4 * se

    def test_rejects_tiny_draw_counts(self, inverse_sqrt):
        ds = Dataset(np.ones((2, 1)), np.ones(2))
        with pytest.raises(InvalidInputError, match="1000 draws"):
            mc_expected_loss(ds, np.ones(1), 0.0, ResourceVector(np.ones(1), 1.0),
                             inverse_sqrt, "square", 10, RngConfig(0))


def test_support_sampler_matches_closed_form(inverse_sqrt):
    w = np.array([1.5, -0.7, 2.0])
    r = ResourceVector(np.array([1.0, 2.0, 3.0]), 6.0)
    closed = np.sqrt(noise_variance(w, r, inverse_sqrt))
    sampled = mc_ellipsoid_support(w, r, inverse_sqrt, 500_000, RngConfig(8))
    assert sampled <= closed + 1e-12
    assert sampled >= closed * (1 - 0.005)


class TestFiniteDifferences:
    def test_quadratic_is_exact(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])

        def f(x):
            return float(x @ A @ x)

        x0 = np.array([0.7, -0.4])
        grad = finite_diff_grad(f, x0, h=1e-4)
        np.testing.assert_allclose(grad, 2 * A @ x0, atol=1e-10)

    def test_square_loss_gradient(self, inverse_sqrt):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        ds = Dataset(X, y)
        r = ResourceVector.uniform(2.0, 2)

        def f(w):
            return square_loss_total(ds, w, 0.0, r, inverse_sqrt).total

        w0 = np.array([0.4, -0.9])
        grad = finite_diff_grad(f, w0, h=1e-6)
        analytic = 2 * w0 * inverse_sqrt.sigma_sq(r.alloc) \
            - 2.0 / 30 * X.T @ (y - X @ w0)
        np.testing.assert_allclose(grad, analytic, atol=1e-6)


def test_l1_l2_projection_oracles_basic():
    v = np.array([3.0, 4.0])
    np.testing.assert_allclose(oracle_project_l2(v, 1.0), [0.6, 0.8])
    inside = np.array([0.1, -0.2])
    np.testing.assert_allclose(oracle_project_l1(inside, 1.0), inside)
    out = oracle_project_l1(np.array([2.0, -1.0]), 1.0)
    assert np.abs(out).sum() == pytest.approx(1.0)


def test_integer_bits_oracle_prefers_heavy_weights():
    out = oracle_integer_bits(np.array([4.0, 1.0]), 5)
    np.testing.assert_allclose(out, [3.0, 2.0])


@pytest.mark.parametrize("budget, resolution", [
    (3.0, np.nan), (np.nan, 0.1), (3.0, 0.0), (-1.0, 0.1)])
def test_grid_spec_rejects_bad_values(budget, resolution):
    with pytest.raises(InvalidInputError, match="positive"):
        GridSpec(budget=budget, resolution=resolution)


def test_oracle_input_errors_are_package_errors(inverse_sqrt):
    with pytest.raises(InvalidInputError, match="coarser"):
        grid_alloc_search([1.0, 2.0], inverse_sqrt, 3.0, GridSpec(budget=3.0, resolution=7.0))
    ds = Dataset(np.ones((2, 1)), np.ones(2))
    with pytest.raises(InvalidInputError, match="loss kind"):
        mc_expected_loss(ds, np.ones(1), 0.0, ResourceVector(np.ones(1), 1.0),
                         inverse_sqrt, "logistic", 1000, RngConfig(0))
    with pytest.raises(InvalidInputError, match="integer"):
        mc_expected_loss(ds, np.ones(1), 0.0, ResourceVector(np.ones(1), 1.0),
                         inverse_sqrt, "square", 1000.5, RngConfig(0))
