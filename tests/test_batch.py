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
    fit_hinge,
    generate_synthetic,
    finite_diff_grad,
    ridge_step,
    robust_hinge_objective,
    solve_robust_hinge,
    solve_square_alternating,
    square_loss_total,
)
from sensealloc.batch import _hinge_problem
from sensealloc.errors import InvalidInputError, RankDeficiencyError


@pytest.fixture
def regression_ds():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    y = X @ np.array([1.0, 7.0, 1.0]) + rng.normal(0, 0.2, 50)
    return Dataset(X, y)


class TestRidgeStep:
    def test_infinite_penalty_collapses_to_mean(self, regression_ds):
        nm = NoiseModel("inverse_sqrt", scale=1e8)
        clf = ridge_step(regression_ds, ResourceVector.uniform(3.0, 3), nm)
        assert np.linalg.norm(clf.weights) < 1e-6
        assert clf.bias == pytest.approx(float(regression_ds.labels.mean()), abs=1e-6)

    def test_zero_penalty_equals_ols(self, regression_ds):
        nm = NoiseModel("inverse_sqrt")
        big = ResourceVector.uniform(3e17, 3)  # sigma^2 ~ 1e-17 per feature
        clf = ridge_step(regression_ds, big, nm)
        Xa = np.hstack([regression_ds.features, np.ones((50, 1))])
        beta, *_ = np.linalg.lstsq(Xa, regression_ds.labels, rcond=None)
        np.testing.assert_allclose(np.append(clf.weights, clf.bias), beta, atol=1e-6)

    def test_gradient_vanishes_at_solution(self, regression_ds):
        nm = NoiseModel("inverse_sqrt")
        r = ResourceVector.uniform(3.0, 3)
        clf = ridge_step(regression_ds, r, nm)

        def f(z):
            return square_loss_total(regression_ds, z[:3], float(z[3]), r, nm).total

        grad = finite_diff_grad(f, np.append(clf.weights, clf.bias), h=1e-6)
        assert np.linalg.norm(grad) < 1e-8

    def test_rank_deficiency_detected(self):
        X = np.ones((4, 2))  # identical columns and identical to the bias column
        ds = Dataset(X, np.array([1.0, 2.0, 3.0, 4.0]))
        grid = np.geomspace(0.1, 10.0, 50)
        zero_noise = NoiseModel("tabulated", table=(grid, 1e-30 / grid), floor=0.1)
        with pytest.raises(RankDeficiencyError):
            ridge_step(ds, ResourceVector.uniform(2.0, 2), zero_noise)


class TestSquareAlternating:
    def test_single_feature(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 1))
        ds = Dataset(X, 2.0 * X[:, 0] + rng.normal(0, 0.1, 30))
        nm = NoiseModel("inverse_sqrt")
        rep = solve_square_alternating(ds, nm, 5.0)
        np.testing.assert_allclose(rep.resources.alloc, [5.0])
        clf = ridge_step(ds, rep.resources, nm)
        np.testing.assert_allclose(rep.classifier.weights, clf.weights, rtol=1e-10)

    def test_monotone_trace_and_kkt(self, regression_ds):
        nm = NoiseModel("inverse_sqrt")
        rep = solve_square_alternating(regression_ds, nm, 9.0)
        trace = np.array(rep.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10)
        assert rep.converged
        assert rep.allocation.residual < 1e-6

    def test_matches_joint_grid_search(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        y = X @ np.array([1.0, 2.0]) + rng.normal(0, 0.3, 20)
        ds = Dataset(X, y)
        nm = NoiseModel("inverse_sqrt")
        R = 2.0
        rep = solve_square_alternating(ds, nm, R)

        # independent joint grid: w on a lattice, bias closed-form, r1 on a grid
        best = math.inf
        w_grid = np.linspace(0.0, 2.5, 126)
        r_grid = np.linspace(1e-3, R - 1e-3, 400)
        for w1 in w_grid:
            for w2 in w_grid:
                w = np.array([w1, w2])
                b = float(np.mean(y - X @ w))
                resid = y - X @ w - b
                mse = float(resid @ resid) / 20
                noise = np.min(w1**2 / r_grid + w2**2 / (R - r_grid))
                best = min(best, mse + noise)
        assert rep.objective_trace[-1] <= best + 1e-3

    def test_degenerate_flag(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(25, 2)), rng.normal(size=25))
        harsh = NoiseModel("inverse_sqrt", scale=1e9)
        rep = solve_square_alternating(ds, harsh, 1.0)
        assert rep.degenerate
        np.testing.assert_allclose(rep.resources.alloc, [0.5, 0.5])


class TestRobustHinge:
    def test_negligible_noise_reduces_to_plain_hinge(self):
        ds = generate_synthetic(7.0, 400, rng=RngConfig(5))
        tiny = NoiseModel("inverse_sqrt", scale=1e-9)
        rep = solve_robust_hinge(ds, tiny, 9.0, inner_iters=400, max_iter=10)
        plain = fit_hinge(ds, iters=4000)
        plain_obj = robust_hinge_objective(ds, plain.weights, plain.bias,
                                           rep.resources, tiny)
        assert rep.objective_trace[-1] <= plain_obj * (1 + 1e-3) + 1e-3

    def test_allocation_follows_weights(self, inverse_sqrt):
        ds = generate_synthetic(7.0, 800, rng=RngConfig(6))
        rep = solve_robust_hinge(ds, inverse_sqrt, 9.0, inner_iters=300, max_iter=15)
        w = np.abs(rep.classifier.weights)
        np.testing.assert_allclose(rep.resources.alloc, 9.0 * w / w.sum(), rtol=1e-8)

    def test_monotone_trace(self, inverse_sqrt):
        ds = generate_synthetic(4.0, 500, rng=RngConfig(7))
        rep = solve_robust_hinge(ds, inverse_sqrt, 6.0, inner_iters=250, max_iter=12)
        trace = np.array(rep.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_two_feature_grid_cross_check(self, inverse_sqrt):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(-0.8, 1.0, size=(4, 2)), rng.normal(0.8, 1.0, size=(4, 2))])
        y = np.array([-1.0] * 4 + [1.0] * 4)
        ds = Dataset(X, y)
        R = 2.0
        rep = solve_robust_hinge(ds, inverse_sqrt, R, inner_iters=3000, max_iter=40,
                                 tol=1e-12)

        axis = np.linspace(-3.0, 3.0, 121)
        W = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        W = W[np.abs(W).sum(axis=1) >= 1e-9]
        support = np.abs(W).sum(axis=1) / math.sqrt(R)  # inner allocation is exact here
        scores = W @ X.T  # one row of sample scores per grid weight
        best = min(float(np.min(support + np.maximum(0, 1 - y * (scores + b)).sum(axis=1)))
                   for b in np.linspace(-2.0, 2.0, 81))
        assert abs(rep.objective_trace[-1] - best) <= 0.01 * best

    def test_separable_warning(self, inverse_sqrt):
        X = np.array([[-3.0, 0.0], [-2.5, 0.1], [2.5, -0.1], [3.0, 0.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        ds = Dataset(X, y)
        rep = solve_robust_hinge(ds, NoiseModel("inverse_sqrt", scale=1e-6), 50.0,
                                 inner_iters=3000, max_iter=30)
        assert rep.separable_warning

    def test_rejects_regression_labels(self, inverse_sqrt):
        ds = Dataset(np.ones((3, 2)), np.array([0.1, 0.2, 0.3]))
        with pytest.raises(InvalidInputError, match="labels"):
            solve_robust_hinge(ds, inverse_sqrt, 1.0)


@pytest.mark.parametrize("optimize_allocation", [False, True])
def test_shared_start_matches_solve_robust_hinge(inverse_sqrt, optimize_allocation):
    ds = generate_synthetic(7.0, 600, rng=RngConfig(12))
    kw = dict(inner_iters=150, max_iter=6, optimize_allocation=optimize_allocation)
    start = fit_hinge(ds, iters=150)
    for R in (1.5, 9.0):  # one start serves every budget
        shared = solve_robust_hinge(ds, inverse_sqrt, R, start=start, **kw)
        alone = solve_robust_hinge(ds, inverse_sqrt, R, **kw)
        assert np.array_equal(shared.classifier.weights, alone.classifier.weights)
        assert shared.classifier.bias == alone.classifier.bias
        assert np.array_equal(shared.resources.alloc, alone.resources.alloc)
        assert shared.objective_trace == alone.objective_trace


def test_start_of_wrong_dimension_is_rejected(inverse_sqrt):
    ds = generate_synthetic(7.0, 100, rng=RngConfig(12))
    with pytest.raises(InvalidInputError, match="2 weights for 3 features"):
        solve_robust_hinge(ds, inverse_sqrt, 9.0, start=LinearClassifier(np.ones(2), 0.0))


def test_hinge_subgradient_matches_finite_differences_and_masked_sum():
    rng = np.random.default_rng(13)
    M, d = 300, 4
    X = rng.normal(size=(M, d))
    y = np.where(rng.random(M) < 0.5, -1.0, 1.0)
    sigma_sq = rng.uniform(0.1, 2.0, d)
    problem = _hinge_problem(X, y, sigma_sq)
    checked = 0
    for _ in range(20):
        w, b = rng.normal(size=d), float(rng.normal())
        margins = y * (X @ w + b)
        if np.min(np.abs(margins - 1.0)) < 1e-4:
            continue  # too close to a hinge kink for central differences
        checked += 1
        f, g_w, g_b = problem(w, b)
        z = np.append(w, b)
        fd = finite_diff_grad(lambda v: problem(v[:d], float(v[d]))[0] / M, z, h=1e-7)
        np.testing.assert_allclose(np.append(g_w, g_b), fd, atol=1e-6)
        # reference: sum over the margin violators, gathered by a boolean mask
        active = margins < 1.0
        support = math.sqrt(float(np.sum(w**2 * sigma_sq)))
        ref_w = -(y[active, None] * X[active]).sum(axis=0) / M + (w * sigma_sq) / (support * M)
        np.testing.assert_allclose(g_w, ref_w, rtol=0, atol=1e-12)
        assert g_b == -float(y[active].sum()) / M
        assert f == support + float(np.sum(np.maximum(0.0, 1.0 - margins)))
    assert checked >= 10


def _square_instance(seed: int, d: int):
    """A regression set with unevenly scaled columns and a per-feature noise
    scale, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(d + 5, 60))
    X = rng.normal(size=(M, d)) * np.exp(rng.uniform(-1.0, 1.0, d))
    y = X @ rng.normal(size=d) + rng.normal(0.0, 0.5, M)
    scale = np.exp(rng.uniform(math.log(0.3), math.log(3.0), d))
    return X, y, scale


_SQUARE_FAMILIES = st.sampled_from(["inverse", "inverse_sqrt", "quantization"])
_BUDGETS = st.floats(min_value=0.5, max_value=30.0)


def _assert_same_solution(got, base, R, perm=None, s=None):
    """got solves the permuted (perm) or column-rescaled (s) twin of base's
    problem: same objective and allocation, weights mapped back."""
    perm = np.arange(base.classifier.dim) if perm is None else perm
    s = np.ones(base.classifier.dim) if s is None else s
    assert got.objective == pytest.approx(base.objective, rel=1e-9)
    np.testing.assert_allclose(got.resources.alloc, base.resources.alloc[perm],
                               rtol=0, atol=1e-9 * R)
    w = base.classifier.weights
    np.testing.assert_allclose(got.classifier.weights * s, w[perm],
                               rtol=0, atol=1e-9 * np.max(np.abs(w)))


@given(_SQUARE_FAMILIES, st.integers(0, 2**32 - 1), st.integers(2, 5), _BUDGETS,
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_square_solver_permutation_equivariance(family, seed, d, R, rnd):
    X, y, scale = _square_instance(seed, d)
    perm = np.array(rnd.sample(range(d), d))
    base = solve_square_alternating(Dataset(X, y), NoiseModel(family, scale=scale), R)
    got = solve_square_alternating(Dataset(X[:, perm], y),
                                   NoiseModel(family, scale=scale[perm]), R)
    _assert_same_solution(got, base, R, perm=perm)


@given(_SQUARE_FAMILIES, st.integers(0, 2**32 - 1), st.integers(2, 5), _BUDGETS,
       st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_square_solver_feature_rescaling_invariance(family, seed, d, R, exponents):
    # column j times s_j with noise scale times s_j is the same problem in
    # w_j * s_j: objective and allocation stay, w_j is divided by s_j
    X, y, scale = _square_instance(seed, d)
    s = 10.0 ** np.array(exponents[:d])
    base = solve_square_alternating(Dataset(X, y), NoiseModel(family, scale=scale), R)
    got = solve_square_alternating(Dataset(X * s, y), NoiseModel(family, scale=scale * s), R)
    _assert_same_solution(got, base, R, s=s)
