import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensealloc import (
    NoiseModel,
    RngConfig,
    budget_ratio_bounds,
    divider_ratio_formula,
    divider_weights,
    equal_loss_budget,
    generate_synthetic,
    ratio_report,
    uniform_optimal_budget_ratio,
    verify_convexity,
)
from sensealloc.errors import (
    DegenerateClassifierError,
    InvalidInputError,
    UnattainableLossError,
)


class TestBudgetRatioFormula:
    def test_uniform_weights_give_one(self):
        assert uniform_optimal_budget_ratio(np.ones(5)) == pytest.approx(1.0)

    def test_two_feature_value(self):
        assert uniform_optimal_budget_ratio(np.array([1.0, 7.0])) == pytest.approx(1.5625)

    def test_divider_family(self):
        for a in range(1, 10):
            w = divider_weights(float(a))
            expected = 3.0 * (2.0 + a * a) / (2.0 + a) ** 2
            assert uniform_optimal_budget_ratio(w) == pytest.approx(expected, rel=1e-12)
            assert divider_ratio_formula(float(a)) == pytest.approx(expected, rel=1e-12)
        assert divider_ratio_formula(9.0) == pytest.approx(249.0 / 121.0, rel=1e-12)

    def test_one_hot_reaches_dimension(self):
        w = np.zeros(6)
        w[2] = 3.0
        assert uniform_optimal_budget_ratio(w) == pytest.approx(6.0)

    def test_rejects_zero(self):
        with pytest.raises(DegenerateClassifierError):
            uniform_optimal_budget_ratio(np.zeros(3))

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_range_and_scale_invariance(self, wlist):
        w = np.array(wlist)
        if np.abs(w).sum() < 1e-6:
            return
        ratio = uniform_optimal_budget_ratio(w)
        assert 1.0 - 1e-9 <= ratio <= len(w) + 1e-9
        assert uniform_optimal_budget_ratio(3.7 * w) == pytest.approx(ratio, rel=1e-9)


class TestEqualLossBudget:
    @pytest.fixture
    def setup(self, inverse_sqrt):
        ds = generate_synthetic(7.0, 300, rng=RngConfig(0))
        w = np.array([1.0, 7.0, 1.0])
        from sensealloc import ResourceVector, square_loss_total

        floor = square_loss_total(ds, w, 0.0, ResourceVector.uniform(1.0, 3),
                                  inverse_sqrt).data_term
        return ds, w, floor

    def test_optimal_rule_inversion(self, setup, inverse_sqrt):
        ds, w, floor = setup
        # noise term 9 at the weight-proportional rule means R = 81/9 = 9
        R = equal_loss_budget(ds, w, 0.0, inverse_sqrt, floor + 9.0, "optimal")
        assert R == pytest.approx(9.0, rel=1e-6)

    def test_uniform_rule_inversion(self, setup, inverse_sqrt):
        ds, w, floor = setup
        R = equal_loss_budget(ds, w, 0.0, inverse_sqrt, floor + 9.0, "uniform")
        assert R == pytest.approx(3.0 * 51.0 / 9.0, rel=1e-6)

    def test_ratio_of_searches(self, setup, inverse_sqrt):
        ds, w, floor = setup
        target = floor + 9.0
        ru = equal_loss_budget(ds, w, 0.0, inverse_sqrt, target, "uniform")
        ro = equal_loss_budget(ds, w, 0.0, inverse_sqrt, target, "optimal")
        assert ru / ro == pytest.approx(uniform_optimal_budget_ratio(w), rel=1e-5)

    def test_unattainable_target(self, setup, inverse_sqrt):
        ds, w, floor = setup
        with pytest.raises(UnattainableLossError) as err:
            equal_loss_budget(ds, w, 0.0, inverse_sqrt, floor * 0.5, "uniform")
        assert f"{floor:.6g}" in str(err.value)

    def test_rejects_unknown_rule(self, setup, inverse_sqrt):
        ds, w, floor = setup
        with pytest.raises(InvalidInputError, match="greedy"):
            equal_loss_budget(ds, w, 0.0, inverse_sqrt, floor + 1.0, "greedy")

    @pytest.mark.parametrize("rule", ["uniform", "optimal"])
    def test_target_met_at_every_budget(self, rule):
        """sigma = 2^-r is at most 1, so the noise term stays below 3 here and
        a target 3.5 above the data term holds however small R is."""
        from sensealloc import ResourceVector, square_loss_total

        ds = generate_synthetic(3.0, 400, rng=RngConfig(5))
        w, nm = np.array([-1.0, -1.0, 1.0]), NoiseModel("quantization")
        floor = square_loss_total(ds, w, 0.0, ResourceVector.uniform(1.0, 3), nm).data_term
        with pytest.raises(InvalidInputError, match="met at every budget") as err:
            equal_loss_budget(ds, w, 0.0, nm, floor + 3.5, rule)
        assert f"{floor + 3.0:.6g}" in str(err.value)

    @pytest.mark.parametrize("scale", [1.0, [1.0, 0.2, 5.0]], ids=["scalar", "vector"])
    def test_ratio_report(self, setup, scale):
        """A per-feature scale c is the problem with weights w*c."""
        ds, w, _ = setup
        rep = ratio_report(ds, w, 0.0, NoiseModel("inverse_sqrt", scale=scale))
        assert rep.empirical_ratio == pytest.approx(rep.theoretical_ratio, rel=1e-4)


class TestRatioBounds:
    def test_equal_classifiers_collapse(self):
        w = np.array([1.0, 2.0])
        lo, hi = budget_ratio_bounds(w, w)
        assert lo == hi

    def test_plugin_values(self):
        lo, hi = budget_ratio_bounds(np.array([1.0, 1.0]), np.array([1.0, 3.0]))
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.25)

    def test_rejects_zero(self):
        with pytest.raises(DegenerateClassifierError):
            budget_ratio_bounds(np.zeros(2), np.ones(2))


class TestConvexityProbe:
    def test_affine_variance_is_clean(self):
        # sigma^2(r) = 21 - 2r: the convexity boundary case
        w = np.array([1.0, 0.5])

        def loss_fn(r):
            return float(np.sum(w**2 * (21.0 - 2.0 * np.asarray(r))))

        def sampler(gen):
            return gen.uniform(1.0, 10.0, 2), gen.uniform(1.0, 10.0, 2)

        report = verify_convexity(loss_fn, sampler, n_checks=800, rng=RngConfig(4))
        assert report.violations == 0

    def test_concave_fixture_reports_violations(self):
        grid = np.linspace(1.0, 10.0, 60)
        table = (grid, (11.0 - grid) ** 0.35)  # concave, so no NoiseModel accepts it
        w = np.array([1.0, 1.0])

        def loss_fn(r):
            return float(np.sum(w**2 * np.interp(r, *table) ** 2))

        def sampler(gen):
            return gen.uniform(1.0, 10.0, 2), gen.uniform(1.0, 10.0, 2)

        report = verify_convexity(loss_fn, sampler, n_checks=800, rng=RngConfig(5))
        assert report.violations > 0
        assert report.max_violation > 0
