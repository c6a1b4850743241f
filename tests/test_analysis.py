import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensealloc import (
    Dataset,
    NoiseModel,
    ResourceVector,
    RngConfig,
    allocate_waterfill,
    budget_ratio_bounds,
    divider_ratio_formula,
    divider_weights,
    equal_loss_budget,
    generate_synthetic,
    ratio_report,
    square_loss_total,
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
        assert R == pytest.approx(9.0, rel=1e-12)

    def test_uniform_rule_inversion(self, setup, inverse_sqrt):
        ds, w, floor = setup
        R = equal_loss_budget(ds, w, 0.0, inverse_sqrt, floor + 9.0, "uniform")
        assert R == pytest.approx(3.0 * 51.0 / 9.0, rel=1e-12)

    def test_ratio_of_searches(self, setup, inverse_sqrt):
        ds, w, floor = setup
        target = floor + 9.0
        ru = equal_loss_budget(ds, w, 0.0, inverse_sqrt, target, "uniform")
        ro = equal_loss_budget(ds, w, 0.0, inverse_sqrt, target, "optimal")
        assert ru / ro == pytest.approx(uniform_optimal_budget_ratio(w), rel=1e-12)

    def test_unattainable_target(self, setup, inverse_sqrt):
        ds, w, floor = setup
        with pytest.raises(UnattainableLossError) as err:
            equal_loss_budget(ds, w, 0.0, inverse_sqrt, floor * 0.5, "uniform")
        assert f"{floor:.6g}" in str(err.value)

    def test_rejects_unknown_rule(self, setup, inverse_sqrt):
        ds, w, floor = setup
        with pytest.raises(InvalidInputError, match="greedy"):
            equal_loss_budget(ds, w, 0.0, inverse_sqrt, floor + 1.0, "greedy")

    def test_rejects_nan_target(self, setup, inverse_sqrt):
        ds, w, _ = setup
        with pytest.raises(InvalidInputError, match="NaN"):
            equal_loss_budget(ds, w, 0.0, inverse_sqrt, float("nan"))

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
        assert rep.empirical_ratio == pytest.approx(rep.theoretical_ratio, rel=1e-12)


def _data_term(ds, w, nm):
    return square_loss_total(ds, w, 0.0, ResourceVector.uniform(1.0, w.size), nm).data_term


def _bisect_budget(ds, w, nm, target, rule):
    """Plain bisection of the loss between the smallest feasible budget for
    a floor of 0.01, a hair above n floor, and the sum of the conftest
    table's caps."""

    def loss(R):
        if rule == "uniform":
            return square_loss_total(ds, w, 0.0, ResourceVector.uniform(R, w.size), nm).total
        return square_loss_total(ds, w, 0.0, allocate_waterfill(w, nm, R).r, nm).total

    lo, hi = np.nextafter(w.size * 0.01, 1.0), w.size * 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if loss(mid) > target else (lo, mid)
    return hi


class TestEqualLossOnATable:
    """The conftest table (s = r^-1/2 on [0.01, 50], floor 0.01) with the
    a = 7 divider.  The search once probed R = 1e-6 first, below the
    smallest feasible budget 0.03, and raised before it searched; so it did
    for a closed form with the same fixed floor."""

    @pytest.fixture
    def divider(self):
        return generate_synthetic(7.0, 400, 0.05, RngConfig(700)), divider_weights(7.0)

    @pytest.mark.parametrize("excess", [8.1, 1.03, 4000.0],
                             ids=["middle", "near-caps", "near-floor"])
    @pytest.mark.parametrize("rule", ["uniform", "optimal"])
    @pytest.mark.parametrize("family", ["tabulated", "inverse"])
    def test_matches_bisection(self, divider, tabulated, family, rule, excess):
        ds, w = divider
        nm = tabulated if family == "tabulated" else NoiseModel(family, floor=0.01)
        target = _data_term(ds, w, nm) + excess
        R = equal_loss_budget(ds, w, 0.0, nm, target, rule)
        assert R == pytest.approx(_bisect_budget(ds, w, nm, target, rule), rel=1e-10)

    def test_ratio_report(self, divider, tabulated):
        ds, w = divider
        target = _data_term(ds, w, tabulated) + np.abs(w).sum() ** 2 / 10.0
        ratio = (_bisect_budget(ds, w, tabulated, target, "uniform")
                 / _bisect_budget(ds, w, tabulated, target, "optimal"))
        rep = ratio_report(ds, w, 0.0, tabulated)
        assert rep.empirical_ratio == pytest.approx(ratio, rel=1e-10)

    @pytest.mark.parametrize("rule", ["uniform", "optimal"])
    def test_below_the_noise_at_the_caps_is_unattainable(self, divider, tabulated, rule):
        """sigma is flat past the cap 50, so the noise term never falls below
        51 / 50: a target 0.5 above the data term is out of reach."""
        ds, w = divider
        with pytest.raises(UnattainableLossError):
            equal_loss_budget(ds, w, 0.0, tabulated, _data_term(ds, w, tabulated) + 0.5, rule)


@pytest.mark.parametrize("rule", ["uniform", "optimal"])
@pytest.mark.parametrize("a", [1.0, 3.0, 7.0])
def test_inverse_sqrt_budgets_are_exact(a, rule):
    """At a noise term |w|_1^2 / 10 the optimal budget is 10 and the uniform
    one 10 d |w|_2^2 / |w|_1^2; a root search stopped at a relative
    tolerance of 1e-6 missed them by 1.7e-9."""
    nm, w = NoiseModel("inverse_sqrt"), divider_weights(a)
    ds = generate_synthetic(a, 400, 0.05, RngConfig(int(100 * a)))
    target = _data_term(ds, w, nm) + np.abs(w).sum() ** 2 / 10.0
    expected = 10.0 * (uniform_optimal_budget_ratio(w) if rule == "uniform" else 1.0)
    assert equal_loss_budget(ds, w, 0.0, nm, target, rule) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("rule", ["uniform", "optimal"])
@pytest.mark.parametrize("family", ["inverse", "inverse_sqrt", "quantization", "tabulated"])
def test_budget_ignores_feature_order_and_units(family, rule, tabulated):
    """Permuting the features, and measuring feature j in units 2^k_j larger
    (its column times 2^k_j, its weight times 2^-k_j, its noise scale times
    2^k_j), leave the budget unchanged."""
    gen = np.random.default_rng(11)
    X, y = gen.normal(size=(80, 4)), gen.choice([-1.0, 1.0], 80)
    w = np.array([0.3, -2.0, 1.1, 0.05])
    k = np.array([-20.0, 3.0, 0.0, 41.0])
    perm = np.array([2, 0, 3, 1])
    table = tabulated.table if family == "tabulated" else None
    nm = NoiseModel(family, table=table)
    scaled = NoiseModel(family, scale=2.0 ** k[perm], table=table)
    target = _data_term(Dataset(X, y), w, nm) + 0.3 * np.abs(w).sum() ** 2
    R = equal_loss_budget(Dataset(X, y), w, 0.0, nm, target, rule)
    moved = Dataset(X[:, perm] * 2.0 ** k[perm], y)
    assert equal_loss_budget(moved, w[perm] * 2.0 ** -k[perm], 0.0, scaled, target,
                             rule) == pytest.approx(R, rel=1e-12)


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
