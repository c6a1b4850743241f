import math

import numpy as np
import pytest

from sensealloc import (
    BoundParams,
    NoiseModel,
    OnlineConfig,
    RngConfig,
    SampleOracle,
    best_fixed_square_loss_l1,
    oracle_project_l1,
    oracle_project_l2,
    project_l1_ball,
    project_l2_ball,
    regret_bound_noisy,
    regret_bound_unknown,
    run_noisy,
    run_unknown,
)
from sensealloc.allocation import simplex_projection_raw
from sensealloc.errors import ConfigError, InfeasibleSetError, InvalidInputError


def make_sampler(w_true, x_sd):
    d = w_true.shape[0]

    def sampler(gen):
        x = gen.normal(0.0, x_sd, size=d)
        return x, float(w_true @ x)

    return sampler


class TestProjections:
    def test_l2_examples(self):
        np.testing.assert_allclose(project_l2_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])
        inside = np.array([0.1, 0.2])
        assert np.array_equal(project_l2_ball(inside, 1.0), inside)

    def test_l1_inside_unchanged(self):
        v = np.array([0.3, -0.4])
        assert np.array_equal(project_l1_ball(v, 1.0), v)

    def test_l1_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            v = rng.normal(0, 2, d)
            got = project_l1_ball(v, 1.2)
            ref = oracle_project_l1(v, 1.2)
            np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_l2_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.normal(0, 3, int(rng.integers(2, 7)))
            np.testing.assert_allclose(project_l2_ball(v, 0.8),
                                       oracle_project_l2(v, 0.8), atol=1e-12)


class TestOracleModes:
    def test_shared_mode_repeats_clean_sample(self, inverse_sqrt):
        w_true = np.array([1.0, 2.0])
        sampler = make_sampler(w_true, 1.0)
        draws = []

        def logged(gen):
            draws.append(sampler(gen))
            return draws[-1]

        oracle = SampleOracle(logged, inverse_sqrt, budget=4.0,
                              dim=2, mode="shared", rng=RngConfig(3))
        oracle.new_round()
        r = np.array([2.0, 2.0])
        x1, y1 = oracle.measure(r)
        x2, y2 = oracle.measure(r)
        assert y1 == y2
        assert not np.array_equal(x1, x2)  # fresh noise each acquisition
        assert len(draws) == 1 and draws[0][0].shape == (2,)

    def test_fresh_mode_draws_new_samples(self, inverse_sqrt):
        oracle = SampleOracle(make_sampler(np.array([1.0, 2.0]), 1.0), inverse_sqrt,
                              budget=4.0, dim=2, mode="fresh", rng=RngConfig(4))
        oracle.new_round()
        _, y1 = oracle.measure(np.array([2.0, 2.0]))
        _, y2 = oracle.measure(np.array([2.0, 2.0]))
        assert y1 != y2

    def test_correlated_mode_couples_probes(self, inverse_sqrt):
        oracle = SampleOracle(make_sampler(np.array([1.0, 2.0]), 1.0), inverse_sqrt,
                              budget=4.0, dim=2, mode="correlated", rng=RngConfig(5))
        oracle.new_round()
        r = np.array([2.0, 2.0])
        x1, _ = oracle.measure(r)
        x2, _ = oracle.measure(r)
        np.testing.assert_allclose(x1, x2)  # same sd, same seed -> same point

    def test_unknown_mode_rejected(self, inverse_sqrt):
        with pytest.raises(ConfigError):
            SampleOracle(make_sampler(np.ones(2), 1.0), inverse_sqrt, budget=1.0,
                         dim=2, mode="chaotic")


class TestRunUnknown:
    def test_feasible_every_round(self, inverse_sqrt):
        cfg = OnlineConfig(weight_cap=3.0, budget=6.0, horizon=300, epsilon=0.3,
                           resource_floor=0.05)
        oracle = SampleOracle(make_sampler(np.array([1.0, 2.0, 0.5]), 0.6),
                              inverse_sqrt, budget=6.0, dim=3, rng=RngConfig(6))
        trace = run_unknown(oracle, cfg)
        assert trace.horizon == 300
        assert np.all(trace.weight_norms <= 3.0 + 1e-9)
        np.testing.assert_allclose(trace.allocations.sum(axis=1), 6.0, rtol=1e-9)
        assert np.all(trace.allocations >= 0.05 - 1e-9)

    def test_matches_reference_loop(self, inverse_sqrt):
        """Twin implementation pinning the update equations and the 1/sqrt(t)
        schedule."""
        w_true = np.array([0.5, 1.5])
        R, eps, T = 4.0, 0.25, 25
        cfg = OnlineConfig(weight_cap=2.0, budget=R, horizon=T, epsilon=eps,
                           resource_floor=0.01)
        oracle = SampleOracle(make_sampler(w_true, 0.8), inverse_sqrt, budget=R,
                              dim=2, mode="shared", rng=RngConfig(7))
        trace = run_unknown(oracle, cfg)

        twin = SampleOracle(make_sampler(w_true, 0.8), inverse_sqrt, budget=R,
                            dim=2, mode="shared", rng=RngConfig(7))
        w = np.zeros(2)
        r = np.full(2, R / 2)
        losses = []
        allocs = []
        for t in range(1, T + 1):
            twin.new_round()
            x1, y = twin.measure(r)
            x2, _ = twin.measure(r + eps)
            eta = 1.0 / math.sqrt(t)
            losses.append((w @ x1 - y) ** 2)
            allocs.append(r.copy())
            gw = (w @ x1 - y) * x1
            gr = w**2 * (x2**2 - x1**2) / eps
            w = project_l2_ball(w - eta * gw, 2.0)
            r = simplex_projection_raw(r - eta * gr, R, 0.01)
        np.testing.assert_allclose(trace.losses, losses, rtol=1e-12)
        np.testing.assert_allclose(trace.allocations, allocs, rtol=1e-12)

    def test_gradient_estimator_unbiased(self, inverse_sqrt):
        # mean of w_i^2 ((x2_i)^2 - (x1_i)^2)/eps vs the variance-derivative
        # difference quotient, at fixed (w, r)
        w = np.array([1.0, 2.0])
        r = np.array([1.0, 3.0])
        eps = 0.5
        n = 30_000
        oracle = SampleOracle(make_sampler(np.array([0.7, -0.4]), 1.0), inverse_sqrt,
                              budget=4.0, dim=2, mode="shared", rng=RngConfig(8))
        probes = np.empty((n, 2))
        for k in range(n):
            oracle.new_round()
            x1, _ = oracle.measure(r)
            x2, _ = oracle.measure(r + eps)
            probes[k] = w**2 * (x2**2 - x1**2) / eps
        expected = w**2 * (inverse_sqrt.sigma_sq(r + eps) - inverse_sqrt.sigma_sq(r)) / eps
        se = probes.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(probes.mean(axis=0) - expected) <= 3 * se)


class TestUnknownBound:
    def cfg(self, **kw):
        params = BoundParams(bx4=1.0, bdelta2=1.0, bdelta4=1.0)
        base = dict(weight_cap=4.0, budget=3.0, horizon=100, epsilon=0.5,
                    bound_params=params)
        base.update(kw)
        return OnlineConfig(**base)

    def test_diameter_term(self):
        cfg = self.cfg()
        # diameter 2 sqrt(9+16) = 10 dominates at grad == 0
        val = regret_bound_unknown(cfg, T=4)
        grad_sq = 2 * 16 * 8 + 2 * 2 + 2 * 8 * 256 / 0.25
        assert val == pytest.approx(10.0 * 2 / 2 + (2 - 0.5) * grad_sq)

    def test_moment_combination(self):
        # bx4=1, bdelta2=1, bdelta4=1 -> combined fourth moment 8, second 2
        cfg = self.cfg()
        fresh = regret_bound_unknown(cfg, T=9, variant="fresh")
        shared = regret_bound_unknown(cfg, T=9, variant="shared")
        assert fresh > shared  # combined moment 8 vs bdelta4 1 in the last term

    def test_monotone_in_horizon_and_probe(self):
        cfg = self.cfg()
        assert regret_bound_unknown(cfg, 400) >= regret_bound_unknown(cfg, 100)
        finer = self.cfg(epsilon=0.1)
        assert regret_bound_unknown(finer, 100) > regret_bound_unknown(cfg, 100)

    def test_missing_params_rejected(self):
        cfg = OnlineConfig(weight_cap=1.0, budget=1.0, horizon=10, epsilon=0.1)
        with pytest.raises(ConfigError):
            regret_bound_unknown(cfg, 10)
        with pytest.raises(ConfigError):
            regret_bound_unknown(self.cfg(), 10, variant="correlated")  # needs bgrad
        ok = self.cfg(bound_params=BoundParams(1.0, 1.0, 1.0, bgrad=2.0))
        assert regret_bound_unknown(ok, 10, variant="correlated") > 0

    @pytest.mark.parametrize("T", [-1, 0, 2.5, math.nan])
    def test_bad_horizon_rejected(self, T):
        with pytest.raises(InvalidInputError, match="rounds"):
            regret_bound_unknown(self.cfg(), T)


class TestRunNoisy:
    def test_feasibility_and_l1_cap(self, inverse_sqrt):
        cfg = OnlineConfig(weight_cap=2.0, budget=8.0, horizon=400)
        oracle = SampleOracle(make_sampler(np.array([1.5, 0.0, 0.0, 0.0]), 0.5),
                              inverse_sqrt, budget=8.0, dim=4, rng=RngConfig(9))
        trace = run_noisy(oracle, cfg, "efficient", inverse_sqrt)
        assert np.all(np.abs(trace.allocations.sum(axis=1) - 8.0) <= 1e-9 * 8.0)
        # weight norms recorded pre-update; recompute the invariant on the rule
        assert np.all(trace.weight_norms >= 0)

    def test_matches_reference_loop(self, inverse_sqrt):
        w_true = np.array([2.0, 0.5])
        R, T, B = 4.0, 30, 1.5
        cfg = OnlineConfig(weight_cap=B, budget=R, horizon=T)
        oracle = SampleOracle(make_sampler(w_true, 0.7), inverse_sqrt, budget=R,
                              dim=2, rng=RngConfig(10))
        trace = run_noisy(oracle, cfg, "efficient", inverse_sqrt)

        twin = SampleOracle(make_sampler(w_true, 0.7), inverse_sqrt, budget=R,
                            dim=2, rng=RngConfig(10))
        w = np.zeros(2)
        r = np.full(2, R / 2)
        eta = B / math.sqrt(T)
        losses = []
        allocs = []
        for _ in range(T):
            twin.new_round()
            x, y = twin.measure(r)
            losses.append((w @ x - y) ** 2)
            allocs.append(r.copy())
            grad = 2 * (w @ x - y) * x - inverse_sqrt.sigma_sq(r) * w
            w = project_l1_ball(w - eta * grad, B)
            l1 = np.abs(w).sum()
            r = np.full(2, R / 2) if l1 == 0 else R / 4 + R * np.abs(w) / (2 * l1)
        np.testing.assert_allclose(trace.losses, losses, rtol=1e-12)
        np.testing.assert_allclose(trace.allocations, allocs, rtol=1e-12)

    def test_zero_weight_round_uses_uniform_rule(self, inverse_sqrt):
        cfg = OnlineConfig(weight_cap=1.0, budget=6.0, horizon=1)
        oracle = SampleOracle(make_sampler(np.array([1.0, 1.0, 1.0]), 0.5),
                              inverse_sqrt, budget=6.0, dim=3, rng=RngConfig(11))
        trace = run_noisy(oracle, cfg, "efficient", inverse_sqrt)
        np.testing.assert_allclose(trace.allocations[0], [2.0, 2.0, 2.0])

    def test_negligible_noise_learns_realizable_stream(self):
        tiny = NoiseModel("inverse_sqrt", scale=1e-9)
        w_true = np.array([1.0, -0.5])
        cfg = OnlineConfig(weight_cap=2.0, budget=4.0, horizon=4000)
        oracle = SampleOracle(make_sampler(w_true, 0.7), tiny, budget=4.0,
                              dim=2, rng=RngConfig(12))
        trace = run_noisy(oracle, cfg, "uniform", tiny)
        first = trace.losses[:400].mean()
        last = trace.losses[-400:].mean()
        assert last < 0.05 * first

    @pytest.mark.parametrize("rule", ["greedy", lambda w: np.array([3.0, 2.0, 1.0])],
                             ids=["unknown-name", "callable"])
    def test_rule_must_be_uniform_or_efficient(self, inverse_sqrt, rule):
        cfg = OnlineConfig(weight_cap=1.0, budget=6.0, horizon=5)
        oracle = SampleOracle(make_sampler(np.ones(3), 0.5), inverse_sqrt,
                              budget=6.0, dim=3, rng=RngConfig(13))
        with pytest.raises(ConfigError, match="unknown allocation rule"):
            run_noisy(oracle, cfg, rule, inverse_sqrt)


class TestNoisyBounds:
    def test_uniform_plugin_value(self):
        cfg = OnlineConfig(weight_cap=1.0, budget=2.0, horizon=16)
        G, bound = regret_bound_noisy(cfg, d=2, bx4=1.0, rule="uniform")
        assert G == pytest.approx(338.0)
        assert bound == pytest.approx(0.5 * 339.0 * 1.0 * 4.0)

    def test_ratio_grows_linearly_in_dimension(self):
        cfg = OnlineConfig(weight_cap=2.0, budget=5.0, horizon=100)
        ratios = []
        for d in (50, 100, 200):
            Gu, _ = regret_bound_noisy(cfg, d=d, bx4=1.0, rule="uniform")
            Ge, _ = regret_bound_noisy(cfg, d=d, bx4=1.0, rule="efficient")
            ratios.append(Gu / Ge)
        assert ratios[1] / ratios[0] == pytest.approx(2.0, rel=0.15)
        assert ratios[2] / ratios[1] == pytest.approx(2.0, rel=0.15)

    def test_low_dimension_is_finite(self):
        cfg = OnlineConfig(weight_cap=1.0, budget=1.0, horizon=4)
        for rule in ("uniform", "efficient"):
            G, bound = regret_bound_noisy(cfg, d=1, bx4=1.0, rule=rule)
            assert math.isfinite(G) and math.isfinite(bound)

    def test_unknown_rule_rejected(self):
        cfg = OnlineConfig(weight_cap=1.0, budget=1.0, horizon=4)
        with pytest.raises(ConfigError):
            regret_bound_noisy(cfg, d=2, bx4=1.0, rule="greedy")


class TestComparator:
    def test_unconstrained_solution_when_feasible(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(200, 3))
        w = np.array([0.5, -0.25, 0.1])
        y = X @ w + rng.normal(0, 0.05, 200)
        val = best_fixed_square_loss_l1(X, y, radius=2.0)
        w_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert val == pytest.approx(float(np.sum((X @ w_ls - y) ** 2)), rel=1e-10)

    def test_constrained_matches_small_grid(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(80, 2))
        y = X @ np.array([2.0, -1.0]) + rng.normal(0, 0.1, 80)
        val = best_fixed_square_loss_l1(X, y, radius=0.8)
        best = math.inf
        for w1 in np.linspace(-0.8, 0.8, 801):
            w2_mag = 0.8 - abs(w1)
            for w2 in (-w2_mag, w2_mag):
                resid = X @ np.array([w1, w2]) - y
                best = min(best, float(resid @ resid))
        assert val == pytest.approx(best, rel=1e-3)


def test_trace_csv_roundtrip(tmp_path, inverse_sqrt):
    cfg = OnlineConfig(weight_cap=1.0, budget=3.0, horizon=10, epsilon=0.2,
                       resource_floor=0.01)
    oracle = SampleOracle(make_sampler(np.array([1.0, 0.5, 0.2]), 0.5),
                          inverse_sqrt, budget=3.0, dim=3, rng=RngConfig(16))
    trace = run_unknown(oracle, cfg)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "round,loss,r_1,r_2,r_3,grad_norm"
    assert len(rows) == 11
    got = np.array([float(v) for v in rows[3].split(",")[2:5]])
    np.testing.assert_allclose(got, trace.allocations[2], rtol=1e-15)


@pytest.mark.parametrize("field", ["epsilon", "weight_cap", "budget"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_online_config_rejects_non_finite(field, bad):
    kw = dict(weight_cap=1.0, budget=3.0, horizon=10, epsilon=0.2)
    kw[field] = bad
    with pytest.raises(ConfigError):
        OnlineConfig(**kw)


@pytest.mark.parametrize("horizon", [2.5, 10.0, True, "10", np.float64(3.0)])
def test_online_config_rejects_non_integer_horizon(horizon):
    with pytest.raises(ConfigError):
        OnlineConfig(weight_cap=1.0, budget=3.0, horizon=horizon)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_online_config_rejects_bad_resource_floor(bad):
    """A NaN floor made run_unknown divide by zero; -1 let allocations go
    negative."""
    with pytest.raises(ConfigError):
        OnlineConfig(weight_cap=1.0, budget=3.0, horizon=10, resource_floor=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_sample_oracle_rejects_bad_budget(bad, inverse_sqrt):
    with pytest.raises(InvalidInputError):
        SampleOracle(lambda g: (g.normal(size=3), 1.0), inverse_sqrt, budget=bad, dim=3)


def test_online_config_accepts_numpy_integer_horizon():
    assert OnlineConfig(weight_cap=1.0, budget=3.0, horizon=np.int64(10)).horizon == 10


@pytest.mark.parametrize("mode", ["shared", "fresh", "correlated"])
@pytest.mark.parametrize("run", ["unknown", "noisy"])
def test_sampler_dimension_mismatch_rejected(mode, run, inverse_sqrt):
    oracle = SampleOracle(lambda g: (g.normal(size=3), 1.0), inverse_sqrt, budget=6.0,
                          dim=5, mode=mode)
    cfg = OnlineConfig(weight_cap=1.0, budget=6.0, horizon=5)
    with pytest.raises(InvalidInputError, match="dim"):
        run_unknown(oracle, cfg) if run == "unknown" else run_noisy(oracle, cfg, "uniform",
                                                                       inverse_sqrt)


@pytest.mark.parametrize("v", [[1.0, np.nan, 2.0], [np.inf, 0.0]])
def test_l1_projection_rejects_non_finite(v):
    with pytest.raises(InfeasibleSetError):
        project_l1_ball(np.array(v), 1.0)


def test_l1_projection_survives_cancellation():
    # the cumulative sum cancels and hides every support entry, and
    # theta = 1e300 - 3 rounds to the smallest support entry
    out = project_l1_ball(np.array([1e300, -1e300, 2.0]), 3.0)
    np.testing.assert_array_equal(out, [1.5, -1.5, 0.0])
    out = project_l1_ball(np.array([1e300 * (1 + 1e-15), -1e300, 2.0]), 3.0)
    np.testing.assert_array_equal(out, [3.0, 0.0, 0.0])


@pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 0.0]])
def test_l2_projection_rejects_non_finite_points(v):
    with pytest.raises(InfeasibleSetError):
        project_l2_ball(np.array(v), 1.0)


def test_l2_projection_of_a_point_whose_square_overflows():
    with np.errstate(over="ignore"):
        out = project_l2_ball(np.array([[1e200, 0.0], [-1e200, 0.0]]), 2.0)
    np.testing.assert_allclose(out, [[math.sqrt(2), 0.0], [-math.sqrt(2), 0.0]], rtol=1e-15)


@pytest.mark.parametrize("radius", [-1.0, np.nan])
def test_l2_projection_rejects_bad_radius(radius):
    with pytest.raises(InfeasibleSetError):
        project_l2_ball(np.array([3.0, 4.0]), radius)
